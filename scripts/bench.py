#!/usr/bin/env python3
"""Micro-benchmarks of the building blocks, as medians of repeated calls.

Usage:
    python scripts/bench.py [--out FILE] LABEL=SRC [LABEL=SRC ...]

Times the construction of the L = 127 sphere (its Legendre tensors), sphere
``analyze``, ``synthesize`` and ``laplacian`` at L = 127, the
torus Laplacian at 256^2, one theta-form ``green_field`` at 256^2, one damped
coupled Newton step (``newton_step``, whose GMRES runs to the forcing term
``solvers.forcing`` of its residual) at 256^2: the first step of the
continuation of ``scripts/configs/sweep_torus256.json`` at eps = 0.1, at
alpha = 0.0625/16 from the decoupled state, one CG ``solve_helmholtz`` at
256^2 (to its default 1e-13): the first Newton correction of the twist path
of ``scripts/configs/vortex_torus256.json``, the coarse level of the coupled
preconditioner at 256^2: the low-mode window (``Torus.low_modes``) and the
inverse of the Galerkin block (``solvers.low_mode_block``) of the
Jacobian of the Newton step above, over the coefficient fields that its
residual carries, one monotone-iteration step at L = 127: the spectral solve
``solve_shifted(C, rhs)`` of the first iteration on the first rung of
``scripts/configs/eb_sphere127.json``, with the shift C that the iteration
takes at f_1, and the ``solve-vortex`` and ``solve-tke`` commands on
``vortex_torus256.json`` and ``tke_torus256.json``, called in-process
(``cli.main``, artifacts into a temporary directory). Each LABEL=SRC pair
names a
source tree (the directory holding the ``vortexlab`` package). Every side is
measured in its own fresh process, and the sides take turns over ROUNDS
rounds so that a drift in CPU speed affects them alike. Each round takes
REPEATS timed calls per micro-benchmark (SLOW_REPEATS for the slow ones)
after one warm-up call. The medians and quartiles over all rounds go to FILE
(default: standard output) as JSON, with the run record of
``perfbench/run.py`` (machine, Python, numpy, scipy and BLAS versions, BLAS
thread setting, git commit) and the work counters (``counts``): the GMRES
iterations and 2-D FFTs of the Newton step, the CG iterations of the CG
solve and of each command, the monotone iterations of the δ ladder of
``eb_sphere127.json``, and the Newton steps and the GMRES and CG iterations
of one ``solve_path`` on ``gv_torus256.json`` (the decoupled state and
its 16 alpha steps). CG iterations are counted as calls of the torus
``precondition``, which CG makes once an iteration and nothing else calls.

Example, comparing a copy of another commit with this one:
    python scripts/bench.py --out BENCH_12.json before=../parent/src after=src
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
REPEATS = 20      # timed calls per micro-benchmark in each round
SLOW_REPEATS = 3  # the same for the sphere build and the Newton step (~0.2 s)
ROUNDS = 10       # alternating rounds per side
CONFIGS = os.path.join(ROOT, "scripts", "configs")


def load_config(name):
    with open(os.path.join(CONFIGS, name)) as fh:
        return json.load(fh)


def newton_step_case(torus, cfg):
    """(newton_step, its arguments) for the first continuation step of the
    sweep config's divisor at eps = 0.1, from the decoupled state; the step's
    GMRES runs to the forcing term of the residual there."""
    from vortexlab.cli import build_divisor
    from vortexlab.coupled import decoupled_state, make_problem, newton_step

    problem = make_problem(torus, build_divisor(cfg), tau=float(cfg["tau"]),
                           eps=0.1)
    state = decoupled_state(problem)
    alpha = float(cfg["alpha"]["target"]) / cfg["alpha"]["steps"]
    return newton_step, (problem, alpha, state.f_tilde, state.u)


def low_mode_block_case(problem, alpha, f_tilde, u):
    """(the window and the inverse of the low-mode Galerkin block, no
    arguments) of the Jacobian at (alpha, f~, u), over the coefficient
    fields that the residual there carries."""
    import numpy as np

    from vortexlab import solvers
    from vortexlab.coupled import residual

    coeffs = residual(problem, alpha, f_tilde, u).coefficients

    def run():
        block = solvers.low_mode_block(problem.surface, coeffs)[0]
        return np.linalg.inv(block)

    return run, ()


def helmholtz_case(torus, cfg):
    """(solve_helmholtz, its arguments) for the first Newton correction of the
    vortex config's twist-path solve: (lap + Phi0) d = -r at f = 0."""
    from vortexlab.cli import _vortex_problem, build_divisor
    from vortexlab.solvers import solve_helmholtz

    problem = _vortex_problem(cfg, torus, build_divisor(cfg))
    return solve_helmholtz, (torus, problem.phi0_sq, -problem.twist_term())


def monotone_step_case(sphere, cfg):
    """(solve_shifted, its arguments) for the first monotone iteration on the
    first delta rung of the Bogomol'nyi config, from f_1 = (log tau - u0)/2,
    with the shift C = 1 + lam max(0, max e^{-v0} F'(2 f_1 + u0)) of f_1."""
    import numpy as np

    from vortexlab.bogomolnyi import (F_nonlinearity, F_prime,
                                      build_supersolution)
    from vortexlab.cli import _eb_problem, build_divisor

    problem = _eb_problem(cfg, sphere, build_divisor(cfg))
    lam = build_supersolution(problem)[3]
    delta = cfg["delta"][0]
    u0, ev = problem.rung(delta)
    f = 0.5 * (np.log(problem.tau) - u0)
    t = 2.0 * f + u0
    slope = ev * F_prime(t, problem.alpha, problem.tau)
    shift = 1.0 + lam * max(0.0, float(np.max(slope)))
    rhs = (-0.5 * lam * ev * F_nonlinearity(t, problem.alpha, problem.tau)
           + shift * f - problem.params.N_tilde)
    return sphere.solve_shifted, (shift, rhs)


def command_case(name, cfg):
    """(a call of the CLI command name on the shipped config cfg, no
    arguments): each call writes its artifact into a new temporary
    directory, removed after it."""
    import shutil
    import tempfile

    from vortexlab.cli import main

    def run():
        out = tempfile.mkdtemp()
        try:
            code = main([name, "--config", os.path.join(CONFIGS, cfg),
                         "--out", os.path.join(out, "art"), "--quiet"])
        finally:
            shutil.rmtree(out)
        if code != 0:
            raise RuntimeError(f"{name} on {cfg} exited {code}")

    return run, ()


def continuation_work(torus, cfg):
    """Newton steps, GMRES and CG iterations of the decoupled state and the
    alpha walk of the gv config."""
    from vortexlab.cli import build_divisor
    from vortexlab.coupled import make_problem, solve_path

    problem = make_problem(torus, build_divisor(cfg), tau=float(cfg["tau"]),
                           eps=float(cfg["epsilon"]))
    (_, _, log), cg = count_cg(solve_path, (problem, problem.params.alpha_star,
                                            cfg["alpha"]["steps"]))
    return {"newton_steps": len(log),
            "gmres_iterations": sum(e["krylov"] for e in log),
            "cg_iterations": cg}


def ladder_iterations(sphere, cfg):
    """The monotone iterations of the Bogomol'nyi config's delta ladder."""
    from vortexlab.bogomolnyi import delta_ladder_and_assemble
    from vortexlab.cli import _eb_problem, build_divisor

    problem = _eb_problem(cfg, sphere, build_divisor(cfg))
    report = delta_ladder_and_assemble(problem, deltas=cfg["delta"])[-1]
    return sum(report["iterations"])


def measure():
    """Per-call wall times in seconds of each micro-benchmark, in this process."""
    import numpy as np

    from vortexlab.greens import green_field
    from vortexlab.surface import build_surface

    rng = np.random.default_rng(0)
    sphere = build_surface("sphere", 127)
    torus = build_surface("torus", 256)
    grid = rng.normal(size=sphere.shape)
    coeffs = sphere.analyze(grid)
    cfg = load_config("sweep_torus256.json")
    cone_point = tuple(cfg["divisor"]["cone"][0]["point"])
    step, step_args = newton_step_case(torus, cfg)
    cg, cg_args = helmholtz_case(torus, load_config("vortex_torus256.json"))
    eb_cfg = load_config("eb_sphere127.json")
    mono, mono_args = monotone_step_case(sphere, eb_cfg)
    cases = {
        "sphere127.build": (build_surface, ("sphere", 127), SLOW_REPEATS),
        "sphere127.analyze": (sphere.analyze, (grid,), REPEATS),
        "sphere127.synthesize": (sphere.synthesize, (coeffs,), REPEATS),
        "sphere127.laplacian": (sphere.laplacian, (grid,), REPEATS),
        "torus256.laplacian": (torus.laplacian, (rng.normal(size=torus.shape),),
                               REPEATS),
        "torus256.green_field": (green_field, (torus, cone_point), REPEATS),
        "torus256.gv_newton_step": (step, step_args, SLOW_REPEATS),
        "torus256.helmholtz_cg": (cg, cg_args, REPEATS),
        "sphere127.monotone_step": (mono, mono_args, REPEATS),
        "torus256.solve_vortex": (*command_case("solve-vortex",
                                                "vortex_torus256.json"),
                                  SLOW_REPEATS),
        "torus256.solve_tke": (*command_case("solve-tke", "tke_torus256.json"),
                               REPEATS),
        "torus256.low_mode_block": (*low_mode_block_case(*step_args), REPEATS),
    }
    out = {}
    for name, (fn, args, repeats) in cases.items():
        fn(*args)
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn(*args)
            samples.append(time.perf_counter() - t0)
        out[name] = samples
    # work counters: the GMRES iterations and 2-D FFTs of the timed Newton
    # step, the CG iterations of the timed CG solve and commands, the
    # monotone iterations of the Bogomol'nyi ladder and the work of one
    # alpha continuation
    result, transforms = count_transforms(step, step_args)
    counts = {"torus256.gv_newton_step.gmres_iterations": result[4],
              "torus256.gv_newton_step.transforms": transforms,
              "sphere127.eb_ladder.monotone_iterations":
                  ladder_iterations(sphere, eb_cfg)}
    for name in ("torus256.helmholtz_cg", "torus256.solve_vortex",
                 "torus256.solve_tke"):
        fn, args, _ = cases[name]
        counts[name + ".cg_iterations"] = count_cg(fn, args)[1]
    work = continuation_work(torus, load_config("gv_torus256.json"))
    counts.update({"torus256.gv_continuation." + key: value
                   for key, value in work.items()})
    return {"seconds": out, "counts": counts}


def count_cg(fn, args):
    """fn(*args) and the CG iterations that it made: the calls of the torus
    ``precondition``, one per CG iteration."""
    from vortexlab.surface import Torus

    count = 0
    precondition = Torus.precondition

    def counted(self, *rest, **kwargs):
        nonlocal count
        count += 1
        return precondition(self, *rest, **kwargs)

    Torus.precondition = counted
    try:
        result = fn(*args)
    finally:
        Torus.precondition = precondition
    return result, count


def count_transforms(fn, args):
    """fn(*args) and the number of 2-D real FFTs that it made: each
    ``np.fft.rfft2`` and ``irfft2`` counts once per 2-D slice of its input,
    and each ``np.fft.irfft`` of a 2-D array once, as the last half of an
    inverse 2-D transform (the torus inverse runs ``ifft`` along x, then
    ``irfft`` along y, as numpy's ``irfft2`` does)."""
    import numpy as np

    count = 0
    originals = {name: getattr(np.fft, name)
                 for name in ("rfft2", "irfft2", "irfft")}

    def counted(name, fft):
        def call(a, *rest, **kwargs):
            nonlocal count
            if name != "irfft":
                count += int(np.prod(np.shape(a)[:-2]))
            elif np.ndim(a) == 2:
                count += 1
            return fft(a, *rest, **kwargs)
        return call

    for name, fft in originals.items():
        setattr(np.fft, name, counted(name, fft))
    try:
        result = fn(*args)
    finally:
        for name, fft in originals.items():
            setattr(np.fft, name, fft)
    return result, count


def environment():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from run import run_record

    return run_record({v: os.environ.get(v) for v in THREAD_VARS}, None)


def run_side(src):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child"], env=env,
        cwd=ROOT, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("sides", nargs="*", metavar="LABEL=SRC")
    parser.add_argument("--out", default=None)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure()))
        return 0

    if not args.sides or any("=" not in s for s in args.sides):
        parser.error("give one or more sides as LABEL=SRC")
    sides = dict(s.split("=", 1) for s in args.sides)
    samples = {label: {} for label in sides}
    counts = {}
    order = list(sides)
    for rnd in range(ROUNDS):
        for label in order if rnd % 2 == 0 else order[::-1]:
            result = run_side(sides[label])
            counts[label] = result["counts"]
            for name, times in result["seconds"].items():
                samples[label].setdefault(name, []).extend(times)
    report = {
        "environment": environment(),
        "repeats_per_round": REPEATS,
        "slow_repeats_per_round": SLOW_REPEATS,
        "rounds": ROUNDS,
        "unit": "ms",
        "median_ms": {
            label: {name: 1e3 * statistics.median(times)
                    for name, times in per.items()}
            for label, per in samples.items()},
        "counts": counts,
        "quartiles_ms": {
            label: {name: [1e3 * q for q in statistics.quantiles(times, n=4)]
                    for name, times in per.items()}
            for label, per in samples.items()},
    }
    text = json.dumps(report, indent=1, sort_keys=True)
    if args.out is None:
        print(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
