"""Command-line interface: config ingestion, run orchestration, artifact
persistence, verification, and heatmap export.

Subcommands: solve-vortex, solve-tke, solve-gv, sweep-eps, solve-eb,
verify, export.  Exit codes: 0 ok, 2 config/validation, 3 convergence or
verification failure, 4 admissibility refusal.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

from . import __version__
from .bogomolnyi import (
    assembled_residual,
    check_numerical_assumption,
    delta_ladder_and_assemble,
    make_eb_problem,
    supersolution_margin,
)
from .coupled import SolveState, continue_alpha, decoupled_state, make_problem, residual
from .errors import (
    AssumptionNotSatisfied,
    ConfigError,
    ConvergenceFailure,
    VortexlabError,
)
from .fieldio import read_field, sha256_file, write_field, write_jsonl, write_pgm
from .fields import DivisorData, build_divisor_fields, derive_params
from .singular import run_ladder
from .surface import build_surface, check_field
from .verify import Certificate, certify_state, certify_tke, certify_vortex
from .vortex import make_vortex_problem, solve_twisted_ke, solve_vortex

_COMMON_KEYS = {"backend", "resolution", "divisor", "seed", "label", "tolerances"}
_ALLOWED_KEYS = {
    "solve-vortex": _COMMON_KEYS | {"tau", "twist", "t"},
    "solve-tke": _COMMON_KEYS | {"epsilon", "t"},
    "solve-gv": _COMMON_KEYS | {"tau", "alpha", "epsilon"},
    "sweep-eps": _COMMON_KEYS | {"tau", "alpha", "epsilon", "fit"},
    "solve-eb": _COMMON_KEYS | {"tau", "alpha", "delta", "lambda", "sigma",
                                "margin", "lambda_pair"},
}
# keys a runner reads with cfg[...], beyond backend and resolution
_REQUIRED_KEYS = {"solve-vortex": ("tau",), "solve-gv": ("tau",),
                  "sweep-eps": ("tau",)}
_DIVISOR_KEYS = {"zeros", "cone", "parabolic"}
# the weight key of each divisor group; every entry is {"point", weight}
_WEIGHT_KEYS = {"zeros": "n", "cone": "beta", "parabolic": "alpha_k"}
_TWIST_KEYS = {"b", "modes"}
_TOL_KEYS = {"residual", "multistart", "assembled_residual"}
# the smoothing ladders: a number, or a strictly decreasing list of numbers
_LADDER_KEYS = {"sweep-eps": "epsilon", "solve-eb": "delta"}
_NUMBER_KEYS = ("tau", "t", "lambda", "sigma", "margin")
_BOOL_KEYS = ("fit", "lambda_pair")

_COVERAGE = {
    "solve-vortex": "covered: twisted-vortex existence/uniqueness "
                    "(no genus restriction)",
    "solve-tke": "covered: twisted Kaehler-Einstein, negative constant",
    "solve-gv": "experimental: continuation existence is proven for genus >= 2;"
                " model backends are genus 0/1",
    "sweep-eps": "experimental: continuation existence is proven for genus >= 2;"
                 " model backends are genus 0/1",
    "solve-eb": "covered (sphere): Bogomol'nyi-phase existence under the "
                "admissibility inequalities",
}


def load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def validate_config(cfg, command):
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    allowed = _ALLOWED_KEYS[command]
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"unknown config key {key!r} for {command}")
    for key in ("backend", "resolution") + _REQUIRED_KEYS.get(command, ()):
        if key not in cfg:
            raise ConfigError(f"missing config key {key!r}")
    for key in ("resolution", "seed"):
        _check_integer(key, cfg.get(key, 0))
    for key in ("epsilon", "delta"):
        if key in cfg:
            _check_numbers(key, cfg[key], _LADDER_KEYS.get(command) == key)
    for key in _NUMBER_KEYS:
        if key in cfg:
            _check_numbers(key, cfg[key], False)
    for key in _BOOL_KEYS:
        if not isinstance(cfg.get(key, False), bool):
            raise ConfigError(f"config key {key!r} must be true or false, "
                              f"got {cfg[key]!r}")
    alpha = cfg.get("alpha", 0.0)
    if isinstance(alpha, dict) and command != "solve-eb":
        target = alpha.get("target", "alpha_star")
        if target != "alpha_star":
            _check_numbers("target", target, False)
        steps = alpha.get("steps", 16)
        _check_integer("steps", steps)
        if steps < 1:
            raise ConfigError(f"config key 'steps' must be positive, got {steps!r}")
    else:
        _check_numbers("alpha", alpha, False)
    div = _check_object("divisor", cfg.get("divisor", {}), _DIVISOR_KEYS)
    for group, entries in div.items():
        if not (isinstance(entries, list)
                and all(isinstance(e, dict) for e in entries)):
            raise ConfigError(f"divisor {group!r} must be a list of objects")
        weight = _WEIGHT_KEYS[group]
        for e in entries:
            for key in e:
                if key not in ("point", weight):
                    raise ConfigError(f"unknown key {key!r} in divisor {group!r}")
            for key in ("point", weight):
                if key not in e:
                    raise ConfigError(f"divisor {group!r} entry is missing "
                                      f"key {key!r}")
            point = e["point"]
            if not (isinstance(point, list) and len(point) == 2
                    and all(map(_is_number, point))):
                raise ConfigError(f"divisor {group!r} key 'point' must be a "
                                  f"list of 2 numbers, got {point!r}")
            if group == "zeros":
                _check_integer(weight, e[weight])
            else:
                _check_numbers(weight, e[weight], False)
    twist = cfg.get("twist")  # null: no twist
    if twist is not None:
        _check_object("twist", twist, _TWIST_KEYS)
        _check_numbers("b", twist.get("b", 0.0), False)
        modes = twist.get("modes", [])
        if not (isinstance(modes, list) and all(
                isinstance(m, list) and len(m) == 4 and all(map(_is_number, m))
                for m in modes)):
            raise ConfigError(f"twist key 'modes' must be a list of 4-number "
                              f"lists, got {modes!r}")
    tol = _check_object("tolerances", cfg.get("tolerances", {}), _TOL_KEYS)
    for key, value in tol.items():
        _check_numbers(key, value, False)
    return cfg


def _check_object(name, value, keys):
    """A JSON object whose keys are all in ``keys``; returns it."""
    if not isinstance(value, dict):
        raise ConfigError(f"config key {name!r} must be an object, "
                          f"got {value!r}")
    for key in value:
        if key not in keys:
            raise ConfigError(f"unknown {name} key {key!r}")
    return value


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_integer(key, value):
    if isinstance(value, bool) or not (
            isinstance(value, int)
            or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"config key {key!r} must be an integer, "
                          f"got {value!r}")


def _check_numbers(key, value, ladder):
    """A number, or for a ladder key a non-empty strictly decreasing list."""
    values = value if ladder and isinstance(value, list) else [value]
    if not all(map(_is_number, values)):
        kind = "a number or a list of numbers" if ladder else "a number"
        raise ConfigError(f"config key {key!r} must be {kind}, got {value!r}")
    if not values:
        raise ConfigError(f"config key {key!r} must not be an empty list")
    if any(b >= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"config key {key!r} must be strictly decreasing, "
                          f"got {value!r}")


def build_divisor(cfg):
    div = cfg.get("divisor", {})
    zeros = tuple((tuple(e["point"]), int(e["n"])) for e in div.get("zeros", []))
    cone = tuple((tuple(e["point"]), float(e["beta"])) for e in div.get("cone", []))
    parab = tuple((tuple(e["point"]), float(e["alpha_k"]))
                  for e in div.get("parabolic", []))
    return DivisorData(zeros=zeros, cone=cone, parabolic=parab)


def build_setup(cfg):
    surface = build_surface(cfg["backend"], int(cfg["resolution"]))
    divisor = build_divisor(cfg)
    for p in divisor.all_points():
        if not surface.point_off_grid(p):
            raise ConfigError(
                f"marked point {list(p)} coincides with a grid node; "
                "perturb it off-grid"
            )
    return surface, divisor


def synthesize_twist(surface, twist_cfg):
    """Mean-free twist potential from the mode list in the config."""
    if twist_cfg is None:
        return 0.0, None
    b = float(twist_cfg.get("b", 0.0))
    modes = twist_cfg.get("modes", [])
    if not modes:
        return b, None
    norm = []
    for m in modes:
        if surface.backend == "torus":
            kx, ky, a, c = m
            if (int(kx), int(ky)) == (0, 0):
                raise ConfigError("twist mode (0,0) is not mean-free")
            norm.append((int(kx), int(ky), float(a), float(c)))
        else:
            l, mm, a, c = m
            if int(l) == 0:
                raise ConfigError("twist mode l=0 is not mean-free")
            norm.append((int(l), int(mm), float(a), float(c)))
    if surface.backend == "torus":
        F = surface.eval_modes(norm, surface.X, surface.Y)
    else:
        F = surface.eval_modes_grid(norm)
    return b, F


def run_sequence(cfg):
    """Alpha target and step count for continuation commands."""
    a = cfg.get("alpha", {"target": "alpha_star", "steps": 16})
    if isinstance(a, dict):
        extra = set(a) - {"target", "steps"}
        if extra:
            raise ConfigError(f"unknown alpha key {extra.pop()!r}")
        return a.get("target", "alpha_star"), int(a.get("steps", 16))
    return float(a), 16


class ArtifactWriter:
    def __init__(self, outdir, command, cfg, seed, quiet=False, started=None):
        self.outdir = outdir
        self.command = command
        self.cfg = cfg
        self.seed = seed
        self.quiet = quiet
        self.t0 = time.perf_counter() if started is None else started
        self.files = {}
        os.makedirs(outdir, exist_ok=True)
        os.makedirs(os.path.join(outdir, "fields"), exist_ok=True)
        self.write_json("config.json", cfg)

    def _register(self, relpath):
        self.files[relpath] = sha256_file(os.path.join(self.outdir, relpath))

    def write_json(self, relpath, obj):
        path = os.path.join(self.outdir, relpath)
        with open(path, "w") as fh:
            json.dump(obj, fh, sort_keys=True, indent=1, default=float)
        self._register(relpath)

    def write_jsonl(self, relpath, records):
        """Write log records, their perf_counter ``time`` made run-relative."""
        records = [dict(r, time=r["time"] - self.t0) if "time" in r else r
                   for r in records]
        write_jsonl(os.path.join(self.outdir, relpath), records)
        self._register(relpath)

    def field(self, name, values, surface, extra=None):
        rel = os.path.join("fields", name + ".vfield")
        write_field(os.path.join(self.outdir, rel), values, surface.backend,
                    surface.n if surface.backend == "torus" else surface.L,
                    name, extra)
        self._register(rel)

    def finalize(self, extra=None):
        meta = {
            "command": self.command,
            "files": self.files,
            "label": self.cfg.get("label", ""),
            "seed": self.seed,
            "theorem_coverage": _COVERAGE.get(self.command, ""),
            "runtime_seconds": time.perf_counter() - self.t0,
            "versions": {
                "vortexlab": __version__,
                "numpy": np.__version__,
                "python": platform.python_version(),
            },
        }
        if extra:
            meta.update(extra)
        path = os.path.join(self.outdir, "metadata.json")
        with open(path, "w") as fh:
            json.dump(meta, fh, sort_keys=True, indent=1, default=float)
        if not self.quiet:
            print(f"[vortexlab] artifact written to {self.outdir}")
        return meta

    def finish(self, cert, extra=None):
        """Write the certificate and the metadata; a failed check is exit 3."""
        self.write_json("certificate.json", cert.to_dict())
        self.finalize(extra)
        if not cert.all_passed:
            raise ConvergenceFailure("certificate checks failed")
        return 0


# --- one problem builder and one certifier per command --------------------
# The solve runners and `verify` both call these, so a stored result is
# re-certified against the same problem that produced it.


def _tol(cfg, key, default):
    return float(cfg.get("tolerances", {}).get(key, default))


def _vortex_problem(cfg, surface, divisor):
    tau = float(cfg["tau"])
    b, F = synthesize_twist(surface, cfg.get("twist"))
    weight = np.exp(build_divisor_fields(surface, divisor).log_phi_sq)
    return make_vortex_problem(surface, weight, tau, divisor.N, b=b, F=F,
                               t=float(cfg.get("t", 1.0)))


def _certify_vortex(cfg, problem, seed, f):
    return certify_vortex(problem.surface, problem, f, seed=seed,
                          multistart=int(_tol(cfg, "multistart", 3)),
                          tol=_tol(cfg, "residual", 1e-9))


def _tke_problem(cfg, surface, divisor):
    """(chi~, F_xi) of the twisted Kaehler-Einstein equation."""
    eps = float(cfg.get("epsilon", 0.1))
    fields = build_divisor_fields(surface, divisor)
    return surface.euler_char - divisor.sum_one_minus_beta, fields.F_xi(eps)


def _certify_tke(cfg, surface, problem, u):
    chi_tilde, F_xi = problem
    return certify_tke(surface, chi_tilde, F_xi, u, t=float(cfg.get("t", 1.0)),
                       tol=_tol(cfg, "residual", 1e-9))


# solve-gv and sweep-eps build their problem with coupled.make_problem at the
# recorded epsilon and certify with verify.certify_state


def _eb_problem(cfg, surface, divisor):
    """The c~ = 0 problem from whichever of alpha/tau the config gives."""
    alpha, tau = cfg.get("alpha"), cfg.get("tau")
    return make_eb_problem(
        surface, divisor,
        alpha=float(alpha) if alpha is not None else None,
        tau=float(tau) if tau is not None else None,
        lam=cfg.get("lambda"), sigma=cfg.get("sigma"),
    )


def _certify_eb(cfg, problem, seed, f, w, ladder):
    """Supersolution margin on every delta rung, and the residual of the
    assembled pair at the last rung, for the lam of the ladder report."""
    lam, deltas = ladder["lam"], ladder["deltas"]
    margins = [supersolution_margin(problem, w, lam, d) for d in deltas]
    res = assembled_residual(problem, f, deltas[-1], lam)
    cert = Certificate(seed=seed)
    cert.add("supersolution_margin_min", 0.0, min(margins), tol=0.0,
             note="strict inequality pointwise, every rung")
    # 1e-6 is the default-resolution figure; coarse grids have a larger
    # spectral floor and may override through tolerances
    cert.add("assembled_residual_masked", res["sup_masked"],
             _tol(cfg, "assembled_residual", 1e-6), tol=0.0)
    cert.constants.update({"lam": lam, "lam_min": ladder["lam_min"],
                           "C_sigma": ladder["C_sigma"],
                           "alpha": problem.alpha, "tau": problem.tau})
    return cert


# --- runners -------------------------------------------------------------


def run_solve_vortex(cfg, outdir, seed, quiet):
    t_start = time.perf_counter()
    surface, divisor = build_setup(cfg)
    problem = _vortex_problem(cfg, surface, divisor)
    f = solve_vortex(problem, tol=_tol(cfg, "residual", 1e-9) * 0.1)
    cert = _certify_vortex(cfg, problem, seed, f)
    art = ArtifactWriter(outdir, "solve-vortex", cfg, seed, quiet, started=t_start)
    art.field("f_tilde", f, surface)
    art.field("Phi", problem.phi0_sq * np.exp(2.0 * f), surface)
    art.write_jsonl("iterations.jsonl", problem.log)
    return art.finish(cert)


def run_solve_tke(cfg, outdir, seed, quiet):
    t_start = time.perf_counter()
    surface, divisor = build_setup(cfg)
    chi_tilde, F_xi = problem = _tke_problem(cfg, surface, divisor)
    log = []
    u = solve_twisted_ke(surface, chi_tilde, F_xi, t=float(cfg.get("t", 1.0)),
                         tol=_tol(cfg, "residual", 1e-9) * 0.1, log=log)
    cert = _certify_tke(cfg, surface, problem, u)
    art = ArtifactWriter(outdir, "solve-tke", cfg, seed, quiet, started=t_start)
    art.field("u", u, surface)
    art.field("metric_density", 1.0 - surface.laplacian(u), surface)
    art.write_jsonl("iterations.jsonl", log)
    return art.finish(cert, extra={"chi_tilde": chi_tilde})


class _Phases:
    """Wall seconds of the consecutive phases of a run, for metadata.json."""

    def __init__(self, started):
        self.seconds = {}
        self._last = started

    def end(self, name):
        now = time.perf_counter()
        self.seconds[name] = now - self._last
        self._last = now

    def profile(self, **counts):
        return {"seconds": self.seconds, "counts": counts}


def run_solve_gv(cfg, outdir, seed, quiet):
    t_start = time.perf_counter()
    phases = _Phases(t_start)
    surface, divisor = build_setup(cfg)
    phases.end("setup")
    fields = build_divisor_fields(surface, divisor)
    phases.end("divisor_fields")
    tau = float(cfg["tau"])
    eps = float(cfg.get("epsilon", 0.1))
    tol = _tol(cfg, "residual", 1e-9)
    target, steps = run_sequence(cfg)
    problem = make_problem(surface, divisor, tau=tau, eps=eps, fields=fields)
    if target == "alpha_star":
        target = problem.params.alpha_star
    state0 = decoupled_state(problem, tol=tol)
    states = continue_alpha(problem, state0, float(target), n_steps=steps,
                            tol=tol)
    final = states[-1]
    phases.end("solve")
    cert = certify_state(problem, final, seed=seed)
    phases.end("certify")
    art = ArtifactWriter(outdir, "solve-gv", cfg, seed, quiet, started=t_start)
    art.field("f_tilde", final.f_tilde, surface)
    art.field("u", final.u, surface)
    art.field("Phi", final.Phi, surface)
    path_log = [{"alpha": st.alpha, "c_tilde": st.c_tilde,
                 "residual": st.res_norm, "newton_steps": len(st.newton_log)}
                for st in states]
    steps = [e for st in states for e in st.newton_log]
    art.write_jsonl("iterations.jsonl", path_log + steps)
    phases.end("write")
    profile = phases.profile(divisor_field_builds=1, newton_steps=len(steps),
                             gmres_iterations=sum(e["krylov"] for e in steps))
    return art.finish(cert, extra={"alpha": final.alpha, "epsilon": problem.eps,
                                   "alpha_star": problem.params.alpha_star,
                                   "profile": profile})


def run_sweep_eps(cfg, outdir, seed, quiet):
    t_start = time.perf_counter()
    phases = _Phases(t_start)
    surface, divisor = build_setup(cfg)
    phases.end("setup")
    fields = build_divisor_fields(surface, divisor)
    phases.end("divisor_fields")
    tau = float(cfg["tau"])
    eps = cfg.get("epsilon", [0.1, 0.05, 0.025, 0.0125])
    eps_list = [float(e) for e in (eps if isinstance(eps, list) else [eps])]
    tol = _tol(cfg, "residual", 1e-9)
    target, steps = run_sequence(cfg)
    if target == "alpha_star":
        target = derive_params(divisor, surface, tau,
                               epsilon=eps_list[0]).alpha_star
    report = run_ladder(surface, divisor, tau, float(target), eps_list,
                        n_steps=steps, tol=tol, seed=seed,
                        fit=bool(cfg.get("fit", True)), fields=fields)
    if not report.states:
        raise ConvergenceFailure(f"ladder failed: {report.failures}")
    phases.end("ladder")
    # a truncated ladder certifies its last completed rung
    final, problem = report.states[-1], report.problem
    cert = certify_state(problem, final, seed=seed)
    phases.end("certify")
    art = ArtifactWriter(outdir, "sweep-eps", cfg, seed, quiet, started=t_start)
    art.field("f_tilde", final.f_tilde, surface)
    art.field("u", final.u, surface)
    art.write_json("ladder.json", {
        "eps": report.eps_list[: len(report.states)],
        "d_f": report.d_f,
        "d_u": report.d_u,
        "rho_K": report.rho_K,
        "holder_f": report.holder_f,
        "holder_u": report.holder_u,
        "wp_integrals": report.wp_integrals,
        "lp_exponent": report.lp_exponent,
        "newton_counts": report.newton_counts,
        "failures": report.failures,
        "fits": [vars(f) for f in report.fits],
    })
    art.write_jsonl("iterations.jsonl",
                    [{"eps": e, "newton_steps": c}
                     for e, c in zip(report.eps_list, report.newton_counts)])
    phases.end("write")
    profile = phases.profile(divisor_field_builds=1,
                             newton_steps=sum(report.newton_counts),
                             gmres_iterations=report.gmres_iterations)
    return art.finish(cert, extra={"alpha": final.alpha, "epsilon": problem.eps,
                                   "profile": profile})


def run_solve_eb(cfg, outdir, seed, quiet):
    t_start = time.perf_counter()
    phases = _Phases(t_start)
    surface, divisor = build_setup(cfg)
    deltas = cfg.get("delta", [0.1 * 0.5**k for k in range(7)])
    deltas = [float(d) for d in (deltas if isinstance(deltas, list) else [deltas])]
    tol = _tol(cfg, "residual", 1e-10)
    margin = float(cfg.get("margin", 0.5))
    problem = _eb_problem(cfg, surface, divisor)
    na = check_numerical_assumption(problem)
    art = ArtifactWriter(outdir, "solve-eb", cfg, seed, quiet, started=t_start)
    art.write_json("na_report.json", na.to_dict())
    if not na.all_passed:
        art.finalize(extra={"refused": True})
        raise AssumptionNotSatisfied(
            "admissibility inequalities fail; see na_report.json", na)
    phases.end("setup")
    log = []
    f, g_density, h_factor, w, report = delta_ladder_and_assemble(
        problem, deltas=deltas, tol=tol, margin=margin, log=log)
    iterations = sum(report["iterations"])
    lambda_pair = bool(cfg.get("lambda_pair", False))
    if lambda_pair:
        lam2 = 2.0 * report["lam"]
        prob2 = make_eb_problem(surface, divisor, alpha=problem.alpha,
                                lam=lam2, sigma=problem.sigma)
        f2, _, _, _, report2 = delta_ladder_and_assemble(
            prob2, deltas=deltas[-1:], tol=tol, margin=margin)
        iterations += sum(report2["iterations"])
    phases.end("ladder")
    cert = _certify_eb(cfg, problem, seed, f, w, report)
    phases.end("certify")
    art.field("f_tilde", f, surface)
    art.field("supersolution_w", w, surface)
    art.field("metric_density", g_density.values, surface)
    art.field("hermitian_factor", h_factor.values, surface)
    art.write_json("ladder.json", report)
    art.write_jsonl("iterations.jsonl", log)
    if lambda_pair:
        art.field("f_tilde_lam2", f2, surface)
        art.write_json("lambda_dependence.json", {
            "lam_pair": [report["lam"], lam2],
            "sup_difference": float(np.max(np.abs(f - f2))),
        })
    phases.end("write")
    return art.finish(cert, extra={"alpha": problem.alpha, "tau": problem.tau,
                                   "profile": phases.profile(
                                       monotone_iterations=iterations)})


_RUNNERS = {
    "solve-vortex": run_solve_vortex,
    "solve-tke": run_solve_tke,
    "solve-gv": run_solve_gv,
    "sweep-eps": run_sweep_eps,
    "solve-eb": run_solve_eb,
}


# --- verification of stored artifacts -----------------------------------


class _Stored:
    """A finished artifact directory, read back for re-certification."""

    def __init__(self, outdir):
        self.outdir = outdir
        self.meta = self.read_json("metadata.json")
        self.seed = int(self.meta.get("seed", 0))

    def read_json(self, relpath):
        with open(os.path.join(self.outdir, relpath)) as fh:
            return json.load(fh)

    def field(self, name, surface):
        values, _ = read_field(os.path.join(self.outdir, "fields",
                                            name + ".vfield"))
        check_field(surface, values)
        return values


def _recertify_gv(cfg, surface, divisor, art):
    if "epsilon" not in art.meta:
        raise ConfigError("metadata.json records no 'epsilon' (the artifact "
                          "predates it); solve again to verify")
    problem = make_problem(surface, divisor, tau=float(cfg["tau"]),
                           eps=float(art.meta["epsilon"]))
    alpha = float(art.meta["alpha"])
    f, u = art.field("f_tilde", surface), art.field("u", surface)
    S1, S2 = residual(problem, alpha, f, u)
    state = SolveState(alpha=alpha, c_tilde=problem.c_tilde(alpha),
                       f_tilde=f, u=u, Phi=problem.weight_t * np.exp(2.0 * f),
                       res1=S1, res2=S2, params=problem.params.with_alpha(alpha))
    return certify_state(problem, state, seed=art.seed)


# per command: read the stored result back, then run the problem builder and
# the certifier that the solve runner ran
_RECERTIFY = {
    "solve-vortex": lambda cfg, s, d, art: _certify_vortex(
        cfg, _vortex_problem(cfg, s, d), art.seed, art.field("f_tilde", s)),
    "solve-tke": lambda cfg, s, d, art: _certify_tke(
        cfg, s, _tke_problem(cfg, s, d), art.field("u", s)),
    "solve-gv": _recertify_gv,
    "sweep-eps": _recertify_gv,
    "solve-eb": lambda cfg, s, d, art: _certify_eb(
        cfg, _eb_problem(cfg, s, d), art.seed, art.field("f_tilde", s),
        art.field("supersolution_w", s), art.read_json("ladder.json")),
}


def run_verify(outdir, quiet=False):
    if not os.path.exists(os.path.join(outdir, "metadata.json")):
        raise ConfigError(f"no artifact metadata in {outdir}")
    art = _Stored(outdir)
    for rel, digest in art.meta.get("files", {}).items():
        if sha256_file(os.path.join(outdir, rel)) != digest:
            raise ConvergenceFailure(f"artifact file {rel} hash mismatch")
    command = art.meta["command"]
    if command not in _RECERTIFY:
        raise ConfigError(f"cannot verify artifacts of command {command!r}")
    cfg = art.read_json("config.json")
    surface, divisor = build_setup(cfg)
    cert = _RECERTIFY[command](cfg, surface, divisor, art)
    fresh = cert.to_dict()
    mism = _compare_certificates(art.read_json("certificate.json"), fresh)
    if mism:
        raise ConvergenceFailure(
            "re-certification differs from the stored certificate: "
            + "; ".join(mism))
    if not cert.all_passed:
        raise ConvergenceFailure("certificate checks fail on re-verification")
    if not quiet:
        print(f"[vortexlab] verified {outdir}: "
              f"{len(fresh['checks'])} checks reproduced, all passed")
    return 0


def _compare_certificates(stored, fresh):
    mism = []
    a = {c["name"]: c for c in stored.get("checks", [])}
    b = {c["name"]: c for c in fresh.get("checks", [])}
    if set(a) != set(b):
        mism.append(f"check sets differ: {sorted(set(a) ^ set(b))}")
        return mism
    for name in a:
        for key in ("lhs", "rhs", "passed"):
            if a[name][key] != b[name][key]:
                mism.append(f"{name}.{key}: {a[name][key]} != {b[name][key]}")
    return mism


def run_export(field_path, out_path, quiet=False):
    values, header = read_field(field_path)
    if out_path is None:
        out_path = os.path.splitext(field_path)[0] + ".pgm"
    meta = write_pgm(out_path, values)
    if not quiet:
        print(f"[vortexlab] wrote {out_path} "
              f"(min={meta['min']:.6g}, max={meta['max']:.6g})")
    return 0


# --- entry point ----------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="vortexlab",
        description="gravitating-vortex and Bogomol'nyi-phase solvers on "
                    "compact model surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--verify-only", action="store_true")
        p.add_argument("--quiet", action="store_true")
    pv = sub.add_parser("verify")
    pv.add_argument("--out", required=True)
    pv.add_argument("--quiet", action="store_true")
    pe = sub.add_parser("export")
    pe.add_argument("--field", required=True)
    pe.add_argument("--out", default=None)
    pe.add_argument("--quiet", action="store_true")

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return run_verify(args.out, quiet=args.quiet)
        if args.command == "export":
            return run_export(args.field, args.out, quiet=args.quiet)
        if args.verify_only:
            return run_verify(args.out, quiet=args.quiet)
        cfg = validate_config(load_config(args.config), args.command)
        seed = int(args.seed if args.seed is not None else cfg.get("seed", 0))
        return _RUNNERS[args.command](cfg, args.out, seed, args.quiet)
    except AssumptionNotSatisfied as exc:
        print(f"[vortexlab] refused: {exc}", file=sys.stderr)
        return 4
    except ConvergenceFailure as exc:
        print(f"[vortexlab] solver failure: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"[vortexlab] config error: {exc}", file=sys.stderr)
        return 2
    except VortexlabError as exc:
        print(f"[vortexlab] error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
