#!/usr/bin/env python3
"""Micro-benchmarks of the surface layer, as medians of repeated calls.

Usage:
    python scripts/bench.py [--out FILE] LABEL=SRC [LABEL=SRC ...]

Times sphere ``analyze``, ``synthesize`` and ``laplacian`` at L = 127 and the
torus Laplacian at 256^2. Each LABEL=SRC pair names a source tree (the
directory holding the ``vortexlab`` package). Every side is measured in its
own fresh process, and the sides take turns over ROUNDS rounds so that a
drift in CPU speed affects them alike. Each round takes REPEATS timed calls
per micro-benchmark after one warm-up call. The medians and quartiles over
all rounds and the run record of ``perfbench/run.py`` (machine, Python,
numpy, scipy and BLAS versions, BLAS thread setting, git commit) go to FILE
(default: standard output) as JSON.

Example, comparing a copy of another commit with this one:
    python scripts/bench.py --out BENCH_2.json before=../parent/src after=src
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
REPEATS = 20   # timed calls per micro-benchmark in each round
ROUNDS = 10    # alternating rounds per side


def measure():
    """Per-call wall times in seconds of each micro-benchmark, in this process."""
    import numpy as np

    from vortexlab.surface import build_surface

    rng = np.random.default_rng(0)
    sphere = build_surface("sphere", 127)
    torus = build_surface("torus", 256)
    grid = rng.normal(size=sphere.shape)
    coeffs = sphere.analyze(grid)
    cases = {
        "sphere127.analyze": (sphere.analyze, grid),
        "sphere127.synthesize": (sphere.synthesize, coeffs),
        "sphere127.laplacian": (sphere.laplacian, grid),
        "torus256.laplacian": (torus.laplacian, rng.normal(size=torus.shape)),
    }
    out = {}
    for name, (fn, arg) in cases.items():
        fn(arg)
        samples = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            fn(arg)
            samples.append(time.perf_counter() - t0)
        out[name] = samples
    return out


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
    order = list(sides)
    for rnd in range(ROUNDS):
        for label in order if rnd % 2 == 0 else order[::-1]:
            for name, times in run_side(sides[label]).items():
                samples[label].setdefault(name, []).extend(times)
    report = {
        "environment": environment(),
        "repeats_per_round": REPEATS,
        "rounds": ROUNDS,
        "unit": "ms",
        "median_ms": {
            label: {name: 1e3 * statistics.median(times)
                    for name, times in per.items()}
            for label, per in samples.items()},
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
