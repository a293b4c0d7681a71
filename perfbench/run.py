"""vortexlab benchmark: time to a certified, re-verified artifact.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop with one client: every operation is a fresh process started
only after the previous one has exited, as a CLI user runs them. With
--trace 0 it reports the end-to-end metrics (setup_s, solve_s, verify_s,
peak_rss_mb); with --trace 1 it runs the solve and verify twice under the
span tracer of trace_child.py and reports per-layer metrics. The last line
of standard output is one JSON object; everything else, with every sample
and the run record, goes to .perfbench_out/<workload>-seed<N>-trace<T>/.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import command_metrics, is_count  # noqa: E402
from workloads import HERE, ROOT, WORKLOADS  # noqa: E402

OUT = ROOT / ".perfbench_out"
SRC = ROOT / "src"
DEADLINE_S = 170.0        # whole run, under the 180 s limit


@dataclass
class Op:
    kind: str                 # setup | solve | verify
    wall_s: float
    cpu_s: float
    rc: int
    peak_rss_mb: float
    problems: list = field(default_factory=list)
    tail: str = ""

    @property
    def failed(self):
        return bool(self.problems)


class Runner:
    """Spawns operations one at a time and keeps the account of failures."""

    def __init__(self, outdir, threads, deadline):
        self.outdir = outdir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(threads)
        self.ops = []
        self._n = 0

    def spawn(self, kind, argv, record=True):
        """Run argv to exit; wall time from spawn to exit and its peak RSS."""
        self._n += 1
        log = self.outdir / f"{self._n:03d}-{kind}.log"
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                    stdout=fh, stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        op = Op(kind, wall, usage.ru_utime + usage.ru_stime, proc.returncode,
                usage.ru_maxrss / 1024.0)
        if op.rc != 0:
            op.problems.append(f"exit code {op.rc}")
            op.tail = log.read_text(errors="replace")[-1500:]
        if record:
            self.ops.append(op)
        return op


def solve_round(runner, wl, cfg, cfg_path, seed, tag, trace_id=None):
    """One solve, its gates, then one verify of its artifact."""
    art = runner.outdir / f"artifact-{tag}"
    shutil.rmtree(art, ignore_errors=True)
    solve_args = [wl.command, "--config", str(cfg_path), "--out", str(art),
                  "--seed", str(seed)]
    verify_args = ["verify", "--out", str(art)]
    if trace_id is None:
        solve = runner.spawn("solve", ["-m", "vortexlab.cli", *solve_args])
    else:
        solve = runner.spawn("solve", traced(runner, f"{trace_id}-solve", solve_args))
    if solve.rc == 0:
        solve.problems += wl.check(cfg, art)
    if trace_id is None:
        verify = runner.spawn("verify", ["-m", "vortexlab.cli", *verify_args])
    else:
        verify = runner.spawn("verify", traced(runner, f"{trace_id}-verify", verify_args))
    if verify.failed:
        solve.problems.append("artifact does not re-verify")
    return solve, verify


def traced(runner, run_id, cli_args):
    return [str(HERE / "trace_child.py"), str(spans_path(runner, run_id)), run_id,
            "--", *cli_args]


def spans_path(runner, run_id):
    return runner.outdir / f"spans-{run_id}.json"


def setup(runner, cfg_path, record=True):
    return runner.spawn("setup", [str(HERE / "setup_child.py"), str(cfg_path)],
                        record=record)


def summarize(values):
    """Median, the highest percentile with at least 10 samples beyond it, n."""
    out = {"n": len(values), "median": statistics.median(values) if values else None,
           "tail_pct": None, "tail": None}
    for pct in (99.9, 99, 95, 90, 75, 50):
        if len(values) * (1 - pct / 100) >= 10:
            out["tail_pct"] = pct
            out["tail"] = statistics.quantiles(values, n=1000)[round(pct * 10) - 1]
            break
    return out


def timed_run(runner, wl, cfg, cfg_path, seed, seconds):
    """Rounds of set-up, solve, verify until `seconds` have passed, then one
    more set-up.

    The CPU speed of a shared host drifts over tens of seconds, so every
    metric is sampled across the whole run rather than in one stretch of it.
    """
    setup(runner, cfg_path, record=False)   # warm-up: page cache, bytecode
    setups, solves, verifies = [], [], []
    t0 = time.monotonic()
    last = 0.0
    while not solves or (time.monotonic() - t0 < seconds
                         and time.monotonic() + 1.5 * last < runner.deadline):
        start = time.monotonic()
        setups.append(setup(runner, cfg_path))
        solve, verify = solve_round(runner, wl, cfg, cfg_path, seed, f"r{len(solves)}")
        solves.append(solve)
        verifies.append(verify)
        last = time.monotonic() - start
    setups.append(setup(runner, cfg_path))
    samples = {
        "setup_s": [op.wall_s for op in setups],
        "solve_s": [op.wall_s for op in solves],
        "verify_s": [op.wall_s for op in verifies],
        "peak_rss_mb": [op.peak_rss_mb for op in solves],
    }
    units = {"setup_s": "s", "solve_s": "s", "verify_s": "s", "peak_rss_mb": "MiB"}
    summary = {k: summarize(v) for k, v in samples.items()}
    metrics = {k: {"value": summary[k]["median"], "unit": units[k]} for k in samples}
    return metrics, {"samples": samples, "summary": summary}, True


def traced_run(runner, wl, cfg, cfg_path, seed):
    """Untraced solve for the overhead base, then two traced rounds."""
    setup(runner, cfg_path, record=False)   # warm-up
    base, _ = solve_round(runner, wl, cfg, cfg_path, seed, "base")
    reps = []
    for rep in (1, 2):
        trace_id = f"{wl.name}-{seed}-{rep}"
        solve, _ = solve_round(runner, wl, cfg, cfg_path, seed, f"t{rep}", trace_id)
        per = {"solve.traced_s": (solve.wall_s, "s", "lower")}
        for command in ("solve", "verify"):
            path = spans_path(runner, f"{trace_id}-{command}")
            if path.exists():
                doc = json.loads(path.read_text())
                per.update(command_metrics(doc, int(cfg["resolution"]), command))
        reps.append(per)
    first, second = reps
    mismatched = sorted(k for k, (v, unit, _) in first.items()
                        if is_count(unit) and second.get(k, (None,))[0] != v)
    metrics = {}
    for k, (v, unit, _) in first.items():
        value = v if is_count(unit) else statistics.mean([v, second.get(k, (v,))[0]])
        metrics[k] = {"value": value, "unit": unit}
    traced = metrics["solve.traced_s"]["value"]
    metrics["solve.trace_overhead"] = {"value": traced / base.wall_s, "unit": "ratio"}
    if mismatched:
        print(f"perfbench: counts differ between traced runs: {mismatched}",
              file=sys.stderr)
    detail = {"untraced_solve_s": base.wall_s, "traced_solve_s": traced,
              "count_mismatches": mismatched}
    return metrics, detail, not mismatched


def run_record(threads, seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    mem = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/meminfo").read_text().splitlines()
                if line.startswith("MemTotal")), None)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "mem_total": mem,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}".strip(),
        "blas_threads": threads, "git_commit": commit, "workload_seed": seed,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if not (SRC / "vortexlab" / "cli.py").is_file() or not wl.base.is_file():
        print(f"perfbench: vortexlab sources or {wl.base.name} not found under {ROOT}; "
              "run from the root of a vortexlab checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    outdir = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    threads = len(os.sched_getaffinity(0))   # BLAS/OpenMP threads per child
    cfg = wl.config(args.seed)
    cfg_path = outdir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1))
    runner = Runner(outdir, threads, deadline)
    if args.trace:
        metrics, detail, consistent = traced_run(runner, wl, cfg, cfg_path, args.seed)
    else:
        metrics, detail, consistent = timed_run(runner, wl, cfg, cfg_path, args.seed,
                                                args.seconds)
    failed = sum(op.failed for op in runner.ops)
    attempted = len(runner.ops)
    for op in runner.ops:
        if op.failed:
            print(f"perfbench: {op.kind} failed: {'; '.join(op.problems)}\n{op.tail}",
                  file=sys.stderr)
    result = {"correct": failed == 0 and consistent, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (outdir / "result.json").write_text(json.dumps({
        "workload": wl.name, "why": wl.why, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "record": run_record(threads, args.seed),
        "fail_ratio": failed / attempted, "ops": [asdict(op) for op in runner.ops],
        **detail, "result": result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
