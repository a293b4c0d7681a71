"""Check the benchmark's failure accounting on a config that fails today.

Usage: python3 perfbench/check_accounting.py

A torus-32 `solve-gv` config without `tau` makes the CLI raise KeyError
(exit 1 with a traceback). The benchmark must count that solve and the
verify of its missing artifact as failed, keep the tail of the traceback,
and still run the operations after it. Exits 0 if it does, 1 if not.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

from run import OUT, Runner, setup, solve_round
from workloads import CONFIGS, Workload


def main():
    outdir = OUT / "check_accounting"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    wl = Workload("accounting", "solve-gv", CONFIGS / "gv_torus256.json", "")
    cfg = wl.config(0)
    cfg["resolution"] = 32
    del cfg["tau"]
    cfg_path = outdir / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    runner = Runner(outdir, threads=1, deadline=time.monotonic() + 120)
    solve, verify = solve_round(runner, wl, cfg, cfg_path, 0, "fail")
    later = setup(runner, cfg_path)   # must still run, and pass
    failed = sum(op.failed for op in runner.ops)
    checks = {
        "solve exits 1": solve.rc == 1,
        "traceback tail kept": "KeyError" in solve.tail,
        "solve counted failed": solve.failed,
        "verify counted failed": verify.failed,
        "later operation ran and passed": not later.failed,
        "2 of 3 operations failed": (failed, len(runner.ops)) == (2, 3),
    }
    for name, ok in checks.items():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
