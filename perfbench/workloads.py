"""The benchmark workloads: seeded configs and per-workload gates.

Each workload is one vortexlab solve command plus `vortexlab verify` on its
artifact. The config is a base config with every marked point moved by a
small amount drawn from the workload seed, so the same seed always gives the
same config and the program sees only that config.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIGS = ROOT / "scripts" / "configs"

# largest move of a marked point, per coordinate
TORUS_SHIFT = 0.01    # torus units (the torus is [0, 1)^2)
SPHERE_SHIFT = 0.02   # radians of latitude / longitude


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    base: Path
    why: str

    def config(self, seed):
        """Base config with every marked point moved by a seeded amount."""
        cfg = json.loads(self.base.read_text())
        rng = random.Random(f"{self.name}:{seed}")
        torus = cfg["backend"] == "torus"
        shift = TORUS_SHIFT if torus else SPHERE_SHIFT
        for group in ("zeros", "cone", "parabolic"):
            for entry in cfg.get("divisor", {}).get(group, []):
                moved = [c + rng.uniform(-shift, shift) for c in entry["point"]]
                if torus:
                    moved = [c % 1.0 for c in moved]
                else:
                    moved[1] %= 2.0 * math.pi
                entry["point"] = moved
        cfg["seed"] = seed
        return cfg

    def check(self, cfg, outdir):
        """Problems with a solve artifact beyond a failed verify; [] if none."""
        problems = []
        cert = _load(outdir / "certificate.json")
        if cert is None or not cert.get("all_passed"):
            problems.append("certificate.json missing or not all_passed")
        if self.command == "sweep-eps":
            ladder = _load(outdir / "ladder.json") or {}
            if ladder.get("eps") != cfg["epsilon"]:
                problems.append(f"ladder truncated: {ladder.get('eps')}")
            if ladder.get("failures"):
                problems.append(f"ladder failures: {ladder['failures']}")
        if self.command == "solve-eb":
            na = _load(outdir / "na_report.json")
            if na is None or not na.get("all_passed"):
                problems.append("na_report.json missing or not all_passed")
        return problems


def _load(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


# Two workloads, not four: a full evaluation (4 + 22 runs per workload) must
# fit in 3420 s, and on a shared host whose CPU speed drifts by up to 1.9x
# over tens of seconds only long runs give steady medians. gv_continuation
# (solve-gv on gv_torus256.json) runs again as rung 0 of eps_ladder;
# vortex_sphere (CG on the sphere) is described in README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        "eps_ladder", "sweep-eps", CONFIGS / "sweep_torus256.json",
        "coupled Newton-GMRES on torus FFTs: a 16-step continuation, then "
        "warm-started rungs; Ewald green_field rebuilds of the divisor fields "
        "are about 40% of the solve"),
    Workload(
        "eb_sphere", "solve-eb", CONFIGS / "eb_sphere127.json",
        "monotone iteration whose time is sphere analyze/synthesize at "
        "L = 127; no GMRES, no Ewald"),
)}
