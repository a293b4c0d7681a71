import copy
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vortexlab.cli import _COMMANDS, main
from vortexlab import coupled, greens
from vortexlab.errors import ConfigError, ConvergenceFailure
from vortexlab.fieldio import MAGIC, read_field, write_field, write_pgm
from vortexlab.surface import Torus


def write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


VORTEX_CFG = {
    "backend": "torus",
    "resolution": 32,
    "divisor": {"zeros": [{"point": [0.31415927, 0.57721566], "n": 1}]},
    "tau": 5.0,
    "twist": {"b": -0.5, "modes": [[1, 0, 0.3, 0.0]]},
    "seed": 7,
}

GV_CFG = {
    "backend": "torus",
    "resolution": 32,
    "divisor": {"zeros": [{"point": [0.17137, 0.23731], "n": 1}],
                "cone": [{"point": [0.67411, 0.29517], "beta": 0.5}]},
    "tau": 4.0,
    "epsilon": 0.1,
    "alpha": {"target": "alpha_star", "steps": 4},
}

EB_CFG = {
    "backend": "sphere",
    "resolution": 23,
    "divisor": {"zeros": [{"point": [0.7123, 1.1001], "n": 1},
                          {"point": [-0.51234, 4.0123], "n": 1}],
                "parabolic": [{"point": [0.1517, 2.591], "alpha_k": 0.5}]},
    "alpha": 0.08,
    "delta": [0.3],
    "tolerances": {"residual": 1e-9, "assembled_residual": 0.05},
}

# two zeros at L = 15 with alpha = 0.1: the admissibility checks refuse it
EB_REFUSED_CFG = {
    "backend": "sphere", "resolution": 15,
    "divisor": {"zeros": [{"point": [0.7123, 1.1001], "n": 1},
                          {"point": [-0.51234, 4.0123], "n": 1}]},
    "alpha": 0.1, "delta": [0.3],
}

TKE_CFG = {k: GV_CFG[k] for k in ("backend", "resolution", "divisor", "epsilon")}

SWEEP_CFG = dict(GV_CFG, epsilon=[0.1, 0.05])

# alpha = chi~/(2 tau N~) does not give this tau back in the last bit, so
# verify must build the problem from the config's tau, as the solve does
EB_TAU_CFG = dict({k: v for k, v in EB_CFG.items() if k != "alpha"},
                  tau=5.714286)


def test_solve_vortex_roundtrip(tmp_path):
    cfg = write_cfg(tmp_path, "v.json", VORTEX_CFG)
    out = str(tmp_path / "art")
    assert main(["solve-vortex", "--config", cfg, "--out", out, "--quiet"]) == 0
    for rel in ("fields/f_tilde.vfield", "fields/Phi.vfield",
                "certificate.json", "iterations.jsonl", "metadata.json"):
        assert os.path.exists(os.path.join(out, rel))
    assert main(["verify", "--out", out, "--quiet"]) == 0
    # verify is the one way to re-certify: a solve command has no flag for it
    with pytest.raises(SystemExit) as exc:
        main(["solve-vortex", "--config", cfg, "--out", out, "--verify-only",
              "--quiet"])
    assert exc.value.code == 2
    meta = json.load(open(os.path.join(out, "metadata.json")))
    assert meta["theorem_coverage"] == _COMMANDS["solve-vortex"].coverage
    # no --seed given: the config's "seed": 7 takes effect
    assert meta["seed"] == 7
    assert meta["theorem_coverage"].startswith("covered")


def test_vortex_iterations_are_the_solve_only(tmp_path):
    # the certificate's multistart re-solves do not enter iterations.jsonl
    lengths = []
    for multistart in (0, 3):
        cfg = write_cfg(tmp_path, f"v{multistart}.json",
                        dict(VORTEX_CFG, tolerances={"multistart": multistart}))
        out = str(tmp_path / f"art{multistart}")
        assert main(["solve-vortex", "--config", cfg, "--out", out,
                     "--quiet"]) == 0
        with open(os.path.join(out, "iterations.jsonl")) as fh:
            lengths.append(len(fh.readlines()))
    assert lengths[0] == lengths[1] > 0


def test_solve_eb_lambda_pair(tmp_path):
    cfg = write_cfg(tmp_path, "eb.json", dict(EB_CFG, lambda_pair=True))
    out = str(tmp_path / "art")
    assert main(["solve-eb", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert os.path.exists(os.path.join(out, "fields", "f_tilde_lam2.vfield"))
    with open(os.path.join(out, "lambda_dependence.json")) as fh:
        dep = json.load(fh)
    assert dep["lam_pair"][1] == 2.0 * dep["lam_pair"][0]
    assert dep["sup_difference"] > 0.0
    assert main(["verify", "--out", out, "--quiet"]) == 0


def test_bit_reproducibility(tmp_path):
    cfg = write_cfg(tmp_path, "v.json", VORTEX_CFG)
    outs = []
    for k in range(2):
        out = str(tmp_path / f"art{k}")
        assert main(["solve-vortex", "--config", cfg, "--out", out,
                     "--seed", "7", "--quiet"]) == 0
        h = hashlib.sha256(
            open(os.path.join(out, "fields", "f_tilde.vfield"), "rb").read()
        ).hexdigest()
        outs.append(h)
    assert outs[0] == outs[1]


def test_exit_codes(tmp_path, capsys):
    # existence condition: exit 2, message cites the condition
    bad = dict(VORTEX_CFG, tau=2.0)
    bad.pop("twist")
    cfg = write_cfg(tmp_path, "bad.json", bad)
    assert main(["solve-vortex", "--config", cfg, "--out",
                 str(tmp_path / "x1"), "--quiet"]) == 2
    # unknown key: exit 2
    cfg = write_cfg(tmp_path, "unk.json", dict(VORTEX_CFG, bogus=1))
    assert main(["solve-vortex", "--config", cfg, "--out",
                 str(tmp_path / "x2"), "--quiet"]) == 2
    # admissibility refusal: exit 4 and a report artifact
    cfg = write_cfg(tmp_path, "refuse.json", EB_REFUSED_CFG)
    out = str(tmp_path / "x3")
    assert main(["solve-eb", "--config", cfg, "--out", out, "--quiet"]) == 4
    rep = json.load(open(os.path.join(out, "na_report.json")))
    assert not rep["all_passed"]
    # the phase on the torus with cone points: exit 2
    torus_eb = {
        "backend": "torus", "resolution": 32,
        "divisor": {"zeros": [{"point": [0.17137, 0.23731], "n": 1}],
                    "cone": [{"point": [0.67411, 0.29517], "beta": 0.5}]},
        "alpha": 0.1, "delta": [0.3],
    }
    cfg = write_cfg(tmp_path, "teb.json", torus_eb)
    assert main(["solve-eb", "--config", cfg, "--out",
                 str(tmp_path / "x4"), "--quiet"]) == 2
    # marked point on a grid node: exit 2
    ongrid = dict(VORTEX_CFG,
                  divisor={"zeros": [{"point": [0.25, 0.5], "n": 1}]})
    cfg = write_cfg(tmp_path, "node.json", ongrid)
    assert main(["solve-vortex", "--config", cfg, "--out",
                 str(tmp_path / "x5"), "--quiet"]) == 2
    # missing required key or non-integer resolution: exit 2 naming the key
    no_tau = dict(VORTEX_CFG)
    no_tau.pop("tau")
    malformed = [("solve-vortex", no_tau, "tau"),
                 ("solve-gv", {k: v for k, v in GV_CFG.items() if k != "tau"},
                  "tau"),
                 ("sweep-eps", {k: v for k, v in GV_CFG.items() if k != "tau"},
                  "tau"),
                 ("solve-vortex", dict(VORTEX_CFG, resolution="abc"),
                  "resolution"),
                 ("solve-vortex",
                  dict(VORTEX_CFG, divisor={"zeros": {
                      "point": [0.31415927, 0.57721566], "n": 1}}),
                  "zeros"),
                 ("solve-gv", dict(GV_CFG, divisor={"cone": 0.5}), "cone"),
                 ("sweep-eps", dict(GV_CFG, epsilon=[]), "epsilon"),
                 ("sweep-eps", dict(GV_CFG, epsilon=[0.05, 0.1]), "epsilon"),
                 ("sweep-eps", dict(GV_CFG, epsilon=[0.1, 0.1]), "epsilon"),
                 ("sweep-eps", dict(GV_CFG, epsilon=[0.1, "x"]), "epsilon"),
                 ("sweep-eps", dict(GV_CFG, epsilon=[], alpha=0.01),
                  "epsilon"),
                 ("solve-gv", dict(GV_CFG, epsilon=[0.1]), "epsilon"),
                 ("solve-eb", dict(EB_CFG, delta=[]), "delta"),
                 ("solve-eb", dict(EB_CFG, delta=[0.1, 0.3]), "delta"),
                 ("solve-eb", dict(EB_CFG, delta=[0.3, True]), "delta"),
                 ("solve-gv", dict(GV_CFG, tau="abc"), "tau"),
                 ("solve-vortex", dict(VORTEX_CFG, t="x"), "t"),
                 ("solve-vortex", dict(VORTEX_CFG, tolerances={"residual": "x"}),
                  "residual"),
                 ("solve-gv", dict(GV_CFG, alpha={"target": "x"}), "target"),
                 ("solve-gv", dict(GV_CFG, alpha={"steps": "x"}), "steps"),
                 ("sweep-eps", dict(SWEEP_CFG, alpha={"steps": 0}), "steps"),
                 ("solve-vortex",
                  dict(VORTEX_CFG, divisor={"zeros": [{"point": 0.3, "n": 1}]}),
                  "point"),
                 ("solve-eb", dict(EB_CFG, **{"lambda": "x"}), "lambda"),
                 ("solve-eb", dict(EB_CFG, sigma="x"), "sigma"),
                 ("solve-eb", dict(EB_CFG, margin="x"), "margin"),
                 ("solve-eb", dict(EB_CFG, lambda_pair="yes"), "lambda_pair"),
                 ("sweep-eps", dict(SWEEP_CFG, fit="no"), "fit"),
                 ("solve-vortex",
                  dict(VORTEX_CFG, divisor={"zeros": [{"point": [0.31, 0.57]}]}),
                  "n"),
                 ("solve-gv",
                  dict(GV_CFG, divisor={"zeros": GV_CFG["divisor"]["zeros"],
                                        "cone": [{"point": [0.67411, 0.29517],
                                                  "beta": "x"}]}),
                  "beta"),
                 ("sweep-eps",
                  dict(SWEEP_CFG, divisor=dict(
                      GV_CFG["divisor"],
                      parabolic=[{"point": [0.41871, 0.79213],
                                  "alpha_k": "x"}])),
                  "alpha_k"),
                 ("solve-vortex", dict(VORTEX_CFG, tolerances=5),
                  "tolerances"),
                 ("solve-vortex", dict(VORTEX_CFG, twist={"b": "x"}), "b"),
                 ("solve-vortex",
                  dict(VORTEX_CFG, twist={"modes": [[1, "x", 0.3, 0.0]]}),
                  "modes"),
                 ("solve-vortex",
                  dict(VORTEX_CFG, twist={"modes": [[1.5, 0, 0.3, 0.0]]}),
                  "modes"),
                 ("solve-vortex",
                  dict(VORTEX_CFG, twist={"modes": [[0.5, 0, 0.3, 0.0]]}),
                  "modes"),
                 ("solve-vortex", dict(VORTEX_CFG, tau=math.nan), "tau"),
                 ("solve-vortex", dict(VORTEX_CFG, tau=math.inf), "tau"),
                 ("solve-vortex",
                  dict(VORTEX_CFG, divisor={"zeros": [{"point": [math.nan, 0.2],
                                                       "n": 1}]}),
                  "point"),
                 ("solve-vortex",
                  dict(VORTEX_CFG, tolerances={"residual": math.nan}),
                  "residual"),
                 ("solve-vortex", dict(VORTEX_CFG, seed=-1), "seed")]
    for k, (command, bad, key) in enumerate(malformed):
        cfg = write_cfg(tmp_path, f"malformed{k}.json", bad)
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out",
                     str(tmp_path / f"m{k}"), "--quiet"]) == 2
        assert repr(key) in capsys.readouterr().err
    # a negative --seed: exit 2 naming the option
    cfg = write_cfg(tmp_path, "seed.json", VORTEX_CFG)
    assert main(["solve-vortex", "--config", cfg, "--out", str(tmp_path / "s"),
                 "--seed", "-1", "--quiet"]) == 2
    assert "'--seed'" in capsys.readouterr().err
    # values outside a parameter's range, each once a traceback (exit 1), a
    # solver failure (exit 3) or a run that went on (exit 0): exit 2
    sphere_twist = dict(VORTEX_CFG, backend="sphere", resolution=15,
                        twist={"modes": [[40, 0, 0.3, 0.0]]})
    out_of_range = [("solve-vortex", dict(VORTEX_CFG, divisor={"zeros": [
                         {"point": [1e308, 0.2], "n": 1}]})),
                    ("solve-vortex", sphere_twist),
                    ("solve-vortex", dict(VORTEX_CFG,
                                          tolerances={"multistart": 2.5})),
                    ("solve-vortex", dict(VORTEX_CFG,
                                          tolerances={"multistart": -1})),
                    ("solve-tke", dict(TKE_CFG, t=-1.0)),
                    ("solve-tke", dict(TKE_CFG, epsilon=-1.0)),
                    ("solve-eb", dict(EB_CFG, alpha=0.0)),
                    ("solve-eb", dict(EB_CFG, delta=[0.3, 0.0])),
                    ("solve-eb", dict(EB_CFG, tolerances={"residual": 0.0})),
                    ("solve-gv", dict(GV_CFG, alpha=-1)),
                    ("sweep-eps", dict(SWEEP_CFG, alpha={"target": -1})),
                    ("solve-vortex", dict(VORTEX_CFG, resolution=10**6)),
                    ("solve-vortex", dict(VORTEX_CFG, backend="sphere",
                                          resolution=10**6))]
    for k, (command, bad) in enumerate(out_of_range):
        cfg = write_cfg(tmp_path, f"range{k}.json", bad)
        assert main([command, "--config", cfg, "--out",
                     str(tmp_path / f"r{k}"), "--quiet"]) == 2, bad


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tke_without_smoothing(tmp_path):
    # eps = 0 is a valid solve-tke config: log eps is -inf, with no warning
    cfg = write_cfg(tmp_path, "tke0.json", dict(TKE_CFG, epsilon=0))
    out = str(tmp_path / "tke0")
    assert main(["solve-tke", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert main(["verify", "--out", out, "--quiet"]) == 0


def test_sphere_vortex_weighted_cg(tmp_path):
    # lap + V is symmetric only in the Gauss-weighted inner product on the
    # sphere; CG with Euclidean dots stalled at 400 iterations here
    cfg = write_cfg(tmp_path, "s.json", {
        "backend": "sphere", "resolution": 23, "tau": 5.0,
        "divisor": {"zeros": [{"point": [0.17137, 0.23731], "n": 1}]}})
    out = str(tmp_path / "s")
    assert main(["solve-vortex", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert main(["verify", "--out", out, "--quiet"]) == 0


@pytest.mark.parametrize("point", [VORTEX_CFG["divisor"]["zeros"][0]["point"],
                                   [1, 2]], ids=["config-point", "point-1-2"])
def test_sphere15_vortex_cg_converges(tmp_path, point):
    # the grid holds about 4.5 times as many nodes as there are harmonics of
    # degree <= 15; a CG preconditioner that dropped the part above that
    # degree broke down here (exit 3, "CG failed to converge (info=-1)")
    cfg = write_cfg(tmp_path, "s15.json", dict(
        VORTEX_CFG, backend="sphere", resolution=15,
        divisor={"zeros": [{"point": point, "n": 1}]}))
    out = str(tmp_path / "s15")
    assert main(["solve-vortex", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert main(["verify", "--out", out, "--quiet"]) == 0


def test_gv_and_verify_tamper(tmp_path):
    cfg = write_cfg(tmp_path, "gv.json", GV_CFG)
    out = str(tmp_path / "gv")
    assert main(["solve-gv", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert main(["verify", "--out", out, "--quiet"]) == 0
    # log timestamps are offsets from the start of the run
    runtime = json.load(open(os.path.join(out, "metadata.json")))["runtime_seconds"]
    with open(os.path.join(out, "iterations.jsonl")) as fh:
        times = [r["time"] for r in map(json.loads, fh) if "time" in r]
    assert times and all(0.0 <= t <= runtime for t in times)
    # tampering with a field file must be detected
    path = os.path.join(out, "fields", "u.vfield")
    blob = bytearray(open(path, "rb").read())
    blob[-9] ^= 0xFF
    open(path, "wb").write(bytes(blob))
    assert main(["verify", "--out", out, "--quiet"]) == 3


def _restamp(art, rel, obj):
    """Write ``obj`` (bytes, or an object as JSON) as the file ``rel`` of an
    artifact and stamp its hash in metadata.json again."""
    data = obj if isinstance(obj, bytes) else json.dumps(obj).encode()
    with open(os.path.join(art, rel), "wb") as fh:
        fh.write(data)
    meta_path = os.path.join(art, "metadata.json")
    meta = json.load(open(meta_path))
    meta["files"][rel] = hashlib.sha256(
        open(os.path.join(art, rel), "rb").read()).hexdigest()
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)


def test_verify_detects_a_changed_certificate(tmp_path, capsys):
    # a certificate edited with its hash re-stamped passes the file check:
    # the re-certification must still tell it apart from the fresh one
    cfg = write_cfg(tmp_path, "tke.json", TKE_CFG)
    out = str(tmp_path / "tke")
    assert main(["solve-tke", "--config", cfg, "--out", out, "--quiet"]) == 0
    stored = json.load(open(os.path.join(out, "certificate.json")))

    doubled = copy.deepcopy(stored)
    check = next(c for c in doubled["checks"] if c["name"] == "tke_residual")
    check["lhs"] *= 2.0
    _restamp(out, "certificate.json", doubled)
    capsys.readouterr()
    assert main(["verify", "--out", out, "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "re-certification differs" in err and "tke_residual.lhs" in err

    dropped = copy.deepcopy(stored)
    dropped["checks"] = [c for c in dropped["checks"]
                         if c["name"] != "tke_residual"]
    _restamp(out, "certificate.json", dropped)
    assert main(["verify", "--out", out, "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "check sets differ" in err and "tke_residual" in err


def test_solve_eb_cli(tmp_path):
    cfg = write_cfg(tmp_path, "eb.json", EB_CFG)
    out = str(tmp_path / "eb")
    assert main(["solve-eb", "--config", cfg, "--out", out, "--quiet"]) == 0
    rep = json.load(open(os.path.join(out, "na_report.json")))
    assert rep["all_passed"]
    assert main(["verify", "--out", out, "--quiet"]) == 0


def test_failed_solve_leaves_no_artifact(tmp_path, capsys):
    # the monotone chain of this rung breaks at its first iteration: exit 3,
    # and nothing is written, for --out is made only once a solve returns
    cfg = write_cfg(tmp_path, "eb.json", dict(EB_CFG, delta=[0.02]))
    out = str(tmp_path / "art")
    capsys.readouterr()
    assert main(["solve-eb", "--config", cfg, "--out", out, "--quiet"]) == 3
    assert "monotone chain violated" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_failed_first_rung_leaves_no_artifact(tmp_path, capsys,
                                             monkeypatch):
    # a ladder with no completed rung has nothing to certify: exit 3
    def fail(problem, **kwargs):
        raise ConvergenceFailure("injected decoupled failure")

    monkeypatch.setattr(coupled, "decoupled_state", fail)
    cfg = write_cfg(tmp_path, "sweep.json", SWEEP_CFG)
    out = str(tmp_path / "art")
    capsys.readouterr()
    assert main(["sweep-eps", "--config", cfg, "--out", out, "--quiet"]) == 3
    assert "ladder failed" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_failed_certificate_is_written_and_fails_verify(tmp_path, capsys):
    # a check that fails is exit 3, but the artifact is written, and verify
    # reproduces the certificate and fails it again
    cfg = write_cfg(tmp_path, "eb.json", dict(
        EB_CFG, tolerances=dict(EB_CFG["tolerances"],
                                assembled_residual=1e-30)))
    out = str(tmp_path / "art")
    capsys.readouterr()
    assert main(["solve-eb", "--config", cfg, "--out", out, "--quiet"]) == 3
    assert "certificate checks failed" in capsys.readouterr().err
    cert = json.load(open(os.path.join(out, "certificate.json")))
    assert not cert["all_passed"]
    assert main(["verify", "--out", out, "--quiet"]) == 3
    assert ("certificate checks fail on re-verification"
            in capsys.readouterr().err)


def test_refused_solve_records_its_profile(tmp_path):
    # a refusal (exit 4) profiles the work it did, as a finished solve does
    cfg = write_cfg(tmp_path, "refuse.json", EB_REFUSED_CFG)
    out = str(tmp_path / "art")
    assert main(["solve-eb", "--config", cfg, "--out", out, "--quiet"]) == 4
    meta = json.load(open(os.path.join(out, "metadata.json")))
    assert meta["refused"] is True
    profile = meta["profile"]
    assert set(profile["seconds"]) == {"setup", "refused", "write"}
    assert sum(profile["seconds"].values()) <= meta["runtime_seconds"]
    assert profile["counts"] == {"divisor_field_builds": 1}


@pytest.mark.parametrize("command, base", [
    ("solve-vortex", VORTEX_CFG), ("solve-tke", TKE_CFG), ("solve-gv", GV_CFG),
    ("sweep-eps", SWEEP_CFG), ("solve-eb", EB_CFG), ("solve-eb", EB_TAU_CFG)],
    ids=["vortex", "tke", "gv", "sweep", "eb", "eb-tau"])
def test_solve_then_verify(tmp_path, command, base):
    cfg = write_cfg(tmp_path, "cfg.json", base)
    out = str(tmp_path / "art")
    assert main([command, "--config", cfg, "--out", out, "--quiet"]) == 0
    assert main(["verify", "--out", out, "--quiet"]) == 0
    # every command times its setup, its solve, its certificate and its write
    meta = json.load(open(os.path.join(out, "metadata.json")))
    profile = meta["profile"]
    solve = "ladder" if command in ("sweep-eps", "solve-eb") else "solve"
    assert {"setup", solve, "certify", "write"} <= set(profile["seconds"])
    assert sum(profile["seconds"].values()) <= meta["runtime_seconds"]
    assert profile["counts"]["divisor_field_builds"] == 1
    if command in ("solve-gv", "sweep-eps"):
        assert set(profile["seconds"]) == {"setup", "divisor_fields", solve,
                                           "certify", "write"}
        assert profile["counts"]["newton_steps"] > 0
        assert profile["counts"]["gmres_iterations"] > 0
    if command == "solve-eb":
        ladder = json.load(open(os.path.join(out, "ladder.json")))
        assert set(profile["seconds"]) == {"setup", "ladder", "certify", "write"}
        assert profile["counts"] == {
            "divisor_field_builds": 1,
            "monotone_iterations": sum(ladder["iterations"])}
        assert profile["counts"]["monotone_iterations"] > 0


@pytest.mark.parametrize("command, base", [
    ("solve-vortex", VORTEX_CFG), ("solve-tke", TKE_CFG), ("solve-gv", GV_CFG),
    ("sweep-eps", SWEEP_CFG)], ids=["vortex", "tke", "gv", "sweep"])
def test_coupled_profile_counts_cg_iterations(tmp_path, monkeypatch, command,
                                              base):
    # CG applies its preconditioner once an iteration, and the counts cover
    # every CG of the run: the decoupled solves of alpha = 0 in the coupled
    # runs, and for vortex also the re-solves of the certificate's multistart
    calls = []
    precondition = Torus.precondition
    monkeypatch.setattr(Torus, "precondition", lambda self, *args, **kw: (
        calls.append(1) or precondition(self, *args, **kw)))
    cfg = write_cfg(tmp_path, "cfg.json", base)
    out = str(tmp_path / "art")
    assert main([command, "--config", cfg, "--out", out, "--quiet"]) == 0
    meta = json.load(open(os.path.join(out, "metadata.json")))
    assert meta["profile"]["counts"]["cg_iterations"] == len(calls) > 0


# the divisor of test_kernel_identity_skipped_on_sphere: two zeros and three
# beta = 0.3 cones, tau = 7
SPHERE_GV_CFG = {
    "backend": "sphere",
    "resolution": 31,
    "divisor": {"zeros": [{"point": [0.7123, 1.1001], "n": 1},
                          {"point": [-0.51234, 4.0123], "n": 1}],
                "cone": [{"point": [0.1517, 2.591], "beta": 0.3},
                         {"point": [-0.9, 0.7], "beta": 0.3},
                         {"point": [0.4, 5.1], "beta": 0.3}]},
    "tau": 7.0,
    "epsilon": 0.2,
}


@pytest.mark.parametrize("command, base", [
    ("solve-gv", SPHERE_GV_CFG),
    ("sweep-eps", dict(SPHERE_GV_CFG, epsilon=[0.3, 0.2],
                       alpha={"target": 0.004}))], ids=["gv", "sweep"])
def test_sphere_coupled_solve_then_verify(tmp_path, command, base):
    # the sphere branch of the coupled Newton-GMRES end to end at L = 31:
    # solve-gv to alpha*, and a two-rung ladder whose rungs both complete.
    # The stall of this path below L = 31 and the failing C7 check of the
    # eps = 0.1 rung (ROADMAP, open item 1) are still open; neither is
    # covered here.
    cfg = write_cfg(tmp_path, "cfg.json", base)
    out = str(tmp_path / "art")
    assert main([command, "--config", cfg, "--out", out, "--quiet"]) == 0
    assert main(["verify", "--out", out, "--quiet"]) == 0
    if command == "sweep-eps":
        ladder = json.load(open(os.path.join(out, "ladder.json")))
        assert ladder["eps"] == [0.3, 0.2] and ladder["failures"] == []


def _artifact_case(tmp_path, tke_artifact, case):
    """argv of one file-error case, in a fresh tmp_path."""
    art = str(tmp_path / "art")
    shutil.copytree(tke_artifact, art)
    meta_path = os.path.join(art, "metadata.json")
    out = str(tmp_path / "out")
    if case == "config-is-a-directory":
        return ["solve-tke", "--config", str(tmp_path), "--out", out], \
            str(tmp_path)
    if case == "config-not-utf8":
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"backend": "\xff"}')
        return ["solve-tke", "--config", str(cfg), "--out", out], str(cfg)
    if case == "export-missing-field":
        missing = str(tmp_path / "missing.vfield")
        return ["export", "--field", missing], missing
    field = os.path.join(art, "fields", "u.vfield")
    data = open(field, "rb").read()
    if case.startswith("export-"):
        # a field file whose header or payload is malformed
        bad = tmp_path / "bad.vfield"
        header = {"export-header-not-a-table": [],
                  "export-shape-not-a-list": {"shape": "ab"},
                  "export-negative-shape": {"shape": [-1, 2]}}.get(case)
        if case == "export-header-not-json":
            bad.write_bytes(MAGIC + (8).to_bytes(8, "little") + b"{shape: ")
        elif header is None:  # export-truncated-field
            bad.write_bytes(data[:-8])
        else:
            blob = json.dumps(header).encode()
            bad.write_bytes(MAGIC + len(blob).to_bytes(8, "little") + blob)
        return ["export", "--field", str(bad)], str(bad)
    if case == "out-is-a-file":
        cfg = write_cfg(tmp_path, "cfg.json", TKE_CFG)
        taken = tmp_path / "taken"
        taken.write_text("")
        return ["solve-tke", "--config", cfg, "--out", str(taken)], str(taken)
    if case == "metadata-not-json":
        with open(meta_path, "w") as fh:
            fh.write("{not json")
    elif case == "metadata-without-command":
        meta = json.load(open(meta_path))
        del meta["command"]
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)
    elif case == "config-json-malformed":
        # a stored config edited and its hash stamped again
        cfg = json.load(open(os.path.join(art, "config.json")))
        _restamp(art, "config.json", dict(cfg, resolution="abc"))
        return ["verify", "--out", art], "'resolution'"
    elif case == "listed-file-missing":
        os.remove(field)
        return ["verify", "--out", art], "u.vfield"
    elif case == "verify-truncated-field":
        _restamp(art, os.path.join("fields", "u.vfield"), data[:-8])
        return ["verify", "--out", art], "u.vfield"
    return ["verify", "--out", art], meta_path


@pytest.fixture(scope="module")
def tke_artifact(tmp_path_factory):
    d = tmp_path_factory.mktemp("tke")
    cfg = write_cfg(d, "cfg.json", TKE_CFG)
    out = str(d / "art")
    assert main(["solve-tke", "--config", cfg, "--out", out, "--quiet"]) == 0
    return out


@pytest.fixture(scope="module")
def eb_artifact(tmp_path_factory):
    d = tmp_path_factory.mktemp("eb")
    cfg = write_cfg(d, "cfg.json", EB_CFG)
    out = str(d / "art")
    assert main(["solve-eb", "--config", cfg, "--out", out, "--quiet"]) == 0
    return out


@pytest.mark.parametrize("case, code", [
    ("config-is-a-directory", 2), ("config-not-utf8", 2),
    ("export-missing-field", 2), ("out-is-a-file", 2),
    ("metadata-not-json", 2), ("metadata-without-command", 2),
    ("config-json-malformed", 2), ("listed-file-missing", 3),
    ("export-truncated-field", 2), ("export-header-not-a-table", 2),
    ("export-shape-not-a-list", 2), ("export-negative-shape", 2),
    ("export-header-not-json", 2), ("verify-truncated-field", 2)])
def test_file_errors_exit_with_a_named_message(tmp_path, tke_artifact, capsys,
                                               case, code):
    # a bad input path, a malformed metadata.json, stored config or field
    # file is exit 2, a listed artifact file that is missing exit 3 (as a hash
    # mismatch is); each message names the file or key, none is a traceback
    argv, name = _artifact_case(tmp_path, tke_artifact, case)
    capsys.readouterr()
    assert main(argv + ["--quiet"]) == code
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err


@settings(deadline=None, max_examples=100)
@given(st.one_of(st.binary(max_size=64),
                 st.text(max_size=64).map(str.encode)))
def test_any_config_bytes_exit_2(data):
    with tempfile.TemporaryDirectory() as d:
        cfg = os.path.join(d, "cfg.json")
        with open(cfg, "wb") as fh:
            fh.write(data)
        assert main(["solve-tke", "--config", cfg, "--out",
                     os.path.join(d, "art"), "--quiet"]) == 2


def test_truncated_ladder_reverifies(tmp_path, monkeypatch):
    # a failed rung truncates the ladder; the artifact certifies the last
    # completed rung and must re-verify at that rung's epsilon
    def fail_fine_rungs(fn):
        def wrapped(problem, *args, **kwargs):
            if problem.eps < 0.03:
                raise ConvergenceFailure("injected rung failure")
            return fn(problem, *args, **kwargs)
        return wrapped

    for name in ("solve_at_alpha", "decoupled_state"):
        monkeypatch.setattr(coupled, name,
                            fail_fine_rungs(getattr(coupled, name)))
    cfg = write_cfg(tmp_path, "sweep.json",
                    dict(GV_CFG, epsilon=[0.1, 0.05, 0.025]))
    out = str(tmp_path / "sweep")
    assert main(["sweep-eps", "--config", cfg, "--out", out, "--quiet"]) == 0
    ladder = json.load(open(os.path.join(out, "ladder.json")))
    assert ladder["eps"] == [0.1, 0.05]
    assert [f["eps"] for f in ladder["failures"]] == [0.025]
    assert main(["verify", "--out", out, "--quiet"]) == 0
    assert json.load(open(os.path.join(out, "metadata.json")))["epsilon"] == 0.05


def test_cli_import_skips_scipy_special_and_integrate():
    # no scipy module at all: the runtime path is numpy only
    src = os.path.dirname(os.path.dirname(greens.__file__))
    code = ("import sys, vortexlab.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"


def test_sweep_eps_skips_numpy_ma(tmp_path):
    # the exponent fits take their median by np.partition: a whole sweep-eps
    # run never imports numpy.ma, nor the Bogomol'nyi phase it does not run
    src = os.path.dirname(os.path.dirname(greens.__file__))
    cfg = write_cfg(tmp_path, "sweep.json", SWEEP_CFG)
    argv = ["sweep-eps", "--config", cfg, "--out", str(tmp_path / "out"),
            "--quiet"]
    code = (f"import sys; from vortexlab.cli import main; rc = main({argv!r}); "
            "print(rc, 'numpy.ma' in sys.modules, "
            "'vortexlab.bogomolnyi' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.split() == ["0", "False", "False"]


def _modules_loaded(code):
    """The vortexlab and numpy.polynomial modules that a fresh process
    running ``code`` has loaded."""
    src = os.path.dirname(os.path.dirname(greens.__file__))
    code += ("; import sys; print(*sorted(m for m in sys.modules if "
             "m.startswith(('vortexlab.', 'numpy.polynomial'))))")
    return set(subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src)).stdout.split())


def test_setup_loads_no_solver_module():
    # the config schema, the surface and the divisor fields run no solver
    # module, and the sphere's Gauss rule needs no numpy.polynomial
    code = ("import vortexlab.cli as cli; "
            f"s, d = cli.build_setup({EB_CFG!r}); cli.build_divisor_fields(s, d)")
    loaded = _modules_loaded(code)
    assert not loaded & {f"vortexlab.{m}" for m in (
        "bogomolnyi", "coupled", "singular", "solvers", "vortex")}
    assert not any(m.startswith("numpy.polynomial") for m in loaded)


def test_solve_eb_loads_no_coupled_solver(tmp_path):
    # the Bogomol'nyi phase and its verify run the monotone iteration alone
    cfg = write_cfg(tmp_path, "eb.json", EB_CFG)
    out = str(tmp_path / "art")
    code = ("from vortexlab.cli import main; "
            f"assert main(['solve-eb', '--config', {cfg!r}, '--out', {out!r}, "
            f"'--quiet']) == 0; assert main(['verify', '--out', {out!r}, "
            "'--quiet']) == 0")
    loaded = _modules_loaded(code)
    assert "vortexlab.bogomolnyi" in loaded
    assert not loaded & {f"vortexlab.{m}" for m in (
        "coupled", "singular", "solvers", "vortex")}


def test_export_heatmap(tmp_path):
    # constant field: uniform image
    vals = np.full((8, 8), 3.25)
    fp = str(tmp_path / "c.vfield")
    write_field(fp, vals, "torus", 8, "c")
    from vortexlab.cli import run_export
    run_export(fp, str(tmp_path / "c.pgm"), quiet=True)
    data = open(str(tmp_path / "c.pgm"), "rb").read()
    assert data.startswith(b"P5\n8 8\n255\n")
    assert set(data.split(b"255\n", 1)[1]) == {0}
    side = json.load(open(str(tmp_path / "c.pgm.json")))
    assert side["min"] == side["max"] == 3.25
    # NaN field refuses
    bad = np.full((8, 8), np.nan)
    fp2 = str(tmp_path / "n.vfield")
    write_field(fp2, bad, "torus", 8, "n")
    assert main(["export", "--field", fp2, "--quiet"]) == 2
    # malformed magic refuses
    fp3 = str(tmp_path / "m.vfield")
    open(fp3, "wb").write(b"NOTAFIELD" + b"\x00" * 64)
    assert main(["export", "--field", fp3, "--quiet"]) == 2


def test_heatmap_cone_pattern(tmp_path):
    # metric density near the cone point: darkest pixels cluster at the
    # stored coordinate (radially organized peak of 1/rho there)
    cfg = write_cfg(tmp_path, "gv.json", dict(GV_CFG, resolution=64))
    out = str(tmp_path / "gv64")
    assert main(["solve-gv", "--config", cfg, "--out", out, "--quiet"]) == 0
    vals, header = read_field(os.path.join(out, "fields", "u.vfield"))
    n = header["resolution"]
    from vortexlab.surface import build_surface
    surf = build_surface("torus", n)
    rho = 1.0 - surf.laplacian(vals)
    meta = write_pgm(str(tmp_path / "rho.pgm"), rho)
    img = np.frombuffer(
        open(str(tmp_path / "rho.pgm"), "rb").read().split(b"255\n", 1)[1],
        dtype=np.uint8).reshape(n, n)
    iq = (round(0.67411 * n), round(0.29517 * n))
    peak = np.unravel_index(np.argmax(img), img.shape)
    dist = np.hypot((peak[0] - iq[0] + n / 2) % n - n / 2,
                    (peak[1] - iq[1] + n / 2) % n - n / 2)
    assert dist <= 2.0


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 2**32 - 1))
def test_field_io_roundtrip(seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(6, 9))
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "f.vfield")
        write_field(p, vals, "torus", 6, "f")
        back, header = read_field(p)
        assert np.array_equal(back, vals)
        assert header["field"] == "f"
        assert open(p, "rb").read(16) == MAGIC


# the CLI contract: a config with one key replaced at any depth, one optional
# key of the schema added, or one unknown key added, exits 0, 2, 3 or 4 and
# never raises
SOLVE_CFGS = [("solve-vortex", VORTEX_CFG),
              ("solve-vortex", dict(VORTEX_CFG, backend="sphere", resolution=23)),
              ("solve-tke", TKE_CFG), ("solve-gv", GV_CFG),
              ("sweep-eps", SWEEP_CFG), ("solve-eb", EB_CFG)]
ODD_VALUES = [None, True, False, "", "x", [], {}, [1, 2], -1, 0, 1, 2, 3, 0.5,
              math.nan, math.inf, -math.inf]


def _key_paths(value, kind, path=()):
    """Paths to every entry below ``value``, to every key of its schema
    ``kind`` (at any depth, present or not) and to a new key in every
    table."""
    tables = [k for k in (kind if isinstance(kind, tuple) else (kind,))
              if isinstance(k, dict)]
    if isinstance(value, dict) and tables:
        yield path + ("unknown_key",)
        for key, sub in tables[0].items():
            yield path + (key,)
            yield from _key_paths(value.get(key, {}), sub, path + (key,))
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            yield path + (i,)
            yield from _key_paths(sub, kind[0] if isinstance(kind, list)
                                  else None, path + (i,))


def _mutations(case):
    command, base = SOLVE_CFGS[case]
    paths = st.sampled_from(list(_key_paths(base, _COMMANDS[command].schema)))
    return st.tuples(st.just(case), paths, st.sampled_from(ODD_VALUES))


def _mutate(base, path, value):
    cfg = copy.deepcopy(base)
    parent = cfg
    for key in path[:-1]:
        parent = parent.setdefault(key, {}) if isinstance(parent, dict) else parent[key]
    parent[path[-1]] = value
    return cfg


@settings(deadline=None, max_examples=300)
@given(st.integers(0, len(SOLVE_CFGS) - 1).flatmap(_mutations))
def test_malformed_configs_exit_with_a_code(mutation):
    case, path, value = mutation
    command, base = SOLVE_CFGS[case]
    with tempfile.TemporaryDirectory() as d:
        cfg_path = os.path.join(d, "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(_mutate(base, path, value), fh)
        code = main([command, "--config", cfg_path,
                     "--out", os.path.join(d, "art"), "--quiet"])
    assert code in (0, 2, 3, 4)


def test_stored_artifacts_with_odd_values_exit_with_a_code(
        tmp_path, eb_artifact, tke_artifact, capsys):
    # verify on an artifact whose metadata.json has one key, or whose
    # ladder.json has one key or the whole report, replaced (the hash
    # stamped again) exits 0, 2 or 3, and an exit 2 names the file and key
    keys = [("metadata.json", (key,))
            for key in ("command", "seed", "files", "alpha", "tau")]
    ladder = [("ladder.json", (key,))
              for key in ("lam", "lam_min", "C_sigma", "deltas")]
    for name, src, cases in (("eb", eb_artifact, keys + ladder
                              + [("ladder.json", ())]),
                             ("tke", tke_artifact, keys)):
        art = str(tmp_path / name)
        shutil.copytree(src, art)
        for rel, path in cases:
            kept = {r: open(os.path.join(art, r), "rb").read()
                    for r in ("metadata.json", rel)}
            for value in ODD_VALUES:
                obj = (_mutate(json.loads(kept[rel]), path, value) if path
                       else value)
                if rel == "metadata.json":
                    with open(os.path.join(art, rel), "w") as fh:
                        json.dump(obj, fh)
                else:
                    _restamp(art, rel, obj)
                capsys.readouterr()
                code = main(["verify", "--out", art, "--quiet"])
                err = capsys.readouterr().err
                assert code in (0, 2, 3), (name, rel, path, value, err)
                assert code != 2 or rel in err and all(
                    k in err for k in path), (name, rel, path, value, err)
                assert "Traceback" not in err
                for r, blob in kept.items():
                    with open(os.path.join(art, r), "wb") as fh:
                        fh.write(blob)


@pytest.mark.parametrize("script, args", [
    ("alpha_star_probe.py", ["32", "1.0", "1.05"]),
    ("gv_pipeline_demo.py", ["{tmp}/demo", "32"]),
])
def test_script_runs(tmp_path, script, args):
    # the scripts call solve_path, solve_at_alpha and the CLI directly;
    # the demo's config file goes to TMPDIR
    src = os.path.dirname(os.path.dirname(greens.__file__))
    path = os.path.join(os.path.dirname(src), "scripts", script)
    run = subprocess.run(
        [sys.executable, path] + [a.format(tmp=tmp_path) for a in args],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src, TMPDIR=str(tmp_path)))
    assert run.returncode == 0, run.stderr
