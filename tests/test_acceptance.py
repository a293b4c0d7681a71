"""Acceptance criteria at the default resolutions (torus 256^2, sphere
L = 127), one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` (or scripts/run_acceptance.py).
"""

import contextlib
import hashlib
import json
import time

import numpy as np
import pytest

from vortexlab.bogomolnyi import (
    build_supersolution,
    check_numerical_assumption,
    eb_residual,
    make_eb_problem,
    monotone_iterate,
    supersolution_margin,
)
from vortexlab.cli import main
from vortexlab.coupled import continue_alpha, decoupled_state, make_problem, residual
from vortexlab.fields import DivisorData, build_divisor_fields
from vortexlab.greens import (green_field, sphere_green_eval,
                              torus_green_theta_eval)
from vortexlab.singular import (
    conical_fit,
    mask_away_from_points,
    parabolic_fit,
    run_ladder,
)
from vortexlab.surface import VOL, build_surface
from vortexlab.verify import (
    Certificate,
    certify_integral_estimates,
    certify_logy_bounds,
    kernel_identity,
)
from vortexlab.vortex import make_vortex_problem, solve_vortex, vortex_residual

from conftest import P_CONE, P_PARA, P_ZERO, S_PARA, S_ZERO1, S_ZERO2
from oracles import fd_jacobian_gap, regular_point_slope, torus_green_eval


@contextlib.contextmanager
def criterion(num, name, budget_seconds):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL ({time.time() - t0:.0f}s)")
        raise
    dt = time.time() - t0
    print(f"ACCEPTANCE {num} {name}: PASS ({dt:.0f}s, budget {budget_seconds}s)")
    assert dt < budget_seconds


@pytest.fixture(scope="module")
def torus256():
    return build_surface("torus", 256)


@pytest.fixture(scope="module")
def sphere127():
    return build_surface("sphere", 127)


@pytest.fixture(scope="module")
def acc3(torus256):
    dd = DivisorData(zeros=((P_ZERO, 1),), cone=((P_CONE, 0.5),))
    problem = make_problem(torus256, dd, tau=4.0, eps=0.1)
    t0 = time.time()
    st0 = decoupled_state(problem)
    states = list(continue_alpha(problem, st0, problem.params.alpha_star,
                                 n_steps=16))
    return problem, states, time.time() - t0


def test_criterion_1_twisted_vortex_suite(torus256):
    with criterion(1, "twisted-vortex suite", 30):
        s = torus256
        dd = DivisorData(zeros=((P_ZERO, 1),))
        flds = build_divisor_fields(s, dd)
        weight = np.exp(flds.log_phi_sq)
        F = 0.3 * np.cos(2 * np.pi * s.X) + 0.2 * np.sin(
            2 * np.pi * (s.X + s.Y))
        rng = np.random.default_rng(42)
        for b in (0.0, -0.5):
            prob = make_vortex_problem(s, weight, tau=5.0, N=1, b=b, F=F)
            f = solve_vortex(prob, tol=1e-10)
            assert np.max(np.abs(vortex_residual(prob, f))) < 1e-9
            Phi = prob.phi0_sq * np.exp(2.0 * f)
            bound = 5.0 + 2.0 * b + np.max(np.abs(s.laplacian(F)))
            assert np.max(Phi) <= bound + 1e-8
            m0 = s.integrate(prob.phi0_sq)
            m1 = s.integrate(prob.phi0_sq * np.exp(2.0 * f))
            assert abs(m1 - m0) <= 1e-8 * m0
            for _ in range(3):
                g, _ = s.random_bandlimited(rng, kmax=3, nmodes=4, amp=0.3)
                fi = solve_vortex(prob, f_init=g, tol=1e-10)
                assert np.max(np.abs(fi - f)) < 1e-8


def test_criterion_2_decoupled_endpoint(torus256):
    with criterion(2, "decoupled endpoint consistency", 60):
        dd = DivisorData(zeros=((P_ZERO, 1),), cone=((P_CONE, 0.5),),
                         parabolic=((P_PARA, 0.5),))
        problem = make_problem(torus256, dd, tau=4.0, eps=0.1)
        st0 = decoupled_state(problem)
        assert np.max(np.abs(st0.res1)) < 1e-8
        assert np.max(np.abs(st0.res2)) < 1e-8


def test_criterion_3_alpha_continuation(acc3):
    problem, states, solve_time = acc3
    print(f"[criterion 3] continuation solve time {solve_time:.1f}s")
    with criterion(3, "alpha continuation to alpha_star", 300):
        assert abs(problem.params.alpha_star - 0.0625) < 1e-15
        assert states[-1].alpha == pytest.approx(problem.params.alpha_star)
        assert len(states) - 1 <= 16
        for st in states:
            assert st.res_norm < 1e-9
            assert float(np.max(st.Phi)) <= problem.tau + 1e-8
            cert = Certificate()
            certify_integral_estimates(problem, st, cert)
            certify_logy_bounds(problem, st, cert, seed=1)
            bad = [c.name for c in cert.checks if not c.passed]
            assert not bad, f"alpha={st.alpha}: {bad}"
        assert solve_time < 300


def test_criterion_4_linearization(acc3, torus256):
    with criterion(4, "linearization correctness", 120):
        problem, states, _ = acc3
        final = states[-1]
        worst = 0.0
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            f, _ = torus256.random_bandlimited(rng, kmax=5, amp=0.3)
            u, _ = torus256.random_bandlimited(rng, kmax=5, amp=0.05)
            worst = max(worst, fd_jacobian_gap(problem, 0.04, f, u, seed=seed))
        assert worst < 1e-6
        cert = kernel_identity(problem, final, seed=5)
        assert cert.constants["kernel_identity_gap"] < 1e-5


def test_criterion_5_epsilon_ladder(torus256):
    with criterion(5, "epsilon ladder and exponent fits", 1200):
        dd = DivisorData(zeros=((P_ZERO, 1),), cone=((P_CONE, 0.5),),
                         parabolic=((P_PARA, 0.5),))
        report = run_ladder(torus256, dd, tau=4.0, alpha=0.0625,
                            eps_list=[0.1, 0.05, 0.025, 0.0125], n_steps=16)
        assert len(report.newton_counts) == 4 and not report.failures
        d = report.d_sup
        assert d[0] > d[1] > d[2]  # decreasing over the last three rungs
        # last-pair distance at the fixed 8h mask radius (recalibrated scale)
        pts = [tuple(p) for p in dd.all_points().keys()]
        mask8 = mask_away_from_points(torus256, pts, 8.0 * torus256.h)
        a, b = report.states[-2], report.states[-1]
        d8 = max(float(np.max(np.abs(a.f_tilde - b.f_tilde)[mask8])),
                 float(np.max(np.abs(a.u - b.u)[mask8])))
        assert d8 < 5e-2
        cone = [f for f in report.fits if f.kind == "cone"][0]
        assert cone.resolved and abs(cone.slope - (-1.0)) < 0.15
        parab = [f for f in report.fits if f.kind == "parabolic"][0]
        assert parab.resolved and abs(parab.slope - 1.0) < 0.15
        # smooth-point control at the default-resolution window
        ctrl = regular_point_slope(torus256, report.states[-1],
                                   (0.93111, 0.55077))
        assert abs(ctrl) < 0.05


def test_criterion_6_bogomolnyi_iteration(sphere127):
    with criterion(6, "Bogomol'nyi monotone iteration", 600):
        dd = DivisorData(zeros=((S_ZERO1, 1), (S_ZERO2, 1)),
                         parabolic=((S_PARA, 0.5),))
        problem = make_eb_problem(sphere127, dd, alpha=0.08)
        assert problem.alpha * problem.tau == pytest.approx(0.4)
        na = check_numerical_assumption(problem)
        assert na.all_passed
        w, C_sigma, lam_min, lam = build_supersolution(problem)
        # supersolution inequality verified pointwise before iterating
        for delta in (0.9, 0.5, 0.25):
            assert supersolution_margin(problem, w, lam, delta) > 0.0
        delta = 0.25
        f, info = monotone_iterate(problem, w, lam, delta, tol=1e-10,
                                   residual_target=5e-9)
        assert info["min_gap_chain"] > -1e-12
        assert info["min_gap_floor"] > -1e-12
        mask = mask_away_from_points(sphere127, problem.marked_points(),
                                     2.0 * problem.sigma)
        res = eb_residual(problem, f, delta, lam)
        assert float(np.max(np.abs(res)[mask])) < 1e-8
        # the admissibility checker reproduces the seven membership
        # inequalities exactly on a synthetic divisor set
        at = problem.alpha * problem.tau
        pts = [(0.15 + 0.1 * k, 0.35) for k in range(7)]
        synth = DivisorData(
            zeros=((pts[0], 1), (pts[3], 1), (pts[5], 1), (pts[6], 1)),
            cone=((pts[1], 0.4), (pts[3], 0.8), (pts[4], 0.3), (pts[6], 0.6)),
            parabolic=((pts[2], 0.5), (pts[4], 1.5), (pts[5], 2.0),
                       (pts[6], 0.1)),
        )

        class Synthetic:
            alpha, tau = problem.alpha, problem.tau

            class fields:
                divisor = synth

        rep = check_numerical_assumption(Synthetic)
        assert sorted(e["classes"] for e in rep.entries) == sorted(
            ["Z", "C", "P", "ZC", "CP", "ZP", "ZCP"])
        for e in rep.entries:
            data = synth.all_points()[tuple(e["point"])]
            lhs = (4.0 * at * data.get("n", 0)
                   + 4.0 * at * data.get("alpha_k", 0.0)
                   + (2.0 * (1.0 - data["beta"]) if "beta" in data else 0.0))
            assert e["lhs"] == pytest.approx(lhs, abs=1e-14)
            assert e["passed"] == (lhs < 2.0)


def test_criterion_7_infrastructure(torus256, sphere127, tmp_path):
    with criterion(7, "infrastructure", 300):
        # Green two-route agreement (torus) and symmetry (sphere)
        xs = np.array([0.72, 0.11, 0.55])
        ys = np.array([0.40, 0.83, 0.07])
        e = torus_green_eval(P_ZERO, xs, ys)
        t = torus_green_theta_eval(P_ZERO, xs, ys)
        assert np.max(np.abs(e - t)) < 1e-8
        p = (0.523, 1.234)
        gs = green_field(sphere127, p)
        assert abs(sphere127.integrate(gs)) < 1e-12
        d = sphere127.distance_field(p)
        flat = np.argsort(d.ravel())[5000:5002]
        # equal-distance pairs agree through the distance-only closed form
        cosang = np.cos(d.ravel()[flat] / sphere127.r)
        assert abs(float(sphere_green_eval(cosang[0]))
                   - float(sphere_green_eval(cosang[1]))) \
            <= 1e-12 + abs(cosang[0] - cosang[1]) * 10.0
        # the grid field depends on the distance alone: with q on a grid
        # longitude, the nodes mirrored about q's meridian take equal values
        k = 40
        q = (0.523, sphere127.phi[k])
        gq = green_field(sphere127, q)
        mirror = (2 * k - np.arange(sphere127.nlon)) % sphere127.nlon
        dq = sphere127.distance_field(q)
        assert np.max(np.abs(dq - dq[:, mirror])) < 1e-14
        assert np.max(np.abs(gq - gq[:, mirror])) < 1e-12
        # Laplacian eigenvalues to 1e-12 relative via Rayleigh quotients
        # (pointwise fields bottom out at the FFT floor eps * lambda_max,
        # ~1.6e-10 at n=256; the eigenvalue itself is clean)
        for k, l in [(1, 0), (1, 2), (3, 4), (7, 2)]:
            f = np.cos(2 * np.pi * (k * torus256.X + l * torus256.Y))
            lam = 2 * np.pi * (k**2 + l**2)
            rayleigh = torus256.integrate(f * torus256.laplacian(f)) \
                / torus256.integrate(f * f)
            assert abs(rayleigh - lam) < 1e-12 * lam
            assert np.max(np.abs(torus256.laplacian(f) - lam * f)) < 4e-10
        for l, m in [(1, 0), (2, 1), (4, 2), (10, 7)]:
            f = sphere127.eval_modes([(l, m, 0.8, -0.3)])
            lam = 2.0 * l * (l + 1)
            rayleigh = sphere127.integrate(f * sphere127.laplacian(f)) \
                / sphere127.integrate(f * f)
            assert abs(rayleigh - lam) < 1e-12 * lam
            assert np.max(np.abs(sphere127.laplacian(f) - lam * f)) < 4e-10
        # bit-reproducible artifacts
        cfg = {
            "backend": "torus", "resolution": 64,
            "divisor": {"zeros": [{"point": [0.31415927, 0.57721566], "n": 1}]},
            "tau": 5.0, "seed": 11,
        }
        cfg_path = tmp_path / "repro.json"
        cfg_path.write_text(json.dumps(cfg))
        hashes = []
        for k in range(2):
            out = tmp_path / f"repro{k}"
            assert main(["solve-vortex", "--config", str(cfg_path), "--out",
                         str(out), "--seed", "11", "--quiet"]) == 0
            blob = open(out / "fields" / "f_tilde.vfield", "rb").read()
            hashes.append(hashlib.sha256(blob).hexdigest())
        assert hashes[0] == hashes[1]
        # refusal paths with the specified exit codes
        bad = dict(cfg, tau=2.0)
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        assert main(["solve-vortex", "--config", str(bad_path), "--out",
                     str(tmp_path / "b1"), "--quiet"]) == 2
        refuse = {
            "backend": "sphere", "resolution": 15,
            "divisor": {"zeros": [{"point": [0.7123, 1.1001], "n": 1},
                                  {"point": [-0.51234, 4.0123], "n": 1}]},
            "alpha": 0.1, "delta": [0.3],
        }
        r_path = tmp_path / "refuse.json"
        r_path.write_text(json.dumps(refuse))
        assert main(["solve-eb", "--config", str(r_path), "--out",
                     str(tmp_path / "b2"), "--quiet"]) == 4
        torus_eb = {
            "backend": "torus", "resolution": 32,
            "divisor": {"zeros": [{"point": [0.17137, 0.23731], "n": 1}],
                        "cone": [{"point": [0.67411, 0.29517], "beta": 0.5}]},
            "alpha": 0.1, "delta": [0.3],
        }
        t_path = tmp_path / "teb.json"
        t_path.write_text(json.dumps(torus_eb))
        assert main(["solve-eb", "--config", str(t_path), "--out",
                     str(tmp_path / "b3"), "--quiet"]) == 2
