import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vortexlab.bogomolnyi import (
    F_nonlinearity,
    F_prime,
    assembled_residual,
    build_supersolution,
    check_numerical_assumption,
    delta_ladder_and_assemble,
    eb_residual,
    make_eb_problem,
    monotone_iterate,
    supersolution_margin,
)
from vortexlab.errors import AssumptionNotSatisfied, ConfigError, ConvergenceFailure
from vortexlab.fields import DivisorData
from vortexlab.surface import mask_away_from_points

from conftest import S_PARA, S_ZERO1, S_ZERO2

EB_DIVISOR = DivisorData(zeros=((S_ZERO1, 1), (S_ZERO2, 1)),
                         parabolic=((S_PARA, 0.5),))


@pytest.fixture(scope="module")
def eb31(sphere31):
    return make_eb_problem(sphere31, EB_DIVISOR, alpha=0.08)


@pytest.fixture(scope="module")
def eb31_solution(eb31):
    w, C_sigma, lam_min, lam = build_supersolution(eb31)
    f, info = monotone_iterate(eb31, w, lam, 0.2, tol=1e-10)
    return w, lam, f, info


# frozen reference: exp(-0.2) * (1 - 5) evaluated in high precision
F_AT_ZERO = -3.2749230123119274


def test_F_values():
    assert F_nonlinearity(math.log(5.0), 0.1, 5.0) == pytest.approx(0.0, abs=1e-14)
    assert F_nonlinearity(0.0, 0.1, 5.0) == pytest.approx(F_AT_ZERO, abs=1e-14)
    assert F_nonlinearity(800.0, 0.1, 5.0) == 0.0
    assert F_nonlinearity(-800.0, 0.1, 5.0) == 0.0
    assert np.isfinite(F_nonlinearity(np.linspace(-900, 900, 101), 0.1, 5.0)).all()


@settings(deadline=None, max_examples=30)
@given(st.floats(-30.0, 6.0), st.floats(0.02, 0.5), st.floats(0.5, 8.0))
def test_F_prime_matches_difference(t, alpha, tau):
    h = 1e-6
    fd = (F_nonlinearity(t + h, alpha, tau)
          - F_nonlinearity(t - h, alpha, tau)) / (2 * h)
    exact = F_prime(t, alpha, tau)
    assert abs(fd - exact) < 1e-5 * max(1.0, abs(exact))


@settings(deadline=None, max_examples=30)
@given(st.floats(-30.0, 6.0), st.floats(-30.0, 6.0), st.floats(0.02, 0.5),
       st.floats(0.5, 8.0))
def test_F_prime_bounded_by_its_value_at_the_top(a, b, alpha, tau):
    """F'(s) <= max(0, F'(T)) for s <= T <= log tau: the slope bound of the
    monotone iteration on the order interval below an iterate.

    Proof. Write F' = e^g Q(e^t) with Q(y) = -2a y^2 + (4 a tau + 1) y
    - 2 a tau^2 and g' = 2a (tau - e^t). Q(0) < 0 and Q(tau) = tau > 0, so
    Q has a root y- in (0, tau) and F' < 0 below log y-. On (log y-, log tau]
    Q > 0 and g' >= 0, so F'' = e^g (g' Q + e^t (4 a tau + 1 - 4 a e^t)) > 0
    and F' rises up to T. Hence F'(s) <= max(0, F'(T)). F''(log tau) =
    tau e^g > 0, so F' still rises just above log tau and the ulps by which
    2 f_1 + u0 can exceed log tau are still covered.
    """
    top = math.log(tau)
    T = min(max(a, b), top)
    s = min(a, b, T)
    bound = max(0.0, float(F_prime(T, alpha, tau)))
    assert F_prime(s, alpha, tau) <= bound + 1e-12 * max(1.0, bound)
    assert F_prime(top + 1e-9, alpha, tau) > F_prime(top, alpha, tau) > 0.0


def test_na_checker_seven_classes():
    at = 0.1  # alpha * tau used in the inequalities

    def expected(n, beta, ak):
        lhs = 4 * at * n + 4 * at * ak + (2 * (1 - beta) if beta is not None else 0.0)
        return lhs < 2.0

    pt = [(0.1 + 0.1 * k, 0.2) for k in range(7)]
    dd = DivisorData(
        zeros=((pt[0], 1), (pt[3], 1), (pt[5], 2), (pt[6], 1)),
        cone=((pt[1], 0.3), (pt[3], 0.9), (pt[4], 0.2), (pt[6], 0.5)),
        parabolic=((pt[2], 0.5), (pt[4], 1.0), (pt[5], 2.0), (pt[6], 0.1)),
    )

    class P:  # minimal stand-in carrying what the checker reads
        alpha = 0.02
        tau = 5.0

        class fields:
            divisor = dd

    rep = check_numerical_assumption(P)
    assert len(rep.entries) == 7
    classes = sorted(e["classes"] for e in rep.entries)
    assert classes == sorted(["Z", "C", "P", "ZC", "CP", "ZP", "ZCP"])
    for e in rep.entries:
        n = beta = ak = None
        data = dd.all_points()[tuple(e["point"])]
        ok = expected(data.get("n", 0), data.get("beta"),
                      data.get("alpha_k", 0.0))
        assert e["passed"] == ok


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 3), st.one_of(st.none(), st.floats(0.05, 0.95)),
       st.floats(0.0, 2.0), st.floats(0.02, 0.6))
def test_na_single_point_rule(n, beta, ak, at):
    # independent restatement: the weighted local order of e^{-v0} must
    # stay below 2 for p-integrability with some p > 1
    zeros = (((0.31, 0.41), n),) if n > 0 else ()
    cone = (((0.31, 0.41), beta),) if beta is not None else ()
    parab = (((0.31, 0.41), ak),) if ak > 0 else ()
    if not (zeros or cone or parab):
        return
    dd = DivisorData(zeros=zeros, cone=cone, parabolic=parab)

    class P:
        alpha, tau = at, 1.0

        class fields:
            divisor = dd

    rep = check_numerical_assumption(P)
    local_order = (4 * at * (n if zeros else 0)
                   + 4 * at * (ak if parab else 0.0)
                   + (2 * (1 - beta) if cone else 0.0))
    assert len(rep.entries) == 1
    assert rep.entries[0]["lhs"] == pytest.approx(local_order, abs=1e-13)
    assert rep.all_passed == (local_order < 2.0)


def test_na_spec_arithmetic(sphere31):
    # boundary case: isolated zero with 4 a tau n = 2 fails strictly
    dd = DivisorData(zeros=((S_ZERO1, 1), (S_ZERO2, 1)))
    prob = make_eb_problem(sphere31, dd, alpha=0.1)
    assert prob.alpha * prob.tau == pytest.approx(0.5)
    rep = check_numerical_assumption(prob)
    assert not rep.all_passed
    assert all(e["lhs"] == pytest.approx(2.0) for e in rep.entries)
    # parabolic weight rescues it: N~ = 2.5 so a tau = 0.4 and 1.6 < 2
    prob2 = make_eb_problem(sphere31, EB_DIVISOR, alpha=0.08)
    assert prob2.alpha * prob2.tau == pytest.approx(0.4)
    rep2 = check_numerical_assumption(prob2)
    assert rep2.all_passed


def test_eb_problem_locks_phase(sphere31, eb31):
    assert abs(eb31.params.c_tilde(eb31.alpha)) < 1e-12
    assert eb31.tau == pytest.approx(2.0 / (2 * 0.08 * 2.5))
    with pytest.raises(ConfigError):
        make_eb_problem(sphere31, EB_DIVISOR, alpha=0.08, tau=5.0)
    with pytest.raises(ConfigError):
        make_eb_problem(sphere31, EB_DIVISOR)


def test_torus_phase_refusal(torus64):
    dd = DivisorData(zeros=(((0.17137, 0.23731), 1),),
                     cone=(((0.67411, 0.29517), 0.5),))
    with pytest.raises(ConfigError):
        make_eb_problem(torus64, dd, alpha=0.1)


def test_supersolution_inequality(eb31, eb31_solution):
    w, lam, _, _ = eb31_solution
    for delta in (0.9, 0.5, 0.1):
        assert supersolution_margin(eb31, w, lam, delta) > 0.0
        u0d = eb31.rung(delta).u0
        assert np.max(2.0 * w + u0d) < np.log(eb31.tau)


def test_cutoff_mass_monotone(sphere31, eb31):
    from vortexlab.bogomolnyi import _quintic_bump
    from vortexlab.surface import VOL
    pts = eb31.marked_points()
    masses = []
    for sigma in (0.2, 0.1, 0.05):
        psi = _quintic_bump(sphere31, pts, sigma)
        masses.append((4 * np.pi * eb31.params.N_tilde / VOL**2)
                      * sphere31.integrate(psi))
    assert masses[0] > masses[1] > masses[2] > 0.0


def test_monotone_chain(eb31, eb31_solution):
    w, lam, f, info = eb31_solution
    assert info["min_gap_chain"] > -1e-12
    assert info["min_gap_floor"] > -1e-12
    # strict first-step decrease and the two-sided bound
    u0 = eb31.rung(0.2).u0
    f1 = 0.5 * (np.log(eb31.tau) - u0)
    assert np.all(f < f1 + 1e-12)
    assert np.all(f > w - 1e-12)


def test_monotone_shift_follows_the_iterate(eb31, monkeypatch):
    # the shift of the step from f_n bounds lam e^{-v0} F'(2 f + u0) on
    # [w, f_n] through its value at f_n, so it falls as f_n descends
    w, _, _, lam = build_supersolution(eb31)
    rung = eb31.rung(0.2)
    surface = eb31.surface
    iterates = [0.5 * (np.log(eb31.tau) - rung.u0)]  # f_1, f_2, ...
    solve = surface.solve_shifted

    def recording(c, rhs):
        iterates.append(solve(c, rhs))
        return iterates[-1]

    monkeypatch.setattr(surface, "solve_shifted", recording)
    log = []
    monotone_iterate(eb31, w, lam, 0.2, tol=1e-10, log=log, rung=rung)
    shifts = {e["iter"]: e["C_delta"] for e in log}
    assert shifts[2] < shifts[1]
    for it, shift in shifts.items():
        slope = rung.ev * F_prime(2.0 * iterates[it - 1] + rung.u0,
                                  eb31.alpha, eb31.tau)
        assert shift >= 1.0 + lam * float(np.max(slope))


def test_monotone_rejects_bad_constant(eb31):
    # sabotaged floor: w above f_1 must trip the chain assertion
    w_bad = np.full(eb31.surface.shape, 10.0)
    with pytest.raises(ConvergenceFailure):
        monotone_iterate(eb31, w_bad, 5.0, 0.5, tol=1e-10, max_iter=50)


def test_max_iter_guard_raises_convergence_failure(eb31):
    w, _, _, lam = build_supersolution(eb31)
    with pytest.raises(ConvergenceFailure, match="exceeded 0 iterations"):
        monotone_iterate(eb31, w, lam, 0.2, tol=1e-10, max_iter=0)


def test_f1_monotone_in_delta(eb31):
    f1a = 0.5 * (np.log(eb31.tau) - eb31.rung(0.5).u0)
    f1b = 0.5 * (np.log(eb31.tau) - eb31.rung(0.25).u0)
    assert np.all(f1b >= f1a - 1e-14)  # u0^d increasing in d


def test_residual_forms_agree(eb31, eb31_solution):
    w, lam, f, _ = eb31_solution
    r1 = eb_residual(eb31, f, 0.2, lam)
    # assembled route must agree identically (same algebra, two codings)
    u0d = eb31.rung(0.2).u0
    Phi_h = np.exp(2.0 * f + u0d)
    log_rho = 4 * eb31.alpha * eb31.tau * f - 2 * eb31.alpha * Phi_h
    for (_, b), ls in zip(EB_DIVISOR.cone, eb31.fields.log_s_sq):
        log_rho += (b - 1.0) * np.logaddexp(ls, np.log(0.2))
    r2 = (eb31.surface.laplacian(f)
          + 0.5 * (Phi_h - eb31.tau) * lam * np.exp(log_rho)
          + eb31.params.N_tilde)
    assert np.max(np.abs(r1 - r2)) < 1e-9


def test_delta_ladder_and_assembly(eb31):
    f, g_density, h_factor, w, report = delta_ladder_and_assemble(
        eb31, deltas=[0.4, 0.2], tol=1e-9)
    assert len(report["d_sup"]) == 1
    assert np.all(np.isfinite(g_density))
    assert np.all(np.isfinite(h_factor))
    assert report["lam"] > report["lam_min"]
    # h-factor carries the parabolic exponent: e^{2f} |t|^{2 * 0.5}
    assert np.array_equal(h_factor,
                          np.exp(2.0 * f + 0.5 * eb31.fields.log_t_sq[0]))
    # ladder start ordering: f_1 decreases pointwise as delta decreases
    res = assembled_residual(eb31, f, 0.2, report["lam"])
    assert res["sup_masked"] < 1e-3  # spectral floor of the small test grid


def test_last_rung_independent_of_the_earlier_ones(eb31):
    # the last rung starts from its own f_1 and runs to tol, so its f is
    # the single-rung solve; the earlier rungs stop at a looser change
    deltas = [0.4, 0.3, 0.2]
    f, _, _, w, report = delta_ladder_and_assemble(eb31, deltas, tol=1e-10)
    lam = report["lam"]
    alone, info = monotone_iterate(eb31, w, lam, 0.2, tol=1e-10)
    assert np.array_equal(f, alone)
    assert report["iterations"][-1] == info["iterations"]
    for d, its in zip(deltas[:-1], report["iterations"]):
        assert its < monotone_iterate(eb31, w, lam, d, tol=1e-10)[1]["iterations"]


def test_assembled_residual_with_a_cone_point(sphere31):
    # a conical singularity in the phase: the assembled route takes the
    # cone's (beta - 1) log(|s|^2 + delta) into the metric factor, which
    # the F-form of eb_residual carries as F_xi in e^{-v0^delta}
    dd = DivisorData(zeros=EB_DIVISOR.zeros, cone=(((-0.2311, 0.8123), 0.7),),
                     parabolic=EB_DIVISOR.parabolic)
    prob = make_eb_problem(sphere31, dd, alpha=0.08)
    assert check_numerical_assumption(prob).all_passed
    assert prob.tau == pytest.approx(4.25)
    w, _, _, lam = build_supersolution(prob)
    f, _ = monotone_iterate(prob, w, lam, 0.2, tol=1e-10)
    got = assembled_residual(prob, f, 0.2, lam)["sup_masked"]
    mask = mask_away_from_points(sphere31, prob.marked_points(), 2.0 * prob.sigma)
    want = float(np.max(np.abs(eb_residual(prob, f, 0.2, lam))[mask]))
    assert abs(got - want) < 1e-9


def test_refusal_with_report(sphere31):
    dd = DivisorData(zeros=((S_ZERO1, 1), (S_ZERO2, 1)))
    prob = make_eb_problem(sphere31, dd, alpha=0.1)
    with pytest.raises(AssumptionNotSatisfied) as exc:
        delta_ladder_and_assemble(prob, deltas=[0.2], tol=1e-10)
    assert exc.value.report is not None
    assert not exc.value.report.all_passed


def test_lambda_dependence_recorded(eb31):
    w, _, lam_min, lam = build_supersolution(eb31)
    f1, _ = monotone_iterate(eb31, w, lam, 0.3, tol=1e-9)
    f2, _ = monotone_iterate(eb31, w, 2 * lam, 0.3, tol=1e-9)
    diff = float(np.max(np.abs(f1 - f2)))
    assert diff > 1e-6  # the solution genuinely depends on the scale
