import weakref

import numpy as np
import pytest

import vortexlab.coupled as coupled
import vortexlab.singular as singular
from vortexlab.coupled import continue_alpha, make_problem
from vortexlab.errors import ConfigError, ConvergenceFailure
from vortexlab.fields import DivisorData, build_divisor_fields
from vortexlab.singular import conical_fit, parabolic_fit, run_ladder
from vortexlab.surface import mask_away_from_points
from vortexlab.vortex import solve_vortex_on_metric

from conftest import P_CONE, P_PARA, P_ZERO
from oracles import regular_point_slope

DD3 = DivisorData(zeros=((P_ZERO, 1),), cone=((P_CONE, 0.5),),
                  parabolic=((P_PARA, 0.5),))


@pytest.fixture(scope="module")
def ladder64(torus64):
    return run_ladder(torus64, DD3, tau=4.0, alpha=0.0625,
                      eps_list=[0.1, 0.05, 0.025], n_steps=8)


def test_ladder_structure(ladder64):
    r = ladder64
    assert len(r.newton_counts) == 3
    assert len(r.d_f) == 2 and len(r.d_u) == 2
    assert not r.failures
    # warm starts cheaper than the cold first rung
    assert all(c < r.newton_counts[0] for c in r.newton_counts[1:])
    # distances decrease with the rung
    assert r.d_f[1] < r.d_f[0]
    assert r.d_u[1] < r.d_u[0]


def test_holder_quotients_uniform(ladder64):
    for qs in (ladder64.holder_f, ladder64.holder_u):
        assert max(qs) < 2.0 * min(qs)


def test_wp_integrals_bounded(ladder64):
    w = ladder64.wp_integrals
    assert ladder64.lp_exponent == pytest.approx(1.5)
    assert all(b > a for a, b in zip(w, w[1:]))  # increasing toward the limit
    # increments decay: consistent with a finite limit integral
    inc = np.diff(w)
    assert inc[-1] < inc[0]


def test_ladder_builds_divisor_fields_once(torus32, monkeypatch):
    # the divisor fields do not depend on eps: one build (one Green field
    # per marked point) serves every rung
    import vortexlab.fields as fields

    calls = {"green_field": 0, "build": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(fields, "green_field",
                        counted("green_field", fields.green_field))
    build = counted("build", build_divisor_fields)
    monkeypatch.setattr(singular, "build_divisor_fields", build)
    monkeypatch.setattr(coupled, "build_divisor_fields", build)
    r = run_ladder(torus32, DD3, tau=4.0, alpha=0.03125,
                   eps_list=[0.1, 0.05, 0.025], n_steps=4, fit=False)
    assert len(r.newton_counts) == 3 and not r.failures
    assert calls == {"green_field": 3, "build": 1}


def test_single_rung_no_distances(torus64):
    r = run_ladder(torus64, DD3, tau=4.0, alpha=0.03125, eps_list=[0.1],
                   n_steps=4)
    assert len(r.newton_counts) == 1 and r.d_f == [] and r.d_u == []


@pytest.mark.parametrize("eps_list", [[0.1, 0.1], [0.05, 0.1]])
def test_non_decreasing_rungs_are_a_config_error(torus32, eps_list):
    # the same input the delta ladder refuses as a config error (exit 2);
    # it is refused before any rung is solved
    with pytest.raises(ConfigError, match="strictly decreasing"):
        run_ladder(torus32, DD3, tau=4.0, alpha=0.0, eps_list=eps_list)


def _held_at_solve_starts(monkeypatch):
    """Track every SolveState that solve_at_alpha and decoupled_state return
    by weak reference; the returned list gets, at the start of each
    solve_at_alpha, how many of them are alive and still hold Phi, S1 or
    S2."""
    refs, held = [], []

    def holds(st):
        return st is not None and any(
            a is not None for a in (st.Phi, st.res1, st.res2))

    def tracked(fn, count):
        def wrapped(*args, **kwargs):
            if count:
                held.append(sum(holds(r()) for r in refs))
            st = fn(*args, **kwargs)
            refs.append(weakref.ref(st))
            return st
        return wrapped

    solve = tracked(coupled.solve_at_alpha, True)
    start = tracked(coupled.decoupled_state, False)
    for mod in (coupled, singular):
        monkeypatch.setattr(mod, "solve_at_alpha", solve)
        monkeypatch.setattr(mod, "decoupled_state", start)
    return held


def test_ladder_keeps_what_the_next_rung_reads(torus32, monkeypatch):
    # a rung's solve reads the last rung's (f~, u) only: when a solve
    # starts, no state but the one the continuation of rung 0 stands on
    # holds Phi and the residuals
    held = _held_at_solve_starts(monkeypatch)
    r = run_ladder(torus32, DD3, tau=4.0, alpha=0.03125,
                   eps_list=[0.1, 0.05, 0.025, 0.0125], n_steps=4, fit=False)
    assert len(r.newton_counts) == 4 and not r.failures
    assert len(held) >= 7 and max(held) <= 1
    assert [st.Phi is None for st in r.states] == [True, False]


def test_walk_keeps_no_state_it_has_passed(torus32, monkeypatch):
    # once the walk has moved past a state, the start included, it holds no
    # reference to it: only the caller's loop variable keeps one
    held = _held_at_solve_starts(monkeypatch)
    problem = make_problem(torus32, DD3, tau=4.0, eps=0.1)
    path = continue_alpha(problem, coupled.decoupled_state(problem),
                          problem.params.alpha_star, n_steps=4)
    for st in path:
        pass
    assert st.alpha == problem.params.alpha_star
    assert len(held) >= 4 and max(held) <= 1


def test_rung_failure_truncates(torus64, monkeypatch):
    # the ladder that stops at rung 0 of its own accord
    whole = run_ladder(torus64, DD3, tau=4.0, alpha=0.03125, eps_list=[0.1],
                       n_steps=4)
    calls = {"n": 0}
    orig = singular.solve_at_alpha

    def failing(problem, alpha, f, u, **kw):
        calls["n"] += 1
        raise ConvergenceFailure("synthetic failure")

    monkeypatch.setattr(singular, "solve_at_alpha", failing)
    orig_cont = singular.continue_alpha

    def failing_cont(problem, st0, alpha, **kw):
        if calls["n"] > 0:
            raise ConvergenceFailure("synthetic failure")
        return orig_cont(problem, st0, alpha, **kw)

    monkeypatch.setattr(singular, "continue_alpha", failing_cont)
    r = run_ladder(torus64, DD3, tau=4.0, alpha=0.03125,
                   eps_list=[0.1, 0.05], n_steps=4)
    assert len(r.newton_counts) == 1
    assert r.failures and r.failures[0]["eps"] == 0.05
    # the truncated ladder builds its last rung's state again, bit for bit
    for name in ("alpha", "c_tilde", "f_tilde", "u", "Phi", "res1", "res2"):
        assert np.array_equal(getattr(r.states[-1], name),
                              getattr(whole.states[-1], name))
    assert r.problem.eps == 0.1


def test_alpha_zero_ladder_reproduces_vortex(torus64):
    # decoupled cross-check: rung states at alpha = 0 solve the vortex
    # equation over the twisted-KE metric density
    r = run_ladder(torus64, DD3, tau=4.0, alpha=0.0, eps_list=[0.1, 0.05],
                   n_steps=2, fit=False)
    for st, eps in zip(r.states, [0.1, 0.05]):
        prob = make_problem(torus64, DD3, tau=4.0, eps=eps)
        rho = 1.0 - torus64.laplacian(st.u)
        f = solve_vortex_on_metric(torus64, prob.weight_t, 4.0, rho,
                                   prob.params.N_tilde)
        assert np.max(np.abs(f - st.f_tilde)) < 1e-8


def test_fit_records(ladder64, torus64):
    fits = ladder64.fits
    kinds = {f.kind for f in fits}
    assert kinds == {"cone", "parabolic"}
    for f in fits:
        if f.resolved:
            assert np.isfinite(f.slope)
            assert f.npoints >= 40


def test_unresolved_on_coarse_smoothing(torus64):
    # rung 0 of ladder64, which keeps only its last two rungs
    rung0 = run_ladder(torus64, DD3, tau=4.0, alpha=0.0625, eps_list=[0.1],
                       n_steps=8, fit=False)
    prob = make_problem(torus64, DD3, tau=4.0, eps=0.1)
    rec = conical_fit(torus64, rung0.states[-1], prob.fields, 0, 0.1)
    assert not rec.resolved  # smoothing radius beyond the neighbour guard


def test_regular_point_control(ladder64, torus64):
    # window 4h..16h is coarse at n=64; the 0.05 figure of the default
    # resolution is asserted in the acceptance suite at n=256
    s = regular_point_slope(torus64, ladder64.states[-1], (0.93111, 0.55077))
    assert abs(s) < 0.12


def test_coincident_parabolic_zero_target(torus64):
    # parabolic point on top of a Higgs zero: the fitted slope target
    # includes the zero's multiplicity
    dd = DivisorData(zeros=((P_PARA, 1),), cone=((P_CONE, 0.5),),
                     parabolic=((P_PARA, 1.0),))
    r = run_ladder(torus64, dd, tau=6.0, alpha=0.02, eps_list=[0.05, 0.025],
                   n_steps=4)
    rec = [f for f in r.fits if f.kind == "parabolic"][0]
    assert rec.target == pytest.approx(2.0 * 1.0 + 2.0 * 1)
    if rec.resolved:
        assert rec.deviation < 0.5


def test_no_cone_points_no_cone_fits(torus64):
    dd = DivisorData(zeros=((P_ZERO, 1),), cone=((P_CONE, 0.5),))
    r = run_ladder(torus64, dd, tau=4.0, alpha=0.03, eps_list=[0.1, 0.05],
                   n_steps=4)
    assert all(f.kind != "parabolic" for f in r.fits)
    assert len([f for f in r.fits if f.kind == "cone"]) == 1


def test_mask_nonempty_guard(torus64):
    mask = mask_away_from_points(torus64, [P_ZERO, P_CONE, P_PARA], 0.05)
    assert np.any(mask)
    full = mask_away_from_points(torus64, [P_ZERO], 2.0)
    assert not np.any(full)
