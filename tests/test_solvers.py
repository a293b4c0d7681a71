"""The shared damped Newton step, Newton loop and continuation walk."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vortexlab import solvers, vortex
from vortexlab.errors import ConvergenceFailure, PathStalled
from vortexlab.solvers import damped_step, forcing, merit, walk
from vortexlab.vortex import solve_exp_scalar, solve_twisted_ke


def test_damped_step_halves_into_the_domain(torus32):
    # r(x) = x - 1 with J = I, on the domain x < 0.3: the full step (x = 1)
    # and the half step (x = 0.5) are refused before any merit is taken,
    # the quarter step is inside and descends
    asked = []

    def residual(x):
        asked.append(float(np.max(x[0])))
        return None if np.max(x[0]) >= 0.3 else (x[0] - 1.0,)

    x = (np.zeros(torus32.shape),)
    r = residual(x)
    xt, rt, mt, s = damped_step(torus32, residual, lambda x, r: r, x, r,
                                merit(torus32, r), 0.0, [1.0])
    assert s == 0.25 and asked[1:] == [1.0, 0.5, 0.25]
    assert np.all(xt[0] == 0.25) and np.all(rt[0] == -0.75)
    assert mt == merit(torus32, rt) < merit(torus32, r)


def test_wrong_way_correction_fails_with_history(torus32, monkeypatch):
    # a CG correction of the wrong sign makes every trial ascend: the step
    # gives up after its halvings and the failure carries the residuals
    solve = vortex.solve_helmholtz
    monkeypatch.setattr(vortex, "solve_helmholtz",
                        lambda s, V, rhs, rtol: -solve(s, V, rhs, rtol))
    coeff = np.ones(torus32.shape)
    Q = -0.5 + 0.1 * np.cos(2 * np.pi * torus32.X)
    with pytest.raises(ConvergenceFailure, match="stagnated") as exc:
        solve_exp_scalar(torus32, coeff, Q, tol=1e-10)
    # the start f = 0 is the only iterate: its residual is 1/2 + Q
    assert exc.value.history == [pytest.approx(0.1)]


def test_start_outside_the_domain_is_named(torus32):
    u = 0.2 * np.cos(2 * np.pi * torus32.X)  # 1 - lap u < 0 somewhere
    assert np.min(1.0 - torus32.laplacian(u)) <= 0.0
    with pytest.raises(ConvergenceFailure, match="outside the domain") as exc:
        solve_twisted_ke(torus32, -1.0, np.zeros(torus32.shape), u_init=u,
                         tol=1e-9)
    assert exc.value.history


def test_walk_yields_each_accepted_parameter():
    calls = []

    def solve(p, x):
        calls.append(p)
        if p == 0.5 and calls.count(0.5) == 1:
            raise ConvergenceFailure("refused once", [1.0])
        return x + 1

    got = list(walk(solve, 0.0, 0, 1.0, 0.5, 0.1))
    assert got == [(0.25, 1), (0.5, 2), (0.75, 3), (1.0, 4)]
    assert calls == [0.5, 0.25, 0.5, 0.75, 1.0]


def test_walk_stalls_with_the_last_good_parameter():
    def solve(p, x):
        raise ConvergenceFailure("never", [3.0, 2.0])

    with pytest.raises(PathStalled) as exc:
        list(walk(solve, 0.0, None, 1.0, 0.25, 1.0 / 64.0))
    assert exc.value.last_good_alpha == 0.0
    assert exc.value.history == [3.0, 2.0]


def _cubic(p):
    """Fields that are cubics in the parameter."""
    x = np.linspace(0.0, 1.0, 5)
    return (1.0 - p * x + 2.0 * p**2 - 3.0 * p**3 * x,
            np.cos(x) * p**3 + 0.5 * p)


def test_walk_starts_from_the_cubic_through_the_last_four_states():
    starts = []

    def solve(p, start):
        starts.append((p, start))
        return _cubic(p)

    got = list(walk(solve, 0.0, _cubic(0.0), 1.0, 0.125, 0.01, lambda x: x))
    assert [p for p, _ in got] == [0.125 * k for k in range(1, 9)]
    # the first solve starts from the start state itself
    assert all(np.array_equal(a, b) for a, b in zip(starts[0][1], _cubic(0.0)))
    # once four states are known the start is the next state
    assert len(starts) == 8
    for p, start in starts[4:]:
        for a, b in zip(start, _cubic(p)):
            assert np.max(np.abs(a - b)) < 1e-12


def test_predicting_walk_halves_as_before():
    # a refused step halves the step as a walk without prediction does: the
    # same parameters are tried and yielded
    def run(fields):
        calls = []

        def solve(p, start):
            calls.append(p)
            if p == 0.5 and calls.count(0.5) == 1:
                raise ConvergenceFailure("refused once", [1.0])
            return _cubic(p)

        got = [p for p, _ in walk(solve, 0.0, _cubic(0.0), 1.0, 0.25, 0.01,
                                  fields)]
        return got, calls

    predicted, plain = run(lambda x: x), run(None)
    assert predicted == plain
    assert predicted[0] == [0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0]


@settings(max_examples=300, deadline=None)
@given(rn=st.floats(min_value=1e-300, max_value=1e300),
       tol=st.floats(min_value=1e-16, max_value=1.0))
@example(rn=5e-5, tol=1e-9)  # the floor just below the proportional term
def test_forcing_term_bounds(rn, tol):
    # the forcing term stays in [_ETA_MIN, _ETA_MAX], and it is the
    # proportional term min(_ETA_MAX, max(_ETA_MIN, _FORCING rn)) wherever
    # the floor _SAFEGUARD tol / rn lies below that, and the floor where it
    # lies between the proportional term and _ETA_MAX
    eta = forcing(rn, tol)
    assert solvers._ETA_MIN <= eta <= solvers._ETA_MAX
    proportional = min(solvers._ETA_MAX,
                       max(solvers._ETA_MIN, solvers._FORCING * rn))
    floor = solvers._SAFEGUARD * tol / rn
    if floor < proportional:
        assert eta == proportional
    elif floor <= solvers._ETA_MAX:
        assert eta == floor


def test_forcing_term_floor_near_the_root():
    # at a residual of twice tol the Krylov solve reduces it by the factor
    # 0.001 / 2, not by the proportional term's 1e-12 floor
    assert forcing(2e-9, 1e-9) == pytest.approx(5e-4)
