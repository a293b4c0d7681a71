import dataclasses
import importlib.util
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import vortexlab.coupled as coupled
import vortexlab.solvers as solvers
from vortexlab.coupled import (
    continue_alpha,
    make_problem,
    newton_step,
    residual,
    solve_at_alpha,
)
from vortexlab.errors import ConfigError, ConvergenceFailure
from vortexlab.fields import DivisorData
from vortexlab.solvers import (_gmres_left, block_symbol, low_mode_block,
                               solve_block_newton_step, solve_helmholtz)
from vortexlab.surface import VOL, build_surface

from conftest import P_CONE, P_ZERO
from oracles import fd_jacobian_gap, grid_jacobian


def test_decoupled_endpoint_residual(gv_problem64, gv_state0):
    assert np.max(np.abs(gv_state0.res1)) < 1e-8
    assert np.max(np.abs(gv_state0.res2)) < 1e-8


def test_residual_mean_identity(gv_problem64, torus64):
    # int S2 = int W e^{...} - 2 pi for any state
    rng = np.random.default_rng(1)
    f, _ = torus64.random_bandlimited(rng, kmax=4, amp=0.2)
    u, _ = torus64.random_bandlimited(rng, kmax=4, amp=0.05)
    alpha = 0.03
    _, S2 = residual(gv_problem64, alpha, f, u)
    c = gv_problem64.params.c_tilde(alpha)
    Phi = gv_problem64.weight_t * np.exp(2 * f)
    mass = torus64.integrate(gv_problem64.W * np.exp(
        4 * alpha * 4.0 * f - 2 * alpha * Phi - 2 * c * u))
    assert abs(torus64.integrate(S2) - (mass - VOL)) < 1e-9 * max(1.0, mass)


def test_constant_shift_monotonicity(gv_problem64, gv_final, torus64):
    # u -> u + c with c~<0, c>0 multiplies the exponential by e^{-2 c~ c} > 1
    st = gv_final
    _, S2a = residual(gv_problem64, st.alpha, st.f_tilde, st.u)
    _, S2b = residual(gv_problem64, st.alpha, st.f_tilde, st.u + 0.3)
    assert torus64.integrate(S2b) > torus64.integrate(S2a)


def test_jacobian_fd_ten_states(gv_problem64, torus64):
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        f, _ = torus64.random_bandlimited(rng, kmax=4, amp=0.3)
        u, _ = torus64.random_bandlimited(rng, kmax=4, amp=0.05)
        gap = fd_jacobian_gap(gv_problem64, 0.04, f, u, seed=seed)
        worst = max(worst, gap)
    assert worst < 1e-6


def test_jacobian_zero_direction(gv_problem64, gv_final):
    z = np.zeros_like(gv_final.f_tilde)
    coeffs = residual(gv_problem64, gv_final.alpha, gv_final.f_tilde,
                      gv_final.u).coefficients
    d1, d2 = grid_jacobian(gv_problem64.surface, coeffs, z, z)
    assert np.max(np.abs(d1)) == 0.0 and np.max(np.abs(d2)) == 0.0


def test_jacobian_decouples_at_alpha_zero(gv_problem64, gv_state0, torus64):
    rng = np.random.default_rng(5)
    df, _ = torus64.random_bandlimited(rng, kmax=4)
    z = np.zeros_like(df)
    coeffs = residual(gv_problem64, 0.0, gv_state0.f_tilde,
                      gv_state0.u).coefficients
    _, dS2 = grid_jacobian(torus64, coeffs, df, z)
    assert np.max(np.abs(dS2)) < 1e-12  # no f-coupling at alpha = 0


def test_newton_fixed_point(gv_problem64, gv_final):
    f, u, _, step, _ = newton_step(gv_problem64, gv_final.alpha,
                                   gv_final.f_tilde, gv_final.u)
    assert np.max(np.abs(f - gv_final.f_tilde)) < 1e-10
    assert np.max(np.abs(u - gv_final.u)) < 1e-10


def test_quadratic_convergence(gv_problem64, gv_final, torus64):
    rng = np.random.default_rng(3)
    bump, _ = torus64.random_bandlimited(rng, kmax=3, amp=2e-3)
    f, u = gv_final.f_tilde + bump, gv_final.u
    norms = []
    for _ in range(3):
        S1, S2 = residual(gv_problem64, gv_final.alpha, f, u)
        norms.append(max(np.max(np.abs(S1)), np.max(np.abs(S2))))
        f, u, _, _, _ = newton_step(gv_problem64, gv_final.alpha, f, u)
    # r_{k+1} <= C r_k^2 with a uniform C (measured well below 1 here)
    assert norms[1] <= 1.0 * norms[0] ** 2
    assert norms[2] <= 1.0 * norms[1] ** 2 + 1e-12


def test_forcing_term_saves_krylov_iterations(gv_problem64, gv_final, torus64,
                                             monkeypatch):
    # the first step of test_quadratic_convergence: a Krylov tolerance that
    # follows the residual takes fewer GMRES iterations than eta = 1e-12
    # and still lands inside the quadratic bound
    rng = np.random.default_rng(3)
    bump, _ = torus64.random_bandlimited(rng, kmax=3, amp=2e-3)
    f, u, alpha = gv_final.f_tilde + bump, gv_final.u, gv_final.alpha
    S1, S2 = residual(gv_problem64, alpha, f, u)
    r0 = max(np.max(np.abs(S1)), np.max(np.abs(S2)))
    _, _, (T1, T2), _, nk = newton_step(gv_problem64, alpha, f, u)
    monkeypatch.setattr(solvers, "_FORCING", 0.0)
    nk_tight = newton_step(gv_problem64, alpha, f, u)[4]
    assert nk < nk_tight
    assert max(np.max(np.abs(T1)), np.max(np.abs(T2))) <= r0**2


def test_gmres_left_restarted_matches_dense():
    # a well-conditioned nonsymmetric system that needs several restarts
    rng = np.random.default_rng(12)
    n, restart = 300, 8
    A = 3.0 * np.eye(n) + rng.normal(size=(n, n)) / np.sqrt(n)
    b = rng.normal(size=n)
    calls = []

    def matvec(v):
        calls.append(v.copy())
        return A @ v

    x, niter, converged = _gmres_left(matvec, lambda v: v, b, rtol=1e-14,
                                      atol=0.0, restart=restart,
                                      max_krylov=500)
    assert converged and niter > 2 * restart
    assert np.max(np.abs(x - np.linalg.solve(A, b))) < 1e-10
    # the matvecs of the first cycle are its Krylov basis (x0 = 0 needs no
    # matvec for its residual)
    basis = np.array(calls[:restart])
    assert np.max(np.abs(basis @ basis.T - np.eye(restart))) < 1e-12


def test_positivity_guard_damps(gv_problem64, gv_final, monkeypatch):
    # force a direction that kills metric positivity at full step
    surf = gv_problem64.surface
    bad_du = 0.2 * np.cos(2 * np.pi * surf.X)  # lap ~ 0.4 pi cos > 1 somewhere

    def fake_solve(surface, apply_jac, r1, r2, **kw):
        # the block solve returns the negated correction: the step tried
        # is u + bad_du
        return np.zeros_like(r1), -bad_du, 1

    monkeypatch.setattr(coupled, "solve_block_newton_step", fake_solve)
    with pytest.raises(ConvergenceFailure):
        # merit cannot decrease along a wrong direction: damping engages,
        # halves 30 times, then reports
        newton_step(gv_problem64, gv_final.alpha, gv_final.f_tilde, gv_final.u)
    rho_full = 1.0 - surf.laplacian(gv_final.u + bad_du)
    assert np.min(rho_full) <= 0.0  # the guard had a real violation to catch


def test_continue_alpha_paths(gv_problem64, gv_state0, gv_path):
    # alpha_target = 0 returns the input unchanged
    states = list(continue_alpha(gv_problem64, gv_state0, 0.0))
    assert states == [gv_state0]
    # c~ strictly decreasing along the path
    cts = [st.c_tilde for st in gv_path]
    assert all(b < a for a, b in zip(cts, cts[1:]))
    # residual-accepted everywhere and Phi <= tau
    for st in gv_path:
        assert st.res_norm < 1e-9
        assert np.max(st.Phi) <= gv_problem64.tau + 1e-8
    with pytest.raises(ConfigError):
        next(continue_alpha(gv_problem64, gv_state0,
                            gv_problem64.params.alpha_star * 1.5))
    # a start that is not residual-accepted is refused before it is yielded
    unaccepted = dataclasses.replace(gv_state0, res1=gv_state0.res1 + 1.0)
    with pytest.raises(ConfigError):
        next(continue_alpha(gv_problem64, unaccepted,
                            gv_problem64.params.alpha_star))


def test_predicted_walk_saves_newton_steps(gv_problem64, gv_state0):
    # each alpha step starts from the cubic through the last four states: 16
    # steps to alpha* take fewer Newton steps than two a step, which is what
    # they take from the last state
    path = continue_alpha(gv_problem64, gv_state0,
                          gv_problem64.params.alpha_star, n_steps=16)
    assert sum(len(st.newton_log) for st in path) < 32


def test_path_stalled(gv_problem64, gv_state0, monkeypatch):
    from vortexlab.errors import PathStalled

    def always_fail(problem, alpha, f, u, **kw):
        raise ConvergenceFailure("synthetic")

    monkeypatch.setattr(coupled, "solve_at_alpha", always_fail)
    with pytest.raises(PathStalled) as exc:
        list(continue_alpha(gv_problem64, gv_state0,
                            gv_problem64.params.alpha_star, n_steps=4))
    assert exc.value.last_good_alpha == 0.0


@pytest.fixture(scope="module")
def gv_problem32(torus32, gv_divisor):
    # the problem of the CLI tests' GV_CFG: torus 32, tau 4, eps 0.1
    return make_problem(torus32, gv_divisor, tau=4.0, eps=0.1)


def _without_time(records):
    return [{k: v for k, v in r.items() if k != "time"} for r in records]


def _same_state(a, b):
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in ("alpha", "c_tilde", "f_tilde", "u", "Phi",
                            "res1", "res2"))


def test_solve_path_is_the_hand_written_walk(gv_problem32):
    # the walk that holds each state as (alpha, f~, u) and builds the last
    # one whole again, written out as solve-gv once did
    p, astar = gv_problem32, gv_problem32.params.alpha_star
    path, steps = [], []
    for st in continue_alpha(p, coupled.decoupled_state(p), astar, n_steps=4):
        path.append({"alpha": st.alpha, "c_tilde": st.c_tilde,
                     "residual": st.res_norm,
                     "newton_steps": len(st.newton_log)})
        steps += st.newton_log
        at, st = (st.alpha, st.f_tilde, st.u), None
    state, got_path, got_steps = coupled.solve_path(p, astar, n_steps=4)
    assert _same_state(state, coupled.accepted_state(p, *at))
    assert got_path == path and len(path) == 5
    assert _without_time(got_steps) == _without_time(steps)


def test_solve_path_from_a_converged_start(gv_problem32, monkeypatch):
    # a start that solves the target: the warm solve's state, and no walk
    p, astar = gv_problem32, gv_problem32.params.alpha_star
    final = coupled.solve_path(p, astar, n_steps=4)[0]
    start = (final.f_tilde, final.u)

    def no_walk(*args, **kwargs):
        raise AssertionError("solve_path walked from a converged start")

    monkeypatch.setattr(coupled, "decoupled_state", no_walk)
    state, path, steps = coupled.solve_path(p, astar, n_steps=4, start=start)
    assert _same_state(state, solve_at_alpha(p, astar, *start))
    assert path == [{"alpha": astar, "c_tilde": state.c_tilde,
                     "residual": state.res_norm,
                     "newton_steps": len(state.newton_log)}]
    assert steps == state.newton_log


def test_solve_path_walks_when_the_warm_solve_fails(gv_problem32,
                                                    monkeypatch):
    p, astar = gv_problem32, gv_problem32.params.alpha_star
    cold = coupled.solve_path(p, astar, n_steps=4)
    orig, alphas = coupled.solve_at_alpha, []

    def fail_first(problem, alpha, *args, **kwargs):
        alphas.append(alpha)
        if len(alphas) == 1:
            raise ConvergenceFailure("synthetic failure")
        return orig(problem, alpha, *args, **kwargs)

    monkeypatch.setattr(coupled, "solve_at_alpha", fail_first)
    zero = np.zeros(p.surface.shape)
    state, path, steps = coupled.solve_path(p, astar, n_steps=4,
                                            start=(zero, zero))
    # the warm solve, then one solve per walked state past the start
    assert alphas[0] == astar and len(alphas) == len(cold[1])
    assert _same_state(state, cold[0]) and path == cold[1]
    assert _without_time(steps) == _without_time(cold[2])


def test_decoupled_needs_negative_chi(torus64):
    dd = DivisorData(zeros=((P_ZERO, 1),))  # no cone point: chi~ = 0
    prob = make_problem(torus64, dd, tau=5.0, eps=0.1)
    with pytest.raises(ConfigError):
        coupled.decoupled_state(prob)


def _stiff_block_system(surface):
    # a stiff block system in the coupled Jacobian's form, whose coupling
    # oscillates above the low modes: GMRES needs far more than a starved
    # budget of 6 iterations; returns its four coefficient fields and the
    # right-hand side
    rng = np.random.default_rng(7)
    V1 = 1.0 + 0.9 * np.cos(2 * np.pi * 5 * surface.X) ** 2
    V2 = 2.0 + np.sin(2 * np.pi * 4 * surface.Y) ** 2
    c2 = 0.4 * np.cos(2 * np.pi * 7 * surface.X)
    c3 = -35.0 * np.cos(2 * np.pi * 6 * surface.Y)
    r1, _ = surface.random_bandlimited(rng, kmax=5)
    r2, _ = surface.random_bandlimited(rng, kmax=5)
    return (V1, c2, c3, V2), r1, r2


@pytest.mark.parametrize("grid", ["torus32", "torus64"])
def test_gmres_failure_raises(grid, request, monkeypatch):
    # GMRES is the one linear solver of the coupled step: under a starved
    # Krylov budget it fails on every grid, the smallest included, on a
    # system that it solves under the default budget
    surface = request.getfixturevalue(grid)
    coeffs, r1, r2 = _stiff_block_system(surface)
    _, _, nk = solve_block_newton_step(surface, coeffs, r1.copy(), r2.copy())
    assert 6 < nk <= solvers._MAX_KRYLOV
    monkeypatch.setattr(solvers, "_RESTART", 3)
    monkeypatch.setattr(solvers, "_MAX_KRYLOV", 6)
    with pytest.raises(ConvergenceFailure, match="GMRES failed"):
        solve_block_newton_step(surface, coeffs, r1, r2)


def test_cg_breakdown_fails_at_once(monkeypatch):
    # a preconditioner that annihilates the residual leaves rho = <r, M^-1 r>
    # = 0 and no search direction: CG must fail before it divides by rho,
    # without a warning and without applying the operator once
    s = build_surface("torus", 16)
    monkeypatch.setattr(s, "precondition",
                        lambda c, rhs, out: np.zeros_like(rhs))
    applied = []
    laplacian = s.laplacian
    monkeypatch.setattr(s, "laplacian",
                        lambda v, out: applied.append(1) or laplacian(v, out=out))
    rhs, _ = s.random_bandlimited(np.random.default_rng(0), kmax=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceFailure):
            solve_helmholtz(s, np.ones(s.shape), rhs)
    assert not applied


def _variable_block_system(surface):
    # a variable-coefficient block system shaped like the coupled Jacobian,
    # with band-limited coefficients and right-hand side; returns its four
    # coefficient fields and the right-hand side
    rng = np.random.default_rng(21)
    k1 = 3.0 + surface.random_bandlimited(rng, kmax=3, amp=0.3)[0]
    k2 = 0.4 + surface.random_bandlimited(rng, kmax=3, amp=0.05)[0]
    k3 = -0.5 + surface.random_bandlimited(rng, kmax=3, amp=0.1)[0]
    k4 = 2.0 + surface.random_bandlimited(rng, kmax=3, amp=0.2)[0]
    r1, _ = surface.random_bandlimited(rng, kmax=5)
    r2, _ = surface.random_bandlimited(rng, kmax=5)
    return (k1, k2, k3, k4), r1, r2


def test_block_step_works_in_its_pair(torus64, monkeypatch):
    # the block solve consumes its right-hand side: the matvec's df and du
    # are the pair's buffers, so when GMRES starts the solve holds, of its
    # own, its scratch (two grid and six coefficient fields, the right-hand
    # side's among them), the low-mode block and its inverse and the
    # symbol, and no two grid fields more
    s = torus64
    coeffs, r1, r2 = _variable_block_system(s)
    want = solve_block_newton_step(s, coeffs, r1.copy(), r2.copy())
    held = []
    gmres = solvers._gmres_left

    def traced(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return gmres(*args, **kwargs)

    monkeypatch.setattr(solvers, "_gmres_left", traced)
    p1, p2 = r1.copy(), r2.copy()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = solve_block_newton_step(s, coeffs, p1, p2)
    finally:
        tracemalloc.stop()
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert not np.array_equal(p1, r1) and not np.array_equal(p2, r2)
    # a grid field and a field's coefficients, in bytes
    field, coeff = r1.nbytes, 2 * s.coeff_eig.nbytes
    scratch = 2 * field + 6 * coeff
    # the low-mode block, its inverse and the symbol's four per-mode arrays
    preconditioner = 2 * low_mode_block(s, coeffs)[0].nbytes + 2 * coeff
    assert held[0] - base <= scratch + preconditioner + field


def _dense_block_solve(size, matvec, b):
    n = 2 * size
    cols = np.empty((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        cols[:, j] = matvec(e)
        e[j] = 0.0
    return np.linalg.solve(cols, b)


def test_block_step_matches_dense_grid_solve():
    # the coefficient-space GMRES solves the grid system: against a dense
    # solve of the grid Jacobian, column by column
    s = build_surface("torus", 16)
    coeffs, r1, r2 = _variable_block_system(s)
    size = r1.size

    def grid_jac(x):
        return np.concatenate([y.ravel() for y in grid_jacobian(
            s, coeffs, x[:size].reshape(s.shape), x[size:].reshape(s.shape))])

    want = _dense_block_solve(size, grid_jac,
                              np.concatenate([r1.ravel(), r2.ravel()]))
    df, du, _ = solve_block_newton_step(s, coeffs, r1, r2, rtol=1e-12)
    assert np.max(np.abs(df.ravel() - want[:size])) < 1e-10
    assert np.max(np.abs(du.ravel() - want[size:])) < 1e-10


def test_block_step_matches_grid_gmres_on_sphere(sphere15):
    # on the sphere the unknowns are the harmonics of degree <= L: the
    # reference is grid-space GMRES on the same system, each field and each
    # pointwise product projected onto those harmonics, preconditioned by
    # the model system's symbol applied to the fields' coefficients
    s = sphere15
    coeffs, r1, r2 = _variable_block_system(s)
    k1, k2, k3, k4 = coeffs
    size = r1.size

    def band(f):
        return s.synthesize(s.analyze(f))

    def matvec(x):
        df, du = band(x[:size].reshape(s.shape)), band(x[size:].reshape(s.shape))
        lap_du = s.laplacian(du)
        return np.concatenate([
            (s.laplacian(df) + band(k1 * df + k2 * lap_du)).ravel(),
            (lap_du + band(k3 * df + k4 * du)).ravel()])

    means = tuple(float(np.mean(k)) for k in coeffs)
    i11, i12, i21, i22 = block_symbol(means, s.coeff_eig)

    def prevec(y):
        a, b = (s.to_coeffs(z.reshape(s.shape)).view(np.complex128)
                for z in (y[:size], y[size:]))
        return np.concatenate([
            s.from_coeffs((i11 * a + i12 * b).view(np.float64)).ravel(),
            s.from_coeffs((i21 * a + i22 * b).view(np.float64)).ravel()])

    want, _, converged = _gmres_left(
        matvec, prevec, np.concatenate([band(r1).ravel(), band(r2).ravel()]),
        rtol=1e-13, atol=0.0, restart=50, max_krylov=500)
    assert converged
    df, du, _ = solve_block_newton_step(s, coeffs, r1, r2, rtol=1e-12)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(df.ravel() - want[:size])) < 1e-10 * scale
    assert np.max(np.abs(du.ravel() - want[size:])) < 1e-10 * scale


def test_low_mode_block_is_the_galerkin_projection():
    # the coarse level of the torus preconditioner is J's Galerkin block on
    # the low modes: <e_k, J e_l> over the orthonormal Fourier modes
    # e_k = e^{2 pi i k.x} / n, each column through the grid Jacobian
    s = build_surface("torus", 16)
    coeffs, r1, _ = _variable_block_system(s)
    block, means, (index, mirror, scale) = low_mode_block(s, coeffs)
    k = np.arange(-solvers._LOW_MODES, solvers._LOW_MODES + 1)
    kx, ky = np.repeat(k, k.size), np.tile(k, k.size)
    m, z = kx.size, np.zeros(s.shape)
    want = np.empty((2 * m, 2 * m), complex)
    for j in range(m):
        phase = 2 * np.pi * (kx[j] * s.X + ky[j] * s.Y)
        for field in (0, 1):
            (c1, c2), (s1, s2) = (
                grid_jacobian(s, coeffs, *((p, z) if field == 0 else (z, p)))
                for p in (np.cos(phase), np.sin(phase)))
            want[:, field * m + j] = np.concatenate([
                np.fft.fft2(c + 1j * sn)[kx % s.n, ky % s.n] / s.n**2
                for c, sn in ((c1, s1), (c2, s2))])
    assert np.max(np.abs(block - want)) < 1e-12 * np.max(np.abs(want))
    # the d = 0 entries are the fields' means, those of the symbol
    assert means == pytest.approx([np.mean(c) for c in coeffs], rel=1e-14)
    # the map: a to_coeffs vector holds scale times the orthonormal
    # coefficient of k at index, or of -k, conjugated, where mirror
    held = s.to_coeffs(r1).view(np.complex128)[index]
    held = np.where(mirror, np.conj(held), held) / scale
    assert np.allclose(held, np.fft.fft2(r1)[kx % s.n, ky % s.n] / s.n,
                       rtol=0, atol=1e-13)


def test_singular_low_mode_block_fails_with_a_name():
    # zero coefficients leave J = diag(lap, lap), singular on the constants,
    # and so is its Galerkin block: a named failure before any iteration
    s = build_surface("torus", 16)
    zero = np.zeros(s.shape)
    r, _ = s.random_bandlimited(np.random.default_rng(4), kmax=3)
    with pytest.raises(ConvergenceFailure, match="singular"):
        solve_block_newton_step(s, (zero,) * 4, r, r.copy())


def test_low_mode_block_saves_gmres_iterations(gv_problem64, gv_state0,
                                               monkeypatch):
    # the 16-step walk to alpha* takes the Newton steps it takes with the
    # symbol alone (no low modes but the constant) in at most 60 % of its
    # GMRES iterations
    def work():
        log = [e for st in continue_alpha(
            gv_problem64, gv_state0, gv_problem64.params.alpha_star,
            n_steps=16) for e in st.newton_log]
        return len(log), sum(e["krylov"] for e in log)

    steps, krylov = work()
    monkeypatch.setattr(solvers, "_LOW_MODES", 0)
    steps_symbol, krylov_symbol = work()
    assert steps == steps_symbol
    assert krylov <= 0.6 * krylov_symbol


def _bench_module():
    # scripts/bench.py, whose FFT counter is the one rule for what counts
    # as a 2-D transform
    path = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"
    spec = importlib.util.spec_from_file_location("bench", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_newton_step_transforms_per_krylov_iteration(torus32, gv_divisor,
                                                    monkeypatch):
    # GMRES keeps its vectors as coefficients: per iteration three inverse
    # 2-D FFTs (df, du, lap du) and two forward ones (the pointwise part),
    # on top of a fixed number per step
    problem = make_problem(torus32, gv_divisor, tau=4.0, eps=0.1)
    state = coupled.decoupled_state(problem)
    alpha = problem.params.alpha_star / 16
    count_transforms = _bench_module().count_transforms
    runs = []
    for forcing in (solvers._FORCING, 0.0):
        monkeypatch.setattr(solvers, "_FORCING", forcing)
        (_, _, _, step, nk), count = count_transforms(
            newton_step, (problem, alpha, state.f_tilde, state.u))
        assert step == 1.0
        runs.append((count, nk))
    (loose, nk_loose), (tight, nk_tight) = runs
    assert nk_tight > nk_loose
    assert tight - loose <= 5 * (nk_tight - nk_loose)
    # fixed: the residual at the iterate (lap u, lap f), the right-hand
    # sides, the solution fields, the residual at the full step
    assert loose <= 5 * nk_loose + 12


def test_coupled_failures_carry_history(gv_problem64, gv_state0, gv_final,
                                        monkeypatch):
    # one Newton iteration cannot reach the tolerance from the alpha = 0
    # state: the failure carries the residual of the iterate it tried
    monkeypatch.setattr(coupled, "MAX_NEWTON", 1)
    with pytest.raises(ConvergenceFailure) as exc:
        solve_at_alpha(gv_problem64, gv_final.alpha, gv_state0.f_tilde,
                       gv_state0.u)
    S1, S2 = residual(gv_problem64, gv_final.alpha, gv_state0.f_tilde,
                      gv_state0.u)
    assert exc.value.history == [max(np.max(np.abs(S1)), np.max(np.abs(S2)))]
    # a correction of the wrong sign: the single step fails with a history
    monkeypatch.setattr(coupled, "solve_block_newton_step",
                        lambda s, pw, r1, r2, **kw: (-r1, -r2, 1))
    with pytest.raises(ConvergenceFailure, match="stagnated") as exc:
        newton_step(gv_problem64, gv_final.alpha, gv_final.f_tilde + 1e-3,
                    gv_final.u)
    assert len(exc.value.history) == 1

    # so does a failed Krylov solve
    def krylov_fails(*args, **kwargs):
        raise ConvergenceFailure("GMRES failed after 500 iterations")

    monkeypatch.setattr(coupled, "solve_block_newton_step", krylov_fails)
    with pytest.raises(ConvergenceFailure, match="GMRES") as exc:
        newton_step(gv_problem64, gv_final.alpha, gv_final.f_tilde,
                    gv_final.u)
    assert exc.value.history == [gv_final.res_norm]


def test_coupled_start_outside_the_domain(gv_problem64, gv_final):
    surf = gv_problem64.surface
    u = gv_final.u + 0.2 * np.cos(2 * np.pi * surf.X)
    assert np.min(1.0 - surf.laplacian(u)) <= 0.0
    with pytest.raises(ConvergenceFailure, match="outside the domain"):
        solve_at_alpha(gv_problem64, gv_final.alpha, gv_final.f_tilde, u)
