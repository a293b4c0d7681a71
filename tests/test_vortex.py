import dataclasses

import numpy as np
import pytest

from vortexlab import vortex
from vortexlab.errors import ConfigError, ConvergenceFailure, NoSolutionExpected
from vortexlab.fields import build_divisor_fields, DivisorData
from vortexlab.surface import VOL, build_surface
from vortexlab.vortex import (
    make_vortex_problem,
    solve_twisted_ke,
    solve_vortex,
    vortex_residual,
)

from conftest import P_ZERO


@pytest.fixture(scope="module")
def vortex_setup(torus64):
    dd = DivisorData(zeros=((P_ZERO, 1),))
    flds = build_divisor_fields(torus64, dd)
    weight = np.exp(flds.log_phi_sq)
    F = 0.3 * np.cos(2 * np.pi * torus64.X) + 0.2 * np.sin(
        2 * np.pi * (torus64.X + torus64.Y))
    prob = make_vortex_problem(torus64, weight, tau=5.0, N=1, b=-0.5, F=F)
    f = solve_vortex(prob)
    return prob, f


def test_base_is_exact_t0_solution(vortex_setup, torus64):
    prob, _ = vortex_setup
    r0 = vortex_residual(dataclasses.replace(prob, t=0.0),
                         np.zeros(torus64.shape))
    assert np.max(np.abs(r0)) < 1e-30


def test_solution_residual(vortex_setup):
    prob, f = vortex_setup
    assert np.max(np.abs(vortex_residual(prob, f))) < 1e-9


def test_residual_mean_structure(vortex_setup, torus64):
    # lap terms integrate away for any f
    prob, _ = vortex_setup
    rng = np.random.default_rng(2)
    f, _ = torus64.random_bandlimited(rng, kmax=4, amp=0.3)
    lhs = torus64.integrate(vortex_residual(prob, f))
    rhs = torus64.integrate(0.5 * prob.phi0_sq * (np.exp(2 * f) - 1.0))
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_maximum_principle_bound(vortex_setup, torus64):
    prob, f = vortex_setup
    Phi = prob.phi0_sq * np.exp(2.0 * f)
    bound = prob.tau + 2.0 * prob.b + np.max(np.abs(torus64.laplacian(prob.F)))
    assert np.max(Phi) <= bound + 1e-8


def test_integral_identity_and_mean_bound(vortex_setup, torus64):
    prob, f = vortex_setup
    m0 = torus64.integrate(prob.phi0_sq)
    m1 = torus64.integrate(prob.phi0_sq * np.exp(2.0 * f))
    assert abs(m1 - m0) < 1e-8 * m0
    assert np.max(f) >= -1e-12
    log_phi0 = np.log(prob.phi0_sq)
    mean_bound = np.log(m0 / VOL) - torus64.integrate(log_phi0) / VOL
    assert torus64.integrate(2.0 * f) / VOL <= mean_bound + 1e-9


def test_multistart_uniqueness(vortex_setup, torus64):
    prob, f = vortex_setup
    rng = np.random.default_rng(9)
    g, _ = torus64.random_bandlimited(rng, kmax=3, amp=0.4)
    for start in (np.ones(torus64.shape), g, -0.7 * np.ones(torus64.shape)):
        fi = solve_vortex(prob, f_init=start)
        assert np.max(np.abs(fi - f)) < 1e-8


def test_linearization_fd(vortex_setup, torus64):
    prob, f = vortex_setup
    rng = np.random.default_rng(4)
    df, _ = torus64.random_bandlimited(rng, kmax=4)
    df /= np.max(np.abs(df))
    jv = torus64.laplacian(df) + prob.phi0_sq * np.exp(2.0 * f) * df
    step = 1e-6
    fd = (vortex_residual(prob, f + step * df)
          - vortex_residual(prob, f - step * df)) / (2 * step)
    assert np.max(np.abs(fd - jv)) < 1e-6 * np.max(np.abs(jv))


def test_existence_refusal(torus64):
    dd = DivisorData(zeros=((P_ZERO, 1),))
    flds = build_divisor_fields(torus64, dd)
    weight = np.exp(flds.log_phi_sq)
    with pytest.raises(NoSolutionExpected):
        make_vortex_problem(torus64, weight, tau=2.0, N=1)  # tau = 2N boundary


def test_constant_section_solution(torus64):
    # N=0 with constant section: the base solve is f0 = log(tau)/2, and
    # Phi0 = e^{2 f0} for the unit weight
    prob = make_vortex_problem(torus64, np.ones(torus64.shape), tau=5.0, N=0)
    f0 = 0.5 * np.log(prob.phi0_sq)
    assert np.max(np.abs(f0 - 0.5 * np.log(5.0))) < 1e-9


def test_mean_free_twist_required(torus64):
    dd = DivisorData(zeros=((P_ZERO, 1),))
    flds = build_divisor_fields(torus64, dd)
    weight = np.exp(flds.log_phi_sq)
    with pytest.raises(ConfigError):
        make_vortex_problem(torus64, weight, tau=5.0, N=1,
                            F=np.ones(torus64.shape))


def test_twisted_ke(torus64):
    chi_t = -0.5
    F = 0.4 * np.cos(2 * np.pi * torus64.Y)
    u = solve_twisted_ke(torus64, chi_t, F)
    conf = np.exp(-2.0 * chi_t * u - F)
    assert np.max(np.abs(1.0 - torus64.laplacian(u) - conf)) < 1e-9
    assert np.min(1.0 - torus64.laplacian(u)) > 0.0
    assert abs(torus64.integrate(torus64.laplacian(u))) < 1e-9
    assert abs(torus64.integrate(conf) - VOL) < 1e-8
    # zero twist: the background is the solution
    u0 = solve_twisted_ke(torus64, chi_t, np.zeros(torus64.shape))
    assert np.max(np.abs(u0)) < 1e-12
    # path independence: warm start from the halfway parameter
    u_half = solve_twisted_ke(torus64, chi_t, F, t=0.5)
    u_warm = solve_twisted_ke(torus64, chi_t, F, t=1.0, u_init=u_half)
    assert np.max(np.abs(u_warm - u)) < 1e-9


def test_untwisted_base_max_principle(torus64):
    # t = 0, b = 0: the base solution already satisfies Phi <= tau
    dd = DivisorData(zeros=((P_ZERO, 1),))
    flds = build_divisor_fields(torus64, dd)
    prob = make_vortex_problem(torus64, np.exp(flds.log_phi_sq), tau=5.0, N=1)
    assert np.max(prob.phi0_sq) <= 5.0 + 1e-8


def test_sphere_vortex_with_twist(sphere31):
    # the same engine runs on the sphere backend, twist given in harmonics
    dd = DivisorData(zeros=(((0.7123, 1.1001), 1),))
    flds = build_divisor_fields(sphere31, dd)
    weight = np.exp(flds.log_phi_sq)
    F = sphere31.eval_modes([(2, 1, 0.25, 0.0), (1, 0, 0.0, 0.2)])
    prob = make_vortex_problem(sphere31, weight, tau=5.0, N=1, b=-0.25, F=F)
    f = solve_vortex(prob)
    assert np.max(np.abs(vortex_residual(prob, f))) < 1e-9
    Phi = prob.phi0_sq * np.exp(2.0 * f)
    bound = 5.0 - 0.5 + np.max(np.abs(sphere31.laplacian(F)))
    assert np.max(Phi) <= bound + 1e-8


def test_twisted_ke_requires_negative_constant(torus64):
    with pytest.raises(ConfigError):
        solve_twisted_ke(torus64, 0.0, np.zeros(torus64.shape))
    with pytest.raises(ConfigError):
        solve_twisted_ke(torus64, 0.3, np.zeros(torus64.shape))


def test_vortex_walk_fallback(vortex_setup, monkeypatch):
    # the direct solve at t = 1 fails once: the walk in t from the base
    # solution reaches the same f
    prob, f_direct = vortex_setup
    solve = vortex.solve_exp_scalar
    calls = []

    def fail_first(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise ConvergenceFailure("injected", [1.0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(vortex, "solve_exp_scalar", fail_first)
    f = solve_vortex(prob)
    assert len(calls) == 5  # the direct try, then t = 1/4, 1/2, 3/4, 1
    assert np.max(np.abs(vortex_residual(prob, f))) < 1e-10
    assert np.max(np.abs(f - f_direct)) < 1e-9
