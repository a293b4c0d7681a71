import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vortexlab.coupled import accepted_state, make_problem
from vortexlab.errors import ConfigError
from vortexlab.fields import (
    DivisorData,
    build_divisor_fields,
    derive_params,
    log_section_field,
    smoothed_log,
)
from vortexlab.greens import torus_green_theta_eval
from vortexlab.surface import VOL, build_surface

from conftest import P_CONE, P_PARA, P_ZERO
from oracles import farthest_grid_index, torus_green_eval


def test_divisor_validation():
    with pytest.raises(ConfigError):
        DivisorData(zeros=(((0.1, 0.1), 0),))
    with pytest.raises(ConfigError):
        DivisorData(zeros=(((0.1, 0.1), 1.5),))
    with pytest.raises(ConfigError):
        DivisorData(cone=(((0.1, 0.1), 1.0),))
    with pytest.raises(ConfigError):
        DivisorData(parabolic=(((0.1, 0.1), 0.0),))
    with pytest.raises(ConfigError):
        DivisorData(zeros=(((0.1, 0.1), 1), ((0.1, 0.1), 2)))
    # coincidence across sets is allowed
    d = DivisorData(zeros=(((0.1, 0.1), 1),), cone=(((0.1, 0.1), 0.5),))
    assert d.N == 1 and len(d.all_points()) == 1


def test_log_section_normalization_and_oracle(torus64):
    vals = log_section_field(torus64, [(P_ZERO, 1.0)])
    assert abs(np.max(vals)) < 1e-12
    # independent closed-form route at the farthest grid node
    ix, iy = farthest_grid_index(torus64, P_ZERO)
    x, y = torus64.X[ix, iy], torus64.Y[ix, iy]
    alt = -4.0 * np.pi * torus_green_eval(P_ZERO, np.array([x]),
                                          np.array([y]))[0]
    # shape agreement of the two analytic routes at another node
    jx, jy = (ix + 7) % torus64.n, (iy + 3) % torus64.n
    alt2 = -4.0 * np.pi * torus_green_eval(
        P_ZERO, np.array([torus64.X[jx, jy]]), np.array([torus64.Y[jx, jy]]))[0]
    assert abs((vals[jx, jy] - vals[ix, iy]) - (alt2 - alt)) < 1e-8


def test_log_section_local_order(torus64):
    # the closed form of log|s|^2 up to its additive constant, which
    # drops out of the spread asserted here
    h = torus64.h
    ds = np.array([2 * h, 4 * h, 8 * h])
    vals = -4.0 * np.pi * torus_green_theta_eval(P_ZERO, P_ZERO[0] + ds,
                                                 np.full(3, P_ZERO[1]))
    assert np.ptp(vals - 2.0 * np.log(ds)) < 0.05


def test_log_section_mass(torus64):
    # lap(log|s|^2) integrated off a small disk recovers 4 pi W (1 - fraction)
    w = 1.0
    vals = log_section_field(torus64, [(P_ZERO, w)])
    lap = torus64.laplacian(vals)
    d = torus64.distance_field(P_ZERO)
    r0 = 10 * torus64.h
    mask = d > r0
    got = torus64.integrate(lap * mask)
    want = 2.0 * w * VOL * (1.0 - np.pi * r0**2)  # = 4 pi W (1 - disk fraction)
    assert abs(got - want) < 0.1 * abs(want)


def test_log_section_errors(torus64):
    with pytest.raises(ConfigError):
        log_section_field(torus64, [(P_ZERO, 1.0), (P_ZERO, 2.0)])
    with pytest.raises(ConfigError):
        log_section_field(torus64, [((0.25, 0.5), 1.0)])  # on a grid node


def test_smoothed_weight(torus64, gv_divisor):
    ls = log_section_field(torus64, [(P_ZERO, 1.0)])
    # no cone points: W = e^{-F_xi} = 1
    flds = build_divisor_fields(torus64, DivisorData(zeros=((P_ZERO, 1),)))
    w0 = make_problem(torus64, flds.divisor, tau=3.0, eps=0.5, fields=flds).W
    assert np.max(np.abs(w0 - 1.0)) < 1e-14
    # near the marked point |s|^2 + 1 is close to 1
    d = torus64.distance_field(P_ZERO)
    i = np.unravel_index(np.argmin(d), torus64.shape)
    assert abs(np.exp(smoothed_log(ls, 1.0)[i]) - 1.0) < 5e-3
    # eps = 0 is no smoothing, without a divide warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(smoothed_log(ls, 0.0), ls)
    # the coupled problem refuses it
    with pytest.raises(ConfigError):
        make_problem(torus64, gv_divisor, tau=4.0, eps=0.0)


@settings(deadline=None, max_examples=20)
@given(st.floats(0.05, 0.45), st.floats(0.05, 0.95), st.floats(0.1, 2.0))
def test_smoothed_weight_monotone_in_eps(eps, beta, ak):
    # W = e^{-F_xi} decreases in eps, e^{-F_eta} increases
    s = build_surface("torus", 32)
    flds = build_divisor_fields(s, DivisorData(
        cone=(((0.31001, 0.47003), beta),),
        parabolic=(((0.71003, 0.11517), ak),)))
    assert np.all(np.exp(-flds.F_xi(eps)) >= np.exp(-flds.F_xi(2.0 * eps))
                  - 1e-14)
    assert np.all(np.exp(-flds.F_eta(eps)) <= np.exp(-flds.F_eta(2.0 * eps))
                  + 1e-14)


def test_smoothed_weight_limit(torus64):
    # away from the marked point the weight approaches the unsmoothed
    # product pointwise and monotonically for a one-signed exponent
    flds = build_divisor_fields(torus64, DivisorData(cone=((P_ZERO, 0.5),)))
    ix, iy = farthest_grid_index(torus64, P_ZERO)
    exact = np.exp(-0.5 * flds.log_s_sq[0][ix, iy])
    assert np.exp(-flds.F_xi(0.0)[ix, iy]) == exact
    gaps = []
    for eps in (1e-2, 1e-4, 1e-6):
        w = np.exp(-flds.F_xi(eps))
        gaps.append(abs(w[ix, iy] - exact))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-6 * exact


def test_higgs_squared(torus64):
    dd = DivisorData(zeros=((P_ZERO, 1),))
    problem = make_problem(torus64, dd, tau=3.0, eps=1.0)
    zero = np.zeros(torus64.shape)
    Phi = accepted_state(problem, 0.0, zero, zero).Phi
    assert np.max(Phi) <= 1.0 + 1e-12  # sup-normalized section


@settings(deadline=None, max_examples=15)
@given(st.floats(-2.0, 2.0))
def test_higgs_shift_covariance(c):
    s = build_surface("torus", 32)
    dd = DivisorData(zeros=(((0.31001, 0.47003), 1),),
                     parabolic=(((0.71003, 0.11517), 0.5),))
    problem = make_problem(s, dd, tau=5.0, eps=0.3)
    rng = np.random.default_rng(4)
    f, _ = s.random_bandlimited(rng, kmax=3, amp=0.2)
    u = np.zeros(s.shape)
    a = accepted_state(problem, 0.0, f + c, u).Phi
    b = np.exp(2.0 * c) * accepted_state(problem, 0.0, f, u).Phi
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_derive_params_examples(torus64, sphere31):
    # one cone point beta=0.5, N=1, tau=4
    dd = DivisorData(zeros=((P_ZERO, 1),), cone=((P_CONE, 0.5),))
    p = derive_params(dd, torus64, tau=4.0)
    assert p.chi_tilde == -0.5
    assert p.N_tilde == 1.0
    assert abs(p.alpha_star - 0.0625) < 1e-15
    assert abs(p.c_tilde(0.0625) - (-1.0)) < 1e-15
    assert abs(p.c_tilde(0.0625) + 0.0625 * 16.0) < 1e-15  # equality at alpha_star
    # sphere, N=2, alpha=0.1: the phase-locked tau is 5 and c~ = 0
    dd2 = DivisorData(zeros=(((0.7, 1.1), 1), ((-0.5, 4.0), 1)))
    tau_B = 2.0 / (2.0 * 0.1 * 2.0)
    assert tau_B == 5.0
    p3 = derive_params(dd2, sphere31, tau=tau_B)
    assert abs(p3.c_tilde(0.1)) < 1e-15


def test_derive_params_flags_and_purity(torus64):
    dd = DivisorData(zeros=((P_ZERO, 2),))
    p = derive_params(dd, torus64, tau=3.0)  # tau < 2N: no certified range
    assert np.isnan(p.alpha_star)
    a = derive_params(dd, torus64, tau=5.0)
    b = derive_params(dd, torus64, tau=5.0)
    assert a == b  # bit-identical pure function


@settings(deadline=None, max_examples=25)
@given(st.floats(0.05, 0.95), st.integers(1, 3), st.floats(0.0, 1.0))
def test_ctilde_sign_on_certified_range(beta, n, frac):
    s = build_surface("torus", 32)
    dd = DivisorData(zeros=(((0.31001, 0.47003), n),),
                     cone=(((0.71003, 0.11517), beta),))
    tau = 2.0 * n + 1.7
    p = derive_params(dd, s, tau=tau)
    assert np.isfinite(p.alpha_star)
    alpha = frac * p.alpha_star
    # c~ + alpha tau^2 <= 0 with equality exactly at alpha_star
    val = p.c_tilde(alpha) + alpha * tau**2
    assert val <= 1e-12
    assert abs(p.c_tilde(p.alpha_star) + p.alpha_star * tau**2) < 1e-12


def test_divisor_fields_weights(torus64, gv_divisor):
    flds = build_divisor_fields(torus64, gv_divisor)
    eps = 0.1
    W = make_problem(torus64, gv_divisor, tau=4.0, eps=eps, fields=flds).W
    assert np.all(W > 0) and np.all(np.isfinite(W))
    # the product formula prod_j (|s_j|^2 + eps)^(beta_j - 1)
    (_, beta), = gv_divisor.cone
    prod = (np.exp(flds.log_s_sq[0]) + eps) ** (beta - 1.0)
    assert np.max(np.abs(W - prod)) < 1e-12 * np.max(W)
    assert abs(gv_divisor.sum_one_minus_beta - 0.5) < 1e-15
    assert gv_divisor.sum_alpha == 0.0
