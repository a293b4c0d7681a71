import numpy as np
import pytest

from vortexlab.coupled import SolveState, make_problem, residual
from vortexlab.fields import DivisorData
from vortexlab.surface import build_surface
from vortexlab.verify import (
    Certificate,
    certify_integral_estimates,
    certify_logy_bounds,
    certify_phi_bound,
    certify_state,
    holder_quotient,
    kernel_identity,
)

from conftest import P_CONE, P_ZERO
from oracles import fd_jacobian_gap


def test_full_certificate_passes(gv_problem64, gv_final):
    cert = certify_state(gv_problem64, gv_final, seed=3)
    assert cert.all_passed
    for name in ("C1", "C2", "C3", "C6", "C7"):
        assert name in cert.constants and np.isfinite(cert.constants[name])


def test_certificate_deterministic(gv_problem64, gv_final):
    a = certify_state(gv_problem64, gv_final, seed=5).to_dict()
    b = certify_state(gv_problem64, gv_final, seed=5).to_dict()
    assert a == b


def test_inflated_state_fails_phi_bound(gv_problem64, gv_final):
    bad = SolveState(alpha=gv_final.alpha, c_tilde=gv_final.c_tilde,
                     f_tilde=gv_final.f_tilde + 1.0, u=gv_final.u,
                     Phi=gv_final.Phi * np.exp(2.0), res1=gv_final.res1,
                     res2=gv_final.res2)
    cert = certify_phi_bound(bad, gv_problem64.tau)
    assert not cert.all_passed


def test_kernel_identity_passes(gv_problem64, gv_final, gv_state0):
    cert = kernel_identity(gv_problem64, gv_final, seed=11)
    gap = cert.constants["kernel_identity_gap"]
    assert gap < 1e-5
    # alpha = 0 reduction: only the Hessian and twist terms survive
    cert0 = kernel_identity(gv_problem64, gv_state0, seed=12)
    assert cert0.constants["kernel_identity_gap"] < 1e-5


def test_kernel_identity_skipped_on_sphere(sphere31):
    dd = DivisorData(zeros=(((0.7123, 1.1001), 1), ((-0.51234, 4.0123), 1)),
                     cone=(((0.1517, 2.591), 0.3), ((-0.9, 0.7), 0.3),
                           ((0.4, 5.1), 0.3)))
    prob = make_problem(sphere31, dd, tau=7.0, eps=0.2)
    st = SolveState(alpha=0.0, c_tilde=prob.params.chi_tilde,
                    f_tilde=np.zeros(sphere31.shape),
                    u=np.zeros(sphere31.shape),
                    Phi=prob.weight_t, res1=np.zeros(sphere31.shape),
                    res2=np.zeros(sphere31.shape))
    cert = kernel_identity(prob, st)
    assert cert.checks[0].passed
    assert "skipped" in cert.checks[0].note


def test_fd_jacobian_seeded(gv_problem64, gv_final):
    gap = fd_jacobian_gap(gv_problem64, gv_final.alpha, gv_final.f_tilde,
                          gv_final.u, seed=21)
    assert gap < 1e-6


def test_holder_quotient_basics(torus64):
    rng = np.random.default_rng(0)
    assert holder_quotient(torus64, np.ones(torus64.shape), rng=rng) == 0.0
    f = np.cos(2 * np.pi * torus64.X)
    q = holder_quotient(torus64, f, gamma=0.25, npairs=2000,
                        rng=np.random.default_rng(1))
    assert 0.5 < q < 2 * np.pi  # bounded by the gradient scale


def test_integral_estimates_and_logy(gv_problem64, gv_path):
    for st in gv_path[:: max(1, len(gv_path) - 1)]:
        cert = Certificate()
        certify_integral_estimates(gv_problem64, st, cert)
        certify_logy_bounds(gv_problem64, st, cert, seed=2)
        assert cert.all_passed, [c.name for c in cert.checks if not c.passed]


def test_jensen_equality_case(torus64):
    # constant integrand: Jensen slack vanishes
    from vortexlab.surface import VOL
    g = np.full(torus64.shape, 0.7)
    slack = torus64.integrate(np.exp(g)) / VOL - np.exp(
        torus64.integrate(g) / VOL)
    assert abs(slack) < 1e-14
