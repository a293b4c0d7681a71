"""Post-hoc certification of computed states against the a-priori estimate
chain, plus the kernel identity of the coupled linearization.

Every check is a pure function of (state, seed): named inequality checks
carry their computed left/right sides and slack; every constant of the
estimate chain (C1, C2, C3, C6, C7) is computed from the actual kernel and
quadratures, never assumed.  The C2 Hoelder constant is the sampled discrete
quotient and the checks that use it are labelled empirical-constant.
Inequality tolerances default to -1e-6 slack for quadrature error.
The finite-difference check of the Jacobian that GMRES runs is a test
instrument and lives in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .greens import green_field
from .surface import VOL
from .vortex import solve_vortex, vortex_residual

__all__ = [
    "Check",
    "Certificate",
    "holder_quotient",
    "certify_phi_bound",
    "certify_vortex_phi_bound",
    "certify_integral_estimates",
    "certify_logy_bounds",
    "kernel_identity",
    "certify_state",
]

SLACK_TOL = -1e-6


@dataclass
class Check:
    name: str
    lhs: float
    rhs: float
    passed: bool
    note: str = ""

    @property
    def slack(self):
        return self.rhs - self.lhs

    def to_dict(self):
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "slack": self.slack, "passed": bool(self.passed),
                "note": self.note}


@dataclass
class Certificate:
    checks: list = field(default_factory=list)
    constants: dict = field(default_factory=dict)
    seed: int = 0

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def add(self, name, lhs, rhs, tol=SLACK_TOL, note=""):
        c = Check(name=name, lhs=float(lhs), rhs=float(rhs),
                  passed=bool(rhs - lhs >= tol), note=note)
        self.checks.append(c)
        return c

    def to_dict(self):
        return {
            "seed": self.seed,
            "all_passed": self.all_passed,
            "constants": {k: float(v) for k, v in self.constants.items()},
            "checks": [c.to_dict() for c in self.checks],
        }


def holder_quotient(surface, values, gamma=0.25, npairs=1000, rng=None):
    """Discrete Hoelder-gamma quotient on a seeded random pair sample."""
    rng = np.random.default_rng(0) if rng is None else rng
    flat = values.ravel()
    n = flat.size
    i = rng.integers(0, n, size=npairs)
    j = rng.integers(0, n, size=npairs)
    keep = i != j
    i, j = i[keep], j[keep]
    if surface.backend == "torus":
        xi, yi = np.unravel_index(i, surface.shape)
        xj, yj = np.unravel_index(j, surface.shape)
        dx = (xi - xj) / surface.n
        dy = (yi - yj) / surface.n
        dx -= np.round(dx)
        dy -= np.round(dy)
        d = np.hypot(dx, dy)
    else:
        pts = surface.xyz.reshape(-1, 3)
        cosang = np.clip(np.sum(pts[i] * pts[j], axis=1), -1.0, 1.0)
        d = surface.r * np.arccos(cosang)
    ok = d > 0
    return float(np.max(np.abs(flat[i[ok]] - flat[j[ok]]) / d[ok] ** gamma))


def _green_stats(surface, p_star):
    """min G over the grid and the L^{p*} quadrature norm of |G| (one base
    point; both backends are point-transitive)."""
    if surface.backend == "torus":
        p0 = (0.5 + 0.371 * surface.h, 0.5 + 0.237 * surface.h)
    else:
        p0 = (0.31831, 2.71828)
    g = green_field(surface, p0)
    return float(np.min(g)), surface.integrate(np.abs(g) ** p_star) ** (1.0 / p_star)


def certify_phi_bound(state, tau, cert=None):
    """max Phi <= tau for coupled states (nonpositive bundle twist)."""
    cert = Certificate() if cert is None else cert
    cert.add("phi_upper_bound", float(np.max(state.Phi)), tau, tol=-1e-8)
    return cert


def certify_vortex_phi_bound(surface, phi_field, tau, b, F, cert=None):
    """max Phi <= tau + 2b + ||lap F||_inf for a twisted vortex solution."""
    cert = Certificate() if cert is None else cert
    bound = tau + 2.0 * b
    if F is not None:
        bound += float(np.max(np.abs(surface.laplacian(F))))
    cert.add("vortex_phi_bound", float(np.max(phi_field)), bound, tol=-1e-8)
    return cert


def _forms(problem):
    """The twisting forms (F_xi, F_eta) of a GVProblem at its eps."""
    return problem.fields.F_xi(problem.eps), problem.fields.F_eta(problem.eps)


def certify_integral_estimates(problem, state, cert=None, forms=None):
    """The two Jensen-derived integral inequalities; ``forms`` are the
    problem's (F_xi, F_eta) if the caller has them."""
    cert = Certificate() if cert is None else cert
    s = problem.surface
    a, tau, ct = state.alpha, problem.tau, state.c_tilde
    int_f = s.integrate(state.f_tilde)
    int_u = s.integrate(state.u)
    F_xi, F_eta = _forms(problem) if forms is None else forms
    int_Fxi = s.integrate(F_xi)
    int_Feta = s.integrate(F_eta)
    lhs1 = 4.0 * a * tau * int_f - 2.0 * ct * int_u
    rhs1 = 4.0 * np.pi * a * tau + int_Fxi
    cert.add("integral_estimate_1", lhs1, rhs1)
    int_logphi = s.integrate(problem.fields.log_phi_sq)
    Ntil = problem.params.N_tilde
    lhs2 = (2.0 + 4.0 * a * tau) * int_f - 2.0 * ct * int_u
    rhs2 = (4.0 * np.pi * a * tau + VOL * np.log(tau - 2.0 * Ntil)
            - int_logphi + int_Fxi + int_Feta)
    cert.add("integral_estimate_2", lhs2, rhs2)
    cert.constants["int_F_xi"] = int_Fxi
    cert.constants["int_F_eta"] = int_Feta
    cert.constants["int_log_phi_sq"] = int_logphi
    cert.constants["rhs_integral_estimate_2"] = rhs2
    return cert


def certify_logy_bounds(problem, state, cert, seed=0, forms=None):
    """C0 bounds of log y = 4 a tau f~ - 2 c~ u with computed constants.

    C1 comes from the shifted-nonnegative kernel (shift = -min G) and the
    first integral estimate; the lower bound combines the integrated second
    equation with the oscillation bound through the sampled Hoelder constant
    C2 (empirical-constant check).  ``cert`` must hold the constants of
    ``certify_integral_estimates``; ``forms`` are the problem's
    (F_xi, F_eta) if the caller has them.
    """
    s = problem.surface
    a, tau, ct = state.alpha, problem.tau, state.c_tilde
    chi_t = problem.params.chi_tilde
    p = problem.fields.divisor.lp_exponent
    p_star = p / (p - 1.0)
    gmin, gnorm = _green_stats(s, p_star)
    logy = 4.0 * a * tau * state.f_tilde - 2.0 * ct * state.u
    F_xi, F_eta = _forms(problem) if forms is None else forms
    int_Fxi = cert.constants["int_F_xi"]
    C1 = 2.0 * a * tau + int_Fxi / VOL - 2.0 * chi_t * (-gmin) * VOL
    cert.add("logy_upper_C1", float(np.max(logy)), C1)
    int_exp_mFxi = s.integrate(problem.W)
    lower = -np.log(int_exp_mFxi / VOL)
    cert.add("logy_max_lower", lower, float(np.max(logy)),
             note="max log y >= -log((1/2pi) int e^{-F_xi})")
    rng = np.random.default_rng(seed)
    fbar = s.integrate(state.f_tilde) / VOL
    ubar = s.integrate(state.u) / VOL
    C2 = max(
        float(np.max(np.abs(state.f_tilde - fbar)))
        + holder_quotient(s, state.f_tilde - fbar, rng=rng),
        float(np.max(np.abs(state.u - ubar)))
        + holder_quotient(s, state.u - ubar, rng=rng),
    )
    osc = float(np.max(logy) - np.min(logy))
    osc_bound = 2.0 * (4.0 * a * tau - 2.0 * ct) * C2
    cert.add("logy_oscillation", osc, osc_bound, note="empirical-constant")
    C3 = np.log(int_exp_mFxi / VOL) + osc_bound
    cert.add("logy_lower_C3", -C3, float(np.min(logy)),
             note="empirical-constant")
    # integrated second equation (forced by the residual being accepted)
    Phi = state.Phi
    mass = s.integrate(problem.W * np.exp(
        4.0 * a * tau * state.f_tilde - 2.0 * a * Phi - 2.0 * ct * state.u))
    cert.add("second_equation_mass", abs(mass - VOL), 1e-8, tol=0.0,
             note="int W e^{...} = 2 pi")
    # C6 / C7 chain for f~ and u
    Ntil = problem.params.N_tilde
    rhs2 = cert.constants["rhs_integral_estimate_2"]
    exp_p = s.integrate(problem.W ** p) ** (1.0 / p)
    C6 = (rhs2 + VOL * C3) / (2.0 * VOL) + 0.5 * tau * np.exp(C1) * gnorm * exp_p
    cert.add("f_upper_C6", float(np.max(state.f_tilde)), C6)
    int_emFxiFeta = s.integrate(np.exp(-F_xi - F_eta))
    C7 = -(0.5 * np.log(VOL * (tau - 2.0 * Ntil))
           - 0.5 * (C1 + int_Fxi / VOL)
           - 0.5 * np.log(int_emFxiFeta))
    cert.add("f_max_lower_C7", -C7, float(np.max(state.f_tilde)))
    cert.add("f_lower", -2.0 * C2 - C7, float(np.min(state.f_tilde)))
    cert.add("u_upper", float(np.max(state.u)),
             (C1 + 4.0 * a * tau * (2.0 * C2 + C7)) / (-2.0 * ct))
    cert.add("u_lower", -(C3 + 4.0 * a * tau * C6) / (-2.0 * ct),
             float(np.min(state.u)))
    cert.constants.update({"C1": C1, "C2": C2, "C3": C3, "C6": C6, "C7": C7,
                           "green_min": gmin, "green_Lpstar": gnorm,
                           "lp_exponent": p})
    return cert


def kernel_identity(problem, state, seed=0, cert=None, forms=None):
    """Energy identity of the linearized operator at a solution (torus only).

    Both sides are computed independently: the left side pairs random
    directions against the metric-level linearizations; the right side
    assembles the four geometric square terms (connection term, Higgs term,
    holomorphic Hessian, twist term) from spectral derivatives.  Returns the
    relative gap; on the sphere the check is reported as skipped.
    ``forms`` are the problem's (F_xi, F_eta) if the caller has them.
    """
    cert = Certificate() if cert is None else cert
    s = problem.surface
    if s.backend != "torus":
        c = Check(name="kernel_identity", lhs=0.0, rhs=0.0, passed=True,
                  note="skipped: identity requires the global complex "
                       "coordinate of the torus backend")
        cert.checks.append(c)
        return cert
    rng = np.random.default_rng(seed)
    df, _ = s.random_bandlimited(rng, kmax=5, nmodes=6, amp=0.3)
    dv, _ = s.random_bandlimited(rng, kmax=5, nmodes=6, amp=0.3)

    a, tau, ct = state.alpha, problem.tau, state.c_tilde
    f, u, Phi = state.f_tilde, state.u, state.Phi
    rho = 1.0 - s.laplacian(u)

    def lap_w(g):
        return s.laplacian(g) / rho

    wdf, wdv = lap_w(df), lap_w(dv)
    dp1 = wdf + 0.5 * (tau - Phi) * wdv + df * Phi
    dp2 = (0.5 * lap_w(wdv) - ct * wdv
           - 2.0 * a * lap_w(df * Phi) + 2.0 * a * tau * wdf)
    lhs = s.integrate((4.0 * a * df * dp1 + dv * dp2) * rho)

    dzf = s.dz(df)
    dzv = s.dz(dv)
    dzPhi = s.dz(Phi)
    az = dzf + 0.5 * (tau - Phi) * dzv
    T1 = 16.0 * a * float(np.mean(np.abs(az) ** 2))
    vz_up = (2.0 / (VOL * rho)) * np.conj(dzv)  # raised (1,0) component
    T2 = 4.0 * a * VOL * float(np.mean(
        np.abs(vz_up * dzPhi - df * Phi) ** 2 / Phi * rho))
    vzz = s.dz2(dv) - s.dz(np.log(rho)) * dzv
    T3 = (8.0 / VOL) * float(np.mean(np.abs(vzz) ** 2 / rho))
    divisor = problem.fields.divisor
    F_xi, F_eta = _forms(problem) if forms is None else forms
    xi0 = divisor.sum_one_minus_beta - 0.5 * s.laplacian(F_xi)
    eta0 = -divisor.sum_alpha - 0.5 * s.laplacian(F_eta)
    T4 = 4.0 * float(np.mean((xi0 - 2.0 * a * Phi * eta0)
                             * np.abs(dzv) ** 2 / rho))
    rhs = T1 + T2 + T3 + T4
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
    cert.add("kernel_identity", gap, 1e-5, tol=0.0,
             note=f"lhs={lhs:.6e} T1={T1:.3e} T2={T2:.3e} "
                  f"T3={T3:.3e} T4={T4:.3e}")
    cert.constants["kernel_identity_gap"] = gap
    return cert


def certify_state(problem, state, seed=0):
    """Full certificate for an accepted coupled state."""
    cert = Certificate(seed=seed)
    forms = _forms(problem)
    certify_phi_bound(state, problem.tau, cert)
    certify_integral_estimates(problem, state, cert, forms)
    certify_logy_bounds(problem, state, cert, seed=seed, forms=forms)
    kernel_identity(problem, state, seed=seed, cert=cert, forms=forms)
    cert.constants["residual_norm"] = state.res_norm
    cert.constants["alpha"] = state.alpha
    cert.constants["c_tilde"] = state.c_tilde
    return cert


def certify_vortex(surface, problem, f, seed=0, multistart=3, tol=1e-9):
    """Certificate for a twisted-vortex solution: residual, maximum-principle
    bound, mass identity, mean bound, linearization check, and multi-start
    uniqueness."""
    cert = Certificate(seed=seed)
    res = vortex_residual(problem, f)
    cert.add("vortex_residual", float(np.max(np.abs(res))), tol, tol=0.0)
    Phi = problem.phi0_sq * np.exp(2.0 * f)
    certify_vortex_phi_bound(surface, Phi, problem.tau, problem.b, problem.F,
                             cert)
    m0 = surface.integrate(problem.phi0_sq)
    m1 = surface.integrate(problem.phi0_sq * np.exp(2.0 * f))
    cert.add("vortex_mass_identity", abs(m1 - m0) / max(m0, 1e-300), 1e-8,
             tol=0.0, note="int Phi0 e^{2f} = int Phi0, relative")
    cert.add("vortex_max_f_nonneg", 0.0, float(np.max(f)), tol=-1e-10)
    log_phi0 = np.log(np.maximum(problem.phi0_sq, 1e-300))
    cert.add("vortex_mean_bound", surface.integrate(2.0 * f) / VOL,
             np.log(m0 / VOL) - surface.integrate(log_phi0) / VOL)
    # linearization against central differences
    rng = np.random.default_rng(seed)
    df, _ = surface.random_bandlimited(rng, kmax=4, nmodes=5)
    df /= max(1e-30, float(np.max(np.abs(df))))
    step = 1e-6
    jv = surface.laplacian(df) + problem.phi0_sq * np.exp(2.0 * f) * df
    fd = (vortex_residual(problem, f + step * df)
          - vortex_residual(problem, f - step * df)) / (2.0 * step)
    gap = float(np.max(np.abs(fd - jv))) / max(float(np.max(np.abs(jv))), 1e-30)
    cert.add("vortex_linearization_fd", gap, 1e-6, tol=0.0)
    if multistart >= 2:
        worst = 0.0
        starts = [np.zeros(surface.shape), np.ones(surface.shape)]
        while len(starts) < multistart:
            g, _ = surface.random_bandlimited(rng, kmax=3, nmodes=4, amp=0.3)
            starts.append(g)
        for g in starts[:multistart]:
            fi = solve_vortex(problem, f_init=g, tol=tol * 0.1)
            worst = max(worst, float(np.max(np.abs(fi - f))))
        cert.add("vortex_multistart_uniqueness", worst, 1e-8, tol=0.0,
                 note=f"{multistart} starts")
    cert.constants["vortex_mass"] = m1
    return cert


def certify_tke(surface, chi_tilde, F_xi, u, t=1.0, tol=1e-9):
    """Certificate for a twisted Kaehler-Einstein potential."""
    cert = Certificate()
    conf = np.exp(-2.0 * t * chi_tilde * u - t * F_xi)
    res = surface.laplacian(u) + conf - 1.0
    cert.add("tke_residual", float(np.max(np.abs(res))), tol, tol=0.0)
    cert.add("tke_metric_positivity", 0.0,
             float(np.min(1.0 - surface.laplacian(u))), tol=0.0)
    cert.add("tke_mean_lap_u", abs(surface.integrate(surface.laplacian(u))),
             1e-9, tol=0.0)
    cert.add("tke_conformal_volume", abs(surface.integrate(conf) - VOL), 1e-8,
             tol=0.0)
    return cert
