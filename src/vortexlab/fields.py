"""Divisor data and the scalar fields derived from it.

Squared section norms |phi|^2, |s_j|^2, |t_k|^2 are represented through
their logarithms, built from the surface Green's function:

    log|s|^2 = -4 pi sum_i w_i G(., p_i) + const,   sup-normalized to 0,

which realizes the distributional identity
lap log|s|^2 = 2 W - 4 pi sum_i w_i delta_{p_i} (total weight W) exactly,
with the local model log|s|^2 ~ 2 w_i log dist near each point.  Marked
points must avoid grid nodes so every sampled field stays finite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .greens import green_field

__all__ = [
    "DivisorData",
    "ModelParams",
    "DivisorFields",
    "log_section_field",
    "smoothed_weight",
    "higgs_squared",
    "derive_params",
    "build_divisor_fields",
]


@dataclass(frozen=True)
class DivisorData:
    """Marked points: Higgs zeros (point, n_i), cone points (point, beta_j),
    parabolic points (point, alpha_k).  Points may coincide across the three
    sets but not within one set."""

    zeros: tuple = ()
    cone: tuple = ()
    parabolic: tuple = ()

    def __post_init__(self):
        for p, n in self.zeros:
            if int(n) != n or n < 1:
                raise ConfigError(f"zero multiplicity must be a positive integer, got {n}")
        for p, beta in self.cone:
            if not (0.0 < beta < 1.0):
                raise ConfigError(f"cone weight must lie in (0,1), got {beta}")
        for p, ak in self.parabolic:
            if ak <= 0.0:
                raise ConfigError(f"parabolic weight must be positive, got {ak}")
        for group, name in ((self.zeros, "zeros"), (self.cone, "cone"),
                            (self.parabolic, "parabolic")):
            pts = [tuple(p) for p, _ in group]
            if len(set(pts)) != len(pts):
                raise ConfigError(f"coincident points within divisor set {name!r}")

    @property
    def N(self):
        return int(sum(n for _, n in self.zeros))

    @property
    def sum_alpha(self):
        return float(sum(a for _, a in self.parabolic))

    @property
    def sum_one_minus_beta(self):
        return float(sum(1.0 - b for _, b in self.cone))

    @property
    def lp_exponent(self):
        """p = (1 + min_j 1/(1-beta_j)) / 2 from the cone weights (2 if none)."""
        if not self.cone:
            return 2.0
        return 0.5 * (1.0 + min(1.0 / (1.0 - b) for _, b in self.cone))

    def all_points(self):
        seen = {}
        for p, n in self.zeros:
            seen.setdefault(tuple(p), {})["n"] = n
        for p, b in self.cone:
            seen.setdefault(tuple(p), {})["beta"] = b
        for p, a in self.parabolic:
            seen.setdefault(tuple(p), {})["alpha_k"] = a
        return seen


@dataclass(frozen=True)
class ModelParams:
    """Scalar parameters and the derived constants of the coupled system."""

    tau: float
    alpha: float
    epsilon: float
    N: int
    N_tilde: float
    chi_tilde: float
    c_tilde: float
    alpha_star: float
    existence_ok: bool

    def with_alpha(self, alpha):
        c_tilde = self.chi_tilde - 2.0 * alpha * self.tau * self.N_tilde
        return replace(self, alpha=alpha, c_tilde=c_tilde)


def derive_params(divisor, surface, tau, alpha=0.0, epsilon=0.1):
    """Fill every derived scalar; flags (rather than rejects) tau <= 2*N_tilde."""
    if tau <= 0:
        raise ConfigError("tau must be positive")
    if not (0.0 < epsilon <= 1.0):
        raise ConfigError("epsilon must lie in (0, 1]")
    if alpha < 0:
        raise ConfigError("alpha must be nonnegative")
    N = divisor.N
    N_tilde = N + divisor.sum_alpha
    chi_tilde = surface.euler_char - divisor.sum_one_minus_beta
    c_tilde = chi_tilde - 2.0 * alpha * tau * N_tilde
    existence_ok = tau > 2.0 * N_tilde
    if existence_ok and tau != 2.0 * N_tilde:
        alpha_star = -chi_tilde / (tau * (tau - 2.0 * N_tilde))
    else:
        alpha_star = np.nan
    return ModelParams(
        tau=float(tau),
        alpha=float(alpha),
        epsilon=float(epsilon),
        N=N,
        N_tilde=float(N_tilde),
        chi_tilde=float(chi_tilde),
        c_tilde=float(c_tilde),
        alpha_star=float(alpha_star),
        existence_ok=existence_ok,
    )


def log_section_field(surface, points_weights, total_weight=None):
    """log of a squared section norm with prescribed zeros/weights.

    Returns (values, evaluator).  evaluator(point) gives the closed form at
    arbitrary points with the same additive constant (grid sup-normalized).
    """
    pts = [tuple(p) for p, _ in points_weights]
    if len(set(pts)) != len(pts):
        raise ConfigError("coincident points within one section")
    if total_weight is not None:
        w = sum(w for _, w in points_weights)
        if abs(w - total_weight) > 1e-12:
            raise ConfigError(f"weights sum to {w}, expected {total_weight}")
    vals = np.zeros(surface.shape)
    evaluators = []
    for p, w in points_weights:
        if not surface.point_off_grid(p):
            raise ConfigError(f"marked point {list(p)} is not resolvably off "
                              "the grid nodes; perturb it off-grid")
        g, g_eval = green_field(surface, p)
        vals += -4.0 * np.pi * w * g
        evaluators.append((p, w, g_eval))
    const = -float(np.max(vals))
    vals = vals + const

    if surface.backend == "torus":

        def evaluate(x, y):
            out = np.zeros_like(np.asarray(x, dtype=np.float64))
            for p, w, g_eval in evaluators:
                out += -4.0 * np.pi * w * g_eval(x, y)
            return out + const

    else:

        def evaluate(points_lat, points_lon):
            lat = np.asarray(points_lat, dtype=np.float64)
            lon = np.asarray(points_lon, dtype=np.float64)
            xyz = np.stack(
                [np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)],
                axis=-1,
            )
            out = np.zeros(lat.shape)
            for p, w, g_eval in evaluators:
                u = surface.unit_point(p)
                out += -4.0 * np.pi * w * g_eval(np.clip(xyz @ u, -1, 1))
            return out + const

    return vals, evaluate


def smoothed_weight(surface, log_fields, exponents, eps):
    """Pointwise product of (|s_j|^2 + eps)^(e_j) from the log fields."""
    if eps <= 0:
        raise ConfigError("smoothing parameter must be positive")
    out = np.zeros(surface.shape)
    for ls, e in zip(log_fields, exponents):
        if e == 0.0:
            continue
        out += e * np.logaddexp(ls, np.log(eps))
    return np.exp(out)


def _log_eps(eps):
    """log eps, and -inf at eps = 0 (no smoothing) without a divide warning."""
    return np.log(eps) if eps > 0 else -np.inf


def higgs_squared(fields, eps, f_tilde):
    """Phi = |phi|^2 * prod_k (|t_k|^2 + eps)^(alpha_k) * exp(2 f_tilde)."""
    return fields.higgs_weight(eps) * np.exp(2.0 * f_tilde)


@dataclass
class DivisorFields:
    """Per-divisor log section fields on a fixed surface (shared by solvers)."""

    surface: object
    divisor: DivisorData
    log_phi_sq: np.ndarray        # multiplicity-weighted, sup-normalized
    log_phi_sq_eval: object
    log_s_sq: list                # one per cone point
    log_t_sq: list                # one per parabolic point

    def weight_W(self, eps):
        """W = prod_j (|s_j|^2 + eps)^(beta_j - 1) = exp(-F_xi)."""
        return smoothed_weight(
            self.surface,
            self.log_s_sq,
            [b - 1.0 for _, b in self.divisor.cone],
            eps,
        )

    def F_xi(self, eps):
        """F_xi = sum_j (1 - beta_j) log(|s_j|^2 + eps)."""
        out = np.zeros(self.surface.shape)
        for (_, b), ls in zip(self.divisor.cone, self.log_s_sq):
            out += (1.0 - b) * np.logaddexp(ls, _log_eps(eps))
        return out

    def F_eta(self, eps):
        """F_eta = -sum_k alpha_k log(|t_k|^2 + eps)."""
        out = np.zeros(self.surface.shape)
        for (_, ak), lt in zip(self.divisor.parabolic, self.log_t_sq):
            out -= ak * np.logaddexp(lt, _log_eps(eps))
        return out

    def higgs_weight(self, eps):
        """|phi|^2 * prod_k (|t_k|^2 + eps)^(alpha_k); Phi = weight * e^{2 f}."""
        log_w = self.log_phi_sq.copy()
        for (_, ak), lt in zip(self.divisor.parabolic, self.log_t_sq):
            log_w += ak * np.logaddexp(lt, _log_eps(eps))
        return np.exp(log_w)

    def b_xi(self):
        return self.divisor.sum_one_minus_beta

    def b_eta(self):
        return -self.divisor.sum_alpha


def build_divisor_fields(surface, divisor):
    """Construct all log section fields for a divisor on a surface."""
    if divisor.zeros:
        log_phi, log_phi_eval = log_section_field(surface, list(divisor.zeros))
    else:
        log_phi = np.zeros(surface.shape)
        log_phi_eval = None
    return DivisorFields(
        surface=surface,
        divisor=divisor,
        log_phi_sq=log_phi,
        log_phi_sq_eval=log_phi_eval,
        log_s_sq=[log_section_field(surface, [(p, 1.0)])[0]
                  for p, _ in divisor.cone],
        log_t_sq=[log_section_field(surface, [(p, 1.0)])[0]
                  for p, _ in divisor.parabolic],
    )
