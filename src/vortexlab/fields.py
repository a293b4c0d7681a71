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

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .greens import green_field

__all__ = [
    "DivisorData",
    "ModelParams",
    "DivisorFields",
    "log_section_field",
    "smoothed_log",
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
    def N_tilde(self):
        """Parabolic degree N~ = N + sum_k alpha_k."""
        return self.N + self.sum_alpha

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

    def chi_tilde(self, surface):
        """Twisted Euler characteristic chi~ = chi - sum_j (1 - beta_j)."""
        return surface.euler_char - self.sum_one_minus_beta

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
    """Scalar parameters and the derived constants of the coupled system;
    alpha_star is NaN where tau <= 2 N~ (no certified range)."""

    tau: float
    epsilon: float
    N_tilde: float
    chi_tilde: float
    alpha_star: float

    def c_tilde(self, alpha):
        """c~ = chi~ - 2 alpha tau N~."""
        return self.chi_tilde - 2.0 * alpha * self.tau * self.N_tilde


def derive_params(divisor, surface, tau, epsilon=0.1):
    """Fill every derived scalar; flags (rather than rejects) tau <= 2*N_tilde."""
    if tau <= 0:
        raise ConfigError("tau must be positive")
    if not (0.0 < epsilon <= 1.0):
        raise ConfigError("epsilon must lie in (0, 1]")
    N_tilde = divisor.N_tilde
    chi_tilde = divisor.chi_tilde(surface)
    if tau > 2.0 * N_tilde:
        alpha_star = -chi_tilde / (tau * (tau - 2.0 * N_tilde))
    else:
        alpha_star = np.nan
    return ModelParams(
        tau=float(tau),
        epsilon=float(epsilon),
        N_tilde=float(N_tilde),
        chi_tilde=float(chi_tilde),
        alpha_star=float(alpha_star),
    )


def log_section_field(surface, points_weights):
    """log of a squared section norm with prescribed zeros/weights,
    sup-normalized to 0 on the grid."""
    pts = [tuple(p) for p, _ in points_weights]
    if len(set(pts)) != len(pts):
        raise ConfigError("coincident points within one section")
    vals = np.zeros(surface.shape)
    for p, w in points_weights:
        if not surface.point_off_grid(p):
            raise ConfigError(f"marked point {list(p)} is not resolvably off "
                              "the grid nodes; perturb it off-grid")
        vals += -4.0 * np.pi * w * green_field(surface, p)
    return vals - float(np.max(vals))


def smoothed_log(log_sq, eps):
    """log(|s|^2 + eps) from log|s|^2: the smoothing of the twisting forms;
    eps = 0 gives log|s|^2 back without a divide warning."""
    return np.logaddexp(log_sq, np.log(eps) if eps > 0 else -np.inf)


@dataclass
class DivisorFields:
    """Per-divisor log section fields on a fixed surface (shared by solvers)."""

    surface: object
    divisor: DivisorData
    log_phi_sq: np.ndarray        # multiplicity-weighted, sup-normalized
    log_s_sq: list                # one per cone point
    log_t_sq: list                # one per parabolic point

    def F_xi(self, eps):
        """F_xi = sum_j (1 - beta_j) log(|s_j|^2 + eps)."""
        out = np.zeros(self.surface.shape)
        for (_, b), ls in zip(self.divisor.cone, self.log_s_sq):
            out += (1.0 - b) * smoothed_log(ls, eps)
        return out

    def F_eta(self, eps):
        """F_eta = -sum_k alpha_k log(|t_k|^2 + eps)."""
        out = np.zeros(self.surface.shape)
        for (_, ak), lt in zip(self.divisor.parabolic, self.log_t_sq):
            out -= ak * smoothed_log(lt, eps)
        return out


def build_divisor_fields(surface, divisor):
    """Construct all log section fields for a divisor on a surface."""
    surface.counts["divisor_field_builds"] += 1
    return DivisorFields(
        surface=surface,
        divisor=divisor,
        log_phi_sq=(log_section_field(surface, list(divisor.zeros))
                    if divisor.zeros else np.zeros(surface.shape)),
        log_s_sq=[log_section_field(surface, [(p, 1.0)])
                  for p, _ in divisor.cone],
        log_t_sq=[log_section_field(surface, [(p, 1.0)])
                  for p, _ in divisor.parabolic],
    )
