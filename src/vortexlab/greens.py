"""Green's functions of the shifted Laplacian contract lap G(.,p) = delta_p - 1/Vol.

The kernel is normalized to zero mean and carries the universal short-range
behaviour G ~ -(1/2pi) log dist.  The torus kernel is the Jacobi-theta closed
form G = -(1/2pi)(log|theta1(pi z)| - pi (Im z)^2) + C with the analytic
zero-mean constant C = log(eta(i))/2pi (Lin & Wang, Ann. Math. 2010), its
sine series (DLMF 20.2) evaluated separably from 1-D factor tables.
The sphere kernel is the classical rotation-invariant closed form.

``green_field`` materializes a grid sample (exactly de-meaned under the
discrete quadrature); ``*_eval`` are the pointwise closed forms, without
that shift.  The independent routes the tests check them against (the
Ewald split of the torus kernel and the quadrature pairings of the Green
representation) live in ``tests/oracles.py``.
"""

from __future__ import annotations

import math

import numpy as np

from .surface import VOL

__all__ = [
    "green_field",
    "torus_green_theta_eval",
    "sphere_green_eval",
]


# --- theta-function closed form ----------------------------------------------

_THETA_N = np.arange(8)
_THETA_A = (2 * _THETA_N + 1) * np.pi
_THETA_C = 2.0 * (-1.0) ** _THETA_N * np.exp(-np.pi) ** ((_THETA_N + 0.5) ** 2)
# zero-mean constant log(eta(i))/2pi, with eta(i) = Gamma(1/4) / (2 pi^(3/4))
_THETA_CONST = math.log(math.gamma(0.25) / (2.0 * math.pi**0.75)) / (2.0 * math.pi)


def _log_abs_theta1(dx, dy):
    """log |theta1(pi (dx + i dy), q=e^-pi)| by its 8-term sine series.  Each
    term splits as sin(ax) cosh(ay) + i cos(ax) sinh(ay) into factor tables of
    shapes dx.shape + (8,) and dy.shape + (8,); einsum, not BLAS, sums them."""
    ax = np.multiply.outer(dx, _THETA_A)
    ay = np.multiply.outer(dy, _THETA_A)
    re = np.einsum("...k,...k->...", np.sin(ax), _THETA_C * np.cosh(ay))
    im = np.einsum("...k,...k->...", np.cos(ax), _THETA_C * np.sinh(ay))
    mag = np.hypot(re, im)
    return np.log(np.where(mag == 0.0, np.finfo(float).tiny, mag))


def torus_green_theta_eval(p, x, y):
    """Torus kernel G(x, p) = -(1/2pi)(log|theta1| - pi Im(z)^2) + C.

    x and y broadcast: grid axes (n, 1) and (1, n) give the (n, n) field from
    4*8*n transcendentals.  Displacements are wrapped to [-1/2, 1/2), where
    the 8-term series is accurate to rounding; C is the zero-mean constant.
    """
    dx, dy = np.asarray(x) - p[0], np.asarray(y) - p[1]
    dx, dy = dx - np.floor(dx + 0.5), dy - np.floor(dy + 0.5)
    return -(_log_abs_theta1(dx, dy) - np.pi * dy**2) / (2.0 * np.pi) + _THETA_CONST


# --- sphere -----------------------------------------------------------------


def sphere_green_eval(cos_angle):
    """Rotation-invariant kernel on the area-2pi sphere as a function of the
    central angle: G = -(1/4pi) [log((1 - cos)/2) + 1]."""
    c = np.clip(np.asarray(cos_angle, dtype=np.float64), -1.0, 1.0)
    arg = 0.5 * (1.0 - c)
    arg = np.where(arg == 0.0, np.finfo(float).tiny, arg)
    return -(np.log(arg) + 1.0) / (4.0 * np.pi)


# --- field materialization ----------------------------------------------------


def green_field(surface, p):
    """Sampled kernel G(., p), de-meaned exactly under discrete quadrature."""
    if surface.backend == "torus":
        vals = torus_green_theta_eval(p, surface.X[:, :1], surface.Y[:1, :])
    else:
        vals = sphere_green_eval(surface.cos_angle_field(p))
    return vals - surface.integrate(vals) / VOL
