"""Green's functions of the shifted Laplacian contract lap G(.,p) = delta_p - 1/Vol.

The kernel is normalized to zero mean and carries the universal short-range
behaviour G ~ -(1/2pi) log dist.  The torus kernel is the Jacobi-theta closed
form G = -(1/2pi)(log|theta1(pi z)| - pi (Im z)^2) + C with the analytic
zero-mean constant C = log(eta(i))/2pi (Lin & Wang, Ann. Math. 2010), its
sine series (DLMF 20.2) evaluated separably from 1-D factor tables; an Ewald
split (Gaussian-screened mode sum plus exponential-integral lattice images)
is kept as the independent oracle that tests compare it against.
The sphere kernel is the classical rotation-invariant closed form.

``green_field`` materializes a grid sample (exactly de-meaned under the
discrete quadrature); ``*_eval`` are the pointwise closed-form evaluators.
``green_pair_*`` evaluate integral G(p,.) g omega0 for band-limited g to
near machine accuracy by splitting off the singular part and integrating it
in polar coordinates; this is what makes the Green-representation identity
testable at 1e-8 without circular use of the spectral solver.
"""

from __future__ import annotations

import math

import numpy as np

from .surface import VOL, Torus

__all__ = [
    "green_field",
    "torus_green_eval",
    "torus_green_theta_eval",
    "sphere_green_eval",
    "green_pair_modes",
]

_EWALD_ETA = 3.0
_EWALD_KMAX = 8
_EWALD_RMAX = 2


def _torus_green_ewald(dx, dy, eta=_EWALD_ETA):
    from scipy.special import exp1

    dx = np.asarray(dx, dtype=np.float64)
    dy = np.asarray(dy, dtype=np.float64)
    out = np.full(dx.shape, -1.0 / (4.0 * eta**2))
    ks = np.arange(-_EWALD_KMAX, _EWALD_KMAX + 1)
    for kx in ks:
        for ky in ks:
            k2 = kx * kx + ky * ky
            if k2 == 0:
                continue
            damp = np.exp(-np.pi**2 * k2 / eta**2)
            if damp < 1e-18:
                continue
            out += (damp / (4.0 * np.pi**2 * k2)) * np.cos(
                2.0 * np.pi * (kx * dx + ky * dy)
            )
    for rx in range(-_EWALD_RMAX, _EWALD_RMAX + 1):
        for ry in range(-_EWALD_RMAX, _EWALD_RMAX + 1):
            r2 = (dx - rx) ** 2 + (dy - ry) ** 2
            out += exp1(eta**2 * r2) / (4.0 * np.pi)
    return out


def torus_green_eval(p, dx, dy=None):
    """Ewald evaluation of the torus kernel G(x, p) (the oracle route).

    Call as torus_green_eval(p, X, Y) with absolute coordinates, or with
    p=None and precomputed displacements.
    """
    if dy is None:
        raise TypeError("torus_green_eval needs two coordinate arrays")
    if p is not None:
        dx = np.asarray(dx) - p[0]
        dy = np.asarray(dy) - p[1]
    return _torus_green_ewald(dx, dy)


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
    """Sampled kernel G(., p), de-meaned exactly under discrete quadrature.

    Returns (values, evaluator) where evaluator(x...) is the analytic
    closed form (torus: evaluator(X, Y); sphere: evaluator(cos_angle)).
    """
    if surface.backend == "torus":
        vals = torus_green_theta_eval(p, surface.X[:, :1], surface.Y[:1, :])
        shift = surface.integrate(vals) / VOL
        evaluator = lambda X, Y, s=shift: torus_green_theta_eval(p, X, Y) - s  # noqa: E731
    else:
        vals = sphere_green_eval(surface.cos_angle_field(p))
        shift = surface.integrate(vals) / VOL
        evaluator = lambda cosang, s=shift: sphere_green_eval(cosang) - s  # noqa: E731
    return vals - shift, evaluator


# --- accurate pairing against band-limited fields ---------------------------


def green_pair_modes(surface, p, modes, laplacian=False):
    """integral G(p,.) g omega0 for g given in band-limited mode form.

    Used by the Green-representation check: with g = lap f the result must
    equal f(p) - mean(f)/Vol * ... i.e. f(p) - (1/2pi) integral f omega0.
    The singular short-range part is integrated in polar coordinates with an
    adaptive radial quadrature, so no accuracy is lost to the log singularity.
    """
    if isinstance(surface, Torus):
        return _pair_torus(surface, p, modes, laplacian)
    return _pair_sphere(surface, p, modes, laplacian)


def _pair_torus(surface, p, modes, laplacian):
    from scipy.integrate import quad
    from scipy.special import exp1

    eta, kmax = _EWALD_ETA, _EWALD_KMAX
    # mode part: sum over screened k-lattice against the Fourier data of g
    total = 0.0
    for mkx, mky, a, b in modes:
        k2 = mkx * mkx + mky * mky
        if k2 == 0:
            continue
        scale = 2.0 * np.pi * k2 if laplacian else 1.0
        damp = np.exp(-np.pi**2 * k2 / eta**2) if k2 <= 2 * kmax**2 else 0.0
        phase = 2.0 * np.pi * (mkx * p[0] + mky * p[1])
        # integral over cell of cos/sin mode against e^{2 pi i k.(x-p)} kernel part
        total += (
            VOL
            * scale
            * (damp / (4.0 * np.pi**2 * k2))
            * (a * np.cos(phase) + b * np.sin(phase))
        )

    # constant part of the kernel integrates against the (zero) mode mean
    # real-space screened part in polar coordinates
    ntheta = 128
    ang = 2.0 * np.pi * np.arange(ntheta) / ntheta

    def ring_mean(rho):
        X = p[0] + rho * np.cos(ang)
        Y = p[1] + rho * np.sin(ang)
        vals = surface.eval_modes(modes, X, Y, laplacian=laplacian)
        return float(np.mean(vals))

    def radial(rho):
        if rho == 0.0:
            return 0.0
        return float(exp1(eta**2 * rho**2)) * ring_mean(rho) * rho

    rmax_eff = np.sqrt(40.0) / eta  # exp1 below 1e-19 beyond this radius
    val, _ = quad(radial, 0.0, rmax_eff, limit=200, epsabs=1e-13, epsrel=1e-12)
    total += np.pi * val
    return total


def _pair_sphere(surface, p, modes, laplacian):
    from scipy.integrate import quad

    r = surface.r
    u = surface.unit_point(p)
    # orthonormal frame perpendicular to u
    a = np.array([0.0, 0.0, 1.0])
    if abs(u @ a) > 0.9:
        a = np.array([1.0, 0.0, 0.0])
    e1 = np.cross(u, a)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(u, e1)
    ntheta = 128
    psi = 2.0 * np.pi * np.arange(ntheta) / ntheta

    def ring_mean(ang):
        pts = (
            np.cos(ang) * u[None, :]
            + np.sin(ang)
            * (np.cos(psi)[:, None] * e1[None, :] + np.sin(psi)[:, None] * e2[None, :])
        )
        th = np.arccos(np.clip(pts[:, 2], -1.0, 1.0))
        ph = np.arctan2(pts[:, 1], pts[:, 0])
        vals = surface.eval_modes_points(modes, th, ph, laplacian=laplacian)
        return float(np.mean(vals))

    def radial(ang):
        if ang == 0.0:
            return 0.0
        g = float(sphere_green_eval(np.cos(ang)))
        return g * ring_mean(ang) * np.sin(ang)

    val, _ = quad(radial, 0.0, np.pi, limit=200, epsabs=1e-13, epsrel=1e-12)
    return r**2 * 2.0 * np.pi * val
