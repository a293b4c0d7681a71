"""Independent routes that the tests check the package against.

No command runs any of these; each is the reference side of a named test:
- the Ewald split of the torus Green kernel (Gaussian-screened mode sum plus
  exponential-integral lattice images), against the theta series of
  ``greens``;
- ``green_pair_modes``, integral G(p,.) g omega0 for band-limited g to near
  machine accuracy: the singular part is split off and integrated in polar
  coordinates, which makes the Green-representation identity testable at
  1e-8 without circular use of the spectral solver;
- the off-grid mode evaluators and the reference Legendre recurrences of the
  surface transforms, the Dirichlet pairing and the farthest grid node;
- the finite-difference check of the coupled Jacobian, through ``grid_jacobian``
  (lap + K composed on the grid, with the K that GMRES runs), and the
  log-log slope at a regular point of the smoothing ladder.

They are the only code that needs scipy, which is why scipy is a test
dependency and not one of the package.
"""

import numpy as np
from scipy.integrate import quad
from scipy.special import exp1

from vortexlab.coupled import residual
from vortexlab.greens import sphere_green_eval
from vortexlab.singular import _slope_fit
from vortexlab.surface import VOL, Torus, _legendre_diagonals

# --- torus Green kernel by Ewald summation -----------------------------------

_EWALD_ETA = 3.0
_EWALD_KMAX = 8
_EWALD_RMAX = 2


def _torus_green_ewald(dx, dy, eta=_EWALD_ETA):
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
        vals = torus_eval_modes(modes, X, Y, laplacian=laplacian)
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
        vals = sphere_eval_modes(modes, th, ph, laplacian=laplacian)
        return float(np.mean(vals))

    def radial(ang):
        if ang == 0.0:
            return 0.0
        g = float(sphere_green_eval(np.cos(ang)))
        return g * ring_mean(ang) * np.sin(ang)

    val, _ = quad(radial, 0.0, np.pi, limit=200, epsabs=1e-13, epsrel=1e-12)
    return r**2 * 2.0 * np.pi * val


# --- band-limited fields off the grid ----------------------------------------


def torus_eval_modes(modes, X, Y, laplacian=False):
    """A torus mode list of ``random_bandlimited`` (or its Laplacian) at any
    points (X, Y); at the grid nodes it is ``Torus.eval_modes``."""
    out = np.zeros_like(np.asarray(X, dtype=np.float64))
    for kx, ky, a, b in modes:
        phase = 2.0 * np.pi * (kx * X + ky * Y)
        term = a * np.cos(phase) + b * np.sin(phase)
        if laplacian:
            term = term * (2.0 * np.pi * (kx**2 + ky**2))
        out += term
    return out


def sphere_eval_modes(modes, theta, phi, laplacian=False):
    """A sphere mode list of ``random_bandlimited`` (or its Laplacian) at any
    colatitudes theta and longitudes phi."""
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    phi = np.atleast_1d(np.asarray(phi, dtype=np.float64))
    mu = np.cos(theta)
    out = np.zeros_like(mu)
    for l, m, a, b in modes:
        scale = 2.0 * l * (l + 1.0) if laplacian else 1.0
        plm = _legendre_point(l, m, mu)
        y = plm * np.exp(1j * m * phi) / np.sqrt(2.0 * np.pi)
        if m == 0:
            out += scale * a * y.real
        else:
            out += scale * (a * y.real + b * y.imag)
    return out


def _legendre_table(L, mu):
    """Normalized associated Legendre tensor P[m, i, l] with unit L2 norm on
    [-1, 1]; zero entries for l < m."""
    P = np.zeros((L + 1, len(mu), L + 1))
    for k, row in _legendre_diagonals(L, mu):
        m = np.arange(L + 1 - k)
        P[m, :, m + k] = row
    return P


def _legendre_point(l, m, mu):
    """Normalized P_l^m at arbitrary mu (vectorized)."""
    mu = np.asarray(mu, dtype=np.float64)
    s = np.sqrt(np.clip(1.0 - mu**2, 0.0, None))
    pmm = np.full_like(mu, 1.0 / np.sqrt(2.0))
    for k in range(m):
        pmm = pmm * (-np.sqrt((2.0 * k + 3.0) / (2.0 * k + 2.0))) * s
    if l == m:
        return pmm
    pm1 = np.sqrt(2.0 * m + 3.0) * mu * pmm
    if l == m + 1:
        return pm1
    for ll in range(m + 2, l + 1):
        a = np.sqrt((4.0 * ll * ll - 1.0) / (ll * ll - m * m))
        b = np.sqrt(((ll - 1.0) ** 2 - m * m) / (4.0 * (ll - 1.0) ** 2 - 1.0))
        pmm, pm1 = pm1, a * (mu * pm1 - b * pmm)
    return pm1


# --- geometry and calculus probes ---------------------------------------------


def farthest_grid_index(surface, p):
    d = surface.distance_field(p)
    return np.unravel_index(np.argmax(d), surface.shape)


def gradient_pairing(surface, f, g):
    """Dirichlet pairing <f, lap g> under quadrature.

    Equals 2 * integral of |grad^{1,0} f|^2 when f == g (under the
    positive-spectrum sign convention), and the polarized bilinear form
    otherwise.
    """
    lf = surface.laplacian(f)
    lg = surface.laplacian(g)
    return 0.5 * (surface.integrate(f * lg) + surface.integrate(g * lf))


# --- the coupled Jacobian and the smoothing ladder ----------------------------


def grid_jacobian(surface, coefficients, df, du):
    """J (df, du) = (lap df, lap du) + K (df, du) on the grid, where
    K = [[c1, c2 lap], [c3, c4]] for the four coefficient fields
    ``coefficients`` = (c1, c2, c3, c4), those of ``solve_block_newton_step``."""
    c1, c2, c3, c4 = coefficients
    lap_df, lap_du = surface.laplacian(df), surface.laplacian(du)
    return lap_df + (c1 * df + c2 * lap_du), lap_du + (c3 * df + c4 * du)


def fd_jacobian_gap(problem, alpha, f, u, seed=0):
    """Relative gap between the Residual's linearization (``grid_jacobian``
    over its coefficient fields, those that GMRES runs) and central finite
    differences."""
    s, step = problem.surface, 1e-6
    rng = np.random.default_rng(seed)
    df, _ = s.random_bandlimited(rng, kmax=4, nmodes=5, amp=1.0)
    du, _ = s.random_bandlimited(rng, kmax=4, nmodes=5, amp=1.0)
    df /= max(1e-30, float(np.max(np.abs(df))))
    du /= max(1e-30, float(np.max(np.abs(du))))
    J1, J2 = grid_jacobian(s, residual(problem, alpha, f, u).coefficients,
                           df, du)
    P1, P2 = residual(problem, alpha, f + step * df, u + step * du)
    M1, M2 = residual(problem, alpha, f - step * df, u - step * du)
    fd1 = (P1 - M1) / (2.0 * step)
    fd2 = (P2 - M2) / (2.0 * step)
    scale = max(float(np.max(np.abs(J1))), float(np.max(np.abs(J2))), 1e-30)
    gap = max(float(np.max(np.abs(fd1 - J1))), float(np.max(np.abs(fd2 - J2))))
    return gap / scale


def regular_point_slope(surface, state, point):
    """Radial log-log slope of the metric density on the annulus 4h..16h
    around a smooth point (control: should vanish)."""
    r_in, r_out = 4.0 * surface.h, 16.0 * surface.h
    rho = 1.0 - surface.laplacian(state.u)
    y = np.log(np.maximum(rho, 1e-300))
    d = surface.distance_field(point)
    coord = np.log(np.maximum(d, 1e-300))
    slope, n, ok = _slope_fit(surface, y, coord, point, r_in, r_out)
    return slope if ok else np.nan
