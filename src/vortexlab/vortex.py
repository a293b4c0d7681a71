"""The two decoupled problems: twisted vortices and the twisted
Kaehler-Einstein potential.

The vortex solver works at the level of the single semilinear equation

    lap f + (1/2) * coeff * e^{2f} + Q = 0

which covers both the base (constant-curvature-background) solve and the
re-centered twist path, as well as the vortex equation over a conformal
metric density rho = 1 - lap(u) used to seed the coupled continuation.
Solvability requires integral of coeff*e^{2f} to balance -2*integral(Q) > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceFailure, NoSolutionExpected
from .solvers import newton, solve_helmholtz, walk
from .surface import VOL

__all__ = [
    "VortexProblem",
    "make_vortex_problem",
    "vortex_residual",
    "solve_vortex",
    "solve_exp_scalar",
    "solve_vortex_on_metric",
    "solve_twisted_ke",
]

_MAX_NEWTON = 60  # Newton iterations of a scalar solve


def solve_exp_scalar(surface, coeff, Q, f0=None, tol=1e-10, log=None):
    """Damped Newton for lap f + (1/2) coeff e^{2f} + Q = 0 (coeff >= 0).
    Each correction's CG runs to the forcing term ``newton`` passes."""
    if float(surface.integrate(Q)) >= 0.0:
        raise NoSolutionExpected(
            "no balancing mass: integral of the fixed part must be negative"
        )

    def residual(x):
        return (surface.laplacian(x[0]) + 0.5 * coeff * np.exp(2.0 * x[0]) + Q,)

    def correct(x, r, rtol):
        return (solve_helmholtz(surface, coeff * np.exp(2.0 * x[0]), r[0],
                                rtol),)

    x0 = np.zeros(surface.shape) if f0 is None else f0
    return newton(surface, residual, correct, (x0,), tol, _MAX_NEWTON, tol,
                  log)[0][0]


def solve_vortex_on_metric(surface, weight, tau, rho, source, tol=1e-10,
                           log=None):
    """Solve lap f + (1/2)(weight e^{2f} - tau) rho + source = 0.

    This is the vortex equation over the metric density rho (mean 1) with
    zeroth-order source; existence requires tau > 2*source.
    """
    if tau <= 2.0 * source:
        raise NoSolutionExpected(
            f"existence condition violated: tau={tau} must exceed 2*{source}"
        )
    Q = -0.5 * tau * rho + source
    return solve_exp_scalar(surface, weight * rho, Q, tol=tol, log=log)


@dataclass
class VortexProblem:
    """Twist-path data: base field Phi0 (the t=0 solution-normalized weight),
    tau, twist (b, F) with F mean-free, and the path parameter t."""

    surface: object
    phi0_sq: np.ndarray
    tau: float
    b: float = 0.0
    F: np.ndarray | None = None
    t: float = 1.0

    def twist_term(self, t=None):
        if self.F is None:
            return np.zeros(self.surface.shape)
        t = self.t if t is None else t
        return 0.5 * t * self.surface.laplacian(self.F)


def make_vortex_problem(surface, weight_raw, tau, N, b=0.0, F=None, t=1.0,
                        log=None):
    """Solve the base vortex equation (twist bw only) and re-center.

    weight_raw is |phi|^2 under the constant-curvature reference metric.
    The returned problem has residual identically zero at f = 0, t = 0.
    The base solve's Newton iterations go to ``log`` if given.
    """
    if tau <= 2.0 * (N - b):
        raise NoSolutionExpected(
            f"existence condition violated: tau*Vol/2pi = {tau} "
            f"must exceed 2(N - b) = {2.0 * (N - b)}"
        )
    if F is not None:
        fbar = surface.integrate(F) / VOL
        if abs(fbar) > 1e-10 * max(1.0, float(np.max(np.abs(F)))):
            raise ConfigError("twist potential F must be mean-free")
    f0 = solve_vortex_on_metric(
        surface, weight_raw, tau, np.ones(surface.shape), float(N - b),
        tol=1e-10, log=log,
    )
    phi0_sq = weight_raw * np.exp(2.0 * f0)
    return VortexProblem(surface=surface, phi0_sq=phi0_sq, tau=tau, b=b, F=F,
                         t=t)


def vortex_residual(problem, f):
    """lap f + (1/2) Phi0 (e^{2f} - 1) + (1/2) lap(t F)."""
    s = problem.surface
    return (
        s.laplacian(f)
        + 0.5 * problem.phi0_sq * (np.exp(2.0 * f) - 1.0)
        + problem.twist_term()
    )


def solve_vortex(problem, f_init=None, tol=1e-10, log=None):
    """Solve the twist path at t = problem.t.

    Direct damped Newton first; on failure, a ``walk`` in t from 0 in
    steps of 1/4, halved down to 1/64.  Returns f with ||residual||_inf <
    tol; the Newton iterations go to ``log`` if given.
    """
    s = problem.surface

    def solve_at(t, f0):
        Q = -0.5 * problem.phi0_sq + problem.twist_term(t)
        return solve_exp_scalar(s, problem.phi0_sq, Q, f0=f0, tol=tol,
                                log=log)

    try:
        return solve_at(problem.t, f_init)
    except ConvergenceFailure:
        f = np.zeros(s.shape)
    for _, f in walk(solve_at, 0.0, f, problem.t, 0.25, 1.0 / 64.0):
        pass
    return f


def solve_twisted_ke(surface, chi_tilde, F_xi, t=1.0, u_init=None, tol=1e-10,
                     log=None):
    """Solve the conformal-potential equation 1 - lap u = e^{-2 t chi~ u - t F}.

    Requires chi~ < 0 and t >= 0 (for a nonnegative linearization); every
    iterate keeps 1 - lap u > 0 (the residual refuses the others). Each
    correction's CG runs to the forcing term ``newton`` passes.
    """
    if chi_tilde >= 0.0 or t < 0.0:
        raise ConfigError("twisted KE solve requires chi_tilde < 0 and "
                          f"t >= 0, got chi_tilde = {chi_tilde}, t = {t}")

    def residual(x):
        lap = surface.laplacian(x[0])
        if float(np.min(1.0 - lap)) <= 0.0:
            return None
        return (lap + np.exp(-2.0 * t * chi_tilde * x[0] - t * F_xi) - 1.0,)

    def correct(x, r, rtol):
        E = np.exp(-2.0 * t * chi_tilde * x[0] - t * F_xi)
        return (solve_helmholtz(surface, -2.0 * t * chi_tilde * E, r[0],
                                rtol),)

    u0 = np.zeros(surface.shape) if u_init is None else u_init
    return newton(surface, residual, correct, (u0,), tol, _MAX_NEWTON, tol,
                  log)[0][0]
