"""Coupled system solver: Newton continuation in the coupling constant.

Unknowns are the potentials (f~, u) of the second-order system

    S1 = lap f~ + (1/2)(Phi - tau)(1 - lap u) + N~            = 0
    S2 = lap u + W exp(4 a tau f~ - 2 a Phi - 2 c~ u) - 1     = 0

with Phi = weight_t * e^{2 f~},  weight_t = |phi|^2 e^{-F_eta},  W = e^{-F_xi}
for the smoothed twisting forms F_xi = sum_j (1 - beta_j) log(|s_j|^2 + eps),
F_eta = -sum_k a_k log(|t_k|^2 + eps),  and c~ = chi~ - 2 a tau N~.

The alpha = 0 state decouples into a twisted-KE solve for u and a vortex
solve for f~ over the metric density 1 - lap u; continuation then walks a
fixed alpha grid with adaptive step halving, each step accepted only once
both residuals are below tolerance and the metric stays positive.  Each
step's Newton solve starts from the cubic through the (f~, u) of the last
four accepted states (``solvers.walk``), and each Newton correction's GMRES
and CG solves run to the forcing term of its residual (``solvers.forcing``).
Each residual carries the Jacobian's coefficient fields
(``Residual.coefficients``), its one description: GMRES applies them on
the grid, and its preconditioner is built from them, two-level on the
torus, with the low Fourier modes solved exactly, and the model system's
symbol on the sphere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ConvergenceFailure
from .fields import build_divisor_fields, derive_params
from .solvers import (ACCEPT_TOL, damped_step, forcing, merit, newton,
                      solve_block_newton_step, sup_norm, walk)
from .vortex import solve_twisted_ke, solve_vortex_on_metric

__all__ = ["GVProblem", "SolveState", "Residual", "make_problem", "residual",
           "newton_step", "accepted_state", "solve_at_alpha", "decoupled_state",
           "continue_alpha", "solve_path"]

MAX_NEWTON = 40  # Newton iterations per alpha before the step is halved
# a Newton trial whose merit is below (_MERIT_FACTOR * tol)^2 needs no descent
_MERIT_FACTOR = 1e-2


@dataclass
class GVProblem:
    """Frozen problem data for one (surface, divisor, tau, eps) configuration.

    It holds the two fields that every residual reads, not F_xi and F_eta:
    the decoupled solve and the certificate build those where they read
    them (``fields.F_xi(eps)``, ``fields.F_eta(eps)``)."""

    surface: object
    fields: object                 # DivisorFields
    params: object                 # ModelParams
    W: np.ndarray                  # e^{-F_xi}
    weight_t: np.ndarray           # |phi|^2 e^{-F_eta}

    @property
    def tau(self):
        return self.params.tau

    @property
    def eps(self):
        return self.params.epsilon


@dataclass
class SolveState:
    """Accepted solution snapshot along the continuation path."""

    alpha: float
    c_tilde: float
    f_tilde: np.ndarray
    u: np.ndarray
    Phi: np.ndarray
    res1: np.ndarray
    res2: np.ndarray
    newton_log: list = field(default_factory=list)

    @property
    def res_norm(self):
        return sup_norm((self.res1, self.res2))


def make_problem(surface, divisor, tau, eps, fields=None):
    """The problem at one smoothing level; ``fields`` are the divisor fields
    of (surface, divisor) if already built (they do not depend on eps)."""
    if fields is None:
        fields = build_divisor_fields(surface, divisor)
    params = derive_params(divisor, surface, tau, epsilon=eps)
    return GVProblem(surface=surface, fields=fields, params=params,
                     W=np.exp(-fields.F_xi(eps)),
                     weight_t=np.exp(fields.log_phi_sq - fields.F_eta(eps)))


class Residual(tuple):
    """The pair (S1, S2) at an iterate, carrying the Jacobian there as the
    four coefficient fields of K = [[c1, c2 lap], [c3, c4]], where
    J = diag(lap, lap) + K (``coefficients``): c1 = Phi rho, c2 =
    (1/2)(tau - Phi), c3 = 4 alpha (tau - Phi) E and c4 = -2 c~ E, with
    rho = 1 - lap u and E the exponential factor of S2. They are formed
    from the residual's own intermediates, so a Newton step from this
    iterate computes none of them again. The step's block solve
    (``solvers.solve_block_newton_step``) consumes S1 and S2: it works in
    their buffers once it holds their coefficients."""

    def __new__(cls, S1, S2, coefficients):
        res = super().__new__(cls, (S1, S2))
        res.coefficients = coefficients
        return res


def residual(problem, alpha, f_tilde, u):
    """(S1, S2) at the given alpha, with c~ = problem.params.c_tilde(alpha)."""
    return _residual(problem, alpha, f_tilde, u, problem.params.c_tilde(alpha),
                     problem.surface.laplacian(u))


def _residual(problem, alpha, f_tilde, u, c_tilde, lap_u):
    """(S1, S2) given lap u, whose buffer S2 takes. K's coefficient fields
    c1, c2 and c4 take the buffers of rho, Phi and E once S1 and S2 have
    read them; c3, the one field more, is allocated first, so that it takes
    the place of a field freed before the call, not one above this call's
    temporaries (with c3 last, a 256^2 `sweep-eps` peaks ~1 MiB higher)."""
    c3 = np.empty_like(f_tilde)
    Phi = problem.weight_t * np.exp(2.0 * f_tilde)
    E = problem.W * np.exp(
        4.0 * alpha * problem.tau * f_tilde - 2.0 * alpha * Phi - 2.0 * c_tilde * u
    )
    np.subtract(problem.tau, Phi, out=c3)
    c3 *= 4.0 * alpha
    c3 *= E
    rho = 1.0 - lap_u
    S1 = (
        problem.surface.laplacian(f_tilde)
        + 0.5 * (Phi - problem.tau) * rho
        + problem.params.N_tilde
    )
    S2 = np.add(lap_u, E, out=lap_u)
    S2 -= 1.0
    c1 = np.multiply(rho, Phi, out=rho)
    c2 = np.subtract(problem.tau, Phi, out=Phi)
    c2 *= 0.5
    c4 = np.multiply(E, -2.0 * c_tilde, out=E)
    return Residual(S1, S2, (c1, c2, c3, c4))


def _newton_system(problem, alpha):
    """``solvers.newton``'s residual (a Residual, None where 1 - lap u > 0
    fails) and correction on (f~, u) at alpha, and the list of the GMRES
    iterations of each correction."""
    s, c_tilde, krylov = problem.surface, problem.params.c_tilde(alpha), []

    def res_fn(x):
        lap_u = s.laplacian(x[1])
        if float(np.min(1.0 - lap_u)) <= 0.0:
            return None
        return _residual(problem, alpha, *x, c_tilde, lap_u)

    def correct(x, res, rtol):
        df, du, nk = solve_block_newton_step(s, res.coefficients, *res,
                                             rtol=rtol)
        krylov.append(nk)
        return df, du

    return res_fn, correct, krylov


def newton_step(problem, alpha, f_tilde, u):
    """One damped Newton step (``solvers.damped_step``), keeping 1 - lap u > 0,
    whose GMRES runs to the forcing term of ``solve_at_alpha``'s first step
    at the default tolerance ``solvers.ACCEPT_TOL``.
    Returns (f~', u', residual' (a Residual), step_size, krylov_iterations)."""
    res_fn, correct, krylov = _newton_system(problem, alpha)
    res = residual(problem, alpha, f_tilde, u)
    rn = sup_norm(res)
    (f, u), trial, _, step = damped_step(
        problem.surface, res_fn,
        functools.partial(correct, rtol=forcing(rn, ACCEPT_TOL)),
        (f_tilde, u), res, merit(problem.surface, res),
        ACCEPT_TOL * _MERIT_FACTOR, [rn])
    return f, u, trial, step, krylov[0]


def accepted_state(problem, alpha, f_tilde, u, res=None, newton_log=None):
    """The SolveState of (f~, u) at alpha, built by the solve and the
    ``verify`` path alike; ``res`` is the Residual there if the caller has
    it."""
    if res is None:
        res = residual(problem, alpha, f_tilde, u)
    S1, S2 = res
    return SolveState(alpha=alpha, c_tilde=problem.params.c_tilde(alpha),
                      f_tilde=f_tilde, u=u,
                      Phi=problem.weight_t * np.exp(2.0 * f_tilde),
                      res1=S1, res2=S2,
                      newton_log=[] if newton_log is None else newton_log)


def solve_at_alpha(problem, alpha, f_init, u_init, *, tol):
    """Newton loop (``solvers.newton``) at fixed alpha from the given
    initial pair to a residual sup norm below tol; the state's newton_log
    has one record per accepted step."""
    res_fn, correct, krylov = _newton_system(problem, alpha)
    log = []
    (f, u), res = newton(problem.surface, res_fn, correct, (f_init, u_init),
                         tol, MAX_NEWTON, tol * _MERIT_FACTOR, log)
    steps = [{"alpha": alpha, "step": a["step"], "krylov": nk,
              "residual_inf": b["residual_inf"], "time": b["time"]}
             for a, b, nk in zip(log, log[1:], krylov)]
    return accepted_state(problem, alpha, f, u, res, steps)


def decoupled_state(problem, *, tol):
    """alpha = 0 state from the two decoupled solves, accepted below tol.

    u solves the twisted-KE equation with twist F_xi; f~ solves the vortex
    equation over the resulting metric density with source N~; both are
    scalar solves accepted at tol (``vortex`` runs them to
    ``solvers.INNER_FACTOR`` times it).
    """
    s = problem.surface
    if problem.params.chi_tilde >= 0.0:
        raise ConfigError(
            "decoupled endpoint needs chi_tilde < 0 "
            f"(got {problem.params.chi_tilde}); add cone weight"
        )
    u = solve_twisted_ke(s, problem.params.chi_tilde,
                         problem.fields.F_xi(problem.eps), tol=tol)
    rho = 1.0 - s.laplacian(u)
    f = solve_vortex_on_metric(s, problem.weight_t, problem.tau, rho,
                               problem.params.N_tilde, tol=tol)
    state = accepted_state(problem, 0.0, f, u)
    if state.res_norm >= tol:
        raise ConvergenceFailure(
            f"decoupled endpoint residual {state.res_norm:.2e} above {tol:g}"
        )
    return state


def continue_alpha(problem, state0, alpha_target, n_steps=16, *, tol):
    """Continuation (``solvers.walk``) from the accepted alpha=0 state to
    alpha_target.

    Fixed alpha grid with adaptive halving; the minimum step is
    alpha_star/1024.  Each step's Newton solve starts from the cubic in
    alpha through the (f~, u) of the last four accepted states, so the
    start is close to the next state on a smooth path, and every state is
    still accepted by the residual test, a sup norm below tol.  Yields
    each accepted state in turn (the start first), whole; the walk keeps
    the (f~, u) of its last states and no state, the start included.  A
    refused target or start raises before the first.  Raises PathStalled
    with the last good alpha on failure.
    """
    astar = problem.params.alpha_star
    if alpha_target != 0.0 and not (np.isfinite(astar)
                                    and alpha_target <= astar + 1e-12):
        raise ConfigError(
            f"alpha_target {alpha_target} outside the certified range "
            f"(alpha_star = {astar})"
        )
    if alpha_target != 0.0 and state0.res_norm >= tol:
        raise ConfigError("starting state is not residual-accepted")

    def solve(alpha, start):
        return solve_at_alpha(problem, alpha, *start, tol=tol)

    path = walk(solve, state0.alpha, state0, alpha_target,
                (alpha_target - state0.alpha) / n_steps, astar / 1024.0,
                lambda st: (st.f_tilde, st.u))
    yield state0
    del state0
    for _, st in path:
        yield st
        del st


def solve_path(problem, alpha_target, n_steps, *, tol, start=None):
    """(state at alpha_target, path, steps): ``path`` has one record per
    state solved, ``steps`` their Newton records.  From ``start`` = (f~, u)
    it tries one ``solve_at_alpha`` at the target first; without a start,
    or if that fails, it walks from the decoupled state, holding each state
    as (alpha, f~, u) through the next solve, which reads no more, and
    builds the last one whole again (``accepted_state``, bit for bit)."""
    path, steps = [], []

    def record(st):
        path.append({"alpha": st.alpha, "c_tilde": st.c_tilde,
                     "residual": st.res_norm,
                     "newton_steps": len(st.newton_log)})
        steps.extend(st.newton_log)

    if start is not None:
        try:
            state = solve_at_alpha(problem, alpha_target, *start, tol=tol)
            record(state)
            return state, path, steps
        except ConvergenceFailure:
            pass
    for st in continue_alpha(problem, decoupled_state(problem, tol=tol),
                             alpha_target, n_steps=n_steps, tol=tol):
        record(st)
        at, st = (st.alpha, st.f_tilde, st.u), None
    return accepted_state(problem, *at), path, steps
