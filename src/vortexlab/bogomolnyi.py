"""Bogomol'nyi phase: the combined c~ = 0 equation solved by monotone
iteration under a constructed supersolution.

With a*tau = chi~ / (2 N~) the coupled system collapses to one equation

    lap f + (1/2) lam e^{-v0^d} F(2 f + u0^d) = -N~,
    F(t) = e^{2 a tau t - 2 a e^t} (e^t - tau),

for the regularized potentials u0^d, v0^d.  The scheme: build a cutoff
supersolution w (quintic radial ramp around every marked point), search the
smallest admissible lam at the d = 1 endpoint (where the inequality is
tightest, by monotonicity of every factor in d), then iterate

    (lap + C_n) f_{n+1} = -(1/2) lam e^{-v0^d} F(2 f_n + u0^d) + C_n f_n - N~

downward from f_1 = (log tau - u0^d)/2, asserting the pointwise chain
f_1 > f_2 > ... > w at every step.  The shift C_n = 1 + lam max(0, max_x
e^{-v0^d} F'(2 f_n + u0^d)) bounds the slope of the nonlinearity on the
order interval [w, f_n]: for T <= log tau the sup of F' below T is
max(0, F'(T)).  The admissibility checker evaluates the
per-singularity-class inequalities (the seven membership cases) that make
e^{-v0} p-integrable for some p > 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import AssumptionNotSatisfied, ConfigError, ConvergenceFailure
from .fields import build_divisor_fields, derive_params, smoothed_log
from .surface import VOL, mask_away_from_points

__all__ = [
    "EBProblem",
    "Rung",
    "NAReport",
    "make_eb_problem",
    "F_nonlinearity",
    "F_prime",
    "check_numerical_assumption",
    "build_supersolution",
    "supersolution_margin",
    "monotone_iterate",
    "eb_residual",
    "delta_ladder_and_assemble",
]

# the default change tolerance of the monotone chain: the last delta rung
# stops once its sup change falls below it (solve-eb's
# ``tolerances.residual``; it lives here, not with the other defaults in
# ``solvers``, which solve-eb never loads)
CHANGE_TOL = 1e-10
# the change tolerance of every rung before the last, where it is looser than
# tol: those rungs feed only the ladder record (delta_ladder_and_assemble
# derives the bound)
RUNG_CHANGE_TOL = 1e-6
# lam = _LAM_SAFETY * lam_min when the config gives no lambda
_LAM_SAFETY = 1.5
# pointwise slack of the asserted monotone chain f_1 > f_2 > ... > w
_CHAIN_SLACK = 1e-12


# --- the scalar nonlinearity -------------------------------------------------


def F_nonlinearity(t, alpha, tau):
    """F(t) = e^{2 a tau t - 2 a e^t} (e^t - tau), overflow-safe."""
    t = np.asarray(t, dtype=np.float64)
    # two buffers for the seven passes; the monotone iteration calls this
    # on the whole grid once per step
    g, out = np.empty_like(t), np.empty_like(t)
    with np.errstate(over="ignore"):
        np.multiply(2.0 * alpha * tau, t, out=g)
        np.exp(t, out=out)
        out *= 2.0 * alpha
        g -= out  # g = 2 a tau t - 2 a e^t
        np.exp(np.add(g, t, out=out), out=out)
        np.exp(g, out=g)
        g *= tau
        out -= g
    return out[()]


def F_prime(t, alpha, tau):
    """F'(t) = e^g Q(e^t), overflow-safe, with g = 2 a tau t - 2 a e^t and
    Q(y) = -2 a y^2 + (4 a tau + 1) y - 2 a tau^2."""
    t = np.asarray(t, dtype=np.float64)
    # two buffers, as in F_nonlinearity; g is formed twice so that each of
    # e^{g + 2t}, e^{g + t} and e^g is one exp of a finite or -inf exponent
    g, out = np.empty_like(t), np.empty_like(t)

    def exponent():  # g = 2 a tau (t - e^t / tau)
        np.exp(t, out=g)
        np.multiply(g, -1.0 / tau, out=g)
        np.add(g, t, out=g)
        np.multiply(g, 2.0 * alpha * tau, out=g)

    with np.errstate(over="ignore"):
        exponent()
        np.add(g, t, out=out)
        out += t
        np.exp(out, out=out)
        out *= -2.0 * alpha
        g += t
        np.exp(g, out=g)
        g *= 4.0 * alpha * tau + 1.0
        out += g
        exponent()
        np.exp(g, out=g)
        g *= 2.0 * alpha * tau**2
        out -= g
    return out[()]


# --- problem setup -----------------------------------------------------------


class Rung(NamedTuple):
    """The fields of one delta rung: u0^d and e^{-v0^d}."""

    u0: np.ndarray
    ev: np.ndarray


@dataclass
class EBProblem:
    surface: object
    fields: object          # DivisorFields
    params: object          # ModelParams with c_tilde(alpha) = 0
    alpha: float
    tau: float
    lam: float | None
    sigma: float
    u0: np.ndarray          # log|phi|^2 - F_eta(0) (delta = 0)

    def rung(self, delta):
        """u0^d = log(|phi|^2 + d) - F_eta(d) and e^{-v0^d} with
        v0^d = 2 a tau u0^d + F_xi(d)."""
        f = self.fields
        u0 = smoothed_log(f.log_phi_sq, delta)
        u0 -= f.F_eta(delta)
        ev = f.F_xi(delta)
        ev += 2.0 * self.alpha * self.tau * u0
        np.negative(ev, out=ev)
        return Rung(u0, np.exp(ev, out=ev))

    def marked_points(self):
        return list(self.fields.divisor.all_points())


def make_eb_problem(surface, divisor, alpha=None, tau=None, lam=None,
                    sigma=None):
    """Construct the c~ = 0 problem; one of alpha/tau fixes the other via
    a * tau = chi~ / (2 N~).

    Refuses configurations with chi~ <= 0 (in particular the torus with cone
    points, where the phase would force a*tau <= 0).
    """
    if not divisor.zeros and not divisor.parabolic:
        raise ConfigError("the phase needs positive parabolic degree N~ > 0")
    chi_tilde, N_tilde = divisor.chi_tilde(surface), divisor.N_tilde
    if chi_tilde <= 0.0:
        raise ConfigError(
            "c~ = 0 requires chi~ > 0, got "
            f"chi~ = {chi_tilde} on backend {surface.backend!r}: "
            "a*tau = chi~/(2 N~) would not be positive "
            "(the torus with cone points cannot carry this phase)"
        )
    if (alpha is None) == (tau is None):
        raise ConfigError("specify exactly one of alpha, tau")
    if (tau if alpha is None else alpha) <= 0:
        raise ConfigError("alpha and tau must be positive")
    if alpha is None:
        alpha = chi_tilde / (2.0 * tau * N_tilde)
    else:
        tau = chi_tilde / (2.0 * alpha * N_tilde)
    if lam is not None and lam <= 0:
        raise ConfigError("lambda must be positive")
    fields = build_divisor_fields(surface, divisor)
    params = derive_params(divisor, surface, tau)
    if abs(params.c_tilde(alpha)) > 1e-12:
        raise ConfigError(f"c~ = {params.c_tilde(alpha)} not zero at the phase lock")
    if sigma is None:
        sigma = 16.0 * surface.h
    pts = list(divisor.all_points())
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            sep = surface.distance_points(p, q)
            if 4.0 * sigma > sep:
                sigma = 0.24 * sep  # keep the 2*sigma supports disjoint
    if sigma < 3.0 * surface.h:
        raise ConfigError(
            f"cutoff radius sigma={sigma:.3g} is below the grid scale "
            f"{surface.h:.3g}; increase the resolution or separate the points"
        )
    return EBProblem(surface=surface, fields=fields, params=params,
                     alpha=float(alpha), tau=float(tau), lam=lam,
                     sigma=float(sigma),
                     u0=fields.log_phi_sq - fields.F_eta(0.0))


# --- admissibility -----------------------------------------------------------


@dataclass
class NAReport:
    entries: list = field(default_factory=list)
    all_passed: bool = True

    def to_dict(self):
        return {"all_passed": self.all_passed, "entries": self.entries}


def check_numerical_assumption(problem):
    """Evaluate the membership-class inequality at every marked point.

    A point carrying zero multiplicity n, cone weight beta, parabolic weight
    a_k (absent memberships contribute nothing) must satisfy

        4 a tau n + 4 a tau a_k + 2 (1 - beta) < 2   (strict).
    """
    at = problem.alpha * problem.tau
    report = NAReport()
    for point, data in problem.fields.divisor.all_points().items():
        n = data.get("n", 0)
        beta = data.get("beta")
        ak = data.get("alpha_k", 0.0)
        classes = "".join(
            c for c, present in (("Z", "n" in data), ("C", beta is not None),
                                 ("P", "alpha_k" in data)) if present
        )
        lhs = 4.0 * at * n + 4.0 * at * ak + (2.0 * (1.0 - beta) if beta is not None else 0.0)
        passed = lhs < 2.0
        report.entries.append({
            "point": list(point), "classes": classes, "lhs": float(lhs),
            "rhs": 2.0, "margin": float(2.0 - lhs), "passed": bool(passed),
        })
        report.all_passed &= passed
    return report


# --- supersolution -----------------------------------------------------------


def _quintic_bump(surface, points, sigma):
    """C^2 cutoff: 1 on the sigma-disks, 0 outside the 2*sigma-disks."""
    psi = np.zeros(surface.shape)
    for p in points:
        d = surface.distance_field(p)
        s = np.clip((d - sigma) / sigma, 0.0, 1.0)
        psi += 1.0 - (6.0 * s**5 - 15.0 * s**4 + 10.0 * s**3)
    return np.clip(psi, 0.0, 1.0)


def build_supersolution(problem, margin=0.5):
    """Construct (w, C_sigma, lam_min) with the strict supersolution
    inequality holding for every delta in (0, 1).

    w solves lap w = -(4 pi N~/Vol) Psi_sigma + C(sigma), shifted so that
    2 w + u0^(d=1) stays below log tau by 2*margin; lam_min is the pointwise
    bound at the d = 1 endpoint over the complement of the sigma-disks.
    """
    s = problem.surface
    pts = problem.marked_points()
    psi = _quintic_bump(s, pts, problem.sigma)
    N_tilde = problem.params.N_tilde
    C_sigma = (4.0 * np.pi * N_tilde / VOL**2) * s.integrate(psi)
    rhs = -(4.0 * np.pi * N_tilde / VOL) * psi + C_sigma
    w = s.solve_shifted(0.0, rhs)
    u0_1, ev_1 = problem.rung(1.0)
    shift = 0.5 * (np.log(problem.tau) - 2.0 * margin - float(np.max(2.0 * w + u0_1)))
    w = w + shift
    if C_sigma >= N_tilde:
        raise ConfigError(
            f"cutoff mass C(sigma)={C_sigma:.3g} too large; shrink sigma"
        )
    # lam bound on the complement of the sigma-disks at the d = 1 endpoint
    mask = mask_away_from_points(s, pts, problem.sigma)
    if not np.any(mask):
        raise ConfigError(
            "the sigma-disks cover the whole surface; shrink sigma"
        )
    neg_F = -F_nonlinearity(2.0 * w + u0_1, problem.alpha, problem.tau)
    if float(np.min(neg_F[mask])) <= 0.0:
        raise ConfigError("supersolution shift failed: F not negative off the disks")
    need = (N_tilde + rhs)[mask]  # lap w = rhs exactly
    lam_min = float(np.max(2.0 * need / (ev_1 * neg_F)[mask]))
    lam = problem.lam if problem.lam is not None else _LAM_SAFETY * max(lam_min, 0.0)
    if lam <= lam_min:
        raise ConfigError(
            f"lambda={lam} does not dominate the supersolution bound {lam_min:.6g}"
        )
    return w, float(C_sigma), float(lam_min), lam


def supersolution_margin(problem, w, lam, delta, rung=None):
    """min over the grid of -(lap w + (1/2) lam e^{-v0^d} F(2w+u0^d) + N~);
    positive iff the strict supersolution inequality holds pointwise.
    ``rung`` is ``problem.rung(delta)`` if the caller has it."""
    return -float(np.max(eb_residual(problem, w, delta, lam, rung)))


# --- monotone iteration -------------------------------------------------------


def eb_residual(problem, f, delta, lam, rung=None):
    if rung is None:
        rung = problem.rung(delta)
    Ft = F_nonlinearity(2.0 * f + rung.u0, problem.alpha, problem.tau)
    return (problem.surface.laplacian(f) + 0.5 * lam * rung.ev * Ft
            + problem.params.N_tilde)


def monotone_iterate(problem, w, lam, delta, *, tol, residual_target=None,
                     max_iter=100_000, log=None, rung=None):
    """Iterate downward from f_1 = (log tau - u0^d)/2; returns (f, info).

    The step from f_n solves (lap + C) f_{n+1} = rhs with the shift taken
    from an iterate: C = 1 + lam max(0, max e^{-v0^d} F'(2 f_m + u0^d)) at
    m = 1, 2, 4, 8, ..., the last such m <= n.  Along the chain
    2 f + u0^d <= 2 f_1 + u0^d = log tau, where F' below a point is bounded
    by its value there or by 0, so the shift of f_m bounds the slope on
    [w, f_m], which holds [w, f_n]; it never rises as f_m descends.
    The chain f_1 > f_2 > ... > w is asserted pointwise at every step with
    slack _CHAIN_SLACK; a violation signals a discretization or shift-constant
    bug and raises.  Stops when the sup change falls below tol; when a
    residual_target is set, iteration continues until the masked equation
    residual reaches it or plateaus (the change criterion alone leaves an
    O(C * tol) residual behind).  ``rung`` is ``problem.rung(delta)`` if
    the caller has it.
    """
    s = problem.surface
    if rung is None:
        rung = problem.rung(delta)
    u0 = rung.u0
    source = -0.5 * lam * rung.ev
    N_tilde = problem.params.N_tilde
    mask = None
    if residual_target is not None:
        mask = mask_away_from_points(s, problem.marked_points(),
                                     2.0 * problem.sigma)
        if not np.any(mask):
            mask = np.ones(s.shape, dtype=bool)
    f = 0.5 * (np.log(problem.tau) - u0)
    min_gap_chain = np.inf
    min_gap_floor = np.inf
    it = 0
    change = np.inf
    res_masked = np.inf
    while True:
        it += 1
        if it > max_iter:
            raise ConvergenceFailure(
                f"monotone iteration exceeded {max_iter} iterations "
                f"(last change {change:.3e})"
            )
        s.counts["monotone_iterations"] += 1
        rhs = 2.0 * f
        rhs += u0
        if (it & (it - 1)) == 0:  # it = 1, 2, 4, 8, ...: the shift of f_it
            slope = F_prime(rhs, problem.alpha, problem.tau)
            slope *= rung.ev
            C_delta = 1.0 + lam * max(0.0, float(np.max(slope)))
            del slope  # freed before the transform
        rhs = F_nonlinearity(rhs, problem.alpha, problem.tau)
        rhs *= source
        rhs += C_delta * f
        rhs -= N_tilde
        f_next = s.solve_shifted(C_delta, rhs)
        step = f - f_next
        gap_chain = float(np.min(step))
        gap_floor = float(np.min(f_next - w))
        min_gap_chain = min(min_gap_chain, gap_chain)
        min_gap_floor = min(min_gap_floor, gap_floor)
        if gap_chain < -_CHAIN_SLACK or gap_floor < -_CHAIN_SLACK:
            raise ConvergenceFailure(
                f"monotone chain violated at iteration {it}: "
                f"descent gap {gap_chain:.3e}, floor gap {gap_floor:.3e}"
            )
        change = float(np.max(np.abs(step, out=step)))
        f = f_next
        if log is not None and (it < 10 or it % 50 == 0):
            log.append({"iter": it, "change": change, "C_delta": C_delta,
                        "time": time.perf_counter()})
        if change < tol:
            if residual_target is None:
                break
            if it % 50 == 0 or res_masked == np.inf:
                res = eb_residual(problem, f, delta, lam, rung)
                new_res = float(np.max(np.abs(res)[mask]))
                # plateau: spectral floor of the grid reached, stop honestly
                if new_res > 0.95 * res_masked and new_res > residual_target:
                    res_masked = min(res_masked, new_res)
                    break
                res_masked = new_res
            if res_masked <= residual_target:
                break
    info = {
        "iterations": it,
        "C_delta": C_delta,
        "final_change": change,
        "residual_masked": res_masked,
        "min_gap_chain": min_gap_chain,
        "min_gap_floor": min_gap_floor,
    }
    return f, info


# --- delta ladder and assembly -------------------------------------------------


def delta_ladder_and_assemble(problem, deltas, *, tol, margin=0.5, log=None):
    """Run the regularization ladder and assemble the singular pair.

    Refuses (with the report) when the admissibility checker fails.  One
    supersolution/lam pair serves every rung (the d = 1 bound dominates);
    each rung re-runs the monotone iteration from its own f_1, so the chain
    property stays intact, and Cauchy sup-distances away from the marked
    points are recorded.  Returns (f, metric density, Hermitian factor, w,
    report), the two assembled fields as grid arrays.

    Only the last rung's f reaches the fields: it starts from its own f_1
    and so does not depend on the rungs before it.  The last rung runs to a
    sup change below tol; every earlier rung only feeds the report (its
    ``iterations`` and the distance ``d_sup`` to the next rung), and runs to
    a sup change below max(tol, RUNG_CHANGE_TOL).  Along the decreasing
    chain the changes contract by a factor rho < 1, so an iterate whose
    change is c lies within c rho / (1 - rho) of the rung's limit.  On the
    first two rungs of scripts/configs/eb_sphere127.json rho is 0.58 and
    0.65 (17 and 21 steps take the change from 1e-6 to 1e-10), so
    rho / (1 - rho) < 2.  Each rung stops above its limit, so the two
    errors in a d_sup share a sign and it moves by at most the larger,
    ~2e-6, about 2e-5 of its ~0.1 value (1e-9 measured).  Those rungs
    assert a shorter chain: fewer steps, each still checked.
    """
    na = check_numerical_assumption(problem)
    if not na.all_passed:
        raise AssumptionNotSatisfied(
            "admissibility inequalities fail; refusing the phase solve", na
        )
    deltas = list(deltas)
    if deltas[-1] <= 0 or any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise ConfigError("regularization rungs must be positive and "
                          "strictly decreasing")
    s = problem.surface
    w, C_sigma, lam_min, lam = build_supersolution(problem, margin=margin)
    radius = max(8.0 * s.h, float(np.sqrt(deltas[-1])) * 0.5)
    mask = mask_away_from_points(s, problem.marked_points(), radius)
    infos = []
    sup_margins = []
    d_sup = []
    f = None
    for d in deltas:
        rung = problem.rung(d)
        m = supersolution_margin(problem, w, lam, d, rung)
        if m <= 0:
            raise ConfigError(f"supersolution inequality fails at delta={d}")
        sup_margins.append(m)
        prev = f
        rung_tol = tol if d == deltas[-1] else max(tol, RUNG_CHANGE_TOL)
        f, info = monotone_iterate(problem, w, lam, d, tol=rung_tol, log=log,
                                   rung=rung)
        del rung  # one rung's fields alive at a time
        if prev is not None:  # the Cauchy distance needs the rung before only
            d_sup.append(float(np.max(np.abs(prev - f)[mask])))
        infos.append(info)

    Phi_h = np.exp(2.0 * f + problem.u0)
    g_smooth = (np.log(lam) + 4.0 * problem.alpha * problem.tau * f
                - 2.0 * problem.alpha * Phi_h)
    # the singular factors |s_j|^{-2(1 - beta_j)} and |t_k|^{2 alpha_k}
    divisor, flds = problem.fields.divisor, problem.fields
    g_log = g_smooth + sum(-(1.0 - b) * ls for (_, b), ls in
                           zip(divisor.cone, flds.log_s_sq))
    h_log = 2.0 * f + sum(ak * lt for (_, ak), lt in
                          zip(divisor.parabolic, flds.log_t_sq))
    report = {
        "deltas": deltas,
        "lam": lam,
        "lam_min": lam_min,
        "C_sigma": C_sigma,
        "sigma": problem.sigma,
        "sup_margins": sup_margins,
        "iterations": [i["iterations"] for i in infos],
        "d_sup": d_sup,
        "mask_radius": radius,
        "na_report": na.to_dict(),
    }
    return f, np.exp(g_log), np.exp(h_log), w, report


def assembled_residual(problem, f, delta, lam):
    """Residual of the assembled pair against the phase equation, computed
    through the assembled exponent algebra (independent route from
    eb_residual's F-form); its sup off the 2 sigma-disks."""
    s = problem.surface
    Phi_h = np.exp(2.0 * f + problem.rung(delta).u0)
    log_rho_g = (4.0 * problem.alpha * problem.tau * f
                 - 2.0 * problem.alpha * Phi_h)
    for (_, b), ls in zip(problem.fields.divisor.cone, problem.fields.log_s_sq):
        log_rho_g = log_rho_g + (b - 1.0) * smoothed_log(ls, delta)
    rho_g = lam * np.exp(log_rho_g)
    R = (s.laplacian(f) + 0.5 * (Phi_h - problem.tau) * rho_g
         + problem.params.N_tilde)
    mask = mask_away_from_points(s, problem.marked_points(), 2.0 * problem.sigma)
    return {"sup_masked": float(np.max(np.abs(R)[mask]))}
