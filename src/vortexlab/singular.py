"""Smoothing ladder toward singular gravitating vortices.

Runs the coupled solve over a decreasing list of smoothing parameters,
monitors Cauchy behaviour in sup norm on a compact set K away from the
marked points, and fits the predicted local exponents at cone/parabolic
points.

Exponent fits regress the state against the matched smoothed section
coordinate log(|s|^2 + eps) (equal to 2*log dist + const up to the
smoothing scale), with known coincident log factors subtracted first;
this measures exactly the exponent the limit metric/Hermitian factor is
supposed to carry while staying finite at every smoothing level.  The
fit annulus adapts to the measured smoothing radius sqrt(eps/A), where
A is the local quadratic coefficient of |s|^2; fits whose annulus cannot
be resolved against the grid or the neighbour separation are flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .coupled import accepted_state, make_problem, solve_path
from .errors import ConfigError, ConvergenceFailure
from .fields import build_divisor_fields, smoothed_log
from .surface import mask_away_from_points
from .verify import holder_quotient

__all__ = ["FitRecord", "LadderReport", "run_ladder", "conical_fit",
           "parabolic_fit"]


@dataclass
class FitRecord:
    point: tuple
    kind: str                 # "cone" | "parabolic"
    weight: float
    slope: float              # fitted d log(field) / d log dist
    target: float
    deviation: float
    r_in: float
    r_out: float
    npoints: int
    resolved: bool
    oscillation: float        # osc of the Hoelder-factor combination
    note: str = ""


@dataclass
class LadderReport:
    eps_list: list
    states: list              # the rung before the last as (f~, u), the last
    d_f: list = field(default_factory=list)     # sup |f_m - f_{m+1}| on K
    d_u: list = field(default_factory=list)
    rho_K: list = field(default_factory=list)
    holder_f: list = field(default_factory=list)
    holder_u: list = field(default_factory=list)
    wp_integrals: list = field(default_factory=list)
    lp_exponent: float = 2.0
    newton_counts: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    fits: list = field(default_factory=list)
    problem: object = None    # GVProblem of the last completed rung

    @property
    def d_sup(self):
        return [max(a, b) for a, b in zip(self.d_f, self.d_u)]


def _local_quadratic_coeff(surface, log_s, point):
    """A with |s|^2 ~ A d^2 near the point, from a thin probe annulus: e to
    the median of log|s|^2 - 2 log d there, taken by ``np.partition`` (for
    an even count the mean of the two middle values, ``np.median``'s bits,
    without the import of ``numpy.ma`` that ``np.median`` makes)."""
    d = surface.distance_field(point)
    h = surface.h
    sel = (d > 2 * h) & (d < 8 * h)
    if not np.any(sel):
        return 1.0
    q = log_s[sel] - 2.0 * np.log(d[sel])
    k = q.size // 2
    q = np.partition(q, (k - 1, k))
    return float(np.exp(q[k] if q.size % 2 else (q[k - 1] + q[k]) / 2.0))


def _fit_annulus(surface, point, other_points, eps, A):
    # stay close to the smoothing radius: the inner part would regress the
    # saturated coordinate, the far zone picks up the neighbours' smooth
    # response (calibrated on the default torus configuration)
    h = surface.h
    d_smooth = np.sqrt(eps / A)
    r_in = max(4.0 * h, 0.6 * d_smooth)
    guard = 0.35 * (np.pi * surface.r if surface.backend == "sphere" else 1.0)
    for q in other_points:
        guard = min(guard, 0.45 * surface.distance_points(point, q))
    r_out = min(max(2.0 * d_smooth, 2.5 * r_in), guard)
    return r_in, r_out


def _slope_fit(surface, values, coord, point, r_in, r_out, d_resolve=None):
    d = surface.distance_field(point)
    sel = (d >= r_in) & (d <= r_out)
    n = int(np.count_nonzero(sel))
    ok = n >= 40 and r_out > 1.3 * r_in
    if d_resolve is not None:
        # the annulus must contain the smoothing transition zone, else the
        # regression sees only the saturated coordinate
        ok = ok and r_out >= 0.999 * d_resolve
    if not ok:
        return np.nan, n, False
    x = coord[sel]
    y = values[sel]
    vx = np.var(x)
    if vx <= 1e-12:
        return np.nan, n, False
    slope = float(np.cov(x, y, bias=True)[0, 1] / vx)
    return slope, n, True


def _exponent_fit(surface, divisor, point, log_s, y, eps):
    """Raw slope of y against the smoothed coordinate log(|s|^2 + eps) on the
    fit annulus at a marked point; returns (raw, npoints, resolved, r_in, r_out)."""
    others = [q for q in divisor.all_points() if q != tuple(point)]
    A = _local_quadratic_coeff(surface, log_s, point)
    r_in, r_out = _fit_annulus(surface, point, others, eps, A)
    coord = smoothed_log(log_s, eps)
    raw, n, ok = _slope_fit(surface, y, coord, point, r_in, r_out,
                            d_resolve=2.0 * np.sqrt(eps / A))
    return raw, n, ok, r_in, r_out


def conical_fit(surface, state, divisor_fields, j, eps):
    """Exponent fit of log(1 - lap u) at cone point j; target 2*beta - 2."""
    point, beta = divisor_fields.divisor.cone[j]
    log_s = divisor_fields.log_s_sq[j]
    rho = 1.0 - surface.laplacian(state.u)
    y = np.log(np.maximum(rho, 1e-300))
    raw, n, ok, r_in, r_out = _exponent_fit(surface, divisor_fields.divisor,
                                            point, log_s, y, eps)
    slope = 2.0 * raw if ok else np.nan
    target = 2.0 * beta - 2.0
    # Hoelder-factor oscillation: log rho + (1 - beta) log|s|^2 on the annulus
    d = surface.distance_field(point)
    sel = (d >= r_in) & (d <= r_out)
    osc = float(np.ptp((y + (1.0 - beta) * log_s)[sel])) if np.any(sel) else np.nan
    return FitRecord(point=tuple(point), kind="cone", weight=beta, slope=slope,
                     target=target,
                     deviation=abs(slope - target) if ok else np.inf,
                     r_in=r_in, r_out=r_out, npoints=n, resolved=ok,
                     oscillation=osc)


def parabolic_fit(surface, state, divisor_fields, k, eps):
    """Exponent fit of log Phi at parabolic point k.

    Isolated point: target 2*alpha_k.  Coincident with a Higgs zero of
    multiplicity n: the zero's (exactly known) log factor is subtracted
    before the regression and 2n is added back, so the target is
    2*alpha_k + 2n.
    """
    point, ak = divisor_fields.divisor.parabolic[k]
    log_t = divisor_fields.log_t_sq[k]
    n_coincident = 0
    for p, n in divisor_fields.divisor.zeros:
        if tuple(p) == tuple(point):
            n_coincident = n
    y = np.log(np.maximum(state.Phi, 1e-300))
    if n_coincident:
        y = y - n_coincident * log_t
    raw, n, ok, r_in, r_out = _exponent_fit(surface, divisor_fields.divisor,
                                            point, log_t, y, eps)
    slope = 2.0 * raw + 2.0 * n_coincident if ok else np.nan
    target = 2.0 * ak + 2.0 * n_coincident
    return FitRecord(point=tuple(point), kind="parabolic", weight=ak,
                     slope=slope, target=target,
                     deviation=abs(slope - target) if ok else np.inf,
                     r_in=r_in, r_out=r_out, npoints=n, resolved=ok,
                     oscillation=np.nan,
                     note=f"coincident_zero_n={n_coincident}")


def run_ladder(surface, divisor, tau, alpha, eps_list, n_steps=16, *, tol,
               seed=0, fit=True, fields=None):
    """Drive the smoothing ladder; warm-start each rung from the previous.

    Every rung is one ``coupled.solve_path`` to the target coupling, each
    state accepted below tol: rung 0 walks the alpha path from the
    decoupled endpoint, and later rungs pass the previous rung's (f~, u)
    as its start (it walks only if the warm solve fails).  Failures
    truncate the ladder and are recorded.  The divisor fields do not
    depend on eps: they are built once (or taken from ``fields``) and
    every rung adds only its eps-dependent weights.

    A rung reads the last rung's (f~, u) only.  Its Cauchy distances to
    that rung are taken as it lands, and before the next rung is solved it
    is reduced to (f~, u) (Phi and residuals None) and its problem and the
    rung before it are dropped.  So ``states`` ends with the rung before
    the last as (f~, u) and the last rung in full, and a truncated ladder
    builds its last completed rung's problem and state again
    (``accepted_state``, as ``verify`` does).
    """
    eps_list = list(eps_list)
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ConfigError("smoothing rungs must be strictly decreasing")
    report = LadderReport(eps_list=eps_list, states=[],
                          lp_exponent=divisor.lp_exponent)
    points = list(divisor.all_points())
    if fields is None:
        fields = build_divisor_fields(surface, divisor)
    A = 1.0
    if fields.log_s_sq:
        A = _local_quadratic_coeff(surface, fields.log_s_sq[0],
                                   divisor.cone[0][0])
    for eps in eps_list:
        # the rung reads the last one's (f~, u) only: reduce the last rung to
        # them, and drop the rung before it, its problem and every local
        # that holds it in full
        report.states[:] = [replace(st, Phi=None, res1=None, res2=None)
                            for st in report.states[-1:]]
        report.problem = problem = state = None
        problem = make_problem(surface, divisor, tau=tau, eps=eps, fields=fields)
        last = report.states[-1] if report.states else None
        try:
            state, _, steps = solve_path(
                problem, alpha, n_steps=n_steps, tol=tol,
                start=None if last is None else (last.f_tilde, last.u))
        except ConvergenceFailure as exc:
            report.failures.append({"eps": eps, "error": str(exc)})
            break
        if report.states:
            # Cauchy distances to the rung before, on K
            radius = max(8.0 * surface.h, float(np.sqrt(eps / A)))
            mask = mask_away_from_points(surface, points, radius)
            if not np.any(mask):
                radius = 8.0 * surface.h
                mask = mask_away_from_points(surface, points, radius)
            report.rho_K.append(radius)
            report.d_f.append(float(np.max(
                np.abs(last.f_tilde - state.f_tilde)[mask])))
            report.d_u.append(float(np.max(np.abs(last.u - state.u)[mask])))
        report.states.append(state)
        report.problem = problem
        report.newton_counts.append(len(steps))
        report.holder_f.append(holder_quotient(
            surface, state.f_tilde, rng=np.random.default_rng(seed)))
        report.holder_u.append(holder_quotient(
            surface, state.u, rng=np.random.default_rng(seed)))
        report.wp_integrals.append(float(surface.integrate(
            problem.W ** report.lp_exponent)))
    if report.states and report.problem is None:
        last = report.states[-1]
        report.problem = make_problem(surface, divisor, tau=tau, fields=fields,
                                      eps=eps_list[len(report.newton_counts) - 1])
        report.states[-1] = accepted_state(report.problem, last.alpha,
                                           last.f_tilde, last.u)

    if fit and report.states:
        fin, eps = report.states[-1], report.problem.eps
        report.fits = [conical_fit(surface, fin, fields, j, eps)
                       for j in range(len(divisor.cone))]
        report.fits += [parabolic_fit(surface, fin, fields, k, eps)
                        for k in range(len(divisor.parabolic))]
    return report
