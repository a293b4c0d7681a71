"""Newton/Krylov building blocks shared by the scalar and coupled solves.

Every Newton solve is ``newton`` over the Armijo step ``damped_step``, and
every continuation path is the step-halving ``walk``; the coupled alpha
walk starts each solve from the polynomial through the last four accepted
states.

All linearized operators here have the form  lap + diag(V)  with V >= 0
(pointwise), solved matrix-free by preconditioned CG with the spectral
inverse (lap + mean V)^-1 as preconditioner (``precondition``: on the sphere
it takes the grid part above the harmonic degree L as 1 / mean V), in the
quadrature inner product in which both are symmetric.  The coupled 2x2 system is
nonsymmetric and goes through restarted GMRES (classical Gram-Schmidt with
one re-orthogonalization) on the Parseval-scaled spectral coefficients of
the two fields: there the Laplacians are per-mode multiplies, and only
the rest of the Jacobian, K, goes through the grid, at three inverse and
two forward transforms per iteration.  K is given by its four coefficient
fields, from which the preconditioner is built too.  It is two-level on
the torus: the low Fourier modes, a coarse space, are solved exactly
(Toselli & Widlund, *Domain Decomposition Methods*, 2005, ch. 2), and the
rest by the inverse symbol of the frozen-coefficient model system, which
the sphere takes on every mode.  Both
Krylov solvers run to the relative tolerance the caller passes: ``newton``
passes each correction the forcing term of its residual (``forcing``), so
a Krylov solve is only as tight as the step can use, and CG runs to its
1e-13 floor only when called without one.  The tests check the coupled
step against lap + K composed on the grid (``grid_jacobian`` in
``tests/oracles.py``).

The Krylov loops allocate no field per iteration: CG keeps its vectors
for the solve, and the GMRES matvec runs in buffers made once per block
solve and in those of the right-hand side's two fields, which the solve
consumes; the surface maps write there (``out=``) and K is applied there,
and the preconditioner runs in place.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from .errors import ConvergenceFailure, PathStalled

__all__ = ["solve_helmholtz", "solve_block_newton_step", "merit", "sup_norm",
           "forcing", "damped_step", "newton", "walk", "block_symbol",
           "low_mode_block"]

# CG's relative tolerance and the absolute floor of the CG and GMRES stops
_KRYLOV_TOL = 1e-13
# the coupled GMRES: iterations per restart cycle and in all
_RESTART = 50
_MAX_KRYLOV = 500
# step halvings before a damped Newton step is rejected
_MAX_BACKTRACK = 30
# the inexact Newton forcing term (``forcing``)
_FORCING = 1e-3
_ETA_MIN = 1e-12
_ETA_MAX = 1e-2
_SAFEGUARD = 1e-3
# accepted states through which ``walk`` extrapolates its next start
_PREDICTOR_POINTS = 4
# the coarse level of the coupled preconditioner on the torus: the Fourier
# modes |kx|, |ky| <= _LOW_MODES of each field, (2 _LOW_MODES + 1)^2 of them
_LOW_MODES = 3


def solve_helmholtz(surface, V, rhs, rtol=_KRYLOV_TOL):
    """Solve (lap + V) x = rhs with pointwise V >= 0 (not identically 0) to
    the relative tolerance rtol; returns (x, CG iterations), which it adds
    to ``surface.counts``, a failed solve's too.

    lap + V is symmetric in the quadrature inner product, not in the
    Euclidean one on the sphere, so CG weighs its dot products by the Gauss
    row weights there (normalized to mean 1); on the torus, with its equal
    cell areas, they are plain dots.

    The absolute floor _KRYLOV_TOL keeps CG from grinding past the
    floating-point floor on near-zero right-hand sides (where the recursion
    coefficients turn NaN); it sits orders of magnitude below every
    nonlinear accept tolerance in the package.
    """
    shape = surface.shape
    V = np.broadcast_to(V, shape)
    vbar = float(np.mean(V))
    if vbar < 0:
        raise ValueError("helmholtz solve needs a nonnegative zeroth-order term")
    if vbar < 1e-300:
        # weight underflowed to zero: pseudo-inverse on the mean mode
        mean = surface.integrate(rhs) / (2.0 * np.pi)
        return surface.solve_shifted(0.0, rhs - mean), 0

    Vf = np.empty(shape)

    def apply_op(x, out):
        f, lap = x.reshape(shape), out.reshape(shape)
        surface.laplacian(f, out=lap)
        lap += np.multiply(V, f, out=Vf)
        return out

    def apply_pre(x, out):
        return surface.precondition(vbar, x.reshape(shape),
                                    out=out.reshape(shape)).ravel()

    weight = None if surface.backend == "torus" else np.repeat(
        surface.glweights / np.mean(surface.glweights), surface.nlon)
    x, info, niter = _pcg(apply_op, apply_pre, rhs.ravel(), weight, rtol)
    surface.counts["cg_iterations"] += niter
    if info != 0:
        raise ConvergenceFailure(f"CG failed to converge (info={info})")
    return x.reshape(shape), niter


def _pcg(apply_op, apply_pre, b, weight, rtol):
    """Preconditioned CG from x = 0 in the inner product <a, c> =
    sum(weight * a * c), or the Euclidean one for weight None, to a residual
    norm below max(_KRYLOV_TOL, rtol |b|); returns (x, info, iterations)
    with info = 0 on convergence, -1 on breakdown (rho = <r, M^-1 r> = 0:
    the preconditioner annihilates the residual, so no search direction is
    left), else the 400 iterations it gave up after. ``apply_op(x, out)``
    and ``apply_pre(x, out)`` return A x and M^-1 x, written into out or in
    an array of their own.

    With weight None the loop is scipy's ``cg`` (1.17) called with the
    same rtol and atol = _KRYLOV_TOL, operation for operation, so that the
    iterates and the artifacts built on them are bit-identical to it. Only
    at the default rtol is that the call ``cg(rtol=1e-13, atol=1e-13)``;
    the Newton corrections pass their forcing term instead.
    """
    tmp, z, q = (np.empty_like(b) for _ in range(3))
    if weight is None:
        dot = np.dot
    else:
        def dot(a, c):
            return np.dot(np.multiply(weight, a, out=tmp), c)

    maxiter = 400
    x = np.zeros_like(b)
    atol = max(_KRYLOV_TOL, rtol * np.sqrt(dot(b, b)))
    r = b.copy()
    for iteration in range(maxiter):
        if np.sqrt(dot(r, r)) < atol:
            return x, 0, iteration
        zr = apply_pre(r, z)
        rho = dot(r, zr)
        if rho == 0:
            return x, -1, iteration
        if iteration > 0:
            p *= rho / rho_prev
            p += zr
        else:
            p = zr.copy()
        qp = apply_op(p, q)
        alpha = rho / dot(p, qp)
        x += np.multiply(alpha, p, out=tmp)
        r -= np.multiply(alpha, qp, out=tmp)
        rho_prev = rho
    return x, maxiter, maxiter


def merit(surface, r):
    """The Armijo merit: the integral of sum r_i^2 over the residual fields."""
    m = r[0] * r[0]
    for ri in r[1:]:
        m += ri * ri
    return float(surface.integrate(m))


def sup_norm(r):
    """The largest sup norm of the residual fields."""
    return max(float(np.max(np.abs(ri))) for ri in r)


def forcing(rn, tol):
    """The relative tolerance of the Krylov solve of a Newton correction at
    a residual of sup norm rn, on the way to tol:

        eta = min(_ETA_MAX, max(_ETA_MIN, _FORCING rn, _SAFEGUARD tol / rn)).

    In proportion to rn it keeps the convergence quadratic while steps far
    from the root stop early (Dembo, Eisenstat & Steihaug 1982; Eisenstat &
    Walker 1996); the floor _SAFEGUARD tol / rn stops a step near the root
    from solving far past the residual tol that it has to reach (Kelley,
    *Iterative Methods for Linear and Nonlinear Equations*, 1995, 6.3)."""
    floor = _SAFEGUARD * tol / rn if rn > 0.0 else _ETA_MAX
    return min(_ETA_MAX, max(_ETA_MIN, _FORCING * rn, floor))


def damped_step(surface, residual, correct, x, r, m, floor, history):
    """One damped Newton step from the fields x, whose residual r has merit
    m: for d = correct(x, r), which solves J d = r, accept the first x - s d,
    s = 1, 1/2, ... (_MAX_BACKTRACK halvings), whose merit meets Armijo,
    (1 - 1e-4 s) m, or is below floor^2; ``residual(x)`` is None outside
    the domain, refusing the trial. The correction may consume r: nothing
    reads it after. Returns (x', r', m', s); a failure carries
    ``history``, the residual sup norms of the solve up to x."""
    try:
        d = correct(x, r)
        s = 1.0
        for _ in range(_MAX_BACKTRACK + 1):
            xt = tuple(xi - s * di for xi, di in zip(x, d))
            rt = residual(xt)
            if rt is not None:
                mt = merit(surface, rt)
                if mt <= (1.0 - 1e-4 * s) * m or mt < floor**2:
                    return xt, rt, mt, s
            s *= 0.5
        raise ConvergenceFailure(f"Newton stagnated at residual "
                                 f"{history[-1]:.3e}: no descent in the domain")
    except ConvergenceFailure as exc:
        exc.history = history
        raise


def newton(surface, residual, correct, x, tol, max_iter, floor, log):
    """Damped Newton (``damped_step``) from the fields x to a residual sup
    norm below tol in at most max_iter steps; returns (x, residual). Each
    correction is ``correct(x, r, rtol)``, which solves J d = r to the
    relative tolerance rtol = ``forcing(|r|_inf, tol)`` and may consume r:
    the loop reads only r's merit and sup norm, both taken before the
    correction, and returns the residual of the last iterate, which no
    correction took. Appends to ``log``, unless None, a record per
    iterate: iter, residual_inf, residual_l2, time and the step taken. A
    failure carries the history."""
    r = residual(x)
    if r is None:
        raise ConvergenceFailure("Newton start outside the domain", [np.inf])
    m = merit(surface, r)
    history = []
    for it in range(max_iter):
        rn = sup_norm(r)
        history.append(rn)
        if log is not None:
            log.append({"iter": it, "residual_inf": rn,
                        "residual_l2": float(np.sqrt(m)),
                        "time": time.perf_counter()})
        if rn < tol:
            return x, r
        x, r, m, s = damped_step(
            surface, residual, functools.partial(correct, rtol=forcing(rn, tol)),
            x, r, m, floor, history)
        if log is not None:
            log[-1]["step"] = s
    raise ConvergenceFailure(
        f"Newton did not reach tol={tol:g} in {max_iter} iterations "
        f"(residual {history[-1]:.3e})", history)


def walk(solve, p, x, target, step, min_step, fields=None):
    """Natural-parameter continuation from the accepted state x at p to
    target: yields each accepted (parameter, state), ``solve(p', start)``
    giving the state at p' from start. A ConvergenceFailure halves the
    step; below min_step the walk raises PathStalled with the last good
    parameter and the failed solve's history.

    Without ``fields`` the start is the last accepted state. With it,
    ``fields(state)`` is the tuple of fields of a state, and the start is
    the Lagrange polynomial through the fields of the last
    _PREDICTOR_POINTS accepted states (x and those yielded since) at p'
    (``_extrapolate``): the last state's fields while they are the only
    ones, order 3 once four are known (Allgower & Georg, *Introduction to
    Numerical Continuation Methods*, 2003). The walk then keeps those
    fields only, not the states, and drops the oldest as soon as the start
    is formed, so a solve runs next to three of them; after a halving the
    start is taken from what is kept, closer to the last state."""
    if fields is None:
        history = None
        last = x
    else:
        history = [(p, fields(x))]
    del x
    while p < target - 1e-14:
        p_next = min(target, p + step)
        if history is None:
            start = last
        else:
            start = _extrapolate(history, p_next)
            del history[:1 - _PREDICTOR_POINTS]
        try:
            x = solve(p_next, start)
        except ConvergenceFailure as exc:
            step *= 0.5
            if step < min_step:
                raise PathStalled(f"continuation stalled at {p:.6g}", p,
                                  exc.history) from exc
            continue
        finally:
            del start
        p = p_next
        if history is None:
            last = x
        else:
            history.append((p, fields(x)))
        yield p, x
        del x


def _extrapolate(history, p):
    """The Lagrange polynomial through the (parameter, fields) pairs of
    history at p: a tuple of new fields."""
    ps = [q for q, _ in history]
    weights = [np.prod([(p - qj) / (qi - qj) for qj in ps if qj != qi])
               for qi in ps]
    return tuple(sum(w * f for w, f in zip(weights, group))
                 for group in zip(*(f for _, f in history)))


def solve_block_newton_step(surface, coefficients, rhs1, rhs2, rtol=1e-12):
    """Solve the linearized 2x2 system J (df, du) = (rhs1, rhs2), where
    J = diag(lap, lap) + K and K = [[c1, c2 lap], [c3, c4]] for the four
    coefficient fields ``coefficients`` = (c1, c2, c3, c4).

    GMRES runs on the spectral coefficients of (df, du) (``to_coeffs``), in
    which lap multiplies each coefficient by its ``coeff_eig`` and the
    Euclidean norm is the grid norm, so rtol and the floor _KRYLOV_TOL are
    grid-norm tolerances; only K goes through the grid.

    The preconditioner is, on the torus modes |kx|, |ky| <= _LOW_MODES,
    the inverse of J's Galerkin block there (``low_mode_block``), and on
    every other mode, and on the whole sphere, the ``block_symbol`` of the
    fields' means (m1, m2, m3, m4) if that stays definite, else that of
    (1, 0, 0, 1), blockwise (lap+1)^-1. A singular Galerkin block, and
    GMRES that misses rtol in _MAX_KRYLOV iterations, raise
    ConvergenceFailure. The returned fields are new arrays. The step and
    its GMRES iterations are counted in ``surface.counts``, a failed
    one's too.

    The solve consumes rhs1 and rhs2, two distinct grid arrays: it turns
    them into the right-hand side's coefficients first and then works in
    their buffers, as the matvec's df and du. A caller that reads them
    afterwards passes copies.
    """
    eig = surface.coeff_eig
    size = 2 * eig.size  # a field's coefficients as (Re, Im) pairs
    # the matvec's scratch: lap du and k1 on the grid, two complex
    # coefficient fields and the output J x, and the right-hand side b, as
    # views of one array: numpy advises huge pages for an array of 4 MiB or
    # more, which at 256^2 cuts the minor page faults of a `sweep-eps` by
    # ~30 %; df and du take the buffers of rhs1 and rhs2 once b holds them
    ncell = rhs1.size
    block = np.empty(2 * ncell + 6 * size)
    fields = [block[i * ncell:(i + 1) * ncell].reshape(surface.shape)
              for i in range(2)]
    t1, t2 = np.split(
        block[2 * ncell:2 * (ncell + size)].view(np.complex128), 2)
    jx, b = np.split(block[2 * (ncell + size):], 2)

    def modes(x):
        """The complex coefficients of the two fields in x."""
        z = x.view(np.complex128)
        return z[:eig.size], z[eig.size:]

    model, coarse = (1.0, 0.0, 0.0, 1.0), None
    if surface.backend == "torus":
        galerkin, means, (index, mirror, scale) = low_mode_block(
            surface, coefficients)
        coarse = _coarse_inverse(galerkin, np.tile(scale, 2))
        # the low modes of both fields in the complex view of x, the
        # conjugated ones, and those that x holds itself
        low = np.concatenate((index, index + eig.size))
        flip = np.tile(mirror, 2)
        own = np.flatnonzero(~flip)
    else:
        means = tuple(float(np.mean(c)) for c in coefficients)
    m1, m2, m3, m4 = means
    # det(lam) = lam^2 + (m1 + m4 - m2 m3) lam + m1 m4 must stay positive
    if m1 * m4 > 0 and (m1 + m4 - m2 * m3) > -2.0 * np.sqrt(m1 * m4) * 0.9:
        model = means
    i11, i12, i21, i22 = block_symbol(model, eig)

    def prevec(y):
        """The preconditioner applied to y, in place."""
        if coarse is not None:
            z = y.view(np.complex128)
            g = z[low]
            np.conjugate(g, out=g, where=flip)
            g = coarse @ g
        a, b = modes(y)
        np.multiply(i21, a, out=t1)
        np.multiply(i11, a, out=a)
        a += np.multiply(i12, b, out=t2)
        np.multiply(i22, b, out=b)
        b += t1
        if coarse is not None:
            z[low[own]] = g[own]
        return y

    c1, c2, c3, c4 = coefficients

    def matvec(x):
        """J x, in jx."""
        zf, zu = modes(x)
        lap_zu = np.multiply(eig, zu, out=t1)
        df = surface.from_coeffs(x[:size], out=rhs1)
        du = surface.from_coeffs(x[size:], out=rhs2)
        lap_du = surface.from_coeffs(lap_zu.view(np.float64), out=fields[0])
        # K (df, du) = (c1 df + c2 lap du, c3 df + c4 du), k2 in df
        k1 = np.multiply(c1, df, out=fields[1])
        k1 += np.multiply(c2, lap_du, out=lap_du)
        df *= c3
        df += np.multiply(c4, du, out=du)
        surface.to_coeffs(k1, out=jx[:size])
        surface.to_coeffs(df, out=jx[size:])
        yf, yu = modes(jx)
        yf += np.multiply(eig, zf, out=t2)
        yu += lap_zu
        return jx

    surface.to_coeffs(rhs1, out=b[:size])
    surface.to_coeffs(rhs2, out=b[size:])
    x, niter, converged = _gmres_left(matvec, prevec, b, rtol=rtol,
                                      atol=_KRYLOV_TOL, restart=_RESTART,
                                      max_krylov=_MAX_KRYLOV)
    surface.counts.update(newton_steps=1, gmres_iterations=niter)
    if not converged:
        raise ConvergenceFailure(f"GMRES failed after {niter} iterations")
    df, du = surface.from_coeffs(x[:size]), surface.from_coeffs(x[size:])
    return df, du, niter


def block_symbol(m, lam):
    """The four per-mode entries of [[lam + m1, m2*lam], [m3, lam + m4]]^-1,
    the inverse of the constant-coefficient model system with coefficients
    m = (m1, m2, m3, m4) on modes of Laplacian eigenvalue lam."""
    m1, m2, m3, m4 = m
    det = (lam + m1) * (lam + m4) - m2 * lam * m3
    return (lam + m4) / det, -m2 * lam / det, -m3 / det, (lam + m1) / det


def low_mode_block(surface, coefficients):
    """The Galerkin block of J = diag(lap, lap) + [[c1, c2 lap], [c3, c4]]
    on the torus modes |kx|, |ky| <= _LOW_MODES of each field, for the four
    coefficient fields c1..c4, over the orthonormal Fourier modes k, l
    (``Torus.low_modes``): entries delta_kl lam_k + c^_ij(k - l), the c2
    entry also times lam_l. Returns (block, means, (index, mirror, scale)):
    the (2M, 2M) complex block of the M low modes, df's first; the d = 0
    entries c^_ij(0), the fields' means m1..m4 of ``block_symbol``; and
    where the low modes sit in a ``to_coeffs`` vector."""
    window, index, mirror, scale = surface.low_modes(coefficients, _LOW_MODES)
    lam = surface.coeff_eig[index]
    c1, c2, c3, c4 = window
    diag = np.diag(lam)
    block = np.block([[diag + c1, c2 * lam], [c3, diag + c4]])
    means = tuple(float(w[0, 0].real) for w in window)
    return block, means, (index, mirror, scale)


def _coarse_inverse(galerkin, scale):
    """The inverse of the Galerkin block on coefficients that hold scale
    times the orthonormal ones: diag(scale) galerkin^-1 diag(1 / scale)."""
    try:
        inverse = np.linalg.inv(galerkin)
        if not np.all(np.isfinite(inverse)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        raise ConvergenceFailure("the low-mode block of the Newton "
                                 "correction is singular") from None
    inverse *= scale[:, None]
    inverse /= scale
    return inverse


def _combine(coef, rows, out):
    """coef @ rows, into out. One row goes through np.multiply, the same
    bits: numpy runs a one-row matmul in a loop of its own, not in BLAS,
    several times slower."""
    if len(coef) == 1:
        return np.multiply(rows[0], coef[0], out=out)
    return np.matmul(coef, rows, out=out)


def _gmres_left(matvec, prevec, b, rtol, atol, restart, max_krylov):
    """Restarted GMRES with left preconditioning; convergence is tested on
    the preconditioned residual, whose floating-point floor is O(eps) for a
    well-preconditioned system (the unpreconditioned norm bottoms out at
    eps * lambda_max and cannot certify tight relative tolerances).

    ``matvec(v)`` returns A v in an array that GMRES may overwrite and that
    need stay valid only until the next call; ``prevec(y)`` returns M^-1 y
    and may overwrite y. b is left as it is."""
    x = np.zeros_like(b)
    r = prevec(b.copy())  # the residual at x = 0
    target = max(rtol * np.linalg.norm(r), atol)
    total = 0
    for cycle in range(max(1, int(np.ceil(max_krylov / restart)))):
        if cycle:
            r = prevec(b - matvec(x))
        beta = np.linalg.norm(r)
        if beta <= target:
            return x, total, True
        m = min(restart, max_krylov - total)
        if m <= 0:
            break
        V = np.empty((m + 1, b.size))
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        np.divide(r, beta, out=V[0])
        r = None
        j_used = 0
        for j in range(m):
            total += 1
            w = prevec(matvec(V[j]))
            # CGS2: classical Gram-Schmidt plus one re-orthogonalization
            # pass keeps the basis orthogonal to working precision (Giraud,
            # Langou & Rozloznik 2005) with two matrix products per pass;
            # the products land in the row the next basis vector takes
            basis, spare = V[: j + 1], V[j + 1]
            h = basis @ w
            w -= _combine(h, basis, spare)
            h2 = basis @ w
            w -= _combine(h2, basis, spare)
            H[: j + 1, j] = h + h2
            H[j + 1, j] = np.linalg.norm(w)
            breakdown = H[j + 1, j] < 1e-300
            if not breakdown:
                np.divide(w, H[j + 1, j], out=spare)
            for i in range(j):
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = t
            denom = np.hypot(H[j, j], H[j + 1, j])
            cs[j] = H[j, j] / denom if denom else 1.0
            sn[j] = H[j + 1, j] / denom if denom else 0.0
            H[j, j] = denom
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            j_used = j + 1
            if abs(g[j + 1]) <= target or breakdown or total >= max_krylov:
                break
        y = np.linalg.solve(np.triu(H[:j_used, :j_used]), g[:j_used])
        x += _combine(y, V[:j_used], V[j_used])
        if abs(g[j_used]) <= target:
            return x, total, True
        if total >= max_krylov:
            break
    r = prevec(b - matvec(x))
    return x, total, bool(np.linalg.norm(r) <= max(10.0 * target, atol))

