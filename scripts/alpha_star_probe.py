#!/usr/bin/env python3
"""Probe the continuation just past the certified endpoint alpha_star.

The certified range ends at alpha_star; whether the solver keeps converging
slightly beyond it is recorded here as data (no claim either way).  Prints
one line per probed coupling with the Newton outcome and the residual.

Usage: python scripts/alpha_star_probe.py [resolution] [overshoot ...]
"""

import sys

import numpy as np

from vortexlab.coupled import make_problem, solve_at_alpha, solve_path
from vortexlab.errors import ConvergenceFailure
from vortexlab.fields import DivisorData
from vortexlab.solvers import ACCEPT_TOL
from vortexlab.surface import build_surface


def run(resolution=64, overshoots=(1.0, 1.05, 1.25, 1.5, 2.0)):
    surf = build_surface("torus", resolution)
    dd = DivisorData(zeros=(((0.17137, 0.23731), 1),),
                     cone=(((0.67411, 0.29517), 0.5),))
    problem = make_problem(surf, dd, tau=4.0, eps=0.1)
    astar = problem.params.alpha_star
    print(f"alpha_star = {astar}")
    state = solve_path(problem, astar, n_steps=8, tol=ACCEPT_TOL)[0]
    f, u = state.f_tilde, state.u
    for s in overshoots:
        alpha = s * astar
        try:
            st = solve_at_alpha(problem, alpha, f, u, tol=ACCEPT_TOL)
            ct = problem.params.c_tilde(alpha)
            print(f"alpha = {s:5.2f} * alpha_star: converged, "
                  f"residual {st.res_norm:.2e}, c~ = {ct:+.4f}, "
                  f"max Phi - tau = {float(np.max(st.Phi)) - problem.tau:+.3e}")
            f, u = st.f_tilde, st.u
        except ConvergenceFailure as exc:
            print(f"alpha = {s:5.2f} * alpha_star: FAILED ({exc})")
            break
    return 0


if __name__ == "__main__":
    resolution = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    overshoots = tuple(float(x) for x in sys.argv[2:]) or (1.0, 1.05, 1.25, 1.5, 2.0)
    sys.exit(run(resolution, overshoots))
