import os
import subprocess
import sys

import numpy as np
import pytest

import vortexlab
from vortexlab.greens import (green_field, sphere_green_eval,
                              torus_green_theta_eval)
from vortexlab.surface import VOL, build_surface

from oracles import (_torus_green_ewald, green_pair_modes, sphere_eval_modes,
                     torus_eval_modes, torus_green_eval)

P = (0.31415926, 0.27182818)
CORNER = (0.99987, 0.00021)  # most displacements from it wrap
XS = np.array([0.72, 0.11, 0.55])
YS = np.array([0.40, 0.83, 0.07])


def test_ewald_parameter_independence():
    a = _torus_green_ewald(XS - P[0], YS - P[1], eta=2.5)
    b = _torus_green_ewald(XS - P[0], YS - P[1], eta=3.5)
    assert np.max(np.abs(a - b)) < 1e-13


def test_torus_two_route_oracle():
    # screened-lattice evaluation against the independent closed-form route
    e = torus_green_eval(P, XS, YS)
    t = torus_green_theta_eval(P, XS, YS)
    assert np.max(np.abs(e - t)) < 1e-8


def test_torus_raw_mode_sum_consistency():
    # raw symmetric partial sums of the defining mode sum approach the
    # analytic evaluation (slow conditional convergence: loose tolerance)
    d = (XS[0] - P[0], YS[0] - P[1])
    K = 160
    ks = np.arange(-K, K + 1)
    KX, KY = np.meshgrid(ks, ks, indexing="ij")
    k2 = KX**2 + KY**2
    sel = k2 > 0
    total = np.sum(np.cos(2 * np.pi * (KX[sel] * d[0] + KY[sel] * d[1]))
                   / (4 * np.pi**2 * k2[sel]))
    exact = float(torus_green_eval(P, XS[:1], YS[:1])[0])
    assert abs(total - exact) < 2e-3


def test_zero_mean_and_symmetry(torus64):
    g = green_field(torus64, P)
    assert abs(torus64.integrate(g)) < 1e-12
    # evenness of the kernel = symmetry of G
    for d in [(0.1234, 0.0567), (0.4, 0.21)]:
        a = torus_green_theta_eval(P, np.array([P[0] + d[0]]),
                                   np.array([P[1] + d[1]]))[0]
        b = torus_green_theta_eval(P, np.array([P[0] - d[0]]),
                                   np.array([P[1] - d[1]]))[0]
        assert abs(a - b) < 1e-10


@pytest.mark.parametrize("p", [P, CORNER], ids=["generic", "corner"])
def test_green_field_matches_ewald(torus64, p):
    # the runtime theta kernel against the de-meaned Ewald oracle; the corner
    # point makes most displacements wrap
    g = green_field(torus64, p)
    e = torus_green_eval(p, torus64.X, torus64.Y)
    e = e - torus64.integrate(e) / VOL
    assert np.max(np.abs(g - e)) < 1e-13


@pytest.mark.parametrize("p", [P, CORNER], ids=["generic", "corner"])
def test_green_field_is_the_pointwise_kernel(torus64, p):
    # the separable grid route (axes (n, 1) and (1, n)) against the pointwise
    # evaluator on the full coordinate arrays, de-meaned alike
    g = green_field(torus64, p)
    t = torus_green_theta_eval(p, torus64.X, torus64.Y)
    t = t - torus64.integrate(t) / VOL
    assert np.max(np.abs(g - t)) <= 1e-15


@pytest.mark.parametrize("p", [P, CORNER], ids=["generic", "corner"])
def test_green_field_matches_ewald_256(p):
    # sampled rows of the 256^2 field against the de-meaned Ewald oracle; the
    # shift needs the oracle's grid mean, so it is evaluated on the whole grid
    torus = build_surface("torus", 256)
    g = green_field(torus, p)
    e = torus_green_eval(p, torus.X, torus.Y)
    e = e - torus.integrate(e) / VOL
    rows = [0, 1, 97, 128, 255]
    assert np.max(np.abs(g[rows] - e[rows])) < 1e-13
    # a node whose x and y displacements from p both wrap
    i, j = (int(256 * (c + 0.6 if c < 0.4 else c - 0.6)) for c in p)
    assert min(abs(torus.X[i, j] - p[0]), abs(torus.Y[i, j] - p[1])) > 0.5
    assert abs(g[i, j] - e[i, j]) < 1e-13


def test_green_field_bytes_independent_of_blas_threads():
    # the term axis is contracted without BLAS, so the field is the same
    # bytes under any BLAS thread count
    src = os.path.dirname(os.path.dirname(vortexlab.__file__))
    code = ("import hashlib; from vortexlab.greens import green_field; "
            "from vortexlab.surface import build_surface; "
            "t = build_surface('torus', 256); "
            f"print([hashlib.sha256(green_field(t, p).tobytes()).hexdigest() "
            f"for p in {[P, CORNER]}])")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        digests.append(subprocess.run([sys.executable, "-c", code], env=env,
                                      check=True, capture_output=True,
                                      text=True).stdout)
    assert digests[0] == digests[1]


def test_log_singularity_coefficient(torus64):
    vals = []
    for d in [1e-3, 1e-5, 1e-7]:
        v = torus_green_theta_eval(P, np.array([P[0] + d]), np.array([P[1]]))[0]
        vals.append(v + np.log(d) / (2 * np.pi))
    assert np.ptp(vals) < 1e-3
    assert np.all(np.abs(vals) < 10.0)


def test_representation_identity_torus(torus64):
    rng = np.random.default_rng(17)
    f, modes = torus64.random_bandlimited(rng, kmax=6)
    gap = _representation_gap_torus(torus64, P, f, modes)
    assert gap < 1e-8


def _representation_gap_torus(surface, p, f, modes):
    pair = green_pair_modes(surface, p, modes, laplacian=True)
    fP = torus_eval_modes(modes, np.array([p[0]]), np.array([p[1]]))[0]
    mean = surface.integrate(f) / VOL
    return abs(fP - mean - pair)


def test_sphere_green_contract(sphere31):
    s = sphere31
    k = 9
    p = (0.523, s.phi[k])  # on a grid longitude, off every grid latitude
    g = green_field(s, p)
    assert abs(s.integrate(g)) < 1e-12
    # rotational invariance: the nodes mirrored about p's meridian lie at
    # the same distance from p, so the grid field takes the same values there
    mirror = (2 * k - np.arange(s.nlon)) % s.nlon
    assert np.max(np.abs(s.distance_field(p) - s.distance_field(p)[:, mirror])) \
        < 1e-14
    assert np.max(np.abs(g - g[:, mirror])) < 1e-12
    # log coefficient
    for ang in [1e-3, 1e-5]:
        v = float(sphere_green_eval(np.cos(ang)))
        assert abs(v + np.log(ang * s.r) / (2 * np.pi)) < 1.0


def test_representation_identity_sphere(sphere31):
    s = sphere31
    rng = np.random.default_rng(23)
    f, modes = s.random_bandlimited(rng, kmax=6)
    p = (0.523, 1.234)
    pair = green_pair_modes(s, p, modes, laplacian=True)
    fP = sphere_eval_modes(modes, [np.pi / 2 - p[0]], [p[1]])[0]
    mean = s.integrate(f) / VOL
    assert abs(fP - mean - pair) < 1e-8


def test_sphere_antipode_value():
    # closed form at the antipode: -(log 1 + 1)/(4 pi)
    assert abs(float(sphere_green_eval(-1.0)) + 1.0 / (4 * np.pi)) < 1e-15
