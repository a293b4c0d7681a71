import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from vortexlab.errors import ConfigError
from vortexlab.solvers import block_symbol
from vortexlab.surface import (BUILD_MAX_BYTES, VOL, _gauss_legendre,
                               build_bytes, build_surface)

from oracles import (_legendre_point, _legendre_table, gradient_pairing,
                     sphere_eval_modes, torus_eval_modes)


def test_build_validation():
    with pytest.raises(ConfigError):
        build_surface("torus", 7)
    with pytest.raises(ConfigError):
        build_surface("torus", 14)
    with pytest.raises(ConfigError):
        build_surface("sphere", 14)
    with pytest.raises(ConfigError):
        build_surface("klein", 64)


def test_normalization(torus64, sphere31):
    assert abs(torus64.integrate(np.ones(torus64.shape)) - VOL) < 1e-12 * VOL
    assert abs(sphere31.integrate(np.ones(sphere31.shape)) - VOL) < 1e-12 * VOL
    assert torus64.euler_char == 0
    assert sphere31.euler_char == 2
    assert sphere31.curvature == 2.0  # Ric omega0 = 2 omega0 at area 2pi


def test_laplacian_kills_constants(torus64, sphere31):
    for s in (torus64, sphere31):
        assert np.max(np.abs(s.laplacian(np.ones(s.shape)))) < 1e-12


def test_torus_eigenvalue_exact(torus64):
    s = torus64
    for k, l in [(1, 0), (3, 4), (0, 2), (5, 5)]:
        f = np.cos(2 * np.pi * (k * s.X + l * s.Y))
        ev = 2 * np.pi * (k**2 + l**2)
        assert np.max(np.abs(s.laplacian(f) - ev * f)) < 1e-12 * ev


def test_torus_second_difference_oracle():
    # spectral laplacian against a 5-point stencil on a 512^2 grid: the
    # stencil carries its own O(h^2) dispersion, bounded here analytically
    s = build_surface("torus", 512)
    f = np.cos(2 * np.pi * (3 * s.X + 4 * s.Y))
    lap = s.laplacian(f)
    fd = -(np.roll(f, 1, 0) + np.roll(f, -1, 0) + np.roll(f, 1, 1)
           + np.roll(f, -1, 1) - 4 * f) / (2 * np.pi * s.h**2)
    ev = 2 * np.pi * 25
    assert np.max(np.abs(lap - fd)) < ev * (2 * np.pi * 5 * s.h) ** 2 / 6


def test_sphere_eigenvalue_exact(sphere31):
    s = sphere31
    for l, m in [(1, 0), (4, 2), (7, 7), (10, 3)]:
        f = s.eval_modes([(l, m, 0.8, -0.4)])
        ev = 2.0 * l * (l + 1)
        assert np.max(np.abs(s.laplacian(f) - ev * f)) < 1e-12 * ev
        # quadrature oracle: <f, lap f> = ev ||f||^2
        assert abs(s.integrate(f * s.laplacian(f)) - ev * s.integrate(f * f)) \
            < 1e-10 * ev


@settings(deadline=None, max_examples=10)
@given(st.integers(0, 2**32 - 1))
def test_self_adjoint_and_positive(seed):
    s = build_surface("torus", 32)
    rng = np.random.default_rng(seed)
    f, _ = s.random_bandlimited(rng, kmax=5)
    g, _ = s.random_bandlimited(rng, kmax=5)
    lhs = s.integrate(s.laplacian(f) * g)
    rhs = s.integrate(f * s.laplacian(g))
    nf = np.sqrt(s.integrate(f * f))
    ng = np.sqrt(s.integrate(g * g))
    assert abs(lhs - rhs) < 1e-10 * nf * ng
    assert s.integrate(f * s.laplacian(f)) >= -1e-12 * nf**2


@settings(deadline=None, max_examples=10)
@given(st.integers(0, 2**32 - 1))
def test_sphere_self_adjoint(seed):
    s = build_surface("sphere", 15)
    rng = np.random.default_rng(seed)
    f, _ = s.random_bandlimited(rng, kmax=5)
    g, _ = s.random_bandlimited(rng, kmax=5)
    assert abs(s.integrate(s.laplacian(f) * g) - s.integrate(f * s.laplacian(g))) \
        < 1e-10 * max(1.0, np.max(np.abs(f)) * np.max(np.abs(g)))


def test_positive_spectrum_random(torus32):
    rng = np.random.default_rng(11)
    for _ in range(100):
        f, _ = torus32.random_bandlimited(rng, kmax=6)
        assert gradient_pairing(torus32, f, f) >= 0.0


def test_solve_shifted(torus64, sphere31):
    s = torus64
    # c=1, rhs=1 -> f=1
    f = s.solve_shifted(1.0, np.ones(s.shape))
    assert_allclose(f, 1.0, atol=1e-12)
    # c=0 on the lowest mode divides by the eigenvalue 2 pi
    rhs = np.cos(2 * np.pi * s.X)
    f = s.solve_shifted(0.0, rhs)
    assert np.max(np.abs(f - rhs / (2 * np.pi))) < 1e-12
    # the same on the sphere: the l=1 mode has eigenvalue 2*1*2 = 4
    rhs = sphere31.eval_modes([(1, 1, 0.8, -0.4)])
    f = sphere31.solve_shifted(0.0, rhs)
    assert np.max(np.abs(f - rhs / 4.0)) < 1e-12
    for s in (torus64, sphere31):
        # c=0 with nonzero mean refuses
        with pytest.raises(ConfigError, match="mean-free"):
            s.solve_shifted(0.0, np.ones(s.shape))
        with pytest.raises(ConfigError, match="c >= 0"):
            s.solve_shifted(-1e-3, np.zeros(s.shape))


@settings(deadline=None, max_examples=10)
@given(st.integers(0, 2**32 - 1),
       st.one_of(st.just(0.0), st.floats(1e-3, 10.0)))
def test_solve_shifted_roundtrip(seed, c):
    s = build_surface("torus", 32)
    rng = np.random.default_rng(seed)
    f, _ = s.random_bandlimited(rng, kmax=6)
    f -= s.integrate(f) / VOL
    rhs = s.laplacian(f) + c * f
    g = s.solve_shifted(c, rhs)
    resid = s.laplacian(g) + c * g - rhs
    assert np.max(np.abs(resid)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))
    assert np.max(np.abs(g - f)) < 1e-10 * max(1.0, np.max(np.abs(f)))


@settings(deadline=None, max_examples=6)
@given(st.integers(0, 2**32 - 1))
def test_sphere_solve_shifted_roundtrip(seed):
    s = build_surface("sphere", 15)
    rng = np.random.default_rng(seed)
    f, _ = s.random_bandlimited(rng, kmax=5)
    rhs = s.laplacian(f) + 2.5 * f
    g = s.solve_shifted(2.5, rhs)
    assert np.max(np.abs(g - f)) < 1e-10 * max(1.0, np.max(np.abs(f)))


def test_gradient_pairing_values(torus64):
    s = torus64
    assert gradient_pairing(s, np.ones(s.shape), np.ones(s.shape)) == 0.0
    f = np.cos(2 * np.pi * s.X)
    # eigenvalue 2 pi times squared norm pi
    assert abs(gradient_pairing(s, f, f) - 2 * np.pi**2) < 1e-10
    # cross-check by direct gradient quadrature (unit-cell euclidean form)
    fx = np.fft.ifft2(np.fft.fft2(f) * (2j * np.pi) * np.fft.fftfreq(s.n, 1 / s.n)[:, None]).real
    assert abs(gradient_pairing(s, f, f) - np.mean(fx**2)) < 1e-10


def test_sht_roundtrip_and_point_eval(sphere31):
    s = sphere31
    rng = np.random.default_rng(5)
    f, modes = s.random_bandlimited(rng, kmax=6)
    assert np.max(np.abs(s.synthesize(s.analyze(f)) - f)) < 1e-12
    v = sphere_eval_modes(modes, [s.theta[4]], [s.phi[9]])[0]
    assert abs(v - f[4, 9]) < 1e-12


def _reference_tensors(s):
    # the dense (m, i, l) tensors the folded transforms replaced: the table on
    # every node, and its analysis form with the (2I - G) Gram correction of
    # each order taken over all nodes
    P = _legendre_table(s.L, s.mu)
    PW = np.zeros_like(P)
    for m in range(s.L + 1):
        Pm = P[m][:, m:]
        WPm = s.glweights[:, None] * Pm
        G = Pm.T @ WPm
        PW[m][:, m:] = WPm @ (2.0 * np.eye(G.shape[0]) - G).T
    return P, PW


def _einsum_analyze(s, ref, values):
    # reference: the complex einsum the GEMM transforms replaced
    F = np.fft.rfft(values, axis=1)[:, : s.L + 1]
    c = F * (np.sqrt(2.0 * np.pi) / s.nlon)
    return np.einsum("mil,im->lm", ref[1], c, optimize=True)


def _einsum_synthesize(s, ref, coeffs):
    c = np.einsum("mil,lm->im", ref[0], coeffs, optimize=True)
    F = np.zeros((s.nlat, s.nlon // 2 + 1), dtype=np.complex128)
    F[:, : s.L + 1] = c * (s.nlon / np.sqrt(2.0 * np.pi))
    return np.fft.irfft(F, n=s.nlon, axis=1)


# L = 16 leaves the middle order unpaired, L = 17 has an equator node
# (nlat = 27), L = 22 both (nlat = 35)
@pytest.mark.parametrize("L", [15, 16, 17, 22, 31])
def test_sht_matches_einsum_reference(L):
    s = build_surface("sphere", L)
    ref = _reference_tensors(s)
    rng = np.random.default_rng(L)
    # full-spectrum inputs with O(1) grid values, so every order m is exercised
    values = rng.normal(size=s.shape)
    coeffs = (rng.normal(size=(L + 1, L + 1))
              + 1j * rng.normal(size=(L + 1, L + 1))) / (L + 1)
    wide = np.zeros((2 * s.nlat, 2 * s.nlon))
    wide[::2, ::2] = values
    cases_a = [values, np.asfortranarray(values), wide[::2, ::2]]
    for v in cases_a:
        assert np.max(np.abs(s.analyze(v) - _einsum_analyze(s, ref, values))) < 1e-15
    cases_s = [coeffs, np.asfortranarray(coeffs),
               np.repeat(coeffs, 2, axis=1)[:, ::2], s.analyze(values)]
    refs = [_einsum_synthesize(s, ref, c) for c in cases_s]
    assert np.max(np.abs(refs[0])) < 10.0
    for c, want in zip(cases_s, refs):
        assert np.max(np.abs(s.synthesize(c) - want)) < 1e-14
    # real-valued coefficients are accepted as before
    real = coeffs.real.copy()
    assert np.max(np.abs(s.synthesize(real) - _einsum_synthesize(s, ref, real))) < 1e-14


def _by_degree(s, values, factor):
    # reference: through the (L + 1)^2 coefficient array, as the parent
    # solve divided and the Laplacian multiplied there
    return s.synthesize(s.analyze(values) * factor[:, None])


# the per-degree multiplies run on the folded block products and must give
# the bytes of analyze -> scale each degree -> synthesize; at L = 16 the
# middle block has zero rows in place of its second order
@pytest.mark.parametrize("L", [15, 16, 31])
def test_sphere_block_path_matches_coefficient_path(L):
    s = build_surface("sphere", L)
    rng = np.random.default_rng(100 + L)
    values = rng.normal(size=s.shape)
    eig = 2.0 * np.arange(L + 1) * (np.arange(L + 1) + 1.0)
    for c in (0.7, 25.0):
        want = s.synthesize(s.analyze(values) / (eig[:, None] + c))
        assert np.array_equal(s.solve_shifted(c, values), want)
    mean_free = values - s.integrate(values) / VOL
    a = s.analyze(mean_free)
    out = np.zeros_like(a)
    np.divide(a, eig[:, None], out=out, where=eig[:, None] > 0)
    assert np.array_equal(s.solve_shifted(0.0, mean_free), s.synthesize(out))
    assert np.array_equal(s.laplacian(values), _by_degree(s, mean_free, eig))
    # the coefficient map: Parseval-scaled a[l, m], l >= m, degree-major
    l, m = np.tril_indices(L + 1)
    scale = (np.where(m > 0, np.sqrt(2.0), 1.0)
             * np.sqrt(s.nlat * s.nlon / (4.0 * np.pi)))
    coeffs = s.to_coeffs(values)
    assert np.array_equal(coeffs,
                          (s.analyze(values)[l, m] * scale).view(np.float64))
    a = np.zeros((L + 1, L + 1), dtype=np.complex128)
    a[l, m] = coeffs.view(np.complex128) / scale
    assert np.array_equal(s.from_coeffs(coeffs), s.synthesize(a))
    with pytest.raises(ConfigError, match="mean-free"):
        s.solve_shifted(0.0, values + 1.0)
    for c in (-1e-3, -5.0):
        with pytest.raises(ConfigError, match="c >= 0"):
            s.solve_shifted(c, mean_free)


@pytest.mark.parametrize("L", [15, 16])
def test_sphere_preconditioner_spans_the_grid(L):
    # CG's preconditioner is (lap + c)^-1 on degrees <= L and 1/c on the grid
    # part above them: symmetric and positive definite in the quadrature
    # inner product, where solve_shifted maps that part to zero
    s = build_surface("sphere", L)
    rng = np.random.default_rng(L)
    x, y = rng.normal(size=(2,) + s.shape)
    c = 3.0
    eig = 2.0 * np.arange(L + 1) * (np.arange(L + 1) + 1.0)
    assert np.array_equal(s.precondition(c, x),
                          _by_degree(s, x, 1.0 / (eig + c) - 1.0 / c) + x / c)
    high = x - s.synthesize(s.analyze(x))
    assert np.max(np.abs(s.solve_shifted(c, high))) < 1e-12 * np.max(np.abs(high))
    assert np.max(np.abs(s.precondition(c, high) - high / c)) \
        < 1e-12 * np.max(np.abs(high))
    xy, yx = s.integrate(x * s.precondition(c, y)), s.integrate(s.precondition(c, x) * y)
    assert abs(xy - yx) < 1e-12 * abs(xy)
    for f in (x, high):
        assert s.integrate(f * s.precondition(c, f)) > 0.0
    with pytest.raises(ConfigError, match="c > 0"):
        s.precondition(0.0, x)


def test_torus_preconditioner_is_the_shifted_solve(torus32):
    rhs = np.random.default_rng(0).normal(size=torus32.shape)
    assert np.array_equal(torus32.precondition(2.0, rhs),
                          torus32.solve_shifted(2.0, rhs))


def test_legendre_table_matches_point_recurrence(sphere31):
    # the table's recurrence runs over all orders at once;
    # _legendre_point runs one (l, m) at a time
    s = sphere31
    P = _legendre_table(s.L, s.mu)
    for m in range(s.L + 1):
        assert np.all(P[m, :, :m] == 0.0)
        for l in range(m, s.L + 1):
            assert np.max(np.abs(P[m, :, l] - _legendre_point(l, m, s.mu))) < 1e-13


@pytest.mark.parametrize("n", [27, 192])
def test_gauss_legendre_rule(n):
    # Newton's iteration on P_n: the nodes of numpy's eigenvalue rule to
    # rounding, weights summing to 2, and every even monomial of degree
    # <= 2n - 2 integrated to 1e-14 relative
    x, w = _gauss_legendre(n)
    assert np.max(np.abs(x - np.polynomial.legendre.leggauss(n)[0])) <= 2e-16
    assert abs(np.sum(w) - 2.0) <= 1e-15
    k = np.arange(n)
    quad = x ** (2 * k[:, None]) @ w
    assert np.max(np.abs(quad / (2.0 / (2 * k + 1)) - 1.0)) <= 1e-14


def test_sphere_float64_build_at_L255():
    # the float64 Legendre build with its Gram correction at L = 255: the
    # analyze(synthesize) defect at rounding level, and eigenfunctions of
    # degree 10 and 100 within criterion 7's pointwise 4e-10
    s = build_surface("sphere", 255)
    rng = np.random.default_rng(255)
    a = np.tril(rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256)))
    a[:, 0] = a[:, 0].real
    assert np.max(np.abs(s.analyze(s.synthesize(a)) - a)) < 1e-14
    for l, m in [(10, 7), (100, 50)]:
        f = s.eval_modes([(l, m, 0.8, -0.3)])
        assert np.max(np.abs(s.laplacian(f) - 2.0 * l * (l + 1) * f)) < 4e-10


def test_sphere_keeps_no_dense_tensors():
    # the dense analysis and synthesis tensors took 2 (L+1)^2 nlat float64
    s = build_surface("sphere", 127)
    held = sum(v.nbytes for v in vars(s).values() if isinstance(v, np.ndarray))
    assert held <= 2 * (s.L + 1) ** 2 * s.nlat * 8 / 3


def test_torus_mode_eval_consistency(torus32):
    s = torus32
    rng = np.random.default_rng(8)
    f, modes = s.random_bandlimited(rng, kmax=5)
    v = torus_eval_modes(modes, s.X[3, 7], s.Y[3, 7])
    assert abs(v - f[3, 7]) < 1e-12
    lap = torus_eval_modes(modes, s.X, s.Y, laplacian=True)
    assert np.max(np.abs(lap - s.laplacian(f))) < 1e-9
    # at the nodes the off-grid evaluator runs the grid one's operations
    assert np.array_equal(torus_eval_modes(modes, s.X, s.Y), f)


@pytest.mark.parametrize("n", [32, 64])
def test_torus_coeff_map_isometry(n):
    # the Parseval-scaled rfft2 coefficients keep the grid norm, map back to
    # the field and carry the Laplacian as a per-entry multiply
    s = build_surface("torus", n)
    rng = np.random.default_rng(n)
    f = rng.normal(size=s.shape)
    c = s.to_coeffs(f)
    assert c.shape == (2 * s.coeff_eig.size,)
    assert abs(np.linalg.norm(c) - np.linalg.norm(f)) < 1e-14 * np.linalg.norm(f)
    assert np.max(np.abs(s.from_coeffs(c) - f)) < 1e-14 * np.max(np.abs(f))
    _assert_laplacian_per_mode(s, f, c)


@pytest.mark.parametrize("L", [15, 16])
def test_sphere_coeff_map_isometry(L):
    # on a band-limited field (every degree l <= L and order m) the
    # coefficient norm is the quadrature norm, with the Gauss weights
    # normalized to mean 1
    s = build_surface("sphere", L)
    rng = np.random.default_rng(L)
    a = np.tril(rng.normal(size=(L + 1, L + 1))
                + 1j * rng.normal(size=(L + 1, L + 1)))
    a[:, 0] = a[:, 0].real
    f = s.synthesize(a)
    c = s.to_coeffs(f)
    assert c.shape == (2 * s.coeff_eig.size,)
    weight = s.glweights / np.mean(s.glweights)
    quad = np.sqrt(np.sum(weight[:, None] * f * f))
    assert abs(np.linalg.norm(c) - quad) < 1e-14 * quad
    assert np.max(np.abs(s.from_coeffs(c) - f)) < 1e-13 * np.max(np.abs(f))
    _assert_laplacian_per_mode(s, f, c)


def _assert_laplacian_per_mode(s, f, c):
    # each complex coefficient of lap f is coeff_eig times that of f
    want = s.coeff_eig * c.view(np.complex128)
    got = s.to_coeffs(s.laplacian(f)).view(np.complex128)
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_build_bytes_bound():
    # a resolution whose build would exceed the bound is refused before any
    # array is made; the default resolutions are far inside it
    assert build_bytes("torus", 256) < BUILD_MAX_BYTES / 100
    assert build_bytes("sphere", 127) < BUILD_MAX_BYTES / 10
    for backend in ("torus", "sphere"):
        with pytest.raises(ConfigError, match="'resolution'"):
            build_surface(backend, 10**6)


def test_torus_coordinates_are_views():
    # X and Y are the meshgrid of the node coordinates, read-only views of
    # one n-vector each: the torus holds no coordinate grid
    n = 64
    s = build_surface("torus", n)
    x = np.arange(n) / n
    for got, want in zip((s.X, s.Y), np.meshgrid(x, x, indexing="ij")):
        assert np.array_equal(got, want)
        assert not got.flags.writeable
        lo, hi = np.lib.array_utils.byte_bounds(got)
        assert hi - lo == 8 * n


@pytest.mark.parametrize("backend,resolution", [("torus", 1024),
                                                ("sphere", 127)])
def test_build_bytes_covers_build_peak(backend, resolution):
    # the bound is on the peak of the build, temporaries included, not only
    # on the arrays the surface keeps; a small build first does the lazy
    # imports, so that the trace counts the build's arrays only
    build_surface(backend, 16)
    tracemalloc.start()
    try:
        build_surface(backend, resolution)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= build_bytes(backend, resolution)


@pytest.mark.parametrize("name", ["torus32", "sphere15"])
def test_block_model_solve(name, request):
    s = request.getfixturevalue(name)
    rng = np.random.default_rng(3)
    r1, _ = s.random_bandlimited(rng, kmax=4)
    r2, _ = s.random_bandlimited(rng, kmax=4)
    m = (2.0, 1.3, 0.1, 0.7)
    # the model inverse is a per-mode multiply on the spectral coefficients
    i11, i12, i21, i22 = block_symbol(m, s.coeff_eig)
    a1, a2 = (s.to_coeffs(r).view(np.complex128) for r in (r1, r2))
    x1 = s.from_coeffs((i11 * a1 + i12 * a2).view(np.float64))
    x2 = s.from_coeffs((i21 * a1 + i22 * a2).view(np.float64))
    back1 = s.laplacian(x1) + m[0] * x1 + m[1] * s.laplacian(x2)
    back2 = m[2] * x1 + s.laplacian(x2) + m[3] * x2
    assert np.max(np.abs(back1 - r1)) < 1e-10
    assert np.max(np.abs(back2 - r2)) < 1e-10


def _out_calls(s):
    """Each method that takes out=, as (call(out), shape of its result), on
    seeded fields of s; the c = 0 solve on a mean-free field."""
    rng = np.random.default_rng(s.shape[0])
    f = rng.normal(size=s.shape)
    mean_free = f - s.integrate(f) / VOL
    c = s.to_coeffs(f)
    return {
        "laplacian": (lambda out=None: s.laplacian(f, out=out), s.shape),
        "solve_shifted": (lambda out=None: s.solve_shifted(0.7, f, out=out),
                          s.shape),
        "solve_shifted(0)": (
            lambda out=None: s.solve_shifted(0.0, mean_free, out=out), s.shape),
        "precondition": (lambda out=None: s.precondition(2.5, f, out=out),
                         s.shape),
        "to_coeffs": (lambda out=None: s.to_coeffs(f, out=out), c.shape),
        "from_coeffs": (lambda out=None: s.from_coeffs(c, out=out), s.shape),
    }


@pytest.mark.parametrize("backend,resolution", [("torus", 32), ("torus", 256),
                                                ("sphere", 15), ("sphere", 16)])
def test_out_is_the_result_with_the_same_bits(backend, resolution):
    # a method given out= writes its result there and returns out, with the
    # bits of the call that allocates
    s = build_surface(backend, resolution)
    for name, (call, shape) in _out_calls(s).items():
        out = np.full(shape, np.nan)
        assert call(out) is out, name
        assert np.array_equal(out, call()), name


def test_torus_out_calls_allocate_no_field():
    # with out= the torus transforms run in scratch the surface owns: a call
    # allocates less than half a field (numpy's ufunc cast buffer, 128 KiB,
    # is what remains), where the allocating call takes a field or more
    s = build_surface("torus", 256)
    field = 8 * s.n * s.n
    for name, (call, shape) in _out_calls(s).items():
        out = np.empty(shape)
        call(out)
        tracemalloc.start()
        try:
            call(out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < field / 2, name
