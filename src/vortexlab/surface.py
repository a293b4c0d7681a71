"""Spectral geometry on the two compact model surfaces.

Both backends carry the same normalization: total volume fixed at 2*pi, the
background metric has constant curvature (flat torus, round sphere with
Ric = 2*omega0), and the Laplacian is sign-fixed to have *nonnegative*
spectrum, so that ``omega = (1 - lap(u)) * omega0`` for a potential u and
``integrate(f * lap(f)) >= 0``.

Torus: unit square [0,1)^2 with omega0 = 2*pi dx dy, so
``lap = -(1/2pi)(d^2/dx^2 + d^2/dy^2)`` and the plane wave
cos(2*pi*(k*x + l*y)) is an eigenfunction with eigenvalue 2*pi*(k^2+l^2).

Sphere: radius r with r^2 = 1/2 (area 2*pi), eigenvalue of a degree-l
spherical harmonic is l*(l+1)/r^2 = 2*l*(l+1).

All operations act on plain float64 arrays shaped like the surface grid;
``check_field`` enforces the shape/finiteness contract at module boundaries.
``to_coeffs``/``from_coeffs`` map a field to a flat real vector of its
complex spectral coefficients, (Re, Im) interleaved, and back, scaled so
that the vector's Euclidean norm is the field's grid norm (weighted by cell
area, normalized to mean 1); ``coeff_eig`` is the Laplacian eigenvalue of
each coefficient, one per (Re, Im) pair.

``laplacian``, ``solve_shifted``, ``precondition``, ``to_coeffs`` and
``from_coeffs`` write their result into ``out=`` (a contiguous float64
array that is not the input) and return it, with the bits of the call
without it. On the torus such a call allocates no field: the transforms
run through scratch spectra the surface owns, so a surface is not safe to
share between threads. Its ``counts`` are the work the solvers did on it,
by kind (CG and GMRES iterations, coupled Newton steps, ...).

On the sphere one private pair of transforms, ``_blocks`` (grid to the
folded Legendre block products) and ``_grid`` (back), carries every
spectral operation: ``laplacian``, ``solve_shifted`` and ``precondition``
multiply each block slot by its degree's factor, and the coefficient maps
gather and scatter the slots that hold coefficients. ``analyze`` and
``synthesize`` wrap the same pair for callers that want the (L+1, L+1)
coefficient array.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

import numpy as np

from .errors import ConfigError

VOL = 2.0 * np.pi

# largest surface build: the torus grid arrays, the sphere's folded Legendre
# tensors; a larger resolution is refused before anything is allocated
BUILD_MAX_BYTES = 2**30

__all__ = [
    "VOL",
    "BUILD_MAX_BYTES",
    "Torus",
    "Sphere",
    "build_surface",
    "check_field",
    "mask_away_from_points",
]


def check_field(surface, values):
    """Validate a sampled field against its owning surface; returns the array."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != surface.shape:
        raise ConfigError(
            f"field shape {values.shape} does not match surface grid {surface.shape}"
        )
    if not np.all(np.isfinite(values)):
        raise ConfigError("field contains non-finite entries")
    return values


def mask_away_from_points(surface, points, radius):
    """The grid nodes farther than radius from every point."""
    mask = np.ones(surface.shape, dtype=bool)
    for p in points:
        mask &= surface.distance_field(p) > radius
    return mask


class Torus:
    """Flat unit-square torus with spectral (FFT) differential operators."""

    backend = "torus"
    euler_char = 0
    curvature = 0.0  # Ric omega0 = 0

    def __init__(self, n):
        if n < 16 or n % 2 != 0:
            raise ConfigError(f"torus resolution must be even and >= 16, got {n}")
        self.n = int(n)
        self.counts = Counter()
        self.shape = (self.n, self.n)
        self.h = 1.0 / self.n
        self.vol = VOL
        # the node coordinates as read-only broadcast views of one vector,
        # X[i, j] = i / n and Y[i, j] = j / n, holding no n^2 grid
        x = np.arange(self.n) / self.n
        self.X = np.broadcast_to(x[:, None], self.shape)
        self.Y = np.broadcast_to(x[None, :], self.shape)
        kx = np.fft.fftfreq(self.n, d=1.0 / self.n)
        ky = np.fft.rfftfreq(self.n, d=1.0 / self.n)
        self._eig_r = 2.0 * np.pi * (kx[:, None] ** 2 + ky[None, :] ** 2)
        # scratch of the transforms: the half spectrum and the shifted
        # eigenvalues of solve_shifted, overwritten by every call
        self._spec = np.empty(self._eig_r.shape, np.complex128)
        self._shifted = np.empty_like(self._eig_r)
        # Parseval scale of the rfft2 half spectrum: the columns ky = 0 and
        # n/2 count once, every other column also for its conjugate
        weight = np.full(self.n // 2 + 1, np.sqrt(2.0))
        weight[[0, -1]] = 1.0
        self._coeff_scale = weight / self.n
        self._coeff_unscale = self.n / weight
        self.coeff_eig = self._eig_r.ravel()

    # -- quadrature and spectral calculus -------------------------------
    def integrate(self, values):
        return float(VOL * np.mean(values))

    def _inverse(self, spec, out):
        """The field of a half spectrum, into out (a new array for None):
        irfft2 as numpy runs it, ifft along x then irfft along y, with the
        ifft in place in spec, which it overwrites."""
        np.fft.ifft(spec, axis=0, out=spec)
        return np.fft.irfft(spec, n=self.n, axis=1, out=out)

    def laplacian(self, values, out=None):
        spec = np.fft.rfft2(values, out=self._spec)
        spec *= self._eig_r
        return self._inverse(spec, out)

    def solve_shifted(self, c, rhs, out=None):
        """Solve (lap + c) f = rhs spectrally.

        c = 0 requires a mean-free rhs and returns the zero-mean solution.
        """
        spec = np.fft.rfft2(rhs, out=self._spec)
        _shifted_inverse(self, c, rhs, spec, self._eig_r, out=spec,
                         shifted=self._shifted)
        return self._inverse(spec, out)

    # CG's preconditioner (lap + c)^-1: the FFT spectrum spans the whole grid
    precondition = solve_shifted

    def to_coeffs(self, values, out=None):
        """Parseval-scaled rfft2 coefficients, (Re, Im) interleaved."""
        if out is None:
            out = np.empty(2 * self._eig_r.size)
        spec = out.view(np.complex128).reshape(self._eig_r.shape)
        np.fft.rfft2(values, out=spec)
        spec *= self._coeff_scale
        return out

    def from_coeffs(self, coeffs, out=None):
        """The field of a coefficient vector of ``to_coeffs``."""
        half = coeffs.view(np.complex128).reshape(self._eig_r.shape)
        return self._inverse(
            np.multiply(half, self._coeff_unscale, out=self._spec), out)

    def low_modes(self, fields, bound):
        """The products of the fields between the low modes k = (kx, ky),
        |kx|, |ky| <= bound (kx major), and where those modes sit in a
        ``to_coeffs`` vector: (window, index, mirror, scale).

        window[i, k, l] is the Fourier coefficient of fields[i] at k - l,
        mean(f_i e^{-2 pi i (k - l).x}): the entry of the multiplication by
        f_i between the orthonormal Fourier modes l and k. index[k] is the
        position, in the complex view of a field's coefficient vector, of
        k's coefficient or, where mirror[k], of that of -k, whose conjugate
        it is (the half spectrum holds ky >= 0); the vector holds scale[k]
        times the orthonormal coefficient there. The window is exact for
        4 bound < n. It is a partial DFT, two small products per field (the
        columns dy = 0..2 bound, then the rows): O(n^2 bound) work and no
        2-D transform."""
        b, n, half = int(bound), self.n, self.n // 2 + 1
        d = np.arange(-2 * b, 2 * b + 1)
        cells = np.arange(n)
        # e^{-2 pi i dy y} for dy >= 0 as (Re, Im) column pairs, a real
        # matrix that takes the real field with no complex copy of it, and
        # e^{-2 pi i dx x}
        angle = (2.0 * np.pi / n) * (np.outer(cells, d[2 * b:]) % n)
        ey = np.empty(angle.shape + (2,))
        ey[..., 0], ey[..., 1] = np.cos(angle), -np.sin(angle)
        ey = ey.reshape(n, -1)
        ex = np.exp((-2j * np.pi / n) * (np.outer(d, cells) % n))
        window = np.empty((len(fields), d.size, d.size), np.complex128)
        for w, f in zip(window, fields):
            w[:, 2 * b:] = ex @ (f @ ey).view(np.complex128)
            # dy < 0: the coefficient at -d, conjugated
            w[:, :2 * b] = np.conj(w[::-1, :2 * b:-1])
        window /= n * n
        k = np.arange(-b, b + 1)
        kx, ky = np.repeat(k, k.size), np.tile(k, k.size)
        mirror = ky < 0
        sign = np.where(mirror, -1, 1)
        index = (sign * kx) % n * half + sign * ky
        scale = n * self._coeff_scale[np.abs(ky)]
        window = window[:, kx[:, None] - kx + 2 * b, ky[:, None] - ky + 2 * b]
        return window, index, mirror, scale

    @cached_property
    def _dz_mult(self):
        """Full-spectrum d/dz multiplier, Nyquist zeroed for odd
        derivatives; built on first use (only ``verify`` takes dz)."""
        kx = np.fft.fftfreq(self.n, d=1.0 / self.n)
        kx[self.n // 2] = 0.0
        return np.pi * (kx[None, :] + 1j * kx[:, None])

    def dz(self, values):
        """d/dz = (d/dx - i d/dy)/2 of a real field (complex output)."""
        vk = np.fft.fft2(values)
        return np.fft.ifft2(vk * self._dz_mult)

    def dz2(self, values):
        vk = np.fft.fft2(values)
        return np.fft.ifft2(vk * self._dz_mult**2)

    # -- geometry --------------------------------------------------------
    def wrap_displacement(self, p):
        """Min-image displacement (dx, dy) from p to every grid node."""
        dx = self.X - p[0]
        dy = self.Y - p[1]
        dx -= np.round(dx)
        dy -= np.round(dy)
        return dx, dy

    def distance_field(self, p):
        dx, dy = self.wrap_displacement(p)
        return np.hypot(dx, dy)

    def distance_points(self, a, b):
        dx = a[0] - b[0] - round(a[0] - b[0])
        dy = a[1] - b[1] - round(a[1] - b[1])
        return float(np.hypot(dx, dy))

    def point_off_grid(self, p):
        # offsets measured in cell units, of coordinates wrapped into [0, 1);
        # a node hit needs both near 0 (within 1e-6). A coordinate whose
        # float spacing exceeds that (|x| > ~1e8) has no position on the torus.
        if np.spacing(max(map(abs, p))) * self.n > 1e-6:
            return False
        x, y = p[0] % 1.0 * self.n, p[1] % 1.0 * self.n
        return max(abs(x - round(x)), abs(y - round(y))) > 1e-6

    # -- band-limited test fields ----------------------------------------
    def random_bandlimited(self, rng, kmax=6, nmodes=8, amp=1.0):
        """Random real trigonometric polynomial; returns (values, modes).

        modes is a list of (kx, ky, a, b) meaning a*cos(2pi k.x) + b*sin(2pi k.x).
        """
        modes = []
        for _ in range(nmodes):
            while True:
                k = (int(rng.integers(-kmax, kmax + 1)), int(rng.integers(-kmax, kmax + 1)))
                if k != (0, 0):
                    break
            modes.append((k[0], k[1], float(rng.normal(0, amp)), float(rng.normal(0, amp))))
        return self.eval_modes(modes), modes

    def eval_modes(self, modes):
        """The grid values of a mode list of ``random_bandlimited``."""
        out = np.zeros_like(self.X)
        for kx, ky, a, b in modes:
            phase = 2.0 * np.pi * (kx * self.X + ky * self.Y)
            out += a * np.cos(phase) + b * np.sin(phase)
        return out


class Sphere:
    """Round sphere of area 2*pi with a Gauss-Legendre x uniform grid.

    The grid oversamples the spectral truncation L (3/2-type rule) so that
    quadrature is exact for products of band-limited fields and pointwise
    nonlinearities alias weakly.
    """

    backend = "sphere"
    euler_char = 2
    curvature = 2.0  # Ric omega0 = 2 omega0 at r^2 = 1/2

    def __init__(self, L):
        if L < 15:
            raise ConfigError(f"sphere resolution must satisfy L >= 15, got {L}")
        self.L = int(L)
        self.counts = Counter()
        self.r = np.sqrt(0.5)
        self.vol = VOL
        self.nlat = int(np.ceil(3 * (L + 1) / 2))
        nlon = 3 * (L + 1)
        self.nlon = nlon + (nlon % 2)
        self.shape = (self.nlat, self.nlon)
        self.h = np.pi * self.r / self.nlat  # typical node spacing (geodesic units)
        mu, w = _gauss_legendre(self.nlat)
        self.mu = mu
        self.glweights = w
        self.theta = np.arccos(mu)
        self.phi = 2.0 * np.pi * np.arange(self.nlon) / self.nlon
        self._eig = 2.0 * np.arange(self.L + 1) * (np.arange(self.L + 1) + 1.0)
        self._pfold, self._pfold_w, self._fold, self._src, self._dst = \
            _folded_legendre(self.L, mu, w, self.nlon // 2 + 1)
        # degree of every (block, row, order half, parity) slot of the block
        # products that holds a coefficient; L + 1 marks the slots that hold
        # none (the other parity, the unpaired middle order at even L)
        slots = np.full(self._pfold.shape[:2] + (4,), self.L + 1, np.int16)
        slots.flat[self._src[::2] // 2] = self._dst[::2] // 2 // (self.L + 1)
        self._slot_degree = slots
        # the unit vectors of the nodes, each plane written in place
        st = np.sin(self.theta)
        self.xyz = np.empty(self.shape + (3,))
        np.multiply.outer(st, np.cos(self.phi), out=self.xyz[..., 0])
        np.multiply.outer(st, np.sin(self.phi), out=self.xyz[..., 1])
        self.xyz[..., 2] = mu[:, None]

    # -- transforms -------------------------------------------------------
    def _blocks(self, values):
        """Grid -> the (nb, L+2, 8) folded block products PW @ take(F, fold)
        of the north +- south spectra F; the (Re, Im) of a[l, m] sit at src,
        and the slots whose ``_slot_degree`` is L + 1 hold no coefficient."""
        nn = self._pfold.shape[2]
        north, south = values[self.nlat - nn:], values[nn - 1::-1]
        folded = np.empty((nn, 2, self.nlon))
        np.add(north, south, out=folded[:, 0])
        np.subtract(north, south, out=folded[:, 1])
        F = np.fft.rfft(folded, norm="forward")
        return self._pfold_w @ np.take(F, self._fold).view(np.float64)

    def _grid(self, blocks, out=None):
        """Folded block products -> grid, into out (a new array for None);
        the inverse of ``_blocks`` on slots that hold coefficients, which
        must be 0 elsewhere."""
        nn = self._pfold.shape[2]
        G = (self._pfold.transpose(0, 2, 1) @ blocks).view(np.complex128)
        # block b holds order b, and order L - b for b < (L + 1) // 2, as
        # (north + south, north - south) spectra at every northern node
        L, paired = self.L, (self.L + 1) // 2
        F = np.empty((nn, 2, self.nlon // 2 + 1), dtype=np.complex128)
        F[:, :, :len(G)] = G[:, :, :2].transpose(1, 2, 0)
        F[:, :, L:L - paired:-1] = G[:paired, :, 2:].transpose(1, 2, 0)
        F[:, :, L + 1:] = 0.0
        g = np.fft.irfft(F, n=self.nlon, norm="forward")
        if out is None:
            out = np.empty(self.shape)
        np.add(g[:, 0], g[:, 1], out=out[self.nlat - nn:])
        np.subtract(g[:, 0], g[:, 1], out=out[nn - 1::-1])
        return out

    def _scaled(self, values, factor, out):
        """The field whose degree-l coefficients are factor[l] times those
        of values, without leaving the block layout; into out as _grid."""
        blocks = self._blocks(values)
        slots = blocks.view(np.complex128)  # (Re, Im) of one slot
        slots *= np.take(np.append(factor, 0.0), self._slot_degree)
        return self._grid(blocks, out)

    def analyze(self, values):
        """Forward transform to coefficients a[l, m] for m >= 0."""
        a = np.zeros((self.L + 1, self.L + 1), dtype=np.complex128)
        np.put(a.view(np.float64), self._dst,
               np.take(self._blocks(values), self._src))
        return a

    def synthesize(self, coeffs):
        """Inverse transform of coefficients a[l, m] to grid values."""
        c = np.ascontiguousarray(coeffs, dtype=np.complex128)
        blocks = np.zeros(self._pfold.shape[:2] + (8,))
        np.put(blocks, self._src, np.take(c.view(np.float64), self._dst))
        return self._grid(blocks)

    def to_coeffs(self, values, out=None):
        """Quadrature-scaled a[l, m] for l >= m, (Re, Im) interleaved."""
        if out is None:
            out = np.empty(self._src.size)
        coeffs = np.take(self._blocks(values), self._src).view(np.complex128)
        np.multiply(coeffs, self._coeff_map[0], out=out.view(np.complex128))
        return out

    def from_coeffs(self, coeffs, out=None):
        """The field of a coefficient vector of ``to_coeffs``."""
        blocks = np.zeros(self._pfold.shape[:2] + (8,))
        a = coeffs.view(np.complex128) / self._coeff_map[0]
        np.put(blocks, self._src, a.view(np.float64))
        return self._grid(blocks, out)

    @property
    def coeff_eig(self):
        """Laplacian eigenvalue of each coefficient of ``to_coeffs``."""
        return self._coeff_map[1]

    @cached_property
    def _coeff_map(self):
        """(scale, Laplacian eigenvalue) of each coefficient of
        ``to_coeffs``, in the order of src; built on first use. a[l, m] of
        order m > 0 stands also for a[l, -m], so it counts twice in the
        quadrature norm, which the Gauss weights normalized to mean 1 put on
        the scale of the torus's grid norm."""
        l, m = np.divmod(self._dst[::2] // 2, self.L + 1)
        scale = (np.where(m > 0, np.sqrt(2.0), 1.0)
                 * np.sqrt(self.nlat * self.nlon / (4.0 * np.pi)))
        return scale, self._eig[l]

    def integrate(self, values):
        return float(
            self.r**2
            * (2.0 * np.pi / self.nlon)
            * np.dot(self.glweights, np.sum(values, axis=1))
        )

    def laplacian(self, values, out=None):
        # subtracting the mean kills the constant exactly; without it the
        # quadrature noise of the l=0 mode is amplified by the top eigenvalue
        vbar = self.integrate(values) / VOL
        return self._scaled(values - vbar, self._eig, out)

    def solve_shifted(self, c, rhs, out=None):
        """Solve (lap + c) f = rhs spectrally; c = 0 as on the torus."""
        return self._scaled(rhs, _shifted_inverse(self, c, rhs, 1.0, self._eig),
                            out)

    def precondition(self, c, rhs, out=None):
        """(lap + c)^-1 on degrees <= L and 1/c on the grid part above them,
        for c > 0: symmetric positive definite in the quadrature inner
        product on the whole grid, where ``solve_shifted`` drops that part."""
        if c <= 0:
            raise ConfigError("the preconditioner requires c > 0")
        out = self._scaled(rhs, 1.0 / (self._eig + c) - 1.0 / c, out)
        out += rhs / c
        return out

    # -- geometry ----------------------------------------------------------
    def unit_point(self, p):
        """(lat, lon) in radians -> unit vector."""
        lat, lon = p
        return np.array(
            [np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)]
        )

    def distance_field(self, p):
        return self.r * np.arccos(self.cos_angle_field(p))

    def cos_angle_field(self, p):
        u = self.unit_point(p)
        return np.clip(self.xyz @ u, -1.0, 1.0)

    def distance_points(self, a, b):
        ca = float(np.clip(self.unit_point(a) @ self.unit_point(b), -1.0, 1.0))
        return float(self.r * np.arccos(ca))

    def point_off_grid(self, p):
        return float(np.min(self.distance_field(p))) > 1e-9

    # -- band-limited test fields ------------------------------------------
    def random_bandlimited(self, rng, kmax=6, nmodes=8, amp=1.0):
        """Random combination of low-degree real harmonics; returns (values, modes).

        modes is a list of (l, m, a, b) meaning a*Re(Ylm) + b*Im(Ylm) terms
        (orthonormalized on the unit sphere, evaluated on our grid).
        """
        modes = []
        for _ in range(nmodes):
            l = int(rng.integers(1, kmax + 1))
            m = int(rng.integers(0, l + 1))
            modes.append((l, m, float(rng.normal(0, amp)), float(rng.normal(0, amp))))
        return self.eval_modes(modes), modes

    def eval_modes(self, modes):
        """The grid values of a mode list of ``random_bandlimited``."""
        coeffs = np.zeros((self.L + 1, self.L + 1), dtype=np.complex128)
        for l, m, a, b in modes:
            if m == 0:
                coeffs[l, 0] += a + 0j
            else:
                coeffs[l, m] += 0.5 * (a - 1j * b)
        return self.synthesize(coeffs)


def _shifted_inverse(surface, c, rhs, coeffs, eig, out=None, shifted=None):
    """Coefficients of (lap + c)^-1 rhs, given the coefficients of rhs (or
    1.0, for the factor of each mode) and the Laplacian eigenvalue of each
    mode; into out, which may be coeffs, with eig + c in shifted (new arrays
    for None).

    For c = 0 rhs must be mean-free, and the mean mode of the solution is 0.
    """
    if c < 0:
        raise ConfigError("shifted solve requires c >= 0")
    shifted = np.add(eig, c, out=shifted)
    if c < 1e-12:  # mean-mode division is meaningless below roundoff
        mean = surface.integrate(rhs)
        if abs(mean) > 1e-9 * max(1.0, float(np.max(rhs)), -float(np.min(rhs))):
            raise ConfigError(f"c=0 solve needs mean-free rhs; integral = {mean:.3e}")
        if out is None:
            out = np.zeros(eig.shape, np.result_type(coeffs, eig))
        modes = eig > 0
        np.divide(coeffs, shifted, out=out, where=modes)
        out[~modes] = 0.0
        return out
    return np.divide(coeffs, shifted, out=out)


def _folded_legendre(L, mu, w, nfreq):
    """Legendre tensors of the sphere transforms, folded at the equator and
    packed in blocks; returns (P, PW, fold, src, dst).

    P_lm(-mu) = (-1)^(l+m) P_lm(mu) on the symmetric Gauss nodes, so both
    tensors hold the nn = ceil(nlat/2) northern nodes only, and the
    transforms work on north+south sums (even l+m) and differences (odd).
    Block b packs order b (degrees l = b..L, rows 0..L-b) and order L-b
    (rows L+1-b..L+1): P[b] is (L+2, nn), with zero rows in place of the
    second order when L is even and b = L/2. Blocks multiply 8 real
    columns, (Re, Im) of the sum and the difference for each of the two
    orders.
    - PW is the analysis tensor, with the quadrature weights, a halved
      equator row (its sum is twice its value) and the (2I - G) Gram
      correction of each order and parity folded in.
    - P and PW carry the 1/sqrt(2 pi) of the orthonormal harmonics, so the
      FFTs run with norm="forward".
    - fold[b, i, 2 * half + parity] is the flat index into the (nn, 2,
      nfreq) north+south / north-south spectra of the column that block b
      takes for node i. A missing second order maps to frequency L+1: its
      rows are zero, so analysis ignores what it reads there.
    - src and dst are matching flat indices of the (Re, Im) parts of every
      l >= m in the (nb, L+2, 8) block products and in the (L+1, L+1)
      coefficient array.
    """
    nlat = len(mu)
    nn = (nlat + 1) // 2
    nb = L // 2 + 1
    orders = np.arange(L + 1)
    upper = orders > L - orders  # order m sits in the second half of its block
    block = np.minimum(orders, L - orders)
    base = block * (L + 2) + np.where(upper, orders + 1, 0)  # row of l = m
    P = np.zeros((nb * (L + 2), nn))
    for k, row in _legendre_diagonals(L, mu[nlat - nn:]):
        P[base[: L + 1 - k] + k] = row
    # the rounding of the recurrence and of the Gauss rule leaves
    # analyze(synthesize) = I + E with max |E| ~ 1e-14 at L = 127, and the
    # Laplacian amplifies E by the top eigenvalue; (2I - G) per order and
    # parity knocks the defect down to O(E^2 + eps)
    half_w = w[nlat - nn:].copy()
    if nlat % 2:
        half_w[0] *= 0.5
    PW = P * half_w
    # one order and parity at a time, on its every-other-row slice of its
    # block, so the build peaks at P, PW and one such block of G (see
    # build_bytes); the factor 2 of G counts the southern nodes
    for start, stop in zip(base, base + L + 1 - orders):
        for parity in (0, 1):
            rows = slice(start + parity, stop, 2)
            G = PW[rows] @ P[rows].T
            G *= -2.0
            G.flat[::len(G) + 1] += 2.0
            PW[rows] = G @ PW[rows]
    P = P.reshape(nb, L + 2, nn)
    PW = PW.reshape(nb, L + 2, nn)
    PW *= np.sqrt(2.0 * np.pi)
    P /= np.sqrt(2.0 * np.pi)
    l, m = np.tril_indices(L + 1)
    half_order = np.full((nb, 2), L + 1)
    half_order[block, upper.astype(int)] = orders
    spectrum_row = (2 * np.arange(nn)[:, None] + np.arange(2)) * nfreq
    fold = spectrum_row[:, None, :] + half_order[:, None, :, None]
    col = 4 * upper[m] + 2 * ((l + m) % 2)
    src = ((8 * (base[m] + l - m) + col)[:, None] + [0, 1]).ravel()
    dst = ((2 * (l * (L + 1) + m))[:, None] + [0, 1]).ravel()
    return P, PW, fold.reshape(nb, nn, 4), src, dst


def _legendre_diagonals(L, mu):
    """Yield (k, D) for k = 0..L, D[m, i] = P_{m+k}^m(mu_i) for m = 0..L-k,
    each normalized to unit L2 norm on [-1, 1].

    The recurrence runs in float64. Its rounding leaves ~1e-14 cross-talk in
    the quadrature Gram matrix, which the (2I - G) correction of
    ``_folded_legendre`` removes, so extended precision buys nothing: the
    largest analyze(synthesize) defect over six draws of random
    coefficients is 4.5e-15 at L = 127 and 7.1e-15 at L = 255, against
    4.5e-15 and 5.9e-15 with the recurrence in extended precision (medians
    3.9e-15 and 5.4e-15 either way)."""
    s = np.sqrt(np.clip(1.0 - mu**2, 0.0, None))
    pmm = np.empty((L + 1, len(mu)))
    pmm[0] = 1.0 / np.sqrt(2.0)
    for m in range(L):
        pmm[m + 1] = pmm[m] * (-np.sqrt((2 * m + 3) / (2 * m + 2))) * s
    yield 0, pmm
    m = np.arange(L)
    prev, cur = pmm, np.sqrt(2 * m + 3.0)[:, None] * mu * pmm[:L]
    for k in range(2, L + 1):
        yield k - 1, cur
        m = np.arange(L + 1 - k)
        l = m + k
        a = np.sqrt((4 * l * l - 1) / (l * l - m * m))[:, None]
        b = np.sqrt(((l - 1) ** 2 - m * m) / (4 * (l - 1) ** 2 - 1))[:, None]
        prev, cur = cur, a * (mu * cur[: L + 1 - k] - b * prev[: L + 1 - k])
    yield L, cur


def _gauss_legendre(n):
    """The n Gauss-Legendre nodes, ascending, and their weights.

    Newton's iteration on P_n from Tricomi's asymptotic guesses, in float64
    (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013). It runs on the nodes
    x >= 0 and mirrors them, so the rule is exactly symmetric; an odd n
    puts its middle node at 0 exactly (the recurrence's rounding would move
    it by ~1e-17). The weight 2 / ((1 - x^2) P_n'(x)^2) moves by
    2x / (1 - x^2) relative per unit of x at a node, so it is taken at the
    root, to first order in the last Newton step, which then lands the
    node. At n = 192 the nodes come out correctly rounded and the weights
    within 5e-15 relative of the exact ones, where numpy's ``leggauss`` is
    off by 4.2e-11."""
    k = np.arange(n // 2, 0, -1)
    x = np.cos(np.pi * (4 * k - 1) / (4 * n + 2)) * (1.0 - (n - 1) / (8.0 * n**3))
    x = np.concatenate((np.zeros(n % 2), x))
    for _ in range(20):
        p, dp = _legendre_and_derivative(n, x)
        step = p / dp
        # Newton's error after a step s is ~ s^2 x / (1 - x^2), below the
        # rounding of x for s < 1e-12
        if np.max(np.abs(step)) < 1e-12:
            break
        x -= step
    s2 = (1.0 - x) * (1.0 + x)
    w = 2.0 / (s2 * dp * dp) * (1.0 + 2.0 * x * step / s2)
    x -= step
    x[: n % 2] = 0.0
    return (np.concatenate((-x[::-1][:n // 2], x)),
            np.concatenate((w[::-1][:n // 2], w)))


def _legendre_and_derivative(n, x):
    """P_n(x) and P_n'(x) for 0 <= x < 1, by the three-term recurrence in
    Reinsch's form: it carries d = P_j - P_{j-1} and 1 - x, which is exact
    for x >= 1/2, so it keeps its digits near x = 1, where P_j ~ 1 and the
    plain recurrence leaves 2e-13 relative in the weights at n = 192."""
    y = 1.0 - x
    p, d = x.copy(), -y  # P_1 and P_1 - P_0
    for j in range(1, n):
        d *= j
        d -= (2 * j + 1) * y * p
        d /= j + 1
        p += d
    return p, n * (p - d - x * p) / (y * (1.0 + x))


def build_surface(backend, resolution):
    """Construct a surface; torus needs even n >= 16, sphere needs L >= 15,
    and neither may take more than BUILD_MAX_BYTES to build."""
    if backend not in ("torus", "sphere"):
        raise ConfigError(f"unknown backend {backend!r}")
    if build_bytes(backend, resolution) > BUILD_MAX_BYTES:
        raise ConfigError(f"'resolution' {resolution} would take more than "
                          f"{BUILD_MAX_BYTES} bytes to build")
    return Torus(resolution) if backend == "torus" else Sphere(resolution)


def build_bytes(backend, resolution):
    """Bytes a surface build holds at its peak, rounded up: on the torus
    three float64 grids, where the build holds two (on the rfft2 half grid,
    the eigenvalues, the shifted eigenvalues and the complex spectrum, the
    last two scratch; the node coordinates are broadcast views) and O(n)
    vectors; on the sphere the two folded Legendre tensors P and PW (the
    Gram correction runs on one order and parity at a time, so G is one
    such block of at most L/2 + 1 rows), the three planes of ``xyz`` and
    the O(L^2) index arrays and small temporaries (their coefficient fitted
    to traced build peaks at L = 15-400)."""
    n = int(resolution)
    if backend == "torus":
        return 3 * 8 * n * n
    nlat = (3 * (n + 1) + 1) // 2
    nlon = 3 * (n + 1) + (3 * (n + 1)) % 2
    nb, rows, nn = n // 2 + 1, n + 2, (nlat + 1) // 2
    return 8 * (2 * nb * rows * nn + 3 * nlat * nlon) + 120 * rows * rows
