"""Trigonometric fields on the torus and the nonlocal operators acting on them.

A field is a real 2π-periodic function stored as truncated cosine/sine
amplitudes

    f(x) = a_0 + sum_{k=1}^{N} a_k cos(k x) + b_k sin(k x),

with collocation values on a uniform grid over [0, 2π).  Cosine and sine
amplitudes are kept in separate arrays so that the even/odd subspaces are
plain slices: ``CosineSeries`` has b ≡ 0, ``SineSeries`` has a ≡ 0.  FFTs
work on the complex half-spectrum u_k = (a_k - i b_k)/2, u_0 = a_0; this
module owns that conversion (``_hat``, ``_amplitudes``).  The conversion,
synthesis and analysis helpers act on the last axis, so a stack of
amplitude rows is transformed at once.

All linear operators act diagonally per mode and are exact:

    hilbert:     a_k cos(kx) -> a_k sin(kx),   b_k sin(kx) -> -b_k cos(kx)
    zygmund:     multiplies mode k by |k| = k  (equals hilbert ∘ d/dx)
    derivative:  the usual spectral derivative

Pointwise products are evaluated on a zero-padded grid sized by the factors'
trigonometric degrees, so every retained mode of a product is alias-free
(this is stronger than the usual 3/2-rule padding, which it subsumes).
Slow principal-value quadratures of the singular-integral forms of the
Hilbert and Zygmund operators are provided as independent cross-checks of
the mode maps; they are never used on the production path.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "SpectralField",
    "CosineSeries",
    "SineSeries",
    "to_spectral",
    "hilbert",
    "zygmund",
    "derivative",
    "multiply",
    "commutator_h",
    "translate",
    "hilbert_by_quadrature",
    "zygmund_by_quadrature",
]


def _next_pow2(n):
    return 1 << max(3, int(n - 1).bit_length())


def _as_readonly(arr):
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


class SpectralField:
    """A real 2π-periodic function held as cosine/sine amplitudes plus grid values.

    Parameters
    ----------
    cos_amplitudes : array of a_k for k = 0..N (a_0 is the mean).
    sin_amplitudes : array of b_k for k = 0..N; b_0 must be 0.  Omitted means
        all zero (a pure cosine expansion).
    grid_size : number of collocation points; defaults to 2N+2, the smallest
        even grid resolving all N modes below Nyquist.
    """

    __slots__ = ("a", "b", "grid_size", "_values", "_degree")

    def __init__(self, cos_amplitudes, sin_amplitudes=None, grid_size=None):
        a = _as_readonly(cos_amplitudes)
        if a.ndim != 1 or a.size == 0:
            raise ConfigurationError("cosine amplitudes must be a nonempty 1-d array")
        if sin_amplitudes is None:
            b = np.zeros_like(a)
            b.setflags(write=False)
        else:
            b = _as_readonly(sin_amplitudes)
        if b.shape != a.shape:
            raise ConfigurationError("cosine and sine amplitude arrays must have equal length")
        if b[0] != 0.0:
            raise ConfigurationError("sine amplitude b_0 must be zero")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ConfigurationError("amplitudes must be finite")
        n = a.size - 1
        min_grid = 2 * n + 2
        if grid_size is None:
            grid_size = min_grid
        elif grid_size < min_grid or grid_size % 2:
            raise ConfigurationError(
                f"grid_size must be even and >= {min_grid} for {n} modes"
            )
        self.a = a
        self.b = b
        self.grid_size = int(grid_size)
        self._values = None
        self._degree = None

    # -- basic structure ---------------------------------------------------

    @property
    def n_modes(self):
        """Truncation N: amplitudes run over k = 0..N."""
        return self.a.size - 1

    @property
    def degree(self):
        """Highest mode with a nonzero amplitude (0 for constants and zero)."""
        if self._degree is None:  # the amplitudes are read-only, so it never changes
            nz = np.nonzero(np.abs(self.a) + np.abs(self.b))[0]
            self._degree = int(nz[-1]) if nz.size else 0
        return self._degree

    @property
    def mean(self):
        return float(self.a[0])

    @property
    def is_even(self):
        return not self.b.any()

    @property
    def is_odd(self):
        return not self.a.any()

    def with_zero_mean(self):
        a = self.a.copy()
        a[0] = 0.0
        return _rebuild(type(self), a, self.b, self.grid_size)

    def pad_to(self, n_modes):
        """Embed into a larger truncation (amplitudes past N are zero)."""
        n = self.n_modes
        if n_modes < n:
            raise ConfigurationError("pad_to cannot shrink a field; use truncate")
        if n_modes == n:
            return self
        a = np.zeros(n_modes + 1)
        b = np.zeros(n_modes + 1)
        a[: n + 1] = self.a
        b[: n + 1] = self.b
        return _rebuild(type(self), a, b, max(self.grid_size, 2 * n_modes + 2))

    def truncate(self, n_modes):
        """Project onto modes 0..n_modes by dropping the tail."""
        if n_modes >= self.n_modes:
            return self
        return _rebuild(type(self), self.a[: n_modes + 1], self.b[: n_modes + 1], None)

    # -- evaluation ---------------------------------------------------------

    def values(self, num_points=None):
        """Collocation values on the uniform grid x_j = 2πj/M, j = 0..M-1.

        M defaults to ``grid_size``.  M must be even and resolve the field's
        degree (M >= 2 deg + 2), otherwise sampling would alias.
        """
        m = self.grid_size if num_points is None else int(num_points)
        if num_points is None and self._values is not None:
            return self._values
        if m % 2 or m < max(4, 2 * self.degree + 2):
            raise ConfigurationError(
                f"{m} points cannot resolve a degree-{self.degree} field"
            )
        vals = _synthesize(self.a, self.b, m)
        if num_points is None:
            vals.setflags(write=False)
            self._values = vals
        return vals

    def sup_norm(self, oversample=4):
        """Max absolute value on an oversampled grid (slight under-estimate)."""
        m = _next_pow2(max(64, oversample * (self.degree + 1)))
        return float(np.max(np.abs(self.values(m))))

    # -- arithmetic ----------------------------------------------------------

    def _binary(self, other, sign):
        if not isinstance(other, SpectralField):
            return NotImplemented
        n = max(self.n_modes, other.n_modes)
        f, g = self.pad_to(n), other.pad_to(n)
        cls = type(self) if type(self) is type(other) else SpectralField
        return _rebuild(cls, f.a + sign * g.a, f.b + sign * g.b,
                        max(f.grid_size, g.grid_size))

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __neg__(self):
        return _rebuild(type(self), -self.a, -self.b, self.grid_size)

    def __mul__(self, scalar):
        if isinstance(scalar, SpectralField):
            return NotImplemented  # use multiply() for dealiased products
        return _rebuild(type(self), self.a * scalar, self.b * scalar, self.grid_size)

    __rmul__ = __mul__

    def __repr__(self):
        return (f"{type(self).__name__}(n_modes={self.n_modes}, "
                f"degree={self.degree}, grid_size={self.grid_size})")


class CosineSeries(SpectralField):
    """Even field: f(x) = sum_k f_k cos(kx).  All sine amplitudes vanish."""

    def __init__(self, cos_amplitudes, grid_size=None):
        super().__init__(cos_amplitudes, None, grid_size)


class SineSeries(SpectralField):
    """Odd field: f(x) = sum_{k>=1} f_k sin(kx).  All cosine amplitudes vanish."""

    def __init__(self, sin_amplitudes, grid_size=None):
        b = np.asarray(sin_amplitudes, dtype=float)
        super().__init__(np.zeros_like(b), b, grid_size)
        if self.a.any():
            raise ConfigurationError("SineSeries must have no cosine content")


def _rebuild(cls, a, b, grid_size):
    """Construct ``cls`` from raw amplitude arrays, bypassing the public
    single-array constructors of the parity subclasses."""
    if cls is CosineSeries:
        return CosineSeries(a, grid_size=grid_size)
    if cls is SineSeries:
        return SineSeries(b, grid_size=grid_size)
    return SpectralField(a, b, grid_size=grid_size)


def _parity_flip(cls):
    if cls is CosineSeries:
        return SineSeries
    if cls is SineSeries:
        return CosineSeries
    return SpectralField


def _hat(a, b):
    """Half-spectrum of amplitude arrays: u_k = (a_k - i b_k)/2 for k >= 1
    and u_0 = a_0, so that f(x) = sum over all integers k of u_k e^{ikx}
    with u_{-k} the conjugate of u_k."""
    u = 0.5 * (a - 1j * b)
    u[..., 0] = a[..., 0]
    return u


def _amplitudes(u):
    """Amplitude arrays (a, b) of a half-spectrum; the inverse of ``_hat``."""
    a = 2.0 * u.real
    b = -2.0 * u.imag
    a[..., 0] = u[..., 0].real
    b[..., 0] = 0.0
    return a, b


def _synthesize(a, b, m):
    """Values at x_j = 2πj/M from amplitudes (assumes M resolves the degree)."""
    n = min(a.shape[-1] - 1, m // 2 - 1)
    return np.fft.irfft(m * _hat(a[..., : n + 1], b[..., : n + 1]), m)


def _analyze(values):
    """Amplitude arrays (a, b) of the trigonometric interpolant of ``values``.

    The Nyquist bin is dropped: it cannot carry a sine amplitude, so the
    interpolant is restricted to modes k <= M/2 - 1.
    """
    m = values.shape[-1]
    a, b = _amplitudes(np.fft.rfft(values)[..., : m // 2])
    return a / m, b / m


def to_spectral(values):
    """Field holding the trigonometric interpolant of uniform grid samples.

    Exact when the samples come from a band-limited function of degree at
    most M/2 - 1.  The grid length must be even and at least 4.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size < 4 or vals.size % 2:
        raise ConfigurationError("grid length must be even and >= 4")
    a, b = _analyze(vals)
    return SpectralField(a, b, grid_size=vals.size)


def hilbert(f):
    """Periodic Hilbert transform.

    Mode map: a_k cos(kx) -> a_k sin(kx), b_k sin(kx) -> -b_k cos(kx) for
    k >= 1; the mean is annihilated.  Swaps the even and odd subspaces.
    """
    a = -f.b
    a[0] = 0.0
    b = f.a.copy()
    b[0] = 0.0
    return _rebuild(_parity_flip(type(f)), a, b, f.grid_size)


def zygmund(f):
    """Zygmund operator: mode k is multiplied by |k| = k; the mean is dropped.

    Coincides with hilbert(derivative(f, 1)) coefficient-wise.
    """
    k = np.arange(f.a.size, dtype=float)
    return _rebuild(type(f), k * f.a, k * f.b, f.grid_size)


def derivative(f, order):
    """Spectral derivative of order 1, 2, or 3."""
    if order not in (1, 2, 3):
        raise ConfigurationError("derivative order must be 1, 2, or 3")
    a, b = f.a, f.b
    k = np.arange(a.size, dtype=float)
    cls = type(f)
    for _ in range(order):
        a, b = k * b, -k * a
        cls = _parity_flip(cls)
    return _rebuild(cls, a, b, f.grid_size)


def multiply(f, g):
    """Pointwise product on a zero-padded grid, exact for every retained mode.

    The work grid resolves the full product degree deg f + deg g, so no
    retained mode is ever aliased; the result carries max(N_f, N_g,
    deg f + deg g) modes and therefore loses nothing.  Callers that need a
    fixed working resolution project back with ``truncate``.  When both
    factors have definite parity the product's parity is enforced exactly.
    """
    if f.degree == 0:  # constant factor: scalar multiplication is exact
        return (f.a[0] * g).pad_to(max(f.n_modes, g.n_modes))
    if g.degree == 0:
        return (g.a[0] * f).pad_to(max(f.n_modes, g.n_modes))
    n_out = max(f.n_modes, g.n_modes, f.degree + g.degree)
    m = _product_grid(f.degree + g.degree, n_out)
    a, b = _analyze(f.values(m) * g.values(m))
    a = a[: n_out + 1].copy() if a.size > n_out + 1 else np.pad(a, (0, n_out + 1 - a.size))
    b = b[: n_out + 1].copy() if b.size > n_out + 1 else np.pad(b, (0, n_out + 1 - b.size))
    cls = _product_parity(type(f), type(g))
    if cls is CosineSeries:
        b[:] = 0.0
    elif cls is SineSeries:
        a[:] = 0.0
    return _rebuild(cls, a, b, None)


def _product_grid(deg, n_out):
    """The grid ``multiply`` forms a product on: a power of two that resolves
    the product degree ``deg`` and leaves ``n_out`` modes alias-free."""
    return _next_pow2(max(2 * deg + 2, 3 * n_out // 2 + 2, 8))


def _product_parity(cls_f, cls_g):
    even, odd = CosineSeries, SineSeries
    if cls_f is even and cls_g is even:
        return even
    if cls_f is odd and cls_g is odd:
        return even
    if (cls_f, cls_g) in ((even, odd), (odd, even)):
        return odd
    return SpectralField


def commutator_h(f, g):
    """Commutator of the Hilbert transform with multiplication by f:

        ⟦H, f⟧[g] = H(f g) - f · H(g),

    both products dealiased.  Vanishes identically when f is constant.
    """
    return hilbert(multiply(f, g)) - multiply(f, hilbert(g))


def translate(f, shift):
    """The translate x -> f(x - shift), applied as an exact per-mode phase."""
    k = np.arange(f.a.size, dtype=float)
    c, s = np.cos(k * shift), np.sin(k * shift)
    return SpectralField(f.a * c - f.b * s, f.a * s + f.b * c,
                         grid_size=f.grid_size)


# -- principal-value quadrature oracles --------------------------------------
#
# Direct midpoint quadrature of the singular-integral definitions
#
#   H[f](x) = (1/2π)  pv ∫_{-π}^{π} f(x-u) / tan(u/2) du
#   Λ[f](x) = (1/4π)  pv ∫_{-π}^{π} (f(x) - f(x-u)) / sin²(u/2) du
#
# on nodes u_j = -π + (j+1/2) h, which are symmetric about the singularity,
# so the odd singular part cancels pairwise.  Slow; cross-check only.


def _shifted_samples(f, num_quad):
    """f evaluated at the half-offset grid t_l = (l + 1/2) · 2π/num_quad."""
    n = min(f.n_modes, num_quad // 2 - 1)
    if n < f.degree:
        raise ConfigurationError("quadrature grid does not resolve the field")
    k = np.arange(n + 1)
    phase = np.exp(1j * k * (np.pi / num_quad))
    return np.fft.irfft(num_quad * _hat(f.a[: n + 1], f.b[: n + 1]) * phase, num_quad)


def _quadrature_lattice(f, num_points, quad_points):
    m = f.grid_size if num_points is None else int(num_points)
    ratio = max(1, int(round(quad_points / m)))
    nq = ratio * m
    h = 2.0 * np.pi / nq
    u = -np.pi + (np.arange(nq) + 0.5) * h
    samples = _shifted_samples(f, nq)
    # x_i - u_j lies on the half-offset lattice: index i*ratio + nq/2 - 1 - j
    j = np.arange(nq)
    return m, ratio, nq, h, u, samples, j


def hilbert_by_quadrature(f, num_points=None, quad_points=8192):
    """H[f] on the uniform grid, via the cotangent-kernel principal value."""
    m, ratio, nq, h, u, samples, j = _quadrature_lattice(f, num_points, quad_points)
    w = h / (2.0 * np.pi * np.tan(u / 2.0))
    out = np.empty(m)
    for i in range(m):
        idx = (i * ratio + nq // 2 - 1 - j) % nq
        out[i] = samples[idx] @ w
    return out


def zygmund_by_quadrature(f, num_points=None, quad_points=8192):
    """Λ[f] on the uniform grid, via the sin^{-2} difference kernel."""
    m, ratio, nq, h, u, samples, j = _quadrature_lattice(f, num_points, quad_points)
    w = h / (4.0 * np.pi * np.sin(u / 2.0) ** 2)
    fx = f.values(m)
    out = np.empty(m)
    for i in range(m):
        idx = (i * ratio + nq // 2 - 1 - j) % nq
        out[i] = (fx[i] - samples[idx]) @ w
    return out
