"""Trigonometric fields on the torus and the nonlocal operators acting on them.

A field is a real 2π-periodic function stored as truncated cosine/sine
amplitudes

    f(x) = a_0 + sum_{k=1}^{N} a_k cos(k x) + b_k sin(k x),

sampled by default on the 2N + 2 uniform points of [0, 2π) (``grid_size``),
the smallest even grid that resolves all N modes below Nyquist (4 points
at N = 0, the rule's floor); the grid follows from the truncation and is
not an argument.  Every sample grid a caller picks, here and in
``holder``, passes one rule (``_check_grid``): an even integer of at least
max(4, 2 deg + 2) points, whose row of samples passes the size rule.
Cosine and sine amplitudes are kept in separate arrays, so parity is a property of the
values: a field is even when b ≡ 0 and odd when a ≡ 0 (``is_even``,
``is_odd``), and ``CosineSeries``/``SineSeries`` build fields of each kind.
The linear operators below map exact zeros to exact zeros, so they keep
parity exactly; ``multiply`` enforces the product's parity.  FFTs
work on the complex half-spectrum u_k = (a_k - i b_k)/2, u_0 = a_0; this
module owns that conversion (``_hat``, ``_amplitudes``).  The conversion,
synthesis and analysis helpers and the Hilbert and derivative mode maps
(``_hilbert_amplitudes``, ``_derivative_amplitudes``) act on the last axis,
so a stack of amplitude rows is transformed at once.  Off any grid,
``_values_at`` gives rows of a stack and their first two derivatives at
arbitrary points, by Horner's rule in e^{ix} from each row's top nonzero
mode (``_mode_table``), so no float depends on a row's zero padding.

All linear operators act diagonally per mode and are exact:

    hilbert:     a_k cos(kx) -> a_k sin(kx),   b_k sin(kx) -> -b_k cos(kx)
    zygmund:     multiplies mode k by |k| = k  (equals hilbert ∘ d/dx)
    derivative:  the usual spectral derivative

Every pointwise product on a grid, here, in ``holder`` and in ``model``, of
factors of degrees d_u, d_v whose modes 0..n_out are kept is formed on the
grid of one rule (``_product_grid``): the smallest power of two M >=
max(8, d_u + d_v + 2 + n_out).  Aliasing folds mode d_u + d_v onto
M - d_u - d_v > n_out.  The model's lattice matrices (``model._Lattice``,
and ``model._SpectrumLattice``, the stage kernel of the time evolution's
small states) multiply by convolution instead and use no grid.
One slow principal-value quadrature of the singular-integral forms of the
Hilbert and Zygmund operators (``operators_by_quadrature``) gives both
images on a field's own grid from one pass over one node lattice, an
independent cross-check of the mode maps; it is never used on the
production path.

Every production transform, here (``_synthesize``, ``_analyze``) and in
``model`` (``_products``, the stage kernel of the time evolution's states
above ``evolution.LATTICE_STAGE_MODES`` modes), calls numpy's pocketfft
kernels, bound once in this module (``_irfft``, ``_rfft``).  They are the
kernels ``np.fft.irfft`` and ``np.fft.rfft`` call after a Python wrapper
that checks the arguments, picks the kernel and the normalisation factor
and allocates the output; on the small grids of an RK4 stage that wrapper
costs about as much as the transform.  The callers pass the factor
``np.fft`` would pass and an output of the right shape.  Every grid is even, so the
even-length forward kernel is the only one needed, and the sites that
transform forward assert it.  The kernels and factors are unchanged, so
every float is the one ``np.fft`` gives.  There is no fallback to
``np.fft``: a second path would be a second set of floats to keep equal,
and numpy >= 2.0 (the required version) always has these kernels.  Only
the quadrature oracle calls ``np.fft.irfft``, to stay an independent route.
"""

from __future__ import annotations

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .errors import ConfigurationError, require_integer, require_real, require_size

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
    "operators_by_quadrature",
]


# _irfft(spec, scale, out=) writes scale times the inverse transform of the
# half-spectrum rows spec, zero-padded or cut to m/2 + 1 modes, into the
# length-m rows of out; _rfft(values, scale, out=) writes scale times the
# half-spectrum of rows of even length m.  np.fft.irfft passes scale 1/m
# (1 with norm="forward"), np.fft.rfft passes 1 (1/m with norm="forward").
_irfft = _pocketfft.irfft
_rfft = _pocketfft.rfft_n_even


def _next_pow2(n):
    return 1 << max(3, int(n - 1).bit_length())


SUP_OVERSAMPLE = 4  # the sup-norm grid's points per mode, before rounding up


def _check_grid(m, degree, name):
    """``m`` as an int: the one rule of a sample grid.  It is refused unless
    it is an even integer of at least max(4, 2 degree + 2) points, since a
    coarser or odd grid would alias a degree-``degree`` field, and the
    size rule charges its row of samples, 8 m bytes."""
    m = require_size(name, m, 4, lambda m: 8 * m)
    if m % 2:
        raise ConfigurationError(f"{name} must be even, got {m} points")
    need = max(4, 2 * degree + 2)
    if m < need:
        raise ConfigurationError(
            f"{m} points cannot resolve a degree-{degree} field (need at least {need})")
    return m


def _as_readonly(arr):
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


class SpectralField:
    """A real 2π-periodic function held as cosine/sine amplitudes.

    Parameters
    ----------
    cos_amplitudes : array of a_k for k = 0..N (a_0 is the mean).
    sin_amplitudes : array of b_k for k = 0..N; b_0 must be 0.  Omitted means
        all zero (a pure cosine expansion).
    """

    __slots__ = ("a", "b", "_degree")

    def __init__(self, cos_amplitudes, sin_amplitudes=None):
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
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ConfigurationError("amplitudes must be finite")
        if b[0] != 0.0:
            raise ConfigurationError("sine amplitude b_0 must be zero")
        self.a = a
        self.b = b
        self._degree = None

    # -- basic structure ---------------------------------------------------

    @property
    def n_modes(self):
        """Truncation N: amplitudes run over k = 0..N."""
        return self.a.size - 1

    @property
    def grid_size(self):
        """Collocation points 2N + 2: the smallest even grid that resolves
        all N modes below Nyquist, and at least the 4 points of the grid
        rule (``_check_grid``), which a constant field (N = 0) needs."""
        return max(4, 2 * self.a.size)

    @property
    def degree(self):
        """Highest mode with a nonzero amplitude (0 for constants and zero)."""
        if self._degree is None:  # the amplitudes are read-only, so it never changes
            self._degree = _degree(self.a, self.b)
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

    def pad_to(self, n_modes):
        """Embed into a larger truncation (amplitudes past N are zero).  The
        size rule charges one of its two amplitude arrays, 8 (n_modes + 1)
        bytes."""
        n_modes = require_size("n_modes", n_modes, 0, lambda n: 8 * (n + 1))
        n = self.n_modes
        if n_modes < n:
            raise ConfigurationError("pad_to cannot shrink a field; use truncate")
        if n_modes == n:
            return self
        a = np.zeros(n_modes + 1)
        b = np.zeros(n_modes + 1)
        a[: n + 1] = self.a
        b[: n + 1] = self.b
        return SpectralField(a, b)

    def truncate(self, n_modes):
        """Project onto modes 0..n_modes by dropping the tail."""
        n_modes = require_integer("n_modes", n_modes, 0)
        if n_modes >= self.n_modes:
            return self
        return SpectralField(self.a[: n_modes + 1], self.b[: n_modes + 1])

    # -- evaluation ---------------------------------------------------------

    def values(self, num_points=None):
        """Collocation values on the uniform grid x_j = 2πj/M, j = 0..M-1.

        M defaults to ``grid_size`` and obeys the one grid rule
        (``_check_grid``): even, at least 4 and at least 2 deg + 2.
        """
        m = self.grid_size if num_points is None else num_points
        return _synthesize(self.a, self.b, _check_grid(m, self.degree, "the sample grid"))

    def sup_norm(self):
        """Max absolute value on an oversampled grid (slight under-estimate)."""
        return _sup_norm(self.a, self.b)

    # -- arithmetic ----------------------------------------------------------

    def _binary(self, other, sign):
        if not isinstance(other, SpectralField):
            return NotImplemented
        n = max(self.n_modes, other.n_modes)
        f, g = self.pad_to(n), other.pad_to(n)
        return SpectralField(f.a + sign * g.a, f.b + sign * g.b)

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __neg__(self):
        return SpectralField(-self.a, -self.b)

    def __mul__(self, scalar):
        if isinstance(scalar, SpectralField):
            return NotImplemented  # use multiply() for dealiased products
        return SpectralField(self.a * scalar, self.b * scalar)

    __rmul__ = __mul__

    def __repr__(self):
        return (f"SpectralField(n_modes={self.n_modes}, "
                f"degree={self.degree}, grid_size={self.grid_size})")


def CosineSeries(cos_amplitudes):
    """Even field f(x) = sum_k f_k cos(kx): all sine amplitudes zero."""
    return SpectralField(cos_amplitudes)


def SineSeries(sin_amplitudes):
    """Odd field f(x) = sum_{k>=1} f_k sin(kx): all cosine amplitudes zero."""
    return SpectralField(np.zeros_like(sin_amplitudes, dtype=float), sin_amplitudes)


def _degree(a, b):
    """Highest mode with a nonzero amplitude (0 for constants and zero),
    over every row of a stack of amplitude rows."""
    # transposed, the mode axis comes first, so the modes come out sorted
    nz = np.nonzero((np.abs(a) + np.abs(b)).T)[0]
    return int(nz[-1]) if nz.size else 0


def _sup_norm(a, b, degree=None):
    """Max absolute value of the field with amplitudes (a, b), or of every
    row of a stack of them, on the grid of ``SpectralField.sup_norm``: the
    power of two >= max(64, SUP_OVERSAMPLE · (degree + 1)) for the largest
    degree, which resolves every row and holds each row's own grid.  A
    caller may pass the degree whose grid it wants instead, at least the
    largest."""
    degree = _degree(a, b) if degree is None else degree
    grid = _next_pow2(max(64, SUP_OVERSAMPLE * (degree + 1)))
    return float(np.max(np.abs(_synthesize(a, b, grid))))


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


def _hilbert_amplitudes(a, b):
    """The Hilbert transform's mode map on amplitude arrays (last axis):
    (a_k, b_k) -> (-b_k, a_k) for k >= 1, with the mean dropped."""
    ha, hb = -b, a.copy()
    ha[..., 0] = hb[..., 0] = 0.0
    return ha, hb


def _derivative_amplitudes(a, b):
    """d/dx on amplitude arrays (last axis): (a_k, b_k) -> (k b_k, -k a_k)."""
    k = np.arange(a.shape[-1], dtype=float)
    return k * b, -k * a


def _synthesize(a, b, m):
    """Values at x_j = 2πj/M from amplitudes (assumes M resolves the degree)."""
    n = min(a.shape[-1] - 1, m // 2 - 1)
    out = np.empty(a.shape[:-1] + (m,))
    return _irfft(m * _hat(a[..., : n + 1], b[..., : n + 1]), 1.0 / m, out=out)


def _mode_table(stacks):
    """The rows of the amplitude stacks (a, b) in ``stacks``, in turn, as
    complex amplitudes c = a - i b for ``_values_at``: (modes, top), with
    ``modes[k, r]`` the c_k of row r, one (width × rows) array as wide as
    the widest stack (zero past a stack's width), and ``top[r]`` the top
    nonzero mode of row r (0 for a zero row)."""
    modes = np.zeros((max(a.shape[1] for a, _ in stacks), sum(a.shape[0] for a, _ in stacks)),
                     dtype=complex)
    tops, first = [], 0  # first: the table row of the stack's row 0
    for a, b in stacks:
        rows, cols = a.shape
        block = modes[:cols, first:first + rows]
        block.real, block.imag = a.T, -b.T
        nonzero = (a != 0) | (b != 0)
        tops.append(np.where(nonzero.any(axis=1),
                             cols - 1 - np.argmax(nonzero[:, ::-1], axis=1), 0))
        first += rows
    return modes, np.concatenate(tops)


def _values_at(table, rows, x):
    """f, f' and f'' of the given rows of a ``_mode_table`` at the points
    x, as the rows of a (3, points) array, with f = Re Σ_k c_k e^{ikx}.
    Horner's rule in z = e^{ix}, with the z-derivatives alongside, starts
    each point at its row's top mode, so no float depends on the zeros
    above it: a row padded into a wider stack gives the floats of the row
    alone.  The points are sorted by that mode, so each step updates a
    prefix."""
    modes, top = table
    order = np.argsort(-top[rows], kind="stable")
    rows, z = rows[order], np.exp(1j * x[order])
    deg = top[rows]
    count = np.searchsorted(-deg, -np.arange(deg[0] + 1), side="right")  # points of mode >= k
    # two buffers of rows P''/2, P', P and the coefficient c_k; each step
    # writes old * z + the next row of old into the other buffer
    bufs = np.zeros((2, 4, rows.size), dtype=complex)
    now = 0
    for k in range(deg[0], -1, -1):
        n = count[k]
        old, new = bufs[now, :, :n], bufs[1 - now, :3, :n]
        modes[k].take(rows[:n], out=old[3])
        np.multiply(old[:3], z[:n], out=new)
        new += old[1:]
        now = 1 - now
    ddp, dp, p = bufs[now, :3]
    zdp = z * dp
    out = np.empty((3, rows.size))
    out[:, order] = p.real, -zdp.imag, -(zdp + 2 * z * z * ddp).real
    return out


def _analyze(values):
    """Amplitude arrays (a, b) of the trigonometric interpolant of ``values``.

    The Nyquist bin is dropped: it cannot carry a sine amplitude, so the
    interpolant is restricted to modes k <= M/2 - 1.
    """
    m = values.shape[-1]
    assert m % 2 == 0, "the forward kernel takes even grids only"
    out = np.empty(values.shape[:-1] + (m // 2 + 1,), dtype=complex)
    a, b = _amplitudes(_rfft(values, 1.0, out=out)[..., : m // 2])
    return a / m, b / m


def to_spectral(values):
    """Field holding the trigonometric interpolant of uniform grid samples.

    Exact when the samples come from a band-limited function of degree at
    most M/2 - 1.  The samples are one row, on a grid of the one rule.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1:
        raise ConfigurationError(f"samples must be one row, got shape {vals.shape}")
    _check_grid(vals.size, 0, "the sample grid")
    return SpectralField(*_analyze(vals))


def hilbert(f):
    """Periodic Hilbert transform.

    Mode map: a_k cos(kx) -> a_k sin(kx), b_k sin(kx) -> -b_k cos(kx) for
    k >= 1; the mean is annihilated.  Swaps the even and odd subspaces.
    """
    return SpectralField(*_hilbert_amplitudes(f.a, f.b))


def zygmund(f):
    """Zygmund operator: mode k is multiplied by |k| = k; the mean is dropped.

    It is hilbert(derivative(f, 1)), and built as that composition.
    """
    return SpectralField(*_hilbert_amplitudes(*_derivative_amplitudes(f.a, f.b)))


def derivative(f, order):
    """Spectral derivative of order 1, 2, or 3."""
    order = require_integer("derivative order", order, 1, 3)
    a, b = f.a, f.b
    for _ in range(order):
        a, b = _derivative_amplitudes(a, b)
    return SpectralField(a, b)


def multiply(f, g):
    """Pointwise product on a zero-padded grid, exact for every retained mode.

    The work grid keeps modes 0..deg f + deg g exact (``_product_grid``)
    and the modes above them, which vanish, are set to zero, so padding a
    factor past its degree changes no float; the result carries max(N_f, N_g,
    deg f + deg g) modes and therefore loses nothing.  Callers that need a
    fixed working resolution project back with ``truncate``.  When both
    factors have definite parity the product's parity is enforced exactly.
    """
    if f.degree == 0:  # constant factor: scalar multiplication is exact
        return (f.a[0] * g).pad_to(max(f.n_modes, g.n_modes))
    if g.degree == 0:
        return (g.a[0] * f).pad_to(max(f.n_modes, g.n_modes))
    deg = f.degree + g.degree
    n_out = max(f.n_modes, g.n_modes, deg)
    m = _product_grid(f.degree, g.degree, deg)
    a, b = (np.pad(x[: deg + 1], (0, n_out - deg))  # modes above deg are zero
            for x in _analyze(f.values(m) * g.values(m)))
    if (f.is_even and g.is_even) or (f.is_odd and g.is_odd):
        b[:] = 0.0
    elif (f.is_even and g.is_odd) or (f.is_odd and g.is_even):
        a[:] = 0.0
    return SpectralField(a, b)


def _product_grid(deg_u, deg_v, n_out):
    """The grid of every product: see the module docstring."""
    return _next_pow2(max(8, deg_u + deg_v + 2 + n_out))


def commutator_h(f, g):
    """Commutator of the Hilbert transform with multiplication by f:

        ⟦H, f⟧[g] = H(f g) - f · H(g),

    both products dealiased.  Vanishes identically when f is constant.
    """
    return hilbert(multiply(f, g)) - multiply(f, hilbert(g))


def translate(f, shift):
    """The translate x -> f(x - shift), applied as an exact per-mode phase."""
    shift = require_real("translation shift", shift)
    k = np.arange(f.a.size, dtype=float)
    c, s = np.cos(k * shift), np.sin(k * shift)
    return SpectralField(f.a * c - f.b * s, f.a * s + f.b * c)


# -- the principal-value quadrature oracle ------------------------------------
#
# Direct midpoint quadrature of the singular-integral definitions
#
#   H[f](x) = (1/2π)  pv ∫_{-π}^{π} f(x-u) / tan(u/2) du
#   Λ[f](x) = (1/4π)  pv ∫_{-π}^{π} (f(x) - f(x-u)) / sin²(u/2) du
#
# on nodes u_j = -π + (j+1/2) h, which are symmetric about the singularity,
# so the odd singular part cancels pairwise.  Slow; cross-check only.

QUAD_NODES = 4096  # the oracle's node count, before rounding to a multiple of the grid


def operators_by_quadrature(f):
    """H[f] and Λ[f] on f's grid (``grid_size``), via the cotangent-kernel
    and sin^{-2} difference-kernel principal values, on the multiple of the
    grid nearest ``QUAD_NODES`` nodes."""
    m = f.grid_size
    ratio = max(1, round(QUAD_NODES / m))
    nq = ratio * m
    h = 2.0 * np.pi / nq
    u = -np.pi + (np.arange(nq) + 0.5) * h
    w_hilbert = h / (2.0 * np.pi * np.tan(u / 2.0))
    w_zygmund = h / (4.0 * np.pi * np.sin(u / 2.0) ** 2)
    # f at the half-offset nodes t_l = (l + 1/2) h, a multiple of f's grid
    phase = np.exp(1j * np.arange(f.n_modes + 1) * (np.pi / nq))
    samples = np.fft.irfft(nq * _hat(f.a, f.b) * phase, nq)
    fx = f.values()
    hf, lf = np.empty(m), np.empty(m)
    # x_i - u_j lies on the half-offset lattice: index i*ratio + nq/2 - 1 - j
    j = np.arange(nq)
    for i in range(m):
        near = samples[(i * ratio + nq // 2 - 1 - j) % nq]
        hf[i] = near @ w_hilbert
        lf[i] = (fx[i] - near) @ w_zygmund
    return hf, lf
