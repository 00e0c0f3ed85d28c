"""Traveling-wave residual of the odd-viscosity surface-wave model.

A profile φ moving at speed c solves R[c, φ] = 0, with g = α0 - β and

    R[c, φ] = c (2 + α0 Λ) φ' + (1/ε) (φ' + H[φ] + g H[φ'']) + Q(φ, φ),
    Q(u, v) = H[Λu · Λv] - ⟦H, u⟧[Λv - g Λ³v],

where H is the periodic Hilbert transform, Λ = H ∂ the Zygmund operator and
⟦H, u⟧[w] = H(uw) - u H(w).  Both linear operators are diagonal on e^{ikx}
(H: -i sgn k, Λ: |k|), so the whole linear part multiplies mode k of the
complex half-spectrum u_k = (a_k - i b_k)/2 by -i σ(k, c), with

    σ(k, c) = -(2c + 1/ε) k + 1/ε - (c α0 + (α0 - β)/ε) k²,

and the model is σ plus the one bilinear form Q.  Even profiles give odd
residuals, so R maps cosine series to sine series; at the flat state cos(kx)
is sent to σ(k, c) sin(kx).  σ is affine in c with slope -2k - α0 k² (never
zero for α0 > 0, the transversality condition), and its unique root is the
critical speed

    c_k = (1/ε) (1 - k - (α0 - β) k²) / (k (2 + α0 k)),

where nontrivial wave branches bifurcate from the flat state.  The evolution
(2 + α0 Λ) f_t = R[0, f] (``evolution.rhs``) uses the same two pieces, and so
do the derivatives: ∂_c R = (2 + α0 Λ) φ' multiplies mode k by -i ∂_c σ, and
the derivative in a profile direction h is the linear part on h plus
Q(φ, h) + Q(h, φ).

Constants are trivial solutions, so the mean of a profile is never read.

The model is evaluated on the m-fold lattice, with no FFT.  Multiplication
by a cosine series is Toeplitz + Hankel on the cos/sin bases, so the
derivative Q(φ, h) + Q(h, φ) of an m-fold profile φ of n modes is one
(2n × n) lattice matrix K(a), rows at the frequencies m..2nm and columns at
m..nm, whose every entry is an amplitude of φ at the sum or the difference
of the two frequencies times a polynomial in them (O(n²) work).  The
polynomials depend on (m, n, α0 - β) alone and the amplitudes enter
through strided views of one padded array, so a branch builds one
``_Lattice`` and reuses it (``_lattice_matrix``).  Since R is quadratic in
φ, Euler's identity gives Q(φ, φ) = ½ K(a) a, so K yields both the residual
on every lattice mode up to 2nm, R = σ ∘ a + ½ K(a) a (``_lattice_residual``;
the modes off the lattice are exact zeros), and the Jacobian, its first n
rows plus the σ diagonal (``_lattice_jacobian``, which
``assemble_jacobian`` and Newton both call).  Every even profile lies on
the lattice of m = the gcd of its nonzero modes, so ``residual`` and
``gateaux`` build, per call, the lattice of that gcd (of both supports for
``gateaux``) with n = the largest nonzero mode over m
(``_support_lattice``), and the derivative is σ ∘ η + K(a) η on all 2n
rows.  Their outputs are sine series by construction, with no cosine part
to check.

The evolution advances fields that need not be even or m-fold, so it
evaluates Q(u, u) on the product grid of ``spectral`` (``_product_grid``),
with one stacked inverse FFT for all its factors and one stacked forward
FFT for its two product spectra P1 = F[Λu·Λu - u·w] and P2 = F[u·Hw]
(``_products``); Q = P2 - i P1, and every mode of the state is exact.  The
arrays of one size (the factor spectrum and the outputs of both FFTs) form
a workspace (``_QuadraticWork``), which also holds the grid's four row
views and the forward transform's factor 1/m as a 0-d array.  The two
FFTs call the pocketfft kernels that ``spectral`` binds once (``_irfft``,
``_rfft``) with that factor and those outputs.  They skip ``np.fft``'s
per-call wrapper, which on these small grids costs about as much as the
transforms; the kernels are the ones ``np.fft`` calls, so the floats are
the same, and there is no fallback (see ``spectral``).  ``evolve`` passes
one workspace to every stage; with the constants -i and 1 as 0-d arrays
and every output passed positionally, no stage allocates, converts a
scalar or makes a view.  σ
(``_symbol``), its terms' natural size (``_symbol_scale``) and -i σ(k, c)
on the half-spectrum (``_multiplier``) are written here alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigurationError, require_integer, require_real, require_size
from .spectral import SineSeries, SpectralField, _irfft, _product_grid, _rfft

__all__ = [
    "ModelParams",
    "residual",
    "gateaux",
    "d_c_residual",
    "symbol_at",
    "critical_speed",
    "d_c_symbol",
    "assemble_jacobian",
]

@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the model.

    epsilon : steepness parameter (wave amplitude over wavelength), > 0.
    alpha0  : odd Reynolds ratio (gravity over odd-viscosity forces), > 0.
    beta    : Bond number (gravity over capillary forces), any real.
    """

    epsilon: float
    alpha0: float
    beta: float

    def __post_init__(self):
        require_real("epsilon", self.epsilon, 0, strict=True)
        require_real("alpha0", self.alpha0, 0, strict=True)
        require_real("beta", self.beta)

    @property
    def degenerate(self):
        """True in the alpha0 == beta regime, where the coefficient
        alpha0 - beta vanishes and the third-order commutator term drops out."""
        return self.alpha0 == self.beta


def symbol_at(k, c, p):
    """The linearization's multiplier at frequency k and speed c."""
    return _symbol(require_integer("mode index", k, 1), c, p)


def _symbol(k, c, p):
    """σ(k, c) for a frequency or an array of frequencies."""
    g = p.alpha0 - p.beta
    return (-(2.0 * c + 1.0 / p.epsilon) * k + 1.0 / p.epsilon
            - (c * p.alpha0 + g / p.epsilon) * k * k)


def _symbol_scale(k, c, p):
    """Natural magnitude of σ's terms at frequency k (or at an array of
    frequencies, with the scalar operations elementwise): the scale
    against which a multiplier counts as vanishing."""
    g = p.alpha0 - p.beta
    return (abs(2.0 * c + 1.0 / p.epsilon) * k + 1.0 / p.epsilon
            + abs(c * p.alpha0 + g / p.epsilon) * k * k)


def critical_speed(k, p):
    """The unique speed at which the multiplier at frequency k vanishes."""
    k = require_integer("mode index", k, 1)
    g = p.alpha0 - p.beta
    return (1.0 - k - g * k * k) / (k * (2.0 + p.alpha0 * k)) / p.epsilon


def d_c_symbol(k, p):
    """Speed-derivative of the multiplier: -2k - alpha0 k^2, strictly
    negative for alpha0 > 0 (the transversality quantity)."""
    return _d_c_symbol(require_integer("mode index", k, 1), p)


def _d_c_symbol(k, p):
    return -2.0 * k - p.alpha0 * k * k


def _even_amplitudes(phi, who):
    """The cosine amplitudes of an even field.  The lattice never reads
    a_0, so the mean is projected out."""
    if not isinstance(phi, SpectralField):
        raise ConfigurationError(f"{who} must be a SpectralField")
    if not phi.is_even:
        raise ConfigurationError(f"{who} must be even (all sine amplitudes zero)")
    return phi.a


def _multiplier(size, c, p):
    """-i σ(k, c) on the half-spectrum modes 0..size-1, with the mean mode
    (a trivial solution) sent to zero."""
    mult = -1j * _symbol(np.arange(size, dtype=float), c, p)
    mult[0] = 0.0
    return mult


class _QuadraticWork:
    """The arrays of ``_products`` for states of ``size`` half-spectrum modes
    at one g: the rows k and g k³ (stored complex, as every product with a
    half-spectrum would cast them); the factor spectrum, zero-padded to the
    grid's half-spectrum, with a view of each of its rows u, Λu, w, Hw; and
    the outputs of the two FFTs, which are written into them: the factors
    on the grid (``grid``, with its four row views in ``rows``) and the
    product spectra P1, P2 (``prod``, with views ``p1``, ``p2`` of the
    state's modes).  ``scale`` is the forward transform's factor 1/m, a 0-d
    array, so no call converts it.  ``evolve`` builds one per integration
    and passes it to every stage, so no stage allocates or makes a view;
    each call overwrites what the one before it returned.  The caller may
    write u into the row ``u`` itself and pass that row."""

    def __init__(self, size, p):
        self.m = _product_grid(size - 1, size - 1, size - 1)
        assert self.m % 2 == 0, "the forward kernel takes even grids only"
        self.scale = np.array(1.0 / self.m)
        k = np.arange(size, dtype=float)
        self.k, self.gk3 = np.array([k, (p.alpha0 - p.beta) * k ** 3], dtype=complex)
        self.spec = np.zeros((4, self.m // 2 + 1), dtype=complex)
        self.u, self.lu, self.w, self.hw = self.spec[:, :size]
        self.grid = np.empty((4, self.m))
        self.rows = tuple(self.grid)
        self.products = self.grid[2:]
        self.prod = np.empty((2, self.m // 2 + 1), dtype=complex)
        self.p1, self.p2 = self.prod[:, :size]


# the constants of ``_products`` as read-only 0-d arrays, so no call
# converts them: -i, and the inverse transform's factor 1
_MINUS_I = np.array(-1j)
_ONE = np.array(1.0)
_MINUS_I.setflags(write=False)
_ONE.setflags(write=False)


def _products(u, work):
    """The product spectra P1 = F[Λu · Λu - u · w] and P2 = F[u · Hw],
    w = Λu - g Λ³u, on the half-spectrum modes 0..m/2 of the grid of
    ``work`` (the ``_QuadraticWork`` of u's size), as the rows of
    ``work.prod``.  Q(u, u) is P2 - i P1 on every mode but 0, where it is
    P2; ``evolve`` weighs the two rows itself.

    The factors u, Λu, w, Hw are written into ``work.spec`` and synthesized
    by one stacked ``_irfft`` into ``work.grid``; the products are formed in
    its rows (``work.rows``) and go back through one stacked ``_rfft``,
    scaled by ``work.scale``, into ``work.prod``: the floats of
    ``np.fft.irfft(..., norm="forward")`` and ``np.fft.rfft(...,
    norm="forward")``.  Nothing is allocated or converted and no view is
    made; every output is passed positionally, which skips the keyword
    parsing of each ufunc call.
    """
    if u is not work.u:
        np.copyto(work.u, u)
    np.multiply(work.k, u, work.lu)
    np.multiply(work.gk3, u, work.hw)    # g k³ u until Hw replaces it
    np.subtract(work.lu, work.hw, work.w)
    np.multiply(_MINUS_I, work.w, work.hw)
    _irfft(work.spec, _ONE, work.grid)
    # the rows w, Hw become Λu·Λu - u·w, u·Hw
    uu, lu, uw, uhw = work.rows
    np.multiply(uu, uw, uw)
    np.multiply(uu, uhw, uhw)
    np.multiply(lu, lu, lu)
    np.subtract(lu, uw, uw)
    return _rfft(work.products, work.scale, work.prod)


def residual(c, phi, p):
    """Traveling-wave residual R[c, φ] as a sine series.

    φ must be even; its mean is projected out (constants solve the
    equation identically).  The result is exact: R = σ ∘ a + ½ K(a) a on
    the lattice of φ's support, returned on 2N modes for a degree-N φ.

    Each call builds that ``_Lattice``: four (2n × n) float arrays, with n
    the degree over the gcd of the nonzero modes, so a full-support (gcd 1)
    profile of degree N costs O(N²) time and memory: 1 MiB per array and
    3.2-3.7 ms a call at N = 256 on one core of an Intel Xeon, against
    about 0.2 ms at N = 64.  ``require_size`` refuses an n whose
    arrays would pass ``errors.ARRAY_BYTES_CEILING`` (n > 4096).
    """
    a = _even_amplitudes(phi, "phi")
    lattice = _support_lattice(p, "phi", a)
    alpha = _on_lattice(a, lattice)
    r = _lattice_residual(_lattice_matrix(alpha, lattice), _symbol(lattice.kf, c, p), alpha)
    return _sine_series(r, lattice.m, 2 * phi.n_modes)


def gateaux(c, phi, h, p):
    """Derivative of the residual at (c, φ) in the profile direction h:
    σ ∘ η + K(a) η on the lattice of both supports (a, η the lattice
    amplitudes of φ and h), returned on N_φ + N_h modes.

    Linear in h; matches central finite differences of ``residual``.  Its
    cost is that of ``residual``, with n taken over both supports: O(N²)
    for a full-support φ or h of degree N, and n > 4096 is refused.
    """
    a, e = _even_amplitudes(phi, "phi"), _even_amplitudes(h, "h")
    lattice = _support_lattice(p, "phi and h", a, e)
    alpha, eta = _on_lattice(a, lattice), _on_lattice(e, lattice)
    image = _lattice_matrix(alpha, lattice) @ eta
    image[: lattice.n] += _symbol(lattice.kf, c, p) * eta
    return _sine_series(image, lattice.m, phi.n_modes + h.n_modes)


def d_c_residual(phi, p):
    """Speed-derivative of the residual at fixed profile: (2 + α0 Λ) φ',
    the sine series ∂_c σ(k) a_k.

    Exact, as the residual is affine in c.  Newton's speed column is built
    by ``_lattice_jacobian`` from the same ``_d_c_symbol``, not from this
    field.
    """
    a = _even_amplitudes(phi, "phi")
    b = _d_c_symbol(np.arange(a.size, dtype=float), p) * a
    b[0] = 0.0
    return SineSeries(b)


def _support_lattice(p, who, *amplitudes):
    """The ``_Lattice`` of the fewest rows that carries the cosine
    amplitude arrays ``amplitudes``: m the gcd of their nonzero modes and
    n the largest of them over m, or (1, 1) when they all vanish.  n passes
    the size rule before anything is built."""
    modes = np.concatenate([np.flatnonzero(a[1:]) for a in amplitudes]) + 1
    m = int(np.gcd.reduce(modes)) if modes.size else 1
    n = int(modes.max()) // m if modes.size else 1
    n = require_size(f"the lattice truncation n of {who}", n, 1, _lattice_bytes)
    return _Lattice(m, n, p.alpha0 - p.beta)


def _on_lattice(a, lattice):
    """The lattice amplitudes α_j = a_{jm}, j = 1..n, of cosine amplitudes
    a, zero past a's last mode."""
    m, n = lattice.m, lattice.n
    alpha = np.zeros(n)
    on = a[m : m * n + 1 : m]
    alpha[: on.size] = on
    return alpha


def _sine_series(rows, m, n_modes):
    """The sine series of ``n_modes`` modes with the lattice ``rows`` at
    the frequencies m, 2m, ...; rows above ``n_modes`` are dropped, as the
    image has no modes there, and every mode off the lattice is an exact
    zero."""
    b = np.zeros(n_modes + 1)
    on = b[m::m]
    on[: rows.size] = rows[: on.size]
    return SineSeries(b)


def _mfold_indices(m, n):
    return m * np.arange(1, n + 1)


def assemble_jacobian(c, phi, p, n, m=1):
    """n × n matrix of the profile-linearization on the m-fold cosine basis.

    Columns are the images of cos(mjx), j = 1..n, expressed in the sine
    amplitudes at frequencies m, 2m, ..., nm.  At φ = 0 the matrix is
    diagonal with entries σ(mj, c).  It is built in closed form, without
    FFTs: multiplication by a cosine series is Toeplitz + Hankel on the
    cos/sin bases, so with rows k' and columns k in {m, 2m, ..., nm},
    g = α0 - β and φ's amplitudes a extended evenly (a_{-l} = a_l,
    a_0 = 0), the sin(k'x) amplitude of the derivative in the direction
    cos(kx) is

        σ(k, c) δ_{k'k} + a_{k'+k} (k (k'+k-1) + g k³)
                        + a_{k'-k} (k |k'-k| + [k' < k] ((k'-k) - g (k'-k)³)):

    the first n rows of the ``_Lattice`` matrix K plus the σ diagonal
    (``_lattice_jacobian``).  The quadratic terms do not depend on c or ε.
    """
    n = require_size("truncation n", n, 1, _lattice_bytes)
    m = require_integer("fold m", m, 1)
    a = _even_amplitudes(phi, "phi")
    if a[np.arange(a.size) % m != 0].any():
        raise ConfigurationError(f"phi is not supported on the {m}-fold lattice")
    if phi.degree > m * n:
        raise ConfigurationError(f"phi has degree {phi.degree}, exceeding the {m}-fold "
                                 f"truncation {m * n}")
    lattice = _Lattice(m, n, p.alpha0 - p.beta)
    alpha = _on_lattice(a, lattice)
    jac = _lattice_jacobian(_lattice_matrix(alpha, lattice), _symbol(lattice.kf, c, p),
                            alpha, p, lattice)
    if not np.isfinite(jac).all():
        raise ConfigurationError("operator matrix has non-finite entries")
    return jac


class _Lattice:
    """The (2n × n) lattice matrix K(a) of the m-fold truncation n at one
    g = α0 - β: rows at k' = m, 2m, ..., 2nm, columns at k = m, 2m, ..., nm,
    and K = A_{k'+k} ∘ W_t + A_{k'-k} ∘ W_d, with A_l the amplitude a_l
    extended evenly (a_{-l} = a_l, a_0 = 0) and the polynomial weights of
    ``assemble_jacobian``'s formula, built once (``_lattice_weights``;
    ``kf`` holds the column frequencies).  The amplitudes α_q = a_{qm} sit at
    ``pad[2n + q]``, q = -2n..3n (zero for |q| > n), and the Hankel factor
    α_{i+j+2} and the Toeplitz factor α_{j-i} (row i, column j) are
    read-only windows of that one array, so loading n amplitudes refreshes
    both with no index gather.  The windows are those of
    ``sliding_window_view``, made by ``as_strided``: the first call of the
    former raised the bench's peak resident memory by 128 KiB.  K is
    written into ``matrix``, with the Toeplitz product in ``term`` on the
    way.  A branch builds one and every Newton step reuses it."""

    def __init__(self, m, n, g):
        self.m, self.n = m, n
        self.kf, self.w_total, self.w_diff = _lattice_weights(m, n, g)
        self.pad = np.zeros(5 * n + 1)
        step = self.pad.strides[0]
        windows = as_strided(self.pad, (4 * n + 2, n), (step, step),   # [s, j] = pad[s + j]
                             writeable=False)
        self.hankel = windows[2 * n + 2 : 4 * n + 2]
        self.toeplitz = windows[2 * n : 0 : -1]
        self.matrix = np.empty((2 * n, n))
        self.term = np.empty((2 * n, n))


def _lattice_weights(m, n, g):
    """The column frequencies k and the weights W_t and W_d of the
    ``_Lattice`` of (m, n, g), with d = k' - k:

        W_t = (d + 2k - 1) k + g k³,
        W_d = |d| k + (d - |d|) / 2 (1 - g d d),

    ((d - |d|) / 2 is k' - k where k' < k and 0 elsewhere), built in place
    in the order of operations written, so with those floats and no more
    than four (2n × n) arrays alive at once."""
    kf = _mfold_indices(m, n).astype(float)
    d = _mfold_indices(m, 2 * n).astype(float)[:, None] - kf
    w_total = d + (2.0 * kf - 1.0)
    w_total *= kf
    w_total += g * kf ** 3
    w_diff = np.abs(d)
    cubic = g * d
    cubic *= d
    d -= w_diff
    d *= 0.5
    d *= np.subtract(1.0, cubic, out=cubic)
    w_diff *= kf
    w_diff += d
    return kf, w_total, w_diff


def _lattice_bytes(n):
    """The bytes of each (2n × n) float array of a ``_Lattice``."""
    return 16 * n * n


def _lattice_matrix(alpha, lattice):
    """K(a) of the ``_Lattice`` for the lattice amplitudes α_1..α_n
    (``alpha``), in ``lattice.matrix``: valid until the next call with it."""
    n, pad = lattice.n, lattice.pad
    pad[2 * n + 1 : 3 * n + 1] = alpha
    pad[n : 2 * n] = alpha[::-1]
    matrix = np.multiply(lattice.hankel, lattice.w_total, out=lattice.matrix)
    matrix += np.multiply(lattice.toeplitz, lattice.w_diff, out=lattice.term)
    return matrix


def _lattice_residual(matrix, sigma, alpha):
    """The sine amplitudes of R[c, φ] at m, 2m, ..., 2nm from the lattice
    matrix K of φ and σ(k, c) at the columns: R is quadratic in φ, so by
    Euler's identity Q(φ, φ) = ½ K(a) a, and R = σ ∘ a + ½ K(a) a.  The
    residual of an m-fold profile vanishes off the lattice and above 2nm,
    so these are all of its modes."""
    r = 0.5 * (matrix @ alpha)
    r[: alpha.size] += sigma * alpha
    return r


def _lattice_jacobian(matrix, sigma, alpha, p, lattice, speed_column=False):
    """The m-fold Jacobian from the lattice matrix K, in place on its rows
    m..nm: K[:n] + diag σ(k, c), with the speed column -(2k + α0 k²) a_k
    first when ``speed_column`` (Newton's matrix)."""
    jac = matrix[: lattice.n]
    jac.flat[:: lattice.n + 1] += sigma
    if speed_column:
        jac[:, 0] = _d_c_symbol(lattice.kf, p) * alpha
    return jac
