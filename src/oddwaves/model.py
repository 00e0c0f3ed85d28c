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

Constants are trivial solutions, so profiles are projected to zero mean
before evaluation.  Q is evaluated on the product grid of ``spectral``
(``_product_grid``), with one stacked inverse FFT for all its factors and one
stacked forward FFT for its two product spectra P1 = F[Λu·Λv - u·w] and
P2 = F[u·Hw] (``_products``), and Q = P2 - i P1 (``_quadratic``); the
residual of a degree-N profile is returned exactly, on 2N modes, and the
modes above the product degree are exact zeros.  The arrays of one shape
(the factor spectrum and the outputs of both FFTs) form a workspace
(``_QuadraticWork``), which also holds the forward transform's factor 1/m.
The two FFTs call the pocketfft kernels that ``spectral`` binds once
(``_irfft``, ``_rfft``) with that factor and those outputs.  They skip
``np.fft``'s per-call wrapper, which on these small grids costs about as
much as the transforms; the kernels are the ones ``np.fft`` calls, so the
floats are the same, and there is no fallback (see ``spectral``).  A
caller that evaluates Q many times at one shape passes the same workspace
to every call, as the evolution and the branch continuation do, and no
call allocates.  The multiplier -i σ(k, c) is written once
(``_multiplier``); the residual and the evolution's stages both apply it.
Odd outputs are checked for cosine leak relative to the largest term
summed into them, with a floor of 1 (``_parity_leak``, the quotient the
``residual-parity`` family of ``verify`` reports and ``_sine_amplitudes``
bounds).

The Jacobian on the m-fold cosine basis is assembled in closed form from
φ's cosine amplitudes: multiplication by a cosine series is Toeplitz +
Hankel on the cos/sin bases, so every entry is an amplitude of φ at the sum
or the difference of two frequencies times a polynomial in them (no FFT,
O(n²) work).  The indices and polynomials depend on (m, n, α0 - β) alone
(``_jacobian_weights``), so a branch builds them once.  ``gateaux`` keeps
the FFT path as the reference it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, NumericalError, require_integer, require_real
from .spectral import SineSeries, SpectralField, _amplitudes, _hat, _irfft, _product_grid, _rfft

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

PARITY_TOL = 1e-12  # cosine leak bound, relative to the largest term (at least 1)


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


def _even_hat(phi, who):
    """Half-spectrum of an even field, with the mean projected out."""
    if not isinstance(phi, SpectralField):
        raise ConfigurationError(f"{who} must be a SpectralField")
    if not phi.is_even:
        raise ConfigurationError(f"{who} must be even (all sine amplitudes zero)")
    u = _hat(phi.a, phi.b)
    u[0] = 0.0
    return u


def _sine_amplitudes(r, terms, who):
    """The sine amplitudes of a half-spectrum r whose ``_parity_leak`` is
    within PARITY_TOL; the terms are measured only if the raw leak is not."""
    # Outputs are odd by the model's symmetry; anything else is a numerical
    # inconsistency, not a user error.
    a, b = _amplitudes(r)
    leak = float(np.abs(a).max())
    if leak > PARITY_TOL and _parity_leak(r, terms) > PARITY_TOL:
        raise NumericalError(f"{who} violated odd symmetry: cosine leak {leak:.3e}")
    return b


def _parity_leak(r, terms):
    """The cosine leak max |a_k| of a half-spectrum r over max(1, the
    largest amplitude among ``terms``, the half-spectra summed into r):
    roundoff in a sum is relative to its terms, not to the sum, which is
    near zero at a solution, and R scales by 1/ε² with its terms."""
    return float(np.abs(_amplitudes(r)[0]).max()) / max(1.0, _term_size(terms))


def _term_size(terms):
    """The largest cosine or sine amplitude among half-spectrum arrays:
    twice their largest real or imaginary part (a_k = 2 Re u_k, b_k =
    -2 Im u_k)."""
    return 2.0 * max(float(np.abs(t.view(float)).max()) for t in terms)


def _multiplier(size, c, p):
    """-i σ(k, c) on the half-spectrum modes 0..size-1, with the mean mode
    (a trivial solution) sent to zero."""
    mult = -1j * _symbol(np.arange(size, dtype=float), c, p)
    mult[0] = 0.0
    return mult


def _linear(u, c, p):
    """The linear part of R[c, ·] on a half-spectrum u."""
    return _multiplier(u.size, c, p) * u


@lru_cache(maxsize=8)
def _wave_numbers(size, g):
    """The rows k and g k³, k = 0..size-1, of one read-only array, built
    once per size and g.  It is stored complex (zero imaginary parts), as
    every product with a half-spectrum would cast it."""
    k = np.arange(size, dtype=float)
    kg = np.array([k, g * k ** 3], dtype=complex)
    kg.setflags(write=False)
    return kg


class _QuadraticWork:
    """The arrays of ``_quadratic`` at one shape (u.size, v.size, n_out, g,
    and whether v is u): the rows k and g k³; the factor spectrum, zero-padded
    to the grid's half-spectrum, with a view of each of its rows u, Λu, w,
    Hw (and Λv when v is not u); and the outputs of the two FFTs, which are
    written into them: the factors on the grid (``grid``, one view per row
    in ``on_grid``), the product spectra P1, P2 (``prod``, with views
    ``p1``, ``p2`` of modes 0..top, where top = min(n_out, u.size + v.size
    - 2) is the last mode Q can reach) and Q itself (``q``, modes
    0..n_out).  ``scale`` is the forward transform's factor 1/m.  A caller
    that evaluates Q many times at one shape, as ``evolve`` and
    ``continue_branch`` do, builds it once and passes it to every call, so
    no call allocates; each call overwrites what the one before it
    returned.  The caller may write u into the row ``u`` itself and pass
    that row."""

    def __init__(self, u_size, v_size, n_out, p, same):
        g = p.alpha0 - p.beta
        self.m = _product_grid(u_size - 1, v_size - 1, n_out)
        assert self.m % 2 == 0, "the forward kernel takes even grids only"
        self.scale = 1.0 / self.m
        self.top = min(n_out, u_size + v_size - 2)
        self.ku = _wave_numbers(u_size, g)[0]
        self.kv, self.gk3 = _wave_numbers(v_size, g)
        width = max(u_size, v_size, self.m // 2 + 1)
        self.spec = np.zeros((4 if same else 5, width), dtype=complex)
        self.u, self.lu = self.spec[0, :u_size], self.spec[1, :u_size]
        self.w, self.hw = self.spec[2, :v_size], self.spec[3, :v_size]
        self.lv = self.lu if same else self.spec[4, :v_size]
        self.grid = np.empty((self.spec.shape[0], self.m))
        # the grid rows of u, Λu, w, Hw and Λv
        self.on_grid = (*self.grid[:4], self.grid[1 if same else 4])
        self.products = self.grid[2:4]
        self.prod = np.empty((2, self.m // 2 + 1), dtype=complex)
        self.p1, self.p2 = self.prod[:, : self.top + 1]
        self.q = np.empty(n_out + 1, dtype=complex)


def _products(u, v, work):
    """The product spectra P1 = F[Λu · Λv - u · w] and P2 = F[u · Hw],
    w = Λv - g Λ³v, on the half-spectrum modes 0..m/2 of the grid of
    ``work`` (a ``_QuadraticWork`` of this shape), as the rows of
    ``work.prod``.  Q(u, v) is P2 - i P1 on every mode but 0, where it is
    P2; ``_quadratic`` forms it, and ``evolve`` weighs the two rows itself.

    The factors u, Λu, w, Hw (and Λv unless v is u) are written into
    ``work.spec`` and synthesized by one stacked ``_irfft`` into
    ``work.grid``; the products are formed in its rows and go back through
    one stacked ``_rfft``, scaled by ``work.scale``, into ``work.prod``:
    the floats of ``np.fft.irfft(..., norm="forward")`` and
    ``np.fft.rfft(..., norm="forward")``.  Nothing is allocated.
    """
    if u is not work.u:
        np.copyto(work.u, u)
    np.multiply(work.kv, v, out=work.lv)
    np.multiply(work.gk3, v, out=work.hw)    # g k³ v until Hw replaces it
    if v is not u:
        np.multiply(work.ku, u, out=work.lu)
    np.subtract(work.lv, work.hw, out=work.w)
    np.multiply(-1j, work.w, out=work.hw)
    _irfft(work.spec, 1.0, out=work.grid)
    # the rows w, Hw become Λu·Λv - u·w, u·Hw
    uu, lu, uw, uhw, lv = work.on_grid
    np.multiply(uu, uw, out=uw)
    np.multiply(uu, uhw, out=uhw)
    np.multiply(lu, lv, out=lu)
    np.subtract(lu, uw, out=uw)
    return _rfft(work.products, work.scale, out=work.prod)


def _quadratic(u, v, p, n_out, work=None):
    """Q(u, v) = H[Λu · Λv - u · w] + u · Hw with w = Λv - g Λ³v, on the
    half-spectrum modes 0..n_out, as P2 - i P1 from ``_products``.

    The products are formed on the grid of ``spectral._product_grid`` for
    factors of degrees u.size - 1 and v.size - 1, so aliasing only folds
    modes onto frequencies above n_out and every returned mode is exact;
    the modes above the product degree u.size + v.size - 2 are exact zeros.
    ``work`` is a ``_QuadraticWork`` of this shape, built here when not
    given; the result is its row ``q``, and ``work.prod`` keeps P2 and i P1
    (modes 1..``work.top``) after the call.
    """
    if work is None:
        work = _QuadraticWork(u.size, v.size, n_out, p, v is u)
    _products(u, v, work)
    top, out = work.top, work.q
    inner = work.p1[1:]
    np.multiply(1j, inner, out=inner)
    np.subtract(work.p2[1:], inner, out=out[1 : top + 1])
    out[0] = work.p2[0]
    out[top + 1 :] = 0.0
    return out


def _residual_hat(c, u, p, work=None):
    """R[c, φ] on the half-spectrum modes 0..2N, before the parity check,
    from the half-spectrum u of an even φ with zero mean (``_even_hat``),
    and its terms P1, P2 and the linear row, for the parity check.
    ``work`` is Q's ``_QuadraticWork`` for (u.size, u.size, 2N, v is u),
    which a caller evaluating many residuals of one size builds once; R
    and P1, P2 are its arrays, valid until the next call with it."""
    n_out = 2 * (u.size - 1)
    if work is None:
        work = _QuadraticWork(u.size, u.size, n_out, p, same=True)
    r = _quadratic(u, u, p, n_out, work)
    lin = _linear(u, c, p)
    r[: u.size] += lin
    return r, (work.prod[:, : n_out + 1], lin)


def residual(c, phi, p):
    """Traveling-wave residual R[c, φ] as a sine series.

    φ must be even; its mean is projected out first (constants solve the
    equation identically).  The result is exact: products carry their full
    degree, so a degree-N input yields the true residual on 2N modes.
    """
    r, terms = _residual_hat(c, _even_hat(phi, "phi"), p)
    return SineSeries(_sine_amplitudes(r, terms, "residual"))


def gateaux(c, phi, h, p):
    """Derivative of the residual at (c, φ) in the profile direction h:
    the linear part of R[c, ·] on h plus Q(φ, h) + Q(h, φ).

    Linear in h; matches central finite differences of ``residual``.
    """
    u = _even_hat(phi, "phi")
    v = _even_hat(h, "h")
    n_out = u.size + v.size - 2
    quv, qvu, lin = _quadratic(u, v, p, n_out), _quadratic(v, u, p, n_out), _linear(v, c, p)
    r = quv + qvu
    r[: v.size] += lin
    return SineSeries(_sine_amplitudes(r, (quv, qvu, lin), "gateaux"))


def d_c_residual(phi, p):
    """Speed-derivative of the residual at fixed profile: (2 + α0 Λ) φ'.

    Exact, as the residual is affine in c.  Newton's speed column is built
    by ``_jacobian`` from the same ``_d_c_symbol``, not from this field.
    """
    u = _even_hat(phi, "phi")
    r = -1j * _d_c_symbol(np.arange(u.size, dtype=float), p) * u
    return SineSeries(_sine_amplitudes(r, (r,), "d_c_residual"))


def _mfold_indices(m, n):
    return m * np.arange(1, n + 1)


def assemble_jacobian(c, phi, p, n, m=1):
    """n × n matrix of the profile-linearization on the m-fold cosine basis.

    Columns are the images of cos(mjx), j = 1..n, expressed in the sine
    amplitudes at frequencies m, 2m, ..., nm.  At φ = 0 the matrix is
    diagonal with entries σ(mj, c).
    """
    n = require_integer("truncation n", n, 1)
    m = require_integer("fold m", m, 1)
    if not phi.is_even:
        raise ConfigurationError("phi must be even")
    if phi.a[np.arange(phi.a.size) % m != 0].any():
        raise ConfigurationError(f"phi is not supported on the {m}-fold lattice")
    if phi.n_modes > m * n:
        raise ConfigurationError(
            f"phi has {phi.n_modes} modes, exceeding the {m}-fold truncation {m * n}"
        )
    jac = _jacobian(c, phi.a, p, m, n)
    if not np.isfinite(jac).all():
        raise ConfigurationError("operator matrix has non-finite entries")
    return jac


def _jacobian_weights(m, n, g):
    """The arrays of ``_jacobian`` that depend on (m, n, g) alone: the
    frequencies k = m, 2m, ..., nm (as integers and as floats) and, for the
    sum and for the difference of a row and a column frequency, the index
    of that amplitude in the extended array and its polynomial weight.
    ``continue_branch`` builds them once per branch."""
    mid = 2 * m * n
    k = _mfold_indices(m, n)
    kf = k.astype(float)
    total = k[:, None] + k                   # k' + k
    diff = k[:, None] - k                    # k' - k
    d = diff.astype(float)
    lag = np.abs(d)
    # (d - |d|) / 2 is k' - k where k' < k and 0 elsewhere
    return (k, kf, mid + total, kf * (total - 1) + g * kf ** 3,
            mid + diff, kf * lag + 0.5 * (d - lag) * (1.0 - g * d * d))


def _jacobian(c, a, p, m, n, speed_column=False, weights=None):
    """The m-fold Jacobian at (c, φ) from φ's cosine amplitudes a (a_0 is
    ignored, at most mn modes), in closed form and without FFTs.

    Multiplication by a cosine series is Toeplitz + Hankel on the cos/sin
    bases, so with rows k' and columns k in {m, 2m, ..., nm}, g = α0 - β and
    a extended evenly (a_{-l} = a_l, a_0 = 0), the sin(k'x) amplitude of the
    derivative in the direction cos(kx) is

        σ(k, c) δ_{k'k} + a_{k'+k} (k (k'+k-1) + g k³)
                        + a_{k'-k} (k |k'-k| + [k' < k] ((k'-k) - g (k'-k)³)).

    The quadratic terms contribute the last two summands, which do not
    depend on c or ε.  With ``speed_column`` the first column is replaced by
    the speed derivative of the residual, -(2k' + α0 k'²) a_{k'}, as in the
    amplitude-constrained Newton system.  ``weights`` are the
    ``_jacobian_weights`` of (m, n, α0 - β), built here when not given.
    """
    if weights is None:
        weights = _jacobian_weights(m, n, p.alpha0 - p.beta)
    k, kf, at_total, w_total, at_diff, w_diff = weights
    mid = 2 * m * n
    top = min(a.size - 1, m * n)
    amp = np.zeros(2 * mid + 1)              # a_l sits at amp[mid + l]
    amp[mid + 1 : mid + top + 1] = a[1 : top + 1]
    amp[mid - top : mid] = a[top:0:-1]
    jac = amp[at_total] * w_total
    jac += amp[at_diff] * w_diff
    jac.flat[:: n + 1] += _symbol(kf, c, p)
    if speed_column:
        jac[:, 0] = _d_c_symbol(kf, p) * amp[mid + k]
    return jac
