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
before evaluation.  Q is evaluated on one grid that resolves every retained
mode exactly, with one stacked inverse FFT for all its factors and one
stacked forward FFT for its two products (small transforms cost mostly
per-call overhead); the residual of a degree-N profile is returned exactly,
on 2N modes.  A caller that evaluates Q many times at one shape passes
the arrays of that shape (``_QuadraticWork``) to every call, as the
evolution and the branch continuation do.  The multiplier -i σ(k, c) is
written once (``_multiplier``); the residual and the evolution's stages
both apply it.

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

from .errors import ConfigurationError, NumericalError
from .spectral import SineSeries, SpectralField, _amplitudes, _hat, _next_pow2

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

PARITY_TOL = 1e-12  # asserted bound on the residual's cosine leakage


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
        for name in ("epsilon", "alpha0", "beta"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ConfigurationError(f"{name} must be finite, got {v!r}")
        if self.epsilon <= 0:
            raise ConfigurationError(f"epsilon must be > 0, got {self.epsilon}")
        if self.alpha0 <= 0:
            raise ConfigurationError(f"alpha0 must be > 0, got {self.alpha0}")

    @property
    def degenerate(self):
        """True in the alpha0 == beta regime, where the coefficient
        alpha0 - beta vanishes and the third-order commutator term drops out."""
        return self.alpha0 == self.beta


def symbol_at(k, c, p):
    """The linearization's multiplier at frequency k and speed c."""
    return _symbol(_check_mode(k), c, p)


def _symbol(k, c, p):
    """σ(k, c) for a frequency or an array of frequencies."""
    g = p.alpha0 - p.beta
    return (-(2.0 * c + 1.0 / p.epsilon) * k + 1.0 / p.epsilon
            - (c * p.alpha0 + g / p.epsilon) * k * k)


def critical_speed(k, p):
    """The unique speed at which the multiplier at frequency k vanishes."""
    k = _check_mode(k)
    g = p.alpha0 - p.beta
    return (1.0 - k - g * k * k) / (k * (2.0 + p.alpha0 * k)) / p.epsilon


def d_c_symbol(k, p):
    """Speed-derivative of the multiplier: -2k - alpha0 k^2, strictly
    negative for alpha0 > 0 (the transversality quantity)."""
    return _d_c_symbol(_check_mode(k), p)


def _d_c_symbol(k, p):
    return -2.0 * k - p.alpha0 * k * k


def _check_mode(k):
    if int(k) != k or k < 1:
        raise ConfigurationError(f"mode index must be an integer >= 1, got {k!r}")
    return int(k)


def _even_hat(phi, who):
    """Half-spectrum of an even field, with the mean projected out."""
    if not isinstance(phi, SpectralField):
        raise ConfigurationError(f"{who} must be a SpectralField")
    if not phi.is_even:
        raise ConfigurationError(f"{who} must be even (all sine amplitudes zero)")
    u = _hat(phi.a, phi.b)
    u[0] = 0.0
    return u


def _sine_amplitudes(r, who):
    """The sine amplitudes of a half-spectrum r, after the parity check."""
    # Outputs are odd by the model's symmetry; anything else is a numerical
    # inconsistency, not a user error.
    a, b = _amplitudes(r)
    scale = max(1.0, float(np.max(np.abs(b))))
    leak = float(np.max(np.abs(a)))
    if leak > PARITY_TOL * scale:
        raise NumericalError(f"{who} violated odd symmetry: cosine leak {leak:.3e}")
    return b


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
    and whether v is u): the rows k and g k³, and the zero-padded factor
    spectrum with a view of each of its rows u, Λu, w, Hw (and Λv when v is
    not u).  A caller that evaluates Q many times at one shape, as
    ``evolve`` does, builds it once and passes it to every call; it may
    write u into the row ``u`` itself and pass that row."""

    def __init__(self, u_size, v_size, n_out, p, same):
        g = p.alpha0 - p.beta
        self.m = _next_pow2(u_size + v_size + n_out)
        self.ku = _wave_numbers(u_size, g)[0]
        self.kg = _wave_numbers(v_size, g)
        self.spec = np.zeros((4 if same else 5, max(u_size, v_size)), dtype=complex)
        self.u, self.lu = self.spec[0, :u_size], self.spec[1, :u_size]
        self.w, self.hw = self.spec[2, :v_size], self.spec[3, :v_size]
        # the rows Λv and Hw as one view, to take k v and g k³ v in one call
        self.lv_hw = self.spec[1:4:2, :v_size] if same else self.spec[4:2:-1, :v_size]
        self.lv = self.lv_hw[0]


def _quadratic(u, v, p, n_out, work=None):
    """Q(u, v) = H[Λu · Λv - u · w] + u · Hw with w = Λv - g Λ³v, on the
    half-spectrum modes 0..n_out.

    The products are formed on one power-of-two grid of at least
    u.size + v.size + n_out points.  Their degree is below u.size + v.size,
    so aliasing only folds modes onto frequencies above n_out and every
    returned mode is exact.  The factors u, Λu, w, Hw (and Λv unless v is
    u) are zero-padded to one width and synthesized by one stacked
    ``irfft``; the two products go back through one stacked ``rfft``.  The
    factors are written into ``work`` (a ``_QuadraticWork`` of this shape,
    built here when not given) and the products into the rows the ``irfft``
    returned, so no other step allocates.
    """
    if work is None:
        work = _QuadraticWork(u.size, v.size, n_out, p, v is u)
    if u is not work.u:
        np.copyto(work.u, u)
    np.multiply(work.kg, v, out=work.lv_hw)  # Λv, and g k³ v until Hw replaces it
    if v is not u:
        np.multiply(work.ku, u, out=work.lu)
    np.subtract(work.lv, work.hw, out=work.w)
    np.multiply(-1j, work.w, out=work.hw)
    rows = np.fft.irfft(work.spec, work.m, norm="forward")
    # rows u, Λu, w, Hw (, Λv) become u, Λu·Λv, Λu·Λv - u·w, u·Hw
    uu, lu = rows[0], rows[1]
    np.multiply(uu, rows[2:4], out=rows[2:4])
    np.multiply(lu, lu if v is u else rows[4], out=lu)
    np.subtract(lu, rows[2], out=rows[2])
    prod = np.fft.rfft(rows[2:4], norm="forward")
    inner, out = prod[0, 1 : n_out + 1], prod[1, : n_out + 1]
    np.multiply(1j, inner, out=inner)
    out[1:] -= inner
    return out


def _residual_hat(c, u, p, work=None):
    """R[c, φ] on the half-spectrum modes 0..2N, before the parity check,
    from the half-spectrum u of an even φ with zero mean (``_even_hat``).
    ``work`` is Q's ``_QuadraticWork`` for (u.size, u.size, 2N, v is u),
    which a caller evaluating many residuals of one size builds once."""
    r = _quadratic(u, u, p, 2 * (u.size - 1), work)
    r[: u.size] += _linear(u, c, p)
    return r


def residual(c, phi, p):
    """Traveling-wave residual R[c, φ] as a sine series.

    φ must be even; its mean is projected out first (constants solve the
    equation identically).  The result is exact: products carry their full
    degree, so a degree-N input yields the true residual on 2N modes.
    """
    r = _residual_hat(c, _even_hat(phi, "phi"), p)
    return SineSeries(_sine_amplitudes(r, "residual"))


def gateaux(c, phi, h, p):
    """Derivative of the residual at (c, φ) in the profile direction h:
    the linear part of R[c, ·] on h plus Q(φ, h) + Q(h, φ).

    Linear in h; matches central finite differences of ``residual``.
    """
    u = _even_hat(phi, "phi")
    v = _even_hat(h, "h")
    n_out = u.size + v.size - 2
    r = _quadratic(u, v, p, n_out) + _quadratic(v, u, p, n_out)
    r[: v.size] += _linear(v, c, p)
    return SineSeries(_sine_amplitudes(r, "gateaux"))


def d_c_residual(phi, p):
    """Speed-derivative of the residual at fixed profile: (2 + α0 Λ) φ'.

    Exact (the residual is affine in c), so it doubles as the c-column of
    bordered Newton systems.
    """
    u = _even_hat(phi, "phi")
    r = -1j * _d_c_symbol(np.arange(u.size, dtype=float), p) * u
    return SineSeries(_sine_amplitudes(r, "d_c_residual"))


def _mfold_indices(m, n):
    return m * np.arange(1, n + 1)


def assemble_jacobian(c, phi, p, n, m=1):
    """n × n matrix of the profile-linearization on the m-fold cosine basis.

    Columns are the images of cos(mjx), j = 1..n, expressed in the sine
    amplitudes at frequencies m, 2m, ..., nm.  At φ = 0 the matrix is
    diagonal with entries σ(mj, c).
    """
    if n < 1 or int(n) != n or m < 1 or int(m) != m:
        raise ConfigurationError("truncation and fold must be positive integers")
    n, m = int(n), int(m)
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
