"""Traveling-wave residual of the odd-viscosity surface-wave model.

The model has one nonlinear bracket, written once as a linear part and a
bilinear form, with g = α0 - β:

    B(f)    = L f + Q(f, f),
    L f     = (1/ε) (f' + H[f] + g H[f'']),
    Q(u, v) = H[Λu · Λv] - ⟦H, u⟧[Λv - g Λ³v],

where H is the periodic Hilbert transform, Λ = H ∂ the Zygmund operator and
⟦H, u⟧[w] = H(uw) - u H(w).  The evolution is (2 + α0 Λ) f_t = B(f)
(``evolution.rhs``), and a profile φ moving at speed c solves R[c, φ] = 0
with

    R[c, φ] = c (2 + α0 Λ) φ' + B(φ).

The speed derivative (2 + α0 Λ) φ' and the derivative in a profile
direction h, c (2 + α0 Λ) h' + L h + Q(φ, h) + Q(h, φ), come from the same
two pieces.  Even profiles give odd residuals, so R maps cosine series to
sine series.

Linearizing at the flat state diagonalizes in frequency: cos(kx) is sent to
sin(kx) times the multiplier

    σ(k, c) = -(2c + 1/ε) k + 1/ε - (c α0 + (α0 - β)/ε) k²,

which is affine in c with slope -2k - α0 k² (never zero for α0 > 0, the
transversality condition).  Its unique root is the critical speed

    c_k = (1/ε) (1 - k - (α0 - β) k²) / (k (2 + α0 k)),

where nontrivial wave branches bifurcate from the flat state.

Constants are trivial solutions, so profiles are projected to zero mean
before evaluation.  Every quadratic term is evaluated with exact dealiasing;
the residual of a degree-N profile is returned exactly, on 2N modes.

The Jacobian on the m-fold cosine basis is assembled in closed form from
φ's cosine amplitudes: multiplication by a cosine series is Toeplitz +
Hankel on the cos/sin bases, so every entry is an amplitude of φ at the sum
or the difference of two frequencies times a polynomial in them (no FFT,
O(n²) work).  ``gateaux`` keeps the FFT path as the reference it is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError
from .spectral import (
    CosineSeries,
    SineSeries,
    SpectralField,
    commutator_h,
    derivative,
    hilbert,
    multiply,
    zygmund,
)

__all__ = [
    "ModelParams",
    "OperatorMatrix",
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


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense matrix of the linearized operator on a truncated m-fold basis.

    Entry (i, j) is the sin(m(i+1)x) amplitude of the linearization applied
    to cos(m(j+1)x), for i, j = 0..n-1.
    """

    matrix: np.ndarray
    fold: int
    truncation: int

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.shape != (self.truncation, self.truncation):
            raise ConfigurationError(
                f"matrix shape {mat.shape} does not match truncation {self.truncation}"
            )
        if not np.isfinite(mat).all():
            raise ConfigurationError("operator matrix has non-finite entries")
        object.__setattr__(self, "matrix", mat)


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


def _even_zero_mean(phi, who):
    if not isinstance(phi, SpectralField):
        raise ConfigurationError(f"{who} must be a SpectralField")
    if not phi.is_even:
        raise ConfigurationError(f"{who} must be even (all sine amplitudes zero)")
    a = phi.a.copy()
    a[0] = 0.0
    return CosineSeries(a, grid_size=phi.grid_size)


def _as_sine(field, who):
    # Outputs are odd by the model's symmetry; anything else is a numerical
    # inconsistency, not a user error.
    scale = max(1.0, float(np.max(np.abs(field.b))))
    leak = float(np.max(np.abs(field.a)))
    if leak > PARITY_TOL * scale:
        raise NumericalError(f"{who} violated odd symmetry: cosine leak {leak:.3e}")
    return SineSeries(field.b, grid_size=field.grid_size)


def _linear(f, p):
    """The linear part of the bracket: (1/ε) (f' + H f + g H f'')."""
    g = p.alpha0 - p.beta
    return (1.0 / p.epsilon) * (derivative(f, 1) + hilbert(f)
                                + g * hilbert(derivative(f, 2)))


def _quadratic(u, v, p):
    """The bilinear form of the bracket: H[Λu · Λv] - ⟦H, u⟧[Λv - g Λ³v].

    ⟦H, u⟧ is linear in its argument, so both commutator terms take one
    commutator; the Λ³ term is skipped when g = α0 - β is zero.
    """
    g = p.alpha0 - p.beta
    lam = zygmund(v)
    arg = lam if g == 0.0 else lam - g * zygmund(zygmund(lam))
    return hilbert(multiply(zygmund(u), lam)) - commutator_h(u, arg)


def _bracket(f, p):
    """B(f) = L f + Q(f, f): the right-hand side of (2 + α0 Λ) f_t = B(f)."""
    return _linear(f, p) + _quadratic(f, f, p)


def _transport(f, p):
    """(2 + α0 Λ) f': the part of the residual that the speed multiplies."""
    d1 = derivative(f, 1)
    return 2.0 * d1 + p.alpha0 * zygmund(d1)


def residual(c, phi, p):
    """Traveling-wave residual R[c, φ] = c (2 + α0 Λ) φ' + B(φ) as a sine
    series.

    φ must be even; its mean is projected out first (constants solve the
    equation identically).  The result is exact: products carry their full
    degree, so a degree-N input yields the true residual on 2N modes.
    """
    phi = _even_zero_mean(phi, "phi")
    return _as_sine(c * _transport(phi, p) + _bracket(phi, p), "residual")


def gateaux(c, phi, h, p):
    """Derivative of the residual at (c, φ) in the profile direction h:
    c (2 + α0 Λ) h' + L h + Q(φ, h) + Q(h, φ).

    Linear in h; matches central finite differences of ``residual``.
    """
    phi = _even_zero_mean(phi, "phi")
    h = _even_zero_mean(h, "h")
    out = c * _transport(h, p) + _linear(h, p) \
        + _quadratic(phi, h, p) + _quadratic(h, phi, p)
    return _as_sine(out, "gateaux")


def d_c_residual(phi, p):
    """Speed-derivative of the residual at fixed profile: (2 + α0 Λ) φ'.

    Exact (the residual is affine in c), so it doubles as the c-column of
    bordered Newton systems.
    """
    phi = _even_zero_mean(phi, "phi")
    return _as_sine(_transport(phi, p), "d_c_residual")


def _mfold_indices(m, n):
    return m * np.arange(1, n + 1)


def require_mfold(field, m, who="field"):
    """Check that a field's support lies on frequencies that are multiples
    of m (exact zero test on the complementary amplitudes)."""
    mask = np.ones(field.n_modes + 1, dtype=bool)
    mask[::m] = False
    mask[0] = False
    if field.a[mask].any() or field.b[mask].any():
        raise ConfigurationError(f"{who} is not supported on the {m}-fold lattice")


def assemble_jacobian(c, phi, p, n, m=1):
    """Matrix of the profile-linearization on the m-fold cosine basis.

    Columns are the images of cos(mjx), j = 1..n, expressed in the sine
    amplitudes at frequencies m, 2m, ..., nm.  At φ = 0 the matrix is
    diagonal with entries σ(mj, c).
    """
    if n < 1 or int(n) != n or m < 1 or int(m) != m:
        raise ConfigurationError("truncation and fold must be positive integers")
    n, m = int(n), int(m)
    if not phi.is_even:
        raise ConfigurationError("phi must be even")
    require_mfold(phi, m, "phi")
    if phi.n_modes > m * n:
        raise ConfigurationError(
            f"phi has {phi.n_modes} modes, exceeding the {m}-fold truncation {m * n}"
        )
    return OperatorMatrix(matrix=_jacobian(c, phi.a, p, m, n), fold=m, truncation=n)


def _jacobian(c, a, p, m, n, speed_column=False):
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
    amplitude-constrained Newton system.
    """
    g = p.alpha0 - p.beta
    mid = 2 * m * n
    top = min(a.size - 1, m * n)
    amp = np.zeros(2 * mid + 1)              # a_l sits at amp[mid + l]
    amp[mid + 1 : mid + top + 1] = a[1 : top + 1]
    amp[mid - top : mid] = a[top:0:-1]
    k = _mfold_indices(m, n)
    kf = k.astype(float)
    total = k[:, None] + k                   # k' + k
    diff = k[:, None] - k                    # k' - k
    d = diff.astype(float)
    lag = np.abs(d)
    jac = amp[mid + total] * (kf * (total - 1) + g * kf ** 3)
    # (d - |d|) / 2 is k' - k where k' < k and 0 elsewhere
    jac += amp[mid + diff] * (kf * lag + 0.5 * (d - lag) * (1.0 - g * d * d))
    jac.flat[:: n + 1] += _symbol(kf, c, p)
    if speed_column:
        jac[:, 0] = _d_c_symbol(kf, p) * amp[mid + k]
    return jac
