"""Shared builders and independent oracles for the test suite.

The oracles deliberately avoid the library's FFT product path: products are
formed by direct coefficient convolution, and the first (Zygmund-operator)
form of the traveling-wave residual is assembled term by term as a
consistency check against the expanded form used in production.
"""

from fractions import Fraction

import numpy as np

from oddwaves import (
    CosineSeries,
    SineSeries,
    SpectralField,
    commutator_h,
    derivative,
    hilbert,
    zygmund,
)


def cosine(k, amp=1.0, n=None):
    a = np.zeros((n or k) + 1)
    a[k] = amp
    return CosineSeries(a)


def sine(k, amp=1.0, n=None):
    b = np.zeros((n or k) + 1)
    b[k] = amp
    return SineSeries(b)


def random_field(rng, degree, even=False, mean=0.0, decay=1.0):
    k = np.arange(1, degree + 1, dtype=float)
    a = np.zeros(degree + 1)
    b = np.zeros(degree + 1)
    a[0] = mean
    a[1:] = rng.standard_normal(degree) / k ** decay
    if even:
        return CosineSeries(a)
    b[1:] = rng.standard_normal(degree) / k ** decay
    return SpectralField(a, b)


def random_even(rng, degree, **kw):
    return random_field(rng, degree, even=True, **kw)


def random_mfold_even(rng, m, degree):
    """Even profile supported on frequencies m, 2m, ... up to ``degree``."""
    a = np.zeros(degree + 1)
    idx = m * np.arange(1, degree // m + 1)
    a[idx] = rng.standard_normal(idx.size) / idx
    return CosineSeries(a)


def conv_product(f, g):
    """Exact product of two trigonometric polynomials by direct coefficient
    convolution (independent of the FFT path)."""
    n = f.degree + g.degree

    def complex_coeffs(h):
        c = np.zeros(2 * n + 1, dtype=complex)
        c[n] = h.a[0]
        for k in range(1, min(h.n_modes, n) + 1):
            c[n + k] = 0.5 * (h.a[k] - 1j * h.b[k])
            c[n - k] = 0.5 * (h.a[k] + 1j * h.b[k])
        return c

    full = np.convolve(complex_coeffs(f), complex_coeffs(g))
    mid = 2 * n
    a = np.zeros(n + 1)
    b = np.zeros(n + 1)
    a[0] = full[mid].real
    for k in range(1, n + 1):
        a[k] = 2.0 * full[mid + k].real
        b[k] = -2.0 * full[mid + k].imag
    return SpectralField(a, b)


def coeff_gap(f, g):
    """Largest coefficient difference between two fields."""
    n = max(f.n_modes, g.n_modes)
    fp, gp = f.pad_to(n), g.pad_to(n)
    return max(np.abs(fp.a - gp.a).max(), np.abs(fp.b - gp.b).max())


def residual_first_form(c, phi, p):
    """The residual assembled from the Zygmund-operator form,

        2cφ' + cα0 Λφ' + (1/ε){φ' + Hφ + (α0-β) Hφ''}
        + H[(Λφ)²] - ⟦H,φ⟧[Λφ] + (α0-β) ⟦H,φ⟧[Λ³φ],

    used only as a cross-check of the expanded production form.
    """
    from oddwaves import multiply

    a = phi.a.copy()
    a[0] = 0.0
    phi = CosineSeries(a)
    g = p.alpha0 - p.beta
    d1 = derivative(phi, 1)
    lam = zygmund(phi)
    lam3 = zygmund(zygmund(lam))
    return (2.0 * c) * d1 + (c * p.alpha0) * zygmund(d1) \
        + (1.0 / p.epsilon) * (d1 + hilbert(phi) + g * hilbert(derivative(phi, 2))) \
        + hilbert(multiply(lam, lam)) \
        - commutator_h(phi, lam) \
        + g * commutator_h(phi, lam3)


def exact_gateaux_nonlinear(a, k, g):
    """Sine amplitudes of the quadratic terms' derivative at the even profile
    with cosine amplitudes ``a``, in the direction cos(kx), with g = α0 - β.
    Exact rational arithmetic (product-to-sum formulas, no FFT, no
    roundoff); returns a dict frequency -> Fraction.

    Series are dicts frequency -> [cos amplitude, sin amplitude].
    """
    half = Fraction(1, 2)

    def lin(*terms):
        out = {}
        for coef, ser in terms:
            for j, (c, s) in ser.items():
                acc = out.setdefault(j, [Fraction(0), Fraction(0)])
                acc[0] += coef * c
                acc[1] += coef * s
        return out

    def hil(ser):
        return {j: [-s, c] for j, (c, s) in ser.items() if j}

    def der(ser, order=1):
        for _ in range(order):
            ser = {j: [j * s, -j * c] for j, (c, s) in ser.items()}
        return ser

    def mul(f, h):
        out = {}
        for i, (c1, s1) in f.items():
            for j, (c2, s2) in h.items():
                for freq, c, s in ((i + j, c1 * c2 - s1 * s2, c1 * s2 + s1 * c2),
                                   (i - j, c1 * c2 + s1 * s2, s1 * c2 - c1 * s2)):
                    if freq < 0:
                        freq, s = -freq, -s
                    acc = out.setdefault(freq, [Fraction(0), Fraction(0)])
                    acc[0] += half * c
                    acc[1] += half * s
        return out

    def comm(f, h):
        return lin((1, hil(mul(f, h))), (-1, mul(f, hil(h))))

    g = Fraction(g)
    phi = {j: [Fraction(float(a[j])), Fraction(0)] for j in range(1, len(a)) if a[j]}
    h = {k: [Fraction(1), Fraction(0)]}
    hp1, hp3 = hil(der(phi)), hil(der(phi, 3))
    hh1, hh3 = hil(der(h)), hil(der(h, 3))
    out = lin((2, hil(mul(hp1, hh1))), (-1, comm(h, hp1)), (-1, comm(phi, hh1)),
              (-g, comm(h, hp3)), (-g, comm(phi, hh3)))
    return {j: s for j, (_, s) in out.items()}


def reference_seminorm(values, alpha):
    """The plain lag loop with ``np.roll`` and no early stop: the slow path
    ``holder.holder_seminorm`` must reproduce bit for bit on finite input."""
    vals = np.asarray(values, dtype=float)
    m = vals.size
    best = 0.0
    for lag in range(1, m // 2 + 1):
        dist = 2.0 * np.pi * lag / m
        gap = np.abs(np.roll(vals, -lag) - vals).max()
        best = max(best, gap / dist ** alpha)
    return float(best)
