"""Spectral representation and operator tests."""

import numpy as np
import pytest

from oddwaves import (
    ConfigurationError,
    CosineSeries,
    SineSeries,
    SpectralField,
    commutator_h,
    derivative,
    hilbert,
    multiply,
    to_spectral,
    translate,
    zygmund,
)
from oddwaves.spectral import _analyze, _synthesize, operators_by_quadrature

from helpers import (
    coeff_gap,
    conv_product,
    cosine,
    random_field,
    reference_analyze,
    reference_hilbert_by_quadrature,
    reference_synthesize,
    reference_zygmund_by_quadrature,
    sine,
)


class TestSpectralField:
    def test_round_trip_grid_to_coeffs_to_grid(self):
        rng = np.random.default_rng(11)
        f = random_field(rng, 20)
        vals = f.values(64)
        back = to_spectral(vals)
        err = np.abs(back.values(64) - vals).max()
        assert err <= 10 * np.finfo(float).eps * np.abs(vals).max()
        assert coeff_gap(back, f) < 1e-14

    def test_sine_b0_enforced(self):
        with pytest.raises(ConfigurationError):
            SpectralField([0.0, 1.0], [0.5, 0.0])

    def test_parity_flags(self):
        assert cosine(3).is_even and not sine(3).is_even
        assert sine(3).is_odd and not cosine(3).is_odd

    def test_grid_size_floor(self):
        f = SpectralField(np.zeros(9))
        assert f.grid_size == 2 * 8 + 2

    def test_one_amplitude_field_samples_on_the_smallest_legal_grid(self):
        """N = 0 would give 2N + 2 = 2 points, below the grid rule's 4."""
        f = CosineSeries([1.5])
        assert f.grid_size == 4
        assert f.values().tolist() == [1.5] * 4
        assert SpectralField([0.0, 1.0]).grid_size == 4

    def test_grid_follows_truncation(self):
        """The grid is 2N + 2, derived from the amplitudes: no constructor
        takes it and no field stores it or its values."""
        for build in (SpectralField, CosineSeries, SineSeries):
            with pytest.raises(TypeError):
                build(np.zeros(9), grid_size=96)
        with pytest.raises(AttributeError):
            SpectralField(np.zeros(9)).grid_size = 96
        assert set(SpectralField.__slots__) == {"a", "b", "_degree"}

    def test_mean_and_projection(self):
        f = SpectralField([2.5, 1.0])
        assert f.mean == 2.5
        assert f.with_zero_mean().mean == 0.0

    def test_pad_truncate(self):
        f = cosine(2)
        g = f.pad_to(10)
        assert g.n_modes == 10 and g.degree == 2
        assert coeff_gap(g.truncate(2), f) == 0.0
        with pytest.raises(ConfigurationError):
            g.pad_to(3)

    def test_cached_degree_matches_fresh_field(self):
        """Derived fields report the degree a field built from their arrays has."""
        rng = np.random.default_rng(12)
        f = random_field(rng, 9)
        top = SpectralField(np.r_[f.a[:7], 0.0, 0.0, 0.0], np.r_[f.b[:7], 0.0, 0.0, 0.0])
        derived = [derivative(f, 1), derivative(cosine(4), 2), multiply(f, top),
                   multiply(cosine(3), sine(2)), f.pad_to(20), top.truncate(8),
                   f.truncate(4), CosineSeries(np.zeros(5)).pad_to(9)]
        for g in derived:
            assert g.degree == SpectralField(g.a, g.b).degree
        assert top.degree == 6 and top.truncate(8).degree == 6

    def test_values_rejects_aliasing_grid(self):
        f = cosine(8)
        with pytest.raises(ConfigurationError):
            f.values(12)

    def test_sup_norm_single_mode(self):
        assert abs(cosine(5, 2.0).sup_norm() - 2.0) < 1e-12


class TestToSpectral:
    def test_band_limited_exact(self):
        x = 2 * np.pi * np.arange(16) / 16
        f = to_spectral(np.cos(2 * x))
        assert abs(f.a[2] - 1.0) < 1e-14
        off = np.abs(f.a).sum() - abs(f.a[2]) + np.abs(f.b).sum()
        assert off < 1e-13

    def test_constant(self):
        f = to_spectral(np.full(8, 3.0))
        assert abs(f.a[0] - 3.0) < 1e-14
        assert np.abs(f.a[1:]).max() < 1e-15 and np.abs(f.b).max() < 1e-15

    def test_mixed_harmonic(self):
        x = 2 * np.pi * np.arange(16) / 16
        f = to_spectral(np.sin(x) + np.cos(x))
        assert abs(f.a[1] - 1.0) < 1e-14 and abs(f.b[1] - 1.0) < 1e-14

    @pytest.mark.parametrize("bad", [[1.0, 2.0], np.zeros(7), np.zeros(2)])
    def test_grid_length_validation(self, bad):
        with pytest.raises(ConfigurationError):
            to_spectral(bad)


class TestHilbert:
    @pytest.mark.parametrize("k", [1, 2, 7, 31])
    def test_cos_to_sin(self, k):
        h = hilbert(cosine(k))
        assert h.b[k] == 1.0 and np.abs(h.a).max() == 0.0

    def test_constant_to_zero(self):
        h = hilbert(CosineSeries([4.2]))
        assert h.sup_norm() == 0.0

    def test_sin_to_minus_cos(self):
        # equivalently H^2 = -Id on mean-zero fields
        h = hilbert(sine(1))
        assert h.a[1] == -1.0 and np.abs(h.b).max() == 0.0

    def test_square_is_minus_identity(self):
        rng = np.random.default_rng(5)
        for n in (16, 64, 256):
            f = random_field(rng, n)
            g = hilbert(hilbert(f)) + f.with_zero_mean()
            assert max(np.abs(g.a).max(), np.abs(g.b).max()) < 1e-12

    def test_swaps_parity_classes_exactly(self):
        hc, hs = hilbert(cosine(4)), hilbert(sine(4))
        assert hc.is_odd and not hc.a.any() and hc.b[4] == 1.0
        assert hs.is_even and not hs.b.any() and hs.a[4] == -1.0

    def test_against_quadrature(self):
        rng = np.random.default_rng(8)
        f = random_field(rng, 12)
        hv, _ = operators_by_quadrature(f)
        assert np.abs(hv - hilbert(f).values(f.grid_size)).max() < 1e-10


class TestZygmund:
    def test_cos3(self):
        z = zygmund(cosine(3))
        assert z.a[3] == 3.0 and np.abs(z.b).max() == 0.0

    def test_constant(self):
        assert zygmund(CosineSeries([2.0])).sup_norm() == 0.0

    def test_sin2(self):
        z = zygmund(sine(2))
        assert z.b[2] == 2.0

    def test_equals_hilbert_of_derivative(self):
        rng = np.random.default_rng(13)
        f = random_field(rng, 40)
        assert coeff_gap(zygmund(f), hilbert(derivative(f, 1))) == 0.0

    def test_against_singular_integral_quadrature(self):
        # the 1/(4π) sin^{-2} kernel normalization must match the mode map
        rng = np.random.default_rng(21)
        f = random_field(rng, 10)
        _, lv = operators_by_quadrature(f)
        assert np.abs(lv - zygmund(f).values(f.grid_size)).max() < 1e-6


# degree, and the multiple of its grid (2 deg + 2, at least 4) nearest 4096
@pytest.mark.parametrize("degree, nodes", [(0, 4096), (1, 4096), (16, 4080), (32, 4092),
                                           (64, 4160)])
def test_quadrature_equals_the_two_loops_bit_for_bit(degree, nodes):
    """``operators_by_quadrature`` gives the floats of one loop per operator
    on the node count nearest ``QUAD_NODES``, for even, odd and mixed
    fields, with and without a mean."""
    rng = np.random.default_rng(degree + 1)
    fields = []
    for mean in (0.0, 0.7):
        even = random_field(rng, degree, even=True, mean=mean)
        mixed = random_field(rng, degree, mean=mean)
        odd = SineSeries(mixed.b)
        fields += [even, odd + CosineSeries([mean]), mixed]
    for f in fields:
        hv, lv = operators_by_quadrature(f)
        assert hv.tobytes() == reference_hilbert_by_quadrature(f, nodes).tobytes()
        assert lv.tobytes() == reference_zygmund_by_quadrature(f, nodes).tobytes()


class TestDerivative:
    @pytest.mark.parametrize("k", [1, 3, 9])
    def test_orders_on_cosine(self, k):
        f = cosine(k)
        assert derivative(f, 1).b[k] == -k
        assert derivative(f, 2).a[k] == -k ** 2
        assert derivative(f, 3).b[k] == k ** 3

    @pytest.mark.parametrize("order", [0, 4, -1])
    def test_unsupported_order(self, order):
        with pytest.raises(ConfigurationError):
            derivative(cosine(1), order)

    def test_parity_flip(self):
        d1, d2 = derivative(cosine(2), 1), derivative(cosine(2), 2)
        assert d1.is_odd and not d1.a.any() and d1.b[2] == -2.0
        assert d2.is_even and not d2.b.any() and d2.a[2] == -4.0


class TestMultiply:
    def test_cos_squared(self):
        p = multiply(cosine(1), cosine(1))
        assert abs(p.a[0] - 0.5) < 1e-15 and abs(p.a[2] - 0.5) < 1e-15
        assert abs(p.a[1]) < 1e-15

    def test_zero_factor(self):
        p = multiply(cosine(1), CosineSeries(np.zeros(5)))
        assert p.sup_norm() == 0.0

    def test_cos_times_sin(self):
        p = multiply(cosine(1), sine(1))
        assert abs(p.b[2] - 0.5) < 1e-15 and np.abs(p.a).max() == 0.0

    def test_commutative_and_bilinear(self):
        rng = np.random.default_rng(2)
        f, g, h = (random_field(rng, 15) for _ in range(3))
        assert coeff_gap(multiply(f, g), multiply(g, f)) < 1e-14
        lhs = multiply(f + 2.0 * g, h)
        rhs = multiply(f, h) + 2.0 * multiply(g, h)
        assert coeff_gap(lhs, rhs) < 1e-13

    def test_matches_convolution_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(6):
            f = random_field(rng, int(rng.integers(1, 25)))
            g = random_field(rng, int(rng.integers(1, 25)))
            assert coeff_gap(multiply(f, g), conv_product(f, g)) < 1e-13

    def test_parity_of_products_exact(self):
        rng = np.random.default_rng(3)
        even = random_field(rng, 9, even=True)
        odd = SineSeries(np.r_[0.0, rng.standard_normal(9)])
        for prod in (multiply(even, even), multiply(odd, odd)):
            assert prod.is_even and not prod.b.any() and prod.a.any()
        for prod in (multiply(even, odd), multiply(odd, even)):
            assert prod.is_odd and not prod.a.any() and prod.b.any()

    @pytest.mark.parametrize("seed", range(5))
    def test_parity_follows_values_not_constructor(self, seed):
        """Even factors built as plain fields (b ≡ 0 by value) give an
        exactly even product, as cosine series do, and the same one."""
        rng = np.random.default_rng(seed)
        a = np.r_[0.3, rng.standard_normal(9)]
        c = np.r_[0.0, rng.standard_normal(7)]
        f, g = SpectralField(a), SpectralField(c)
        for prod, ref in ((multiply(f, f), multiply(CosineSeries(a), CosineSeries(a))),
                          (multiply(f, g), multiply(CosineSeries(a), CosineSeries(c)))):
            assert prod.is_even and not prod.b.any()
            assert np.array_equal(prod.a, ref.a)

    @pytest.mark.parametrize("deg_f, deg_g, pad",
                             [(3, 5, 24), (1, 1, 40), (10, 7, 30), (12, 12, 25)])
    def test_padding_changes_no_float(self, deg_f, deg_g, pad):
        """The product's modes above deg f + deg g vanish, so padded factors
        are multiplied on the unpadded factors' grid (degrees 3 and 5 padded
        to 24 on 32 points, not 64) and give their product bit for bit,
        zero-padded to the longer truncation."""
        rng = np.random.default_rng(deg_f + 100 * pad)
        f, g = random_field(rng, deg_f), random_field(rng, deg_g)
        padded = multiply(f.pad_to(pad), g.pad_to(pad))
        want = multiply(f, g).pad_to(pad)
        assert padded.n_modes == pad
        assert padded.a.tobytes() == want.a.tobytes()
        assert padded.b.tobytes() == want.b.tobytes()


class TestBoundKernels:
    """``_synthesize`` and ``_analyze`` call numpy's pocketfft kernels
    directly; they must give the bytes of the public ``np.fft`` calls they
    replaced, on power-of-two grids from 8 to 4096 points and on even grids
    between them, for one row and for a stack of rows."""

    GRIDS = [1 << k for k in range(3, 13)] + [6, 10, 12, 100, 1000]

    @pytest.mark.parametrize("m", GRIDS)
    @pytest.mark.parametrize("rows", [(), (3,)])
    def test_synthesize_equals_irfft(self, m, rows):
        """Amplitudes of every length from one mode to past the grid's
        Nyquist bin: the kernel zero-pads an input shorter than m/2 + 1
        exactly as ``np.fft.irfft`` does."""
        rng = np.random.default_rng(m)
        for size in sorted({1, 2, m // 4, m // 2 - 1, m // 2, m}):
            a = rng.standard_normal(rows + (size,))
            b = rng.standard_normal(rows + (size,))
            b[..., 0] = 0.0
            got = _synthesize(a, b, m)
            assert got.shape == rows + (m,)
            assert got.tobytes() == reference_synthesize(a, b, m).tobytes()

    @pytest.mark.parametrize("m", GRIDS)
    @pytest.mark.parametrize("rows", [(), (3,)])
    def test_analyze_equals_rfft(self, m, rows):
        values = np.random.default_rng(m + 1).standard_normal(rows + (m,))
        for got, want in zip(_analyze(values), reference_analyze(values)):
            assert got.shape == rows + (m // 2,)
            assert got.tobytes() == want.tobytes()


class TestCommutator:
    def test_constant_first_argument_annihilates(self):
        rng = np.random.default_rng(4)
        g = random_field(rng, 10)
        out = commutator_h(CosineSeries([2.5]), g)
        assert out.sup_norm() < 1e-14

    def test_constant_second_argument(self):
        # ⟦H, cos⟧[1] = H(cos) - cos · H(1) = sin
        out = commutator_h(cosine(1), CosineSeries([1.0]))
        assert abs(out.b[1] - 1.0) < 1e-14

    def test_cos_cos_vanishes(self):
        out = commutator_h(cosine(1), cosine(1))
        assert out.sup_norm() < 1e-15

    def test_matches_termwise_construction(self):
        """Definition check with the independent convolution product."""
        rng = np.random.default_rng(6)
        n = 60
        for _ in range(4):
            f = random_field(rng, n // 3)
            g = random_field(rng, n // 3)
            oracle = hilbert(conv_product(f, g)) - conv_product(f, hilbert(g))
            assert coeff_gap(commutator_h(f, g), oracle) < 1e-12


class TestTranslate:
    def test_phase_shift_exact(self):
        f = cosine(3)
        t = translate(f, 0.7)
        x = 2 * np.pi * np.arange(16) / 16
        assert np.abs(t.values(16) - np.cos(3 * (x - 0.7))).max() < 1e-13

    def test_full_period_identity(self):
        rng = np.random.default_rng(9)
        f = random_field(rng, 6)
        assert coeff_gap(translate(f, 2 * np.pi), f) < 1e-12
