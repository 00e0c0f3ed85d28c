"""Residual, linearization, and critical-speed tests."""

import numpy as np
import pytest

from oddwaves import (
    ConfigurationError,
    CosineSeries,
    ModelParams,
    assemble_jacobian,
    bifurcation,
    critical_speed,
    d_c_symbol,
    gateaux,
    model,
    residual,
    symbol_at,
)
from oddwaves.bifurcation import continue_branch
from oddwaves.model import _Lattice, _QuadraticWork, d_c_residual
from oddwaves.spectral import _hat

from helpers import (
    ORACLE_PARAMS,
    as_fields,
    coeff_gap,
    cosine,
    count_real_ffts,
    exact_gateaux_nonlinear,
    exact_residual,
    fft_gateaux,
    fft_residual,
    newton_matrix,
    random_even,
    random_field,
    random_mfold_even,
    reference_gateaux,
    reference_jacobian,
    reference_product_transforms,
    reference_quadratic,
    reference_residual,
    relative_gap,
    residual_first_form,
)

P = ModelParams(epsilon=1.0, alpha0=1.0, beta=0.0)
PD = ModelParams(epsilon=0.5, alpha0=1.0, beta=1.0)  # degenerate alpha0 == beta


class TestModelParams:
    @pytest.mark.parametrize("eps,a0", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_positivity(self, eps, a0):
        with pytest.raises(ConfigurationError):
            ModelParams(eps, a0, 0.0)

    def test_degenerate_flag(self):
        assert PD.degenerate and not P.degenerate


class TestSymbol:
    def test_direct_substitution(self):
        # eps=1, alpha0=1, beta=0, c=0, k=1: -(0+1)·1 + 1 - (0+1)·1 = -1
        assert symbol_at(1, 0.0, P) == -1.0

    def test_affine_in_speed(self):
        for k in (1, 5, 12):
            slope = (symbol_at(k, 1.0, P) - symbol_at(k, -1.0, P)) / 2.0
            assert slope == d_c_symbol(k, P)

    def test_invalid_mode(self):
        with pytest.raises(ConfigurationError):
            symbol_at(0, 0.0, P)

    @pytest.mark.parametrize("p", [P, PD, *ORACLE_PARAMS, ModelParams(0.5403, 0.8213, 0.5702)])
    def test_scale_is_the_sum_of_the_terms_magnitudes(self, p):
        """``_symbol_scale`` is |2c + 1/ε| k + 1/ε + |c α0 + (α0 - β)/ε| k²
        bit for bit, on frequencies 1..256 and speeds of both signs, the
        critical speeds among them."""
        k = np.arange(1.0, 257.0)
        g = p.alpha0 - p.beta
        for c in (-2.5, -1.0 / 3.0, 0.0, 0.25, 3.0, *(critical_speed(j, p) for j in (1, 2, 7))):
            want = (abs(2.0 * c + 1.0 / p.epsilon) * k + 1.0 / p.epsilon
                    + abs(c * p.alpha0 + g / p.epsilon) * k * k)
            assert np.array_equal(model._symbol_scale(k, c, p), want)
            assert model._symbol_scale(5, c, p) == want[4]


class TestCriticalSpeed:
    def test_reference_values(self):
        assert abs(critical_speed(1, P) + 1.0 / 3.0) < 1e-15
        assert critical_speed(2, P) == -5.0 / 8.0
        assert abs(critical_speed(3, P) + 11.0 / 15.0) < 1e-15

    def test_degenerate_k1_is_zero(self):
        # numerator 1 - k vanishes at k = 1 when alpha0 == beta
        for eps in (0.2, 1.0, 7.0):
            assert critical_speed(1, ModelParams(eps, 2.0, 2.0)) == 0.0

    def test_root_property_sweep(self):
        for eps in (0.1, 1.0, 10.0):
            for a0 in (0.5, 2.0):
                for beta in (-1.0, 0.0, 1.5):
                    p = ModelParams(eps, a0, beta)
                    for k in range(1, 51):
                        ck = critical_speed(k, p)
                        assert abs(symbol_at(k, ck, p)) < 1e-12 * (1 + abs(ck) * k * k)


class TestTransversalityQuantity:
    def test_value(self):
        assert d_c_symbol(1, P) == -3.0

    def test_always_negative(self):
        for a0 in (0.1, 1.0, 10.0):
            p = ModelParams(1.0, a0, 0.0)
            assert all(d_c_symbol(k, p) < 0 for k in range(1, 60))


class TestResidualTrivial:
    @pytest.mark.parametrize("c", [-1.0, 0.0, 2.0])
    def test_zero_profile(self, c):
        out = residual(c, CosineSeries(np.zeros(17)), P)
        assert out.sup_norm() == 0.0

    @pytest.mark.parametrize("a", [-3.0, 1.0, 7.0])
    def test_constants(self, a):
        coeffs = np.zeros(17)
        coeffs[0] = a
        assert residual(0.5, CosineSeries(coeffs), P).sup_norm() < 1e-13

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(1)
        phi = random_even(rng, 10)
        shifted = CosineSeries(phi.a + np.r_[4.0, np.zeros(10)])
        assert coeff_gap(residual(0.3, phi, P), residual(0.3, shifted, P)) < 1e-14


class TestResidualStructure:
    def test_output_is_sine_series(self):
        rng = np.random.default_rng(2)
        out = residual(0.1, random_even(rng, 12), P)
        assert out.is_odd and not out.a.any()
        assert out.b.any() and out.n_modes == 24

    def test_rejects_odd_input(self):
        from helpers import sine
        with pytest.raises(ConfigurationError):
            residual(0.0, sine(2), P)

    def test_single_cosine_closed_form(self):
        """For φ = δ cos(kx) the quadratic part is exactly (δ²k²/2) sin(2kx):
        both commutator terms vanish on a single harmonic."""
        for k in (1, 2, 6):
            for delta in (1e-7, 0.4):
                out = residual(0.2, cosine(k, delta), P)
                expect = np.zeros(out.n_modes + 1)
                expect[k] = delta * symbol_at(k, 0.2, P)
                expect[2 * k] += 0.5 * delta ** 2 * k ** 2
                assert np.abs(out.b - expect).max() < 1e-13 * max(1.0, delta)

    def test_small_amplitude_linearization(self):
        # remainder after removing the symbol part is quadratic: below 1e-12
        # at delta = 1e-7
        delta = 1e-7
        for k in (1, 3):
            out = residual(-0.4, cosine(k, delta), P)
            lin = np.zeros(out.n_modes + 1)
            lin[k] = delta * symbol_at(k, -0.4, P)
            assert np.abs(out.b - lin).max() < 1e-12

    def test_mfold_closure(self):
        """The residual of an m-fold profile, and its derivative in an m-fold
        direction, are exact zeros off the lattice."""
        rng = np.random.default_rng(7)
        for m in (2, 3, 5):
            phi = random_mfold_even(rng, m, 20)
            out = residual(0.6, phi, P)
            mask = np.ones(out.n_modes + 1, dtype=bool)
            mask[::m] = False
            assert out.b[~mask].any() and not out.b[mask].any()
            image = gateaux(0.6, phi, random_mfold_even(rng, m, 12), P)
            assert not image.b[np.arange(image.n_modes + 1) % m != 0].any()

    def test_quadratic_scaling_of_nonlinearity(self):
        """residual - gateaux(·, 0, ·) is exactly quadratic: scaling the
        profile by t scales the difference by t²."""
        rng = np.random.default_rng(12)
        phi = random_even(rng, 10)
        flat = CosineSeries(np.zeros(10 + 1))
        t = 0.37

        def quad_part(profile):
            return residual(0.2, profile, P) - gateaux(0.2, flat, profile, P)

        lhs = quad_part(CosineSeries(t * phi.a))
        rhs = t ** 2 * quad_part(phi)
        assert coeff_gap(lhs, rhs) < 1e-14

    def test_first_form_consistency(self):
        """The one-bracket form agrees with the Zygmund-operator form
        written term by term."""
        rng = np.random.default_rng(19)
        for p in (P, PD, ModelParams(0.5, 1.0, 0.5)):
            phi = random_even(rng, 14)
            gap = coeff_gap(residual(0.25, phi, p), residual_first_form(0.25, phi, p))
            assert gap < 1e-12

    def test_degenerate_regime_drops_third_order_commutator(self):
        """With alpha0 == beta the residual reduces to the gamma-free terms."""
        from oddwaves import commutator_h, derivative, hilbert, multiply
        rng = np.random.default_rng(23)
        phi = random_even(rng, 10)
        c = 0.3
        d1 = derivative(phi, 1)
        hp1 = hilbert(d1)
        manual = (2.0 * c) * d1 + (c * PD.alpha0) * hilbert(derivative(phi, 2)) \
            + (1.0 / PD.epsilon) * (d1 + hilbert(phi)) \
            + hilbert(multiply(hp1, hp1)) - commutator_h(phi, hp1)
        assert coeff_gap(residual(c, phi, PD), manual) < 1e-14


class TestParityCheck:
    """A wave scaled to another ε is a wave there: its residual scales by
    1/ε² while its terms grow far beyond it."""

    def test_scaled_wave_passes(self):
        """A fold-1 point at ε = 1, mapped to (c/ε, φ/ε) at ε = 1e-3, is a
        valid wave there: its residual is the ε = 1 residual times 1/ε²,
        while its terms grow to about 1e5 and leak about 2e-11 of cosine."""
        p1 = ModelParams(1.0, 1.0, 0.5)
        branch = continue_branch(1, p1, 0.5, n=32, step_cap=0.1)
        pt, phi = branch.points[-1], as_fields(branch)[-1]
        assert pt.s == 0.5
        eps = 1e-3
        scaled = residual(pt.c / eps, CosineSeries(phi.a / eps),
                          ModelParams(eps, 1.0, 0.5))
        want = residual(pt.c, phi, p1)
        assert np.abs(eps ** 2 * scaled.b - want.b).max() <= 1e-15


class TestReferenceOracles:
    """Residual and Gateaux derivative, derived from the one bracket, against
    their earlier hand-written forms, relative to the largest coefficient."""

    @pytest.mark.parametrize("p", ORACLE_PARAMS)
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_residual(self, n, p):
        rng = np.random.default_rng(n)
        for c in (-0.4, 0.0, 0.3):
            phi = random_even(rng, n, mean=rng.standard_normal())
            assert relative_gap(residual(c, phi, p), reference_residual(c, phi, p)) <= 1e-13

    @pytest.mark.parametrize("p", ORACLE_PARAMS)
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_gateaux(self, n, p):
        rng = np.random.default_rng(n + 1)
        for c in (-0.4, 0.3):
            phi, h = random_even(rng, n), random_even(rng, n, mean=1.0)
            assert relative_gap(gateaux(c, phi, h, p), reference_gateaux(c, phi, h, p)) <= 1e-13


class TestStackedQuadratic:
    """``model._products`` synthesizes its factors with one stacked ``irfft``
    and analyses its products with one stacked ``rfft``, on the shape
    ``evolve`` uses (a state's own modes); Q = P2 - i P1 from them must be
    the per-factor oracle's floats exactly."""

    @staticmethod
    def random_hat(rng, degree):
        f = random_field(rng, degree, mean=rng.standard_normal())
        return _hat(f.a, f.b)

    @staticmethod
    def quadratic(u, work):
        """Q(u, u) = P2 - i P1 on u's modes, formed from ``_products``."""
        model._products(u, work)
        q = work.p2.copy()
        q[1:] -= 1j * work.p1[1:]
        return q

    @pytest.mark.parametrize("p", ORACLE_PARAMS)
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_equals_reference_bit_for_bit(self, n, p):
        rng = np.random.default_rng(n + 2)
        work = _QuadraticWork(n + 1, p)
        for _ in range(2):
            u = self.random_hat(rng, n)
            want = reference_quadratic(u, u, p, n)
            # u in an array of its own, then written into the workspace's row
            assert self.quadratic(u, work).tobytes() == want.tobytes()
            work.u[:] = u
            assert self.quadratic(work.u, work).tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", ORACLE_PARAMS)
    def test_reused_work_equals_reference(self, p):
        """One ``_QuadraticWork`` serves every call of its size: calls on
        new data through it return the oracle's floats, whatever the calls
        before them left in its arrays."""
        rng = np.random.default_rng(5)
        for size in (33, 17, 2):
            work = _QuadraticWork(size, p)
            for _ in range(3):
                u = self.random_hat(rng, size - 1)
                want = reference_quadratic(u, u, p, size - 1)
                assert self.quadratic(u, work).tobytes() == want.tobytes()

    def test_one_transform_each_way(self, monkeypatch):
        counts = count_real_ffts(monkeypatch)
        rng = np.random.default_rng(4)
        work = _QuadraticWork(33, P)
        model._products(self.random_hat(rng, 32), work)
        assert counts == {"irfft": 1, "rfft": 1}

    @pytest.mark.parametrize("p", ORACLE_PARAMS)
    def test_transforms_equal_public_fft(self, p):
        """Both kernel calls of ``_products`` write the bytes of the public
        ``np.fft`` calls they replaced, on every power-of-two grid from 8 to
        4096 points."""
        rng = np.random.default_rng(9)
        grids = set()
        for k in range(3, 13):
            for size in ((1 << k) // 3, (1 << (k - 2)) + 1):   # both on 2^k points
                work = _QuadraticWork(size, p)
                model._products(self.random_hat(rng, size - 1), work)
                grid, products, prod = reference_product_transforms(work)
                # row 0, u, is the one no product overwrites
                assert work.grid[0].tobytes() == grid[0].tobytes()
                assert work.products.tobytes() == products.tobytes()
                assert work.prod.tobytes() == prod.tobytes()
                grids.add(work.m)
        assert grids == {1 << k for k in range(3, 13)}


class TestGateaux:
    def test_flat_state_is_diagonal_symbol(self):
        flat = CosineSeries(np.zeros(9))
        for k in (1, 4, 8):
            out = gateaux(0.7, flat, cosine(k, 1.0, n=8), P)
            expect = np.zeros(out.n_modes + 1)
            expect[k] = symbol_at(k, 0.7, P)
            assert np.abs(out.b - expect).max() == 0.0

    def test_zero_direction(self):
        rng = np.random.default_rng(3)
        phi = random_even(rng, 8)
        out = gateaux(0.1, phi, CosineSeries(np.zeros(9)), P)
        assert out.sup_norm() == 0.0

    def test_linear_in_direction(self):
        rng = np.random.default_rng(31)
        phi, h1, h2 = (random_even(rng, 8) for _ in range(3))
        lhs = gateaux(0.2, phi, CosineSeries(h1.a + 3.0 * h2.a), P)
        rhs = gateaux(0.2, phi, h1, P) + 3.0 * gateaux(0.2, phi, h2, P)
        assert coeff_gap(lhs, rhs) < 1e-13

    @pytest.mark.parametrize("p", [P, PD])
    def test_matches_central_differences(self, p):
        rng = np.random.default_rng(41)
        delta = 1e-5
        for _ in range(5):
            phi = random_even(rng, 12)
            h = random_even(rng, 12)
            plus = residual(0.1, CosineSeries(phi.a + delta * h.a), p)
            minus = residual(0.1, CosineSeries(phi.a - delta * h.a), p)
            fd = (1.0 / (2 * delta)) * (plus - minus)
            gx = gateaux(0.1, phi, h, p)
            assert (fd - gx).sup_norm() / gx.sup_norm() < 1e-6

    def test_speed_derivative_exact(self):
        rng = np.random.default_rng(43)
        phi = random_even(rng, 10)
        fd = (1.0 / 2.0) * (residual(1.5, phi, P) - residual(-0.5, phi, P))
        assert coeff_gap(d_c_residual(phi, P), fd) < 1e-13


class TestJacobianMatrix:
    def test_diagonal_at_flat_state(self):
        flat = CosineSeries(np.zeros(1))
        jac = assemble_jacobian(0.4, flat, P, n=6, m=2)
        expect = np.diag([symbol_at(2 * j, 0.4, P) for j in range(1, 7)])
        assert jac.shape == (6, 6)
        assert np.abs(jac - expect).max() < 1e-12

    def test_linear_in_speed_with_transversality_slope(self):
        flat = CosineSeries(np.zeros(1))
        j1 = assemble_jacobian(0.1, flat, P, n=5, m=1)
        j2 = assemble_jacobian(0.7, flat, P, n=5, m=1)
        slope = (j2 - j1) / 0.6
        expect = np.diag([d_c_symbol(j, P) for j in range(1, 6)])
        assert np.abs(slope - expect).max() < 1e-11

    def test_columns_are_gateaux_images(self):
        rng = np.random.default_rng(51)
        m, n = 2, 5
        phi = random_mfold_even(rng, m, m * n)
        jac = assemble_jacobian(0.2, phi, P, n=n, m=m)
        for j in (1, 3, 5):
            col = gateaux(0.2, phi, cosine(m * j, 1.0, n=m * n), P)
            assert np.abs(jac[:, j - 1] - col.b[m * np.arange(1, n + 1)]).max() < 1e-13

    def test_rejects_off_lattice_profile(self):
        with pytest.raises(ConfigurationError):
            assemble_jacobian(0.0, cosine(3), P, n=4, m=2)

    def test_rejects_oversized_profile(self):
        with pytest.raises(ConfigurationError):
            assemble_jacobian(0.0, cosine(10, 1.0, n=10), P, n=4, m=2)

    def test_zero_padding_leaves_the_matrix_unchanged(self):
        """Amplitudes past m·n are zero, so a padded profile is accepted and
        gives the unpadded matrix."""
        p = ModelParams(0.5, 1.0, 0.5)
        branch = continue_branch(2, p, 0.02, n=16)
        c, phi = branch.points[-1].c, branch.profile(-1)
        jac = assemble_jacobian(c, phi, p, 16, m=2)
        assert assemble_jacobian(c, phi.pad_to(40), p, 16, m=2).tobytes() == jac.tobytes()


def columnwise_jacobian(c, a, p, m, n, speed_column=False):
    """The m-fold Jacobian built one column at a time from ``fft_gateaux``
    (FFT products); the slow oracle for the closed-form assembler."""
    phi = CosineSeries(a)
    rows = m * np.arange(1, n + 1)
    jac = np.empty((n, n))
    for j in range(1, n + 1):
        jac[:, j - 1] = fft_gateaux(c, phi, cosine(m * j, 1.0, n=m * n), p).b[rows]
    if speed_column:
        jac[:, 0] = d_c_residual(phi, p).b[rows]
    return jac


def columnwise_lattice_matrix(m, p):
    """``model._lattice_matrix`` for fold m at p, with column k the image
    Q(φ, cos kx) + Q(cos kx, φ) taken from ``fft_gateaux`` at c = 0 (FFT
    products) less its σ(k, 0) diagonal, at the rows m..2nm."""
    def build(alpha, lattice):
        n = alpha.size
        a = np.zeros(m * n + 1)
        a[m::m] = alpha
        phi, rows = CosineSeries(a), m * np.arange(1, 2 * n + 1)
        for j in range(1, n + 1):
            col = fft_gateaux(0.0, phi, cosine(m * j, 1.0, n=m * n), p).b.copy()
            col[m * j] -= symbol_at(m * j, 0.0, p)
            lattice.matrix[:, j - 1] = col[rows]
        return lattice.matrix
    return build


class TestClosedFormJacobian:
    """The Toeplitz + Hankel assembler against the column-by-column path.

    Matrices are compared relative to their largest entry, not entry by
    entry: the FFT products of the slow path leave roundoff of about 1e-10
    relative in its near-zero entries.  That roundoff scales with the size
    of φ times k³, where the third-derivative commutator terms cancel down
    to much smaller entries, so the FFT comparison uses branch-sized
    profiles near c_m and exact rational arithmetic covers O(1) profiles.
    """

    @pytest.mark.parametrize("p", [ModelParams(0.5, 1.0, 0.5), ModelParams(0.5, 1.0, 1.0)])
    @pytest.mark.parametrize("n", [6, 64])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_columnwise_gateaux(self, m, n, p):
        rng = np.random.default_rng(100 * m + n)
        a = np.zeros(m * n + 1)
        a[0] = rng.standard_normal()  # the mean must be projected out
        a[m::m] = 0.1 * rng.standard_normal(n) * np.exp(-0.5 * np.arange(1, n + 1))
        c = critical_speed(m, p) + rng.uniform(-0.1, 0.1)

        slow = columnwise_jacobian(c, a, p, m, n)
        fast = assemble_jacobian(c, CosineSeries(a), p, n=n, m=m)
        assert np.abs(fast - slow).max() <= 1e-13 * np.abs(slow).max()

        bordered = newton_matrix(c, a, p, _Lattice(m, n, p.alpha0 - p.beta))
        assert np.array_equal(bordered[:, 1:], fast[:, 1:])
        speed = d_c_residual(CosineSeries(a), p).b[m::m][:n]
        assert np.abs(bordered[:, 0] - speed).max() <= 1e-13 * np.abs(speed).max()

    @pytest.mark.parametrize("p", [ModelParams(0.5, 1.0, 0.5), ModelParams(0.5, 1.0, 1.0)])
    def test_matches_exact_arithmetic(self, p):
        rng = np.random.default_rng(7)
        m, n, c = 3, 64, -0.3
        a = np.zeros(m * n + 1)
        a[m::m] = rng.standard_normal(n) * np.exp(-0.25 * np.arange(1, n + 1))
        fast = assemble_jacobian(c, CosineSeries(a), p, n=n, m=m)
        scale = np.abs(fast).max()
        for j in (1, 2, 17, 40, 63, 64):
            exact = exact_gateaux_nonlinear(a, m * j, p.alpha0 - p.beta)
            col = np.array([float(exact.get(m * i, 0)) for i in range(1, n + 1)])
            col[j - 1] += symbol_at(m * j, c, p)
            assert np.abs(fast[:, j - 1] - col).max() <= 1e-15 * scale

    @pytest.mark.parametrize("p", [ModelParams(0.5, 1.0, 0.5), ModelParams(0.5, 1.0, 1.0)])
    def test_gateaux_matches_exact_arithmetic(self, p):
        """``gateaux`` in the directions cos(kx), k = 150..192, on every mode
        of the image, within 1e-12 absolute of exact rational arithmetic on
        the profile above.  With α0 ≠ β the FFT path lost 1.6e-10 here (the
        k³ terms of w = Λh - g Λ³h cancel after the products); the lattice
        keeps 1.4e-14 (4.6e-13 over all 64 directions)."""
        rng = np.random.default_rng(7)
        m, n, c = 3, 64, -0.3
        a = np.zeros(m * n + 1)
        a[m::m] = rng.standard_normal(n) * np.exp(-0.25 * np.arange(1, n + 1))
        phi = CosineSeries(a)
        for k in range(150, m * n + 1, m):
            exact = exact_gateaux_nonlinear(a, k, p.alpha0 - p.beta)
            image = gateaux(c, phi, cosine(k), p)
            want = np.array([float(exact.get(j, 0)) for j in range(image.n_modes + 1)])
            want[0] = 0.0
            want[k] += symbol_at(k, c, p)
            assert np.abs(image.b - want).max() <= 1e-12

    def test_short_profile_is_padded(self):
        rng = np.random.default_rng(5)
        phi = random_mfold_even(rng, 2, 6)
        fast = assemble_jacobian(0.3, phi, P, n=8, m=2)
        slow = columnwise_jacobian(0.3, phi.pad_to(16).a, P, 2, 8)
        assert np.abs(fast - slow).max() <= 1e-13 * np.abs(slow).max()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_branch_unchanged_by_assembler(self, m, monkeypatch):
        """Newton's residual and matrix both come from the lattice matrix;
        built column by column from ``fft_gateaux``, it gives the same
        branch."""
        p = ModelParams(0.5, 1.0, 0.5)
        fast = continue_branch(m, p, 0.05, n=64)
        monkeypatch.setattr(bifurcation, "_lattice_matrix", columnwise_lattice_matrix(m, p))
        slow = continue_branch(m, p, 0.05, n=64)
        assert not fast.truncated and not slow.truncated
        assert [pt.newton_iters for pt in fast.points] == [pt.newton_iters for pt in slow.points]
        assert max(abs(f.c - s.c) for f, s in zip(fast.points, slow.points)) <= 1e-12


class TestJacobianWeights:
    """The ``_Lattice`` built once per branch, with its strided amplitude
    views, gives the entries built and gathered per call, bit for bit: in
    ``assemble_jacobian`` and in Newton's bordered matrix, on a fresh
    lattice and on one that earlier calls have used."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 16, 64])
    def test_equals_reference_bit_for_bit(self, m, n):
        rng = np.random.default_rng(10 * m + n)
        phi = random_mfold_even(rng, m, m * n)
        for p in (ModelParams(0.5, 1.0, 1.0), ModelParams(0.7, 2.0, 0.3)):  # g = 0, g = 1.7
            lattice = _Lattice(m, n, p.alpha0 - p.beta)
            want = reference_jacobian(-0.4, phi.a, p, m, n, speed_column=True).tobytes()
            for _ in range(2):      # fresh, then used by the Newton steps before
                assert newton_matrix(-0.4, phi.a, p, lattice).tobytes() == want
            assert assemble_jacobian(-0.4, phi, p, n, m).tobytes() == \
                reference_jacobian(-0.4, phi.a, p, m, n).tobytes()


class TestLatticeResidual:
    """R = σ ∘ a + ½ K(a) a from the lattice matrix against the FFT residual
    ``fft_residual``, on every mode 0..2nm, relative to the largest term
    summed into the FFT residual (Q or the linear row); ``residual`` gives
    the lattice's floats."""

    @pytest.mark.parametrize("p", [ModelParams(0.5, 1.0, 0.5), ModelParams(1.0, 1.0, 1.0),
                                   ModelParams(0.7, 2.0, -1.0)])
    @pytest.mark.parametrize("n", [6, 64])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_equals_fft_residual(self, m, n, p):
        rng = np.random.default_rng(1000 * m + n)
        lattice = _Lattice(m, n, p.alpha0 - p.beta)
        c = critical_speed(m, p) + rng.uniform(-0.1, 0.1)
        decay = np.exp(-0.5 * np.arange(1, n + 1))
        for alpha in (rng.standard_normal(n), 0.1 * rng.standard_normal(n) * decay):
            a = np.zeros(m * n + 1)
            a[m::m] = alpha
            want, scale = fft_residual(c, CosineSeries(a), p)
            got = np.zeros(2 * m * n + 1)
            got[m::m] = model._lattice_residual(
                model._lattice_matrix(alpha, lattice), model._symbol(lattice.kf, c, p), alpha)
            assert np.abs(got - want.b).max() <= 1e-13 * scale
            assert residual(c, CosineSeries(a), p).b.tobytes() == got.tobytes()
            assert newton_matrix(c, a, p, lattice).tobytes() == \
                reference_jacobian(c, a, p, m, n, speed_column=True).tobytes()
            assert assemble_jacobian(c, CosineSeries(a), p, n, m).tobytes() == \
                reference_jacobian(c, a, p, m, n).tobytes()

    def test_continuation_calls_no_fft(self, monkeypatch):
        """Newton takes its residual and its matrix from the lattice matrix:
        a branch calls none of the FFT kernels ``model`` binds, and neither
        do ``residual``, ``gateaux`` and ``d_c_residual``."""
        counts = count_real_ffts(monkeypatch)
        for m in (1, 2, 3):
            assert len(continue_branch(m, ModelParams(0.5, 1.0, 0.5), 0.05).points) == 9
        assert not counts
        rng = np.random.default_rng(8)
        phi, h = random_even(rng, 12), random_even(rng, 7)
        residual(0.1, phi, P)
        gateaux(0.1, phi, h, P)
        d_c_residual(phi, P)
        assert not counts


class TestSupportLattice:
    """``residual`` and ``gateaux`` evaluate on the lattice of the gcd of
    their inputs' supports, n = the largest nonzero mode over it, and give
    the FFT path's values on today's number of modes."""

    @staticmethod
    def profile(modes, degree, scale=0.3, mean=0.0):
        a = np.zeros(degree + 1)
        a[0] = mean
        a[list(modes)] = scale * np.cos(np.arange(1, len(modes) + 1))
        return CosineSeries(a)

    @staticmethod
    def record_lattices(monkeypatch):
        built = []

        def recorded(m, n, g):
            built.append((m, n))
            return _Lattice(m, n, g)

        monkeypatch.setattr(model, "_Lattice", recorded)
        return built

    @pytest.mark.parametrize("p", [ModelParams(0.5, 1.0, 0.5), ModelParams(0.5, 1.0, 1.0)])
    @pytest.mark.parametrize("modes, degree, lattice", [
        ((1, 2, 5), 5, (1, 5)),            # gcd 1
        ((2, 6, 10), 10, (2, 5)),          # gcd 2
        ((3, 9), 11, (3, 3)),              # gcd 3, degree not a multiple of it
        ((6, 12, 30), 31, (6, 5)),         # gcd 6, degree not a multiple of it
        ((), 4, (1, 1)),                   # the zero profile
    ])
    def test_residual_equals_fft_path(self, monkeypatch, p, modes, degree, lattice):
        built = self.record_lattices(monkeypatch)
        for mean in (0.0, 2.5):
            phi = self.profile(modes, degree, mean=mean)
            got = residual(-0.3, phi, p)
            want, scale = fft_residual(-0.3, phi, p)
            assert got.n_modes == want.n_modes == 2 * degree and not got.a.any()
            assert np.abs(got.b - want.b).max() <= 1e-14 * max(scale, 1.0)
            if not modes:
                assert not got.b.any()
        assert built == [lattice, lattice]

    def test_constant_profile_gives_exact_zeros(self, monkeypatch):
        built = self.record_lattices(monkeypatch)
        for coeffs in ([3.0], [-1.0, 0.0, 0.0]):
            out = residual(0.5, CosineSeries(coeffs), P)
            assert out.n_modes == 2 * (len(coeffs) - 1) and not out.b.any()
            image = gateaux(0.5, CosineSeries(coeffs), CosineSeries(coeffs), P)
            assert image.n_modes == 2 * (len(coeffs) - 1) and not image.b.any()
        assert built == [(1, 1)] * 4

    @pytest.mark.parametrize("p", [ModelParams(0.5, 1.0, 0.5), ModelParams(0.7, 2.0, -1.0)])
    @pytest.mark.parametrize("phi_modes, h_modes, lattice", [
        ((4, 8), (6,), (2, 4)),            # lattices 4 and 6 share the 2-fold one
        ((3, 6), (2, 4), (1, 6)),          # coprime folds: the 1-fold lattice
        ((6, 12), (), (6, 2)),             # the zero direction
        ((), (3, 9), (3, 3)),              # the flat state
        ((2, 4, 8), (4,), (2, 4)),         # h on a sublattice of φ's
    ])
    def test_gateaux_equals_fft_path(self, monkeypatch, p, phi_modes, h_modes, lattice):
        built = self.record_lattices(monkeypatch)
        phi = self.profile(phi_modes, 13, mean=1.5)
        h = self.profile(h_modes, 9, scale=1.0)
        got = gateaux(0.2, phi, h, p)
        want = fft_gateaux(0.2, phi, h, p)
        assert got.n_modes == want.n_modes == 13 + 9 and not got.a.any()
        assert np.abs(got.b - want.b).max() <= 1e-13 * max(np.abs(want.b).max(), 1.0)
        assert built == [lattice]


class TestExactResidual:
    """``residual`` against exact rational arithmetic up to large amplitude
    (max |R| about 30, 2e4 and 2e5), within 4e-16 of the largest term
    summed into R (σ ∘ a or ½ K(a) a): the lattice reads 1.2e-16 to 1.4e-16
    there, and ``fft_residual`` 0.9e-15 to 1.5e-15."""

    @pytest.mark.parametrize("scale", [0.1, 3.0, 10.0])
    def test_large_amplitude(self, scale):
        p = ModelParams(0.5, 1.0, 0.5)
        rng = np.random.default_rng(32)
        m, n, c = 2, 32, -0.4
        a = np.zeros(m * n + 1)
        a[m::m] = scale * rng.standard_normal(n) * np.exp(-0.1 * np.arange(1, n + 1))
        exact = exact_residual(c, a, p)
        want = np.array([float(exact.get(k, 0)) for k in range(2 * m * n + 1)])
        linear = np.zeros_like(want)
        linear[1 : m * n + 1] = [symbol_at(k, c, p) * a[k] for k in range(1, m * n + 1)]
        largest = max(np.abs(linear).max(), np.abs(want - linear).max())
        got = residual(c, CosineSeries(a), p)
        assert np.abs(got.b - want).max() <= 4e-16 * largest
