"""Hölder norm estimation and commutator-bound sweep tests."""

import numpy as np
import pytest

from oddwaves import (
    ConfigurationError,
    CosineSeries,
    commutator_ratio,
    commutator_sweep,
    holder,
    holder_norm,
)
from oddwaves.holder import holder_seminorm

from helpers import cosine, random_field, reference_seminorm

# Frozen oracle: sup over pairs of |cos x - cos y| / dist(x,y)^{1/2} with the
# periodic distance.  Brute force on nested grids and maximizing the smooth
# pair family 2 sin(t) / (2t)^{1/2} both give this value (the maximizing pair
# straddles the inflection point at distance ~2.33, not the antipodes).
COS_SEMINORM_HALF = 1.2038366272071788


def brute_force_seminorm(values, alpha):
    """Quadratic-memory all-pairs oracle, independent of the lag-loop path."""
    m = values.size
    x = 2 * np.pi * np.arange(m) / m
    diff = np.abs(values[:, None] - values[None, :])
    raw = np.abs(x[:, None] - x[None, :])
    dist = np.minimum(raw, 2 * np.pi - raw)
    np.fill_diagonal(dist, 1.0)
    np.fill_diagonal(diff, 0.0)
    return float((diff / dist ** alpha).max())


class TestSeminorm:
    def test_matches_all_pairs_oracle(self):
        rng = np.random.default_rng(14)
        f = random_field(rng, 8)
        vals = f.values(512)
        assert np.isclose(holder_seminorm(vals, 0.3),
                          brute_force_seminorm(vals, 0.3), rtol=1e-12)

    def test_cos_frozen_value(self):
        vals = cosine(1).values(4096)
        est = holder_seminorm(vals, 0.5)
        assert abs(est - COS_SEMINORM_HALF) < 1e-6

    @pytest.mark.parametrize("m", [2, 3, 5, 1024, 4096])
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_equals_reference_bit_for_bit(self, m, alpha):
        """The early stop keeps the exact maximum of the all-lags loop."""
        rng = np.random.default_rng(m)
        x = 2 * np.pi * np.arange(m) / m
        inputs = {
            "random": rng.standard_normal(m),
            "smooth": np.cos(3 * x),
            "constant": np.full(m, -1.75),
            "rough": np.cumsum(rng.standard_normal(m)) + np.sign(np.sin(7 * x)),
        }
        for name, vals in inputs.items():
            assert holder_seminorm(vals, alpha) == reference_seminorm(vals, alpha), name

    @pytest.mark.parametrize("m", [2, 7, 1024])
    def test_nan_sample_gives_nan(self, m):
        rng = np.random.default_rng(30)
        for pos in {0, m // 2, m - 1}:
            vals = rng.standard_normal(m)
            vals[pos] = np.nan
            assert np.isnan(holder_seminorm(vals, 0.5))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_isolated_infinity_gives_inf(self, sign):
        vals = np.cos(2 * np.pi * np.arange(64) / 64)
        vals[17] = sign * np.inf
        assert holder_seminorm(vals, 0.5) == np.inf

    def test_fewer_than_two_samples_give_zero(self):
        for vals in (np.zeros(0), np.array([3.0]), np.array([np.nan])):
            assert holder_seminorm(vals, 0.5) == 0.0

    def test_alpha_range(self):
        with pytest.raises(ConfigurationError):
            holder_seminorm(np.zeros(8), 0.0)
        with pytest.raises(ConfigurationError):
            holder_seminorm(np.zeros(8), 1.0)


class TestHolderNorm:
    def test_constant(self):
        for alpha in (0.25, 0.5, 0.9):
            est = holder_norm(CosineSeries([-3.0]), 0, alpha)
            assert est.value == 3.0

    def test_cos_k0(self):
        est = holder_norm(cosine(1), 0, 0.5, grid_size=4096)
        assert abs(est.value - (1.0 + COS_SEMINORM_HALF)) < 1e-6

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(15)
        f = random_field(rng, 6)
        for t in (0.5, 3.0):
            scaled = holder_norm(t * f, 1, 0.5, grid_size=512).value
            assert np.isclose(scaled, t * holder_norm(f, 1, 0.5, grid_size=512).value,
                              rtol=1e-12)

    def test_dominates_sup_norm(self):
        rng = np.random.default_rng(16)
        f = random_field(rng, 10)
        assert holder_norm(f, 0, 0.5, grid_size=1024).value >= f.sup_norm() - 1e-9

    def test_monotone_under_nested_refinement(self):
        rng = np.random.default_rng(18)
        f = random_field(rng, 12)
        coarse = holder_norm(f, 1, 0.5, grid_size=1024).value
        fine = holder_norm(f, 1, 0.5, grid_size=4096).value
        assert fine >= coarse
        assert fine <= coarse * 1.01  # refinement changes the estimate by < 1%

    def test_triangle_inequality(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            f = random_field(rng, 9)
            g = random_field(rng, 9)
            lhs = holder_norm(f + g, 1, 0.5, grid_size=512).value
            rhs = (holder_norm(f, 1, 0.5, grid_size=512).value
                   + holder_norm(g, 1, 0.5, grid_size=512).value)
            assert lhs <= rhs + 1e-10

    def test_product_estimate(self):
        """Multiplicative-algebra bound for the alpha norm on random pairs."""
        from oddwaves import multiply
        rng = np.random.default_rng(24)
        for _ in range(5):
            f = random_field(rng, 7)
            g = random_field(rng, 7)

            def a_norm(h):
                return holder_norm(h, 0, 0.5, grid_size=512).value

            def sup(h):
                return float(np.abs(h.values(512)).max())

            lhs = a_norm(multiply(f, g))
            rhs = a_norm(f) * sup(g) + sup(f) * a_norm(g)
            assert lhs <= (1 + 1e-6) * rhs

    def test_k_validation(self):
        with pytest.raises(ConfigurationError):
            holder_norm(cosine(1), 4, 0.5)


class TestCommutatorRatio:
    def test_constant_first_argument_gives_zero(self):
        rng = np.random.default_rng(25)
        b = random_field(rng, 5)
        assert commutator_ratio(CosineSeries([2.0]), b, 0.5, grid_size=512) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(26)
        a = random_field(rng, 6)
        b = random_field(rng, 6)
        base = commutator_ratio(a, b, 0.5, grid_size=512)
        scaled = commutator_ratio(3.0 * a, 0.25 * b, 0.5, grid_size=512)
        assert np.isclose(base, scaled, rtol=1e-12)

    def test_zero_denominator(self):
        rng = np.random.default_rng(27)
        zero = CosineSeries(np.zeros(4))
        with pytest.raises(ConfigurationError):
            commutator_ratio(zero, random_field(rng, 4), 0.5, grid_size=512)


class TestSweep:
    def test_rows_reproducible_and_bounded(self):
        res = commutator_sweep(20, 10, alpha=0.5, seed=7, grid_size=512)
        res2 = commutator_sweep(20, 10, alpha=0.5, seed=7, grid_size=512)
        assert [r.ratio for r in res.rows] == [r.ratio for r in res2.rows]
        assert np.isfinite(res.ratios).all() and (res.ratios > 0).all()

    def test_member_rows_independent_of_ensemble_size(self):
        small = commutator_sweep(5, 10, seed=7, grid_size=512)
        large = commutator_sweep(9, 10, seed=7, grid_size=512)
        assert [r.ratio for r in small.rows] == [r.ratio for r in large.rows[:5]]

    def test_degree_doubling_keeps_maximum_bounded(self):
        lo = commutator_sweep(40, 20, seed=7, grid_size=512)
        hi = commutator_sweep(40, 40, seed=7, grid_size=512)
        assert hi.ratios.max() <= 1.25 * lo.ratios.max()

    def test_csv_and_summary(self):
        res = commutator_sweep(3, 8, seed=5, grid_size=512)
        text = res.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "seed,degree_a,degree_b,alpha,ratio"
        assert len(lines) == 4
        summ = res.summary()
        assert summ["ensemble"] == 3
        assert summ["max_ratio"] >= summ["mean_ratio"]

    def test_csv_ratios_are_plain_floats(self):
        res = commutator_sweep(4, 8, seed=5, grid_size=256)
        assert type(holder_seminorm(np.cos(np.arange(8.0)), 0.5)) is float
        assert all(type(row.ratio) is float for row in res.rows)
        for line in res.to_csv().strip().split("\n")[1:]:
            assert float(line.rsplit(",", 1)[1]) > 0.0  # no "np.float64(...)" cells

    def test_rows_equal_with_reference_seminorm(self, monkeypatch):
        fast = commutator_sweep(150, 40, seed=1234)
        monkeypatch.setattr(holder, "holder_seminorm", reference_seminorm)
        assert commutator_sweep(150, 40, seed=1234).rows == fast.rows

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            commutator_sweep(0, 10)
