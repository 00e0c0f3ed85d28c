"""Hölder norm estimation and commutator-bound sweep tests."""

import tracemalloc

import numpy as np
import pytest

from oddwaves import (
    ConfigurationError,
    CosineSeries,
    commutator_h,
    commutator_ratio,
    commutator_sweep,
    derivative,
    holder,
    holder_norm,
    spectral,
)
from oddwaves.holder import holder_seminorm

from helpers import (
    cosine,
    no_climb,
    random_field,
    reference_commutator_ratio,
    reference_commutator_sweep,
    reference_holder_norm,
    reference_seminorm,
    sweep_field,
    sweep_members,
)

# Frozen oracle: sup over pairs of |cos x - cos y| / dist(x,y)^{1/2} with the
# periodic distance, as the maximum over the pairs of a 4096-point grid (the
# maximizing pair straddles the inflection point at distance ~2.33, not the
# antipodes).
COS_SEMINORM_HALF = 1.2038366272071788
# The continuum value: the pair family 2 sin(t) / (2t)^{1/2} peaks where
# tan t = 2t, at t = 1.1655611852072113; 3.4e-8 above the grid value.
COS_SEMINORM_HALF_EXACT = 1.2038366614925037


def cusp(m, alpha, scale):
    """0, 1, 2 at i = 0, 1, 2, then 2 · scale · (i/2)^α up to i = m // 4,
    flat to i = m // 2 and a linear descent back to 0.

    With scale 1 the lags 2, 3, ... of the climb all tie (|x|^α is
    extremal).  With scale 0.995 lag 2 is the strict maximum, and its
    bound 2 g_1 / d_2 is tight and lower than the bounds of the longer lags
    of the climb, so the scan reaches it last: a bound weakened to
    0.99 L g_1 skips it."""
    i = np.arange(m, dtype=float)
    top = max(2, m // 4)
    up = np.where(i <= 2, i, 2 * scale * (np.minimum(i, top) / 2) ** alpha)
    down = up[m // 2] * (m - i) / (m - m // 2)
    return np.where(i <= m // 2, up, down)


def rounding_ramp(m, alpha):
    """A ramp whose lag-5 gap rounds one ulp above the rounded bound 5 g_1,
    then a climb that ties with that bound, flat to m // 2 and a linear
    descent back.

    The five neighbour differences from v_0 = -9.41...e-6 all round to
    1 + 2^-51, so 5 g_1 rounds to 0x1.4000000000002p+2, while v_5 - v_0
    rounds to 0x1.4000000000003p+2.  Lags 6..14 are tuned so that their
    quotients equal fl(fl(5 g_1) / d_5).  Without the bound's margin the
    scan stops on that tie before it reaches lag 5 and returns one ulp less
    (at m = 1024 with α = 0.9, and at m = 4096 with α = 0.1 or 0.9)."""
    d = holder._lag_distances(m, alpha)
    v = np.empty(m)
    top = 14
    start = -9.41417728444433e-06
    v[0] = start
    v[1:6] = start + np.cumsum(1.0 + np.array([2, 1, 2, 2, 3]) * 2.0 ** -52)
    gap1 = np.abs(np.diff(v[:6])).max()
    tie = (5 * gap1) / d[4]
    for lag in range(6, top + 1):
        x = start + tie * d[lag - 1]
        for _ in range(8):  # step by ulps until the quotient is the tie
            q = (x - start) / d[lag - 1]
            if q == tie:
                break
            x = np.nextafter(x, -np.inf if q > tie else np.inf)
        v[lag] = x
    v[top + 1: m // 2 + 1] = v[top]
    i = np.arange(m // 2 + 1, m)
    v[m // 2 + 1:] = start + (v[top] - start) * (m - i) / (m - m // 2)
    return v


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

    @pytest.mark.parametrize("m", [2, 3, 5, 128, 256, 1024, 4096])
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_equals_reference_bit_for_bit(self, m, alpha):
        """The bound-ordered scan keeps the exact maximum of the all-lags
        loop, also where min(R, L g_1) is attained and where several lags
        tie."""
        rng = np.random.default_rng(m)
        x = 2 * np.pi * np.arange(m) / m
        i = np.arange(m)
        inputs = {
            "random": rng.standard_normal(m),
            "smooth": np.cos(3 * x),
            "constant": np.full(m, -1.75),
            "rough": np.cumsum(rng.standard_normal(m)) + np.sign(np.sin(7 * x)),
            # g_1 = R, so R bounds every lag, and R is the gap at many of them
            "sawtooth": (i % 17).astype(float),
            # steps of 0.1 up and down: L g_1 is the gap at every lag, up to
            # the rounding of the steps; then the same with a half-step jump
            "ramp": 0.1 * np.minimum(i, m - i),
            "ramp with jump": np.where(i < m // 2, 0.1 * i, 0.1 * (m - i) - 0.05),
            "two levels": rng.integers(0, 2, m).astype(float),
            "tiled": np.tile(rng.standard_normal(4), m // 4 + 1)[:m],
            "one spike": np.where(i == m // 2, 2.5, 0.0),
            "cusp": cusp(m, alpha, 1.0),
            "cusp, lag 2 ahead": cusp(m, alpha, 0.995),
        }
        if m >= 1024:
            inputs["rounding ramp"] = rounding_ramp(m, alpha)
        for degree in (20, 40):  # the sweep's inputs, on its grid: random fields and derivatives
            if m == holder._default_grid(2 * degree):
                f = sweep_field(np.random.default_rng(degree), degree)
                inputs[f"degree {degree}"] = f.values(m)
                inputs[f"degree {degree}'"] = derivative(f, 1).values(m)
                inputs[f"degree {degree}''"] = derivative(f, 2).values(m)
        for name, vals in inputs.items():
            assert holder_seminorm(vals, alpha) == reference_seminorm(vals, alpha), name

    def test_rows_equal_one_row_scans(self):
        """Stacked rows each stop on their own bound: every row of one scan
        gives the float of its one-row scan, finite or not."""
        m = 1024
        rng = np.random.default_rng(40)
        x = 2 * np.pi * np.arange(m) / m
        rows = [rng.standard_normal(m), np.cos(3 * x), np.full(m, 2.0),
                cusp(m, 0.5, 0.995), rounding_ramp(m, 0.5),
                np.where(np.arange(m) == 7, np.inf, 0.0), np.full(m, np.nan)]
        for degree in (20, 40):
            f = sweep_field(rng, degree)
            rows += [f.values(m), derivative(f, 2).values(m)]
        stack = np.array(rows)
        for alpha in (0.1, 0.5, 0.9):
            got = holder._seminorms(stack, alpha)
            want = [holder_seminorm(row, alpha) for row in rows]
            assert np.array_equal(got, want, equal_nan=True)
            # handing over candidates moves no maximum
            assert np.array_equal(holder._seminorms(stack, alpha, cells=True)[0], got,
                                  equal_nan=True)
            for row, value in zip(rows[:5] + rows[7:], got[:5].tolist() + got[7:].tolist()):
                assert value == reference_seminorm(row, alpha)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("regime", ["one-lag steps", "lone wide row", "nan and inf rows"])
    def test_step_regimes_equal_reference_bit_for_bit(self, regime, alpha):
        """Every finite row of a stack gives the float of the all-lags loop
        however many lags a step of ``SWEEP_BYTES`` compares: one lag per
        live row with 16 rows on 4096 points, widening to 16 as rows stop;
        64 lags for a lone ``cos x`` row among high-degree rows that stop
        early, on 1024 points; a width set by the finite rows alone where
        nan and inf rows keep max - min, on 1024 points."""
        rng = np.random.default_rng(41)
        m = 4096 if regime == "one-lag steps" else 1024
        x = 2 * np.pi * np.arange(m) / m
        if regime == "lone wide row":
            rows = [np.cos(x)] + [derivative(sweep_field(rng, 400), 2).values(m)
                                  for _ in range(15)]
        else:
            rows = [rng.standard_normal(m), np.cos(3 * x), cusp(m, alpha, 0.995),
                    rounding_ramp(m, alpha)]
            for degree in (20, 40, 200, 400):
                f = sweep_field(rng, degree)
                rows += [f.values(m), derivative(f, 1).values(m), derivative(f, 2).values(m)]
            rows += [np.cumsum(rng.standard_normal(m)) for _ in range(16 - len(rows))]
        if regime == "nan and inf rows":
            rows[3][100], rows[9][7], rows[12][0] = np.nan, np.inf, -np.inf
            rows.append(np.full(m, np.nan))
        got = holder._seminorms(np.array(rows), alpha).tolist()
        for row, value in zip(rows, got):
            if np.isfinite(row).all():
                assert value == reference_seminorm(row, alpha)
            else:
                assert np.array_equal(value, row.max() - row.min(), equal_nan=True)

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

    @pytest.mark.parametrize("values, shape", [
        (np.stack([np.cos(np.arange(8.0)), 2 * np.cos(np.arange(8.0))]), "(2, 8)"),
        (np.zeros((8, 1)), "(8, 1)"),
        (3.0, "()"),
    ])
    def test_samples_not_one_row_refused(self, values, shape):
        """As ``to_spectral`` refuses them: a stack is not raveled into
        the samples of one longer row."""
        with pytest.raises(ConfigurationError) as err:
            holder_seminorm(values, 0.5)
        assert str(err.value) == f"samples must be one row, got shape {shape}"

    def test_alpha_range(self):
        with pytest.raises(ConfigurationError):
            holder_seminorm(np.zeros(8), 0.0)
        with pytest.raises(ConfigurationError):
            holder_seminorm(np.zeros(8), 1.0)


class TestHolderNorm:
    def test_constant(self):
        for alpha in (0.25, 0.5, 0.9):
            assert holder_norm(CosineSeries([-3.0]), 0, alpha) == 3.0

    def test_cos_k0(self):
        est = holder_norm(cosine(1), 0, 0.5, grid_size=4096)
        assert abs(est - (1.0 + COS_SEMINORM_HALF)) < 1e-6

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(15)
        f = random_field(rng, 6)
        for t in (0.5, 3.0):
            scaled = holder_norm(t * f, 1, 0.5, grid_size=512)
            assert np.isclose(scaled, t * holder_norm(f, 1, 0.5, grid_size=512),
                              rtol=1e-12)

    def test_dominates_sup_norm(self):
        rng = np.random.default_rng(16)
        f = random_field(rng, 10)
        assert holder_norm(f, 0, 0.5, grid_size=1024) >= f.sup_norm() - 1e-9

    def test_monotone_under_nested_refinement(self, monkeypatch):
        """The grid part is monotone under nested grids; the refined
        estimates are no smaller than their grid parts and agree across the
        grids."""
        rng = np.random.default_rng(18)
        f = random_field(rng, 12)
        coarse = holder_norm(f, 1, 0.5, grid_size=1024)
        fine = holder_norm(f, 1, 0.5, grid_size=4096)
        assert abs(fine - coarse) <= 1e-9 * fine
        monkeypatch.setattr(holder, "_refine", no_climb)
        coarse_grid = holder_norm(f, 1, 0.5, grid_size=1024)
        fine_grid = holder_norm(f, 1, 0.5, grid_size=4096)
        assert coarse_grid <= fine_grid <= coarse_grid * 1.01  # < 1% between the grids
        assert coarse >= coarse_grid and fine >= fine_grid

    def test_triangle_inequality(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            f = random_field(rng, 9)
            g = random_field(rng, 9)
            lhs = holder_norm(f + g, 1, 0.5, grid_size=512)
            rhs = (holder_norm(f, 1, 0.5, grid_size=512)
                   + holder_norm(g, 1, 0.5, grid_size=512))
            assert lhs <= rhs + 1e-10

    def test_product_estimate(self):
        """Multiplicative-algebra bound for the alpha norm on random pairs."""
        from oddwaves import multiply
        rng = np.random.default_rng(24)
        for _ in range(5):
            f = random_field(rng, 7)
            g = random_field(rng, 7)

            def a_norm(h):
                return holder_norm(h, 0, 0.5, grid_size=512)

            def sup(h):
                return float(np.abs(h.values(512)).max())

            lhs = a_norm(multiply(f, g))
            rhs = a_norm(f) * sup(g) + sup(f) * a_norm(g)
            assert lhs <= (1 + 1e-6) * rhs

    def test_k_validation(self):
        with pytest.raises(ConfigurationError):
            holder_norm(cosine(1), 4, 0.5)

    @pytest.mark.parametrize("grid", [64, 512, 1024, 4096])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_equals_reference_bit_for_bit(self, grid, k, monkeypatch):
        """The grid part of the amplitude-array chain (no candidate climbs)
        gives the floats of the field-by-field loop, and the refined norm
        is no smaller."""
        rng = np.random.default_rng(100 * k + grid)
        fields = [random_field(rng, 20), random_field(rng, 31, decay=0.0),
                  sweep_field(rng, 12), cosine(1), cosine(7, -2.5),
                  CosineSeries([0.5])]
        alphas = [(0.1, 0.5, 0.9)[j % 3] for j in range(len(fields))]
        refined = [holder_norm(f, k, alpha, grid_size=grid) for f, alpha in zip(fields, alphas)]
        monkeypatch.setattr(holder, "_refine", no_climb)
        for f, alpha, norm in zip(fields, alphas, refined):
            grid_part = holder_norm(f, k, alpha, grid_size=grid)
            assert grid_part == reference_holder_norm(f, k, alpha, grid_size=grid)
            assert norm >= grid_part

    def test_refinement_reaches_the_continuum_value(self):
        """From 8 points on, the refined seminorm of cos x is the continuum
        value, above every grid maximum."""
        for grid in (8, 16, 64, 256, 4096):
            est = holder_norm(cosine(1), 0, 0.5, grid_size=grid)
            assert abs(est - (1.0 + COS_SEMINORM_HALF_EXACT)) <= 1e-15 * est
        assert holder_seminorm(cosine(1).values(4096), 0.5) < COS_SEMINORM_HALF_EXACT

    def test_default_grid_follows_the_degree(self):
        """For every degree up to 300 the default grid is the least power of
        two, 8 at least, with ``POINTS_PER_MODE`` = 3 points per mode, and
        it passes the grid rule.  ``holder_norm`` takes it at deg f and
        ``commutator_ratio`` at deg a + deg b."""
        for degree in range(301):
            m = holder._default_grid(degree)
            assert m & (m - 1) == 0 and m >= 8 and (m == 8 or m // 2 < 3 * degree)
            assert m >= holder.POINTS_PER_MODE * degree == 3 * degree
            assert spectral._check_grid(m, degree, "the grid") == m
        rng = np.random.default_rng(24)
        f, g = random_field(rng, 13), random_field(rng, 9)
        # the neighbouring grids give other floats, so each equality names one grid
        norms = [holder_norm(f, 1, 0.5, grid_size=m) for m in (32, 64, 128)]
        assert holder_norm(f, 1, 0.5) == norms[1] and len(set(norms)) == 3
        ratios = [commutator_ratio(f, g, 0.5, grid_size=m) for m in (64, 128, 256)]
        assert commutator_ratio(f, g, 0.5) == ratios[1] and len(set(ratios)) == 3

    @pytest.mark.parametrize("grid", [63, 513, 40, 8])
    def test_grid_rejected(self, grid):
        """Odd grids and grids that do not resolve the degree are refused,
        as ``values`` refuses them."""
        f = cosine(20)
        for norm in (holder_norm, reference_holder_norm):
            with pytest.raises(ConfigurationError):
                norm(f, 1, 0.5, grid_size=grid)


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
        with pytest.raises(ConfigurationError):
            commutator_ratio(random_field(rng, 4), zero, 0.5, grid_size=512)

    @pytest.mark.parametrize("grid", [64, 1024, 4096])
    def test_equals_reference_bit_for_bit(self, grid, monkeypatch):
        """Fields whose n_modes is their degree give the floats of
        ``commutator_h`` and ``holder_norm`` on fields, 0.0 for a constant a
        or b among them; with no candidate climbs, the grid part is the
        quotient of the field-by-field loop with the all-lags seminorm."""
        rng = np.random.default_rng(grid)
        pairs = []
        for j, (da, db) in enumerate([(1, 1), (3, 12), (14, 2), (15, 16), (7, 0), (0, 9)]):
            pairs.append((random_field(rng, da, mean=0.3),
                          random_field(rng, db, mean=-0.4, decay=0.0), (0.1, 0.5, 0.9)[j % 3]))
        for a, b, alpha in pairs:
            assert (commutator_ratio(a, b, alpha, grid_size=grid)
                    == reference_commutator_ratio(a, b, alpha, grid_size=grid))
        monkeypatch.setattr(holder, "_refine", no_climb)
        for a, b, alpha in pairs:
            assert (commutator_ratio(a, b, alpha, grid_size=grid)
                    == reference_commutator_ratio(a, b, alpha, grid_size=grid,
                                                  norm=reference_holder_norm))

    def test_padded_fields_agree_with_reference(self):
        """Padding past the degree changes neither the grid ``multiply``
        picks on fields nor a float of the product, so the quotient is the
        reference's bit for bit."""
        rng = np.random.default_rng(29)
        for da, db, pad in [(3, 5, 20), (10, 10, 40), (6, 1, 7)]:
            a, b = sweep_field(rng, da).pad_to(pad), sweep_field(rng, db).pad_to(pad)
            got = commutator_ratio(a, b, 0.5, grid_size=1024)
            assert got == reference_commutator_ratio(a, b, 0.5, grid_size=1024)

    @pytest.mark.parametrize("grid", [63, 1023, 40, 30])
    def test_grid_rejected(self, grid):
        """An odd grid, or one that does not resolve deg a + deg b = 20."""
        rng = np.random.default_rng(31)
        a, b = sweep_field(rng, 12), sweep_field(rng, 8)
        with pytest.raises(ConfigurationError):
            commutator_ratio(a, b, 0.5, grid_size=grid)

    def test_equals_sweep_row(self):
        """The one-member quotient is the stacked sweep's row for that member."""
        res = commutator_sweep(11, 40, alpha=0.3, seed=9)
        for i in (0, 7, 8, 10):
            rng = np.random.default_rng(9 * 100_000 + i)
            da = int(rng.integers(1, 41))
            db = int(rng.integers(1, 41))
            a, b = sweep_field(rng, da), sweep_field(rng, db)
            assert res.degree_a[i] == da and res.degree_b[i] == db
            assert commutator_ratio(a, b, 0.3, grid_size=holder._default_grid(80)) == res.ratios[i]


class TestSweep:
    def test_rows_reproducible_and_bounded(self):
        res = commutator_sweep(20, 10, alpha=0.5, seed=7, grid_size=512)
        res2 = commutator_sweep(20, 10, alpha=0.5, seed=7, grid_size=512)
        assert sweep_members(res) == sweep_members(res2)
        assert np.isfinite(res.ratios).all() and (res.ratios > 0).all()

    def test_member_rows_independent_of_ensemble_size(self):
        """Also across the boundaries of the member blocks."""
        block = holder._sweep_block(512)
        large = commutator_sweep(2 * block + 3, 10, seed=7, grid_size=512)
        for size in (1, 5, block - 1, block, block + 1):
            small = commutator_sweep(size, 10, seed=7, grid_size=512)
            assert sweep_members(small) == sweep_members(large)[:size]

    def test_degree_doubling_keeps_maximum_bounded(self):
        lo = commutator_sweep(40, 20, seed=7, grid_size=512)
        hi = commutator_sweep(40, 40, seed=7, grid_size=512)
        assert hi.ratios.max() <= 1.25 * lo.ratios.max()

    def test_summary(self):
        res = commutator_sweep(3, 8, seed=5, grid_size=512)
        assert len(res.seeds) == len(res.ratios) == 3
        summ = res.summary()
        assert summ == {"max_degree": 8, "max_ratio": res.ratios.max(),
                        "mean_ratio": res.ratios.mean()}
        assert summ["max_ratio"] >= summ["mean_ratio"]

    def test_csv_ratios_are_plain_floats(self):
        res = commutator_sweep(4, 8, seed=5, grid_size=256)
        assert type(holder_seminorm(np.cos(np.arange(8.0)), 0.5)) is float
        members = sweep_members(res)  # as the CLI writes them: no "np.float64(...)" cells
        assert all(tuple(map(type, member)) == (int, int, int, float) for member in members)
        assert all(ratio > 0.0 for *_, ratio in members)

    def test_rows_equal_reference_loop(self):
        """The stacked sweep gives the rows of the member-by-member loop on
        fields (the CLI tests compare the CSVs written from both).  Degrees
        20 and 40 with 150 members meet the product grids of 16 to 256
        points; degree 2 adds 8."""
        grids = set()
        for degree, ensemble in ((20, 150), (40, 150), (2, 20)):
            stacked = commutator_sweep(ensemble, degree, seed=1234)
            loop = reference_commutator_sweep(ensemble, degree, seed=1234)
            assert sweep_members(stacked) == sweep_members(loop)
            grids |= {spectral._product_grid(da, db, da + db)
                      for _, da, db, _ in sweep_members(stacked)}
        assert grids == {8, 16, 32, 64, 128, 256}

    @pytest.mark.parametrize("grid, block", [(16, 85), (128, 85), (256, 85), (1024, 21),
                                             (4096, 5), (65536, 1)])
    def test_block_size_follows_the_grid(self, grid, block):
        """As many members as keep their scan rows, 3 m float64 a member,
        within the 512 KiB ``SWEEP_BYTES``, m counting as 256 on smaller
        grids; one member on a grid where one member's rows exceed it."""
        assert holder._sweep_block(grid) == block

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_ensembles_around_a_block(self, offset):
        """Ensembles of block - 1, block and block + 1 members, and of one."""
        size = holder._sweep_block(256) + offset
        loop = sweep_members(reference_commutator_sweep(size, 12, alpha=0.7, seed=3,
                                                        grid_size=256))
        for ensemble in (1, size):
            stacked = commutator_sweep(ensemble, 12, alpha=0.7, seed=3, grid_size=256)
            assert sweep_members(stacked) == loop[:ensemble]

    @pytest.mark.parametrize("grid", [1024, 4096])
    def test_ensembles_around_a_block_on_sweep_grids(self, grid):
        """Ensembles of one member, block - 1, one block, and more than two
        blocks with a ragged last block, on 1024 points (21 member blocks)
        and on 4096 points (5 member blocks)."""
        block = holder._sweep_block(grid)
        sizes = (1, block - 1, block, 2 * block + 3)
        loop = sweep_members(reference_commutator_sweep(sizes[-1], 12, alpha=0.7, seed=3,
                                                        grid_size=grid))
        for ensemble in sizes:
            stacked = commutator_sweep(ensemble, 12, alpha=0.7, seed=3, grid_size=grid)
            assert sweep_members(stacked) == loop[:ensemble]

    @pytest.mark.parametrize("ensemble, degree, grid", [
        (150, 40, 1024), (16, 40, 4096),
        (150, 20, 128), (200, 20, 128), (150, 40, 256), (200, 40, 256),
    ])
    def test_memory_stays_within_the_block_budget(self, ensemble, degree, grid):
        """The traced peak of a sweep stays within 2 MiB, also on the
        default grids of degrees 20 and 40 (128 and 256 points) that verify
        runs: the scan's gather, at most ``SWEEP_BYTES`` (512 KiB), plus
        1.5 MiB for the block's other arrays.  Its members' scan rows (a
        field's samples, their wrapped copy and the lag bounds, 3 m float64
        a member) take at most 512 KiB, as do their candidates' climbs on
        grids below 256 points; the lag-1 gaps, the copy of the scanning
        rows, the candidate masks of a gather, the amplitude stacks and the
        product grids come on top (85 members peak at 1.77 MiB at degree
        40 on 256 points).  Blocks sized by the scan's first step alone
        (rows × 2 × m float64 within 512 KiB) peak at 2.38 MiB at degree 40
        (128 members on 256 points) and at 2.72 MiB at degree 20 (all 200
        members on 128 points); a gather of a fixed 8 lags per live row
        (2 MiB for a full block) or a block sized by the member count (150
        rows at 1024 points take a 9.4 MiB gather) breaks it too."""
        assert grid >= 1024 or grid == holder._default_grid(2 * degree)  # verify's own grid
        commutator_sweep(1, degree, grid_size=grid)  # caches outside the trace
        tracemalloc.start()
        try:
            commutator_sweep(ensemble, degree, grid_size=grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    def test_member_seeds_exact_past_int64(self):
        """Member seeds seed · 100000 + i pass 2^63 once the seed passes
        about 9.2e13; they stay exact Python ints, and each member is the
        reference loop's."""
        res = commutator_sweep(3, 4, seed=2**70, grid_size=64)
        assert res.seeds == range(2**70 * 100_000, 2**70 * 100_000 + 3)
        loop = reference_commutator_sweep(3, 4, seed=2**70, grid_size=64)
        assert sweep_members(res) == sweep_members(loop)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            commutator_sweep(0, 10)
        with pytest.raises(ConfigurationError):
            commutator_sweep(4, 0)

    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0.0}, {"alpha": 1.0}, {"grid_size": 1023}, {"grid_size": 160},
        {"seed": -1},
    ])
    def test_refused_before_any_member_is_drawn(self, kwargs, monkeypatch):
        """α outside (0, 1), an odd grid, a grid below 4 max_degree + 2
        (Θ reaches degree 2 max_degree) and a negative seed (numpy refuses
        the derived member seeds) are refused up front."""
        def no_draws(seed):
            raise AssertionError("a member was drawn")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ConfigurationError):
            commutator_sweep(5, 40, **kwargs)


def sweep_stack(seed, degree, members):
    """The fields whose C^{2,α}, C^{1,α} and C^{1,α} norms a sweep member's
    quotient reads, a, b and Θ = ⟦H, a⟧[b'], for ``members`` members drawn
    as ``commutator_sweep`` draws them: per field, the list of fields and
    the (a, b, k) of their zero-padded amplitude rows."""
    cols = [[], [], []]
    for i in range(members):
        rng = np.random.default_rng(seed * 100_000 + i)
        da, db = (int(rng.integers(1, degree + 1)) for _ in range(2))
        a, b = sweep_field(rng, da), sweep_field(rng, db)
        for col, f in zip(cols, (a, b, commutator_h(a, derivative(b, 1)))):
            col.append(f)
    out = []
    for col, k in zip(cols, (2, 1, 1)):
        width = max(f.n_modes for f in col)
        padded = [f.pad_to(width) for f in col]
        out.append((col, (np.array([f.a for f in padded]), np.array([f.b for f in padded]), k)))
    return out


def reference_terms(fields, k, alpha, m, seminorm=reference_seminorm):
    """Each field's grid terms through validated fields: the sup norms of
    f, ..., f^(k) on m points, then the seminorm of f^(k), as a
    (k + 2, fields) array."""
    out = np.empty((k + 2, len(fields)))
    for j, f in enumerate(fields):
        for level in range(k + 1):
            vals = f.values(m)
            out[level, j] = np.abs(vals).max()
            f = derivative(f, 1)
        out[-1, j] = seminorm(vals, alpha)
    return out


class TestRefinement:
    """Each term is the larger of its grid part and the climbs of its
    candidates on the polynomial."""

    @pytest.mark.parametrize("m", [pytest.param(None, id="default"), 256, 1024, 4096])
    def test_refined_terms_dominate_the_reference_grid(self, m):
        """Row by row, the grid part is the field-by-field loop's maxima
        with the all-lags seminorm, bit for bit, and the refined term is no
        smaller.  From 256 points on, and on the default grids of sweeps at
        degrees 20, 21, 40 and 42 (128, 128, 256 and 256 points: degrees 21
        and 42 have 3.05 points per mode of Θ, the fewest the rule gives),
        the refined terms also reach the 16384-point grid values."""
        for degree in ((20, 40) if m else (20, 21, 40, 42)):
            grid_size = m or holder._default_grid(2 * degree)
            for fields, stack in sweep_stack(7, degree, 4):
                (grid,), (terms,) = holder._terms([stack], 0.5, grid_size)
                assert np.array_equal(grid, reference_terms(fields, stack[2], 0.5, grid_size))
                assert (terms >= grid).all()
                fine = reference_terms(fields, stack[2], 0.5, 16384, seminorm=holder_seminorm)
                assert (terms >= fine * (1 - 1e-12)).all()

    def test_coarse_and_fine_starts_agree(self):
        """Refined from 256 points, from the default grids of sweeps at
        degrees 20, 21 and 42 (128, 128 and 256 points) and from 4096
        points, every term agrees to 1e-9 of its size, where the grid
        parts differ by up to several per cent."""
        for degree, m in [(20, 256), (40, 256),
                          *((d, holder._default_grid(2 * d)) for d in (20, 21, 42))]:
            for _, stack in sweep_stack(11, degree, 12):
                coarse_grid, coarse = (t[0] for t in holder._terms([stack], 0.5, m))
                fine_grid, fine = (t[0] for t in holder._terms([stack], 0.5, 4096))
                assert (np.abs(coarse - fine) <= 1e-9 * fine).all()
                assert (fine_grid - coarse_grid).max() > 1e-3 * fine.max()

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_candidates_are_the_local_maxima_near_the_top(self, alpha):
        """The scan's candidates are the cells of the full (lag, x) table
        of quotients that exceed ``CUT`` times the maximum and no
        neighbour (x ± 1, lag ± 1, a lag past m / 2 at its periodic
        distance); the sup candidates are the local maxima of |g| above
        ``CUT`` times its maximum.  The last row, f' of a degree-60 field,
        has a candidate at lag 2 whose bound no longer beats the maximum
        at α = 0.9: a scan that stopped at its maximum's bound misses it."""
        m = 256
        rng = np.random.default_rng(42)
        fields = [sweep_field(rng, degree) for degree in (1, 5, 20, 40, 100)]
        rows = [g.values(m) for f in fields for g in (f, derivative(f, 1), derivative(f, 2))]
        rows.append(derivative(sweep_field(np.random.default_rng(0), 60), 1).values(m))
        vals = np.array(rows)
        best, cells = holder._seminorms(vals, alpha, cells=True)
        row, x, lag = holder._peak_cells(vals, alpha, best, *cells)
        d = holder._lag_distances(m, alpha)
        for r, v in enumerate(rows):
            table = np.zeros((m // 2 + 3, m))  # lags 0 .. m/2 + 2, lag 0 at quotient 0
            for L in range(1, m // 2 + 2):
                table[L] = np.abs(np.roll(v, -L) - v) / d[min(L, m - L) - 1]
            q = table[1:m // 2 + 1]
            keep = q > holder.CUT * best[r]
            for dl in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dl or dx:
                        keep &= q >= np.roll(table, -dx, axis=1)[1 + dl:m // 2 + 1 + dl]
            want = {(int(L) + 1, int(i)) for L, i in zip(*np.nonzero(keep))}
            assert {(int(L), int(i)) for L, i in zip(lag[row == r], x[row == r])} == want
        sups, (row, x) = holder._sup_cells(vals)
        mag = np.abs(vals)
        keep = ((mag > holder.CUT * sups[:, None]) & (mag >= np.roll(mag, 1, axis=1))
                & (mag >= np.roll(mag, -1, axis=1)))
        assert np.array_equal(np.array(np.nonzero(keep)), np.array([row, x]))
