"""Discrete Hölder norms and randomized checks of the commutator estimate.

The norms follow the usual ladder on the torus: the C^k part sums the sup
norms of the derivatives, and the (k, α) norm adds the α-seminorm of the
k-th derivative,

    [g]_α = sup_{x ≠ y} |g(x) - g(y)| / dist(x, y)^α,

with the periodic distance.  Seminorms are the exact maximum over all pairs
of points of a fine uniform grid, which under-estimates the true value by
construction but is monotone under nested grid refinement.  The pairs are
grouped by lag L = 1, ..., m/2, at the distance d_L = (2πL/m)^α.  By the
triangle inequality no pair at lag L differs by more than L g_1, where g_1
is the largest gap between neighbours (lag 1, compared first), nor by more
than the spread R = max - min.  So min(R, L g_1) / d_L bounds every
quotient at lag L; the other lags are scanned in decreasing order of that
bound, a block at a time, and the scan stops once the leading bound of the
next block is no larger than the best quotient found.  The maximum is the
same float the scan over all lags gives: the bound carries a relative
margin of 1e-12, far above the few roundings between a computed gap and
its bound, so no skipped lag can raise it.

The Hilbert commutator gains regularity: with Θ = ⟦H, a⟧[b'],

    ||Θ||_{C^{1,α}}  <=  C ||a||_{C^{2,α}} ||b||_{C^{1,α}}.

``commutator_ratio`` measures the quotient of the two sides for concrete
fields and ``commutator_sweep`` samples it over ensembles of random
trigonometric polynomials at increasing degree: the empirical maxima stay
bounded as the degree doubles, the desk-scale signature of a uniform
constant.  No value of C is claimed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError
from .spectral import SpectralField, _synthesize, commutator_h, derivative

__all__ = [
    "HolderEstimate",
    "holder_seminorm",
    "holder_norm",
    "commutator_ratio",
    "SweepRow",
    "SweepResult",
    "commutator_sweep",
]

DEFAULT_GRID = 4096
SWEEP_GRID = 1024  # default sweep grid (config key `holder_grid`); resolves degree <= 511
LAG_BLOCK = 8  # lags compared per step of the seminorm scan
BOUND_MARGIN = 1.0 + 1e-12  # covers the roundings between a gap and its bound


@dataclass(frozen=True)
class HolderEstimate:
    """A (k, α) Hölder norm estimate and the grid it was computed on."""

    k: int
    alpha: float
    value: float
    grid_size: int


def _check_alpha(alpha):
    if not (0.0 < alpha < 1.0):
        raise ConfigurationError(f"alpha must lie in (0, 1), got {alpha}")


@lru_cache(maxsize=8)
def _lag_distances(m, alpha):
    """(2πL/m)^α for the lags L = 1, ..., m // 2, as a read-only array of
    the Python-float values."""
    dists = np.array([(2.0 * np.pi * lag / m) ** alpha for lag in range(1, m // 2 + 1)])
    assert (dists[:-1] <= dists[1:]).all()  # holder_seminorm's R / d_2 stop needs it
    dists.setflags(write=False)
    return dists


def holder_seminorm(values, alpha):
    """α-seminorm of uniformly sampled periodic values, maximized over all
    grid point pairs at their periodic distance.

    Lag 1 gives g_1, the largest neighbour gap, and the first quotient.
    Every further lag L is bounded by min(R, L g_1) / d_L, with R the
    spread; those lags are compared in decreasing order of the bound,
    ``LAG_BLOCK`` at a time, until the next bound cannot beat the maximum.

    Fewer than two samples give 0.0.  Samples that are not all finite give
    max - min: nan for a nan sample, inf for an isolated infinity.
    """
    _check_alpha(alpha)
    vals = np.asarray(values, dtype=float).ravel()
    m = vals.size
    if m < 2:
        return 0.0
    spread = vals.max() - vals.min()
    if not np.isfinite(spread):
        return float(spread)
    ext = np.concatenate((vals, vals[:m // 2]))  # ext[i + L] == vals[(i + L) % m]
    dists = _lag_distances(m, float(alpha))
    gap1 = np.abs(ext[1:m + 1] - vals).max()
    best = gap1 / dists[0]
    lags, dists = np.arange(2, dists.size + 1), dists[1:]
    if not lags.size or spread / dists[0] <= best:  # R / d_2 bounds every lag >= 2
        return float(best)
    bound = np.minimum(spread, lags * gap1 * BOUND_MARGIN) / dists
    order = np.argsort(-bound, kind="stable")
    rows = sliding_window_view(ext, m)  # rows[L] == ext[L:L + m]
    for start in range(0, order.size, LAG_BLOCK):
        block = order[start:start + LAG_BLOCK]
        if bound[block[0]] <= best:  # every later lag has a bound no larger
            break
        gaps = rows[lags[block]]  # a copy: fancy indexing
        gaps -= vals
        gaps = np.abs(gaps, out=gaps).max(axis=1)
        best = max(best, (gaps / dists[block]).max())
    return float(best)


def holder_norm(f, k, alpha, grid_size=DEFAULT_GRID):
    """Estimate of the C^{k,α} norm: sup norms of f, f', ..., f^(k) plus the
    α-seminorm of f^(k), all sampled on ``grid_size`` points.  Derivatives
    are spectral, so the only approximation is the pair search itself."""
    _check_alpha(alpha)
    if k not in (0, 1, 2, 3):
        raise ConfigurationError(f"derivative count k must be 0..3, got {k}")
    m = int(grid_size)
    if m % 2 or m < max(4, 2 * f.degree + 2):
        raise ConfigurationError(f"{m} points cannot resolve a degree-{f.degree} field")
    a, b = f.a, f.b
    freq = np.arange(a.size, dtype=float)
    total = 0.0
    for level in range(k + 1):
        if level:
            a, b = freq * b, -freq * a  # the spectral derivative
        vals = _synthesize(a, b, m)
        total += float(np.abs(vals).max())
    return HolderEstimate(k=k, alpha=alpha,
                          value=total + holder_seminorm(vals, alpha),
                          grid_size=grid_size)


def commutator_ratio(a, b, alpha, grid_size=DEFAULT_GRID):
    """Quotient ||⟦H,a⟧[b']||_{C^{1,α}} / (||a||_{C^{2,α}} ||b||_{C^{1,α}}).

    Invariant under positive rescaling of either argument.  Raises when a or
    b vanishes identically (zero denominator).
    """
    den = (holder_norm(a, 2, alpha, grid_size).value
           * holder_norm(b, 1, alpha, grid_size).value)
    if den == 0.0:
        raise ConfigurationError("commutator_ratio needs nonzero a and b")
    theta = commutator_h(a, derivative(b, 1))
    return float(holder_norm(theta, 1, alpha, grid_size).value / den)


@dataclass(frozen=True)
class SweepRow:
    seed: int
    degree_a: int
    degree_b: int
    alpha: float
    ratio: float


@dataclass
class SweepResult:
    """Ratios over one random ensemble at a given degree cap."""

    max_degree: int
    alpha: float
    grid_size: int
    rows: list[SweepRow]

    @property
    def ratios(self):
        return np.array([r.ratio for r in self.rows])

    def summary(self):
        r = self.ratios
        return {
            "max_degree": self.max_degree,
            "alpha": self.alpha,
            "grid_size": self.grid_size,
            "ensemble": len(self.rows),
            "max_ratio": float(r.max()),
            "mean_ratio": float(r.mean()),
        }

    def to_csv(self):
        lines = ["seed,degree_a,degree_b,alpha,ratio"]
        for row in self.rows:
            lines.append(f"{row.seed},{row.degree_a},{row.degree_b},"
                         f"{row.alpha!r},{row.ratio!r}")
        return "\n".join(lines) + "\n"


def _random_field(rng, degree):
    a = np.zeros(degree + 1)
    b = np.zeros(degree + 1)
    a[1:] = rng.standard_normal(degree)
    b[1:] = rng.standard_normal(degree)
    return SpectralField(a, b)


def commutator_sweep(ensemble, max_degree, alpha=0.5, seed=1234,
                     grid_size=SWEEP_GRID):
    """Ratios for ``ensemble`` random pairs with degrees drawn up to
    ``max_degree``.  Each member gets its own derived seed so rows are
    reproducible independently of the ensemble size."""
    if ensemble < 1:
        raise ConfigurationError("ensemble size must be >= 1")
    if max_degree < 1:
        raise ConfigurationError("max_degree must be >= 1")
    rows = []
    for i in range(ensemble):
        member_seed = int(seed) * 100_000 + i
        rng = np.random.default_rng(member_seed)
        da = int(rng.integers(1, max_degree + 1))
        db = int(rng.integers(1, max_degree + 1))
        ratio = commutator_ratio(_random_field(rng, da), _random_field(rng, db),
                                 alpha, grid_size)
        rows.append(SweepRow(seed=member_seed, degree_a=da, degree_b=db,
                             alpha=alpha, ratio=ratio))
    return SweepResult(max_degree=max_degree, alpha=alpha,
                       grid_size=grid_size, rows=rows)
