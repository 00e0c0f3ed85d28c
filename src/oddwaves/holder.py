"""Discrete Hölder norms and randomized checks of the commutator estimate.

The norms follow the usual ladder on the torus: the C^k part sums the sup
norms of the derivatives, and the (k, α) norm adds the α-seminorm of the
k-th derivative,

    [g]_α = sup_{x ≠ y} |g(x) - g(y)| / dist(x, y)^α,

with the periodic distance.  Seminorms are the exact maximum over all pairs
of points of a fine uniform grid, which under-estimates the true value by
construction but is monotone under nested grid refinement.  The pairs are
scanned lag by lag, L = 1, ..., m/2, at the distance d_L = (2πL/m)^α.  No
pair differs by more than the spread R = max - min, and d_L grows with L,
so once R / d_L is no larger than the best quotient found, no later lag
can raise it and the scan stops there with the same maximum.

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

from .errors import ConfigurationError
from .spectral import SpectralField, commutator_h, derivative

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
    """(2πL/m)^α for the lags L = 1, ..., m // 2, as Python floats."""
    dists = tuple((2.0 * np.pi * lag / m) ** alpha for lag in range(1, m // 2 + 1))
    # the early stop in holder_seminorm is exact only for a nondecreasing d_L
    assert all(a <= b for a, b in zip(dists, dists[1:]))
    return dists


def holder_seminorm(values, alpha):
    """α-seminorm of uniformly sampled periodic values, maximized over all
    grid point pairs at their periodic distance.

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
    buf = np.empty(m)
    best = 0.0
    for lag, dist in enumerate(_lag_distances(m, float(alpha)), start=1):
        if spread / dist <= best:  # |v_i - v_j| <= spread, and d_L only grows
            break
        np.subtract(ext[lag:lag + m], vals, out=buf)
        best = max(best, np.abs(buf, out=buf).max() / dist)
    return float(best)


def holder_norm(f, k, alpha, grid_size=DEFAULT_GRID):
    """Estimate of the C^{k,α} norm: sup norms of f, f', ..., f^(k) plus the
    α-seminorm of f^(k), all sampled on ``grid_size`` points.  Derivatives
    are spectral, so the only approximation is the pair search itself."""
    _check_alpha(alpha)
    if k not in (0, 1, 2, 3):
        raise ConfigurationError(f"derivative count k must be 0..3, got {k}")
    if grid_size < max(4, 2 * f.degree + 2):
        raise ConfigurationError("grid does not resolve the field")
    total = 0.0
    g = f
    for level in range(k + 1):
        vals = g.values(grid_size)
        total += float(np.abs(vals).max())
        if level < k:
            g = derivative(g, 1)
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
