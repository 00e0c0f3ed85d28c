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
bound, each step taking as many lags as keep its gather within
``SWEEP_BYTES``, and a row stops once its next bound is no larger than
its best quotient.  The maximum is the same float the scan over all lags
gives: the bound carries a relative margin of 1e-12, far above the few
roundings between a computed gap and its bound, so no skipped lag can
raise it.  There is one scan: it runs on a stack of sample rows, each
stopping on its own bound, and ``holder_seminorm`` is its one-row case.

The Hilbert commutator gains regularity: with Θ = ⟦H, a⟧[b'],

    ||Θ||_{C^{1,α}}  <=  C ||a||_{C^{2,α}} ||b||_{C^{1,α}}.

``commutator_ratio`` measures the quotient of the two sides for concrete
fields and ``commutator_sweep`` samples it over ensembles of random
trigonometric polynomials at increasing degree: the empirical maxima stay
bounded as the degree doubles, the desk-scale signature of a uniform
constant.  No value of C is claimed.

Both evaluate the quotient on stacked amplitude rows, the sweep a block
of members at a time (zero-padded to a common length) and
``commutator_ratio`` as the one-row case: every derivative level is one
``irfft`` of the whole stack, and sup norms and seminorms are taken row
by row.  A block holds as many members as let the scan's first step
compare two lags of each, rows × 2 × m float64 within ``SWEEP_BYTES``:
32 members on the default 1024-point grid, 8 on 4096 points, so the
memory a block takes stays bounded at every grid.  Θ = H(a b') -
a H(b') is formed from the two products on the grid ``multiply`` picks
for degree deg a + deg b, one group of rows per grid, and each row keeps
the modes up to deg a + deg b, as ``multiply`` truncates them.  So every
member's quotient is the float that ``commutator_h`` and ``holder_norm``
on fields give for that member alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, require_integer, require_real, require_size
from .spectral import (_analyze, _check_grid, _derivative_amplitudes, _hilbert_amplitudes,
                       _product_grid, _synthesize)

__all__ = [
    "holder_seminorm",
    "holder_norm",
    "commutator_ratio",
    "SweepResult",
    "commutator_sweep",
]

DEFAULT_GRID = 4096
SWEEP_GRID = 1024  # default sweep grid (config key `holder_grid`); resolves degree <= 511
SWEEP_BYTES = 2**19  # budget of one step's gather in the seminorm scan
BOUND_MARGIN = 1.0 + 1e-12  # covers the roundings between a gap and its bound
GRID_NAME = "the Hölder grid"  # the name its refusals give the grid setting


def _check_alpha(alpha):
    """``alpha`` as a float: the Hölder exponent of every estimate, in (0, 1)."""
    return require_real("alpha", alpha, 0, 1, strict=True)


def _check_ensemble(ensemble):
    """``ensemble`` as an int: the members of a sweep.  The size rule charges
    one of its three ensemble-long arrays, 8 bytes a member."""
    return require_size("ensemble size", ensemble, 1, lambda n: 8 * n)


def _check_holder_grid(m, degree):
    """``m`` as an int: the Hölder grid of every estimate.  It passes the one
    grid rule for a degree-``degree`` field, and the size rule at the bytes
    charged to one row of the seminorm scan (``_wrapped_bytes``)."""
    m = _check_grid(m, degree, GRID_NAME)
    return require_size(GRID_NAME, m, 4, _wrapped_bytes)


def _wrapped_bytes(m):
    """The bytes the size rule charges one row of the seminorm scan on m
    points: its wrapped samples, 1.5 m float64, its largest array once one
    lag of gather, m float64, passes ``SWEEP_BYTES``."""
    return 8 * (m + m // 2)


@lru_cache(maxsize=8)
def _lag_distances(m, alpha):
    """(2πL/m)^α for the lags L = 1, ..., m // 2, as a read-only array of
    the Python-float values."""
    dists = np.array([(2.0 * np.pi * lag / m) ** alpha for lag in range(1, m // 2 + 1)])
    assert (dists[:-1] <= dists[1:]).all()  # the scan's R / d_2 stop needs it
    dists.setflags(write=False)
    return dists


def _seminorms(vals, alpha):
    """α-seminorms of the rows of ``vals`` (each m >= 2 uniform periodic
    samples), maximized over all grid point pairs at their periodic distance.

    Lag 1 gives each row's g_1, the largest neighbour gap, and its first
    quotient.  Every further lag L of a row is bounded by
    min(R, L g_1) / d_L, with R the row's spread; a row compares its lags in
    decreasing order of that bound and stops once its next bound cannot
    beat its maximum.  The rows step together, one (lags, rows, m) gather
    per step of as many lags as keep it within ``SWEEP_BYTES``, at least
    one, so steps widen as rows stop.  It is lag-major: the subtraction
    then broadcasts over the leading axis, a faster loop in numpy.

    Rows that are not all finite give max - min: nan for a nan sample, inf
    for an isolated infinity.
    """
    m = vals.shape[1]
    spread = vals.max(axis=1) - vals.min(axis=1)
    live = np.isfinite(spread)
    if not live.all():  # the other rows keep max - min
        spread[live] = _seminorms(vals[live], alpha)
        return spread
    ext = np.concatenate((vals, vals[:, :m // 2]), axis=1)  # ext[:, i + L] == vals[:, (i + L) % m]
    dists = _lag_distances(m, float(alpha))
    gap1 = np.abs(ext[:, 1:m + 1] - vals).max(axis=1)
    best = gap1 / dists[0]
    lags, dists = np.arange(2, dists.size + 1), dists[1:]
    # a row is done when R / d_2, a bound on every lag >= 2, cannot beat lag 1
    scan = np.flatnonzero(spread / dists[0] > best) if lags.size else lags[:0]
    if scan.size:
        bound = np.minimum(spread[scan, None], lags * gap1[scan, None] * BOUND_MARGIN) / dists
        order = np.argsort(-bound, axis=1, kind="stable")
        bound = np.take_along_axis(bound, order, axis=1)  # nonincreasing along each row
        windows = sliding_window_view(ext, m, axis=1)  # windows[r, L] == ext[r, L:L + m]
        rows = vals if scan.size == vals.shape[0] else vals[scan]  # samples of the scanning rows
        top = best[scan]  # and their maxima
        pos = np.arange(scan.size)  # their rows of bound and order
        start = 0
        while start < lags.size:
            go = bound[pos, start] > top  # every later lag has a bound no larger
            if not go.all():
                best[scan] = top
                scan, pos, rows, top = scan[go], pos[go], rows[go], top[go]
                if not scan.size:
                    break
            block = order[pos, start:start + max(1, SWEEP_BYTES // (8 * m * scan.size))].T
            gaps = windows[scan, lags[block]]  # a copy: fancy indexing
            gaps -= rows
            gaps = np.abs(gaps, out=gaps).max(axis=2)
            np.maximum(top, (gaps / dists[block]).max(axis=0), out=top)
            start += len(block)
        best[scan] = top
    return best


def holder_seminorm(values, alpha):
    """α-seminorm of uniformly sampled periodic values, maximized over all
    grid point pairs at their periodic distance: the one-row case of the
    bound-ordered lag scan.

    The samples are one row; fewer than two give 0.0.  Samples that are not
    all finite give max - min: nan for a nan sample, inf for an isolated
    infinity.
    """
    alpha = _check_alpha(alpha)
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1:
        raise ConfigurationError(f"samples must be one row, got shape {vals.shape}")
    if vals.size < 2:
        return 0.0
    return float(_seminorms(vals[None, :], alpha)[0])


def _norms(a, b, k, alpha, m):
    """C^{k,α} norms of the rows of the amplitude arrays (a, b): the sup
    norms of each row and its first k derivatives plus the α-seminorm of the
    k-th, all sampled on m points."""
    total = 0.0
    for level in range(k + 1):
        if level:
            a, b = _derivative_amplitudes(a, b)
        vals = _synthesize(a, b, m)
        total = total + np.abs(vals).max(axis=1)
    return total + _seminorms(vals, alpha)


def holder_norm(f, k, alpha, grid_size=DEFAULT_GRID):
    """Estimate of the C^{k,α} norm, as a float: sup norms of f, f', ...,
    f^(k) plus the α-seminorm of f^(k), all sampled on ``grid_size``
    points.  Derivatives are spectral, so the only approximation is the
    pair search itself."""
    alpha = _check_alpha(alpha)
    k = require_integer("derivative count k", k, 0, 3)
    m = _check_holder_grid(grid_size, f.degree)
    return float(_norms(f.a[None, :], f.b[None, :], k, alpha, m)[0])


def _commutators(fa, fb, ga, gb, n_out, m):
    """Amplitudes of Θ = ⟦H, f⟧[g'] = H(f g') - f H(g') for rows of f and g
    whose products are both formed on m points, each row truncated to its
    ``n_out`` modes: row by row the floats of
    ``commutator_h(f, derivative(g, 1))`` when m is the grid ``multiply``
    picks."""
    da, db = _derivative_amplitudes(ga, gb)  # g'
    ha, hb = _hilbert_amplitudes(da, db)  # H g'
    fv = _synthesize(fa, fb, m)
    pa, pb = _analyze(fv * _synthesize(da, db, m))  # f g'
    qa, qb = _analyze(fv * _synthesize(ha, hb, m))  # f H g'
    ta, tb = _hilbert_amplitudes(pa, pb)  # H(f g')
    keep = np.arange(m // 2) <= n_out[:, None]  # the modes multiply keeps
    return np.where(keep, ta - qa, 0.0), np.where(keep, tb - qb, 0.0)


def _quotients(fa, fb, ga, gb, deg_a, deg_b, alpha, m):
    """The commutator quotient of every member, a row of the amplitude
    arrays of a (degrees ``deg_a``) and of b (degrees ``deg_b``), all norms
    on m points.

    Each Θ is formed on the grid ``multiply`` picks for its degree
    deg a + deg b, so the members are grouped by that grid.  Θ stays zero
    for a constant a: the commutator with a constant vanishes.
    """
    den = _norms(fa, fb, 2, alpha, m) * _norms(ga, gb, 1, alpha, m)
    if not den.all():
        raise ConfigurationError("commutator_ratio needs nonzero a and b")
    n_out = deg_a + deg_b
    ta = np.zeros((n_out.size, int(n_out.max()) + 1))
    tb = np.zeros_like(ta)
    groups = {}  # product grid -> rows
    for row, (d, e) in enumerate(zip(deg_a.tolist(), deg_b.tolist())):
        if d:
            groups.setdefault(_product_grid(d, e, d + e), []).append(row)
    for grid, rows in groups.items():
        w = min(ta.shape[1], grid // 2)
        a, b = _commutators(fa[rows], fb[rows], ga[rows], gb[rows], n_out[rows], grid)
        ta[rows, :w], tb[rows, :w] = a[:, :w], b[:, :w]
    return _norms(ta, tb, 1, alpha, m) / den


def commutator_ratio(a, b, alpha, grid_size=DEFAULT_GRID):
    """Quotient ||⟦H,a⟧[b']||_{C^{1,α}} / (||a||_{C^{2,α}} ||b||_{C^{1,α}}).

    Invariant under positive rescaling of either argument, and exactly 0.0
    for a constant a.  Raises when a or b vanishes identically (zero
    denominator), or when the grid is odd or does not resolve Θ, whose
    degree is at most deg a + deg b.
    """
    alpha = _check_alpha(alpha)
    deg_a, deg_b = a.degree, b.degree
    m = _check_holder_grid(grid_size, deg_a + deg_b)
    rows = [x[None, :d + 1] for x, d in ((a.a, deg_a), (a.b, deg_a), (b.a, deg_b), (b.b, deg_b))]
    return float(_quotients(*rows, np.array([deg_a]), np.array([deg_b]), alpha, m)[0])


def _sweep_block(m):
    """Sweep members evaluated together on an m-point grid: as many rows as
    let the seminorm scan's first step compare two lags of each, rows × 2 ×
    m float64 within ``SWEEP_BYTES``; at least one."""
    return max(1, SWEEP_BYTES // (2 * m * 8))


@dataclass
class SweepResult:
    """Ratios over one random ensemble at a given degree cap: member i has
    seed ``seeds[i]`` (a range, so exact Python ints at any seed), degrees
    ``degree_a[i]`` and ``degree_b[i]`` and quotient ``ratios[i]``.  The
    sweep's α and grid are ``commutator_sweep``'s arguments, not fields."""

    max_degree: int
    seeds: range
    degree_a: np.ndarray
    degree_b: np.ndarray
    ratios: np.ndarray

    def summary(self):
        r = self.ratios
        return {
            "max_degree": self.max_degree,
            "max_ratio": float(r.max()),
            "mean_ratio": float(r.mean()),
        }


def commutator_sweep(ensemble, max_degree, alpha=0.5, seed=1234,
                     grid_size=SWEEP_GRID):
    """Ratios for ``ensemble`` random pairs with degrees drawn up to
    ``max_degree``.  Member i gets its own seed, seed · 100000 + i, so
    members are reproducible independently of the ensemble size; it draws
    deg a and deg b, then standard normal cosine and sine amplitudes on
    modes 1..deg a of a and 1..deg b of b.  Members are evaluated in blocks
    of zero-padded rows, as many as ``_sweep_block`` allows on the grid;
    every row is independent, so the members do not depend on the block
    size.  The grid must be even and resolve Θ, whose degree reaches
    2 max_degree."""
    ensemble = _check_ensemble(ensemble)
    max_degree = require_integer("max_degree", max_degree, 1)
    seed = require_integer("seed", seed, 0)
    alpha = _check_alpha(alpha)
    m = _check_holder_grid(grid_size, 2 * max_degree)
    block = _sweep_block(m)
    res = SweepResult(max_degree=max_degree,
                      seeds=range(seed * 100_000, seed * 100_000 + ensemble),
                      degree_a=np.empty(ensemble, dtype=int),
                      degree_b=np.empty(ensemble, dtype=int), ratios=np.empty(ensemble))
    for start in range(0, ensemble, block):
        rows = slice(start, start + block)
        seeds, deg_a, deg_b = res.seeds[rows], res.degree_a[rows], res.degree_b[rows]
        fa, fb, ga, gb = np.zeros((4, len(seeds), max_degree + 1))
        for r, member_seed in enumerate(seeds):
            rng = np.random.default_rng(member_seed)
            deg_a[r] = rng.integers(1, max_degree + 1)
            deg_b[r] = rng.integers(1, max_degree + 1)
            for amps, deg in ((fa, deg_a[r]), (fb, deg_a[r]), (ga, deg_b[r]), (gb, deg_b[r])):
                amps[r, 1:deg + 1] = rng.standard_normal(deg)
        res.ratios[rows] = _quotients(fa, fb, ga, gb, deg_a, deg_b, alpha, m)
    return res
