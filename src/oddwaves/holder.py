"""Hölder norms of trigonometric polynomials and randomized checks of the
commutator estimate.

The norms follow the usual ladder on the torus: the C^k part sums the sup
norms of the derivatives, and the (k, α) norm adds the α-seminorm of the
k-th derivative,

    [g]_α = sup_{x ≠ y} |g(x) - g(y)| / dist(x, y)^α,

with the periodic distance.  Each sup norm and seminorm starts as the
exact maximum over the points, or over all pairs of points, of a uniform
grid (the grid part), which under-estimates the true value by
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

Every field here is a trigonometric polynomial, so ``holder_norm``,
``commutator_ratio`` and the sweep then refine each grid maximum on the
polynomial itself.  Its candidates are the local maxima of |g(x + d) -
g(x)| / d^α over the (x, lag) table, and of |g| over x, within ``CUT``
(10 %) of the grid maximum; to hand them all over, the scan runs on until
its bounds fall to ``CUT`` times the maximum.  Each candidate starts on
the polynomial, at its cell's (x, d), and climbs by Newton steps there,
every value evaluated by Horner's rule in e^{ix}, with d kept in (0, π],
up to its first step that does not raise its value.  A term is the larger
of its grid part and its candidates' climbs: a maximum over a superset of
the grid's points and pairs, so never below the grid value, and still a
lower bound of the true norm, up to rounding.  So the grid only locates
the candidates, and unless a caller sets it, it follows from the largest
degree d among the fields normed (``_default_grid``): 6 points per mode,
rounded up to a power of two.  ``holder_norm`` takes d = deg f, and
``commutator_ratio`` and the sweep max(deg a, deg b) and max_degree: Θ =
⟦H, a⟧[b'] has degree below deg a, since b' has no mean and only pairs of
modes of opposite sign survive the commutator, each at a mode below that
of a.  From 6 points per mode the refined terms of the sweep's fields
reach the 16384-point grid values and agree with refinements started from
4096 points to about 1e-13; at 3 points per mode of its own degree, the
norm of a single field can miss its grid value by several per cent.

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
``irfft`` of the whole stack, sup norms and seminorms are taken row by
row, and the candidates of a, b and Θ climb in one pass.  A block holds
as many members as ``_sweep_block`` allows, 85 on the default grids of
degrees 20 and 40 and 5 on 4096 points, so the memory a block takes
stays bounded at every grid.  Θ = H(a b') - a H(b') is formed from the
two products on the grid ``multiply`` picks for degree deg a + deg b, one
group of rows per grid, and each row keeps the modes up to deg a + deg b,
as ``multiply`` truncates them.  Neither the candidates nor their climbs
depend on the other rows or on a row's zero padding, so every member's
quotient is the float that ``commutator_h`` and ``holder_norm`` on fields
give for that member alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, require_integer, require_real, require_size
from .spectral import (_analyze, _check_grid, _derivative_amplitudes, _hilbert_amplitudes,
                       _mode_table, _next_pow2, _product_grid, _synthesize, _values_at)

__all__ = [
    "holder_seminorm",
    "holder_norm",
    "commutator_ratio",
    "SweepResult",
    "commutator_sweep",
]

POINTS_PER_MODE = 6  # a default Hölder grid's points per mode, before rounding up
SWEEP_BYTES = 2**19  # budget of one step's gather in the seminorm scan
BOUND_MARGIN = 1.0 + 1e-12  # covers the roundings between a gap and its bound
CUT = 0.9  # a candidate of the refinement lies within 10 % of its row's grid maximum
SLACK = 1.0 - 1e-12  # lowers a gap threshold below the roundings of its quotient's
ROUNDS = 8  # Newton rounds of the refinement, at most
RISE_TOL = 1e-13  # a refined point retires once its step promises no larger relative rise
GRID_NAME = "the Hölder grid"  # the name its refusals give the grid setting


def _check_alpha(alpha):
    """``alpha`` as a float: the Hölder exponent of every estimate, in (0, 1)."""
    return require_real("alpha", alpha, 0, 1, strict=True)


def _check_ensemble(ensemble):
    """``ensemble`` as an int: the members of a sweep.  The size rule charges
    one of its three ensemble-long arrays, 8 bytes a member."""
    return require_size("ensemble size", ensemble, 1, lambda n: 8 * n)


def _check_max_degree(max_degree, name="max_degree"):
    """``max_degree`` as an int: a sweep's degree cap.  The size rule charges
    one row of the seminorm scan on the sweep's default grid,
    ``_default_grid(max_degree)``."""
    return require_size(name, max_degree, 1, lambda d: _wrapped_bytes(_default_grid(d)))


def _default_grid(degree):
    """The Hölder grid of fields of degree at most ``degree`` when none is
    given: the power of two of at least ``POINTS_PER_MODE`` points per
    mode, 8 at least.  It passes the grid rule also for the twice as many
    modes of a commutator's rows, since 6 d >= 4 d + 2 for d >= 1."""
    return _next_pow2(POINTS_PER_MODE * degree)


def _check_grid_size(m, degree, modes):
    """``m`` as an int, ``_default_grid(degree)`` when it is None: the
    Hölder grid of every estimate.  It passes the one grid rule for rows
    of ``modes`` modes, and the size rule at the bytes charged to one row
    of the seminorm scan (``_wrapped_bytes``), checked first, so the grid
    rule's smaller charge of 8 m bytes never refuses it."""
    m = require_size(GRID_NAME, _default_grid(degree) if m is None else m, 4, _wrapped_bytes)
    return _check_grid(m, modes, GRID_NAME)


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


def _seminorms(vals, alpha, cells=False):
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

    With ``cells`` it also returns, as arrays (row, x, lag), the cells of
    the (x, lag) table that are local maxima of their lag's gaps and whose
    quotient may exceed ``CUT`` times the row's maximum: none for a row
    that is not all finite.  A row then stops only once its next bound is
    no larger than ``CUT`` times its maximum, so the cells hold all of
    ``_peak_cells``' candidates, whatever the other rows.
    """
    m = vals.shape[1]
    spread = vals.max(axis=1) - vals.min(axis=1)
    live = np.isfinite(spread)
    if not live.all():  # the other rows keep max - min
        found = _seminorms(vals[live], alpha, cells)
        spread[live] = found[0] if cells else found
        if cells:
            row, x, lag = found[1]
            return spread, (np.flatnonzero(live)[row], x, lag)
        return spread
    ext = np.concatenate((vals, vals[:, :m // 2]), axis=1)  # ext[:, i + L] == vals[:, (i + L) % m]
    dists = _lag_distances(m, float(alpha))
    cut = CUT if cells else 1.0
    diff1 = np.abs(ext[:, 1:m + 1] - vals)
    gap1 = diff1.max(axis=1)
    best = gap1 / dists[0]
    found = []  # a superset of the candidates, as (row, x, lag)
    if cells:
        row, x = _ridge(diff1, cut * gap1 * SLACK)
        found.append((row, x, np.ones_like(x)))
    del diff1  # not held through the scan
    lags, dists = np.arange(2, dists.size + 1), dists[1:]
    # a row is done when R / d_2, a bound on every lag >= 2, cannot beat lag 1
    scan = np.flatnonzero(spread / dists[0] > cut * best) if lags.size else lags[:0]
    if scan.size:
        bound = np.minimum(spread[scan, None], lags * gap1[scan, None] * BOUND_MARGIN) / dists
        order = np.argsort(-bound, axis=1, kind="stable").astype(np.int32)  # lags < 2^31
        bound = np.take_along_axis(bound, order, axis=1)  # nonincreasing along each row
        windows = sliding_window_view(ext, m, axis=1)  # windows[r, L] == ext[r, L:L + m]
        rows = vals if scan.size == vals.shape[0] else vals[scan]  # samples of the scanning rows
        top = best[scan]  # and their maxima
        pos = np.arange(scan.size)  # their rows of bound and order
        start = 0
        while start < lags.size:
            go = bound[pos, start] > cut * top  # every later lag has a bound no larger
            if not go.all():
                best[scan] = top
                scan, pos, rows, top = scan[go], pos[go], rows[go], top[go]
                if not scan.size:
                    break
            block = order[pos, start:start + max(1, SWEEP_BYTES // (8 * m * scan.size))].T
            gaps = windows[scan, lags[block]]  # a copy: fancy indexing
            gaps -= rows
            gaps = np.abs(gaps, out=gaps)
            np.maximum(top, (gaps.max(axis=2) / dists[block]).max(axis=0), out=top)
            if cells:
                line, x = _ridge(gaps, cut * top * dists[block] * SLACK)
                li, ri = np.divmod(line, scan.size)
                found.append((scan[ri], x, lags[block][li, ri]))
            del gaps  # freed before the next gather
            start += len(block)
        best[scan] = top
    if not cells:
        return best
    return best, tuple(map(np.concatenate, zip(*found)))


def _ridge(gaps, floor):
    """The cells (line, x) of the local maxima along the last axis
    (periodic) of ``gaps`` that exceed ``floor``, which has its other axes;
    ``line`` indexes those axes flattened.  The neighbour comparisons run
    on the flat array, the wrap-around of each line apart."""
    m = gaps.shape[-1]
    lines = gaps.reshape(-1, m)
    flat = lines.reshape(-1)
    peak = np.empty(flat.size, dtype=bool)  # no less than the left neighbour
    np.greater_equal(flat[1:], flat[:-1], out=peak[1:])
    peak[::m] = lines[:, 0] >= lines[:, -1]
    test = np.empty(flat.size, dtype=bool)  # no less than the right neighbour
    np.greater_equal(flat[:-1], flat[1:], out=test[:-1])
    test[m - 1::m] = lines[:, -1] >= lines[:, 0]
    peak &= test
    np.greater(lines, floor.reshape(-1, 1), out=test.reshape(-1, m))
    peak &= test
    return np.divmod(np.flatnonzero(peak), m)


def _peak_cells(vals, alpha, best, row, x, lag):
    """The candidates of ``_refine`` among the cells (row, x, lag) that
    ``_seminorms`` returns with the maxima ``best``: those whose quotient
    (computed as the scan computes it) exceeds ``CUT`` times the row's
    maximum and is no less than the quotients at x - 1, x and x + 1 of
    lags L ± 1, a lag past m / 2 at its periodic distance and lag 0 at
    quotient 0.  With the scan's test along x, on the gaps, these are the
    local maxima of the quotient over (x, lag) within ``CUT`` of the
    maximum."""
    m = vals.shape[1]
    dists = _lag_distances(m, float(alpha))
    flat = vals.reshape(-1)

    def quotient(start, x, lag):
        gap = np.abs(flat[start + (x + lag) % m] - flat[start + x % m])
        return gap / dists[np.minimum(lag, m - lag) - 1]  # lag 0: a zero gap

    q = quotient(row * m, x, lag)
    keep = q > CUT * best[row]
    row, x, lag, q = row[keep], x[keep], lag[keep], q[keep]
    dx, dlag = np.array([-1, 0, 1, -1, 0, 1]), np.array([-1, -1, -1, 1, 1, 1])
    near = quotient(row * m, x + dx[:, None], lag + dlag[:, None])
    keep = (q >= near).all(axis=0)
    return row[keep], x[keep], lag[keep]


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


def _newton(g, alpha, d):
    """The value of each point, its Newton step (in x, in d) on the
    polynomial and the rise that step promises, relative to the value.  A
    sup point (g holds g, g', g'' at x) climbs |g|: step -g'/g''.  A pair
    point (g holds them at x, then at x + d) climbs
    |g(x + d) - g(x)| / d^α through its logarithm F(x, d)."""
    u, u1, u2 = g[:3]
    if g.shape[0] == 3:
        dx = -u1 / u2
        return np.abs(u), dx, np.zeros_like(u), np.abs(0.5 * u1 * dx / u)
    v, v1, v2 = g[3:]
    gap = v - u
    fx, w, w2 = (v1 - u1) / gap, v1 / gap, v2 / gap
    fd = w - alpha / d
    fxx = (v2 - u2) / gap - fx * fx
    fxd = w2 - fx * w
    fdd = w2 - w * w + alpha / (d * d)
    det = fxx * fdd - fxd * fxd
    dx, dd = (fxd * fd - fdd * fx) / det, (fxd * fx - fxx * fd) / det
    return np.abs(gap) / d ** alpha, dx, dd, np.abs(0.5 * (fx * dx + fd * dd))


class _Climb:
    """Newton climbs of one kind of candidate, each row of its arrays one
    point: a sup point has d = 0 and climbs on g, g', g'' at x; a pair
    point climbs on them at x, then at x + d (``_newton``).  A point holds
    its next trial (x, d), its start first, and its best value, -inf until
    the start is evaluated, so every value it holds is one of the
    polynomial.  ``live`` indexes the points still climbing."""

    def __init__(self, rows, x, d, alpha):
        self.rows, self.x, self.d, self.alpha = rows, x, np.minimum(d, np.pi), alpha
        self.value = np.full(rows.size, -np.inf)
        self.live = np.arange(rows.size)

    def update(self, g):
        """Keep each live point's trial, evaluated to g, where it raises the
        value, and move that trial on by its Newton step, d at most π.  A
        point retires at its first trial that does not raise its value, or
        once its step promises a rise of at most ``RISE_TOL`` of it."""
        live = self.live
        value, dx, dd, rise = _newton(g, self.alpha, self.d[live])
        up = value > self.value[live]
        kept = live[up]
        self.value[kept] = value[up]
        self.x[kept] += dx[up]
        self.d[kept] = np.minimum(self.d[kept] + dd[up], np.pi)
        self.live = kept[rise[up] > RISE_TOL]


def _refine(table, kinds, alpha):
    """The values the candidates climb to on the polynomial of their rows
    of ``table``, a ``spectral._mode_table``, for ``kinds`` = the sup points
    and the pair points, each as (rows, x, d).  Each round evaluates every
    live point's trial at once (``spectral._values_at``): the first its
    start, then ``ROUNDS`` Newton steps at most.  So each value is that of
    a point of the polynomial, no smaller than at its start."""
    with np.errstate(all="ignore"):
        sups, pairs = (_Climb(*kind, alpha) for kind in kinds)
        for _ in range(ROUNDS + 1):
            s, p = sups.live, pairs.live
            if not (s.size or p.size):
                break
            prow, px = pairs.rows[p], pairs.x[p]
            g = _values_at(table, np.concatenate((sups.rows[s], prow, prow)),
                           np.concatenate((sups.x[s], px, px + pairs.d[p])))
            sups.update(g[:, :s.size])
            pairs.update(np.concatenate((g[:, s.size:s.size + p.size], g[:, s.size + p.size:])))
    return sups.value, pairs.value


def _terms(fields, alpha, m):
    """The terms of the C^{k,α} norms of stacked amplitude rows, one
    (k + 2, rows) array for each (a, b, k) of ``fields``: the sup norms of
    each row and its first k derivatives, then the α-seminorm of the k-th,
    so a norm is its array's sum over the first axis.  Returns the grid
    parts, each term's maximum on m points, and the terms, each the larger
    of its grid part and what ``_refine`` climbs to from that maximum's
    candidates, all fields' candidates in one pass.  The samples of each
    level (``_levels``) only locate the candidates, each recorded as
    (table row, x, d)."""
    grids, kinds, start, h = [], ([], []), 0, 2 * np.pi / m
    for a, b, k in fields:
        rows = a.shape[0]
        grid = np.empty((k + 2, rows))
        for level, (a, b) in enumerate(_levels(a, b, k)):
            vals = _synthesize(a, b, m)
            grid[level], (row, x) = _sup_cells(vals)
            kinds[0].append((start + row, h * x, np.zeros(x.size)))
            start += rows
        grid[-1], cells = _seminorms(vals, alpha, cells=True)
        row, x, lag = _peak_cells(vals, alpha, grid[-1], *cells)
        kinds[1].append((start - rows + row, h * x, h * lag))
        grids.append(grid)
    del vals, cells, a, b  # the table is built under the scan's peak, not on top of it
    table = _mode_table([level for a, b, k in fields for level in _levels(a, b, k)])
    kinds = [tuple(map(np.concatenate, zip(*kind))) for kind in kinds]
    best = np.full((2, table[1].size), -np.inf)  # by table row: sup, seminorm
    for out, (rows, *_), climbed in zip(best, kinds, _refine(table, kinds, alpha)):
        np.maximum.at(out, rows, climbed)
    terms, start = [], 0
    for grid in grids:
        rows = grid.shape[1]
        climbed = best[0, start:start + rows * (len(grid) - 1)].reshape(len(grid) - 1, rows)
        start += climbed.size
        terms.append(np.maximum(grid, np.vstack((climbed, best[1, start - rows:start]))))
    return grids, terms


def _levels(a, b, k):
    """The amplitude arrays (a, b) of levels 0..k of the rows (a, b): the
    rows and their first k derivatives, the levels ``_terms`` samples and
    the rows of the table the candidates climb on.  ``_terms`` rebuilds
    them after the scans rather than keep the levels it samples: held
    through the scans, they raise ``commutator_sweep(150, 40)``'s traced
    peak from 1.68 to 1.92 MiB, close to the 2 MiB block budget."""
    yield a, b
    for _ in range(k):
        a, b = _derivative_amplitudes(a, b)
        yield a, b


def _sup_cells(vals):
    """The sup norm of each row of samples and the cells (row, x) of the
    local maxima of |vals| that exceed ``CUT`` times it."""
    mag = np.abs(vals)
    sups = mag.max(axis=1)
    return sups, _ridge(mag, CUT * sups)


def holder_norm(f, k, alpha, grid_size=None):
    """Estimate of the C^{k,α} norm, as a float: sup norms of f, f', ...,
    f^(k) plus the α-seminorm of f^(k), each the grid maximum on
    ``grid_size`` points (by default ``_default_grid(deg f)``) refined on
    the polynomial.  Derivatives are spectral, so the only approximation is
    the search itself, and the estimate is a lower bound of the norm."""
    alpha = _check_alpha(alpha)
    k = require_integer("derivative count k", k, 0, 3)
    m = _check_grid_size(grid_size, f.degree, f.degree)
    return float(_terms([(f.a[None, :], f.b[None, :], k)], alpha, m)[1][0].sum(axis=0)[0])


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
    terms = _terms([(ta, tb, 1), (fa, fb, 2), (ga, gb, 1)], alpha, m)[1]
    num, norm_a, norm_b = (t.sum(axis=0) for t in terms)
    den = norm_a * norm_b
    if not den.all():
        raise ConfigurationError("commutator_ratio needs nonzero a and b")
    return num / den


def commutator_ratio(a, b, alpha, grid_size=None):
    """Quotient ||⟦H,a⟧[b']||_{C^{1,α}} / (||a||_{C^{2,α}} ||b||_{C^{1,α}}),
    every norm on ``grid_size`` points, by default on
    ``_default_grid(max(deg a, deg b))``: Θ's degree is below deg a.

    Invariant under positive rescaling of either argument, and exactly 0.0
    for a constant a.  Raises when a or b vanishes identically (zero
    denominator), or when the grid is odd or does not resolve the
    deg a + deg b modes of Θ's row.
    """
    alpha = _check_alpha(alpha)
    deg_a, deg_b = a.degree, b.degree
    m = _check_grid_size(grid_size, max(deg_a, deg_b), deg_a + deg_b)
    rows = [x[None, :d + 1] for x, d in ((a.a, deg_a), (a.b, deg_a), (b.a, deg_b), (b.b, deg_b))]
    return float(_quotients(*rows, np.array([deg_a]), np.array([deg_b]), alpha, m)[0])


def _sweep_block(m):
    """Sweep members evaluated together on an m-point grid: as many as keep
    their scan rows, 3 m float64 a member (a field's samples, their wrapped
    copy and the lag bounds), within ``SWEEP_BYTES``, at least one.  Below
    256 points a member's candidates' climbs, about 9.5 KB whatever the
    grid, outweigh its scan rows, so m counts as 256 there: 85 members on
    up to 256 points, 21 on 1024 and 5 on 4096."""
    return max(1, SWEEP_BYTES // (3 * 8 * max(m, 256)))


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


def commutator_sweep(ensemble, max_degree, alpha=0.5, seed=1234, grid_size=None):
    """Ratios for ``ensemble`` random pairs with degrees drawn up to
    ``max_degree``.  Member i gets its own seed, seed · 100000 + i, so
    members are reproducible independently of the ensemble size; it draws
    deg a and deg b, then standard normal cosine and sine amplitudes on
    modes 1..deg a of a and 1..deg b of b.  Members are evaluated in blocks
    of zero-padded rows, as many as ``_sweep_block`` allows on the grid;
    every row is independent, so the members do not depend on the block
    size.  The grid must be even and resolve the 2 max_degree modes of
    Θ's rows; by default it is ``_default_grid(max_degree)``, the largest
    degree of a and b, since Θ's degree is below deg a."""
    ensemble = _check_ensemble(ensemble)
    max_degree = _check_max_degree(max_degree)
    seed = require_integer("seed", seed, 0)
    alpha = _check_alpha(alpha)
    m = _check_grid_size(grid_size, max_degree, 2 * max_degree)
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
            da = deg_a[r] = rng.integers(1, max_degree + 1)
            db = deg_b[r] = rng.integers(1, max_degree + 1)
            draw = rng.standard_normal(2 * (da + db))
            fa[r, 1:da + 1], fb[r, 1:da + 1] = draw[:da], draw[da:2 * da]
            ga[r, 1:db + 1], gb[r, 1:db + 1] = draw[2 * da:2 * da + db], draw[2 * da + db:]
        res.ratios[rows] = _quotients(fa, fb, ga, gb, deg_a, deg_b, alpha, m)
    return res
