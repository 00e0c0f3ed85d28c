"""Bifurcation detection and branch continuation in the m-fold wave spaces.

At the flat state the profile-linearization is diagonal in frequency, so a
speed c_k where exactly one multiplier vanishes is a simple eigenvalue; with
the transversality quantity -2k - α0 k² nonzero, a one-dimensional curve of
nontrivial m-fold traveling waves emerges from (c_m, 0).

The local curve is a graph over the amplitude s = ⟨φ, cos(mx)⟩, so the
branch is traced by amplitude continuation: s is prescribed exactly and
Newton solves, in place, for the speed c together with the other lattice
amplitudes α_j = a_{jm}, j >= 2.  Each Newton step builds one closed-form
(Toeplitz + Hankel) lattice matrix K of ``model`` from φ's amplitudes and
takes both from it: the residual R = σ ∘ a + ½ K(a) a on every lattice mode
up to 2nm (the modes off the lattice are exact zeros), the evaluator of
``model.residual``, and the Newton matrix, the Jacobian with the speed
derivative as its first column.  No step calls an FFT.  An iterate is
accepted when Σ|b_k| over those sine amplitudes, all of the residual's
nonzero modes, is below tol: |R(x)| <= Σ|b_k| at every x, so an accepted
point is a solution of the truncated problem, tail modes included, and not
just of its Galerkin projection.

The truncation n is a cap.  Along the branch α_j = O(s^j), so a step is
solved on the fewest lattice modes that resolve it: a branch starts on
``START_MODES`` of them, and a point whose last amplitude passes machine
epsilon times its largest is solved again on ``LATTICE_GROWTH`` times as
many (at most n).  A Newton stall below the cap retries the step at the
cap, so only the cap truncates a branch; below it Newton also gives up at
the first iterate that does not lower Σ|b_k|.  A branch holds one lattice
matrix's weights and amplitude views (``model._Lattice``) at a time, and
every Newton step on that lattice reuses them.  Its cap and fold are
refused up front when an array they ask for would pass
``errors.ARRAY_BYTES_CEILING``.

A ``Branch`` is data: ``cli`` writes its points, each on the largest
lattice the branch used (``modes_used``) and with the linear solves its
step cost, to ``branch.csv``, and ``modes_used`` and its outcome,
``failure`` (``truncated`` follows from it), to ``branch.json``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, NumericalError, require_integer, require_real,
                     require_size)
from .model import (
    _Lattice,
    _lattice_bytes,
    _lattice_jacobian,
    _lattice_matrix,
    _lattice_residual,
    _mfold_indices,
    _symbol,
    _symbol_scale,
    critical_speed,
)
from .spectral import CosineSeries, _as_readonly

__all__ = [
    "BifurcationPoint",
    "BranchPoint",
    "Branch",
    "detect_bifurcations",
    "kernel_dimension",
    "continue_branch",
]

DEFAULT_TRUNCATION = 64
DEFAULT_TOL = 1e-11
DEFAULT_MAX_ITER = 25
DEFAULT_STEP_CAP = 1e-2
DEFAULT_STEP_GROWTH = 2.0
SIMPLE_RTOL = 1e-10        # relative floor for "multiplier is nonzero"
STEP_HALVINGS = 20         # singular-system retries before giving up
START_MODES = 8            # the lattice a branch starts on, if the cap allows
LATTICE_GROWTH = 1.5       # lattice growth when the tail is unresolved


@dataclass(frozen=True)
class BifurcationPoint:
    """A candidate bifurcation speed: frequency k, speed c_k, and whether
    the vanishing multiplier is simple (no other frequency shares the root)."""

    k: int
    speed: float
    simple: bool


@dataclass(frozen=True)
class BranchPoint:
    """One converged solution on a branch: amplitude coordinate s (the
    cos(mx) coefficient, held exactly), speed c, the n lattice amplitudes
    α_j = a_{jm} as a read-only array (α_1 = s), and diagnostics: Σ|b_k|
    and the linear solves of its step, its retries' included."""

    s: float
    c: float
    alpha: np.ndarray
    residual_norm: float
    newton_iters: int


@dataclass
class Branch:
    """Ordered branch points for a fixed fold m, trivial point first, the
    largest lattice n the continuation solved on, and why Newton stopped
    the branch short of s_max (None when it reached s_max)."""

    m: int
    points: list[BranchPoint]
    modes_used: int
    failure: str | None = None

    @property
    def truncated(self):
        """Whether Newton stopped the branch short of s_max."""
        return self.failure is not None

    def profile(self, i):
        """Point i's profile φ = Σ_j α_j cos(j m x), on modes 0..mn."""
        alpha = self.points[i].alpha
        a = np.zeros(self.m * alpha.size + 1)
        a[self.m::self.m] = alpha
        return CosineSeries(a)


def _vanishing(c, p, m, n):
    """The frequencies among m, 2m, ..., nm whose multiplier vanishes at
    speed c: |σ(k, c)| <= SIMPLE_RTOL times its terms' natural size
    (``model._symbol_scale``).  The one test that a multiplier vanishes."""
    k = _mfold_indices(m, n)
    return k[np.abs(_symbol(k, c, p)) <= SIMPLE_RTOL * _symbol_scale(k, c, p)]


def _scan_bytes(count):
    """The bytes of a scan's array of ``count`` frequencies."""
    return 8 * count


def detect_bifurcations(p, k_max, n_scan=DEFAULT_TRUNCATION):
    """Critical speeds c_k for k <= k_max with a simplicity flag.

    c_k is simple when no other frequency j <= n_scan has a vanishing
    multiplier at speed c_k (relative to the terms' natural size).  Resonant
    pairs sharing a speed are flagged non-simple, never silently accepted.
    """
    k_max = require_size("k_max", k_max, 1, _scan_bytes)
    n_scan = max(require_size("n_scan", n_scan, 1, _scan_bytes), k_max + 1)
    out = []
    for k in range(1, k_max + 1):
        ck = critical_speed(k, p)
        simple = not (_vanishing(ck, p, 1, n_scan) != k).any()
        out.append(BifurcationPoint(k=k, speed=ck, simple=simple))
    return out


def kernel_dimension(c, p, m, n):
    """Kernel dimension of the flat-state linearization at speed c on the
    m-fold basis: it is diagonal, so the count of ``_vanishing`` σ(mj, c)."""
    n = require_size("truncation n", n, 4, _scan_bytes)
    m = require_integer("fold m", m, 1)
    return int(_vanishing(c, p, m, n).size)


def _branch_bytes(m, n):
    """The bytes of the largest array of an m-fold branch at truncation n:
    a ``_Lattice`` array, or the mn + 1 amplitudes of a ``Branch.profile``."""
    return max(_lattice_bytes(n), 8 * (m * n + 1))


class _SingularSystem(Exception):
    def __init__(self, message, solves):
        super().__init__(message)
        self.solves = solves


class _NoConvergence(Exception):
    def __init__(self, residual_norm, solves):
        super().__init__(f"Newton stalled at residual {residual_norm:.3e}")
        self.residual_norm = residual_norm
        self.solves = solves


def _newton(c, alpha, p, tol, max_iter, lattice, monotone=False):
    """Solve the amplitude-constrained system for (c, α_2..α_n) in place in
    the lattice amplitudes ``alpha`` (α_j = a_{jm}; α_1 = s is held), and
    return (c, Σ|b_k|, iterations), b_k the residual's sine amplitudes at
    m, 2m, ..., 2nm; the equations are those at m, ..., nm.  When
    ``monotone``, an iterate that does not lower Σ|b_k| ends the solve as
    a stall, as iteration max_iter does.  Each iteration is one linear
    solve, and a stall or a singular system reports the solves it made."""
    last = np.inf
    for it in range(max_iter + 1):
        matrix = _lattice_matrix(alpha, lattice)
        sigma = _symbol(lattice.kf, c, p)
        b = _lattice_residual(matrix, sigma, alpha)
        rnorm = float(np.abs(b).sum())
        if rnorm < tol:
            return c, rnorm, it
        if it == max_iter or (monotone and rnorm >= last):
            raise _NoConvergence(rnorm, it)
        last = rnorm
        jac = _lattice_jacobian(matrix, sigma, alpha, p, lattice, speed_column=True)
        try:
            delta = np.linalg.solve(jac, -b[:lattice.n])
        except np.linalg.LinAlgError as exc:
            raise _SingularSystem(str(exc), it + 1) from exc
        if not np.isfinite(delta).all():
            raise _SingularSystem("non-finite Newton update", it + 1)
        c = c + delta[0]
        alpha[1:] += delta[1:]
    raise AssertionError("unreachable")


def continue_branch(m, p, s_max, n=DEFAULT_TRUNCATION, tol=DEFAULT_TOL,
                    max_iter=DEFAULT_MAX_ITER, *, step_cap=DEFAULT_STEP_CAP):
    """Trace the m-fold branch out of (c_m, 0) up to amplitude s_max.

    The first record is the trivial limit (s=0, c=c_m, α=0).  Steps start at
    step_cap / 10 and double up to step_cap; the last step lands exactly on
    s_max.
    The amplitudes are positive: the mirror branch, s -> -s, is the
    half-period shift of this one.  step_cap > 0 is required, since
    otherwise the steps vanish and s_max is never reached.

    n caps the lattice modes.  Each step is solved on the current lattice,
    min(n, START_MODES) modes at first; an accepted point whose last
    amplitude exceeds machine epsilon times its largest grows the lattice
    by LATTICE_GROWTH (rounded up, at most n) and is solved again from the
    last accepted point.  Every point keeps all n amplitudes, those past
    its lattice exact zeros, and ``Branch.modes_used`` is the largest
    lattice solved on.

    Newton non-convergence below the cap (there also an iterate that does
    not lower Σ|b_k|) retries the step at the cap; at the cap it truncates
    the branch at the last converged point (reported on the returned
    Branch, naming the modes it stalled on).  A singular Newton system
    triggers step halving and, past the halving floor, a NumericalError.
    """
    m = require_size("fold m", m, 1, lambda m: _branch_bytes(m, 2))
    s_max = require_real("s_max", s_max, 0)
    step_cap = require_real("step_cap", step_cap, 0, strict=True)
    max_iter = require_integer("max_iter", max_iter, 0)
    # Σ|b_k| sums 2n roundoff terms.  Its floor, the least sum Newton reaches
    # past acceptance, grows with s but not with n: at most 2.2e-17 on folds
    # 1-3 at s <= 0.05 (fold 1 at n = 64, 256 and 1024 alike), 5.4e-14 on
    # fold 2 at s <= 4 and 2.3e-12 at s <= 24 (n = 128 and 256).  So no tol
    # below 1e-12 holds beyond small amplitudes.
    tol = require_real("tol", tol, 1e-12)
    # one amplitude besides s at least; the cap's lattice is the largest built
    n = require_size("truncation n", n, 2, lambda n: _branch_bytes(m, n))

    c0 = critical_speed(m, p)
    shared = _vanishing(c0, p, m, n)
    shared = shared[shared != m]
    if shared.size:
        raise ConfigurationError(
            f"(c_{m}, 0) is not simple in the {m}-fold space: "
            f"frequency {shared[0]} shares the critical speed"
        )

    alpha = _as_readonly(np.zeros(n))   # the lattice amplitudes of the last accepted point
    points = [BranchPoint(s=0.0, c=c0, alpha=alpha, residual_norm=0.0, newton_iters=0)]
    failure = None
    spent = 0       # the solves of this step's attempts that were not accepted

    s_abs = 0.0
    step = step_cap / 10.0
    c = c0
    floor = step / 2.0 ** STEP_HALVINGS
    g = p.alpha0 - p.beta
    lattice = _Lattice(m, min(n, START_MODES), g)   # only the current one is kept
    while s_max - s_abs > 1e-15:
        step = min(step, step_cap, s_max - s_abs)
        s_try = s_abs + step
        k = lattice.n
        trial = alpha[:k].copy()    # a retry starts again from the last accepted point
        trial[0] = s_try
        try:
            c_new, rnorm, iters = _newton(c, trial, p, tol, max_iter, lattice, k < n)
        except _SingularSystem as exc:
            spent += exc.solves
            step /= 2.0
            if step < floor:
                raise NumericalError(
                    f"singular Newton system persists below step {floor:.3e} "
                    f"at |s| = {s_abs:.6g}"
                )
            continue
        except _NoConvergence as exc:
            if k < n:       # a stall is decided at the cap
                spent += exc.solves
                lattice = _Lattice(m, n, g)
                continue
            failure = (
                f"Newton did not converge within {max_iter} iterations at "
                f"s = {s_try:.6g} on {k} lattice modes (residual {exc.residual_norm:.3e}); "
                f"branch truncated at |s| = {s_abs:.6g}"
            )
            break
        if k < n and abs(trial[-1]) > np.finfo(float).eps * np.abs(trial).max():
            spent += iters
            lattice = _Lattice(m, min(n, math.ceil(LATTICE_GROWTH * k)), g)
            continue        # the tail is unresolved: re-solve the step on more modes
        c, alpha = c_new, np.zeros(n)
        alpha[:k] = trial
        alpha.setflags(write=False)
        s_abs += step
        points.append(BranchPoint(s=s_try, c=c, alpha=alpha, residual_norm=rnorm,
                                  newton_iters=spent + iters))
        spent = 0
        step = min(step * DEFAULT_STEP_GROWTH, step_cap)
    return Branch(m=m, points=points, modes_used=lattice.n, failure=failure)

