"""Bifurcation detection and branch continuation in the m-fold wave spaces.

At the flat state the profile-linearization is diagonal in frequency, so a
speed c_k where exactly one multiplier vanishes is a simple eigenvalue; with
the transversality quantity -2k - α0 k² nonzero, a one-dimensional curve of
nontrivial m-fold traveling waves emerges from (c_m, 0).

The local curve is a graph over the amplitude s = ⟨φ, cos(mx)⟩, so the
branch is traced by amplitude continuation: s is prescribed exactly and
Newton solves for the speed c together with the complement coefficients
{φ_j : j >= 2} of the m-fold cosine basis.  Convergence is measured on the
full, exactly-evaluated residual (tail modes included), so an accepted point
is a genuine solution of the truncated problem, not just of its Galerkin
projection.  The Newton matrix is the closed-form (Toeplitz + Hankel)
Jacobian of ``model``, assembled from φ's amplitudes with the speed
derivative as its first column.

Each iterate is tested in two stages.  By discrete Parseval, Σ b_k²/2 over
the residual's sine amplitudes is the mean square of the samples its sup
norm is taken over, so it bounds their largest square from below: an
iterate whose Σ b_k²/2 exceeds tol² by a relative margin far above rounding
is rejected without sampling.  Only an iterate that may pass, and the last
one before a stall (whose message reports the sup), is synthesized on the
oversampled grid.  A branch builds the Jacobian's index and weight arrays
and the residual's transform workspace once, and every Newton step reuses
them.

A ``Branch`` is data: ``cli`` writes its points to ``branch.csv`` and its
settings and outcome to ``branch.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError, require_integer, require_real
from .model import (
    ModelParams,
    _jacobian,
    _jacobian_weights,
    _mfold_indices,
    _QuadraticWork,
    _residual_hat,
    _sine_amplitudes,
    _symbol,
    critical_speed,
    d_c_symbol,
)
from .spectral import CosineSeries, SpectralField, _hat, _sup_norm

__all__ = [
    "BifurcationPoint",
    "BranchPoint",
    "Branch",
    "detect_bifurcations",
    "kernel_dimension",
    "transversality",
    "continue_branch",
]

DEFAULT_TRUNCATION = 64
DEFAULT_TOL = 1e-11
DEFAULT_MAX_ITER = 25
DEFAULT_STEP = 1e-3
DEFAULT_STEP_CAP = 1e-2
DEFAULT_STEP_GROWTH = 2.0
SIMPLE_RTOL = 1e-10        # relative floor for "multiplier is nonzero"
STEP_HALVINGS = 20         # singular-system retries before giving up
PARSEVAL_MARGIN = 1e-6     # relative margin of the mean-square rejection


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
    cos(mx) coefficient, held exactly), speed c, profile, and diagnostics."""

    s: float
    c: float
    phi: SpectralField
    residual_norm: float
    newton_iters: int


@dataclass
class Branch:
    """Ordered branch points for a fixed fold m, trivial point first."""

    m: int
    params: ModelParams
    points: list[BranchPoint]
    truncation: int
    tol: float
    max_iter: int
    ds: float
    step_cap: float
    step_growth: float
    direction: int = 1
    truncated: bool = False
    failure: str | None = None

    @property
    def amplitudes(self):
        return np.array([pt.s for pt in self.points])

    @property
    def speeds(self):
        return np.array([pt.c for pt in self.points])


def _symbol_scale(k, c, p):
    """Natural magnitude of the multiplier's terms at frequency k (or at
    an array of frequencies, with the scalar operations elementwise)."""
    g = p.alpha0 - p.beta
    return (abs(2.0 * c + 1.0 / p.epsilon) * k + 1.0 / p.epsilon
            + abs(c * p.alpha0 + g / p.epsilon) * k * k)


def _resonant(k, c, p):
    """Whether the multiplier at frequency k (or elementwise at an array of
    frequencies) vanishes at speed c: |σ(k, c)| <= SIMPLE_RTOL times its
    terms' natural size.  The one test that a multiplier vanishes."""
    return np.abs(_symbol(k, c, p)) <= SIMPLE_RTOL * _symbol_scale(k, c, p)


def detect_bifurcations(p, k_max, n_scan=DEFAULT_TRUNCATION):
    """Critical speeds c_k for k <= k_max with a simplicity flag.

    c_k is simple when no other frequency j <= n_scan has a vanishing
    multiplier at speed c_k (relative to the terms' natural size).  Resonant
    pairs sharing a speed are flagged non-simple, never silently accepted.
    """
    k_max = require_integer("k_max", k_max, 1)
    n_scan = max(require_integer("n_scan", n_scan, 1), k_max + 1)
    j = np.arange(1, n_scan + 1, dtype=float)
    out = []
    for k in range(1, k_max + 1):
        ck = critical_speed(k, p)
        shared = _resonant(j, ck, p)
        shared[k - 1] = False
        out.append(BifurcationPoint(k=k, speed=ck, simple=not shared.any()))
    return out


def kernel_dimension(c, p, m, n):
    """Kernel dimension of the flat-state linearization at speed c on the
    m-fold basis: it is diagonal, so the count of ``_resonant`` σ(mj, c)."""
    n = require_integer("truncation n", n, 4)
    m = require_integer("fold m", m, 1)
    return int(np.count_nonzero(_resonant(_mfold_indices(m, n).astype(float), c, p)))


def transversality(k, p):
    """True when the speed-derivative of the multiplier at frequency k is
    nonzero: always, as ``ModelParams`` requires alpha0 > 0."""
    return d_c_symbol(k, p) != 0.0


class _SingularSystem(Exception):
    pass


class _NoConvergence(Exception):
    def __init__(self, residual_norm):
        super().__init__(f"Newton stalled at residual {residual_norm:.3e}")
        self.residual_norm = residual_norm


def _newton(c, complement, s, m, p, n, tol, max_iter, weights, work):
    """Solve the amplitude-constrained system for (c, φ_2..φ_n).

    Equations are the sine amplitudes of the residual at frequencies
    m, 2m, ..., nm; acceptance requires the full residual sup-norm
    (all modes, tail included) below tol.  An iterate whose Σ b_k²/2
    exceeds tol² (1 + PARSEVAL_MARGIN) cannot pass, so its sup is not
    sampled unless it is the last.  Iterates are cosine amplitude arrays;
    only the accepted profile is built as a field.  ``weights`` are the
    branch's ``_jacobian_weights`` and ``work`` its residual's
    ``_QuadraticWork``.
    """
    rows = _mfold_indices(m, n)
    a = np.zeros(m * n + 1)             # a_0 = 0: the profile has zero mean
    a[m] = s
    zero = np.zeros_like(a)
    too_large = 2.0 * tol * tol * (1.0 + PARSEVAL_MARGIN)   # on Σ b_k²
    for it in range(max_iter + 1):
        a[rows[1:]] = complement
        b = _sine_amplitudes(*_residual_hat(c, _hat(a, zero), p, work), "residual")
        if it == max_iter or np.dot(b, b) <= too_large:
            rnorm = _sup_norm(np.zeros_like(b), b)
            if rnorm < tol:
                return c, CosineSeries(a), rnorm, it
            if it == max_iter:
                raise _NoConvergence(rnorm)
        jac = _jacobian(c, a, p, m, n, speed_column=True, weights=weights)
        rhs = -b[rows]
        try:
            delta = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError as exc:
            raise _SingularSystem(str(exc)) from exc
        if not np.isfinite(delta).all():
            raise _SingularSystem("non-finite Newton update")
        c = c + delta[0]
        complement = complement + delta[1:]
    raise AssertionError("unreachable")


def continue_branch(m, p, s_max, ds=DEFAULT_STEP, n=DEFAULT_TRUNCATION,
                    tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, *,
                    step_growth=DEFAULT_STEP_GROWTH, step_cap=DEFAULT_STEP_CAP,
                    direction=1):
    """Trace the m-fold branch out of (c_m, 0) up to amplitude s_max.

    The first record is the trivial limit (s=0, c=c_m, φ=0).  Steps start at
    ds and grow geometrically up to step_cap; the last step lands exactly on
    s_max.  ``direction=-1`` walks the mirror branch (negative amplitudes).
    step_cap > 0 and step_growth >= 1 are required, since otherwise the
    steps shrink towards zero and s_max is never reached.

    Newton non-convergence truncates the branch at the last converged point
    (reported on the returned Branch); a singular Newton system triggers
    step halving and, past the halving floor, a NumericalError.
    """
    m = require_integer("fold m", m, 1)
    s_max = require_real("s_max", s_max, 0)
    ds = require_real("ds", ds, 0, strict=True)
    step_cap = require_real("step_cap", step_cap, 0, strict=True)
    step_growth = require_real("step_growth", step_growth, 1)
    max_iter = require_integer("max_iter", max_iter, 0)
    tol = require_real("tol", tol, 1e-12)  # a smaller residual is not resolvable
    n = require_integer("truncation n", n, 2)  # one complement mode at least
    if direction not in (1, -1):
        raise ConfigurationError("direction must be +1 or -1")

    c0 = critical_speed(m, p)
    shared = _resonant(m * np.arange(2, n + 1, dtype=float), c0, p)
    if shared.any():
        raise ConfigurationError(
            f"(c_{m}, 0) is not simple in the {m}-fold space: "
            f"frequency {m * (2 + int(np.argmax(shared)))} shares the critical speed"
        )

    trivial = BranchPoint(s=0.0, c=c0, phi=CosineSeries(np.zeros(m * n + 1)),
                          residual_norm=0.0, newton_iters=0)
    branch = Branch(m=m, params=p, points=[trivial], truncation=n, tol=tol,
                    max_iter=max_iter, ds=ds, step_cap=step_cap,
                    step_growth=step_growth, direction=direction)

    s_abs = 0.0
    step = min(ds, step_cap)
    c = c0
    complement = np.zeros(n - 1)
    floor = ds / 2.0 ** STEP_HALVINGS
    weights = _jacobian_weights(m, n, p.alpha0 - p.beta)
    work = _QuadraticWork(m * n + 1, m * n + 1, 2 * m * n, p, same=True)
    while s_max - s_abs > 1e-15:
        step = min(step, step_cap, s_max - s_abs)
        s_try = direction * (s_abs + step)
        try:
            c_new, phi, rnorm, iters = _newton(
                c, complement.copy(), s_try, m, p, n, tol, max_iter, weights, work)
        except _SingularSystem:
            step /= 2.0
            if step < floor:
                raise NumericalError(
                    f"singular Newton system persists below step {floor:.3e} "
                    f"at |s| = {s_abs:.6g}"
                )
            continue
        except _NoConvergence as exc:
            branch.truncated = True
            branch.failure = (
                f"Newton did not converge within {max_iter} iterations at "
                f"s = {s_try:.6g} (residual {exc.residual_norm:.3e}); "
                f"branch truncated at |s| = {s_abs:.6g}"
            )
            break
        c = c_new
        complement = phi.a[_mfold_indices(m, n)[1:]].copy()
        s_abs += step
        branch.points.append(BranchPoint(s=s_try, c=c, phi=phi,
                                         residual_norm=rnorm,
                                         newton_iters=iters))
        step = min(step * step_growth, step_cap)
    return branch

