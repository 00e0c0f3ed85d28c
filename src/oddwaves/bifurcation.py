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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError
from .model import (
    ModelParams,
    _jacobian,
    _jacobian_weights,
    _mfold_indices,
    assemble_jacobian,
    critical_speed,
    d_c_symbol,
    residual,
    symbol_at,
)
from .spectral import CosineSeries

__all__ = [
    "BifurcationPoint",
    "BranchPoint",
    "Branch",
    "detect_bifurcations",
    "kernel_dimension",
    "transversality",
    "continue_branch",
    "branch_to_csv",
    "branch_to_json",
]

DEFAULT_TRUNCATION = 64
DEFAULT_TOL = 1e-11
DEFAULT_MAX_ITER = 25
DEFAULT_STEP = 1e-3
DEFAULT_STEP_CAP = 1e-2
DEFAULT_STEP_GROWTH = 2.0
SIMPLE_RTOL = 1e-10        # relative floor for "multiplier is nonzero"
STEP_HALVINGS = 20         # singular-system retries before giving up


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
    phi: CosineSeries
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
    """Natural magnitude of the multiplier's terms at frequency k."""
    g = p.alpha0 - p.beta
    return (abs(2.0 * c + 1.0 / p.epsilon) * k + 1.0 / p.epsilon
            + abs(c * p.alpha0 + g / p.epsilon) * k * k)


def detect_bifurcations(p, k_max, n_scan=DEFAULT_TRUNCATION, rel_tol=SIMPLE_RTOL):
    """Critical speeds c_k for k <= k_max with a simplicity flag.

    c_k is simple when no other frequency j <= n_scan has a vanishing
    multiplier at speed c_k (relative to the terms' natural size).  Resonant
    pairs sharing a speed are flagged non-simple, never silently accepted.
    """
    if k_max < 1 or int(k_max) != k_max:
        raise ConfigurationError(f"k_max must be a positive integer, got {k_max!r}")
    n_scan = max(int(n_scan), int(k_max) + 1)
    out = []
    for k in range(1, int(k_max) + 1):
        ck = critical_speed(k, p)
        simple = all(
            abs(symbol_at(j, ck, p)) > rel_tol * _symbol_scale(j, ck, p)
            for j in range(1, n_scan + 1) if j != k
        )
        out.append(BifurcationPoint(k=k, speed=ck, simple=simple))
    return out


def kernel_dimension(c, p, m, n):
    """Numerical kernel dimension of the flat-state linearization on the
    m-fold basis: singular values below 1e-8 times the largest."""
    if n < 4:
        raise ConfigurationError("kernel_dimension needs truncation n >= 4")
    flat = CosineSeries(np.zeros(m * n + 1))
    svals = np.linalg.svd(assemble_jacobian(c, flat, p, n, m), compute_uv=False)
    if svals[0] == 0.0:
        return n
    return int(np.count_nonzero(svals < 1e-8 * svals[0]))


def transversality(k, p):
    """True when the speed-derivative of the multiplier at frequency k is
    nonzero (always holds for alpha0 > 0)."""
    return d_c_symbol(k, p) != 0.0


class _SingularSystem(Exception):
    pass


class _NoConvergence(Exception):
    def __init__(self, residual_norm):
        super().__init__(f"Newton stalled at residual {residual_norm:.3e}")
        self.residual_norm = residual_norm


def _assemble_phi(s, complement, m, n):
    a = np.zeros(m * n + 1)
    a[m] = s
    if n > 1:
        a[_mfold_indices(m, n)[1:]] = complement
    return CosineSeries(a)


def _newton(c, complement, s, m, p, n, tol, max_iter, weights):
    """Solve the amplitude-constrained system for (c, φ_2..φ_n).

    Equations are the sine amplitudes of the residual at frequencies
    m, 2m, ..., nm; acceptance requires the full residual sup-norm
    (all modes, tail included) below tol.  ``weights`` are the branch's
    ``_jacobian_weights``.
    """
    rows = _mfold_indices(m, n)
    for it in range(max_iter + 1):
        phi = _assemble_phi(s, complement, m, n)
        res = residual(c, phi, p)
        rnorm = res.sup_norm()
        if rnorm < tol:
            return c, phi, rnorm, it
        if it == max_iter:
            raise _NoConvergence(rnorm)
        jac = _jacobian(c, phi.a, p, m, n, speed_column=True, weights=weights)
        rhs = -res.b[rows]
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

    Newton non-convergence truncates the branch at the last converged point
    (reported on the returned Branch); a singular Newton system triggers
    step halving and, past the halving floor, a NumericalError.
    """
    if m < 1 or int(m) != m:
        raise ConfigurationError("fold m must be a positive integer")
    if not (s_max >= 0):
        raise ConfigurationError("s_max must be >= 0")
    if not (ds > 0):
        raise ConfigurationError("ds must be > 0")
    if not (tol >= 1e-12):
        raise ConfigurationError("tol below 1e-12 is not resolvable")
    if n < 2:
        raise ConfigurationError("need at least 2 modes to constrain the branch")
    if direction not in (1, -1):
        raise ConfigurationError("direction must be +1 or -1")
    m, n = int(m), int(n)

    c0 = critical_speed(m, p)
    if not transversality(m, p):
        raise ConfigurationError(f"transversality fails at fold {m}")
    for j in range(2, n + 1):
        if abs(symbol_at(m * j, c0, p)) <= SIMPLE_RTOL * _symbol_scale(m * j, c0, p):
            raise ConfigurationError(
                f"(c_{m}, 0) is not simple in the {m}-fold space: "
                f"frequency {m * j} shares the critical speed"
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
    while s_max - s_abs > 1e-15:
        step = min(step, step_cap, s_max - s_abs)
        s_try = direction * (s_abs + step)
        try:
            c_new, phi, rnorm, iters = _newton(
                c, complement.copy(), s_try, m, p, n, tol, max_iter, weights)
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


# -- serialization ------------------------------------------------------------


def branch_records(branch):
    """One flat record per point: s, c, residual_norm, newton_iters, then the
    n m-fold cosine coefficients."""
    idx = _mfold_indices(branch.m, branch.truncation)
    recs = []
    for pt in branch.points:
        rec = [float(pt.s), float(pt.c), float(pt.residual_norm), int(pt.newton_iters)]
        rec.extend(pt.phi.a[idx].tolist())
        recs.append(rec)
    return recs


def branch_to_csv(branch):
    """CSV text: header row, then one record per branch point."""
    cols = ["s", "c", "residual_norm", "newton_iters"]
    cols += [f"coeff_{j}" for j in range(1, branch.truncation + 1)]
    lines = [",".join(cols)]
    for rec in branch_records(branch):
        cells = [repr(v) if isinstance(v, float) else str(v) for v in rec]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def branch_to_json(branch):
    """JSON-ready envelope: parameters, fold, truncation, tolerances, code
    version, and the same records as the CSV."""
    from . import __version__

    return {
        "version": __version__,
        "params": {"epsilon": branch.params.epsilon,
                   "alpha0": branch.params.alpha0,
                   "beta": branch.params.beta},
        "fold": branch.m,
        "truncation": branch.truncation,
        "tolerances": {"tol": branch.tol, "max_iter": branch.max_iter,
                       "ds": branch.ds, "step_cap": branch.step_cap,
                       "step_growth": branch.step_growth},
        "direction": branch.direction,
        "truncated": branch.truncated,
        "failure": branch.failure,
        "records": branch_records(branch),
    }
