"""Time evolution of the surface-wave model, for validating branch points.

The equation advances f through

    (2 + α0 Λ) f_t = R[0, f],

with R the model's traveling-wave residual at speed zero: the linear
multiplier -i σ(k, 0) plus the one bilinear form Q (``model._multiplier``
and ``model._products``), on the product grid rather than on the lattice
of ``model.residual``, since f need not be even.  The time derivative is
that divided, mode by mode, by 2 + α0 k (invertible for α0 > 0).  The mean
mode is a conserved mass.
Linearizing, mode k rotates at frequency ω_k = (k - 1 + (α0 - β) k²) /
(ε (2 + α0 k)), which equals -k times the critical speed at frequency k:
small-amplitude waves drift exactly as the bifurcation analysis predicts.

Time stepping is classical RK4 on the Galerkin-truncated system (quadratic
terms evaluated exactly, then projected), carried out on the complex
half-spectrum.  With Q = P2 - i P1 from its two product spectra, the time
derivative at x is r1 P1 + r2 P2 + r3 x with the rows r1 = -i / mass (0 at
k = 0), r2 = 1 / mass and r3 = -i σ(k, 0) / mass (``_stage_rows``).  They
are built once per integration and pre-scaled by the stage steps dt/2, dt
and dt/6, so each stage is one Q and one fused rate giving the scaled
increments d1 = (dt/2) k1, d2 = (dt/2) k2, d3 = dt k3, d4 = (dt/6) k4
(``_rate``).  Each stage writes the next stage input u + d straight into
Q's input row, and a step ends in one weighted sum u + d1/3 + 2 d2/3 +
d3/3 + d4; nothing is allocated per stage.  Every state is classical RK4's
to roundoff: it is not the float an allocating loop of the textbook
formula gives, as the rows sum the same terms in another order, but stays
within 1e-13 relative of it.  Every step is checked for finiteness.
A branch profile φ should translate rigidly at its speed c;
``traveling_error(φ, c, ...)`` measures the sup-norm deviation of the
trajectory's amplitude rows from the spectrally translated profile: the
independent check that continuation produced genuine traveling waves.
``traveling_error_orders`` reports no rate between two errors at
the roundoff floor (ROUNDOFF_FLOOR ε_mach sup|φ|).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (ConfigurationError, NumericalError, require_integer, require_real,
                     require_size)
from .model import _multiplier, _products, _QuadraticWork
from .spectral import SpectralField, _amplitudes, _hat, _product_grid, _sup_norm

__all__ = [
    "EvolutionConfig",
    "Trajectory",
    "dispersion_frequency",
    "stable_dt",
    "rhs",
    "evolve",
    "traveling_error",
    "traveling_error_orders",
]

RK4_IMAGINARY_LIMIT = 2.0 * np.sqrt(2.0)  # stability interval on the imaginary axis
ROUNDOFF_FLOOR = 1e3  # a traveling error at most this many ε_mach sup|φ| is roundoff
# the weights of u, d1..d4 in u + (dt/6)(k1 + 2 k2 + 2 k3 + k4), with the
# scaled rates d1 = (dt/2) k1, d2 = (dt/2) k2, d3 = dt k3, d4 = (dt/6) k4
RK4_WEIGHTS = np.array([1.0, 1.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0, 1.0], dtype=complex)
RK4_WEIGHTS.setflags(write=False)


@dataclass(frozen=True)
class EvolutionConfig:
    """Fixed-step integration settings.

    save_every = 0 picks about ten snapshots automatically.  The actual step
    is t_final / round(t_final / dt), recorded on the trajectory, so the
    quotient t_final / dt must be finite.  n_modes passes the size rule
    with the bytes of an integration's largest array (``_integration_bytes``).
    """

    dt: float
    t_final: float
    n_modes: int = 64
    save_every: int = 0

    def __post_init__(self):
        dt = require_real("dt", self.dt, 0, strict=True)
        t_final = require_real("t_final", self.t_final, 0)
        require_real("t_final / dt", t_final / dt)
        require_size("n_modes", self.n_modes, 1, _integration_bytes)
        require_integer("save_every", self.save_every, 0)


def _integration_bytes(n_modes):
    """The bytes of the largest array of an integration at ``n_modes``: the
    factor spectrum of Q's ``_QuadraticWork``, 4 rows of the half-spectrum
    of the product grid of two degree-``n_modes`` states, complex."""
    return 4 * 16 * (_product_grid(n_modes, n_modes, n_modes) // 2 + 1)


@dataclass
class Trajectory:
    """The cosine and sine amplitude rows ``a``, ``b`` of one integration's
    states, one row per save time, the step it took (0.0 when t_final is 0)
    and the largest drift of the conserved mean over the saved states.
    The stability limit is a function of the inputs: ``stable_dt``."""

    times: np.ndarray
    a: np.ndarray
    b: np.ndarray
    dt_effective: float
    mass_drift: float


def dispersion_frequency(k, p):
    """Rotation frequency of mode k in the linearized equation."""
    g = p.alpha0 - p.beta
    return (k - 1.0 + g * k * k) / (p.epsilon * (2.0 + p.alpha0 * k))


def stable_dt(n, p):
    """Largest step keeping every linear mode k <= n inside the RK4
    stability interval on the imaginary axis."""
    freqs = np.abs(dispersion_frequency(np.arange(1, require_integer("n", n, 0) + 1), p))
    top = freqs.max() if len(freqs) else 0.0
    return float("inf") if top == 0.0 else RK4_IMAGINARY_LIMIT / top


def rhs(f, p):
    """Time derivative of the field, truncated back to f's resolution.

    The quadratic terms are evaluated with exact dealiasing before the
    Galerkin projection; the inverse mass operator divides mode k by
    2 + α0 k.
    """
    u = _hat(f.a, f.b)
    work = _QuadraticWork(u.size, p)
    rate = _rate(u, _stage_rows(u.size, p), work, np.empty_like(u))
    return SpectralField(*_amplitudes(rate))


def _stage_rows(size, p):
    """The rows that turn Q's product spectra P1, P2 of a state x, and x
    itself, into its time derivative on the half-spectrum modes
    0..size-1: -i / mass (0 at k = 0, where Q has no P1 term), 1 / mass and
    -i σ(k, 0) / mass (mean zeroed), with mass 2 + α0 k.  ``evolve`` builds
    them once per integration and scales them by each stage's step."""
    mass = 2.0 + p.alpha0 * np.arange(size)
    rows = np.array([-1j / mass, 1.0 / mass, _multiplier(size, 0.0, p) / mass])
    rows[0, 0] = 0.0
    return rows


def _rate(x, rows, work, out):
    """rows[0] P1 + rows[1] P2 + rows[2] x into ``out``, where P1, P2 are
    Q(x, x)'s product spectra (``model._products`` through ``work``, the
    ``_QuadraticWork`` of x's size): the time derivative at x times the step
    the ``_stage_rows`` were scaled by.  P1 and P2 are weighed in place in
    ``work.prod``, which the next Q overwrites anyway."""
    _products(x, work)
    a, b, c = rows
    np.multiply(a, work.p1, out=work.p1)
    np.multiply(b, work.p2, out=work.p2)
    np.multiply(c, x, out=out)
    out += work.p1
    out += work.p2
    return out


def evolve(f0, p, cfg):
    """Integrate from f0 up to cfg.t_final with classical RK4.

    Aborts with a NumericalError carrying the last finite state and its time
    stamp if the solution stops being finite.  Saved states are padded to
    cfg.n_modes; the state at t = 0 is f0's own amplitudes.  The saves,
    ⌈n_steps / save_every⌉ + 1 of them, pass the size rule with their
    half-spectra, 16 (n_modes + 1) bytes a save, before any is made.
    """
    if f0.n_modes > cfg.n_modes:
        raise ConfigurationError(
            f"initial data has {f0.n_modes} modes, above the configured {cfg.n_modes}"
        )
    state = f0.pad_to(cfg.n_modes)
    n_steps = max(1, int(round(cfg.t_final / cfg.dt))) if cfg.t_final else 0
    dt = cfg.t_final / n_steps if n_steps else 0.0
    save_every = cfg.save_every or max(1, n_steps // 10)
    size = cfg.n_modes + 1
    require_size("saved states", -(-n_steps // save_every) + 1, 1, lambda n: 16 * size * n)
    saved = [*range(0, n_steps, save_every), n_steps]    # the steps saved
    spectra = np.empty((len(saved), size), dtype=complex)  # their half-spectra
    rows = _stage_rows(size, p)
    half, full, sixth = (tuple(h * rows) for h in (0.5 * dt, dt, dt / 6.0))
    work = _QuadraticWork(size, p)
    # the state u and the scaled rates d1 = (dt/2) k1, d2 = (dt/2) k2,
    # d3 = dt k3, d4 = (dt/6) k4; stage inputs u + d1, u + d2, u + d3 and
    # the next state u + d1/3 + 2 d2/3 + d3/3 + d4 go to Q's input row
    block = np.empty((5, size), dtype=complex)
    u, d1, d2, d3, d4 = block
    x = work.u
    x[:] = u[:] = spectra[0] = _hat(state.a, state.b)
    row = 1
    # overflow inside a stage carries inf or nan into the new state
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            _rate(x, half, work, d1)
            np.add(u, d1, out=x)
            _rate(x, half, work, d2)
            np.add(u, d2, out=x)
            _rate(x, full, work, d3)
            np.add(u, d3, out=x)
            _rate(x, sixth, work, d4)
            np.dot(RK4_WEIGHTS, block, out=x)
            if not np.isfinite(x).all():
                raise NumericalError(
                    f"solution lost finiteness during step {step} (t = {step * dt:.6g})",
                    time=(step - 1) * dt, last_state=SpectralField(*_amplitudes(u)))
            np.copyto(u, x)
            if step == saved[row]:
                spectra[row] = u
                row += 1
    a, b = _amplitudes(spectra)
    a[0], b[0] = state.a, state.b   # row 0 unconverted: the round trip loses subnormals
    return Trajectory(times=dt * np.array(saved), a=a, b=b, dt_effective=dt,
                      mass_drift=float(np.abs(a[:, 0] - a[0, 0]).max()))


def traveling_error(phi, c, p, cfg):
    """Largest sup-norm gap between the evolved profile φ and its own rigid
    translation x -> x - c t, over the trajectory's save times.

    The translation is applied spectrally (an exact per-mode phase), so the
    comparison has no interpolation error.
    """
    return _translation_gap(phi, c, evolve(phi, p, cfg))


def _translation_gap(phi, c, traj):
    """Largest sup-norm gap between a trajectory started from ``phi`` and
    the rigid translation of that profile at speed ``c``.  The translates
    at every save time are built at once and subtracted from the
    trajectory's amplitude rows, and the gaps are sampled by one stacked
    synthesis (``spectral._sup_norm``) on the grid of the largest degree
    among them, never coarser than a gap's own grid."""
    phi = phi.pad_to(traj.a.shape[1] - 1)
    phase = np.outer(c * traj.times, np.arange(phi.a.size, dtype=float))
    cos, sin = np.cos(phase), np.sin(phase)
    return _sup_norm(traj.a - (phi.a * cos - phi.b * sin),
                     traj.b - (phi.a * sin + phi.b * cos))


def traveling_error_orders(phi, c, p, cfg, halvings=2, base_error=None):
    """Traveling errors at dt, dt/2, ..., plus the log2 decay rates between
    consecutive halvings (RK4 should give rates near 4 while the error sits
    above the converged-profile floor).  A rate is None when both of its
    errors sit at the roundoff floor, ROUNDOFF_FLOOR ε_mach sup|φ|: their
    quotient says nothing about the order.  A caller that has already
    integrated at ``cfg.dt`` passes that error as ``base_error``, and only
    the halved steps are integrated."""
    halvings = require_integer("halvings", halvings, 1)
    dts = [cfg.dt / 2 ** i for i in range(halvings + 1)]
    errs = [] if base_error is None else [base_error]
    for dt in dts[len(errs):]:
        errs.append(traveling_error(phi, c, p, replace(cfg, dt=dt)))
    floor = ROUNDOFF_FLOOR * np.finfo(float).eps * phi.sup_norm()
    rates = [None if max(errs[i], errs[i + 1]) <= floor
             else float(np.log2(errs[i] / errs[i + 1])) if errs[i + 1] > 0 else float("inf")
             for i in range(len(errs) - 1)]
    return errs, rates
