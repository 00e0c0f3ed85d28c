"""Time evolution of the surface-wave model, for validating branch points.

The equation advances f through

    (2 + α0 Λ) f_t = R[0, f],

with R the model's traveling-wave residual at speed zero: the linear
multiplier -i σ(k, 0) plus the one bilinear form Q (``model._multiplier``
and ``model._quadratic``).  The time derivative is that divided, mode by
mode, by 2 + α0 k (invertible for α0 > 0).  The mean mode is a conserved mass.
Linearizing, mode k rotates at frequency ω_k = (k - 1 + (α0 - β) k²) /
(ε (2 + α0 k)), which equals -k times the critical speed at frequency k:
small-amplitude waves drift exactly as the bifurcation analysis predicts.

Time stepping is classical RK4 on the Galerkin-truncated system (quadratic
terms evaluated exactly, then projected), carried out on the complex
half-spectrum.  The stage workspace is allocated once per integration: the
multiplier and the divisor (``_stage_constants``), Q's factor spectrum (a
``model._QuadraticWork``), and one block holding the state, the next
state, the stage input and k1..k4.  A stage then costs one Q, with one
stacked inverse and one stacked forward FFT whose outputs are the only
arrays it allocates, plus in-place array operations in the order of the
textbook formula, so every state is the float an allocating loop gives.
A branch profile should translate rigidly at its speed; ``traveling_error``
measures the sup-norm deviation from the spectrally translated profile and
is the independent check that continuation produced genuine traveling
waves.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import ConfigurationError, NumericalError
from .model import _multiplier, _quadratic, _QuadraticWork
from .spectral import SpectralField, _amplitudes, _hat, translate

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


@dataclass(frozen=True)
class EvolutionConfig:
    """Fixed-step integration settings.

    save_every = 0 picks about ten snapshots automatically.  The actual step
    is t_final / round(t_final / dt), recorded on the trajectory.
    """

    dt: float
    t_final: float
    n_modes: int = 64
    scheme: str = "rk4"
    save_every: int = 0

    def __post_init__(self):
        if not (self.dt > 0):
            raise ConfigurationError(f"dt must be > 0, got {self.dt}")
        if not (0 <= self.t_final < np.inf):
            raise ConfigurationError(f"t_final must be finite and >= 0, got {self.t_final}")
        if not isinstance(self.n_modes, Integral) or self.n_modes < 1:
            raise ConfigurationError(f"n_modes must be an integer >= 1, got {self.n_modes!r}")
        if self.scheme != "rk4":
            raise ConfigurationError(f"unsupported scheme {self.scheme!r}")
        if not isinstance(self.save_every, Integral) or self.save_every < 0:
            raise ConfigurationError(
                f"save_every must be an integer >= 0, got {self.save_every!r}")


@dataclass
class Trajectory:
    """Snapshots of one integration, with conservation diagnostics."""

    times: np.ndarray
    states: list[SpectralField]
    dt_effective: float
    dt_stable: float
    mass_drift: float


def dispersion_frequency(k, p):
    """Rotation frequency of mode k in the linearized equation."""
    g = p.alpha0 - p.beta
    return (k - 1.0 + g * k * k) / (p.epsilon * (2.0 + p.alpha0 * k))


def stable_dt(n, p):
    """Largest step keeping every linear mode k <= n inside the RK4
    stability interval on the imaginary axis."""
    freqs = np.abs(dispersion_frequency(np.arange(1, n + 1), p))
    top = freqs.max() if len(freqs) else 0.0
    return float("inf") if top == 0.0 else RK4_IMAGINARY_LIMIT / top


def rhs(f, p):
    """Time derivative of the field, truncated back to f's resolution.

    The quadratic terms are evaluated with exact dealiasing before the
    Galerkin projection; the inverse mass operator divides mode k by
    2 + α0 k.
    """
    u = _hat(f.a, f.b)
    return SpectralField(*_amplitudes(_rhs_hat(u, p, *_stage_constants(u.size, p))))


def _stage_constants(size, p):
    """The fixed arrays of the time derivative on the half-spectrum modes
    0..size-1: the multiplier -i σ(k, 0) (mean zeroed) and the mass divisor
    2 + α0 k, stored complex as the division would cast it.  ``evolve``
    builds them once per integration."""
    return _multiplier(size, 0.0, p), (2.0 + p.alpha0 * np.arange(size)).astype(complex)


def _rhs_hat(u, p, mult, mass, work=None, out=None):
    """``rhs`` on the half-spectrum u, given its ``_stage_constants``:
    (mult u + Q(u, u)) / mass.  With ``work`` (the ``model._QuadraticWork``
    of u's size) and ``out``, every step but the two FFTs runs in place."""
    q = _quadratic(u, u, p, u.size - 1, work)
    out = np.multiply(mult, u, out=out)
    out += q
    out /= mass
    return out


def evolve(f0, p, cfg):
    """Integrate from f0 up to cfg.t_final with classical RK4.

    Aborts with a NumericalError carrying the last finite state and its time
    stamp if the solution stops being finite.  Saved states are padded to
    cfg.n_modes.
    """
    if f0.n_modes > cfg.n_modes:
        raise ConfigurationError(
            f"initial data has {f0.n_modes} modes, above the configured {cfg.n_modes}"
        )
    state = f0.pad_to(cfg.n_modes)
    if cfg.t_final == 0:
        return Trajectory(times=np.array([0.0]), states=[state],
                          dt_effective=0.0, dt_stable=stable_dt(cfg.n_modes, p),
                          mass_drift=0.0)
    n_steps = max(1, int(round(cfg.t_final / cfg.dt)))
    dt = cfg.t_final / n_steps
    save_every = cfg.save_every or max(1, n_steps // 10)
    times = [0.0]
    states = [state]
    size = cfg.n_modes + 1
    mult, mass = _stage_constants(size, p)
    work = _QuadraticWork(size, size, size - 1, p, same=True)
    # the state, the next state, a scaled rate (dt/2) k or dt k, and k1..k4;
    # each stage input u + (dt/2) k is written into the row Q reads it from
    block = np.empty((7, size), dtype=complex)
    u, new, dk, k1, k2, k3, k4 = block
    k23 = block[4:6]                         # k2 and k3, doubled in one call
    stage = work.u
    u[:] = _hat(state.a, state.b)
    half, sixth = 0.5 * dt, dt / 6.0
    mass0 = state.mean
    drift = 0.0
    # overflow inside a stage carries inf or nan into the new state
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            # each line is one operation of u + (dt/6)(k1 + 2k2 + 2k3 + k4),
            # with stage inputs u + (dt/2) k1, u + (dt/2) k2, u + dt k3
            _rhs_hat(u, p, mult, mass, work, k1)
            np.multiply(half, k1, out=dk)
            np.add(u, dk, out=stage)
            _rhs_hat(stage, p, mult, mass, work, k2)
            np.multiply(half, k2, out=dk)
            np.add(u, dk, out=stage)
            _rhs_hat(stage, p, mult, mass, work, k3)
            np.multiply(dt, k3, out=dk)
            np.add(u, dk, out=stage)
            _rhs_hat(stage, p, mult, mass, work, k4)
            np.multiply(2.0, k23, out=k23)
            np.add(k1, k2, out=k2)
            np.add(k2, k3, out=k2)
            np.add(k2, k4, out=k2)
            np.multiply(sixth, k2, out=k2)
            np.add(u, k2, out=new)
            if not np.isfinite(new).all():
                raise NumericalError(
                    f"solution lost finiteness during step {step} (t = {step * dt:.6g})",
                    time=(step - 1) * dt, last_state=SpectralField(*_amplitudes(u)))
            u, new = new, u
            if step % save_every == 0 or step == n_steps:
                times.append(step * dt)
                states.append(SpectralField(*_amplitudes(u)))
                drift = max(drift, abs(states[-1].mean - mass0))
    return Trajectory(times=np.array(times), states=states, dt_effective=dt,
                      dt_stable=stable_dt(cfg.n_modes, p), mass_drift=drift)


def traveling_error(point, p, cfg):
    """Largest sup-norm gap between the evolved branch profile and its own
    rigid translation x -> x - c t, over the trajectory's save times.

    The translation is applied spectrally (an exact per-mode phase), so the
    comparison has no interpolation error.
    """
    return _translation_gap(point, evolve(point.phi, p, cfg))


def _translation_gap(point, traj):
    """Largest sup-norm gap between a trajectory started from ``point.phi``
    and the rigid translation of that profile at speed ``point.c``."""
    phi = point.phi.pad_to(traj.states[0].n_modes)
    worst = 0.0
    for t, state in zip(traj.times, traj.states):
        worst = max(worst, (state - translate(phi, point.c * t)).sup_norm())
    return worst


def traveling_error_orders(point, p, cfg, halvings=2, base_error=None):
    """Traveling errors at dt, dt/2, ..., plus the log2 decay rates between
    consecutive halvings (RK4 should give rates near 4 while the error sits
    above the converged-profile floor).  A caller that has already
    integrated at ``cfg.dt`` passes that error as ``base_error``, and only
    the halved steps are integrated."""
    if halvings < 1:
        raise ConfigurationError("need at least one halving")
    dts = [cfg.dt / 2 ** i for i in range(halvings + 1)]
    errs = [] if base_error is None else [base_error]
    for dt in dts[len(errs):]:
        sub = EvolutionConfig(dt=dt, t_final=cfg.t_final, n_modes=cfg.n_modes,
                              scheme=cfg.scheme, save_every=cfg.save_every)
        errs.append(traveling_error(point, p, sub))
    rates = [float(np.log2(errs[i] / errs[i + 1])) if errs[i + 1] > 0 else float("inf")
             for i in range(len(errs) - 1)]
    return errs, rates
