"""Time evolution of the surface-wave model, for validating branch points.

The equation advances f through

    (2 + α0 Λ) f_t = (1/ε) { f_x + H[f] + (α0 - β) H[f_xx] }
                     + H[(Λ f)²] - ⟦H, f⟧[Λ f] + (α0 - β) ⟦H, f⟧[Λ³ f],

so the time derivative is the bracket divided, mode by mode, by 2 + α0 k
(invertible for α0 > 0).  The mean mode is a conserved mass.  Linearizing,
mode k rotates at frequency ω_k = (k - 1 + (α0 - β) k²) / (ε (2 + α0 k)),
which equals -k times the critical speed at frequency k: small-amplitude
waves drift exactly as the bifurcation analysis predicts.

Time stepping is classical RK4 on the Galerkin-truncated system (quadratic
terms evaluated exactly, then projected).  A branch profile should translate
rigidly at its speed; ``traveling_error`` measures the sup-norm deviation
from the spectrally translated profile and is the independent check that
continuation produced genuine traveling waves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError
from .spectral import SpectralField, commutator_h, derivative, hilbert, multiply, translate, zygmund

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
        if self.t_final < 0:
            raise ConfigurationError(f"t_final must be >= 0, got {self.t_final}")
        if self.n_modes < 1:
            raise ConfigurationError("n_modes must be >= 1")
        if self.scheme != "rk4":
            raise ConfigurationError(f"unsupported scheme {self.scheme!r}")
        if self.save_every < 0:
            raise ConfigurationError("save_every must be >= 0")


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
    freqs = np.abs([dispersion_frequency(k, p) for k in range(1, n + 1)])
    top = freqs.max() if len(freqs) else 0.0
    return float("inf") if top == 0.0 else RK4_IMAGINARY_LIMIT / top


def rhs(f, p):
    """Time derivative of the field, truncated back to f's resolution.

    The quadratic terms are evaluated with exact dealiasing before the
    Galerkin projection; the inverse mass operator divides mode k by
    2 + α0 k.
    """
    n = f.n_modes
    g = p.alpha0 - p.beta
    lam = zygmund(f)
    bracket = (1.0 / p.epsilon) * (derivative(f, 1) + hilbert(f)
                                   + g * hilbert(derivative(f, 2))) \
        + hilbert(multiply(lam, lam)) \
        - commutator_h(f, lam)
    if g != 0.0:
        bracket = bracket + g * commutator_h(f, zygmund(zygmund(lam)))
    bracket = bracket.truncate(n)
    mass = 2.0 + p.alpha0 * np.arange(n + 1)
    return SpectralField(bracket.a / mass, bracket.b / mass,
                         grid_size=bracket.grid_size)


def evolve(f0, p, cfg):
    """Integrate from f0 up to cfg.t_final with classical RK4.

    Aborts with a NumericalError carrying the last finite state and its time
    stamp if the solution stops being finite.
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
    mass0 = state.mean
    drift = 0.0
    for step in range(1, n_steps + 1):
        try:
            # overflow inside a stage trips the field finiteness guard;
            # either way the abort carries the last finite state
            with np.errstate(over="ignore", invalid="ignore"):
                k1 = rhs(state, p)
                k2 = rhs(state + (0.5 * dt) * k1, p)
                k3 = rhs(state + (0.5 * dt) * k2, p)
                k4 = rhs(state + dt * k3, p)
                new = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not (np.isfinite(new.a).all() and np.isfinite(new.b).all()):
                raise ConfigurationError("non-finite state")
        except ConfigurationError:
            raise NumericalError(
                f"solution lost finiteness during step {step} (t = {step * dt:.6g})",
                time=(step - 1) * dt, last_state=state) from None
        state = new
        if step % save_every == 0 or step == n_steps:
            times.append(step * dt)
            states.append(state)
            drift = max(drift, abs(state.mean - mass0))
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
