"""Time evolution of the surface-wave model, for validating branch points.

The equation advances f through

    (2 + α0 Λ) f_t = R[0, f],

with R the model's traveling-wave residual at speed zero: the linear
multiplier -i σ(k, 0) plus the one bilinear form Q (``model._multiplier``),
on the full spectrum rather than on the even lattice of
``model.residual``, since f need not be even.  The time derivative is that
divided, mode by mode, by 2 + α0 k (invertible for α0 > 0).  The mean mode
is a conserved mass.
Linearizing, mode k rotates at frequency ω_k = -σ(k, 0) / (2 + α0 k) =
(k - 1 + (α0 - β) k²) / (ε (2 + α0 k)) (``dispersion_frequency``, from
``model._symbol``), which equals -k times the critical speed at frequency
k: small-amplitude waves drift exactly as the bifurcation analysis predicts.

Time stepping is classical RK4 on the Galerkin-truncated system (quadratic
terms evaluated exactly, then projected), carried out on the complex
half-spectrum.  A stage evaluates Q on one of two routes, chosen in one
place by the state's mode count n (``_stage_route``):

- up to LATTICE_STAGE_MODES, the lattice route (``_LatticeStages``): the
  complex lattice matrix J(x) of ``model._SpectrumLattice``, with
  Q = ½ J(x) X on the full spectrum X, and the linear part on its
  diagonal, so the time derivative is one matrix-vector product with no
  FFT, O(n²) work;
- above it, the FFT route (``_FFTStages``): Q = P2 - i P1 from the two
  product spectra of ``model._products``, O(n log n) work, with the time
  derivative r1 P1 + r2 P2 + r3 x from the rows r1 = -i / mass (0 at
  k = 0), r2 = 1 / mass and r3 = -i σ(k, 0) / mass (``_stage_rows``).

The selection constant is measured: per stage, the lattice route is faster
through n = 40 whether BLAS runs one thread or several (at n = 8 about
2.3 µs against 8 µs, at n = 40 about 7-10 against 11-19 µs).  With BLAS
threads free it loses from about n = 48, where OpenBLAS starts to thread
the complex matrix-vector product; on one thread, from about n = 64; at
n = 128 it is about 3.5 times slower (2-vCPU VM, min of 7 runs).
Each route's constants are built once per integration and pre-scaled by the
stage steps dt/2, dt and dt/6, so each stage gives the scaled increments
d1 = (dt/2) k1, d2 = (dt/2) k2, d3 = dt k3, d4 = (dt/6) k4.  Each stage
writes the next stage input u + d straight into the route's input row, and
a step ends in one weighted sum u + d1/3 + 2 d2/3 + d3/3 + d4; nothing is
allocated, converted or viewed per stage.  Every state is classical RK4's
to roundoff: it is not the float an allocating loop of the textbook
formula gives, as the routes sum the same terms in another order, but
stays within 1e-13 relative of it.  Every step is checked for finiteness.
The initial data is taken on the ``EvolutionConfig.n_modes`` modes by its
degree (``_on_modes``), so a branch profile, zeros past the lattice its
branch solved on, runs on that lattice (``cli.cmd_evolve``).
A branch profile φ should translate rigidly at its speed c;
``traveling_error(φ, c, ...)`` measures the sup-norm deviation of the
trajectory's amplitude rows from the spectrally translated profile, sampled
on the grid of the trajectory's n modes: the independent check that
continuation produced genuine traveling waves.
``traveling_error_orders`` reports no rate between two errors at
the roundoff floor (ROUNDOFF_FLOOR ε_mach sup|φ|).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (ConfigurationError, NumericalError, require_integer, require_real,
                     require_size)
from .model import (_multiplier, _products, _QuadraticWork, _spectrum_matrix, _SpectrumLattice,
                    _symbol)
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
# the largest state, in modes, whose stages take the lattice route; above it
# the FFT route is faster (measured in the module docstring)
LATTICE_STAGE_MODES = 40


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
    """The bytes of the largest array of an integration at ``n_modes``, on
    the route that n takes (``_stage_route``)."""
    return _stage_route(n_modes).largest_bytes(n_modes)


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
    """Rotation frequency of mode k in the linearized equation,
    ω_k = -σ(k, 0) / (2 + α0 k)."""
    return -_symbol(k, 0.0, p) / (2.0 + p.alpha0 * k)


def stable_dt(n, p):
    """Largest step keeping every linear mode k <= n inside the RK4
    stability interval on the imaginary axis."""
    freqs = np.abs(dispersion_frequency(np.arange(1, require_integer("n", n, 0) + 1), p))
    top = freqs.max() if len(freqs) else 0.0
    return float("inf") if top == 0.0 else RK4_IMAGINARY_LIMIT / top


def rhs(f, p):
    """Time derivative of the field, truncated back to f's resolution.

    The quadratic terms are evaluated exactly before the Galerkin
    projection, on the route of f's mode count (``_stage_route``); the
    inverse mass operator divides mode k by 2 + α0 k.
    """
    u = _hat(f.a, f.b)
    stages = _stage_route(u.size - 1)(u.size, p)
    x = stages.work.u
    x[:] = u
    rate = stages.rate(x, stages.rows, stages.work, np.empty_like(u))
    return SpectralField(*_amplitudes(rate))


def _stage_route(n_modes):
    """The stage kernel of states of ``n_modes`` modes, the one place the
    route is chosen: ``_LatticeStages`` up to LATTICE_STAGE_MODES modes,
    ``_FFTStages`` above."""
    return _LatticeStages if n_modes <= LATTICE_STAGE_MODES else _FFTStages


class _LatticeStages:
    """The lattice route: the time derivative at x is A(x) X, X the full
    spectrum of x, with the stage matrix A(x) = ½ J(x) / mass plus
    -i σ(k, 0) / mass on the entries [k, l = k], J the matrix of ``work``,
    a ``model._SpectrumLattice`` (Q = ½ J X), and mass 2 + α0 k.  ``rows``
    holds ½ S / mass and -i σ(k, 0) / mass (mean zeroed), and ``evolve``
    scales both by each stage's step (``rate``).  Its work is O(n²),
    against the FFT route's O(n log n).  The state goes into the
    lattice's half-spectrum row ``work.u``, which the caller fills."""

    def __init__(self, size, p):
        self.work = _SpectrumLattice(size - 1, p.alpha0 - p.beta)
        mass = 2.0 + p.alpha0 * np.arange(size)
        self.rows = (self.work.weights * (0.5 / mass)[:, None],
                     _multiplier(size, 0.0, p) / mass)

    @staticmethod
    def largest_bytes(n_modes):
        """An (n + 1) × (2n + 1) complex matrix: the weights, their scaled
        copies and the stage matrix."""
        return 16 * (n_modes + 1) * (2 * n_modes + 1)

    @staticmethod
    def rate(x, rows, lattice, out):
        """h A(x) X into ``out``, for ``rows`` scaled by h and x in
        ``lattice.u``: the conjugate half, one weights-by-window product,
        the linear part added on the diagonal and one matrix-vector product,
        with no FFT."""
        weights, linear = rows
        matrix = _spectrum_matrix(lattice, weights)
        np.add(lattice.diagonal, linear, lattice.diagonal)
        return np.dot(matrix, lattice.spectrum, out)


class _FFTStages:
    """The FFT route: Q through ``model._products``' two product spectra
    in ``work``, a ``_QuadraticWork``, weighed by the ``_stage_rows``
    (``rate``).  The state goes into the workspace's input row
    ``work.u``, which the caller fills."""

    def __init__(self, size, p):
        self.work = _QuadraticWork(size, p)
        self.rows = _stage_rows(size, p)

    @staticmethod
    def largest_bytes(n_modes):
        """The factor spectrum of the ``_QuadraticWork``: 4 rows of the
        half-spectrum of the product grid of two degree-n states, complex."""
        return 4 * 16 * (_product_grid(n_modes, n_modes, n_modes) // 2 + 1)

    @staticmethod
    def rate(x, rows, work, out):
        """rows[0] P1 + rows[1] P2 + rows[2] x into ``out``, where P1, P2
        are Q(x, x)'s product spectra (``model._products`` through
        ``work``): the time derivative at x times the step the
        ``_stage_rows`` were scaled by.  P1 and P2 are weighed in place in
        ``work.prod``, which the next Q overwrites anyway."""
        _products(x, work)
        a, b, c = rows
        p1, p2 = work.p1, work.p2
        np.multiply(a, p1, p1)
        np.multiply(b, p2, p2)
        np.multiply(c, x, out)
        np.add(out, p1, out)
        np.add(out, p2, out)
        return out


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


def evolve(f0, p, cfg):
    """Integrate from f0 up to cfg.t_final with classical RK4.

    Aborts with a NumericalError carrying the last finite state and its time
    stamp if the solution stops being finite.  f0 is taken on cfg.n_modes
    modes (``_on_modes``): amplitudes past them must be zeros, as a branch
    profile's past its lattice are.  The state at t = 0 is f0's own
    amplitudes.  The saves, ⌈n_steps / save_every⌉ + 1 of them, pass the
    size rule with their half-spectra, 16 (n_modes + 1) bytes a save,
    before any is made.
    """
    state = _on_modes(f0, cfg.n_modes)
    n_steps = max(1, int(round(cfg.t_final / cfg.dt))) if cfg.t_final else 0
    dt = cfg.t_final / n_steps if n_steps else 0.0
    save_every = cfg.save_every or max(1, n_steps // 10)
    size = cfg.n_modes + 1
    require_size("saved states", -(-n_steps // save_every) + 1, 1, lambda n: 16 * size * n)
    saved = [*range(0, n_steps, save_every), n_steps]    # the steps saved
    spectra = np.empty((len(saved), size), dtype=complex)  # their half-spectra
    stages = _stage_route(cfg.n_modes)(size, p)
    half, full, sixth = ([h * row for row in stages.rows] for h in (0.5 * dt, dt, dt / 6.0))
    rate, work = stages.rate, stages.work
    # the state u and the scaled rates d1 = (dt/2) k1, d2 = (dt/2) k2,
    # d3 = dt k3, d4 = (dt/6) k4; stage inputs u + d1, u + d2, u + d3 and
    # the next state u + d1/3 + 2 d2/3 + d3/3 + d4 go to the route's input row work.u
    block = np.empty((5, size), dtype=complex)
    u, d1, d2, d3, d4 = block
    x = work.u
    x[:] = u[:] = spectra[0] = _hat(state.a, state.b)
    row = 1
    # overflow inside a stage carries inf or nan into the new state
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            rate(x, half, work, d1)
            np.add(u, d1, x)
            rate(x, half, work, d2)
            np.add(u, d2, x)
            rate(x, full, work, d3)
            np.add(u, d3, x)
            rate(x, sixth, work, d4)
            np.dot(RK4_WEIGHTS, block, x)
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


def _on_modes(f, n_modes):
    """f on the modes 0..n_modes: the zero amplitudes past its degree
    dropped, or zeros appended.  A degree above n_modes is refused."""
    if f.degree > n_modes:
        raise ConfigurationError(
            f"initial data has {f.n_modes} modes, above the configured {n_modes}")
    return f.truncate(n_modes).pad_to(n_modes)


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
    synthesis (``spectral._sup_norm``) on the grid of the trajectory's n
    modes, never coarser than a gap's own grid: the grid does not depend on
    which top modes roundoff leaves nonzero.  ``phi`` is taken on the
    trajectory's modes, as ``evolve`` takes it."""
    n = traj.a.shape[1] - 1
    phi = _on_modes(phi, n)
    phase = np.outer(c * traj.times, np.arange(phi.a.size, dtype=float))
    cos, sin = np.cos(phase), np.sin(phase)
    return _sup_norm(traj.a - (phi.a * cos - phi.b * sin),
                     traj.b - (phi.a * sin + phi.b * cos), n)


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
