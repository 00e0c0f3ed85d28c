"""Integer and finite settings are refused up front, by name, with a
``ConfigurationError``: never truncated silently or left to a raw
``TypeError`` from deep inside the computation.  Sample grids obey one rule
wherever they are set."""

import tracemalloc

import numpy as np
import pytest

from oddwaves import (ConfigurationError, CosineSeries, EvolutionConfig, ModelParams,
                      SpectralField, assemble_jacobian, bifurcation, cli, commutator_ratio,
                      commutator_sweep, continue_branch, critical_speed, d_c_symbol, derivative,
                      detect_bifurcations, holder_norm, kernel_dimension, residual, symbol_at,
                      translate)
from oddwaves import evolution, holder, model
from oddwaves.errors import ARRAY_BYTES_CEILING
from oddwaves.evolution import _integration_bytes, evolve, stable_dt, traveling_error_orders
from oddwaves.holder import _seminorms, _wrapped_bytes
from oddwaves.spectral import to_spectral

from helpers import as_fields, cosine

P = ModelParams(epsilon=0.5, alpha0=1.0, beta=0.0)
_ORDER_CFG = EvolutionConfig(dt=1e-3, t_final=0.004, n_modes=8)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: continue_branch(1, P, 0.01, n=8.7),
                 "truncation n must be an integer", id="branch-n-8.7"),
    pytest.param(lambda: continue_branch(1, P, 0.01, n=8.0),
                 "truncation n must be an integer", id="branch-n-8.0"),
    pytest.param(lambda: EvolutionConfig(dt=1e-3, t_final=0.01, n_modes=2.5),
                 "n_modes must be an integer", id="evolution-n_modes"),
    pytest.param(lambda: EvolutionConfig(dt=1e-3, t_final=0.004, save_every=1.5),
                 "save_every must be an integer", id="evolution-save_every"),
    pytest.param(lambda: commutator_sweep(2.5, 10),
                 "ensemble size must be an integer", id="sweep-ensemble"),
    pytest.param(lambda: commutator_sweep(4, 2.5),
                 "max_degree must be an integer", id="sweep-max_degree"),
    pytest.param(lambda: commutator_sweep(4, 10, seed=1.5),
                 "seed must be an integer", id="sweep-seed"),
    pytest.param(lambda: holder_norm(cosine(2), 1.0, 0.5),
                 "derivative count k must be an integer", id="holder-k"),
    pytest.param(lambda: holder_norm(cosine(2), 1, 0.5, grid_size=1024.0),
                 "the Hölder grid must be an integer", id="holder-grid"),
    pytest.param(lambda: holder_norm(cosine(2), 4, 0.5),
                 "derivative count k must be an integer 0..3", id="holder-k-4"),
    pytest.param(lambda: cosine(2).values(10.7),
                 "the sample grid must be an integer", id="values-grid"),
    pytest.param(lambda: kernel_dimension(critical_speed(1, P), P, 1, 8.5),
                 "truncation n must be an integer", id="kernel-n"),
    pytest.param(lambda: detect_bifurcations(P, 3, n_scan=8.5),
                 "n_scan must be an integer", id="detect-n_scan"),
    pytest.param(lambda: detect_bifurcations(P, 2.0),
                 "k_max must be an integer >= 1, got 2.0", id="detect-k_max-2.0"),
    pytest.param(lambda: kernel_dimension(critical_speed(1, P), P, 1.5, 8),
                 "fold m must be an integer >= 1, got 1.5", id="kernel-fold-1.5"),
    pytest.param(lambda: kernel_dimension(critical_speed(2, P), P, 2.0, 8),
                 "fold m must be an integer >= 1, got 2.0", id="kernel-fold-2.0"),
    pytest.param(lambda: continue_branch(2.0, P, 0.01),
                 "fold m must be an integer >= 1, got 2.0", id="branch-fold-2.0"),
    pytest.param(lambda: critical_speed(2.0, P),
                 "mode index must be an integer >= 1, got 2.0", id="critical-speed-2.0"),
    pytest.param(lambda: symbol_at(2.0, 0.0, P),
                 "mode index must be an integer >= 1, got 2.0", id="symbol-at-2.0"),
    pytest.param(lambda: d_c_symbol(2.0, P),
                 "mode index must be an integer >= 1, got 2.0", id="d-c-symbol-2.0"),
    pytest.param(lambda: assemble_jacobian(0.0, cosine(1, 0.0), P, 8.0),
                 "truncation n must be an integer >= 1, got 8.0", id="jacobian-n-8.0"),
    pytest.param(lambda: assemble_jacobian(0.0, cosine(1, 0.0), P, "8"),
                 "truncation n must be an integer >= 1, got '8'", id="jacobian-n-str"),
    pytest.param(lambda: assemble_jacobian(0.0, cosine(1, 0.0), P, 8, m=1.0),
                 "fold m must be an integer >= 1, got 1.0", id="jacobian-fold-1.0"),
    pytest.param(lambda: derivative(cosine(2), 2.0),
                 "derivative order must be an integer 1..3, got 2.0", id="derivative-2.0"),
    pytest.param(lambda: cosine(2).pad_to(8.5),
                 "n_modes must be an integer >= 0, got 8.5", id="pad_to-8.5"),
    pytest.param(lambda: cosine(2).truncate(1.5),
                 "n_modes must be an integer >= 0, got 1.5", id="truncate-1.5"),
    pytest.param(lambda: translate(cosine(2), np.nan),
                 "translation shift must be finite", id="translate-nan"),
    pytest.param(lambda: translate(cosine(2), -np.inf),
                 "translation shift must be finite", id="translate-inf"),
    # the rows below got a different outcome before real settings shared
    # one rule; the comment on each row says what the code did then
    pytest.param(lambda: continue_branch(1, P, 0.05, tol=np.inf),
                 # returned 9 points, each after 0 Newton iterations
                 "tol must be finite and >= 1e-12, got inf", id="branch-tol-inf"),
    pytest.param(lambda: continue_branch(1, P, 0.01, tol=1e-13),
                 # "tol below 1e-12 is not resolvable"
                 "tol must be finite and >= 1e-12, got 1e-13", id="branch-tol-1e-13"),
    pytest.param(lambda: continue_branch(1, P, np.inf, n=8),
                 # ran until Newton stalled, at s = 0.155
                 "s_max must be finite and >= 0, got inf", id="branch-s_max-inf"),
    pytest.param(lambda: continue_branch(1, P, 0.01, step_cap=np.inf),  # accepted
                 "step_cap must be finite and > 0, got inf", id="branch-step_cap-inf"),
    pytest.param(lambda: EvolutionConfig(dt=np.inf, t_final=1.0),  # accepted
                 "dt must be finite and > 0, got inf", id="evolution-dt-inf"),
    pytest.param(lambda: EvolutionConfig(dt=1e-10, t_final=1e300),
                 # a raw OverflowError in evolve: cannot convert float infinity to integer
                 "t_final / dt must be finite, got inf", id="evolution-step-count-inf"),
    pytest.param(lambda: ModelParams("0.5", 1.0, 0.0),  # a raw TypeError
                 "epsilon must be finite and > 0, got '0.5'", id="params-epsilon-str"),
    pytest.param(lambda: traveling_error_orders(None, 0.0, P, _ORDER_CFG, halvings=1.5),
                 # a raw TypeError
                 "halvings must be an integer >= 1, got 1.5", id="halvings-1.5"),
    pytest.param(lambda: traveling_error_orders(None, 0.0, P, _ORDER_CFG, halvings=2.0),
                 # a raw TypeError
                 "halvings must be an integer >= 1, got 2.0", id="halvings-2.0"),
    pytest.param(lambda: SpectralField([1.0, 2.0], [np.nan, 0.0]),
                 # "sine amplitude b_0 must be zero"
                 "amplitudes must be finite", id="field-b_0-nan"),
    pytest.param(lambda: SpectralField([1.0, 2.0], [np.inf, 0.0]),
                 # "sine amplitude b_0 must be zero"
                 "amplitudes must be finite", id="field-b_0-inf"),
    pytest.param(lambda: stable_dt(64.5, P),  # equal to stable_dt(65, P)
                 "n must be an integer >= 0, got 64.5", id="stable_dt-64.5"),
    pytest.param(lambda: derivative(cosine(2), 4),  # "derivative order must be 1, 2, or 3"
                 "derivative order must be an integer 1..3, got 4", id="derivative-4"),
    pytest.param(lambda: to_spectral(np.zeros(7)),  # "grid length must be even and >= 4"
                 "the sample grid must be even, got 7 points", id="to_spectral-7"),
    pytest.param(lambda: ModelParams(10 ** 400, 1.0, 0.5),
                 # a raw OverflowError: int too large to convert to float
                 "epsilon must be finite and > 0, got 1000", id="params-epsilon-10**400"),
    pytest.param(lambda: continue_branch(1, P, 0.01, tol=10 ** 400),
                 # a raw OverflowError: int too large to convert to float
                 "tol must be finite and >= 1e-12, got 1000", id="branch-tol-10**400"),
    pytest.param(lambda: assemble_jacobian(0.0, np.zeros(9), P, 8),
                 # a raw AttributeError: 'numpy.ndarray' object has no attribute 'is_even'
                 "phi must be a SpectralField", id="jacobian-phi-array"),
])
def test_non_integer_or_non_finite_setting_refused(call, message):
    with pytest.raises(ConfigurationError, match=message):
        call()


@pytest.mark.parametrize("call, message", [
    # numpy's _ArrayMemoryError, for a 7.28 TiB Jacobian
    pytest.param(lambda out: continue_branch(1, ModelParams(0.5, 1.0, 0.5), 0.01, n=10 ** 6),
                 "truncation n = 1000000 asks for an array of 16000000000000 bytes",
                 id="branch-n-10**6"),
    # a 16 GB profile of 2 * 10**9 + 1 amplitudes, on a 2-column lattice
    pytest.param(lambda out: continue_branch(10 ** 9, ModelParams(0.5, 1.0, 0.5), 0.01),
                 "fold m = 1000000000 asks for an array of 16000000008 bytes",
                 id="branch-fold-10**9"),
    # exit 1 with numpy's traceback, for a 47.7 GiB scan array
    pytest.param(lambda out: cli.main(["bifurcate", "--kmax", "100000000", "--out", str(out)]),
                 "k_max = 100000000 asks for an array of 800000000 bytes", id="bifurcate-kmax"),
    # modes 1 and 4097 share only the 1-fold lattice: a 4097-column lattice matrix
    pytest.param(lambda out: residual(0.0, CosineSeries(np.r_[0.0, 1.0, np.zeros(4095), 1.0]),
                                      ModelParams(0.5, 1.0, 0.5)),
                 "the lattice truncation n of phi = 4097 asks for an array of 268566544 bytes",
                 id="residual-modes-1-4097"),
    # exit 1 with numpy's _ArrayMemoryError, for 7.11 PiB
    pytest.param(lambda out: cli.main(["evolve", "--s", "0", "--modes", "1000000000000000",
                                       "--out", str(out)]),
                 "n_modes = 1000000000000000 asks for an array of 144115188075855936 bytes",
                 id="evolve-modes"),
    # a sweep's grid follows from its degree cap: 2**33 points at 10**9
    pytest.param(lambda out: commutator_sweep(2, 10 ** 9),
                 "max_degree = 1000000000 asks for an array of 103079215104 bytes",
                 id="sweep-max_degree"),
    # verify runs its sweeps before the families, and the sweep refuses
    # its grid at its entry
    pytest.param(lambda out: cli.main(["verify", "--ensemble", "2",
                                       "--degrees", "1000000000", "--out", str(out)]),
                 "max_degree = 1000000000 asks for an array of 103079215104 bytes",
                 id="verify-degrees"),
    # exit 1 with numpy's _ArrayMemoryError, for 7.11 PiB, after every family had run
    pytest.param(lambda out: cli.main(["verify", "--ensemble", "1000000000000000",
                                       "--out", str(out)]),
                 "ensemble size = 1000000000000000 asks for an array of "
                 "8000000000000000 bytes", id="verify-ensemble"),
    # an 8 GB row of samples
    pytest.param(lambda out: SpectralField([0.0, 1.0]).values(10 ** 9),
                 "the sample grid = 1000000000 asks for an array of 8000000000 bytes",
                 id="values-grid"),
    # two 8 GB amplitude arrays, then their read-only copies
    pytest.param(lambda out: SpectralField([0.0, 1.0]).pad_to(10 ** 9),
                 "n_modes = 1000000000 asks for an array of 8000000008 bytes", id="pad_to"),
    # a list of 10**9 + 1 saved steps and a (10**9 + 1) x 65 complex array
    pytest.param(lambda out: evolve(SpectralField([0.0, 1.0]), P,
                                    EvolutionConfig(dt=1e-9, t_final=1.0, save_every=1)),
                 "saved states = 1000000001 asks for an array of 1040000001040 bytes",
                 id="evolve-saves"),
])
def test_size_beyond_the_byte_ceiling_refused(tmp_path, capsys, call, message):
    """A size whose arrays would pass ``ARRAY_BYTES_CEILING`` is refused by
    name before anything is allocated: the refusal traces far less memory
    than the ceiling, and the CLI exits 2 without writing."""
    cli.build_parser()      # built once per process, before the trace
    tracemalloc.start()
    try:
        try:
            code = call(tmp_path / "out")
        except ConfigurationError as exc:
            code, text = 2, str(exc)
        else:
            text = capsys.readouterr().err
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and message in text and "above the ceiling of 268435456 bytes" in text
    assert ARRAY_BYTES_CEILING == 2 ** 28 and peak < 2 ** 20
    assert not (tmp_path / "out").exists()


def test_sizes_in_use_stay_far_below_the_ceiling():
    """The largest truncation, scan and evolve truncation of the tests, the
    bench and the probes (n = 256 on fold 3; 10 folds of 256 modes; 3 × 256
    modes) use under 1 % of it, and the bytes the size rule charges one
    row of the seminorm scan on the largest Hölder grid (65536 points),
    its wrapped samples of 1.5 × m float64, under a 256th."""
    assert bifurcation._branch_bytes(3, 256) <= ARRAY_BYTES_CEILING // 100
    assert bifurcation._scan_bytes(10 * 256) <= ARRAY_BYTES_CEILING // 100
    assert _integration_bytes(3 * 256) <= ARRAY_BYTES_CEILING // 100
    assert _wrapped_bytes(65536) <= ARRAY_BYTES_CEILING // 256


def _recorded(monkeypatch, module, name):
    """Every instance of ``module.name`` built while the test runs, in a
    list the call fills."""
    built = []

    class Recorded(getattr(module, name)):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(module, name, Recorded)
    return built


def _largest_held(*holders):
    """The bytes of the largest array that the array attributes of
    ``holders`` own or view."""
    sizes = []
    for held in holders:
        for arr in vars(held).values():
            if isinstance(arr, np.ndarray):
                while isinstance(arr.base, np.ndarray):
                    arr = arr.base
                if arr.flags.owndata:
                    sizes.append(arr.nbytes)
    return max(sizes)


def _lattice_charge(monkeypatch, n):
    lattices = _recorded(monkeypatch, model, "_Lattice")
    assemble_jacobian(0.0, cosine(1, 0.1), P, n)
    return model._lattice_bytes(n), _largest_held(*lattices)


def _branch_charge(monkeypatch, m, n, s_max):
    lattices = _recorded(monkeypatch, bifurcation, "_Lattice")
    branch = continue_branch(m, P, s_max, n=n)
    assert branch.modes_used == lattices[-1].n == n     # the lattice reached the cap
    profiles = [amps.nbytes for phi in as_fields(branch) for amps in (phi.a, phi.b)]
    return bifurcation._branch_bytes(m, n), max(_largest_held(*lattices), *profiles)


def _scan_charge(monkeypatch, n):
    sizes = []
    symbol = bifurcation._symbol

    def recorded(k, c, p):
        out = symbol(k, c, p)
        sizes.extend((k.nbytes, out.nbytes))
        return out

    monkeypatch.setattr(bifurcation, "_symbol", recorded)
    kernel_dimension(critical_speed(1, P), P, 1, n)
    return bifurcation._scan_bytes(n), max(sizes)


def _integration_charge(monkeypatch, n):
    works = _recorded(monkeypatch, evolution, "_QuadraticWork")
    evolve(cosine(1, 0.1, n=n), P, EvolutionConfig(dt=1e-3, t_final=1e-3, n_modes=n))
    return _integration_bytes(n), _largest_held(*works)


def _holder_charge(monkeypatch, m):
    """The wrapped samples the scan views lag by lag, and every gather."""
    wrapped, gathers = [], []
    window_view = holder.sliding_window_view

    class Gathered(np.ndarray):
        def __getitem__(self, key):
            out = self.view(np.ndarray)[key]
            gathers.append(out.nbytes)
            return out

    def recorded(ext, *args, **kwargs):
        wrapped.append(ext.nbytes)
        return window_view(ext, *args, **kwargs).view(Gathered)

    monkeypatch.setattr(holder, "sliding_window_view", recorded)
    _seminorms(cosine(64).values(m)[None, :], 0.5)
    assert gathers and max(gathers) < max(wrapped)
    return _wrapped_bytes(m), max(wrapped + gathers)


@pytest.mark.parametrize("charge, sizes", [
    pytest.param(_lattice_charge, (8,), id="lattice-8"),
    pytest.param(_lattice_charge, (32,), id="lattice-32"),
    pytest.param(_branch_charge, (1, 16, 0.2), id="branch-lattice"),
    pytest.param(_branch_charge, (64, 8, 0.002), id="branch-profile"),
    pytest.param(_scan_charge, (8,), id="scan-8"),
    pytest.param(_scan_charge, (64,), id="scan-64"),
    pytest.param(_integration_charge, (8,), id="integration-8"),
    pytest.param(_integration_charge, (64,), id="integration-64"),
    pytest.param(_holder_charge, (65536,), id="holder-65536"),
    pytest.param(_holder_charge, (131072,), id="holder-131072"),
])
def test_size_rule_charges_its_largest_array(monkeypatch, charge, sizes):
    """Each size rule charges exactly the bytes of the largest array that
    the code it guards builds, read from that code's own arrays: the
    ``_Lattice`` of ``assemble_jacobian``; a branch's ``_Lattice`` and its
    points' profiles, where the lattice (fold 1, on a branch whose tail
    grows its lattice to the cap) or the profile (fold 64) is the larger; the frequencies and multipliers of a kernel scan; the
    ``_QuadraticWork`` of an integration; and the wrapped samples of a
    one-row seminorm scan on grids where one lag's gather, m float64, is
    the step."""
    charged, built = charge(monkeypatch, *sizes)
    assert charged == built


def test_numpy_integers_are_integers():
    """numpy integer scalars count as integers wherever a setting must be one."""
    assert len(continue_branch(1, P, 0.002, n=np.int64(8)).points) > 1
    assert EvolutionConfig(dt=1e-3, t_final=0.01, n_modes=np.int32(8),
                           save_every=np.int64(2)).n_modes == 8
    assert holder_norm(cosine(2), np.int64(1), 0.5, grid_size=np.int64(64)) > 0
    assert cosine(2).values(np.int64(16)).shape == (16,)
    assert kernel_dimension(critical_speed(1, P), P, 1, np.int64(8)) == 1
    assert len(detect_bifurcations(P, 3, n_scan=np.int64(8))) == 3
    assert kernel_dimension(critical_speed(2, P), P, np.int64(2), 8) == 1
    assert continue_branch(np.int32(2), P, 0.002, n=8).m == 2
    assert critical_speed(np.int64(2), P) == critical_speed(2, P)
    assert symbol_at(np.int32(3), 0.1, P) == symbol_at(3, 0.1, P)
    assert d_c_symbol(np.int64(3), P) == d_c_symbol(3, P)
    assert [pt.k for pt in detect_bifurcations(P, np.int64(3))] == [1, 2, 3]
    assert (derivative(cosine(2), np.int64(2)).a == derivative(cosine(2), 2).a).all()
    assert cosine(2).pad_to(np.int64(10)).n_modes == 10
    assert cosine(2, n=10).truncate(np.int32(4)).n_modes == 4


def test_numpy_floats_are_reals():
    """numpy float scalars count as real numbers wherever a setting must be
    one, and give the result of the equal Python float."""
    assert ModelParams(np.float64(0.5), 1.0, 0.0) == P
    assert (critical_speed(2, ModelParams(np.float64(0.5), 1.0, 0.0))
            == critical_speed(2, P))
    got, want = (continue_branch(1, P, 0.002, n=8, tol=tol) for tol in (np.float64(1e-11), 1e-11))
    assert ([(pt.c, pt.residual_norm) for pt in got.points]
            == [(pt.c, pt.residual_norm) for pt in want.points])
    assert EvolutionConfig(dt=np.float64(1e-3), t_final=0.01) == EvolutionConfig(1e-3, 0.01)
    got, want = (holder_norm(cosine(2), 1, alpha) for alpha in (np.float64(0.5), 0.5))
    assert got == want and type(got) is float


# every setting of a grid that must resolve degree 40, with the name it refuses it by
GRID_CALLERS = {
    "values": ("the sample grid", lambda out, grid: cosine(40).values(grid)),
    "holder_norm": ("the Hölder grid",
                    lambda out, grid: holder_norm(cosine(40), 1, 0.5, grid_size=grid)),
    "commutator_ratio": ("the Hölder grid",
                         lambda out, grid: commutator_ratio(cosine(20), cosine(20), 0.5,
                                                            grid_size=grid)),
    "commutator_sweep": ("the Hölder grid",
                         lambda out, grid: commutator_sweep(2, 20, grid_size=grid)),
}


@pytest.mark.parametrize("grid, message", [
    pytest.param(1023, "{name} must be even, got 1023 points", id="odd"),
    pytest.param(64, "64 points cannot resolve a degree-40 field (need at least 82)",
                 id="too-small"),
    pytest.param(1024.0, "{name} must be an integer >= 4, got 1024.0", id="not-integer"),
])
@pytest.mark.parametrize("caller", GRID_CALLERS)
def test_one_grid_rule(tmp_path, caller, grid, message):
    """An odd grid, a grid too small for the degree and a grid that is not
    an integer get the same refusal wherever the grid is set; only the
    setting's name differs, and nothing is written."""
    name, call = GRID_CALLERS[caller]
    with pytest.raises(ConfigurationError) as exc:
        call(tmp_path / "out", grid)
    assert str(exc.value) == message.format(name=name)
    assert not (tmp_path / "out").exists()
