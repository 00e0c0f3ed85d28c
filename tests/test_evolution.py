"""Time-evolution validation tests."""

import itertools

import numpy as np
import pytest

from oddwaves import (
    ConfigurationError,
    CosineSeries,
    EvolutionConfig,
    ModelParams,
    NumericalError,
    SpectralField,
    continue_branch,
    critical_speed,
    derivative,
    dispersion_frequency,
    evolution,
    evolve,
    residual,
    rhs,
    stable_dt,
    translate,
    traveling_error,
)
from oddwaves.evolution import (LATTICE_STAGE_MODES, ROUNDOFF_FLOOR, Trajectory,
                                _translation_gap, traveling_error_orders)
from oddwaves.model import d_c_residual

from helpers import (
    ORACLE_PARAMS,
    as_fields,
    coeff_gap,
    cosine,
    count_fields,
    count_real_ffts,
    random_even,
    random_field,
    reference_quadratic,
    reference_rhs,
    reference_rk4,
    relative_gap,
)

PA = ModelParams(0.5, 1.0, 0.5)


@pytest.fixture(scope="module")
def branch_point():
    """The profile φ and speed c of a fold-1 branch point."""
    br = continue_branch(1, PA, 0.02, n=48, tol=1e-11)
    assert not br.truncated
    return as_fields(br)[-1], br.points[-1].c


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EvolutionConfig(dt=0.0, t_final=1.0)
        for t_final in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                EvolutionConfig(dt=0.1, t_final=t_final)

    def test_stable_dt_matches_worst_linear_mode(self):
        n = 32
        top = max(abs(dispersion_frequency(k, PA)) for k in range(1, n + 1))
        assert np.isclose(stable_dt(n, PA), 2 * np.sqrt(2) / top)

    @pytest.mark.parametrize("n", [1, 64, 256])
    def test_stable_dt_equals_per_mode_form(self, n):
        """One array call gives the float the per-mode loop gave."""
        for p in (PA, *ORACLE_PARAMS):
            top = np.abs([dispersion_frequency(k, p) for k in range(1, n + 1)]).max()
            want = float("inf") if top == 0.0 else evolution.RK4_IMAGINARY_LIMIT / top
            assert stable_dt(n, p) == want


class TestDispersion:
    def test_frequency_is_minus_k_times_critical_speed(self):
        for k in range(1, 20):
            assert np.isclose(dispersion_frequency(k, PA),
                              -k * critical_speed(k, PA), rtol=1e-14)

    def test_equals_the_closed_form_bit_for_bit(self):
        """ω_k, taken from σ(k, 0), is the float of the closed form
        (k - 1 + (α0 - β) k²) / (ε (2 + α0 k)) at the defaults, where 1/ε
        is exact, for every k <= 192, scalar and array alike."""
        g = PA.alpha0 - PA.beta
        k = np.arange(1, 193)
        want = (k - 1.0 + g * k * k) / (PA.epsilon * (2.0 + PA.alpha0 * k))
        assert np.array_equal(dispersion_frequency(k, PA), want)
        assert [dispersion_frequency(int(j), PA) for j in k] == want.tolist()

    @pytest.mark.parametrize("p", [*ORACLE_PARAMS, ModelParams(0.5403, 0.8213, 0.5702)])
    def test_minus_k_times_critical_speed_to_roundoff(self, p):
        """ω_k and -k c_k round the same quotient differently; they agree
        within 4 ε_mach relative for k <= 192 (at most 2.3 ε_mach measured)."""
        eps = np.finfo(float).eps
        for k in range(1, 193):
            w, want = dispersion_frequency(k, p), -k * critical_speed(k, p)
            assert abs(w - want) <= 4 * eps * max(abs(w), abs(want)), k


class TestRhs:
    def test_zero_field(self):
        assert rhs(CosineSeries(np.zeros(9)), PA).sup_norm() == 0.0

    def test_constant_field(self):
        coeffs = np.zeros(9)
        coeffs[0] = 5.0
        assert rhs(CosineSeries(coeffs), PA).sup_norm() == 0.0

    def test_inverse_mass_weights(self):
        # linear regime: rhs(cos kx) = symbol-driven sine over (2 + alpha0 k)
        k, delta = 4, 1e-9
        out = rhs(cosine(k, delta, n=16), PA)
        expect = -delta * dispersion_frequency(k, PA)
        assert abs(out.b[k] - expect) < 1e-6 * abs(expect)

    def test_traveling_relation_on_branch_point(self, branch_point):
        """rhs(φ) + c φ' must vanish at a converged branch point."""
        phi, c = branch_point
        drift = rhs(phi, PA) + c * derivative(phi, 1).truncate(phi.n_modes)
        assert drift.sup_norm() < 10 * 1e-11


class TestRhsFromBracket:
    """``rhs`` divides the model's bracket by the mass operator."""

    @pytest.mark.parametrize("p", ORACLE_PARAMS)
    @pytest.mark.parametrize("n", [1, 2, 8, 12, LATTICE_STAGE_MODES, LATTICE_STAGE_MODES + 1])
    def test_both_routes_match_reference(self, n, p):
        """On either side of ``LATTICE_STAGE_MODES``, and at the small n of
        branch lattices, ``rhs`` of non-even states with a mean is the
        field oracle's to roundoff, relative to the larger of the oracle's
        largest amplitude and the state's squared: at n = 1, α0 = β and
        ε = 1, σ(1, 0) = 0 and Q vanishes, so the oracle's rhs is roundoff
        and the lattice route's exact zeros."""
        rng = np.random.default_rng(n + 11)
        for _ in range(2):
            f = random_field(rng, n, mean=rng.standard_normal())
            want = reference_rhs(f, p)
            scale = max(np.abs(want.a).max(), np.abs(want.b).max(),
                        max(np.abs(f.a).max(), np.abs(f.b).max()) ** 2)
            assert coeff_gap(rhs(f, p), want) <= 1e-13 * scale

    @pytest.mark.parametrize("p", ORACLE_PARAMS)
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_matches_reference(self, n, p):
        rng = np.random.default_rng(n + 2)
        for f in (random_even(rng, n), random_field(rng, n, mean=rng.standard_normal())):
            assert relative_gap(rhs(f, p), reference_rhs(f, p)) <= 1e-13

    @pytest.mark.parametrize("p", ORACLE_PARAMS)
    @pytest.mark.parametrize("n", [16, 64])
    def test_bracket_identity(self, n, p):
        """(2 + α0 k) rhs(φ) = R[c, φ] - c ∂_c R[c, φ] on modes <= N: the
        residual and the evolution share one bracket."""
        rng = np.random.default_rng(n + 3)
        phi, c = random_even(rng, n, mean=0.5), 0.3
        lhs = (2.0 + p.alpha0 * np.arange(n + 1)) * rhs(phi, p).b
        bracket = (residual(c, phi, p) - c * d_c_residual(phi, p)).truncate(n)
        assert np.abs(lhs - bracket.b).max() <= 1e-13 * np.abs(bracket.b).max()


class TestEvolve:
    def test_zero_stays_zero(self):
        cfg = EvolutionConfig(dt=1e-2, t_final=0.1, n_modes=16)
        traj = evolve(CosineSeries(np.zeros(5)), PA, cfg)
        assert all(st.sup_norm() == 0.0 for st in as_fields(traj))

    def test_zero_horizon(self):
        cfg = EvolutionConfig(dt=1e-2, t_final=0.0, n_modes=16)
        traj = evolve(cosine(1, 0.1, n=16), PA, cfg)
        assert len(as_fields(traj)) == 1 and traj.times[0] == 0.0

    def test_linear_mode_rotation(self):
        """Infinitesimal data follows the exact multiplier solution."""
        delta, k = 1e-8, 3
        cfg = EvolutionConfig(dt=2e-3, t_final=1.0, n_modes=32)
        traj = evolve(cosine(k, delta, n=32), PA, cfg)
        w = dispersion_frequency(k, PA)
        states = as_fields(traj)
        for t, st in zip(traj.times, states):
            gap = max(abs(st.a[k] - delta * np.cos(w * t)),
                      abs(st.b[k] + delta * np.sin(w * t)))
            assert gap / delta < 1e-6
        amp = np.hypot(states[-1].a[k], states[-1].b[k])
        assert abs(amp / delta - 1.0) < 1e-6

    def test_mass_conservation(self, branch_point):
        cfg = EvolutionConfig(dt=5e-3, t_final=0.5, n_modes=48)
        shifted = SpectralField(branch_point[0].a + np.r_[0.25, np.zeros(48)])
        traj = evolve(shifted, PA, cfg)
        assert traj.mass_drift < 1e-12 * (1 + cfg.t_final)

    @pytest.mark.parametrize("t_final", [0.0, 5e-3])
    def test_first_row_is_the_initial_data(self, t_final, monkeypatch):
        """Row 0 holds f0's own amplitudes, padded, bit for bit: a subnormal
        a_3 = 5e-324 survives, which the half-spectrum round trip zeroes.
        The only field built is the padded initial data, none per save."""
        a = np.zeros(9)
        a[1], a[3] = 0.1, 5e-324
        f0 = CosineSeries(a)
        built = count_fields(monkeypatch)
        traj = evolve(f0, PA, EvolutionConfig(dt=1e-3, t_final=t_final, n_modes=16))
        assert len(built) == 1 and traj.times.size == (6 if t_final else 1)
        assert evolution._amplitudes(evolution._hat(a, np.zeros(9)))[0][3] == 0.0
        assert traj.a[0, 3] == 5e-324
        assert traj.a[0].tobytes() == np.r_[a, np.zeros(8)].tobytes()
        assert traj.b[0].tobytes() == np.zeros(17).tobytes()
        assert traj.a.shape == traj.b.shape == (traj.times.size, 17)

    def test_nan_abort_reports_time_and_state(self):
        # enormous amplitude with a huge step leaves the stability region
        # after one finite step
        cfg = EvolutionConfig(dt=10.0, t_final=100.0, n_modes=32)
        bomb = CosineSeries(cosine(8, 1e6, n=32).a)
        with pytest.raises(NumericalError) as err:
            evolve(bomb, PA, cfg)
        assert err.value.time > 0.0
        assert np.isfinite(err.value.last_state.a).all()
        # here step 3 overflows: the error holds t = 1 and the state there,
        # a clean run's last row
        data = CosineSeries([0, 3, 3])
        with pytest.raises(NumericalError) as err:
            evolve(data, PA, EvolutionConfig(dt=0.5, t_final=200, n_modes=8))
        assert err.value.time == 1.0
        clean = evolve(data, PA, EvolutionConfig(dt=0.5, t_final=1.0, n_modes=8))
        assert err.value.last_state.a.tobytes() == clean.a[-1].tobytes()
        assert err.value.last_state.b.tobytes() == clean.b[-1].tobytes()

    @pytest.mark.parametrize("p", ORACLE_PARAMS)
    @pytest.mark.parametrize("even", [True, False])
    def test_matches_reference_rk4(self, even, p):
        """Every step equals classical RK4 taken through ``reference_rhs``
        on fields."""
        rng = np.random.default_rng(61)
        n = 32
        f = random_field(rng, n, even=even, mean=0.3, decay=2.0)
        cfg = EvolutionConfig(dt=1e-3, t_final=0.02, n_modes=n, save_every=1)
        traj = evolve(f, p, cfg)
        dt, state = traj.dt_effective, f
        states = as_fields(traj)
        assert len(states) == 21
        for got in states[1:]:
            k1 = reference_rhs(state, p)
            k2 = reference_rhs(state + (0.5 * dt) * k1, p)
            k3 = reference_rhs(state + (0.5 * dt) * k2, p)
            k4 = reference_rhs(state + dt * k3, p)
            state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            assert relative_gap(got, state) <= 1e-13

    @pytest.mark.parametrize("p", ORACLE_PARAMS)
    def test_equals_run_through_reference_kernel(self, p):
        """Every saved state is the one the allocating RK4 loop gives
        through the per-factor ``reference_quadratic``, to roundoff (the
        stages weigh Q with pre-scaled rows, so the floats are summed in
        another order), for even and odd data, saved every step or every few
        steps, on both sides of ``LATTICE_STAGE_MODES``: the last n of the
        lattice route and the first of the FFT route."""
        rng = np.random.default_rng(62)
        for n, (even, save_every) in itertools.product(
                (LATTICE_STAGE_MODES, LATTICE_STAGE_MODES + 1),
                ((False, 1), (True, 1), (False, 3), (True, 7))):
            f = random_field(rng, n, even=even, mean=0.3, decay=2.0)
            cfg = EvolutionConfig(dt=1e-3, t_final=0.02, n_modes=n,
                                  save_every=save_every)
            calls = []

            def oracle(*args):
                calls.append(args[3])
                return reference_quadratic(*args)

            want = reference_rk4(f, p, cfg, quadratic=oracle)
            got = evolve(f, p, cfg)
            assert calls == [n] * (4 * 20)
            assert len(want) == 20 // save_every + (20 % save_every != 0)
            assert len(as_fields(got)) == 1 + len(want)
            for state, (a, b) in zip(as_fields(got)[1:], want):
                assert relative_gap(state, SpectralField(a, b)) <= 1e-13

    def test_one_transform_each_way_per_stage(self, monkeypatch):
        """Above ``LATTICE_STAGE_MODES`` a stage is one stacked transform
        each way."""
        counts = count_real_ffts(monkeypatch)
        cfg = EvolutionConfig(dt=1e-3, t_final=5e-3, n_modes=64)
        evolve(cosine(2, 0.1, n=64), PA, cfg)
        assert counts == {"irfft": 4 * 5, "rfft": 4 * 5}

    def test_lattice_route_makes_no_transform(self, monkeypatch):
        """Up to ``LATTICE_STAGE_MODES`` a stage makes no FFT."""
        counts = count_real_ffts(monkeypatch)
        n = LATTICE_STAGE_MODES
        evolve(cosine(2, 0.1, n=n), PA, EvolutionConfig(dt=1e-3, t_final=5e-3, n_modes=n))
        rhs(cosine(2, 0.1, n=n), PA)
        assert counts == {}

    def test_rejects_oversized_initial_data(self):
        """f0 whose degree passes n_modes is refused, by its modes."""
        cfg = EvolutionConfig(dt=1e-2, t_final=0.1, n_modes=8)
        with pytest.raises(ConfigurationError,
                           match="initial data has 16 modes, above the configured 8"):
            evolve(cosine(9, 0.1, n=16), PA, cfg)

    def test_accepts_a_zero_tail_past_n_modes(self):
        """f0 with more amplitudes than n_modes, zeros past n_modes (as a
        branch profile padded to its cap), runs on n_modes: the tail is
        dropped, and the trajectory is bit for bit that of f0 cut to
        n_modes."""
        cfg = EvolutionConfig(dt=1e-2, t_final=0.1, n_modes=8)
        f0 = cosine(1, 0.1, n=16) + cosine(8, 0.01, n=16)
        traj, cut = evolve(f0, PA, cfg), evolve(f0.truncate(8), PA, cfg)
        assert traj.a.shape == cut.a.shape == (11, 9)
        for name in ("times", "a", "b"):
            assert getattr(traj, name).tobytes() == getattr(cut, name).tobytes()
        assert traj.mass_drift == cut.mass_drift


class TestScaleCovariance:
    """ε scales out of the evolution: if f solves it at ε, then
    F(τ) = ε f(ετ) solves it at ε = 1, and RK4 maps step for step."""

    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.02])
    def test_evolution_maps_onto_unit_epsilon(self, eps):
        rng = np.random.default_rng(71)
        n = 32
        f0 = random_field(rng, n, mean=0.3, decay=2.0)
        p = ModelParams(eps, 1.0, 0.5)
        dt = 0.2 * stable_dt(n, p)
        cfg = EvolutionConfig(dt=dt, t_final=20 * dt, n_modes=n, save_every=3)
        unit = EvolutionConfig(dt=dt / eps, t_final=20 * dt / eps, n_modes=n, save_every=3)
        got = evolve(f0, p, cfg)
        want = evolve(eps * f0, ModelParams(1.0, 1.0, 0.5), unit)
        assert len(as_fields(got)) == len(as_fields(want)) == 8
        for state, mapped in zip(as_fields(got), as_fields(want)):
            assert relative_gap(eps * state, mapped) <= 1e-13


class TestTravelingError:
    def test_trivial_point_is_exact(self):
        br = continue_branch(1, PA, 0.0, n=8)
        cfg = EvolutionConfig(dt=1e-2, t_final=0.1, n_modes=8)
        assert traveling_error(as_fields(br)[0], br.points[0].c, PA, cfg) == 0.0

    @staticmethod
    def per_state_gap(phi, c, traj):
        """The gap state by state, each sampled on its own sup-norm grid."""
        states = as_fields(traj)
        phi = phi.pad_to(states[0].n_modes)
        return max((state - translate(phi, c * t)).sup_norm()
                   for t, state in zip(traj.times, states))

    def test_stacked_gap_equals_per_state_loop(self, branch_point):
        cfg = EvolutionConfig(dt=1e-3, t_final=0.5, n_modes=48)
        traj = evolve(branch_point[0], PA, cfg)
        assert _translation_gap(*branch_point, traj) == self.per_state_gap(*branch_point, traj)

    def test_stacked_gap_on_the_finest_grid(self, branch_point):
        """Gaps of unequal degree are all sampled on the grid of the largest
        one, which contains each coarser power-of-two grid: the result is at
        least the per-state loop's and equals its maximum on that grid."""
        phi = branch_point[0]
        a, b = np.zeros(49), np.zeros(49)
        theta = 3 * 2 * np.pi / 128    # cos(3x - θ) peaks between 64-grid points
        a[3], b[3] = 1e-3 * np.cos(theta), 1e-3 * np.sin(theta)
        states = [phi, phi + SpectralField(a, b), phi + cosine(40, 1e-4, n=48)]
        traj = Trajectory(times=np.zeros(3), a=np.array([st.a for st in states]),
                          b=np.array([st.b for st in states]), dt_effective=0.1, mass_drift=0.0)
        got = _translation_gap(*branch_point, traj)
        assert got > self.per_state_gap(*branch_point, traj)
        fine = max(np.abs((state - phi).values(256)).max() for state in states)
        assert got == fine

    def test_gap_grid_is_the_grid_of_the_trajectory_modes(self):
        """Gaps whose top modes are exact zeros are sampled on the grid of
        the trajectory's n, not on that of their own largest degree, which
        roundoff decides: a mode-3 gap of a 48-mode trajectory is sampled
        on 256 points, where the 64 points of its degree miss its peak."""
        a, b = np.zeros(49), np.zeros(49)
        theta = 3 * 2 * np.pi / 128    # cos(3x - θ) peaks between 64-grid points
        a[3], b[3] = 1e-3 * np.cos(theta), 1e-3 * np.sin(theta)
        gap = SpectralField(a, b)
        traj = Trajectory(times=np.zeros(2), a=np.array([0.0 * a, a]), b=np.array([0.0 * b, b]),
                          dt_effective=0.1, mass_drift=0.0)
        got = _translation_gap(SpectralField(np.zeros(49)), 0.3, traj)
        assert got == np.abs(gap.values(256)).max() > gap.sup_norm()

    def test_small_amplitude_branch_point(self, branch_point):
        cfg = EvolutionConfig(dt=1e-3, t_final=0.5, n_modes=48)
        assert traveling_error(*branch_point, PA, cfg) < 1e-4

    def test_fourth_order_decay(self, branch_point):
        """Halving dt inside the stability window shows RK4 decay."""
        dt0 = 0.8 * stable_dt(48, PA)
        cfg = EvolutionConfig(dt=dt0, t_final=1.0, n_modes=48)
        errs, rates = traveling_error_orders(*branch_point, PA, cfg, halvings=2)
        assert all(e > 0 for e in errs)
        assert min(rates) > 3.7

    def test_no_order_at_the_roundoff_floor(self, branch_point):
        """Two errors at most ROUNDOFF_FLOOR ε_mach sup|φ| (4.5e-15 here) give
        no rate; one error above it gives a number."""
        floor = ROUNDOFF_FLOOR * np.finfo(float).eps * branch_point[0].sup_norm()
        cfg = EvolutionConfig(dt=1e-3, t_final=0.01, n_modes=48)
        errs, rates = traveling_error_orders(*branch_point, PA, cfg, halvings=1)
        assert max(errs) <= floor and rates == [None]
        cfg = EvolutionConfig(dt=0.02, t_final=0.2, n_modes=48)
        errs, rates = traveling_error_orders(*branch_point, PA, cfg, halvings=1)
        assert errs[1] <= floor < errs[0] and 3.7 < rates[0] < 4.3


class TestOnTheBranchLattice:
    """``cli.cmd_evolve`` integrates a branch point on the lattice its
    branch solved on, fold · ``modes_used`` modes, not on the cap of
    fold · 64.  Past that lattice the profile's amplitudes are exact zeros,
    and its last lattice amplitude is below ε_mach times its largest, so
    both runs must agree at roundoff.  Measured on these points (the
    default folds, and fold 1 at the ends and middle of the travel
    workload's amplitudes; its step 2e-4 to t = 0.06), in units of
    ε_mach sup|φ|, with both runs on the FFT route: the traveling errors,
    4.7 to 124, differ by at most 0.57 (fold 2; the cap run's gaps carry
    roundoff up to mode 128), the mass drifts by at most 3.9e-6, the
    states on the shared modes by at most 4.6e-4, and the cap run's modes
    above the lattice reach at most 2.3e-3.  The shared-mode bound is below
    one ulp of the largest amplitude, so it holds only for runs in the same
    arithmetic; the reduced run's own route (the lattice route up to
    ``LATTICE_STAGE_MODES``) is compared with the FFT route's run on the
    same modes, where the largest amplitudes move by about one ulp
    (at most 4.8e-2 of the unit measured, fold 2)."""

    @pytest.mark.parametrize("fold, s", [(1, 0.01), (1, 0.02), (1, 0.03), (2, 0.02), (3, 0.02)])
    def test_reduced_run_equals_the_cap_run(self, fold, s, monkeypatch):
        branch = continue_branch(fold, PA, s)
        phi, c = branch.profile(-1), branch.points[-1].c
        n = fold * branch.modes_used
        assert n < fold * 64
        configs = [EvolutionConfig(dt=2e-4, t_final=0.06, n_modes=k) for k in (n, fold * 64)]
        routed = evolve(phi, PA, configs[0])
        monkeypatch.setattr(evolution, "_stage_route", lambda n_modes: evolution._FFTStages)
        reduced, cap = (evolve(phi, PA, cfg) for cfg in configs)
        unit = np.finfo(float).eps * phi.sup_norm()
        assert abs(_translation_gap(phi, c, reduced) - _translation_gap(phi, c, cap)) <= unit
        assert abs(reduced.mass_drift - cap.mass_drift) <= 1e-4 * unit
        for rows, cap_rows in ((reduced.a, cap.a), (reduced.b, cap.b)):
            assert np.abs(rows - cap_rows[:, : n + 1]).max() <= 1e-2 * unit
            assert np.abs(cap_rows[:, n + 1:]).max() <= 1e-2 * unit
        assert abs(_translation_gap(phi, c, routed) - _translation_gap(phi, c, reduced)) <= unit
        for rows, fft_rows in ((routed.a, reduced.a), (routed.b, reduced.b)):
            assert np.abs(rows - fft_rows).max() <= 0.1 * unit
