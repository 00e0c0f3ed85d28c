"""Time-evolution validation tests."""

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
from oddwaves.evolution import (ROUNDOFF_FLOOR, Trajectory, _translation_gap,
                                traveling_error_orders)
from oddwaves.model import d_c_residual

from helpers import (
    ORACLE_PARAMS,
    cosine,
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
    br = continue_branch(1, PA, 0.02, ds=1e-3, n=48, tol=1e-11)
    assert not br.truncated
    return br.points[-1]


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
        pt = branch_point
        n = pt.phi.n_modes
        drift = rhs(pt.phi, PA) + pt.c * derivative(pt.phi, 1).truncate(n)
        assert drift.sup_norm() < 10 * 1e-11


class TestRhsFromBracket:
    """``rhs`` divides the model's bracket by the mass operator."""

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
        assert all(st.sup_norm() == 0.0 for st in traj.states)

    def test_zero_horizon(self):
        cfg = EvolutionConfig(dt=1e-2, t_final=0.0, n_modes=16)
        traj = evolve(cosine(1, 0.1, n=16), PA, cfg)
        assert len(traj.states) == 1 and traj.times[0] == 0.0

    def test_linear_mode_rotation(self):
        """Infinitesimal data follows the exact multiplier solution."""
        delta, k = 1e-8, 3
        cfg = EvolutionConfig(dt=2e-3, t_final=1.0, n_modes=32)
        traj = evolve(cosine(k, delta, n=32), PA, cfg)
        w = dispersion_frequency(k, PA)
        for t, st in zip(traj.times, traj.states):
            gap = max(abs(st.a[k] - delta * np.cos(w * t)),
                      abs(st.b[k] + delta * np.sin(w * t)))
            assert gap / delta < 1e-6
        amp = np.hypot(traj.states[-1].a[k], traj.states[-1].b[k])
        assert abs(amp / delta - 1.0) < 1e-6

    def test_mass_conservation(self, branch_point):
        cfg = EvolutionConfig(dt=5e-3, t_final=0.5, n_modes=48)
        shifted = SpectralField(branch_point.phi.a + np.r_[0.25, np.zeros(48)])
        traj = evolve(shifted, PA, cfg)
        assert traj.mass_drift < 1e-12 * (1 + cfg.t_final)

    def test_nan_abort_reports_time_and_state(self):
        # enormous amplitude with a huge step leaves the stability region
        # after one finite step
        cfg = EvolutionConfig(dt=10.0, t_final=100.0, n_modes=32)
        bomb = CosineSeries(cosine(8, 1e6, n=32).a)
        with pytest.raises(NumericalError) as err:
            evolve(bomb, PA, cfg)
        assert err.value.time > 0.0
        assert np.isfinite(err.value.last_state.a).all()

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
        assert len(traj.states) == 21
        for got in traj.states[1:]:
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
        stages weigh Q's product spectra with pre-scaled rows, so the floats
        are summed in another order), for even and odd data, saved every
        step or every few steps."""
        rng = np.random.default_rng(62)
        for even, save_every in ((False, 1), (True, 1), (False, 3), (True, 7)):
            f = random_field(rng, 32, even=even, mean=0.3, decay=2.0)
            cfg = EvolutionConfig(dt=1e-3, t_final=0.02, n_modes=32,
                                  save_every=save_every)
            calls = []

            def oracle(*args):
                calls.append(args[3])
                return reference_quadratic(*args)

            want = reference_rk4(f, p, cfg, quadratic=oracle)
            got = evolve(f, p, cfg)
            assert calls == [32] * (4 * 20)
            assert len(want) == 20 // save_every + (20 % save_every != 0)
            assert len(got.states) == 1 + len(want)
            for state, (a, b) in zip(got.states[1:], want):
                assert relative_gap(state, SpectralField(a, b)) <= 1e-13

    def test_one_transform_each_way_per_stage(self, monkeypatch):
        counts = count_real_ffts(monkeypatch)
        cfg = EvolutionConfig(dt=1e-3, t_final=5e-3, n_modes=16)
        evolve(cosine(2, 0.1, n=16), PA, cfg)
        assert counts == {"irfft": 4 * 5, "rfft": 4 * 5}

    def test_rejects_oversized_initial_data(self):
        cfg = EvolutionConfig(dt=1e-2, t_final=0.1, n_modes=8)
        with pytest.raises(ConfigurationError):
            evolve(cosine(1, 0.1, n=16), PA, cfg)


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
        assert len(got.states) == len(want.states) == 8
        for state, mapped in zip(got.states, want.states):
            assert relative_gap(eps * state, mapped) <= 1e-13


class TestTravelingError:
    def test_trivial_point_is_exact(self):
        br = continue_branch(1, PA, 0.0, n=8)
        cfg = EvolutionConfig(dt=1e-2, t_final=0.1, n_modes=8)
        assert traveling_error(br.points[0], PA, cfg) == 0.0

    @staticmethod
    def per_state_gap(point, traj):
        """The gap state by state, each sampled on its own sup-norm grid."""
        phi = point.phi.pad_to(traj.states[0].n_modes)
        return max((state - translate(phi, point.c * t)).sup_norm()
                   for t, state in zip(traj.times, traj.states))

    def test_stacked_gap_equals_per_state_loop(self, branch_point):
        cfg = EvolutionConfig(dt=1e-3, t_final=0.5, n_modes=48)
        traj = evolve(branch_point.phi, PA, cfg)
        assert _translation_gap(branch_point, traj) == self.per_state_gap(branch_point, traj)

    def test_stacked_gap_on_the_finest_grid(self, branch_point):
        """Gaps of unequal degree are all sampled on the grid of the largest
        one, which contains each coarser power-of-two grid: the result is at
        least the per-state loop's and equals its maximum on that grid."""
        phi = branch_point.phi
        a, b = np.zeros(49), np.zeros(49)
        theta = 3 * 2 * np.pi / 128    # cos(3x - θ) peaks between 64-grid points
        a[3], b[3] = 1e-3 * np.cos(theta), 1e-3 * np.sin(theta)
        states = [phi, phi + SpectralField(a, b), phi + cosine(40, 1e-4, n=48)]
        traj = Trajectory(times=np.zeros(3), states=states,
                          dt_effective=0.1, mass_drift=0.0)
        got = _translation_gap(branch_point, traj)
        assert got > self.per_state_gap(branch_point, traj)
        fine = max(np.abs((state - phi).values(256)).max() for state in states)
        assert got == fine

    def test_small_amplitude_branch_point(self, branch_point):
        cfg = EvolutionConfig(dt=1e-3, t_final=0.5, n_modes=48)
        assert traveling_error(branch_point, PA, cfg) < 1e-4

    def test_fourth_order_decay(self, branch_point):
        """Halving dt inside the stability window shows RK4 decay."""
        dt0 = 0.8 * stable_dt(48, PA)
        cfg = EvolutionConfig(dt=dt0, t_final=1.0, n_modes=48)
        errs, rates = traveling_error_orders(branch_point, PA, cfg, halvings=2)
        assert all(e > 0 for e in errs)
        assert min(rates) > 3.7

    def test_no_order_at_the_roundoff_floor(self, branch_point):
        """Two errors at most ROUNDOFF_FLOOR ε_mach sup|φ| (4.5e-15 here) give
        no rate; one error above it gives a number."""
        floor = ROUNDOFF_FLOOR * np.finfo(float).eps * branch_point.phi.sup_norm()
        cfg = EvolutionConfig(dt=1e-3, t_final=0.01, n_modes=48)
        errs, rates = traveling_error_orders(branch_point, PA, cfg, halvings=1)
        assert max(errs) <= floor and rates == [None]
        cfg = EvolutionConfig(dt=0.02, t_final=0.2, n_modes=48)
        errs, rates = traveling_error_orders(branch_point, PA, cfg, halvings=1)
        assert errs[1] <= floor < errs[0] and 3.7 < rates[0] < 4.3
