"""Bifurcation detection, kernel counting, and branch continuation tests."""

import numpy as np
import pytest

from oddwaves import (
    ConfigurationError,
    CosineSeries,
    ModelParams,
    assemble_jacobian,
    continue_branch,
    critical_speed,
    detect_bifurcations,
    kernel_dimension,
    residual,
    transversality,
)
import oddwaves.bifurcation as bif
from oddwaves.model import _mfold_indices, d_c_residual

from helpers import (fft_residual, reference_kernel_dimension, reference_newton,
                     reference_shared_frequency, reference_simplicity)

P = ModelParams(1.0, 1.0, 0.0)
PA = ModelParams(0.5, 1.0, 0.5)
# the defaults, α0 = β = 1 (c_2 = c_4) and β = 1.75 (c_1 = c_2)
SCAN_PARAMS = [PA, ModelParams(0.5, 1.0, 1.0), ModelParams(1.0, 1.0, 1.75)]


def small_branch(m=1, p=PA, s_max=0.02, n=24, **kw):
    return continue_branch(m, p, s_max, ds=1e-3, n=n, tol=1e-11, **kw)


def resonant_params(k, j, epsilon, alpha0):
    """Parameters with c_k = c_j: c_k is affine in g = α0 - β,
    c_k = ((1 - k) / k - g k) / (ε (2 + α0 k)), so the two speeds meet at
    one g."""
    def affine(q):
        return (1.0 - q) / (q * (2.0 + alpha0 * q)), q / (2.0 + alpha0 * q)
    (bk, sk), (bj, sj) = affine(k), affine(j)
    return ModelParams(epsilon, alpha0, alpha0 - (bk - bj) / (sk - sj))


class TestDetectBifurcations:
    def test_reference_speeds_all_simple(self):
        pts = detect_bifurcations(P, 3)
        speeds = [pt.speed for pt in pts]
        assert np.allclose(speeds, [-1 / 3, -5 / 8, -11 / 15], atol=1e-15)
        assert all(pt.simple for pt in pts)

    def test_degenerate_k1(self):
        pts = detect_bifurcations(ModelParams(2.0, 1.5, 1.5), 1)
        assert pts[0].speed == 0.0 and pts[0].simple

    def test_double_root_flagged_nonsimple(self):
        """Resonant parameters are found by brute-force search over beta and
        must be flagged, never silently accepted."""
        betas = np.linspace(0.5, 3.0, 2501)
        hits = [b for b in betas
                if abs(critical_speed(1, ModelParams(1.0, 1.0, b))
                       - critical_speed(2, ModelParams(1.0, 1.0, b))) < 1e-12]
        assert hits, "no resonant Bond number found in the scan"
        p = ModelParams(1.0, 1.0, hits[0])
        assert abs(hits[0] - 1.75) < 1e-9
        pts = detect_bifurcations(p, 2)
        assert not pts[0].simple and not pts[1].simple

    def test_kmax_validation(self):
        with pytest.raises(ConfigurationError):
            detect_bifurcations(P, 0)

    @pytest.mark.parametrize("p", SCAN_PARAMS)
    def test_simplicity_equals_scalar_loop(self, p):
        """The array scan flags every speed as the scalar loop over
        ``symbol_at`` does, resonant pairs included."""
        for k_max, n_scan in ((3, 64), (10, 192)):
            got = [pt.simple for pt in detect_bifurcations(p, k_max, n_scan=n_scan)]
            assert got == reference_simplicity(p, k_max, n_scan)
            assert all(type(flag) is bool for flag in got)


class TestKernelDimension:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_one_dimensional_at_critical_speed(self, m):
        assert kernel_dimension(critical_speed(m, PA), PA, m, 64) == 1

    def test_zero_away_from_roots(self):
        assert kernel_dimension(123.456, PA, 1, 32) == 0

    def test_fold_filters_foreign_roots(self):
        # c_1 is not a root of any even frequency here
        assert kernel_dimension(critical_speed(1, P), P, 2, 32) == 0

    def test_needs_minimum_truncation(self):
        with pytest.raises(ConfigurationError):
            kernel_dimension(0.0, P, 1, 3)

    def test_equals_svd_count(self):
        """The count of vanishing multipliers is the number of small
        singular values of the assembled flat-state Jacobian, at critical
        speeds, at generic speeds and at lattice resonances (kernel 2), on
        seeded parameter draws and at α0 = β = 1 ({1: 1, 2: 2, 3: 1})."""
        rng = np.random.default_rng(20)
        seen = set()
        for _ in range(30):
            eps, alpha0 = rng.uniform(0.2, 2.0), rng.uniform(0.2, 3.0)
            m, j, n = int(rng.integers(1, 4)), int(rng.integers(2, 5)), int(rng.integers(4, 40))
            for p in (ModelParams(eps, alpha0, rng.uniform(-2.0, 3.0)),
                      resonant_params(m, j * m, eps, alpha0)):
                for c in (critical_speed(m, p), rng.uniform(-3.0, 3.0)):
                    dim = kernel_dimension(c, p, m, n)
                    assert dim == reference_kernel_dimension(c, p, m, n)
                    seen.add(dim)
        assert seen == {0, 1, 2}
        p = ModelParams(0.5, 1.0, 1.0)
        dims = {m: kernel_dimension(critical_speed(m, p), p, m, 64) for m in (1, 2, 3)}
        assert dims == {m: reference_kernel_dimension(critical_speed(m, p), p, m, 64)
                        for m in (1, 2, 3)} == {1: 1, 2: 2, 3: 1}

    @pytest.mark.parametrize("p", [PA, ModelParams(0.5, 1.0, 1.0), resonant_params(2, 4, 0.7, 2.5),
                                   resonant_params(3, 6, 1.3, 0.6)])
    def test_simplicity_decisions_agree(self, p):
        """A one-dimensional m-fold kernel at c_m, the ``simple`` flag of
        ``detect_bifurcations`` and a branch start that is not refused are
        one decision.  The flag scans every frequency, not only the m-fold
        ones, so these parameters share speeds on the lattice alone."""
        n = 16
        for m in (1, 2, 3):
            simple = kernel_dimension(critical_speed(m, p), p, m, n) == 1
            assert detect_bifurcations(p, 3, n_scan=3 * n)[m - 1].simple == simple
            try:
                continue_branch(m, p, 0.0, n=n)
                starts = True
            except ConfigurationError:
                starts = False
            assert starts == simple


class TestTransversality:
    def test_always_true_for_positive_alpha0(self):
        assert all(transversality(k, PA) for k in range(1, 30))


class TestContinueBranch:
    def test_start_scan_equals_scalar_loop(self):
        """The array scan of the m-fold frequencies refuses exactly the
        starts the scalar loop refuses, naming the same frequency."""
        refused = set()
        for i, p in enumerate(SCAN_PARAMS):
            for m in (1, 2, 3):
                shared = reference_shared_frequency(m, p, 32)
                if shared is None:
                    assert len(continue_branch(m, p, 0.0, n=32).points) == 1
                    continue
                refused.add((i, m, shared))
                with pytest.raises(ConfigurationError, match=f"frequency {shared} shares"):
                    continue_branch(m, p, 0.0, n=32)
        assert {(1, 2, 4), (2, 1, 2)} <= refused

    def test_trivial_first_point(self):
        br = small_branch()
        first = br.points[0]
        assert first.s == 0.0
        assert first.c == critical_speed(1, PA)
        assert first.phi.sup_norm() == 0.0

    def test_residuals_below_tolerance(self):
        br = small_branch()
        assert not br.truncated
        for pt in br.points:
            assert pt.residual_norm < br.tol

    def test_amplitude_constraint_exact(self):
        br = small_branch(m=2)
        for pt in br.points:
            assert pt.phi.a[2] == pt.s

    def test_even_and_mfold_support_exact(self):
        br = small_branch(m=3, n=16)
        for pt in br.points[1:]:
            assert pt.phi.is_even
            mask = np.ones(pt.phi.n_modes + 1, dtype=bool)
            mask[::3] = False
            assert np.abs(pt.phi.a[mask]).max() == 0.0

    def test_speed_approaches_critical_value(self):
        br = small_branch()
        c0 = critical_speed(1, PA)
        gaps = np.abs(br.speeds - c0)
        assert gaps[1] < 1e-5          # s = 1e-3
        assert np.all(np.diff(gaps[1:]) > 0)  # monotone departure

    def test_profile_tail_is_second_order_in_s(self):
        br = small_branch(s_max=0.02)
        s_vals, tails = [], []
        for pt in br.points[1:]:
            rest = pt.phi.a.copy()
            rest[1] = 0.0
            s_vals.append(abs(pt.s))
            tails.append(CosineSeries(rest).sup_norm())
        slope = np.polyfit(np.log(s_vals), np.log(tails), 1)[0]
        assert slope >= 1.9

    def test_refined_truncation_recheck(self):
        """Re-evaluating each converged profile embedded at doubled
        truncation must stay within 10x the tolerance."""
        br = small_branch(n=16)
        for pt in br.points[1:]:
            fine = CosineSeries(np.r_[pt.phi.a, np.zeros(pt.phi.n_modes)])
            assert residual(pt.c, fine, PA).sup_norm() < 10 * br.tol

    def test_bordered_jacobian_nonsingular_on_branch(self):
        """Full derivative matrix with the amplitude-constraint row appended
        stays uniformly invertible along the branch."""
        br = small_branch(n=16)
        m, n = br.m, br.truncation
        rows = _mfold_indices(m, n)
        for pt in br.points[1:]:
            full = np.zeros((n + 1, n + 1))
            full[:n, 0] = d_c_residual(pt.phi, PA).b[rows]
            jac = assemble_jacobian(pt.c, pt.phi, PA, n, m)
            full[:n, 1:] = jac
            full[n, 1] = 1.0  # amplitude constraint: cos(mx) coefficient fixed
            svals = np.linalg.svd(full, compute_uv=False)
            assert svals[-1] > 1e-8 * svals[0]

    def test_mirror_branch_is_half_period_shift(self):
        """The half-period shift x -> x + π/m maps the branch to its mirror
        s -> -s: it takes a_{jm} to (-1)^j a_{jm}, and the residual of the
        shifted point is, on every lattice mode jm, (-1)^j times the
        point's own, to the last bit.  So the mirror point solves R = 0 at
        the same speed and residual."""
        for m in (1, 2, 3):
            br = small_branch(m=m, n=16, s_max=0.05)
            for pt in br.points[1:]:
                shifted = pt.phi.a.copy()
                shifted[::m] *= (-1.0) ** np.arange(shifted[::m].size)
                r = residual(pt.c, pt.phi, PA)
                rs = residual(pt.c, CosineSeries(shifted), PA)
                sign = (-1.0) ** np.arange(r.b[::m].size)
                assert np.array_equal(rs.b[::m], sign * r.b[::m])
                assert np.array_equal(rs.a[::m], sign * r.a[::m])

    def test_step_policy_geometric_growth_to_cap(self):
        br = continue_branch(1, PA, 0.05, ds=1e-3, n=16, tol=1e-11)
        steps = np.diff(br.amplitudes)
        expect, step = [], 1e-3
        remaining = 0.05
        while remaining > 1e-15:
            step = min(step, br.step_cap, remaining)
            expect.append(step)
            remaining -= step
            step *= bif.DEFAULT_STEP_GROWTH
        assert np.allclose(steps, expect, rtol=0, atol=1e-15)
        assert abs(br.points[-1].s - 0.05) < 1e-15  # lands exactly on s_max

    def test_smax_zero_gives_single_trivial_record(self):
        br = small_branch(s_max=0.0)
        assert len(br.points) == 1 and br.points[0].s == 0.0

    def test_rejects_nonsimple_start(self):
        resonant = ModelParams(1.0, 1.0, 1.75)  # c_1 == c_2
        with pytest.raises(ConfigurationError):
            continue_branch(1, resonant, 0.01, n=8)

    def test_precondition_validation(self):
        with pytest.raises(ConfigurationError):
            continue_branch(1, PA, -0.1)
        with pytest.raises(ConfigurationError):
            continue_branch(1, PA, 0.01, ds=0.0)
        with pytest.raises(ConfigurationError):
            continue_branch(1, PA, 0.01, tol=1e-13)

    @pytest.mark.parametrize("kw", [{"max_iter": -1}, {"max_iter": 2.5},
                                    {"step_cap": 0.0}, {"step_cap": -1e-3},
                                    {"step_cap": float("nan")}])
    def test_step_settings_rejected_before_newton(self, kw, monkeypatch):
        """Settings under which the loop could never finish (a zero step)
        or Newton could never run are refused up front."""
        def no_newton(*args):
            raise AssertionError("Newton ran")

        monkeypatch.setattr(bif, "_newton", no_newton)
        with pytest.raises(ConfigurationError):
            continue_branch(1, PA, 0.05, **kw)

    def test_nonconvergence_truncates_and_reports(self):
        br = continue_branch(1, PA, 0.05, ds=1e-3, n=16, tol=1e-11, max_iter=0)
        assert br.truncated and "converge" in br.failure
        assert len(br.points) == 1  # only the trivial record survived

    def test_degenerate_regime_off_resonance(self):
        """alpha0 == beta works on the same code path whenever alpha0 avoids
        the exact resonances alpha0 = 2/(jk - j - k); every fold then gives a
        clean branch with the third-order commutator coefficient zero."""
        p = ModelParams(0.5, 0.9, 0.9)
        assert p.degenerate
        for m in (1, 2, 3):
            assert kernel_dimension(critical_speed(m, p), p, m, 32) == 1
            br = continue_branch(m, p, 0.01, ds=2e-3, n=16, tol=1e-11)
            assert not br.truncated
            assert all(pt.residual_norm < 1e-11 for pt in br.points)

    def test_persistent_singular_system_raises(self, monkeypatch):
        """Step halving bottoms out in a NumericalError when every retry
        hits a singular Newton system."""
        import oddwaves.bifurcation as bif
        from oddwaves import NumericalError

        def always_singular(*args, **kwargs):
            raise bif._SingularSystem("forced")

        monkeypatch.setattr(bif, "_newton", always_singular)
        with pytest.raises(NumericalError):
            bif.continue_branch(1, PA, 0.01, ds=1e-3, n=8)

    def test_singular_retry_restarts_from_last_accepted_point(self, monkeypatch):
        """A trial that hits a singular system after moving its amplitudes
        leaves the last accepted point as it was: the halved retry starts
        from that point, so the branch is the one a clean failure gives."""
        newton = bif._newton

        def run(scribble):
            failed = []

            def singular_once(c, alpha, *args):
                if not failed and alpha[0] > 0.0025:
                    failed.append(alpha[0])
                    alpha[1:] += scribble
                    raise bif._SingularSystem("forced")
                return newton(c, alpha, *args)

            monkeypatch.setattr(bif, "_newton", singular_once)
            branch = continue_branch(1, PA, 0.005, ds=1e-3, n=16)
            assert failed == [0.003]
            return branch

        clean, scribbled = run(0.0), run(1.0)
        assert [pt.s for pt in clean.points] == pytest.approx([0, 0.001, 0.002, 0.004, 0.005])
        assert not clean.truncated and not scribbled.truncated
        for u, v in zip(clean.points, scribbled.points, strict=True):
            assert (u.s, u.c, u.residual_norm, u.newton_iters) == \
                (v.s, v.c, v.residual_norm, v.newton_iters)
            assert u.phi.a.tobytes() == v.phi.a.tobytes()

    def test_degenerate_resonant_fold_refused(self):
        """At alpha0 == beta == 1 the frequencies 2 and 4 share a speed
        exactly, so the 2-fold branch start is a double eigenvalue and must
        be rejected rather than silently continued."""
        p = ModelParams(0.5, 1.0, 1.0)
        assert critical_speed(2, p) == critical_speed(4, p)
        assert kernel_dimension(critical_speed(2, p), p, 2, 32) == 2
        with pytest.raises(ConfigurationError):
            continue_branch(2, p, 0.01, n=16)


class TestScaleCovariance:
    """(c, φ) solves R = 0 at (ε, α0, β) exactly when (εc, εφ) solves it at
    (1, α0, β), and R scales by 1/ε².  So the branch at ε with tol/ε² is the
    ε = 1 branch with s_max, ds and the step cap scaled by ε, point by
    point and with the same Newton iterations, up to the same stall where
    n = 32 stops resolving the tail (fold 3 at ε = 0.5)."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("eps", [0.5, 0.25, 0.1])
    def test_branch_maps_onto_unit_epsilon(self, m, eps):
        s_max, n = 0.3, 32
        unit = continue_branch(m, ModelParams(1.0, 1.0, 0.5), eps * s_max, n=n,
                               ds=eps * bif.DEFAULT_STEP, step_cap=eps * bif.DEFAULT_STEP_CAP)
        scaled = continue_branch(m, ModelParams(eps, 1.0, 0.5), s_max, n=n,
                                 tol=bif.DEFAULT_TOL / eps ** 2)
        assert unit.truncated == scaled.truncated
        assert len(unit.points) == len(scaled.points) > 10
        for u, v in zip(unit.points, scaled.points):
            assert u.newton_iters == v.newton_iters
            assert abs(eps * v.s - u.s) <= 1e-13 * abs(u.s)
            assert abs(eps * v.c - u.c) <= 1e-13 * abs(u.c)
            assert np.abs(eps * v.phi.a - u.phi.a).max() <= 1e-13 * np.abs(u.phi.a).max()


class TestArrayNewton:
    """Newton on amplitude arrays against the loop on validated fields."""

    @staticmethod
    def run_both(monkeypatch, m, **kw):
        fast = continue_branch(m, PA, 0.05, **kw)
        calls = []

        def oracle(*args):
            calls.append(args)
            return reference_newton(*args)

        monkeypatch.setattr(bif, "_newton", oracle)
        slow = continue_branch(m, PA, 0.05, **kw)
        assert len(calls) == len(slow.points) - 1 + slow.truncated
        return fast, slow

    @staticmethod
    def assert_same_points(fast, slow):
        """The same steps and iterations; c, φ and the residual norm equal to
        roundoff, since the lattice residual and the FFT residual sum the
        same terms in another order."""
        assert len(fast.points) == len(slow.points)
        for f, s in zip(fast.points, slow.points):
            assert (f.s, f.newton_iters) == (s.s, s.newton_iters)
            assert abs(f.c - s.c) <= 1e-13 * abs(s.c)
            assert np.abs(f.phi.a - s.phi.a).max() <= 1e-13 * np.abs(s.phi.a).max()
            assert abs(f.residual_norm - s.residual_norm) <= 1e-15
            assert f.phi.is_even and f.phi.grid_size == s.phi.grid_size

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_branch_equals_field_newton(self, monkeypatch, m):
        fast, slow = self.run_both(monkeypatch, m)
        assert not fast.truncated and len(fast.points) == 9
        self.assert_same_points(fast, slow)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_truncated_branch_equals_field_newton(self, monkeypatch, m):
        fast, slow = self.run_both(monkeypatch, m, max_iter=1)
        assert fast.truncated and slow.truncated
        assert fast.failure == slow.failure
        self.assert_same_points(fast, slow)


    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_fft_residual_confirms_every_point(self, m):
        """The sup of each accepted point's residual, evaluated again through
        the FFT path (``fft_residual``), is below tol and, up to roundoff,
        below the Σ|b_k| the point reports, which bounds it."""
        br = continue_branch(m, PA, 0.05)
        assert not br.truncated and len(br.points) == 9
        for pt in br.points[1:]:
            again = fft_residual(pt.c, pt.phi, PA)[0].sup_norm()
            assert again < br.tol
            assert again <= pt.residual_norm + 1e-15

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_l1_residual_below_tol_at_every_point(self, m):
        """Every accepted point of the default folds has Σ|b_k| over the
        sine amplitudes of its residual (``residual``; they are all of its
        nonzero modes) below tol, and reports that sum as its residual
        norm."""
        br = continue_branch(m, PA, 0.05)
        assert not br.truncated and len(br.points) == 9
        l1 = [np.abs(residual(pt.c, pt.phi, PA).b).sum() for pt in br.points[1:]]
        assert max(l1) < br.tol
        assert l1 == pytest.approx([pt.residual_norm for pt in br.points[1:]], rel=0, abs=1e-15)
