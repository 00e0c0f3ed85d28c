"""Bifurcation detection, kernel counting, and branch continuation tests."""

import re

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
)
import oddwaves.bifurcation as bif
from oddwaves.model import _mfold_indices, d_c_residual

from helpers import (as_fields, count_fields, fft_residual, reference_branch,
                     reference_kernel_dimension, reference_newton, reference_shared_frequency,
                     reference_simplicity)

P = ModelParams(1.0, 1.0, 0.0)
PA = ModelParams(0.5, 1.0, 0.5)
# the defaults, α0 = β = 1 (c_2 = c_4) and β = 1.75 (c_1 = c_2)
SCAN_PARAMS = [PA, ModelParams(0.5, 1.0, 1.0), ModelParams(1.0, 1.0, 1.75)]


TOL = 1e-11    # small_branch's Newton tolerance


def small_branch(m=1, p=PA, s_max=0.02, n=24, **kw):
    return continue_branch(m, p, s_max, n=n, tol=TOL, **kw)


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
        assert as_fields(br)[0].sup_norm() == 0.0

    def test_residuals_below_tolerance(self):
        br = small_branch()
        assert not br.truncated
        for pt in br.points:
            assert pt.residual_norm < TOL

    def test_amplitude_constraint_exact(self):
        br = small_branch(m=2)
        for pt, phi in zip(br.points, as_fields(br)):
            assert phi.a[2] == pt.s

    def test_even_and_mfold_support_exact(self):
        br = small_branch(m=3, n=16)
        for phi in as_fields(br)[1:]:
            assert phi.is_even
            mask = np.ones(phi.n_modes + 1, dtype=bool)
            mask[::3] = False
            assert np.abs(phi.a[mask]).max() == 0.0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_points_keep_their_lattice_vectors(self, m, monkeypatch):
        """Continuation builds no field.  Each point holds its own read-only
        array of the n lattice amplitudes, α_1 = s, and ``Branch.profile``
        places them on the modes jm bit for bit, with exact zeros on every
        other mode."""
        n = 16
        built = count_fields(monkeypatch)
        br = small_branch(m=m, n=n)
        assert len(br.points) > 2 and not built
        for i, pt in enumerate(br.points):
            assert pt.alpha.shape == (n,) and pt.alpha.dtype == np.float64
            assert not pt.alpha.flags.writeable
            assert pt.alpha[0] == pt.s
            assert not any(np.shares_memory(pt.alpha, other.alpha)
                           for other in br.points[i + 1:])
            phi = br.profile(i)
            assert phi.n_modes == m * n
            assert phi.a[m::m].tobytes() == pt.alpha.tobytes()
            off = np.ones(m * n + 1, dtype=bool)
            off[m::m] = False
            assert np.all(phi.a[off] == 0.0) and np.all(phi.b == 0.0)

    def test_speed_approaches_critical_value(self):
        br = small_branch()
        c0 = critical_speed(1, PA)
        gaps = np.abs(np.array([pt.c for pt in br.points]) - c0)
        assert gaps[1] < 1e-5          # s = 1e-3
        assert np.all(np.diff(gaps[1:]) > 0)  # monotone departure

    def test_profile_tail_is_second_order_in_s(self):
        br = small_branch(s_max=0.02)
        s_vals, tails = [], []
        for pt, phi in zip(br.points[1:], as_fields(br)[1:]):
            rest = phi.a.copy()
            rest[1] = 0.0
            s_vals.append(abs(pt.s))
            tails.append(CosineSeries(rest).sup_norm())
        slope = np.polyfit(np.log(s_vals), np.log(tails), 1)[0]
        assert slope >= 1.9

    def test_refined_truncation_recheck(self):
        """Re-evaluating each converged profile embedded at doubled
        truncation must stay within 10x the tolerance."""
        br = small_branch(n=16)
        for pt, phi in zip(br.points[1:], as_fields(br)[1:]):
            fine = CosineSeries(np.r_[phi.a, np.zeros(phi.n_modes)])
            assert residual(pt.c, fine, PA).sup_norm() < 10 * TOL

    def test_bordered_jacobian_nonsingular_on_branch(self):
        """Full derivative matrix with the amplitude-constraint row appended
        stays uniformly invertible along the branch."""
        m, n = 1, 16
        br = small_branch(m=m, n=n)
        rows = _mfold_indices(m, n)
        for pt, phi in zip(br.points[1:], as_fields(br)[1:]):
            full = np.zeros((n + 1, n + 1))
            full[:n, 0] = d_c_residual(phi, PA).b[rows]
            jac = assemble_jacobian(pt.c, phi, PA, n, m)
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
            for pt, phi in zip(br.points[1:], as_fields(br)[1:]):
                shifted = phi.a.copy()
                shifted[::m] *= (-1.0) ** np.arange(shifted[::m].size)
                r = residual(pt.c, phi, PA)
                rs = residual(pt.c, CosineSeries(shifted), PA)
                sign = (-1.0) ** np.arange(r.b[::m].size)
                assert np.array_equal(rs.b[::m], sign * r.b[::m])
                assert np.array_equal(rs.a[::m], sign * r.a[::m])

    def test_step_policy_geometric_growth_to_cap(self):
        """Steps start at a tenth of the cap and double up to it."""
        br = continue_branch(1, PA, 0.05, n=16, step_cap=0.02)
        assert [pt.s for pt in br.points] == [0, 0.002, 0.006, 0.014, 0.03, 0.05]
        br = continue_branch(1, PA, 0.05, n=16, tol=1e-11)
        steps = np.diff([pt.s for pt in br.points])
        expect, step = [], 1e-3
        remaining = 0.05
        while remaining > 1e-15:
            step = min(step, bif.DEFAULT_STEP_CAP, remaining)
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
        br = continue_branch(1, PA, 0.05, n=16, tol=1e-11, max_iter=0)
        assert br.truncated and "converge" in br.failure
        assert len(br.points) == 1  # only the trivial record survived

    def test_truncated_is_whether_a_failure_is_reported(self):
        """A branch states its outcome once, as ``failure``: folds 1-3 at
        the defaults reach s_max with none, and the resonant fold 3 of bench
        seed 3107 stops short with one."""
        for m in (1, 2, 3):
            br = continue_branch(m, PA, 0.05)
            assert not br.truncated and br.failure is None
        p = ModelParams(0.5403454963757143, 0.8213213231130014, 0.5702351077242709)
        br = continue_branch(3, p, 0.05)
        assert br.truncated and br.failure is not None

    def test_degenerate_regime_off_resonance(self):
        """alpha0 == beta works on the same code path whenever alpha0 avoids
        the exact resonances alpha0 = 2/(jk - j - k); every fold then gives a
        clean branch with the third-order commutator coefficient zero."""
        p = ModelParams(0.5, 0.9, 0.9)
        assert p.degenerate
        for m in (1, 2, 3):
            assert kernel_dimension(critical_speed(m, p), p, m, 32) == 1
            br = continue_branch(m, p, 0.01, n=16, tol=1e-11)
            assert not br.truncated
            assert all(pt.residual_norm < 1e-11 for pt in br.points)

    def test_persistent_singular_system_raises(self, monkeypatch):
        """Step halving bottoms out in a NumericalError when every retry
        hits a singular Newton system."""
        import oddwaves.bifurcation as bif
        from oddwaves import NumericalError

        def always_singular(*args, **kwargs):
            raise bif._SingularSystem("forced", 0)

        monkeypatch.setattr(bif, "_newton", always_singular)
        with pytest.raises(NumericalError):
            bif.continue_branch(1, PA, 0.01, n=8)

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
                    raise bif._SingularSystem("forced", 0)
                return newton(c, alpha, *args)

            monkeypatch.setattr(bif, "_newton", singular_once)
            branch = continue_branch(1, PA, 0.005, n=16)
            assert failed == [0.003]
            return branch

        clean, scribbled = run(0.0), run(1.0)
        assert [pt.s for pt in clean.points] == pytest.approx([0, 0.001, 0.002, 0.004, 0.005])
        assert not clean.truncated and not scribbled.truncated
        for u, v in zip(clean.points, scribbled.points, strict=True):
            assert (u.s, u.c, u.residual_norm, u.newton_iters) == \
                (v.s, v.c, v.residual_norm, v.newton_iters)
            assert u.alpha.tobytes() == v.alpha.tobytes()

    def test_halved_attempt_counts_on_the_next_point(self, monkeypatch):
        """The solves of an attempt that ends in a singular system are
        counted on the point its halved retry accepts."""
        newton = bif._newton
        failed, iters = [], []

        def singular_once(c, alpha, *args):
            if not failed and alpha[0] > 0.0025:
                failed.append(alpha[0])
                raise bif._SingularSystem("forced", 3)
            result = newton(c, alpha, *args)
            iters.append(result[2])
            return result

        monkeypatch.setattr(bif, "_newton", singular_once)
        br = continue_branch(1, PA, 0.005, n=8)     # on the cap: no regrowth
        assert [pt.s for pt in br.points] == pytest.approx([0, 0.001, 0.002, 0.004, 0.005])
        assert [pt.newton_iters for pt in br.points] == [0, iters[0], 3 + iters[1], *iters[2:]]

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
    ε = 1 branch with s_max and the step cap scaled by ε, point by
    point and with the same Newton iterations, up to the same stall where
    n = 32 stops resolving the tail (fold 3 at ε = 0.5)."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("eps", [0.5, 0.25, 0.1])
    def test_branch_maps_onto_unit_epsilon(self, m, eps):
        s_max, n = 0.3, 32
        unit = continue_branch(m, ModelParams(1.0, 1.0, 0.5), eps * s_max, n=n,
                               step_cap=eps * bif.DEFAULT_STEP_CAP)
        scaled = continue_branch(m, ModelParams(eps, 1.0, 0.5), s_max, n=n,
                                 tol=bif.DEFAULT_TOL / eps ** 2)
        assert unit.truncated == scaled.truncated
        assert len(unit.points) == len(scaled.points) > 10
        for u, v in zip(unit.points, scaled.points):
            assert u.newton_iters == v.newton_iters
            assert abs(eps * v.s - u.s) <= 1e-13 * abs(u.s)
            assert abs(eps * v.c - u.c) <= 1e-13 * abs(u.c)
            assert np.abs(eps * v.alpha - u.alpha).max() <= 1e-13 * np.abs(u.alpha).max()


class TestArrayNewton:
    """Newton on amplitude arrays against the loop on validated fields."""

    @staticmethod
    def run_both(monkeypatch, m, **kw):
        """The branch through ``_newton`` and through the field oracle.  Both
        try the same lattices in the same order, the oracle runs on every
        one of them, and it is called once per step attempt: once per
        accepted point, once for a stall that truncates, and once more for
        each step solved again on a larger lattice.  Below the cap, and only
        there, Newton stalls at its first iterate that does not fall."""
        def recorded(newton):
            sizes = []

            def call(c, alpha, p, tol, max_iter, lattice, monotone):
                assert monotone == (lattice.n < bif.DEFAULT_TRUNCATION)
                sizes.append(lattice.n)
                return newton(c, alpha, p, tol, max_iter, lattice, monotone)
            return sizes, call

        fast_sizes, newton = recorded(bif._newton)
        monkeypatch.setattr(bif, "_newton", newton)
        fast = continue_branch(m, PA, 0.05, **kw)
        slow_sizes, oracle = recorded(reference_newton)
        monkeypatch.setattr(bif, "_newton", oracle)
        slow = continue_branch(m, PA, 0.05, **kw)
        assert slow_sizes == fast_sizes and len(set(slow_sizes)) > 1
        assert slow.modes_used == fast.modes_used == slow_sizes[-1]
        regrown = sum(a != b for a, b in zip(slow_sizes, slow_sizes[1:]))
        assert len(slow_sizes) == len(slow.points) - 1 + slow.truncated + regrown
        return fast, slow

    @staticmethod
    def assert_same_points(fast, slow):
        """The same steps and iterations; c, α and the residual norm equal to
        roundoff, since the lattice residual and the FFT residual sum the
        same terms in another order."""
        assert len(fast.points) == len(slow.points)
        for f, s in zip(fast.points, slow.points):
            assert (f.s, f.newton_iters) == (s.s, s.newton_iters)
            assert abs(f.c - s.c) <= 1e-13 * abs(s.c)
            assert f.alpha.shape == s.alpha.shape
            assert np.abs(f.alpha - s.alpha).max() <= 1e-13 * np.abs(s.alpha).max()
            assert abs(f.residual_norm - s.residual_norm) <= 1e-15

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
        for pt, phi in zip(br.points[1:], as_fields(br)[1:]):
            again = fft_residual(pt.c, phi, PA)[0].sup_norm()
            assert again < bif.DEFAULT_TOL
            assert again <= pt.residual_norm + 1e-15

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_l1_residual_below_tol_at_every_point(self, m):
        """Every accepted point of the default folds has Σ|b_k| over the
        sine amplitudes of its residual (``residual``; they are all of its
        nonzero modes) below tol, and reports that sum as its residual
        norm."""
        br = continue_branch(m, PA, 0.05)
        assert not br.truncated and len(br.points) == 9
        l1 = [np.abs(residual(pt.c, phi, PA).b).sum()
              for pt, phi in zip(br.points[1:], as_fields(br)[1:])]
        assert max(l1) < bif.DEFAULT_TOL
        assert l1 == pytest.approx([pt.residual_norm for pt in br.points[1:]], rel=0, abs=1e-15)


# (ε, α0, β) drawn by the bench's branch workload, and the fold whose lattice
# grows furthest there: to 27, 41 and 62 modes, to the cap after a stall on
# 41, and three resonant fold-3 draws that truncate (the second one's stall
# diverges; the last is bench seed 3107's)
BOX_DRAWS = [
    pytest.param(ModelParams(0.5287181456223168, 0.9736129310072166, 0.5465780036957938), 3,
                 id="box-27"),
    pytest.param(ModelParams(0.5075692576595526, 0.8132363752795622, 0.6479780119995461), 3,
                 id="box-41"),
    pytest.param(ModelParams(0.5075692576595526, 0.8132363752795622, 0.6479780119995461), 2,
                 id="box-62"),
    pytest.param(ModelParams(0.4087181456223168, 0.8847240421183277, 0.6465780036957938), 3,
                 id="box-cap"),
    pytest.param(ModelParams(0.4011637738100946, 0.9713783148586446, 0.6641633547465174), 3,
                 id="box-truncated"),
    pytest.param(ModelParams(0.5157008150213556, 0.9019447701762535, 0.6382651184168097), 3,
                 id="box-diverged"),
    pytest.param(ModelParams(0.5403454963757143, 0.8213213231130014, 0.5702351077242709), 3,
                 id="box-seed3107"),
]


class TestLatticeFollowsTheWave:
    """``continue_branch`` solves each step on the fewest lattice modes that
    resolve it and treats n as a cap; ``reference_branch`` solves every
    step on all n."""

    @pytest.mark.parametrize("p, m", [pytest.param(PA, m, id=f"default-{m}") for m in (1, 2, 3)]
                             + BOX_DRAWS)
    def test_branch_equals_fixed_cap_loop(self, p, m):
        """The same steps and the same stop, c and α equal to roundoff, and
        every amplitude past the lattice used an exact zero.  A stall's
        message names the same steps; its residual is that of the last
        iterate, which in a diverging Newton differs past roundoff, and its
        solve count includes, on the growing lattice, the attempts that
        regrew it."""
        fast, slow = continue_branch(m, p, 0.05), reference_branch(m, p, 0.05)
        assert [pt.s for pt in fast.points] == [pt.s for pt in slow.points]
        assert fast.truncated == slow.truncated
        unstalled = [re.sub(r"residual \S+|after \d+ ", "", br.failure or "")
                     for br in (fast, slow)]
        assert unstalled[0] == unstalled[1]
        assert fast.modes_used <= bif.DEFAULT_TRUNCATION
        for f, s in zip(fast.points[1:], slow.points[1:]):
            assert abs(f.c - s.c) <= 1e-13 * abs(s.c)
            assert f.alpha.shape == s.alpha.shape == (bif.DEFAULT_TRUNCATION,)
            assert np.abs(f.alpha - s.alpha).max() <= 1e-13 * np.abs(s.alpha).max()
            assert not f.alpha[fast.modes_used:].any()
            assert f.residual_norm < bif.DEFAULT_TOL

    @pytest.mark.parametrize("p, m, solves", [
        pytest.param(PA, 1, 16, id="default-1"),
        pytest.param(PA, 2, 22, id="default-2"),
        pytest.param(PA, 3, 26, id="default-3"),
        # stalls on 18 modes at s = 0.015 and is solved again on the cap
        pytest.param(ModelParams(0.453, 0.8774, 0.6321), 3, 43, id="full-ladder"),
    ])
    def test_newton_iters_count_every_solve(self, p, m, solves, monkeypatch):
        """A point's ``newton_iters`` counts every linear solve its step
        cost, those of the attempts that regrew the lattice or stalled below
        the cap included, so a branch that reaches s_max reports all the
        solves it made."""
        made = []
        solve = bif.np.linalg.solve

        def counted(*args):
            made.append(None)
            return solve(*args)

        monkeypatch.setattr(bif.np.linalg, "solve", counted)
        br = continue_branch(m, p, 0.05)
        assert not br.truncated
        assert sum(pt.newton_iters for pt in br.points) == len(made) == solves

    def test_truncating_step_names_its_solves(self, monkeypatch):
        """A step that truncates the branch has no point to count its
        solves on, so ``failure`` names them: the resonant fold 3 of bench
        seed 3107 (cap 64) makes 48 solves, its points count 20, and the
        message says 28."""
        made = []
        solve = bif.np.linalg.solve

        def counted(*args):
            made.append(None)
            return solve(*args)

        monkeypatch.setattr(bif.np.linalg, "solve", counted)
        p = ModelParams(0.5403454963757143, 0.8213213231130014, 0.5702351077242709)
        br = continue_branch(3, p, 0.05, n=64)
        assert br.truncated and "truncated" in br.failure
        assert (len(made), sum(pt.newton_iters for pt in br.points)) == (48, 20)
        assert " after 28 linear solves; branch truncated at " in br.failure

    def test_default_folds_use_a_fraction_of_the_cap(self):
        """At the defaults the folds stop growing well short of the cap."""
        used = [continue_branch(m, PA, 0.05).modes_used for m in (1, 2, 3)]
        assert used == [12, 18, 18]

    def test_stall_below_the_cap_ends_at_the_first_rise(self, monkeypatch):
        """Below the cap (``monotone``) Newton stalls at its first iterate
        whose Σ|b_k| does not fall, and reports that iterate's sum; at the
        cap it runs to max_iter.  With tol 0 no iterate is accepted, so both
        reach the roundoff floor, where the sum stops falling."""
        lattice = bif._Lattice(1, 8, PA.alpha0 - PA.beta)
        start = np.zeros(8)
        start[0] = 0.01
        norms = []
        evaluate = bif._lattice_residual

        def recorded(*args):
            b = evaluate(*args)
            norms.append(float(np.abs(b).sum()))
            return b

        monkeypatch.setattr(bif, "_lattice_residual", recorded)
        for monotone, evaluations in ((False, 26), (True, None)):
            norms.clear()
            with pytest.raises(bif._NoConvergence) as stall:
                bif._newton(critical_speed(1, PA), start.copy(), PA, 0.0, 25, lattice, monotone)
            assert stall.value.residual_norm == norms[-1]
            if evaluations:
                assert len(norms) == evaluations
        assert 2 < len(norms) < 26
        assert all(a > b for a, b in zip(norms[:-2], norms[1:-1])) and norms[-1] >= norms[-2]

    def test_short_cap_still_truncates(self):
        """A cap too short for the resonant fold-3 draw of bench seed 3107
        stops the branch where the fixed loop on that many modes stops it,
        and the message names the modes it stalled on."""
        p = ModelParams(0.5403454963757143, 0.8213213231130014, 0.5702351077242709)
        fast, slow = continue_branch(3, p, 0.05, n=12), reference_branch(3, p, 0.05, n=12)
        assert fast.truncated and slow.truncated
        assert "on 12 lattice modes" in fast.failure
        assert [pt.s for pt in fast.points] == [pt.s for pt in slow.points]
        assert fast.modes_used == 12

