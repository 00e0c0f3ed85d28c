"""Bifurcation detection, kernel counting, and branch continuation tests."""

import json

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
    translate,
    transversality,
)
from oddwaves.bifurcation import branch_to_csv, branch_to_json
from oddwaves.model import _mfold_indices, d_c_residual

P = ModelParams(1.0, 1.0, 0.0)
PA = ModelParams(0.5, 1.0, 0.5)


def small_branch(m=1, p=PA, s_max=0.02, n=24, **kw):
    return continue_branch(m, p, s_max, ds=1e-3, n=n, tol=1e-11, **kw)


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


class TestTransversality:
    def test_always_true_for_positive_alpha0(self):
        assert all(transversality(k, PA) for k in range(1, 30))


class TestContinueBranch:
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
        plus = small_branch(n=16, s_max=0.01)
        minus = small_branch(n=16, s_max=0.01, direction=-1)
        for pp, pm in zip(plus.points[1:], minus.points[1:]):
            assert pm.s == -pp.s
            assert abs(pm.c - pp.c) < 1e-9
            shifted = translate(pp.phi, np.pi / plus.m)
            gap = max(np.abs(pm.phi.a - shifted.a).max(),
                      np.abs(shifted.b).max())
            assert gap < 1e-9

    def test_step_policy_geometric_growth_to_cap(self):
        br = continue_branch(1, PA, 0.05, ds=1e-3, n=16, tol=1e-11)
        steps = np.diff(br.amplitudes)
        expect, step = [], 1e-3
        remaining = 0.05
        while remaining > 1e-15:
            step = min(step, br.step_cap, remaining)
            expect.append(step)
            remaining -= step
            step *= br.step_growth
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

    def test_degenerate_resonant_fold_refused(self):
        """At alpha0 == beta == 1 the frequencies 2 and 4 share a speed
        exactly, so the 2-fold branch start is a double eigenvalue and must
        be rejected rather than silently continued."""
        p = ModelParams(0.5, 1.0, 1.0)
        assert critical_speed(2, p) == critical_speed(4, p)
        assert kernel_dimension(critical_speed(2, p), p, 2, 32) == 2
        with pytest.raises(ConfigurationError):
            continue_branch(2, p, 0.01, n=16)


class TestSerialization:
    def test_csv_layout(self):
        br = small_branch(n=8)
        text = branch_to_csv(br)
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        assert header[:4] == ["s", "c", "residual_norm", "newton_iters"]
        assert header[4:] == [f"coeff_{j}" for j in range(1, 9)]
        assert len(lines) == 1 + len(br.points)
        cells = lines[2].split(",")
        pt = br.points[1]
        assert float(cells[0]) == pt.s and float(cells[1]) == pt.c
        assert float(cells[4]) == pt.s  # coeff_1 is the amplitude itself

    def test_json_envelope(self):
        br = small_branch(n=8, m=2)
        doc = branch_to_json(br)
        blob = json.dumps(doc)  # must be JSON-serializable as-is
        assert json.loads(blob)["fold"] == 2
        assert doc["params"] == {"epsilon": 0.5, "alpha0": 1.0, "beta": 0.5}
        assert doc["truncation"] == 8
        assert set(doc["tolerances"]) == {"tol", "max_iter", "ds", "step_cap", "step_growth"}
        assert doc["version"]
        assert len(doc["records"]) == len(br.points)
        assert len(doc["records"][0]) == 4 + br.truncation
