"""End-to-end CLI tests: commands, artifacts, exit codes, reproducibility."""

import hashlib
import json
import runpy
import sys

import numpy as np
import pytest

from oddwaves import (ModelParams, __version__, bifurcation, cli, continue_branch,
                      critical_speed, evolution, holder, holder_norm, spectral)
from oddwaves.cli import main

from helpers import (as_fields, no_climb, reference_commutator_sweep, reference_csv_body,
                     reference_holder_norm, reference_profile_rows)


def run(tmp_path, *args):
    return main([*args, "--out", str(tmp_path / "out")])


def read_json(tmp_path, name):
    doc = json.loads((tmp_path / "out" / name).read_text())
    assert {"config", "content_hash", "payload"} <= set(doc)
    return doc


def csv_body(path):
    """The text of a written CSV after its config and sha256 lines."""
    return "".join(path.read_text().splitlines(keepends=True)[2:])


def read_csv(tmp_path, name):
    lines = (tmp_path / "out" / name).read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1].startswith("# sha256: ")
    return lines[2:]


def gate_profile(row, m):
    """A ``branch.csv`` row's profile as the bench's branch gate rebuilds
    it (``bench/workloads._branch_gate``): φ = Σ_j coeff_j cos(j m x), j up
    to the row's count of coefficient cells."""
    coeffs = np.array(row.split(",")[4:], dtype=float)
    a = np.zeros(m * coeffs.size + 1)
    a[m * np.arange(1, coeffs.size + 1)] = coeffs
    return spectral.CosineSeries(a)


class TestBifurcate:
    def test_reference_table(self, tmp_path):
        code = run(tmp_path, "bifurcate", "--epsilon", "1", "--alpha0", "1",
                   "--beta", "0", "--kmax", "3")
        assert code == 0
        rows = read_csv(tmp_path, "bifurcation_points.csv")[1:]
        speeds = [float(r.split(",")[1]) for r in rows]
        assert np.allclose(speeds, [-1 / 3, -5 / 8, -11 / 15])
        assert all(r.split(",")[2] == "True" for r in rows)
        assert [int(r.split(",")[0]) for r in rows] == [1, 2, 3]

    def test_invalid_alpha0_exits_2(self, tmp_path):
        assert run(tmp_path, "bifurcate", "--alpha0", "-1") == 2

    def test_kmax_zero_exits_2(self, tmp_path):
        assert run(tmp_path, "bifurcate", "--kmax", "0") == 2

    def test_simple_agrees_with_branch(self, tmp_path, capsys):
        """--modes counts modes per fold in every command, so bifurcate scans
        the frequencies that branch --fold k checks.  At this beta frequency
        66 = 22 * 3 shares c_3: k = 3 is not simple, and branch refuses it."""
        beta = repr(1 - 127 / 396)
        assert run(tmp_path, "bifurcate", "--beta", beta, "--kmax", "3") == 0
        rows = read_csv(tmp_path, "bifurcation_points.csv")[1:]
        assert [row.split(",")[2] for row in rows] == ["True", "True", "False"]
        assert run(tmp_path, "branch", "--beta", beta, "--fold", "3") == 2
        assert "frequency 66 shares the critical speed" in capsys.readouterr().err


class TestBranch:
    def test_two_fold_support(self, tmp_path):
        code = run(tmp_path, "branch", "--fold", "2", "--smax", "0.01",
                   "--modes", "12")
        assert code == 0
        rows = read_csv(tmp_path, "branch.csv")
        header = rows[0].split(",")
        assert header[:4] == ["s", "c", "residual_norm", "newton_iters"]
        doc = read_json(tmp_path, "branch.json")
        assert doc["config"]["fold"] == 2 and not doc["payload"]["truncated"]
        # every point satisfies the residual tolerance
        assert all(float(row.split(",")[2]) < 1e-11 for row in rows[1:])

    def test_smax_zero_single_record(self, tmp_path):
        code = run(tmp_path, "branch", "--smax", "0", "--modes", "8")
        assert code == 0
        rows = read_csv(tmp_path, "branch.csv")[1:]
        assert len(rows) == 1
        assert float(rows[0].split(",")[0]) == 0.0

    def test_csv_layout(self, tmp_path):
        """One row per branch point: s, c, residual_norm, newton_iters, then
        the amplitudes coeff_j of cos(j m x), coeff_1 being s itself."""
        assert run(tmp_path, "branch", "--smax", "0.02", "--modes", "8") == 0
        lines = read_csv(tmp_path, "branch.csv")
        header = lines[0].split(",")
        assert header[:4] == ["s", "c", "residual_norm", "newton_iters"]
        assert header[4:] == [f"coeff_{j}" for j in range(1, 9)]
        p = ModelParams(*(cli.DEFAULTS[k] for k in ("epsilon", "alpha0", "beta")))
        points = continue_branch(1, p, 0.02, n=8).points
        assert len(lines) == 1 + len(points)
        cells = lines[2].split(",")
        assert float(cells[0]) == points[1].s and float(cells[1]) == points[1].c
        assert int(cells[3]) == points[1].newton_iters
        assert float(cells[4]) == points[1].s

    def test_json_manifest(self, tmp_path):
        """``branch.json`` carries the outcome of the run, the largest
        lattice it solved on and the one setting that is not the CLI's, the
        step cap; the others are in its config block, and the points are in
        ``branch.csv`` alone."""
        assert run(tmp_path, "branch", "--fold", "2", "--smax", "0.02", "--modes", "8") == 0
        doc = read_json(tmp_path, "branch.json")
        assert doc["payload"] == {"version": __version__, "step_cap": bifurcation.DEFAULT_STEP_CAP,
                                  "truncated": False, "failure": None, "modes_used": 8}
        assert doc["config"]["fold"] == 2 and doc["config"]["modes"] == 8
        assert {"epsilon": 0.5, "alpha0": 1.0, "beta": 0.5}.items() <= doc["config"].items()

    def test_nonconvergence_exits_3(self, tmp_path):
        code = run(tmp_path, "branch", "--smax", "0.01", "--modes", "8",
                   "--max-iter", "0")
        assert code == 3
        doc = read_json(tmp_path, "branch.json")  # last good point still written
        assert doc["payload"]["truncated"]

    def test_nan_smax_exits_2(self, tmp_path):
        assert run(tmp_path, "branch", "--smax", "nan") == 2

    def test_negative_max_iter_exits_2(self, tmp_path, capsys):
        assert run(tmp_path, "branch", "--max-iter", "-1") == 2
        assert "max_iter must be an integer >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("draw, code", [
        pytest.param(("0.5403454963757143", "0.8213213231130014", "0.5702351077242709"), 3,
                     id="seed3107-truncated"),
        pytest.param(("0.453", "0.8774", "0.6321"), 0, id="full-ladder"),
    ])
    def test_csv_width_is_the_lattice_used(self, tmp_path, draw, code):
        """``branch.csv`` has one coefficient column per lattice mode the
        branch solved on, ``modes_used`` of ``branch.json``, and each row
        rebuilt as the bench's gate does is the solver's profile bit for
        bit: for bench seed 3107's resonant fold 3, which truncates at the
        cap of 64, and for a fold-3 draw that climbs the whole ladder to it."""
        eps, alpha0, beta = draw
        assert run(tmp_path, "branch", "--fold", "3", "--epsilon", eps, "--alpha0", alpha0,
                   "--beta", beta) == code
        branch = continue_branch(3, ModelParams(*map(float, draw)), cli.DEFAULTS["smax"])
        used = read_json(tmp_path, "branch.json")["payload"]["modes_used"]
        assert used == branch.modes_used == cli.DEFAULTS["modes"]
        lines = read_csv(tmp_path, "branch.csv")
        assert lines[0].split(",")[4:] == [f"coeff_{j}" for j in range(1, used + 1)]
        for i, row in enumerate(lines[1:]):
            assert gate_profile(row, 3).a.tobytes() == branch.profile(i).a.tobytes()
        assert len(lines) == 1 + len(branch.points)

    def test_rerun_byte_identical(self, tmp_path):
        args = ("branch", "--smax", "0.005", "--modes", "8")
        run(tmp_path, *args)
        first = {name: (tmp_path / "out" / name).read_bytes()
                 for name in ("branch.csv", "branch.json")}
        run(tmp_path, *args)
        for name, blob in first.items():
            assert (tmp_path / "out" / name).read_bytes() == blob


class TestEvolve:
    def test_zero_initial_data(self, tmp_path, capsys):
        """--s 0 evolves the trivial branch point (c_1, 0), which the
        continuation refuses where it is not simple."""
        code = run(tmp_path, "evolve", "--s", "0", "--tfinal", "0.01",
                   "--dt", "0.001", "--modes", "8")
        assert code == 0
        rows = read_csv(tmp_path, "trajectory.csv")[1:]
        values = np.array([[float(x) for x in row.split(",")[1:]] for row in rows])
        assert np.abs(values).max() == 0.0
        payload = read_json(tmp_path, "evolution_manifest.json")["payload"]
        p = ModelParams(*(cli.DEFAULTS[k] for k in ("epsilon", "alpha0", "beta")))
        assert payload["branch_point"] == {"s": 0.0, "c": critical_speed(1, p),
                                           "residual_norm": 0.0}
        assert payload["traveling_error"] == 0.0
        assert run(tmp_path, "evolve", "--s", "0", "--alpha0", "1", "--beta", "1",
                   "--fold", "2") == 2
        assert "(c_2, 0) is not simple in the 2-fold space" in capsys.readouterr().err

    def test_branch_point_manifest(self, tmp_path, capsys):
        """--modes 24 caps the lattice; the branch point at s = 0.01 is
        solved on 8 modes, and the command integrates on those 8: the
        manifest records them, and its stable step is that of 8 modes."""
        code = run(tmp_path, "evolve", "--s", "0.01", "--tfinal", "0.1",
                   "--dt", "0.002", "--modes", "24", "--dt-halving")
        assert code == 0
        doc = read_json(tmp_path, "evolution_manifest.json")
        payload = doc["payload"]
        assert payload["branch_point"]["s"] == 0.01
        assert payload["traveling_error"] < 1e-4
        assert payload["mass_drift"] < 1e-12
        p = ModelParams(*(cli.DEFAULTS[k] for k in ("epsilon", "alpha0", "beta")))
        assert payload["modes_used"] == continue_branch(1, p, 0.01, n=24).modes_used == 8
        assert payload["dt_stable"] == evolution.stable_dt(8, p)
        assert "dt_effective" in payload
        # both errors sit at the roundoff floor (about 1e-17): no order
        assert payload["dt_halving"]["order"] is None
        out = capsys.readouterr().out
        assert "order not resolved (both at the roundoff floor)" in out
        assert "traveling error over t <= 0.1, on 8 of 24 lattice modes: " in out

    def test_integrates_once(self, tmp_path, monkeypatch):
        """The traveling error comes from the trajectory the command already
        integrated, and equals a fresh ``traveling_error`` bit for bit."""
        from oddwaves import ModelParams, cli, evolution
        from oddwaves.bifurcation import continue_branch

        evolve, calls = evolution.evolve, []

        def counted(*args, **kwargs):
            calls.append(args)
            return evolve(*args, **kwargs)

        monkeypatch.setattr(cli, "evolve", counted)
        monkeypatch.setattr(evolution, "evolve", counted)
        assert run(tmp_path, "evolve", "--s", "0.01", "--tfinal", "0.02",
                   "--dt", "0.002", "--modes", "16") == 0
        assert len(calls) == 1

        payload = read_json(tmp_path, "evolution_manifest.json")["payload"]
        p = ModelParams(*(cli.DEFAULTS[k] for k in ("epsilon", "alpha0", "beta")))
        branch = continue_branch(1, p, 0.01, n=16)
        assert payload["modes_used"] == branch.modes_used
        # on the lattice the branch solved on, the n the command integrates on
        cfg = evolution.EvolutionConfig(dt=0.002, t_final=0.02, n_modes=branch.modes_used)
        assert payload["traveling_error"] == evolution.traveling_error(
            as_fields(branch)[-1], branch.points[-1].c, p, cfg)

    def test_dt_halving_integrates_base_dt_once(self, tmp_path, monkeypatch):
        """--dt-halving reuses the base-dt trajectory and integrates only at
        dt/2; its block equals a fresh ``traveling_error_orders`` bit for bit."""
        from oddwaves import ModelParams, cli, evolution
        from oddwaves.bifurcation import continue_branch

        evolve, calls = evolution.evolve, []

        def counted(*args, **kwargs):
            calls.append(args[2].dt)
            return evolve(*args, **kwargs)

        monkeypatch.setattr(cli, "evolve", counted)
        monkeypatch.setattr(evolution, "evolve", counted)
        assert run(tmp_path, "evolve", "--s", "0.01", "--tfinal", "0.1",
                   "--dt", "0.002", "--modes", "24", "--dt-halving") == 0
        assert calls == [0.002, 0.001]

        block = read_json(tmp_path, "evolution_manifest.json")["payload"]["dt_halving"]
        p = ModelParams(*(cli.DEFAULTS[k] for k in ("epsilon", "alpha0", "beta")))
        branch = continue_branch(1, p, 0.01, n=24)
        # on the lattice the branch solved on, the n the command integrates on
        cfg = evolution.EvolutionConfig(dt=0.002, t_final=0.1, n_modes=branch.modes_used)
        errs, rates = evolution.traveling_error_orders(as_fields(branch)[-1], branch.points[-1].c,
                                                       p, cfg, halvings=1)
        assert block == {"errors": errs, "order": rates[0]}

    @pytest.mark.parametrize("modes", ["0", "-3"])
    def test_too_few_modes_names_the_flag(self, tmp_path, capsys, modes):
        assert run(tmp_path, "evolve", "--modes", modes) == 2
        assert "--modes must be >= 2" in capsys.readouterr().err

    def test_dt_halving_without_branch_profile_exits_2(self, tmp_path, capsys):
        """With --s 0 there is no traveling error to halve: refused, not
        dropped from the manifest."""
        assert run(tmp_path, "evolve", "--s", "0", "--dt-halving") == 2
        assert "--dt-halving needs a branch profile (--s > 0)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_dt_halving_without_time_horizon_exits_2(self, tmp_path, capsys):
        """With --tfinal 0 both traveling errors are 0 and their order is
        not a number: refused before any work, not written as Infinity."""
        assert run(tmp_path, "evolve", "--s", "0.02", "--tfinal", "0", "--dt-halving") == 2
        assert "--dt-halving needs a time horizon (--tfinal > 0)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fold", [2, 3])
    def test_folded_branch_point_travels(self, tmp_path, fold):
        """An m-fold branch continued with --modes n solves on at most n
        lattice modes, reaching frequency m n, and is integrated on the
        m · ``modes_used`` modes of the lattice it solved on: the manifest's
        stable step and ``trajectory.csv``'s grid of 2 (m · ``modes_used``
        + 1) points are those of that n."""
        code = run(tmp_path, "evolve", "--fold", str(fold), "--s", "0.02",
                   "--modes", "16", "--tfinal", "0.02", "--dt", "2e-4")
        assert code == 0
        payload = read_json(tmp_path, "evolution_manifest.json")["payload"]
        assert payload["traveling_error"] < 1e-12
        p = ModelParams(*(cli.DEFAULTS[k] for k in ("epsilon", "alpha0", "beta")))
        used = continue_branch(fold, p, 0.02, n=16).modes_used
        assert payload["modes_used"] == used == {2: 12, 3: 16}[fold]
        assert payload["dt_stable"] == evolution.stable_dt(fold * used, p)
        header = read_csv(tmp_path, "trajectory.csv")[0].split(",")
        assert len(header) == 1 + 2 * (fold * used + 1)

    def test_invalid_dt_exits_2(self, tmp_path):
        assert run(tmp_path, "evolve", "--dt", "0") == 2

    def test_nan_tfinal_exits_2(self, tmp_path):
        assert run(tmp_path, "evolve", "--tfinal", "nan") == 2

    def test_nan_amplitude_exits_2(self, tmp_path):
        assert run(tmp_path, "evolve", "--s", "nan") == 2


class TestVerify:
    def test_default_run_passes(self, tmp_path):
        code = run(tmp_path, "verify", "--ensemble", "8")
        assert code == 0
        doc = read_json(tmp_path, "verification_report.json")
        checks = doc["payload"]["checks"]
        assert all(chk["passed"] for chk in checks)
        families = {chk["family"] for chk in checks}
        assert families == {"quadrature-oracle", "residual-formula", "linearization-fd",
                            "symbol-roots", "commutator-bound"}
        assert (tmp_path / "out" / "commutator_sweep_deg20.csv").exists()
        assert (tmp_path / "out" / "commutator_sweep_deg40.csv").exists()

    def test_residual_formula_catches_a_scaled_residual(self, monkeypatch, capsys):
        """A residual 1e-9 off in relative terms fails ``residual-formula``,
        which checks ``residual`` against the paper's formula, and
        ``linearization-fd``, whose exact differences no longer match
        ``gateaux``."""
        exact = cli.residual
        monkeypatch.setattr(cli, "residual", lambda c, phi, p: (1 + 1e-9) * exact(c, phi, p))
        rng = np.random.default_rng(1234)
        assert cli._family_residual_formula(rng, ModelParams(0.5, 1.0, 0.5), 16) > 1e-12
        assert main(["selftest"]) == 3
        failed = {line.split()[1] for line in capsys.readouterr().out.splitlines()
                  if line.startswith("FAIL")}
        assert failed == {"residual-formula", "linearization-fd"}

    @pytest.mark.parametrize("params", [(0.5, 1.0, 0.5), (0.5, 1.0, 1.0), (0.4, 1.2, 0.3)])
    def test_residual_formula_at_roundoff(self, params):
        """The lattice residual and the formula agree to 1e-13 of the
        formula's size on 200 seeds at both verify sizes: at the defaults,
        at α0 = β and at the corner of the bench box with the largest α0 - β
        and the smallest ε."""
        p = ModelParams(*params)
        worst = max(cli._family_residual_formula(np.random.default_rng(seed), p, n)
                    for seed in range(200) for n in (16, 32))
        assert worst <= 1e-13

    @pytest.mark.parametrize("mutation", ["sign-flip", "scaled-h", "scaled-top-mode",
                                          "mean-kept", "scaled-zygmund"])
    @pytest.mark.parametrize("selftest", [True, False])
    def test_quadrature_oracle_catches_operator_mutations(self, monkeypatch, mutation, selftest):
        """H with its sine branch flipped, scaled by 1 + 1e-9, with only its
        top mode scaled, or keeping the mean, and Λ scaled by 1 + 1e-9, each
        fail ``quadrature-oracle`` at n = 16 (selftest) and n = 32 (verify),
        at the default seed."""
        exact = spectral._hilbert_amplitudes

        def mutated(a, b):
            ha, hb = exact(a, b)
            if mutation == "sign-flip":     # H[sin(kx)] = +cos(kx)
                return -ha, hb
            if mutation == "scaled-h":
                return (1 + 1e-9) * ha, (1 + 1e-9) * hb
            if mutation == "scaled-top-mode":
                ha[..., -1] *= 1 + 1e-9
                hb[..., -1] *= 1 + 1e-9
            if mutation == "mean-kept":
                ha[..., 0] = a[..., 0]
            return ha, hb

        monkeypatch.setattr(spectral, "_hilbert_amplitudes", mutated)
        if mutation == "scaled-zygmund":
            exact_zygmund = cli.zygmund
            monkeypatch.setattr(cli, "zygmund", lambda f: (1 + 1e-9) * exact_zygmund(f))
        checks = cli._run_families(cli.RunConfig("verify"), 16 if selftest else 32)
        failed = {chk["family"] for chk in checks if not chk["passed"]}
        assert "quadrature-oracle" in failed

    @pytest.mark.parametrize("n", [16, 32])
    def test_quadrature_oracle_catches_a_top_mode_fault_at_every_seed(self, monkeypatch, n):
        """Every mode of the oracle's field has modulus 1, so H with only its
        top mode scaled by 1 + 1e-9 fails it at each seed, not only where
        that mode's amplitude happens to be large: seeds 575 and 877 drew
        a small top mode under N(0, 1) amplitudes and passed at n = 32."""
        exact = spectral._hilbert_amplitudes

        def mutated(a, b):
            ha, hb = exact(a, b)
            ha[..., -1] *= 1 + 1e-9
            hb[..., -1] *= 1 + 1e-9
            return ha, hb

        monkeypatch.setattr(spectral, "_hilbert_amplitudes", mutated)
        for seed in (575, 877, *range(1, 101)):
            assert cli._family_quadrature(np.random.default_rng(seed), n) > 1e-11, seed

    @pytest.mark.parametrize("selftest", [True, False])
    def test_linearization_fd_catches_a_scaled_gateaux(self, monkeypatch, selftest):
        """A ``gateaux`` 1e-9 off in relative terms fails ``linearization-fd``
        alone, at n = 16 (selftest) and n = 32 (verify)."""
        exact = cli.gateaux
        monkeypatch.setattr(cli, "gateaux", lambda c, phi, h, p: (1 + 1e-9) * exact(c, phi, h, p))
        checks = cli._run_families(cli.RunConfig("verify"), 16 if selftest else 32)
        assert {chk["family"] for chk in checks if not chk["passed"]} == {"linearization-fd"}

    def test_ensemble_zero_exits_2(self, tmp_path):
        assert run(tmp_path, "verify", "--ensemble", "0") == 2

    @staticmethod
    def sweep_csvs_of_loops(tmp_path, monkeypatch, norm):
        """The sweep CSVs of a default verify of 20 members, then those
        the member-by-member loop writes through fields and ``norm``."""
        def sweep_csvs(out):
            assert main(["verify", "--ensemble", "20", "--out", str(out)]) == 0
            return {deg: (out / f"commutator_sweep_deg{deg}.csv").read_bytes()
                    for deg in (20, 40)}

        fast = sweep_csvs(tmp_path / "out")
        calls = []

        def loop(*args, **kwargs):
            calls.append(args)
            return reference_commutator_sweep(*args, **kwargs, norm=norm)

        monkeypatch.setattr(cli, "commutator_sweep", loop)
        slow = sweep_csvs(tmp_path / "out")  # the same --out: it is in the header
        assert len(calls) == 2
        return fast, slow

    def test_sweep_csvs_equal_reference_loops(self, tmp_path, monkeypatch):
        """The sweep CSVs are byte-identical to the ones the member-by-member
        loop writes through fields and the field-by-field norm."""
        fast, slow = self.sweep_csvs_of_loops(tmp_path, monkeypatch, holder_norm)
        assert fast == slow

    def test_sweep_csvs_grid_part_equals_all_lags_loops(self, tmp_path, monkeypatch):
        """With no candidate climbs, the sweep CSVs are byte-identical to the
        ones the member-by-member loop writes through fields, the
        field-by-field norm and the all-lags seminorm."""
        monkeypatch.setattr(holder, "_refine", no_climb)
        fast, slow = self.sweep_csvs_of_loops(tmp_path, monkeypatch, reference_holder_norm)
        assert fast == slow

    @pytest.mark.parametrize("degrees", ["20,20", "40,20,10"])
    def test_degrees_must_increase_strictly(self, tmp_path, capsys, degrees):
        """A repeated degree would run one sweep twice and pass at a growth
        of 1; a falling list would read a decay as growth.  Both are
        refused, naming the list, before any work."""
        assert run(tmp_path, "verify", "--ensemble", "2", "--degrees", degrees) == 2
        assert f"--degrees must increase strictly, got {degrees}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--alpha", "1.5", "alpha must lie in (0, 1), got 1.5"),
        ("--alpha", "0", "alpha must lie in (0, 1), got 0.0"),
        ("--ensemble", "1000000000000000", "ensemble size = 1000000000000000 asks for an array"),
        ("--degrees", "1000000000", "max_degree = 1000000000 asks for an array"),
    ])
    def test_holder_settings_refused_before_any_family(self, tmp_path, capsys, monkeypatch,
                                                        flag, value, message):
        """--alpha, --ensemble and the size of a --degrees entry's Hölder
        grid are refused by the commutator sweep that reads them, which
        runs before the invariant families, and nothing is written."""
        def no_family(*args):
            raise AssertionError("an invariant family ran")

        monkeypatch.setattr(cli, "_family_quadrature", no_family)
        assert run(tmp_path, "verify", flag, value) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_too_large_degree_refused_before_any_sweep(self, tmp_path, capsys, monkeypatch):
        """The sweeps run from the largest degree down, so a --degrees entry
        too large for the size rule is refused before the sweeps of the
        entries below it evaluate a single member."""
        def no_member(*args):
            raise AssertionError("a sweep evaluated its members")

        monkeypatch.setattr(holder, "_quotients", no_member)
        assert run(tmp_path, "verify", "--degrees", "20,40,1000000000") == 2
        assert "max_degree = 1000000000 asks for an array" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweeps_run_downward_and_report_upward(self, tmp_path, monkeypatch):
        """The sweeps run in falling degree; the report's summaries and
        maxima keep the ascending order of --degrees, and the growth is
        taken in that order."""
        sweep, ran = cli.commutator_sweep, []

        def recorded(ensemble, degree, **kwargs):
            ran.append(degree)
            return sweep(ensemble, degree, **kwargs)

        monkeypatch.setattr(cli, "commutator_sweep", recorded)
        assert run(tmp_path, "verify", "--ensemble", "3", "--degrees", "4,8,12") == 0
        assert ran == [12, 8, 4]
        payload = read_json(tmp_path, "verification_report.json")["payload"]
        summaries = payload["sweep_summaries"]
        assert [s["max_degree"] for s in summaries] == [4, 8, 12]
        bound = next(c for c in payload["checks"] if c["family"] == "commutator-bound")
        maxima = bound["max_ratios"]
        assert maxima == [s["max_ratio"] for s in summaries]
        assert bound["measured"] == max(maxima[1] / maxima[0], maxima[2] / maxima[1])


class TestSelftest:
    def test_passes_quickly(self, capsys):
        assert main(["selftest"]) == 0
        families = [line.split()[1] for line in capsys.readouterr().out.splitlines()
                    if line.startswith("PASS")]
        assert families == ["quadrature-oracle", "residual-formula", "linearization-fd",
                            "symbol-roots"]


# each command, and a flag of another command's row that it does not read
FOREIGN_FLAGS = {"bifurcate": "--fold", "branch": "--s", "evolve": "--smax",
                 "verify": "--modes", "selftest": "--ensemble"}


@pytest.mark.parametrize("command, flag", FOREIGN_FLAGS.items())
def test_flag_of_another_command_refused(tmp_path, capsys, command, flag):
    """A command takes only the flags of its ``COMMANDS`` row: another
    command's flag is a usage error naming it, before any work, never a
    setting silently ignored (--s does not pass for branch's --smax)."""
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "1", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_stray_flag_refused_under_the_command_usage(tmp_path, capsys):
    """The usage line printed with the refusal is the command's own, which
    lists the flags it takes."""
    with pytest.raises(SystemExit) as exc:
        main(["branch", "--s", "0.3", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: oddwaves branch ") and "[--smax SMAX]" in err
    assert err.rstrip().endswith("oddwaves branch: error: unrecognized arguments: --s 0.3")
    assert not (tmp_path / "out").exists()


def test_one_config_file_serves_every_command(tmp_path):
    """One --config file holds the settings of every command; each command
    reads the keys of its row, and each artifact's config block holds
    exactly its command and that row.  (At seed 5 the 4-member sweeps pass
    the commutator bound; at seed 7 they do not, and verify exits 3.)"""
    study = {"beta": 0.4, "kmax": 3, "modes": 8, "fold": 2, "smax": 0.005, "dt": 0.001,
             "ensemble": 4, "degrees": [4, 8], "seed": 5}
    path = tmp_path / "study.cfg"
    path.write_text("".join(f"{key} = {','.join(map(str, val)) if key == 'degrees' else val}\n"
                            for key, val in study.items()))
    for command in ("bifurcate", "branch", "verify"):
        out = tmp_path / command
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        row = cli.COMMANDS[command][1]
        for artifact in out.iterdir():
            first = artifact.read_text().splitlines()[0]
            block = (json.loads(first.removeprefix("# config: ")) if artifact.suffix == ".csv"
                     else json.loads(artifact.read_text())["config"])
            assert set(block) == {"command", *row} and block["command"] == command
            assert {key: block[key] for key in study if key in row} == \
                {key: val for key, val in study.items() if key in row}


def test_python_dash_m_runs_the_cli(monkeypatch, capsys):
    """``python -m oddwaves`` runs ``cli.main`` on the command line."""
    monkeypatch.setattr(sys, "argv", ["oddwaves", "--version"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("oddwaves", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


@pytest.mark.parametrize("command, seed", [("verify", "-1"), ("selftest", "-5")])
def test_negative_seed_exits_2(tmp_path, capsys, monkeypatch, command, seed):
    monkeypatch.chdir(tmp_path)     # verify's default --out is relative
    assert main([command, "--seed", seed]) == 2
    assert f"--seed must be >= 0, got {seed}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


SWEEP_HEADER = "seed,degree_a,degree_b,ratio"
# each command, and the files it writes: a CSV's header, and a JSON file's
# payload keys under "", with the keys of each entry of a list (or of a
# dict) payload field under that field's name
ARTIFACTS = [
    (["bifurcate", "--kmax", "3"], {
        "bifurcation_points.csv": "k,speed,simple",
        "bifurcation_report.json": {"": {"version"}}}),
    (["branch", "--smax", "0.01", "--modes", "16"], {
        # one coefficient column per lattice mode used: 8 of the 16
        "branch.csv": "s,c,residual_norm,newton_iters,"
                      + ",".join(f"coeff_{j}" for j in range(1, 9)),
        "branch.json": {"": {"version", "step_cap", "truncated", "failure", "modes_used"}}}),
    (["evolve", "--s", "0.01", "--modes", "16", "--tfinal", "0.01", "--dt", "0.001",
      "--dt-halving"], {
        # the grid of 2 (n + 1) points at the n integrated on: 8 of the 16 modes
        "trajectory.csv": "t," + ",".join(f"x_{j}" for j in range(18)),
        "evolution_manifest.json": {
            "": {"version", "branch_point", "modes_used", "dt_stable", "dt_effective",
                 "mass_drift", "traveling_error", "dt_halving"},
            "branch_point": {"s", "c", "residual_norm"},
            "dt_halving": {"errors", "order"}}}),
    (["verify", "--ensemble", "4", "--degrees", "4,8"], {
        "commutator_sweep_deg4.csv": SWEEP_HEADER,
        "commutator_sweep_deg8.csv": SWEEP_HEADER,
        "verification_report.json": {
            "": {"version", "checks", "sweep_summaries"},
            "sweep_summaries": {"max_degree", "max_ratio", "mean_ratio"}}}),
]


class TestArtifactWriters:
    @pytest.fixture(scope="class")
    def default_folds(self):
        p = ModelParams(*(cli.DEFAULTS[k] for k in ("epsilon", "alpha0", "beta")))
        return p, [continue_branch(m, p, cli.DEFAULTS["smax"]) for m in (1, 2, 3)]

    def test_profile_rows_equal_per_point_synthesis(self, default_folds, tmp_path):
        """``trajectory.csv``, from one synthesis of the trajectory's
        amplitude rows, is the cell-by-cell formatter's text of the
        per-state ``values`` loop, for a trajectory from the last point of
        each default fold: its first state even, the later ones with sine
        amplitudes too."""
        p, branches = default_folds
        for branch in branches:
            out = tmp_path / str(branch.m)
            assert main(["evolve", "--fold", str(branch.m), "--s", str(cli.DEFAULTS["smax"]),
                         "--tfinal", "0.05", "--out", str(out)]) == 0
            phi = as_fields(branch)[-1]  # travels, so its states gain sine amplitudes
            # on the lattice the branch solved on, the n the command integrates on
            traj = evolution.evolve(phi, p, evolution.EvolutionConfig(
                dt=cli.DEFAULTS["dt"], t_final=0.05, n_modes=branch.m * branch.modes_used))
            states = as_fields(traj)
            assert len(states) > 2 and not states[-1].is_even
            grid, rows = reference_profile_rows(traj.times.tolist(), states)
            header = ["t"] + [f"x_{j}" for j in range(grid)]
            assert csv_body(out / "trajectory.csv") == reference_csv_body(header, rows)

    def test_branch_csv_equals_cell_by_cell_formatter(self, default_folds, tmp_path):
        """The ``branch.csv`` the command writes is the cell-by-cell
        formatter's text of the points of the same branch, one coefficient
        column per lattice mode it solved on (12, 18 and 18 of the 64), and
        holds each profile: φ = Σ_j coeff_j cos(j m x), m the config's fold,
        rebuilt from the cells as the bench's gate does, has the point's
        own amplitudes bit for bit and samples to the same floats."""
        for branch, n in zip(default_folds[1], (12, 18, 18), strict=True):
            assert branch.modes_used == n
            out = tmp_path / str(branch.m)
            assert main(["branch", "--fold", str(branch.m), "--out", str(out)]) == 0
            header = ["s", "c", "residual_norm", "newton_iters"]
            header += [f"coeff_{j}" for j in range(1, n + 1)]
            profiles = as_fields(branch)
            rows = [[pt.s, pt.c, pt.residual_norm, pt.newton_iters]
                    + [phi.a[branch.m * j] for j in range(1, n + 1)]
                    for pt, phi in zip(branch.points, profiles)]
            assert csv_body(out / "branch.csv") == reference_csv_body(header, rows)

            lines = (out / "branch.csv").read_text().splitlines()
            m = json.loads(lines[0].removeprefix("# config: "))["fold"]
            for line, phi in zip(lines[3:], profiles, strict=True):
                rebuilt = gate_profile(line, m)
                assert rebuilt.pad_to(phi.n_modes).a.tobytes() == phi.a.tobytes()
                assert np.array_equal(rebuilt.values(phi.grid_size), phi.values())

    def test_csv_cells_are_numbers_or_booleans(self, tmp_path):
        """Each command writes exactly the files of ``ARTIFACTS``, with its
        CSV headers and JSON key sets: no file, column or field repeats a
        setting or another file.  Every data cell of every CSV reads back
        as a number or a boolean; no numpy scalar text reaches a file.
        Every artifact carries its own hash: a CSV the sha256 of its text
        below the two comment lines, a JSON file the sha256 of its payload
        dumped with sorted keys."""
        for i, (command, files) in enumerate(ARTIFACTS):
            out = tmp_path / str(i)
            assert main([*command, "--out", str(out)]) == 0
            assert sorted(path.name for path in out.glob("*")) == sorted(files), command
            for path in out.glob("*.csv"):
                text, body = path.read_text(), csv_body(path)
                assert "np." not in text
                assert text.splitlines()[1] == \
                    f"# sha256: {hashlib.sha256(body.encode()).hexdigest()}"
                assert body.splitlines()[0] == files[path.name]
                for row in body.splitlines()[1:]:
                    for cell in row.split(","):
                        assert _number_or_boolean(cell), (path.name, cell)
            for path in out.glob("*.json"):
                doc = json.loads(path.read_text())
                canonical = json.dumps(doc["payload"], sort_keys=True)
                assert doc["content_hash"] == hashlib.sha256(canonical.encode()).hexdigest()
                for field, keys in files[path.name].items():
                    node = doc["payload"][field] if field else doc["payload"]
                    entries = node if isinstance(node, list) else [node]
                    assert entries and all(set(e) == keys for e in entries), (path.name, field)


def _number_or_boolean(cell):
    if cell in ("True", "False"):
        return True
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _no_work(*args, **kwargs):
    raise AssertionError("the command computed before refusing its settings")


class TestUnusableOut:
    @pytest.fixture
    def no_work(self, monkeypatch):
        for name in ("detect_bifurcations", "continue_branch", "evolve", "_run_families",
                     "commutator_sweep"):
            monkeypatch.setattr(cli, name, _no_work)

    @pytest.mark.parametrize("command", ["bifurcate", "branch", "evolve", "verify"])
    def test_out_is_a_file(self, tmp_path, capsys, no_work, command):
        target = tmp_path / "taken"
        target.write_text("not a directory\n")
        assert main([command, "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: --out ") and str(target) in err
        assert target.read_text() == "not a directory\n"

    @pytest.mark.parametrize("command", ["bifurcate", "branch", "evolve", "verify"])
    def test_out_below_a_file(self, tmp_path, capsys, no_work, command):
        target = tmp_path / "taken"
        target.write_text("")
        assert main([command, "--out", str(target / "sub" / "dir")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: --out ") and f"{target} is not" in err


class TestParserReuse:
    @pytest.fixture
    def configs(self, monkeypatch):
        seen = []
        for name in ("cmd_bifurcate", "cmd_evolve"):
            monkeypatch.setattr(cli, name, lambda cfg: seen.append(cfg) or 0)
        return seen

    def test_calls_resolve_independently(self, configs):
        assert cli.build_parser() is cli.build_parser()
        assert main(["bifurcate", "--kmax", "3", "--epsilon", "0.7"]) == 0
        assert main(["bifurcate"]) == 0
        assert main(["evolve", "--dt-halving", "--s", "0.01"]) == 0
        assert main(["evolve"]) == 0
        first, second, halving, plain = configs
        assert (first.kmax, first.epsilon) == (3, 0.7)
        assert (second.kmax, second.epsilon) == (cli.DEFAULTS["kmax"], cli.DEFAULTS["epsilon"])
        assert halving.dt_halving and halving.s == 0.01
        assert not plain.dt_halving and plain.s == cli.DEFAULTS["s"]

    def test_usage_error_leaves_the_parser_usable(self, configs, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bifurcate", "--kmax", "three"])
        assert exc.value.code == 2
        assert main(["bifurcate", "--modes", "16"]) == 0
        (cfg,) = configs
        assert cfg.kmax == cli.DEFAULTS["kmax"] and cfg.modes == 16


class TestConfigFile:
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_file_names_the_path(self, tmp_path, capsys, kind):
        path = tmp_path / "run.cfg"
        if kind == "directory":
            path.mkdir()
        assert main(["bifurcate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: --config ") and str(path) in err
        assert not (tmp_path / "out").exists()

    def test_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# sample configuration\nkmax = 2\nepsilon = 1.0\n"
                       "alpha0 = 1.0\nbeta = 0.0\n")
        code = main(["bifurcate", "--config", str(cfg), "--kmax", "3",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        rows = read_csv(tmp_path, "bifurcation_points.csv")[1:]
        assert len(rows) == 3  # flag beats config file

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("unknown_thing = 3\n")
        assert main(["bifurcate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2

    def test_unparsable_value_names_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("kmax = 2\nfold = 1.5\n")
        assert main(["bifurcate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert f"{cfg}:2" in capsys.readouterr().err

    def test_embedded_config_matches_resolved_values(self, tmp_path):
        run(tmp_path, "bifurcate", "--kmax", "2", "--modes", "16")
        doc = read_json(tmp_path, "bifurcation_report.json")
        assert doc["config"]["kmax"] == 2
        assert doc["config"]["modes"] == 16
        assert doc["config"]["command"] == "bifurcate"
