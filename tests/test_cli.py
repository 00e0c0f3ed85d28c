"""End-to-end CLI tests: commands, artifacts, exit codes, reproducibility."""

import json

import numpy as np
import pytest

from oddwaves import ModelParams, NumericalError, cli, evolution, model
from oddwaves.cli import main

from helpers import cosine, reference_commutator_sweep, reference_holder_norm


def run(tmp_path, *args):
    return main([*args, "--out", str(tmp_path / "out")])


def read_json(tmp_path, name):
    doc = json.loads((tmp_path / "out" / name).read_text())
    assert {"config", "content_hash", "payload"} <= set(doc)
    return doc


def read_csv(tmp_path, name):
    lines = (tmp_path / "out" / name).read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1].startswith("# sha256: ")
    return lines[2:]


class TestBifurcate:
    def test_reference_table(self, tmp_path):
        code = run(tmp_path, "bifurcate", "--epsilon", "1", "--alpha0", "1",
                   "--beta", "0", "--kmax", "3")
        assert code == 0
        rows = read_csv(tmp_path, "bifurcation_points.csv")[1:]
        speeds = [float(r.split(",")[1]) for r in rows]
        assert np.allclose(speeds, [-1 / 3, -5 / 8, -11 / 15])
        assert all(r.split(",")[2] == "True" for r in rows)
        doc = read_json(tmp_path, "bifurcation_report.json")
        assert [pt["k"] for pt in doc["payload"]["points"]] == [1, 2, 3]

    def test_invalid_alpha0_exits_2(self, tmp_path):
        assert run(tmp_path, "bifurcate", "--alpha0", "-1") == 2

    def test_kmax_zero_exits_2(self, tmp_path):
        assert run(tmp_path, "bifurcate", "--kmax", "0") == 2


class TestBranch:
    def test_two_fold_support(self, tmp_path):
        code = run(tmp_path, "branch", "--fold", "2", "--smax", "0.01",
                   "--modes", "12")
        assert code == 0
        rows = read_csv(tmp_path, "branch.csv")
        header = rows[0].split(",")
        assert header[:4] == ["s", "c", "residual_norm", "newton_iters"]
        doc = read_json(tmp_path, "branch.json")
        payload = doc["payload"]
        assert payload["fold"] == 2 and not payload["truncated"]
        # every record satisfies the residual tolerance
        assert all(rec[2] < 1e-11 for rec in payload["records"])

    def test_smax_zero_single_record(self, tmp_path):
        code = run(tmp_path, "branch", "--smax", "0", "--modes", "8")
        assert code == 0
        doc = read_json(tmp_path, "branch.json")
        assert len(doc["payload"]["records"]) == 1
        assert doc["payload"]["records"][0][0] == 0.0

    def test_nonconvergence_exits_3(self, tmp_path):
        code = run(tmp_path, "branch", "--smax", "0.01", "--modes", "8",
                   "--max-iter", "0")
        assert code == 3
        doc = read_json(tmp_path, "branch.json")  # last good point still written
        assert doc["payload"]["truncated"]

    def test_nan_smax_exits_2(self, tmp_path):
        assert run(tmp_path, "branch", "--smax", "nan") == 2

    def test_rerun_byte_identical(self, tmp_path):
        args = ("branch", "--smax", "0.005", "--modes", "8", "--seed", "99")
        run(tmp_path, *args)
        first = {name: (tmp_path / "out" / name).read_bytes()
                 for name in ("branch.csv", "branch.json", "profiles.csv")}
        run(tmp_path, *args)
        for name, blob in first.items():
            assert (tmp_path / "out" / name).read_bytes() == blob


class TestEvolve:
    def test_zero_initial_data(self, tmp_path):
        code = run(tmp_path, "evolve", "--s", "0", "--tfinal", "0.01",
                   "--dt", "0.001", "--modes", "8")
        assert code == 0
        rows = read_csv(tmp_path, "trajectory.csv")[1:]
        values = np.array([[float(x) for x in row.split(",")[1:]] for row in rows])
        assert np.abs(values).max() == 0.0

    def test_branch_point_manifest(self, tmp_path):
        code = run(tmp_path, "evolve", "--s", "0.01", "--tfinal", "0.1",
                   "--dt", "0.002", "--modes", "24", "--dt-halving")
        assert code == 0
        doc = read_json(tmp_path, "evolution_manifest.json")
        payload = doc["payload"]
        assert payload["initial"] == "branch-point"
        assert payload["traveling_error"] < 1e-4
        assert payload["mass_drift"] < 1e-12
        p = ModelParams(*(cli.DEFAULTS[k] for k in ("epsilon", "alpha0", "beta")))
        assert payload["dt_stable"] == evolution.stable_dt(24, p)
        assert "dt_effective" in payload
        assert set(payload["dt_halving"]) == {"dts", "errors", "order"}

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
        point = continue_branch(1, p, 0.01, n=16).points[-1]
        cfg = evolution.EvolutionConfig(dt=0.002, t_final=0.02, n_modes=16)
        assert payload["traveling_error"] == evolution.traveling_error(point, p, cfg)

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
        point = continue_branch(1, p, 0.01, n=24).points[-1]
        cfg = evolution.EvolutionConfig(dt=0.002, t_final=0.1, n_modes=24)
        errs, rates = evolution.traveling_error_orders(point, p, cfg, halvings=1)
        assert block == {"dts": [0.002, 0.001], "errors": errs, "order": rates[0]}

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
        """An m-fold branch continued with --modes n reaches frequency m n,
        and is integrated on that many modes."""
        code = run(tmp_path, "evolve", "--fold", str(fold), "--s", "0.02",
                   "--modes", "16", "--tfinal", "0.02", "--dt", "2e-4")
        assert code == 0
        payload = read_json(tmp_path, "evolution_manifest.json")["payload"]
        assert payload["traveling_error"] < 1e-12
        p = ModelParams(*(cli.DEFAULTS[k] for k in ("epsilon", "alpha0", "beta")))
        assert payload["dt_stable"] == evolution.stable_dt(16 * fold, p)

    def test_invalid_dt_exits_2(self, tmp_path):
        assert run(tmp_path, "evolve", "--dt", "0") == 2

    def test_nan_tfinal_exits_2(self, tmp_path):
        assert run(tmp_path, "evolve", "--tfinal", "nan") == 2

    def test_nan_amplitude_exits_2(self, tmp_path):
        assert run(tmp_path, "evolve", "--s", "nan") == 2


class TestVerify:
    def test_default_run_passes(self, tmp_path):
        code = run(tmp_path, "verify", "--ensemble", "8", "--modes", "16",
                   "--holder-grid", "256")
        assert code == 0
        doc = read_json(tmp_path, "verification_report.json")
        checks = doc["payload"]["checks"]
        assert all(chk["passed"] for chk in checks)
        families = {chk["family"] for chk in checks}
        assert {"hilbert-parity-action", "residual-parity", "symbol-roots",
                "commutator-bound"} <= families
        assert (tmp_path / "out" / "commutator_sweep_deg20.csv").exists()
        assert (tmp_path / "out" / "commutator_sweep_deg40.csv").exists()

    def test_injected_fault_fails_parity_family(self, tmp_path):
        """The flipped transform is handed to the three operator families,
        which all fail; the model families run with the correct H."""
        code = run(tmp_path, "verify", "--ensemble", "2", "--inject-fault",
                   "--holder-grid", "256")
        assert code == 3
        doc = read_json(tmp_path, "verification_report.json")
        failed = {chk["family"] for chk in doc["payload"]["checks"] if not chk["passed"]}
        assert failed == {"hilbert-parity-action", "operator-identities",
                          "quadrature-oracle"}

    def test_fault_hook_is_reset(self, tmp_path):
        run(tmp_path, "verify", "--ensemble", "2", "--inject-fault",
            "--holder-grid", "256")
        assert run(tmp_path, "selftest") == 0

    def test_ensemble_zero_exits_2(self, tmp_path):
        assert run(tmp_path, "verify", "--ensemble", "0") == 2

    def test_residual_parity_measures_the_raw_spectrum(self, monkeypatch):
        """The family reads the cosine leak that ``residual`` drops: a real
        measured value with the model's Q, a failure with a leaking one."""
        p = ModelParams(1.0, 1.0, 0.5)
        clean = cli._family_residual_parity(np.random.default_rng(3), p, 32)
        assert 0.0 < clean <= 1e-12
        quadratic = model._quadratic

        def leaking(u, v, p, n_out):
            out = quadratic(u, v, p, n_out)
            out[2] += 0.5e-9  # a_2 = 1e-9: a cos 2x term
            return out

        monkeypatch.setattr(model, "_quadratic", leaking)
        leak = cli._family_residual_parity(np.random.default_rng(3), p, 32)
        assert leak > 1e-12
        with pytest.raises(NumericalError):
            model.residual(0.3, cosine(2), p)

    def test_sweep_csvs_equal_reference_loops(self, tmp_path, monkeypatch):
        """The sweep CSVs are byte-identical to the ones the member-by-member
        loop writes through fields, the field-by-field norm and the all-lags
        seminorm."""
        def sweep_csvs(out):
            assert main(["verify", "--ensemble", "20", "--out", str(out)]) == 0
            return {deg: (out / f"commutator_sweep_deg{deg}.csv").read_bytes()
                    for deg in (20, 40)}

        fast = sweep_csvs(tmp_path / "out")
        calls = []

        def loop(*args, **kwargs):
            calls.append(args)
            return reference_commutator_sweep(*args, **kwargs, norm=reference_holder_norm)

        monkeypatch.setattr(cli, "commutator_sweep", loop)
        slow = sweep_csvs(tmp_path / "out")  # the same --out: it is in the header
        assert len(calls) == 2
        assert fast == slow

    @pytest.mark.parametrize("grid, message", [
        ("1023", "the Hölder grid must be even, got 1023 points"),
        ("64", "64 points cannot resolve a degree-40 field (need at least 82)"),
        ("160", "160 points cannot resolve a degree-80 field (need at least 162)"),
    ])
    def test_unusable_holder_grid_exits_2(self, tmp_path, capsys, grid, message):
        """Each sweep refuses an odd grid, and one below 4 max degree + 2
        (Θ = ⟦H,a⟧[b'] reaches twice the degree cap), before it draws a
        member."""
        assert run(tmp_path, "verify", "--ensemble", "2", "--holder-grid", grid) == 2
        assert message in capsys.readouterr().err


class TestSelftest:
    def test_passes_quickly(self, tmp_path):
        assert run(tmp_path, "selftest") == 0


class TestConfigFile:
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
        run(tmp_path, "bifurcate", "--kmax", "2", "--seed", "5")
        doc = read_json(tmp_path, "bifurcation_report.json")
        assert doc["config"]["kmax"] == 2
        assert doc["config"]["seed"] == 5
        assert doc["config"]["command"] == "bifurcate"
