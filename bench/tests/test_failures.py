"""Failure accounting of the benchmark: failing commands are counted with
their reason and never stop a run.

    python3 -m pytest bench/tests -q
"""

import itertools
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from oddwaves import ModelParams  # noqa: E402
from oddwaves.cli import main  # noqa: E402

import run  # noqa: E402
from workloads import (WORKLOADS, Command, _branch_gate, _travel_gate,  # noqa: E402
                       _verify_gate, rounds_in, run_command)


def test_truncated_branch_is_counted(tmp_path):
    cmd = Command(["branch", "--max-iter=1"], "branch.csv",
                  _branch_gate(ModelParams(0.5, 1.0, 0.5), 1))
    res = run_command(cmd, tmp_path, main)
    assert res.code == 3
    assert res.failed and res.reason.startswith("truncated:")
    assert not res.gate_miss       # the points it did accept are still solutions


def test_configuration_error_is_counted(tmp_path):
    cmd = Command(["evolve", "--dt=0"], "evolution_manifest.json", _travel_gate)
    res = run_command(cmd, tmp_path, main)
    assert res.code == 2
    assert res.reason.startswith("ConfigurationError:")


def test_failed_evidence_family_is_counted_not_a_gate_miss(tmp_path):
    # at this seed the degree-40 ensemble maximum is 1.73 times the degree-20 one
    cmd = Command(["verify", "--seed=234400", "--ensemble=50"], "verification_report.json",
                  _verify_gate)
    res = run_command(cmd, tmp_path, main)
    assert res.code == 3
    assert res.reason == "verify FAIL: commutator-bound"
    assert not res.gate_miss


def test_tampered_artifact_is_a_gate_miss(tmp_path):
    def tampering_main(argv):
        out = Path(argv[-1].removeprefix("--out="))
        doc = {"config": {}, "content_hash": "0" * 64,
               "payload": {"traveling_error": 0.0, "mass_drift": 0.0}}
        (out / "evolution_manifest.json").write_text(json.dumps(doc))
        return 0

    cmd = Command(["evolve"], "evolution_manifest.json", _travel_gate)
    res = run_command(cmd, tmp_path, tampering_main)
    assert res.gate_miss and res.reason.startswith("gate:")


def test_missing_artifact_is_a_gate_miss(tmp_path):
    cmd = Command(["bifurcate", "--kmax=2"], "branch.csv", lambda path: [])
    res = run_command(cmd, tmp_path, main)
    assert res.code == 0 and res.gate_miss


def test_failures_do_not_stop_the_loop(tmp_path):
    def rounds():
        while True:
            yield [Command(["branch", "--max-iter=1"], "branch.csv", lambda path: []),
                   Command(["bifurcate", "--kmax=2"], "bifurcation_report.json",
                           lambda path: [])]

    done = run.closed_loop(rounds(), 1, tmp_path, main)
    ops, failed = run.report_ops(done)
    assert len(ops) == 2 and failed == 1


def test_a_seed_fixes_the_commands_of_a_run():
    # a run's commands, and so its attempted and failed counts, must not
    # depend on how fast the machine is
    for name, rounds in WORKLOADS.items():
        n = rounds_in(name, 30)
        first, again = ([[cmd.argv for cmd in rnd] for rnd in itertools.islice(rounds(7), n)]
                        for _ in range(2))
        assert first == again and len(first) == n
    assert rounds_in("verify", 0.1) == 1
