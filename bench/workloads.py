"""Seeded workloads, the command runner and the correctness gates.

A workload turns a seed into an endless sequence of rounds.  A round is a
list of CLI argument vectors; the program sees only those argv lists, run
in-process through ``oddwaves.cli.main``.  Every command is one operation:
it fails on a nonzero exit, a truncated branch, an exception, or a gate
miss, and a failure is recorded with its reason instead of stopping the run.

Gates re-check the artifacts from outside the solver:

- every JSON artifact's ``content_hash`` and every CSV's ``sha256`` line
  is recomputed;
- ``branch``: each point in branch.csv is rebuilt and ``oddwaves.residual``
  must have full sup-norm below ``BRANCH_TOL``;
- ``travel``: the manifest's traveling error and mass drift must stay below
  ``TRAVEL_ERROR_MAX`` and ``MASS_DRIFT_MAX``;
- ``verify``: every deterministic family in the report must pass.  The
  ``commutator-bound`` family is randomized evidence: the largest ratio of
  a finite ensemble is heavy-tailed, so for some seeds its growth exceeds
  the threshold at any ensemble size tried (150 to 300).  Such a FAIL
  makes the command exit 3 and counts as a failed operation, but it is a
  wrong output only when the verdict does not follow from the sweep CSVs
  written next to the report, which the gate recomputes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MODES = 64
BRANCH_FOLDS = (1, 2, 3)
BRANCH_SMAX = 0.05
BRANCH_TOL = 1e-11          # the stated accuracy of every branch point
PARAM_BOX = {"epsilon": (0.4, 0.6), "alpha0": (0.8, 1.2), "beta": (0.3, 0.7)}
TRAVEL_S = (0.01, 0.03)
TRAVEL_DT = 2e-4
TRAVEL_TFINAL = 0.06        # 300 RK4 steps per integration
TRAVEL_ERROR_MAX = 1e-12
MASS_DRIFT_MAX = 1e-13
VERIFY_ENSEMBLE = 150       # about 9 s a round; the evidence family fails as often at 300
EVIDENCE_FAMILY = "commutator-bound"


@dataclass
class Command:
    argv: list
    artifact: str             # the file the gate reads
    gate: object              # gate(path) -> list of problem strings
    requested_steps: int = 0  # RK4 steps the user asked for (evolve only)


@dataclass
class OpResult:
    cmd: Command
    seconds: float
    code: int | None
    reason: str | None        # None when the operation succeeded
    gate_miss: bool = False

    @property
    def failed(self):
        return self.reason is not None


def _arg(x):
    return repr(float(x))


def _radical_inverse(i, base):
    inv, scale = 0.0, 1.0 / base
    while i:
        i, digit = divmod(i, base)
        inv += digit * scale
        scale /= base
    return inv


def _stratified(seed, boxes):
    """Halton points (bases 2, 3, 5) shifted modulo 1 by a seeded offset and
    mapped onto ``boxes``.  Any few consecutive draws spread evenly over
    each axis, so the handful of rounds a run affords covers the whole box
    (the 3-fold cost rises steeply with β) instead of clustering by chance."""
    shift = np.random.default_rng(seed).random(len(boxes))
    for i in itertools.count():
        u = [(_radical_inverse(i, base) + sh) % 1.0 for base, sh in zip((2, 3, 5), shift)]
        yield [lo + ui * (hi - lo) for (lo, hi), ui in zip(boxes, u)]


def branch_rounds(seed):
    """(β, α0, ε) drawn from PARAM_BOX; folds 1, 2, 3 each continued to
    s = BRANCH_SMAX.  Draws where any fold is non-simple are rejected."""
    from oddwaves import ModelParams, detect_bifurcations

    names = ("beta", "alpha0", "epsilon")
    for point in _stratified(seed, [PARAM_BOX[k] for k in names]):
        draw = dict(zip(names, point))
        p = ModelParams(**draw)
        top = max(BRANCH_FOLDS)
        if not all(pt.simple for pt in detect_bifurcations(p, top, n_scan=top * MODES)):
            continue
        params = [f"--epsilon={_arg(draw['epsilon'])}", f"--alpha0={_arg(draw['alpha0'])}",
                  f"--beta={_arg(draw['beta'])}"]
        yield [Command(["branch", f"--fold={m}", f"--modes={MODES}",
                        f"--smax={_arg(BRANCH_SMAX)}", *params],
                       "branch.csv", _branch_gate(p, m))
               for m in BRANCH_FOLDS]


def travel_rounds(seed):
    """One evolve command per round: a fold-1 branch point at amplitude S,
    integrated to TRAVEL_TFINAL at the default parameters."""
    steps = int(round(TRAVEL_TFINAL / TRAVEL_DT))
    for (s,) in _stratified(seed, [TRAVEL_S]):
        yield [Command(["evolve", f"--s={_arg(s)}", f"--modes={MODES}",
                        f"--dt={_arg(TRAVEL_DT)}", f"--tfinal={_arg(TRAVEL_TFINAL)}"],
                       "evolution_manifest.json", _travel_gate, requested_steps=steps)]


def verify_rounds(seed):
    """One verify command per round, with its own seed drawn from ours."""
    rng = np.random.default_rng(seed)
    while True:
        vseed = int(rng.integers(1, 1_000_000))
        yield [Command(["verify", f"--seed={vseed}", f"--ensemble={VERIFY_ENSEMBLE}"],
                       "verification_report.json", _verify_gate)]


WORKLOADS = {
    "branch": branch_rounds,
    "travel": travel_rounds,
    "verify": verify_rounds,
}

# seconds one round takes on a 2-vCPU x86 VM; a run does the first
# round(--seconds / ROUND_SECONDS) rounds of its workload, so the commands
# it runs, and with them ``attempted`` and ``failed``, depend on the seed
# alone and not on how fast the machine happens to be
ROUND_SECONDS = {"branch": 7.5, "travel": 4.2, "verify": 9.5}


def rounds_in(workload, seconds):
    return max(1, round(seconds / ROUND_SECONDS[workload]))


# -- running one operation -----------------------------------------------------


def _classify(code, stderr, stdout):
    if code == 0:
        return None
    lines = stderr.strip().splitlines()
    last = lines[-1] if lines else ""
    if last.startswith("WARNING:") and "truncated" in last:
        return "truncated: " + last[len("WARNING:"):].strip()
    if last.startswith("numerical failure:"):
        return "NumericalError: " + last.split(":", 1)[1].strip()
    if last.startswith("configuration error:"):
        return "ConfigurationError: " + last.split(":", 1)[1].strip()
    fails = [ln.split()[1] for ln in stdout.splitlines() if ln.startswith("FAIL ")]
    if fails:
        return "verify FAIL: " + ",".join(fails)
    return f"exit {code}: {last}"


def run_command(cmd, workdir, main):
    """Run one CLI command into a fresh directory under ``workdir``, time it,
    then gate its artifacts.  Never raises for a failing program."""
    outdir = Path(tempfile.mkdtemp(dir=workdir))
    argv = [*cmd.argv, f"--out={outdir}"]
    out, err = io.StringIO(), io.StringIO()
    code = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:      # argparse rejects a malformed argv this way
        reason = f"usage: exit {exc.code}: {err.getvalue().strip()[-200:]}"
    except Exception as exc:       # an escaping error is a failed operation, not a crash
        reason = f"{type(exc).__name__}: {exc}"
    else:
        reason = _classify(code, err.getvalue(), out.getvalue())
    seconds = time.perf_counter() - t0
    artifact = outdir / cmd.artifact
    try:
        problems = _hash_problems(outdir)
        if artifact.exists():
            problems += cmd.gate(artifact)
        elif code == 0:
            problems.append(f"{cmd.artifact} missing")
    except Exception as exc:       # a malformed artifact is a gate miss
        problems = [f"unreadable artifact: {type(exc).__name__}: {exc}"]
    shutil.rmtree(outdir, ignore_errors=True)
    gate_miss = bool(problems)
    if gate_miss:
        reason = "; ".join(filter(None, [reason, "gate: " + "; ".join(problems)]))
    return OpResult(cmd=cmd, seconds=seconds, code=code, reason=reason, gate_miss=gate_miss)


# -- gates -----------------------------------------------------------------------


def _json_payload(path):
    doc = json.loads(path.read_text())
    canonical = json.dumps(doc["payload"], sort_keys=True)
    ok = hashlib.sha256(canonical.encode()).hexdigest() == doc["content_hash"]
    return doc["payload"], ok


def _csv_body(path):
    lines = path.read_text().splitlines(keepends=True)
    digest = lines[1].removeprefix("# sha256: ").strip()
    body = "".join(lines[2:])
    return body, hashlib.sha256(body.encode()).hexdigest() == digest


def _hash_problems(outdir):
    problems = []
    for path in sorted(outdir.glob("*.json")):
        if not _json_payload(path)[1]:
            problems.append(f"{path.name}: content_hash mismatch")
    for path in sorted(outdir.glob("*.csv")):
        if not _csv_body(path)[1]:
            problems.append(f"{path.name}: sha256 mismatch")
    return problems


def _branch_gate(p, m):
    def gate(path):
        from oddwaves import CosineSeries, residual

        body, _ = _csv_body(path)
        problems = []
        for row in body.splitlines()[1:]:
            cells = row.split(",")
            s, c, coeffs = float(cells[0]), float(cells[1]), np.array(cells[4:], dtype=float)
            a = np.zeros(m * coeffs.size + 1)
            a[m * np.arange(1, coeffs.size + 1)] = coeffs
            rnorm = residual(c, CosineSeries(a), p).sup_norm()
            if not rnorm < BRANCH_TOL:
                problems.append(f"fold {m} point s={s!r}: residual {rnorm:.3e} >= {BRANCH_TOL:g}")
        return problems
    return gate


def _travel_gate(path):
    payload, _ = _json_payload(path)
    problems = []
    if not payload["traveling_error"] < TRAVEL_ERROR_MAX:
        problems.append(f"traveling_error {payload['traveling_error']:.3e}")
    if not payload["mass_drift"] < MASS_DRIFT_MAX:
        problems.append(f"mass_drift {payload['mass_drift']:.3e}")
    return problems


def _verify_gate(path):
    payload, _ = _json_payload(path)
    problems = [f"family {chk['family']} failed" for chk in payload["checks"]
                if not chk["passed"] and chk["family"] != EVIDENCE_FAMILY]
    maxima, finite = [], True
    for summary in payload["sweep_summaries"]:
        body, _ = _csv_body(path.parent / f"commutator_sweep_deg{summary['max_degree']}.csv")
        # numpy 2 writes the ratios as "np.float64(x)"
        ratios = [float(row.rsplit(",", 1)[1].removeprefix("np.float64(").removesuffix(")"))
                  for row in body.splitlines()[1:]]
        finite = finite and all(map(math.isfinite, ratios))
        maxima.append(max(ratios))
    growth = max((b / a for a, b in zip(maxima, maxima[1:])), default=1.0)
    growth = growth if finite else math.inf
    chk = next(c for c in payload["checks"] if c["family"] == EVIDENCE_FAMILY)
    if (chk["max_ratios"] != maxima or chk["measured"] != growth
            or chk["passed"] != (finite and growth <= chk["threshold"])):
        problems.append(f"{EVIDENCE_FAMILY} verdict does not follow from the sweeps: "
                        f"reported {chk['measured']!r}, recomputed {growth!r}")
    return problems
