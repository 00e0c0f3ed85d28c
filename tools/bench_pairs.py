"""Alternating benchmark pairs of two checkouts, end-to-end metrics only.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR WORKLOAD PAIRS FIRST_SEED

Runs ``bench/run.py --workload WORKLOAD --seed S --seconds 30 --trace 0``
in each checkout, for the seeds FIRST_SEED, ..., FIRST_SEED + PAIRS - 1,
one run at a time.  The parent runs first on even pairs and the change
first on odd ones, so a drift in the host's speed falls on both sides.
Each run's ``result.json`` is read from its checkout's ``bench/out/``.

For every end-to-end metric of CHANGE_DIR's ``BENCHMARK.json`` it prints
each side's median and quartiles, the parent's interquartile range and
the number of pairs in which the change reads better (ties count for
neither side), then each seed's failed and attempted commands on both
sides.  A gain holds when the change is better in at least nine tenths of
the pairs and the medians differ by more than the parent's interquartile
range.  Exits 1 when a run fails to give a result, else 0.

The process environment is passed on unchanged.  To measure from
precompiled bytecode, compile both checkouts into a scratch prefix first
and let the runs read it:

    export PYTHONPYCACHEPREFIX=/tmp/pyc; unset PYTHONDONTWRITEBYTECODE
    python -m compileall -q PARENT_DIR/src PARENT_DIR/bench CHANGE_DIR/src CHANGE_DIR/bench

Standard library only; nothing under either checkout's ``bench/`` is
edited.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout, workload, seed):
    """The ``result.json`` of one untraced bench run in ``checkout``."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "30", "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    result = checkout / "bench" / "out" / f"{workload}-seed{seed}-trace0" / "result.json"
    if proc.returncode or not result.is_file():
        raise RuntimeError(f"{checkout} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(result.read_text())


def summary(values):
    """(median, first quartile, third quartile) of at least two values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def report(metrics, results, seeds):
    """Print the metric table and the failures per seed."""
    rows = [("metric", "unit", "parent median [q1, q3]", "change median [q1, q3]",
             "parent IQR", "change better")]
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in results[side]]
                  for side in results}
        (pm, p1, p3), (cm, c1, c3) = summary(values["parent"]), summary(values["change"])
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        rows.append((name, metric["unit"], f"{pm:.4f} [{p1:.4f}, {p3:.4f}]",
                     f"{cm:.4f} [{c1:.4f}, {c3:.4f}]", f"{p3 - p1:.4f}",
                     f"{wins} of {len(seeds)}"))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    for i, seed in enumerate(seeds):
        p, c = results["parent"][i], results["change"][i]
        print(f"seed {seed}: failed/attempted parent {p['failed']}/{p['attempted']}, "
              f"change {c['failed']}/{c['attempted']}")


def main(argv):
    if len(argv) != 5:
        sys.exit(__doc__)
    parent, change = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    workload, pairs, first = argv[2], int(argv[3]), int(argv[4])
    if pairs < 2:
        sys.exit("PAIRS must be at least 2, for quartiles")
    metrics = json.loads((change / "BENCHMARK.json").read_text())["end_to_end"]
    seeds = list(range(first, first + pairs))
    results = {"parent": [], "change": []}
    try:
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                results[side].append(run_once(parent if side == "parent" else change,
                                              workload, seed))
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(f"{workload}: {pairs} pairs, seeds {seeds[0]}..{seeds[-1]}")
    report(metrics, results, seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
