"""Byte-identity check of the CLI's artifacts against another revision.

    python tools/artifact_diff.py REV

Checks REV out with ``git worktree`` into a temporary directory, then runs
``bifurcate``, ``branch --fold 1..3``, ``branch --fold 3 --epsilon
0.5403 --alpha0 0.8213 --beta 0.5702``, a resonant draw whose branch
truncates (exit 3), so a stall's stop and message are compared too,
``branch --fold 3 --epsilon 0.453 --alpha0 0.8774 --beta 0.6321``, whose
lattice grows to all 64 modes of the cap and still reaches s = 0.05, so a
full-ladder branch is compared, ``evolve --s 0.02`` (with and
without ``--dt-halving``), ``evolve --fold 2 --s 0.02``, whose start is an
m-fold profile with zeros between its lattice modes, ``evolve --s 0``,
which starts from the trivial branch point (c_1, 0), ``evolve --s 0.02
--epsilon 0.5403 --alpha0 0.8213 --beta 0.5702``, off the defaults, where
1/ε is not exact, so the last bits of the model's floats are compared
there too, ``evolve --s 0.02 --modes 8``, whose branch solves on all 8
modes of its cap, so a run on the same n on both sides of a change to
the n rule is compared, ``evolve --s 0.03``, the travel workload's top
amplitude, whose lattice grows to 12 modes, ``verify`` and ``selftest``,
at the defaults; ``verify`` and ``selftest``, the commands
that read a seed, at ``--seed 7`` and at ``--seed 30113``, whose
commutator bound fails, so the failing report (exit 3) is compared too;
``verify --ensemble 3 --degrees 2,4`` at ``--seed 2^70``, whose
member seeds pass 2^63, so a seed held in int64 shows as a differing CSV;
``verify --alpha 0.9 --degrees 5,60``, whose degree-60 sweep runs on a
512-point grid with Θ rows of up to 120 modes, so the Hölder climbs are
compared beyond the default degrees' widths; and ``verify --alpha 0.1
--degrees 10,30``, so the climbs are compared at both ends of α;
each from that checkout and from this working tree.  Each run passes only
flags its command reads (``selftest`` writes no file and takes no
``--out``), so both trees run the same argv.  Both trees write to the
same ``--out`` path, because every artifact embeds it.
Each differing file or stdout is printed; for a CSV or JSON file, so is the
numeric cell with the largest absolute and the one with the largest
relative gap, and, for each numeric CSV column or JSON field (list indices
dropped; a list entry with a ``family`` is keyed by it, so the checks of
two ``verify`` reports pair by family) that differs, its largest
gap over its largest magnitude: a move at roundoff reads about 1e-16 there,
even where the relative gap of two near-zero cells is near 1.  A CSV cell
is keyed by its row and its column's header name, so a column dropped or
added shows as cells on one side only, and the other columns still pair
cell for cell.  Exits 1 on any difference and 0 when every file is
byte-identical.  Standard library only; the worktree and the temporary
directory are removed at the end.
"""

import csv
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = {
    "bifurcate": ["bifurcate"],
    "branch-fold1": ["branch", "--fold", "1"],
    "branch-fold2": ["branch", "--fold", "2"],
    "branch-fold3": ["branch", "--fold", "3"],
    "branch-fold3-truncated": ["branch", "--fold", "3", "--epsilon", "0.5403",
                               "--alpha0", "0.8213", "--beta", "0.5702"],
    "branch-fold3-full-ladder": ["branch", "--fold", "3", "--epsilon", "0.453",
                                 "--alpha0", "0.8774", "--beta", "0.6321"],
    "evolve": ["evolve", "--s", "0.02"],
    "evolve-dt-halving": ["evolve", "--s", "0.02", "--dt-halving"],
    "evolve-fold2": ["evolve", "--fold", "2", "--s", "0.02"],
    "evolve-s0": ["evolve", "--s", "0"],
    "evolve-off-defaults": ["evolve", "--s", "0.02", "--epsilon", "0.5403",
                            "--alpha0", "0.8213", "--beta", "0.5702"],
    "evolve-modes8": ["evolve", "--s", "0.02", "--modes", "8"],
    "evolve-s0.03": ["evolve", "--s", "0.03"],
    "verify": ["verify"],
    "selftest": ["selftest"],
}
# each setting's extra arguments and the commands run at it
SETTINGS = {"defaults": ([], list(COMMANDS)),
            "seed7": (["--seed", "7"], ["verify", "selftest"]),
            "seed30113": (["--seed", "30113"], ["verify", "selftest"]),
            "seed2^70": (["--seed", str(2**70), "--ensemble", "3", "--degrees", "2,4"],
                         ["verify"]),
            "alpha0.9-deg5,60": (["--alpha", "0.9", "--degrees", "5,60"], ["verify"]),
            "alpha0.1-deg10,30": (["--alpha", "0.1", "--degrees", "10,30"], ["verify"])}


def run_all(tree, scratch, dest):
    """Every command at every setting from ``tree``'s sources; the files of
    each run, and its exit code and output, land in dest/<setting>/<command>."""
    out = scratch / "out"
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    for setting, (extra, commands) in SETTINGS.items():
        for name in commands:
            argv = [*COMMANDS[name], *extra] + ([] if name == "selftest" else ["--out", str(out)])
            shutil.rmtree(out, ignore_errors=True)
            proc = subprocess.run([sys.executable, "-m", "oddwaves", *argv],
                                  cwd=scratch, env=env, capture_output=True, text=True)
            run_dir = dest / setting / name
            if out.exists():
                shutil.copytree(out, run_dir)
            run_dir.mkdir(parents=True, exist_ok=True)
            (run_dir / "stdout.txt").write_text(
                f"exit {proc.returncode}\n{proc.stdout}--- stderr\n{proc.stderr}")


def numeric_cells(path):
    """{location: value} of every numeric cell of a CSV or JSON artifact.  A
    CSV cell is located by its row, counted from 1 below the header (the
    '#' lines are skipped), and its column's header, e.g. "row 3 ratio".  A
    JSON list entry with a "family" field is located by that family, e.g.
    checks[quadrature-oracle], and any other by its index."""
    if path.suffix == ".json":
        cells, stack = [], [("", json.loads(path.read_text()))]
        while stack:
            where, node = stack.pop()
            if isinstance(node, dict):
                stack += [(f"{where}/{key}", val) for key, val in node.items()]
            elif isinstance(node, list):
                for i, val in enumerate(node):
                    key = val.get("family", i) if isinstance(val, dict) else i
                    stack.append((f"{where}[{key}]", val))
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                cells.append((where, float(node)))
        return dict(cells)
    rows = csv.reader(line for line in path.read_text().splitlines()
                      if not line.startswith("#"))
    header, cells = next(rows, []), {}
    for i, row in enumerate(rows, 1):
        for name, cell in zip(header, row):
            try:
                cells[f"row {i} {name}"] = float(cell)
            except ValueError:
                pass
    return cells


def column_of(key):
    """The CSV column or JSON field of a cell: its location without the row
    and the list indices."""
    if key.startswith("row "):
        return key.split(" ", 2)[2]
    return re.sub(r"\[\d+\]", "[]", key)


def largest_gaps(old, new):
    """Lines naming the cells of the largest absolute and relative gap."""
    shared = [key for key in old if key in new]
    if not shared:
        return ["  no numeric cells in common"]
    lines = [f"  {len(old)} vs {len(new)} numeric cells"] if len(old) != len(new) else []

    def gap(key, relative):
        a, b = old[key], new[key]
        if a == b or (a != a and b != b):
            return 0.0
        d = abs(b - a)
        if d != d:   # a nan on one side only, or opposite infinities
            return float("inf")
        return d / max(abs(a), abs(b)) if relative else d

    if all(gap(key, False) == 0.0 for key in shared):
        return lines + ["  every numeric cell in common is equal"]
    for label, relative in (("absolute", False), ("relative", True)):
        key = max(shared, key=lambda k: gap(k, relative))
        lines.append(f"  largest {label} gap {gap(key, relative):.3e} at {key}: "
                     f"{old[key]!r} -> {new[key]!r}")
    columns = {}    # column: (largest gap, largest magnitude), in order of appearance
    for key in shared:
        most_gap, most_size = columns.get(column_of(key), (0.0, 0.0))
        columns[column_of(key)] = (max(most_gap, gap(key, False)),
                                   max(most_size, abs(old[key]), abs(new[key])))
    lines += [f"  {column}: largest gap {most_gap:.3e} / largest magnitude {most_size:.3e}"
              f" = {most_gap / most_size if most_size else float('inf'):.3e}"
              for column, (most_gap, most_size) in columns.items() if most_gap]
    return lines


def compare(old_dir, new_dir):
    """Print each file that differs between the two run trees; the count."""
    names = sorted({p.relative_to(old_dir) for p in old_dir.rglob("*") if p.is_file()}
                   | {p.relative_to(new_dir) for p in new_dir.rglob("*") if p.is_file()})
    differ = 0
    for name in names:
        old, new = old_dir / name, new_dir / name
        if old.is_file() and new.is_file() and old.read_bytes() == new.read_bytes():
            continue
        differ += 1
        if not (old.is_file() and new.is_file()):
            print(f"DIFF {name}: only in {'REV' if old.is_file() else 'this tree'}")
            continue
        print(f"DIFF {name}")
        if name.suffix in (".csv", ".json"):
            print("\n".join(largest_gaps(numeric_cells(old), numeric_cells(new))))
    runs = sum(len(commands) for _, commands in SETTINGS.values())
    print(f"{len(names)} files compared ({runs} runs per tree), {differ} differ")
    return differ


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__)
    scratch = Path(tempfile.mkdtemp(prefix="artifact-diff-"))
    worktree = scratch / "rev"
    try:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(worktree), argv[0]], check=True)
        run_all(worktree, scratch, scratch / "runs-rev")
        run_all(ROOT, scratch, scratch / "runs-this")
        return 1 if compare(scratch / "runs-rev", scratch / "runs-this") else 0
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                        str(worktree)], capture_output=True)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
