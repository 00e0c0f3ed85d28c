"""Benchmark of the oddwaves CLI, end to end and layer by layer.

    python3 bench/run.py --workload branch --seed 1 --seconds 30 --trace 0

Run from a checkout: the package is imported from ``src/`` next to this
directory and from nowhere else, so the run fails (exit 2, no result) when
the sources are missing.  Each command of a workload is run in-process
through ``oddwaves.cli.main(argv)`` in a closed loop, one command at a time
in one process, with BLAS pinned to one thread.  A run does the first
``round(--seconds / ROUND_SECONDS)`` rounds of its seeded workload (about
``--seconds`` of work on a 2-vCPU VM), so the same seed always runs the
same commands.  Artifacts go to a fresh directory under ``bench/out/`` and
are gated (see ``workloads.py``).

Workloads (inputs drawn from ``--seed``):

- ``branch``: ``branch`` for folds 1, 2, 3 at 64 modes up to s = 0.05, with
  (ε, α0, β) drawn from a box around the defaults.  Loads ``model``
  (Jacobian assembly) through ``spectral.multiply`` on low-degree basis
  directions; no ``evolution`` or ``holder`` code runs.
- ``travel``: ``evolve --s S`` at 64 modes, dt = 2e-4, t_final = 0.06, with
  S drawn from [0.01, 0.03].  Loads ``evolution.rhs`` (RK4) on full-degree
  fields, plus the continuation to S; the same data is integrated twice.
- ``verify``: ``verify --seed K --ensemble 150`` at degrees 20,40, α = 0.5,
  Hölder grid 1024.  Loads ``holder.holder_seminorm``.

End-to-end metrics (``--trace 0``):

- ``wall_s``: median over rounds of the wall time of one round's commands
  (a round is the three folds of one draw for ``branch``, one command
  otherwise).  Interpreter start and import are excluded.
- ``setup_s``: median over fresh interpreters of ``import oddwaves`` plus
  one tiny call per layer (``warmup.py``), started before, between and
  after the rounds.
- ``peak_rss_mb``: peak resident memory of this process.

``attempted`` and ``failed`` count commands; a command fails on a nonzero
exit, a truncated branch, an escaping exception or a gate miss, and the
reasons are printed.  ``correct`` is false only when a gate finds a wrong
artifact.

``--trace 1`` reports per-layer metrics instead, per round of the traced
pass: span counts and self times at every layer boundary (``tracing.py``)
and work counters, the tracing overhead (the leading third of the rounds
is repeated untraced, each right after its traced run), a cProfile summary
of self time by module over the warm-up and the first round, and the
kernel sweep (``sweep.py``).  Traced figures include the warm-up, one tiny call per
layer, so every layer appears in every traced run.  The run also prints
self-time shares by layer and checks each workload's rationale (RATIONALE
below), with the self time of ``spectral``, the kernel layer all of them
call, charged to the layer that called it.

Each run writes ``env.json`` (Python, numpy, BLAS, CPU, nproc, thread
pinning), ``ops.txt``, ``result.json`` and, traced, ``spans.csv.gz`` and
``trace_summary.json`` to ``bench/out/<workload>-seed<N>-trace<T>/``.
The failure accounting has its own tests: ``python3 -m pytest bench/tests``.
"""

import os

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from sweep import kernel_sweep  # noqa: E402
from warmup import WARMUP_STEPS, warmup  # noqa: E402
from workloads import WORKLOADS, rounds_in, run_command  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 9       # set-up probes per run, rounded to a whole number per gap
SETUP_TIMEOUT_S = 60
OVERHEAD_SHARE = 3      # a third of the traced rounds are repeated untraced
# layer expected to dominate each workload's self time, and layers that
# must stay under MINOR_SHARE of it
RATIONALE = {
    "branch": ("model", ("evolution", "holder")),
    "travel": ("evolution", ("holder",)),
    "verify": ("holder", ("model", "evolution")),
}
MINOR_SHARE = 0.05


def import_package():
    sys.path.insert(0, str(SRC))
    import oddwaves
    import oddwaves.cli  # noqa: F401  (the commands run through oddwaves.cli.main)

    if not Path(oddwaves.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"oddwaves imported from {oddwaves.__file__}, not {SRC}")
    return oddwaves


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "threads_pinned": {var: os.environ.get(var) for var in PINNED},
        "platform": platform.platform(),
    }


def setup_sample(workdir):
    """Seconds a fresh interpreter takes for import plus warm-up."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "warmup.py"), str(SRC), str(workdir)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def closed_loop(rounds, n_rounds, workdir, main, between=lambda: None):
    """Run the first ``n_rounds`` rounds back to back, one command at a
    time, calling ``between()`` before each round and after the last;
    returns one list of OpResult per round."""
    done = []
    for rnd in itertools.islice(rounds, n_rounds):
        between()
        done.append([run_command(cmd, workdir, main) for cmd in rnd])
    between()
    return done


def wall_seconds(done):
    return statistics.median(sum(op.seconds for op in rnd) for rnd in done)


def report_ops(done, log=None):
    """Print one line per command and the failure count by reason; the
    same lines go to ``log`` when given."""
    ops = [op for rnd in done for op in rnd]
    lines = [f"op {i:3d} {op.seconds:8.3f}s {' '.join(op.cmd.argv)}  "
             + ("ok" if not op.failed else f"FAILED {op.reason}")
             for i, op in enumerate(ops, 1)]
    reasons = Counter(op.reason.split(":", 1)[0] for op in ops if op.failed)
    failed = sum(reasons.values())
    lines.append(f"error_rate {failed / len(ops):.4f} ({failed}/{len(ops)})"
                 + "".join(f"; {k}: {v}" for k, v in sorted(reasons.items())))
    print("\n".join(lines))
    if log is not None:
        log.write_text("\n".join(lines) + "\n")
    return ops, failed


def traced_metrics(pkg, args, workdir, outdir):
    tracer = tracing.Tracer()
    with tracer.installed(pkg, 0):
        tracer.call("bench.warmup", warmup, workdir, tracer.call)
    run_ids = itertools.count(1)

    def traced_main(argv):
        with tracer.installed(pkg, next(run_ids)):
            return tracer.call("cli.main", pkg.cli.main, argv)

    # each leading round is repeated untraced right after its traced run, so
    # that the overhead compares the same inputs at the same machine speed
    n_rounds = rounds_in(args.workload, args.seconds)
    n_untraced = -(-n_rounds // OVERHEAD_SHARE)
    done, untraced = [], []
    for i, rnd in enumerate(itertools.islice(WORKLOADS[args.workload](args.seed), n_rounds)):
        done.append([run_command(cmd, workdir, traced_main) for cmd in rnd])
        if i < n_untraced:
            untraced.append([run_command(cmd, workdir, pkg.cli.main) for cmd in rnd])
    traced_wall = wall_seconds(done[:len(untraced)])
    ops, failed = report_ops(done, outdir / "ops.txt")

    def warmup_and_first_round():
        warmup(workdir)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for cmd in next(WORKLOADS[args.workload](args.seed)):
                pkg.cli.main([*cmd.argv, f"--out={workdir / 'profiled'}"])

    profile = tracing.profile_by_module(warmup_and_first_round, Path(pkg.__file__).parent)

    m = span_metrics(tracer, ops, len(done))
    for layer in tracing.LAYERS:        # the profiled pass is the warm-up plus one round
        m[f"profile.{layer}.self_s"] = (profile[layer], "s/round")
    m["error_rate"] = (failed / len(ops), "ratio")
    m["trace.overhead_s"] = (traced_wall - wall_seconds(untraced), "s/round")
    m.update(kernel_sweep(args.seed))
    print(f"tracing overhead over {len(untraced)} rounds: traced wall_s {traced_wall:.4f} s, "
          f"untraced {wall_seconds(untraced):.4f} s")

    shares = {"spans": tracer.layer_times(),
              "spans, spectral charged to its caller": tracer.layer_times(kernel="spectral"),
              "cProfile": profile}
    shares = {label: {k: v / sum(t.values()) for k, v in t.items()} for label, t in shares.items()}
    for label, sh in shares.items():
        print(f"self-time share by layer ({label}): "
              + ", ".join(f"{k} {100 * v:.1f}%" for k, v in sorted(sh.items())))
    charged = shares["spans, spectral charged to its caller"]
    main_layer, minor = RATIONALE[args.workload]
    confirmed = (max(charged, key=charged.get) == main_layer
                 and all(charged.get(layer, 0.0) < MINOR_SHARE for layer in minor))
    print(f"rationale ({main_layer} largest; {', '.join(minor)} under "
          f"{100 * MINOR_SHARE:.0f}%; spectral charged to its caller): "
          f"{'confirmed' if confirmed else 'NOT confirmed'}")

    tracer.write_spans(outdir / "spans.csv.gz")
    (outdir / "trace_summary.json").write_text(json.dumps({
        "spans": {k: {"calls": c, "total_s": t, "self_s": s}
                  for k, (c, t, s) in tracer.table().items()},
        "layer_shares": shares, "rationale_confirmed": confirmed, "counts": dict(tracer.counts),
    }, indent=2, sort_keys=True))
    return m, ops, failed


def span_metrics(tracer, ops, n_rounds):
    """Per-layer figures from the spans and counters of the traced pass."""
    tbl = tracer.table()
    counts = tracer.counts

    def calls(name):
        return tbl.get(name, (0, 0.0, 0.0))[0]

    def self_s(*names):
        return sum(tbl.get(name, (0, 0.0, 0.0))[2] for name in names)

    # work and time over the traced pass, reported per round so that a
    # faster program, which fits more rounds into the pass, stays comparable
    totals = {
        "spectral.multiply.calls": (calls("spectral.multiply"), "count"),
        "spectral.multiply.self_s": (self_s("spectral.multiply"), "s"),
        "spectral.multiply.out_modes": (counts["multiply.out_modes"], "count"),
        "spectral.fields_built": (counts["fields_built"], "count"),
        "model.residual.calls": (calls("model.residual"), "count"),
        "model.residual.self_s": (self_s("model.residual"), "s"),
        "model.jacobian.columns": (calls("model._gateaux_from_terms"), "count"),
        "model.jacobian.self_s": (self_s("model._gateaux_from_terms", "model.assemble_jacobian"), "s"),
        "bifurcation.points": (counts["branch.points"], "count"),
        "bifurcation.newton_iters": (counts["branch.newton_iters"], "count"),
        "bifurcation.truncated": (counts["branch.truncated"], "count"),
        "bifurcation.linsolve.calls": (calls("bifurcation.linsolve"), "count"),
        "bifurcation.linsolve.self_s": (self_s("bifurcation.linsolve"), "s"),
        "bifurcation.continue_branch.self_s": (self_s("bifurcation.continue_branch"), "s"),
        "evolution.evolve.calls": (calls("evolution.evolve"), "count"),
        "evolution.rk4_steps": (counts["rk4_steps"], "count"),
        "evolution.rhs.calls": (calls("evolution.rhs"), "count"),
        "evolution.rhs.self_s": (self_s("evolution.rhs"), "s"),
        "evolution.evolve.self_s": (self_s("evolution.evolve"), "s"),
        "holder.seminorm.calls": (calls("holder.holder_seminorm"), "count"),
        "holder.seminorm.self_s": (self_s("holder.holder_seminorm"), "s"),
        "holder.pairs_compared": (counts["holder.pairs"], "count"),
        "holder.commutator_sweep.self_s": (self_s("holder.commutator_sweep"), "s"),
        "cli.write.self_s": (self_s("cli._write_csv", "cli._write_json"), "s"),
        "cli.bytes_written": (counts["cli.bytes"], "bytes"),
        "cli.files_written": (counts["cli.files"], "count"),
    }
    layer_self = tracer.layer_times()
    for layer in tracing.LAYERS:
        totals[f"{layer}.self_s"] = (layer_self[layer], "s")
    m = {name: (value / n_rounds, f"{unit}/round") for name, (value, unit) in totals.items()}
    newton_residuals = tracer.calls_under("model.residual", "bifurcation.continue_branch")
    m["bifurcation.residuals_per_point"] = (newton_residuals / max(counts["branch.points"], 1),
                                            "ratio")
    requested = sum(op.cmd.requested_steps for op in ops) + WARMUP_STEPS
    m["evolution.useful_step_ratio"] = (requested / max(counts["rk4_steps"], 1), "ratio")
    return m


def untraced_metrics(pkg, args, workdir, outdir):
    # the set-up probes are spread over the gaps between rounds, so that
    # their median, like wall_s, spans the whole run and not one moment of
    # a shared host's varying speed
    n_rounds = rounds_in(args.workload, args.seconds)
    per_gap = max(1, round(SETUP_REPEATS / (n_rounds + 1)))
    samples = []
    warmup(workdir)
    done = closed_loop(WORKLOADS[args.workload](args.seed), n_rounds, workdir, pkg.cli.main,
                       lambda: samples.extend(setup_sample(workdir) for _ in range(per_gap)))
    setup_s = statistics.median(samples)
    print("setup_s samples: " + " ".join(f"{s:.4f}" for s in samples))
    ops, failed = report_ops(done, outdir / "ops.txt")
    print(f"wall_s: median of {len(done)} rounds")
    m = {
        "wall_s": (wall_seconds(done), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return m, ops, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        pkg = import_package()
    except ImportError as exc:
        print(f"cannot import oddwaves from {SRC}: {exc}", file=sys.stderr)
        return 2

    outdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    workdir = outdir / "work"
    workdir.mkdir(parents=True)
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    (outdir / "env.json").write_text(json.dumps(env, indent=2, sort_keys=True))

    measure = traced_metrics if args.trace else untraced_metrics
    metrics, ops, failed = measure(pkg, args, workdir, outdir)
    shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    result = {"correct": not any(op.gate_miss for op in ops), "attempted": len(ops),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (outdir / "result.json").write_text(json.dumps(result, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
