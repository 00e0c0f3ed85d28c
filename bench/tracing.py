"""Span tracing from outside the package, and a cProfile summary by module.

``Tracer.installed()`` replaces, for the duration of a ``with`` block:

- every function a module of the package imports from another of its
  modules (``from .spectral import multiply`` in ``model`` and so on), at
  the importing module;
- the same-module names that carry per-layer work: ``spectral.multiply``
  as ``commutator_h`` resolves it, ``model._gateaux_from_terms`` as
  ``assemble_jacobian`` and ``gateaux`` resolve it, ``evolution.rhs`` and
  ``evolution.evolve`` as ``evolve`` and ``traveling_error`` resolve them,
  ``holder.holder_seminorm`` as ``holder_norm`` resolves it, and the CLI's
  artifact writers;
- ``numpy.linalg.solve`` as ``bifurcation`` calls it;
- ``SpectralField.__init__``, with a counter only.

Each call through a replaced name records a span: name, start, end, parent
span and run id.  Spans stay in flat arrays in memory; ``write_spans``
writes them out at the end.  A span's self time is its duration minus the
durations of its direct children (calls nest, so children never overlap).
"""

from __future__ import annotations

import cProfile
import csv
import gzip
import importlib
import inspect
import pstats
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("spectral", "model", "bifurcation", "evolution", "holder", "cli")
SAME_MODULE = {
    "spectral": ("multiply",),
    "model": ("_gateaux_from_terms",),
    "evolution": ("rhs", "evolve"),
    "holder": ("holder_seminorm",),
    "cli": ("_write_csv", "_write_json"),
}


class _Proxy:
    """Attribute access falls through to ``target`` except for overrides."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.run_id = 0
        self.counts = Counter()
        self._after = self._counters()

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, after=None):
        """``fn`` recording a span per call; ``after(args, result)`` updates
        work counters once the call returns."""
        nid = self._name_id(name)
        names, parents, runs, starts, ends = self.name, self.parent, self.run, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name, fn, *args, **kwargs):
        """One call of the original ``fn`` as a span named ``name``."""
        fn = getattr(fn, "__wrapped__", fn)
        return self.wrap(name, fn, self._after.get(name))(*args, **kwargs)

    # -- installing the wrappers ----------------------------------------------

    def _counters(self):
        c = self.counts

        def multiply(args, result):
            c["multiply.out_modes"] += result.n_modes + 1

        def seminorm(args, result):
            m = np.asarray(args[0]).size
            c["holder.pairs"] += m * (m // 2)

        def evolve(args, result):
            cfg = args[2]
            if cfg.t_final > 0:
                c["rk4_steps"] += max(1, int(round(cfg.t_final / cfg.dt)))

        def branch(args, result):
            c["branch.points"] += len(result.points) - 1
            c["branch.truncated"] += int(result.truncated)
            c["branch.newton_iters"] += sum(pt.newton_iters for pt in result.points)

        def write(args, result):
            c["cli.files"] += 1
            c["cli.bytes"] += Path(args[0]).stat().st_size

        return {"spectral.multiply": multiply, "holder.holder_seminorm": seminorm,
                "evolution.evolve": evolve, "bifurcation.continue_branch": branch,
                "cli._write_csv": write, "cli._write_json": write}

    def _patch_sites(self, pkg):
        """(object, attribute, span name) for every name to replace."""
        sites = []
        for layer in LAYERS:
            mod = importlib.import_module(f"{pkg.__name__}.{layer}")
            for attr, val in vars(mod).items():
                home = getattr(val, "__module__", "") or ""
                if (inspect.isfunction(val) and home.startswith(pkg.__name__ + ".")
                        and home != mod.__name__):
                    sites.append((mod, attr, f"{home.rsplit('.', 1)[1]}.{val.__name__}"))
            for attr in SAME_MODULE.get(layer, ()):
                if inspect.isfunction(getattr(mod, attr, None)):
                    sites.append((mod, attr, f"{layer}.{attr}"))
        return sites

    @contextmanager
    def installed(self, pkg, run_id):
        """Replace the traced names of ``pkg`` for the ``with`` block; spans
        opened inside it carry ``run_id``."""
        undo = []
        try:
            for obj, attr, name in self._patch_sites(pkg):
                undo.append((obj, attr, getattr(obj, attr)))
                setattr(obj, attr, self.wrap(name, getattr(obj, attr), self._after.get(name)))
            bif = pkg.bifurcation
            solve = self.wrap("bifurcation.linsolve", np.linalg.solve)
            undo.append((bif, "np", bif.np))
            bif.np = _Proxy(np, linalg=_Proxy(np.linalg, solve=solve))
            field_cls = pkg.spectral.SpectralField
            init = field_cls.__init__
            undo.append((field_cls, "__init__", init))

            def counted_init(obj, *args, **kwargs):
                self.counts["fields_built"] += 1
                init(obj, *args, **kwargs)

            field_cls.__init__ = counted_init
            self.run_id = run_id
            yield
        finally:
            for obj, attr, orig in reversed(undo):
                setattr(obj, attr, orig)

    # -- summaries -------------------------------------------------------------

    def _arrays(self):
        """Span name ids, parent indices, durations and self times."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = parent >= 0
        self_time = dur - np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        return name, parent, dur, self_time

    def table(self):
        """Per span name: calls, total seconds and self seconds."""
        name, _, dur, self_time = self._arrays()
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        selfs = np.bincount(name, weights=self_time, minlength=k)
        return {nm: (int(calls[i]), float(total[i]), float(selfs[i]))
                for i, nm in enumerate(self.names)}

    def calls_under(self, child, parent):
        """Number of ``child`` spans whose direct parent is a ``parent`` span."""
        if child not in self._ids or parent not in self._ids:
            return 0
        name, par, _, _ = self._arrays()
        mask = (name == self._ids[child]) & (par >= 0)
        return int(np.count_nonzero(name[par[mask]] == self._ids[parent]))

    def layer_times(self, kernel=None):
        """Self seconds by layer (a span name's first component).  With
        ``kernel`` set, the self time of that layer's spans is charged to
        the nearest enclosing span of another layer instead."""
        name, parent, _, self_time = self._arrays()
        layers = sorted({nm.split(".", 1)[0] for nm in self.names})
        own = np.array([layers.index(nm.split(".", 1)[0]) for nm in self.names],
                       dtype=np.int64)[name]
        charged = own.copy()
        if kernel in layers:
            k = layers.index(kernel)
            anc = parent.astype(np.int64)
            todo = np.nonzero((own == k) & (anc >= 0))[0]
            while todo.size:
                up = own[anc[todo]]
                charged[todo[up != k]] = up[up != k]
                todo = todo[up == k]
                anc[todo] = parent[anc[todo]]
                todo = todo[anc[todo] >= 0]
        times = np.bincount(charged, weights=self_time, minlength=len(layers))
        return Counter({ly: float(times[i]) for i, ly in enumerate(layers)})

    def write_spans(self, path):
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "start", "end", "parent", "run"])
            for i in range(len(self.start)):
                out.writerow([self.names[self.name[i]], repr(self.start[i]),
                              repr(self.end[i]), self.parent[i], self.run[i]])


# -- cProfile summary --------------------------------------------------------------


def profile_by_module(fn, pkg_dir):
    """Run ``fn`` under cProfile and return self seconds by package module.

    Time in numpy, builtins and other foreign code is charged to the package
    modules that called it, split in proportion to each caller's share, so
    that e.g. FFTs inside ``multiply`` count as ``spectral``.  Time reached
    from no package module is charged to ``other``.
    """
    prof = cProfile.Profile()
    prof.runcall(fn)
    stats = pstats.Stats(prof).stats
    pkg_dir = str(Path(pkg_dir).resolve())
    memo = {}
    active = set()

    def home(func):
        filename = func[0]
        if filename.startswith(pkg_dir):
            return Path(filename).stem
        return None

    def shares(func):
        if func in memo:
            return memo[func]
        own = home(func)
        if own is not None:
            return {own: 1.0}
        # callers on the current path are recursion (e.g. np.roll calling
        # itself); their edges are left out and the rest renormalized
        active.add(func)
        edges = {caller: edge[2] for caller, edge in stats[func][4].items()
                 if caller not in active} if func in stats else {}
        weight = sum(edges.values())
        result = Counter()
        for caller, w in edges.items():
            if weight > 0.0:
                for layer, frac in shares(caller).items():
                    result[layer] += frac * w / weight
        active.discard(func)
        memo[func] = result or {"other": 1.0}
        return memo[func]

    totals = Counter()
    for func, (_, _, tottime, _, _) in stats.items():
        for layer, frac in shares(func).items():
            totals[layer] += tottime * frac
    return totals
