"""Command-line interface: reproducible runs and plot-ready artifacts.

Subcommands

    bifurcate   tabulate candidate bifurcation speeds (k, c_k, simple, transversal)
    branch      trace an m-fold wave branch; writes branch.csv/.json + profiles.csv
    evolve      time-integrate a branch profile (or zero data); writes
                trajectory.csv + manifest.json with conservation diagnostics
    verify      run the invariant families and the commutator-bound sweep;
                one PASS/FAIL line per family, report.json + sweep CSVs
    selftest    quick, file-free subset of verify

Exit codes: 0 success, 2 configuration error, 3 numerical failure.

Every output embeds the resolved run configuration and a sha256 of its own
data section; a fixed seed and configuration reproduce files byte for byte.
This module alone knows the artifact formats: ``_write_csv`` writes every
table from rows of Python scalars, each cell the scalar's ``repr``, and
``_write_json`` every JSON file.  ``branch.csv`` holds a branch's points,
and ``branch.json`` its settings and outcome without the points.  The
profiles of a branch are synthesized together, in one stacked transform.
The argument parser is built once per process and reused by every ``main``
call.  An ``--out`` that is, or lies below, a file and a ``--config`` file
that cannot be read are configuration errors, raised before any work.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, fields
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigurationError, NumericalError, require_real
from .spectral import (
    CosineSeries,
    SpectralField,
    _synthesize,
    commutator_h,
    derivative,
    hilbert,
    multiply,
    operators_by_quadrature,
    zygmund,
)
from .model import (
    ModelParams,
    critical_speed,
    gateaux,
    residual,
    symbol_at,
)
from .bifurcation import (
    DEFAULT_MAX_ITER,
    DEFAULT_STEP,
    DEFAULT_TOL,
    DEFAULT_TRUNCATION,
    _symbol_scale,
    continue_branch,
    detect_bifurcations,
    transversality,
)
from .evolution import (
    EvolutionConfig,
    _translation_gap,
    evolve,
    stable_dt,
    traveling_error_orders,
)
from .holder import SWEEP_GRID, _check_alpha, _check_holder_grid, commutator_sweep


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings of one CLI invocation (defaults < config file <
    flags).  Its fields and defaults are the CLI's one list of settings."""

    command: str
    epsilon: float = 0.5
    alpha0: float = 1.0
    beta: float = 0.5
    fold: int = 1
    modes: int = DEFAULT_TRUNCATION
    smax: float = 0.05
    ds: float = DEFAULT_STEP
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    dt: float = 2e-4
    tfinal: float = 1.0
    s: float = 0.02
    kmax: int = 10
    ensemble: int = 200
    degrees: tuple = (20, 40)
    alpha: float = 0.5
    holder_grid: int = SWEEP_GRID
    seed: int = 1234
    out: str = "oddwaves-out"
    dt_halving: bool = False

    def model_params(self):
        return ModelParams(self.epsilon, self.alpha0, self.beta)


# every setting a flag or --config line sets, with its default (--degrees as text)
DEFAULTS = {f.name: ",".join(map(str, f.default)) if f.name == "degrees" else f.default
            for f in fields(RunConfig)
            if f.name not in ("command", "dt_halving")}

# the least value of each setting the CLI range-checks; the modules check the rest
LOWEST = {"modes": 2, "fold": 1, "kmax": 1, "ensemble": 1, "smax": 0, "s": 0, "seed": 0}


def _parse_config_file(path):
    """Plain ``key = value`` lines; '#' starts a comment.  Values take the
    type of the key's default."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"--config {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ConfigurationError(f"--config {path}: not a text file") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        typ = type(DEFAULTS[key])
        try:
            values[key] = typ(val)
        except ValueError:
            raise ConfigurationError(
                f"{path}:{lineno}: {key} needs a {typ.__name__}, got {val!r}") from None
    return values


@cache
def build_parser():
    """The argument parser, built on the first call: parsing leaves it
    unchanged, so one parser serves every ``main`` call of a process."""
    common = argparse.ArgumentParser(add_help=False)
    for name, default in DEFAULTS.items():
        common.add_argument(f"--{name.replace('_', '-')}", dest=name,
                            type=type(default), default=None)
    common.add_argument("--config", default=None,
                        help="key = value file; flags override it")

    parser = argparse.ArgumentParser(
        prog="oddwaves",
        description="Traveling waves of an odd-viscosity surface-wave model")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("bifurcate", parents=[common],
                   help="tabulate critical speeds up to --kmax")
    sub.add_parser("branch", parents=[common],
                   help="continue the --fold branch up to --smax")
    pev = sub.add_parser("evolve", parents=[common],
                         help="integrate a branch profile (amplitude --s)")
    pev.add_argument("--dt-halving", action="store_true",
                     help="also run at dt/2 and report the convergence order")
    sub.add_parser("verify", parents=[common],
                   help="invariant families + commutator-bound sweep")
    sub.add_parser("selftest", parents=[common],
                   help="fast file-free invariant subset")
    return parser


def resolve_config(args):
    file_values = _parse_config_file(args.config) if args.config else {}
    merged = {}
    for key, default in DEFAULTS.items():
        flag = getattr(args, key, None)
        merged[key] = flag if flag is not None else file_values.get(key, default)
        if isinstance(merged[key], float):
            require_real(f"--{key.replace('_', '-')}", merged[key])
    for key, low in LOWEST.items():
        if merged[key] < low:
            raise ConfigurationError(f"--{key} must be >= {low}, got {merged[key]}")
    try:
        degrees = tuple(int(part) for part in str(merged["degrees"]).split(",") if part)
    except ValueError:
        raise ConfigurationError(f"--degrees must be integers, got {merged['degrees']!r}")
    if not degrees or any(d < 1 for d in degrees):
        raise ConfigurationError("--degrees needs positive integers")
    cfg = RunConfig(command=args.command,
                    degrees=degrees,
                    dt_halving=getattr(args, "dt_halving", False),
                    **{k: v for k, v in merged.items() if k != "degrees"})
    # re-validate the numeric contracts of the underlying modules now;
    # --modes is sized by the command that uses it
    cfg.model_params()
    EvolutionConfig(dt=cfg.dt, t_final=cfg.tfinal)
    return cfg


# -- deterministic artifact writers -------------------------------------------


def _write_csv(path, cfg, header, rows):
    """The header line, then one line per row of Python scalars (float, int,
    bool), each cell its ``repr``: numpy scalars must be converted first."""
    lines = [",".join(header)]
    lines += [",".join(map(repr, row)) for row in rows]
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode()).hexdigest()
    meta = json.dumps(asdict(cfg), sort_keys=True)
    path.write_text(f"# config: {meta}\n# sha256: {digest}\n{body}")


def _write_json(path, cfg, payload):
    canonical = json.dumps(payload, sort_keys=True)
    doc = {
        "config": asdict(cfg),
        "content_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "payload": payload,
    }
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _check_out(cfg):
    """Refuse an --out that is, or lies below, something other than a
    directory; the commands that write call this before any work."""
    path = Path(cfg.out)
    found = next((q for q in (path, *path.parents) if q.exists()), None)
    if found is not None and not found.is_dir():
        raise ConfigurationError(f"--out {cfg.out}: {found} is not a directory")


def _outdir(cfg):
    path = Path(cfg.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# -- subcommands ---------------------------------------------------------------


def cmd_bifurcate(cfg):
    _check_out(cfg)
    p = cfg.model_params()
    # --modes counts modes per fold, as in branch: scan the lattices of folds up to kmax
    points = detect_bifurcations(p, cfg.kmax, n_scan=cfg.kmax * cfg.modes)
    rows = [(pt.k, pt.speed, pt.simple, transversality(pt.k, p)) for pt in points]
    print(f"{'k':>4} {'c_k':>22} {'simple':>7} {'transversal':>12}")
    for k, ck, simple, trans in rows:
        print(f"{k:>4} {ck:>22.15g} {str(simple):>7} {str(trans):>12}")
    out = _outdir(cfg)
    _write_csv(out / "bifurcation_points.csv", cfg,
               ["k", "speed", "simple", "transversal"], rows)
    _write_json(out / "bifurcation_report.json", cfg, {
        "version": __version__,
        "points": [{"k": k, "speed": ck, "simple": simple, "transversal": trans}
                   for k, ck, simple, trans in rows],
    })
    print(f"wrote {out / 'bifurcation_points.csv'}")
    return 0


def _profile_rows(labels, fields):
    """The grid M of the fields (all of one truncation) and rows label,
    f(x_0), ..., f(x_{M-1}), one per field, from one stacked synthesis."""
    grid = fields[0].grid_size
    values = _synthesize(np.array([f.a for f in fields]), np.array([f.b for f in fields]),
                         grid).tolist()
    return grid, [[label, *vals] for label, vals in zip(labels, values)]


def cmd_branch(cfg):
    _check_out(cfg)
    p = cfg.model_params()
    branch = continue_branch(cfg.fold, p, cfg.smax, ds=cfg.ds, n=cfg.modes,
                             tol=cfg.tol, max_iter=cfg.max_iter)
    out = _outdir(cfg)
    # coeff_j is the amplitude of cos(j m x)
    _write_csv(out / "branch.csv", cfg,
               ["s", "c", "residual_norm", "newton_iters"]
               + [f"coeff_{j}" for j in range(1, branch.truncation + 1)],
               [[float(pt.s), float(pt.c), float(pt.residual_norm), int(pt.newton_iters),
                 *pt.phi.a[branch.m::branch.m].tolist()] for pt in branch.points])
    _write_json(out / "branch.json", cfg, {
        "version": __version__,
        "params": asdict(branch.params),
        "fold": branch.m,
        "truncation": branch.truncation,
        "tolerances": {"tol": branch.tol, "max_iter": branch.max_iter, "ds": branch.ds,
                       "step_cap": branch.step_cap},
        "truncated": branch.truncated,
        "failure": branch.failure,
    })
    grid, rows = _profile_rows([pt.s for pt in branch.points],
                               [pt.phi for pt in branch.points])
    _write_csv(out / "profiles.csv", cfg, ["s"] + [f"x_{j}" for j in range(grid)], rows)
    last = branch.points[-1]
    print(f"fold {branch.m}: {len(branch.points)} points, "
          f"|s| up to {abs(last.s):.6g}, c = {last.c:.12g}")
    print(f"wrote {out / 'branch.csv'}, branch.json, profiles.csv")
    if branch.truncated:
        print(f"WARNING: {branch.failure}", file=sys.stderr)
        return 3
    return 0


def cmd_evolve(cfg):
    _check_out(cfg)
    p = cfg.model_params()
    if cfg.dt_halving and cfg.s == 0:
        raise ConfigurationError("--dt-halving needs a branch profile (--s > 0)")
    if cfg.dt_halving and cfg.tfinal == 0:
        raise ConfigurationError("--dt-halving needs a time horizon (--tfinal > 0)")
    # --modes counts modes of the m-fold basis, which reach frequency fold × modes
    ecfg = EvolutionConfig(dt=cfg.dt, t_final=cfg.tfinal, n_modes=cfg.fold * cfg.modes)
    manifest = {"version": __version__}
    if cfg.s == 0:
        f0 = CosineSeries(np.zeros(ecfg.n_modes + 1))
        manifest["initial"] = "zero"
    else:
        branch = continue_branch(cfg.fold, p, cfg.s, ds=cfg.ds, n=cfg.modes,
                                 tol=cfg.tol, max_iter=cfg.max_iter)
        if branch.truncated:
            raise NumericalError(f"branch continuation failed: {branch.failure}")
        point = branch.points[-1]
        f0 = point.phi
        manifest["initial"] = "branch-point"
        manifest["branch_point"] = {"s": point.s, "c": point.c,
                                    "residual_norm": point.residual_norm}
    traj = evolve(f0, p, ecfg)
    manifest["dt_stable"] = stable_dt(ecfg.n_modes, p)
    manifest["dt_effective"] = traj.dt_effective
    manifest["mass_drift"] = traj.mass_drift
    manifest["save_times"] = traj.times.tolist()
    if cfg.s != 0:
        err = _translation_gap(point, traj)
        manifest["traveling_error"] = err
        print(f"traveling error over t <= {cfg.tfinal:g}: {err:.6e}")
        if cfg.dt_halving:
            errs, rates = traveling_error_orders(point, p, ecfg, halvings=1,
                                                 base_error=err)
            floor = rates[0] is None
            manifest["dt_halving"] = {"dts": [ecfg.dt, ecfg.dt / 2], "errors": errs,
                                      "order": rates[0], "at_roundoff_floor": floor}
            order = "not resolved (both at the roundoff floor)" if floor else f"{rates[0]:.2f}"
            print(f"dt halving: errors {errs[0]:.3e} -> {errs[1]:.3e}, order {order}")
    print(f"mass drift {traj.mass_drift:.3e}; effective dt {traj.dt_effective:g}")
    out = _outdir(cfg)
    grid, rows = _profile_rows(traj.times.tolist(), traj.states)
    _write_csv(out / "trajectory.csv", cfg, ["t"] + [f"x_{j}" for j in range(grid)], rows)
    _write_json(out / "evolution_manifest.json", cfg, manifest)
    print(f"wrote {out / 'trajectory.csv'}, evolution_manifest.json")
    return 0


# -- verification families -----------------------------------------------------


def _family_quadrature(rng, n):
    """``hilbert`` and ``zygmund`` against the singular-integral
    quadrature, at a field of degree n with mean 1 and each mode k of
    modulus 1, (a_k, b_k) = (cos θ_k, sin θ_k) with θ_k uniform on
    [0, 2π), so no mode escapes behind a small amplitude; each gap over
    the sup of its image."""
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    f = SpectralField(np.r_[1.0, np.cos(theta)], np.r_[0.0, np.sin(theta)])
    worst = 0.0
    for quadrature, operator in zip(operators_by_quadrature(f), (hilbert, zygmund)):
        image = operator(f).values()
        gap = np.abs(quadrature - image).max()
        worst = max(worst, float(gap / np.abs(image).max()))
    return worst


def _formula_residual(c, phi, p):
    """R[c, φ] as the paper writes it, from the public operators alone:
    c (2 + α0 Λ) φ' + (1/ε) (φ' + Hφ + g Hφ'') + H[Λφ · Λφ] - ⟦H, φ⟧[Λφ - g Λ³φ].
    The cross-check of ``residual``, never called by the solver."""
    g = p.alpha0 - p.beta
    d1, lam = derivative(phi, 1), zygmund(phi)
    linear = c * (2.0 * d1 + p.alpha0 * zygmund(d1)) + (1.0 / p.epsilon) * (
        d1 + hilbert(phi) + g * hilbert(derivative(phi, 2)))
    return (linear + hilbert(multiply(lam, lam))
            - commutator_h(phi, lam - g * zygmund(zygmund(lam))))


def _family_residual_formula(rng, p, n):
    """The lattice ``residual`` against ``_formula_residual`` on every mode,
    at a constant and at random m-fold profiles (m = 1, 2, 3), each with a
    random mean; the gap over max(1, the formula's largest amplitude)."""
    worst = 0.0
    for m in (0, 1, 2, 3):    # m = 0: the constant
        a = np.zeros(n + 1)
        a[0] = rng.standard_normal()
        if m:
            idx = m * np.arange(1, n // m + 1)
            a[idx] = 0.3 * rng.standard_normal(idx.size)
        phi = CosineSeries(a)
        formula = _formula_residual(-0.2, phi, p)
        gap = residual(-0.2, phi, p) - formula
        scale = max(1.0, float(np.abs(formula.b).max()))
        worst = max(worst, float(np.abs([gap.a, gap.b]).max()) / scale)
    return worst


def _family_linearization_fd(rng, p, n):
    """At a generic profile ``gateaux`` matches central differences of
    ``residual`` at step 1, which are exact: R is quadratic in φ.  φ and h
    have a N(0, 1) mean and N(0, 1) cosine amplitudes over k."""
    phi, h = (CosineSeries(rng.standard_normal(n + 1) / np.maximum(1, np.arange(n + 1)))
              for _ in range(2))
    fd = 0.5 * (residual(0.1, phi + h, p) - residual(0.1, phi - h, p))
    gx = gateaux(0.1, phi, h, p)
    return (fd - gx).sup_norm() / max(gx.sup_norm(), 1e-30)


def _family_symbol_roots(p, kmax):
    """|σ(k, c_k)| over the scale of ``bifurcation._vanishing``."""
    worst = 0.0
    for k in range(1, kmax + 1):
        ck = critical_speed(k, p)
        worst = max(worst, abs(symbol_at(k, ck, p)) / _symbol_scale(k, ck, p))
    return worst


def _run_families(cfg, *, quick=False):
    p = cfg.model_params()
    rng = np.random.default_rng(cfg.seed)
    n = 16 if quick else 32
    checks = []

    def add(name, measured, threshold):
        checks.append({"family": name, "measured": measured,
                       "threshold": threshold, "passed": bool(measured <= threshold)})

    add("quadrature-oracle", _family_quadrature(rng, n), 1e-11)
    add("residual-formula", _family_residual_formula(rng, p, n), 1e-12)
    add("linearization-fd", _family_linearization_fd(rng, p, n), 1e-12)
    add("symbol-roots", _family_symbol_roots(p, 50), 1e-12)
    if quick:
        return checks, None

    sweeps = [commutator_sweep(cfg.ensemble, deg, alpha=cfg.alpha,
                               seed=cfg.seed, grid_size=cfg.holder_grid)
              for deg in cfg.degrees]
    maxima = [s.summary()["max_ratio"] for s in sweeps]
    finite = all(np.isfinite(s.ratios).all() for s in sweeps)
    growth = max((maxima[i + 1] / maxima[i] for i in range(len(maxima) - 1)), default=1.0)
    checks.append({"family": "commutator-bound",
                   "measured": growth if finite else float("inf"),
                   "threshold": 1.25,
                   "passed": bool(finite and growth <= 1.25),
                   "max_ratios": maxima})
    return checks, sweeps


def _print_checks(checks):
    ok = True
    for chk in checks:
        status = "PASS" if chk["passed"] else "FAIL"
        ok = ok and chk["passed"]
        print(f"{status} {chk['family']:<24} measured {chk['measured']:.3e} "
              f"(threshold {chk['threshold']:.3e})")
    return ok


def cmd_verify(cfg):
    # the sweeps' own checks, before the families run; the first degree
    # refused gives the message its sweep would give
    _check_alpha(cfg.alpha)
    for deg in cfg.degrees:
        _check_holder_grid(cfg.holder_grid, 2 * deg)
    _check_out(cfg)
    checks, sweeps = _run_families(cfg)
    ok = _print_checks(checks)
    out = _outdir(cfg)
    for s in sweeps:
        _write_csv(out / f"commutator_sweep_deg{s.max_degree}.csv", cfg,
                   ["seed", "degree_a", "degree_b", "alpha", "ratio"],
                   zip(s.seeds, s.degree_a.tolist(), s.degree_b.tolist(),
                       [s.alpha] * len(s.seeds), s.ratios.tolist()))
    _write_json(out / "verification_report.json", cfg, {
        "version": __version__,
        "checks": checks,
        "sweep_summaries": [s.summary() for s in sweeps],
    })
    print(f"wrote {out / 'verification_report.json'}")
    return 0 if ok else 3


def cmd_selftest(cfg):
    checks, _ = _run_families(cfg, quick=True)
    ok = _print_checks(checks)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 3


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        handler = {
            "bifurcate": cmd_bifurcate,
            "branch": cmd_branch,
            "evolve": cmd_evolve,
            "verify": cmd_verify,
            "selftest": cmd_selftest,
        }[args.command]
        return handler(cfg)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
