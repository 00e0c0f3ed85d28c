"""One tiny call into each layer, and the set-up probe built on it.

Run as a script, this file is the set-up probe: a fresh interpreter times
``import oddwaves`` plus ``warmup`` and prints the seconds on its last line.

    python3 bench/warmup.py SRC_DIR OUT_DIR
"""

import contextlib
import io
import sys
import time

WARMUP_STEPS = 4    # RK4 steps of the warm-up evolve call


def _plain(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def warmup(outdir, call=_plain):
    """Call every layer once on tiny inputs.  ``call(name, fn, *args)``
    performs each call; the traced run passes one that records a span."""
    from oddwaves import bifurcation, cli, evolution, holder, model, spectral

    p = model.ModelParams(0.5, 1.0, 0.5)
    f = spectral.CosineSeries([0.0, 0.1, 0.02])
    call("spectral.multiply", spectral.multiply, f, f)
    call("model.residual", model.residual, -0.5, f, p)
    call("bifurcation.continue_branch", bifurcation.continue_branch, 1, p, 0.002, n=4)
    call("evolution.evolve", evolution.evolve, f, p,
         evolution.EvolutionConfig(dt=1e-3, t_final=WARMUP_STEPS * 1e-3, n_modes=4))
    call("holder.commutator_sweep", holder.commutator_sweep, 1, 2, grid_size=64)
    with contextlib.redirect_stdout(io.StringIO()):
        call("cli.main", cli.main, ["bifurcate", "--kmax=2", f"--out={outdir}"])


if __name__ == "__main__":
    src, out = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import oddwaves  # noqa: F401  (timed: the import is part of set-up)
    warmup(out)
    print(repr(time.perf_counter() - t0))
