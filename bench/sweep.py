"""Kernel sweep: the cost of one call of each hot kernel at several sizes.

Inputs are random fields with decaying spectra, fixed by the seed.  Each
figure is the median over repeated calls; a kernel is repeated until it has
run ``MIN_REPS`` times and for at least ``MIN_SECONDS``.
"""

import time

import numpy as np

SIZES = (32, 64, 128, 256)
HOLDER_GRIDS = (1024, 4096)
MIN_REPS = 3
MIN_SECONDS = 0.2


def _median_seconds(fn):
    times = []
    t_begin = time.perf_counter()
    while len(times) < MIN_REPS or time.perf_counter() - t_begin < MIN_SECONDS:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def kernel_sweep(seed):
    """{metric name: (value, unit)} for every kernel and size."""
    from oddwaves import (CosineSeries, ModelParams, SpectralField, assemble_jacobian,
                          multiply, residual, rhs)
    from oddwaves.holder import holder_seminorm

    rng = np.random.default_rng(seed)
    p = ModelParams(0.5, 1.0, 0.5)
    out = {}
    for n in SIZES:
        decay = 0.02 / (1.0 + np.arange(n + 1)) ** 2
        a, b, c, d = decay * rng.standard_normal((4, n + 1))
        b[0] = d[0] = 0.0
        f, g = SpectralField(a, b), SpectralField(c, d)
        a[0] = 0.0
        phi = CosineSeries(a)
        out[f"spectral.multiply_us.n{n}"] = (1e6 * _median_seconds(lambda: multiply(f, g)), "us")
        out[f"model.residual_us.n{n}"] = (1e6 * _median_seconds(lambda: residual(-0.5, phi, p)), "us")
        out[f"model.assemble_jacobian_ms.n{n}"] = (
            1e3 * _median_seconds(lambda: assemble_jacobian(-0.5, phi, p, n)), "ms")
        out[f"evolution.rhs_us.n{n}"] = (1e6 * _median_seconds(lambda: rhs(f, p)), "us")
    for m in HOLDER_GRIDS:
        vals = rng.standard_normal(m)
        out[f"holder.seminorm_ms.m{m}"] = (1e3 * _median_seconds(lambda: holder_seminorm(vals, 0.5)), "ms")
    return out
