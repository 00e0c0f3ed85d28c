"""Integer and finite settings are refused up front, by name, with a
``ConfigurationError``: never truncated silently or left to a raw
``TypeError`` from deep inside the computation."""

import numpy as np
import pytest

from oddwaves import (ConfigurationError, EvolutionConfig, ModelParams, commutator_sweep,
                      continue_branch, critical_speed, detect_bifurcations, holder_norm,
                      kernel_dimension, translate)
from oddwaves.spectral import hilbert_by_quadrature, zygmund_by_quadrature

from helpers import cosine

P = ModelParams(epsilon=0.5, alpha0=1.0, beta=0.0)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: continue_branch(1, P, 0.01, n=8.7),
                 "truncation n must be an integer", id="branch-n-8.7"),
    pytest.param(lambda: continue_branch(1, P, 0.01, n=8.0),
                 "truncation n must be an integer", id="branch-n-8.0"),
    pytest.param(lambda: EvolutionConfig(dt=1e-3, t_final=0.01, n_modes=2.5),
                 "n_modes must be an integer", id="evolution-n_modes"),
    pytest.param(lambda: EvolutionConfig(dt=1e-3, t_final=0.004, save_every=1.5),
                 "save_every must be an integer", id="evolution-save_every"),
    pytest.param(lambda: commutator_sweep(2.5, 10),
                 "ensemble size must be an integer", id="sweep-ensemble"),
    pytest.param(lambda: commutator_sweep(4, 2.5),
                 "max_degree must be an integer", id="sweep-max_degree"),
    pytest.param(lambda: commutator_sweep(4, 10, seed=1.5),
                 "seed must be an integer", id="sweep-seed"),
    pytest.param(lambda: holder_norm(cosine(2), 1.0, 0.5),
                 "derivative count k must be an integer", id="holder-k"),
    pytest.param(lambda: holder_norm(cosine(2), 1, 0.5, grid_size=1024.0),
                 "the Hölder grid must be an integer", id="holder-grid"),
    pytest.param(lambda: cosine(2).values(10.7),
                 "the sample grid must be an integer", id="values-grid"),
    pytest.param(lambda: hilbert_by_quadrature(cosine(2), num_points=10.7),
                 "the sample grid must be an integer", id="hilbert-quadrature-grid"),
    pytest.param(lambda: zygmund_by_quadrature(cosine(2), num_points=10.0),
                 "the sample grid must be an integer", id="zygmund-quadrature-grid"),
    pytest.param(lambda: kernel_dimension(critical_speed(1, P), P, 1, 8.5),
                 "truncation n must be an integer", id="kernel-n"),
    pytest.param(lambda: detect_bifurcations(P, 3, n_scan=8.5),
                 "n_scan must be an integer", id="detect-n_scan"),
    pytest.param(lambda: translate(cosine(2), np.nan),
                 "translation shift must be finite", id="translate-nan"),
    pytest.param(lambda: translate(cosine(2), -np.inf),
                 "translation shift must be finite", id="translate-inf"),
])
def test_non_integer_or_non_finite_setting_refused(call, message):
    with pytest.raises(ConfigurationError, match=message):
        call()


def test_numpy_integers_are_integers():
    """numpy integer scalars count as integers wherever a setting must be one."""
    assert len(continue_branch(1, P, 0.002, n=np.int64(8)).points) > 1
    assert EvolutionConfig(dt=1e-3, t_final=0.01, n_modes=np.int32(8),
                           save_every=np.int64(2)).n_modes == 8
    assert holder_norm(cosine(2), np.int64(1), 0.5, grid_size=np.int64(64)).value > 0
    assert cosine(2).values(np.int64(16)).shape == (16,)
    assert hilbert_by_quadrature(cosine(2), num_points=np.int32(16),
                                 quad_points=1024).shape == (16,)
    assert kernel_dimension(critical_speed(1, P), P, 1, np.int64(8)) == 1
    assert len(detect_bifurcations(P, 3, n_scan=np.int64(8))) == 3
