"""Traveling waves of an odd-viscosity surface-wave model.

Fourier pseudospectral tools: exact nonlocal operators on the torus, the
traveling-wave residual and its linearization, bifurcation detection and
branch continuation, time-evolution validation, and numerical checks of the
Hilbert-commutator smoothing estimate.
"""

from .errors import ConfigurationError, NumericalError, OddWavesError
from .spectral import (
    CosineSeries,
    SineSeries,
    SpectralField,
    commutator_h,
    derivative,
    hilbert,
    multiply,
    to_spectral,
    translate,
    zygmund,
)
from .model import (
    ModelParams,
    assemble_jacobian,
    critical_speed,
    d_c_symbol,
    gateaux,
    residual,
    symbol_at,
)
from .bifurcation import (
    BifurcationPoint,
    Branch,
    BranchPoint,
    continue_branch,
    detect_bifurcations,
    kernel_dimension,
)
from .evolution import (
    EvolutionConfig,
    Trajectory,
    dispersion_frequency,
    evolve,
    rhs,
    stable_dt,
    traveling_error,
)
from .holder import (
    commutator_ratio,
    commutator_sweep,
    holder_norm,
)

__version__ = "0.1.0"
