"""Package-wide exception types.

``ConfigurationError`` covers invalid parameters, grids, and usage; the CLI
maps it to exit code 2.  ``NumericalError`` covers runtime numerical failure
(non-convergence, singular systems, NaN/overflow); the CLI maps it to exit
code 3.  ``require_integer`` is the one check of an integer setting.
"""

from numbers import Integral


class OddWavesError(Exception):
    """Base class for all package errors."""


class ConfigurationError(OddWavesError):
    """Invalid parameter, grid, or usage."""


def require_integer(name, value, low):
    """``value`` as an int, refused unless it is an integer (numpy integers
    count, 2.0 does not) of at least ``low``."""
    if not isinstance(value, Integral) or value < low:
        raise ConfigurationError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


class NumericalError(OddWavesError):
    """Numerical failure: divergence, singular system, or non-finite state."""

    def __init__(self, message, *, time=None, last_state=None):
        super().__init__(message)
        self.time = time
        self.last_state = last_state
