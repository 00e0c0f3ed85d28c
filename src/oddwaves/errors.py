"""Package-wide exception types and the two rules of a setting.

``ConfigurationError`` covers invalid parameters, grids, and usage; the CLI
maps it to exit code 2.  ``NumericalError`` covers runtime numerical failure
(non-convergence, singular systems, NaN/overflow); the CLI maps it to exit
code 3.  ``require_integer`` is the one check of an integer setting, and
``require_real`` the one check of a real-valued one; every setting of the
package passes one of them (sample grids through ``spectral._check_grid``,
which is built on the first).
"""

from math import isfinite
from numbers import Integral, Real
from operator import ge, gt


class OddWavesError(Exception):
    """Base class for all package errors."""


class ConfigurationError(OddWavesError):
    """Invalid parameter, grid, or usage."""


def require_integer(name, value, low, high=None):
    """``value`` as an int, refused unless it is an integer (numpy integers
    count, 2.0 does not) of at least ``low`` and at most ``high``."""
    if not isinstance(value, Integral) or value < low or (high is not None and value > high):
        span = f">= {low}" if high is None else f"{low}..{high}"
        raise ConfigurationError(f"{name} must be an integer {span}, got {value!r}")
    return int(value)


def require_real(name, value, low=None, high=None, strict=False):
    """``value`` as a float, refused unless it is a finite real number (numpy
    floats count) of at least ``low`` and at most ``high``, or strictly
    between them when ``strict``."""
    above = gt if strict else ge
    if (isinstance(value, Real) and isfinite(value) and (low is None or above(value, low))
            and (high is None or above(high, value))):
        return float(value)
    if low is not None and high is not None:
        rule = f"lie in ({low}, {high})" if strict else f"lie in [{low}, {high}]"
    else:
        rule = "be finite"
        rule += "" if low is None else f" and {'>' if strict else '>='} {low}"
        rule += "" if high is None else f" and {'<' if strict else '<='} {high}"
    raise ConfigurationError(f"{name} must {rule}, got {value!r}")


class NumericalError(OddWavesError):
    """Numerical failure: divergence, singular system, or non-finite state."""

    def __init__(self, message, *, time=None, last_state=None):
        super().__init__(message)
        self.time = time
        self.last_state = last_state
