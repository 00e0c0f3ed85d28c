"""Package-wide exception types and the two rules of a setting.

``ConfigurationError`` covers invalid parameters, grids, and usage; the CLI
maps it to exit code 2.  ``NumericalError`` covers runtime numerical failure
(non-convergence, singular systems, NaN/overflow); the CLI maps it to exit
code 3.  ``require_integer`` is the one check of an integer setting, and
``require_real`` the one check of a real-valued one; every setting of the
package passes one of them (sample grids through ``spectral._check_grid``,
which is built on the first).  A size setting whose arrays grow with it (a
truncation, a scan length, a sweep's degree through its Hölder grid) also
passes ``require_size``: no array it asks for may pass ARRAY_BYTES_CEILING,
so a size that could never run is refused by name before anything is
allocated, not left to a raw numpy memory error.
"""

from numbers import Integral, Real
from operator import ge, gt
from sys import float_info

ARRAY_BYTES_CEILING = 2 ** 28  # 256 MiB: the largest array a size setting may ask for


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


def require_size(name, value, low, nbytes):
    """``value`` as by ``require_integer``, refused also when ``nbytes(value)``,
    the bytes of the largest array the setting asks for, passes
    ARRAY_BYTES_CEILING."""
    value = require_integer(name, value, low)
    size = nbytes(value)
    if size > ARRAY_BYTES_CEILING:
        raise ConfigurationError(
            f"{name} = {value} asks for an array of {size} bytes, above the "
            f"ceiling of {ARRAY_BYTES_CEILING} bytes")
    return value


def require_real(name, value, low=None, high=None, strict=False):
    """``value`` as a float, refused unless it is a finite real number (numpy
    floats count, integers beyond the float range do not) of at least
    ``low`` and at most ``high``, or strictly between them when
    ``strict``."""
    above = gt if strict else ge
    # abs(value) <= the largest float, not isfinite(value): it is false for
    # nan and the infinities, and compares an integer exactly, where
    # isfinite would raise OverflowError converting one beyond the range
    if (isinstance(value, Real) and abs(value) <= float_info.max
            and (low is None or above(value, low)) and (high is None or above(high, value))):
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
