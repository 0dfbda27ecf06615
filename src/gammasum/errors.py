"""Exception hierarchy for the gammasum package.

Every error raised deliberately by this package derives from GammaSumError,
so callers can catch one base type at an API boundary. Validation failures
additionally derive from ValueError to stay friendly to generic callers.

The two scalar checks every entry point applies to its numeric
arguments, _real and _integer, live here too: the special functions and
the generating function sit below core in the import order, and they
share the checks with it.
"""

from __future__ import annotations

import math
import numbers


class GammaSumError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GammaSumError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class ConfigError(GammaSumError, ValueError):
    """A configuration value is inconsistent or out of range."""


class ConvergenceError(GammaSumError):
    """An iterative computation did not reach the requested tolerance.

    The best available estimate, when one exists, is attached so callers
    can report a result together with its honest error indication.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class PrecisionError(GammaSumError):
    """Estimated rounding or cancellation error exceeds the allowed level,
    or a result leaves the double range."""


class NotPositiveDefiniteError(GammaSumError, ValueError):
    """A matrix required to be positive definite is not."""


class BranchTrackingError(GammaSumError):
    """A complex logarithm branch could not be certified as continuous."""


def _real(value, name, error=DomainError):
    """A finite float, from a real number or a numeric string; anything
    else, booleans, NaN and infinities included, raises error."""
    try:
        v = float(value)
    except (TypeError, ValueError):
        v = None
    if v is None or isinstance(value, bool):
        raise error(f"{name} must be a number, got {value!r}")
    if not math.isfinite(v):
        raise error(f"{name} must be finite, got {value!r}")
    return v


def _integer(value, name, error):
    """A real number with an integral value (3 or 3.0), as an int;
    anything else, booleans, NaN and infinities included, raises error."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and value % 1 == 0):
        return int(value)
    raise error(f"{name} must be an integer, got {value!r}")
