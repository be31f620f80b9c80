"""Exception types shared across the package, and the number rules of the model types."""

import math
import numbers


class VdwError(Exception):
    """Base class for all vdwsurf errors."""


class ParameterError(VdwError, ValueError):
    """A model, geometry or scan parameter violates its contract.

    ``fields`` names the dataclass fields the broken rule concerns and
    ``field`` is the first of them (None where a rule names no field).
    """

    def __init__(self, message, *fields):
        super().__init__(message)
        self.fields = fields
        self.field = fields[0] if fields else None


class UnsupportedModelError(VdwError, TypeError):
    """The operation needs a different material model kind."""


class SingularityError(VdwError, ArithmeticError):
    """Evaluation was requested at (or within roundoff of) a pole."""


class QuadratureError(VdwError, RuntimeError):
    """Adaptive integration did not reach the requested tolerance.

    Carries the best available result so callers can inspect how far the
    integration got.
    """

    def __init__(self, message, value=None, error_estimate=None, panels=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate
        self.panels = panels


class ConfigError(VdwError, ValueError):
    """A run configuration is malformed.  `field` names the offending entry."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class ValidityWarning(UserWarning):
    """The requested geometry strains the near-field (nonretarded) regime."""


def _is_count(value, least: int, most: float = math.inf) -> bool:
    """True for an integer (not a bool) in [least, most]."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and least <= value <= most


def _is_finite(value) -> bool:
    """True for a real number that is finite as a float.

    An integer beyond the float range is not: ``math.isfinite`` raises
    OverflowError on it, and it compares below ``math.inf``.
    """
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _shown(value) -> str:
    """``repr(value)`` for a message, or the size of an integer too long to print."""
    try:
        return repr(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        sign = "a negative" if value < 0 else "an"
        return f"{sign} integer of about {value.bit_length() * math.log10(2.0):.0f} digits"
