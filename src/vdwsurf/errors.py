"""Exception types shared across the package, and the number rules of the model types."""

import math
import numbers

import numpy as np


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
    OverflowError on it, and it compares below ``math.inf``.  Nor is a
    complex number, on which it raises TypeError.
    """
    try:
        return math.isfinite(value)
    except (OverflowError, TypeError):
        return False


def _shown(value) -> str:
    """``repr(value)`` for a message, or the size of an integer too long to print.

    A NumPy scalar is shown as its Python number: ``nan``, not ``np.float64(nan)``.
    """
    if isinstance(value, np.generic):
        value = value.item()
    try:
        return repr(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        sign = "a negative" if value < 0 else "an"
        return f"{sign} integer of about {value.bit_length() * math.log10(2.0):.0f} digits"


#: The number rules of :func:`_check_number`, and how a message states each.
_RULES = {"finite": "finite", "real": "real and finite", ">= 0": ">= 0 and finite", "positive": "positive and finite"}


def _breaks(x, rule: str) -> bool:
    """True when ``x`` breaks ``rule``; anything that is not a number breaks every rule."""
    if isinstance(x, (complex, np.complexfloating)):  # before math.isfinite, which takes a NumPy complex's real part
        return rule != "finite" or not (_is_finite(x.real) and _is_finite(x.imag))
    if _is_finite(x):  # a real number
        return (rule == ">= 0" and not x >= 0.0) or (rule == "positive" and not x > 0.0)
    return True


def _check_number(value, name: str, rule: str = "finite") -> None:
    """ParameterError naming ``name`` unless ``value``, a number or each number of an array-like, keeps ``rule``.

    ``rule`` is "finite" (a complex number keeps it when both parts are
    finite), "real" (a finite real number), ">= 0" or "positive" (a finite
    real number in that range).  An integer beyond the float range is not
    finite, also in an object array.  The message shows the first number
    that breaks the rule.  A Python number is checked without building an
    array, a numeric array in one vectorised pass.
    """
    if isinstance(value, (float, int, complex)):
        bad = [value] if _breaks(value, rule) else []
    else:
        flat = np.ravel(value)
        if flat.dtype.kind in "biuf" or (flat.dtype.kind == "c" and rule == "finite"):
            good = np.isfinite(flat)
            if rule == ">= 0":
                good &= flat >= 0.0
            elif rule == "positive":
                good &= flat > 0.0
            bad = [] if good.all() else [flat[np.argmin(good)]]
        else:  # objects, such as integers beyond the float range, or complex numbers under a real rule
            bad = next(([x] for x in flat if _breaks(x, rule)), [])
    if bad:
        raise ParameterError(f"{name} must be {_RULES[rule]}, got {_shown(bad[0])}", name)
