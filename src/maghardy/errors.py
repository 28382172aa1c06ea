"""Error taxonomy shared across the package.

Every failure mode callers are expected to handle gets its own class so suite
runners can record errors as data instead of aborting.
"""

import math
import numbers


class MagHardyError(Exception):
    """Base class for all package-specific errors."""


class OriginError(MagHardyError, ValueError):
    """A geometric quantity was requested at the origin where it is undefined."""


class DomainError(MagHardyError, ValueError):
    """Structural parameter out of range (bad radii, lambda <= 0, n_phi too small, ...)."""


class SingularWeightError(MagHardyError, ValueError):
    """Weight evaluation on the degenerate set {x = 0} with a negative radial power."""


class NonFiniteError(MagHardyError, ArithmeticError):
    """An integrand evaluated to NaN or infinity at a quadrature node."""


class AdmissibilityError(MagHardyError, ValueError):
    """Theorem preconditions on exponents/parameters are not satisfied."""


class RealnessError(MagHardyError, TypeError):
    """A real-only verifier received a function with a nonzero imaginary part."""


class ConfigError(MagHardyError, ValueError):
    """Malformed suite configuration (unknown keys, missing fields, bad types)."""


def require_param(what: str, name: str, value, kind=numbers.Real):
    """value if it is a kind, by default a finite real (not a bool) as a float.

    AdmissibilityError names a missing or mistyped value, DomainError a non-finite one.
    """
    if isinstance(value, bool) or not isinstance(value, kind):
        got = "" if value is None else f", got {value!r}"
        raise AdmissibilityError(f"{what} needs {name}{got}")
    if kind is not numbers.Real:
        return value
    try:
        value = float(value)
    except OverflowError:   # an int too large for a float
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def require_reals(what: str, **values) -> list:
    """require_param on each value, a finite real named by its keyword; the floats in order."""
    return [require_param(what, name, value) for name, value in values.items()]
