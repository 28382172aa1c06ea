"""Error taxonomy shared across the package.

Every failure mode callers are expected to handle gets its own class so suite
runners can record errors as data instead of aborting.
"""

import math
import numbers
from collections.abc import Iterable, Sequence


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
    """A real-only verifier received a function not declared real, or an
    integrand came out complex."""


class ConfigError(MagHardyError, ValueError):
    """Malformed suite configuration (unknown keys, missing fields, bad types)
    or an output path that cannot be written."""


# kind -> the exact types that are instances of it and no bool: a value of
# one of them passes without the ABC's isinstance, which costs a microsecond
# or so on numbers.Real.  Any other kind passes a value of exactly its own
# class, bool excepted: a bool is refused whatever the kind.
_EXACT = {numbers.Real: (float, int), numbers.Integral: (int,),
          numbers.Complex: (complex, float, int),
          Iterable: (list, tuple), Sequence: (list, tuple), bool: ()}


def require_param(what: str, name: str, value, kind=numbers.Real):
    """value if it is a kind, by default a finite real (not a bool) as a float.

    AdmissibilityError names a missing or mistyped value, DomainError a non-finite one.
    """
    t = type(value)
    if t is float and kind is numbers.Real:   # the common case, as fast as it goes
        if value - value == 0.0:
            return value
        raise DomainError(f"{name} must be finite, got {value!r}")
    if t not in _EXACT.get(kind, (kind,)) and (isinstance(value, bool)
                                                or not isinstance(value, kind)):
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
