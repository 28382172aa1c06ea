"""require_param's verdicts: the exact-type fast path against the general path."""

import math
import numbers
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction

import numpy as np
import pytest

from maghardy.errors import AdmissibilityError, DomainError, require_param
from maghardy.geometry import GrushinGeometry


def _general(what, name, value, kind=numbers.Real):
    """require_param with no fast path: every value through the ABC isinstance."""
    if isinstance(value, bool) or not isinstance(value, kind):
        got = "" if value is None else f", got {value!r}"
        raise AdmissibilityError(f"{what} needs {name}{got}")
    if kind is not numbers.Real:
        return value
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


class _Int(int):
    pass


class _Float(float):
    pass


class _List(list):
    pass


class _NoCall:
    __call__ = None   # callable() takes it, the Callable ABC does not


def _generator():
    yield 1.0


KINDS = [numbers.Real, numbers.Integral, numbers.Complex, Iterable, Sequence,
         GrushinGeometry, Callable, int, bool]
VALUES = [
    True, False, np.True_, np.float64(2.5), np.float64("nan"), np.int64(3),
    Fraction(1, 3), _Int(4), _Float(0.5), _Float("inf"), _List([1.0]),
    10**400, -10**400, math.nan, math.inf, -math.inf, "1.0", None, _generator(),
    1.5, -0.0, 7, 0, 2 + 1j, [1.0, 2.0], (1.0,), [], {1.0},
    GrushinGeometry(2, 1, 1.0), len, lambda: None, _NoCall(),
]


def _outcome(check, value, kind):
    """(returned value, None) or (None, (exception type, message))."""
    try:
        return check("the check", "x", value, kind), None
    except (AdmissibilityError, DomainError) as exc:
        return None, (type(exc), str(exc))


def _same(got, want, kind) -> bool:
    """The same verdict and message, and the same value: a Real as the same
    float (-0.0 stays -0.0), any other kind as the object given."""
    (got, got_error), (want, want_error) = got, want
    if got_error or want_error:
        return got_error == want_error
    if kind is numbers.Real:
        return type(got) is type(want) and repr(got) == repr(want)
    return got is want


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_the_fast_path_gives_the_general_verdict_value_and_message(kind):
    differ = [value for value in VALUES
              if not _same(_outcome(require_param, value, kind),
                           _outcome(_general, value, kind), kind)]
    assert differ == []


def test_bool_is_refused_as_every_number():
    for kind in (numbers.Real, numbers.Integral, numbers.Complex):
        with pytest.raises(AdmissibilityError, match="needs x, got True"):
            require_param("the check", "x", True, kind)


def test_a_huge_int_is_an_infinite_real():
    with pytest.raises(DomainError, match="x must be finite, got inf"):
        require_param("the check", "x", 10**400)
    assert require_param("the check", "x", 10**400, numbers.Integral) == 10**400
