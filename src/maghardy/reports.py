"""Report records for inequality, identity, and sharpness runs, their
verdicts and their JSON form.

Each record's `passed()` is its verdict and its `to_dict()` lists its fields
as they are.  `jsonable` is the `default=` hook of `json.dump`: it converts
only what json cannot encode itself, so a report becomes JSON once, as it is
written.  `ReportEncoder` is the `cls=` of that call: it writes the text of
`json.dump(obj, fh, indent=2, sort_keys=True, default=jsonable)` in one
recursive pass, where the stdlib's indenting encoder yields a chunk per
token.  Reports hold no environment-dependent content and are written with
sorted keys, so a configuration and seed give byte-identical report files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json import JSONEncoder
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import AdmissibilityError, require_param

__all__ = [
    "InequalityReport",
    "IdentityReport",
    "ReportEncoder",
    "SharpnessResult",
    "SuperweightParams",
    "jsonable",
    "relative_gap",
]


def relative_gap(q: float, c: float) -> float:
    """The relative excess (q - c) / c of a quotient over a constant; inf for c = 0."""
    return (q - c) / c if c != 0.0 else float("inf")


def jsonable(obj):
    """json.dump's default= hook: records, complex numbers, numpy scalars and arrays.

    np.float64 never reaches it: it is a float, which json writes itself.
    """
    if isinstance(obj, (InequalityReport, IdentityReport, SharpnessResult, SuperweightParams)):
        return obj.to_dict()
    if isinstance(obj, complex):
        if obj.imag == 0.0:
            return obj.real
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# json's text, with allow_nan, for the floats whose repr is no JSON number
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class ReportEncoder(JSONEncoder):
    """json.dump's cls= for reports: the whole text in one pass.

    It writes exactly what the stdlib encoder writes for indent=2,
    sort_keys=True, ensure_ascii and allow_nan (NaN and Infinity tokens
    included), and refuses any other settings.  One recursive write tests
    exact float and str, then containers, then the stdlib's isinstance tests
    (no type is both a container and a str, int or float), then the default=
    hook.  Keys must be str.  Reports are trees, so there is no cycle check.
    """

    def __init__(self, **kw):
        super().__init__(**kw)
        settings = (self.indent, self.sort_keys, self.ensure_ascii, self.allow_nan,
                    self.skipkeys, self.item_separator, self.key_separator)
        if settings != (2, True, True, True, False, ",", ": "):
            raise ValueError("ReportEncoder writes indent=2, sort_keys=True, "
                             "ASCII, NaN-allowing JSON only")

    def iterencode(self, o, _one_shot=False):
        out = []
        put = out.append
        default = self.default
        non_finite = _NON_FINITE.get
        float_repr = float.__repr__
        string = encode_basestring_ascii
        key_texts = {}   # indent -> {key: ",\n" + indent + key's text + ": "}

        # A dict's exact floats, strs, nulls and ints and a list's exact floats
        # are written in the loops: a call per item would double the time.
        def write(o, pad):
            t = type(o)
            if t is float:
                r = float_repr(o)
                put(non_finite(r, r))
            elif t is str:
                put(string(o))
            elif isinstance(o, dict):
                if not o:
                    put("{}")
                    return
                inner = pad + "  "
                keys = key_texts.get(inner) or key_texts.setdefault(inner, {})
                first = len(out)
                for k in sorted(o):
                    text = keys.get(k)
                    if text is None:
                        if not isinstance(k, str):
                            raise TypeError(f"report keys must be str, not {type(k).__name__}")
                        text = keys[k] = ",\n" + inner + string(k) + ": "
                    put(text)
                    v = o[k]
                    t = type(v)
                    if t is float:
                        r = float_repr(v)
                        put(non_finite(r, r))
                    elif t is str:
                        put(string(v))
                    elif v is None:
                        put("null")
                    elif t is int:
                        put(int.__repr__(v))
                    else:
                        write(v, inner)
                out[first] = "{" + out[first][1:]
                put("\n" + pad + "}")
            elif isinstance(o, (list, tuple)):
                if not o:
                    put("[]")
                    return
                inner = pad + "  "
                sep = ",\n" + inner
                first = len(out)
                for v in o:
                    put(sep)
                    if type(v) is float:
                        r = float_repr(v)
                        put(non_finite(r, r))
                    else:
                        write(v, inner)
                out[first] = "[\n" + inner
                put("\n" + pad + "]")
            elif o is None or o is True or o is False:
                put("null" if o is None else "true" if o else "false")
            elif isinstance(o, str):
                put(string(o))
            elif isinstance(o, int):
                put(int.__repr__(o))
            elif isinstance(o, float):
                r = float_repr(o)
                put(non_finite(r, r))
            else:
                write(default(o), pad)

        write(o, "")
        return ("".join(out),)


@dataclass
class InequalityReport:
    """One inequality evaluation: lhs vs a named sum of rhs terms."""

    theorem_id: str
    lhs: float
    rhs_terms: dict  # name -> value, insertion-ordered; first entry is the main term
    sharp_constant: float
    params: dict = field(default_factory=dict)
    resolution: dict = field(default_factory=dict)
    ratio_override: float | None = None

    @property
    def margin(self) -> float:
        return self.lhs - sum(self.rhs_terms.values())

    @property
    def ratio(self) -> float:
        """lhs over the main rhs term with its constant divided out.

        Verifiers whose constant sits on the lhs supply ratio_override so the
        quantity still tends to the constant at extremality.
        """
        if self.ratio_override is not None:
            return self.ratio_override
        if not self.rhs_terms or self.sharp_constant == 0.0:
            return float("nan")
        main = next(iter(self.rhs_terms.values()))
        bare = main / self.sharp_constant
        return self.lhs / bare if bare != 0.0 else float("inf")

    def tolerance(self) -> float:
        """1e-9 of the sum of the magnitudes of lhs and every rhs term."""
        return 1e-9 * (abs(self.lhs) + sum(abs(v) for v in self.rhs_terms.values()))

    def passed(self) -> bool:
        """The margin is nonnegative up to the 1e-9 relative tolerance."""
        return self.margin >= -self.tolerance()

    def to_dict(self) -> dict:
        return {
            "kind": "inequality", "theorem_id": self.theorem_id,
            "lhs": self.lhs, "rhs_terms": self.rhs_terms, "margin": self.margin,
            "sharp_constant": self.sharp_constant, "ratio": self.ratio,
            "params": self.params, "resolution": self.resolution,
        }


@dataclass
class IdentityReport:
    """One exact-identity evaluation: lhs and rhs with their relative error."""

    identity_id: str
    lhs: float
    rhs: float
    params: dict = field(default_factory=dict)
    resolution: dict = field(default_factory=dict)

    @property
    def rel_err(self) -> float:
        scale = max(abs(self.lhs), abs(self.rhs), 1e-300)
        return abs(self.lhs - self.rhs) / scale

    def passed(self) -> bool:
        return self.rel_err <= 1e-8

    def to_dict(self) -> dict:
        return {
            "kind": "identity", "identity_id": self.identity_id,
            "lhs": self.lhs, "rhs": self.rhs, "rel_err": self.rel_err,
            "params": self.params, "resolution": self.resolution,
        }


@dataclass
class SharpnessResult:
    """Rayleigh-quotient schedule for one constant: quotients vs epsilon."""

    theorem_id: str
    schedule: list  # [(epsilon, quotient), ...] in the order run
    sharp_constant: float
    params: dict = field(default_factory=dict)

    @property
    def best_quotient(self) -> float:
        return min(q for _, q in self.schedule)

    @property
    def gap(self) -> float:
        """Relative excess of the best quotient; inf for a zero constant."""
        return relative_gap(self.best_quotient, self.sharp_constant)

    def passed(self) -> bool:
        """No quotient below the constant and none rising as epsilon shrinks,
        both to a 1e-9 relative tolerance, whatever order the schedule runs in."""
        qs = [q for _, q in sorted(self.schedule, key=lambda eq: eq[0], reverse=True)]
        tol = 1e-9 * max(1.0, abs(self.sharp_constant))
        if not min(qs) >= self.sharp_constant - tol:   # min(qs) is best_quotient
            return False
        for q1, q2 in zip(qs, qs[1:]):
            if not q2 <= q1 + tol:
                return False
        return True

    def to_dict(self) -> dict:
        best = self.best_quotient
        return {
            "kind": "sharpness", "theorem_id": self.theorem_id,
            "schedule": self.schedule, "best_quotient": best,
            "sharp_constant": self.sharp_constant,
            "gap": relative_gap(best, self.sharp_constant), "params": self.params,
        }


@dataclass(frozen=True)
class SuperweightParams:
    """Parameters of the (a + b r^theta2)^theta3 / r^theta4-type weights."""

    a: float
    b: float
    theta2: float
    theta3: float
    theta4: float
    p: float = 2.0
    theta1: float = 0.0

    def __post_init__(self):
        for name in ("a", "b", "theta2", "theta3", "theta4", "p", "theta1"):
            require_param("superweight", name, getattr(self, name))
        if not (self.a > 0.0 and self.b > 0.0):
            raise AdmissibilityError("superweight needs a > 0 and b > 0")
        if not (self.theta2 * self.theta3 < 0.0):
            raise AdmissibilityError("superweight needs theta2*theta3 < 0")

    def weight(self, r):
        """The composite weight (a + b r^theta2)^theta3 at r."""
        return (self.a + self.b * r**self.theta2) ** self.theta3

    def to_dict(self) -> dict:
        """Every field by name, as dataclasses.asdict gives them, without its deep copy."""
        return {"a": self.a, "b": self.b, "theta2": self.theta2, "theta3": self.theta3,
                "theta4": self.theta4, "p": self.p, "theta1": self.theta1}
