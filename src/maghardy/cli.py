"""Suite runner for the inequality checks.

usage: maghardy verify --config suite.json --out report.json [--admissibility thm2|corollary] [--timings]
       maghardy sweep  --config sweep.json --out-dir results/
       maghardy list

A suite config is a JSON object {"suite": name, "seed": int, "runs": [...]}.
Each run names a theorem_id and may carry a "label" and a "seed".  A run
with a "family" block, on an id with a sharpness engine, is a sharpness run:
it reads "family", "schedule" and "window" plus the keys that engine reads.
Any other run is a verify run: it reads "function" and "quadrature" plus
the keys its verifier reads.  Each _CHECKS record lists both key sets and
_FIELDS holds each key's one reader; every other key, in a run or in one of
its blocks, is a ConfigError.  Example run:

    {"theorem_id": "radial_hardy",
     "geometry": {"m": 2, "k": 1, "gamma": 1.0},
     "weights": {"alpha1": 0.0, "alpha2": 0.0},
     "function": {"kind": "bump", "r_lo": 0.5, "r_hi": 2.0,
                  "y_box": [[-1.0, 1.0]]},
     "quadrature": {"n_r": 128, "n_y": 32}}

`verify` writes a JSON report and exits 0 only if every run passed; run
errors, malformed runs included, are recorded in the report, not raised.
`sweep` writes one CSV per run (columns theorem_id,epsilon,quotient,
sharp_constant,gap) plus a combined sweep.json.  Reports are byte-identical
for a fixed config and seed; pass --timings to record wall-clock times (this
breaks byte-reproducibility, so it is off by default).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time
from numbers import Integral, Real
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import ConfigError, MagHardyError, require_param
from .fields import ConstantFieldPotentials, FluxParam, RadialPotential
from .functions import (
    AngularMode,
    GaussTail,
    PlateauBumpY,
    PlateauLogBump,
    ProductProfile,
    TestFunction,
    TrialFamily,
    make_bump,
    make_trial,
    random_test_function,
)
from .geometry import GrushinGeometry, WeightExponents
from .quadrature import MAX_AXIS_NODES, QuadratureSpec
from .reports import ReportEncoder, SuperweightParams, jsonable, relative_gap
from .verifiers import (
    FAMILY_FOR,
    check_grushin_ibp_identity,
    check_twisted_polar_identity,
    estimate_sharpness,
    verify_ab_hardy,
    verify_constant_field,
    verify_landau,
    verify_magnetic_grushin,
    verify_radial_hardy,
    verify_radial_p,
    verify_real_landau,
    verify_uncertainty_grushin,
)

REPORT_VERSION = "maghardy-report/1"
SWEEP_VERSION = "maghardy-sweep/1"

# Ceiling on the dimensions m, k and n, far above any configured value: a huge
# one becomes a ConfigError instead of an OverflowError or an endless loop.
_MAX_DIM = 8

_REQUIRED = object()


def _check_keys(obj: dict, allowed, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _need(obj: dict, key: str, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    if key not in obj:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return obj[key]


def _number(value, field: str, kind=Real, ceiling=math.inf):
    """value through require_param, an integral float as a count, no larger
    than ceiling (checked before anything of that size is built); a
    ConfigError naming field."""
    given = value
    if kind is Integral and type(value) is float and value.is_integer():
        value = int(value)
    try:
        value = require_param("the field", "an integer" if kind is Integral else "a number",
                              value, kind)
    except MagHardyError as exc:
        raise ConfigError(f"{field}: {exc}") from None
    if value > ceiling:
        raise ConfigError(f"{field}: at most {ceiling}, got {given!r}")
    return value


def _list(value, field: str, read=_number, length=None) -> tuple:
    """A list, of the given length if set, with each entry read through read."""
    if not (isinstance(value, (list, tuple)) and length in (None, len(value))):
        size = "a list" if length is None else f"a list of {length}"
        raise ConfigError(f"{field}: expected {size}, got {value!r}")
    return tuple(read(v, f"{field}[{j}]") for j, v in enumerate(value))


def _flag(value, field: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{field}: expected true or false, got {value!r}")
    return value


def _raw(value, field: str):
    return value   # checked by the verifier or engine it goes to


class _Field(NamedTuple):
    """How a key of a JSON object is read: read(value, field) when present,
    default when absent (_REQUIRED: a ConfigError) or, if nullable, null.
    _Field() is a required number."""

    read: Callable = _number
    default: object = _REQUIRED
    nullable: bool = False


def _read(obj: dict, key: str, where: str, field: _Field):
    """The value of key in the JSON object obj, read as field says."""
    value = obj.get(key)
    if key in obj and not (value is None and field.nullable):
        return field.read(value, f"{where}.{key}")
    if field.default is _REQUIRED:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return field.default


def _walk(obj: dict, where: str, fields: dict, also=()) -> dict:
    """{key: value} for each key of fields in the JSON object obj, read through
    _read; a key neither in fields nor in also (read by the caller) is refused."""
    _check_keys(obj, (*fields, *also), where)
    return {key: _read(obj, key, where, field) for key, field in fields.items()}


def _object(make: Callable, default=_REQUIRED, nullable=False, **fields) -> _Field:
    """The field of a JSON object with the given fields, read as make(**values)."""
    return _Field(lambda obj, where: make(**_walk(obj, where, fields)), default, nullable)


def _count(ceiling=math.inf, default=_REQUIRED) -> _Field:
    return _Field(functools.partial(_number, kind=Integral, ceiling=ceiling), default)


_PAIR = functools.partial(_list, length=2)


def _range(value, field: str) -> tuple:
    lo, hi = _list(value, field, length=2)
    if not lo <= hi:
        raise ConfigError(f"{field}: need lo <= hi, got {value!r}")
    return lo, hi


def _kind(obj: dict, where: str, kinds: dict, what: str, default=None):
    """(kind, kinds[kind]) for the "kind" of the JSON object obj, default if absent."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    kind = obj.get("kind", default)
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{where}: unknown {what} kind {kind!r}")
    return kind, kinds[kind]


def _kinds(kinds: dict, what: str, default=None) -> Callable:
    """The reader of a JSON object with a "kind" in kinds: make(**values) for
    kinds[kind] = (make, fields)."""
    def read(obj, where):
        _, (make, fields) = _kind(obj, where, kinds, what, default)
        return make(**_walk(obj, where, fields, also=("kind",)))
    return read


_ZERO = RadialPotential.constant(0.0)
_POTENTIAL = _kinds({"zero": (lambda: _ZERO, {}),
                     "constant": (RadialPotential.constant, {"c": _Field()}),
                     "power": (RadialPotential.power, {"c": _Field(), "s": _Field()})},
                    "potential")

_FAMILY = {"base": _Field(lambda value, field: str(value)), "epsilon": _Field(),
           "cutoff": _Field(_PAIR)}

# test function kind -> its fields beside "kind"
_FUNCTIONS = {
    "bump": {"r_lo": _Field(), "r_hi": _Field(),
             "y_box": _Field(functools.partial(_list, read=_PAIR), ())},
    # a range left out (None) keeps random_test_function's default
    "random": {"k": _count(_MAX_DIM, 0),
               "modes": _Field(functools.partial(_list, read=_count().read), (0,)),
               "real": _Field(_flag, False), "gaussian_y": _Field(_flag, True),
               "r_lo_range": _Field(_range, None), "ratio_range": _Field(_range, None),
               "y_half_range": _Field(_range, None)},
    "trial": {**_FAMILY, "exponent": _Field(default=None, nullable=True)},
    "gauss_tail": {"a": _Field(default=0.5), "fall": _Field(default=6.0),
                   "r_hi": _Field(default=8.0), "r_lo": _Field(default=1e-8)},
    "zero": {},
}


def _parse_function(obj, where, seed, geom=None, exps=None) -> TestFunction:
    kind, fields = _kind(obj, where, _FUNCTIONS, "function")
    if kind == "random" and seed < 0:
        raise ConfigError(f"{where}: a random function needs a nonnegative seed, got {seed}")
    values = _walk(obj, where, fields, also=("kind",))
    if kind == "bump":
        return make_bump(**values)
    if kind == "random":
        return random_test_function(np.random.default_rng(seed), **{
            name: value for name, value in values.items() if value is not None})
    if kind == "trial":
        return make_trial(TrialFamily(**values), geom, exps)
    if kind == "gauss_tail":
        return TestFunction([AngularMode(0, ProductProfile(GaussTail(**values)))])
    # zero: a zero-amplitude bump on an annulus inside the unit disc, so that
    # every check, landau_log included, integrates it like any other f
    k = 0 if geom is None else geom.k
    zero = ProductProfile(PlateauLogBump(0.25, 0.5), [PlateauBumpY(-1.0, 1.0)] * k,
                          amplitude=0.0)
    return TestFunction([AngularMode(0, zero)])


# run key -> its reader, for every key a _CHECKS record or a path lists but
# "function", whose reader (_parse_function) takes the run's seed, geometry
# and weights
_FIELDS = {
    # the Grushin family
    "geometry": _object(GrushinGeometry, m=_count(_MAX_DIM), k=_count(_MAX_DIM),
                        gamma=_Field()),
    "weights": _object(WeightExponents, WeightExponents(0.0, 0.0), True,
                       alpha1=_Field(default=0.0), alpha2=_Field(default=0.0)),
    "flux": _object(FluxParam, FluxParam(0.0), True, beta=_Field(default=0.0)),
    # verify_ab_hardy refuses an unknown flag; absent, it is --admissibility
    "admissibility": _Field(_raw),
    "potentials": _Field(_kinds({"linear": (ConstantFieldPotentials,
                                            {"slope": _Field(default=0.5)})},
                                "potentials", "linear"), ConstantFieldPotentials(0.5)),
    "alpha": _Field(default=0.7),
    # the Landau family
    "psi": _Field(_POTENTIAL, _ZERO, True),
    "kappa": _Field(_POTENTIAL, RadialPotential.constant(1.0)),
    "theta1": _Field(),
    "superweight": _object(SuperweightParams, a=_Field(), b=_Field(), theta2=_Field(),
                           theta3=_Field(), theta4=_Field(), p=_Field(default=2.0)),
    "domain": _Field(_kinds({"ball": (lambda R: R, {"R": _Field()})}, "domain", "ball"), None),
    "n": _count(_MAX_DIM, 1),
    "R": _Field(default=None, nullable=True),
    # the radial Lp bounds
    "Q": _Field(), "p": _Field(), "theta": _Field(),
    # the verify path
    "quadrature": _object(QuadratureSpec, QuadratureSpec(), True,
                          n_r=_count(MAX_AXIS_NODES, 256), n_phi=_count(MAX_AXIS_NODES, 32),
                          n_y=_count(MAX_AXIS_NODES, 64), oracle=_Field(_flag, False)),
    # the sharpness path; the engine reads only base and cutoff of the family
    "family": _object(TrialFamily, **_FAMILY),
    "schedule": _Field(_list, None, True),
    "window": _Field(_raw, "gauss"),
}

# run keys beside a check's own: read by run_suite, by every verify run, and
# by every sharpness run
_RUN_KEYS = ("theorem_id", "label", "seed")
_VERIFY_KEYS = ("function", "quadrature")
_ENGINE_KEYS = ("family", "schedule", "window")


class _Check(NamedTuple):
    """One catalogued statement.

    constant and text are its `list` entry: the sharp constant and the
    conditions of a margin check, or (constant None) what an identity
    states.  keys are the run keys its verifier reads, and verify(f, spec,
    *values) calls it on their values, in that order.  On an id with a
    sharpness engine (FAMILY_FOR), engine_keys are the run keys the engine
    reads, and params(*values) builds its params from their values."""

    constant: str | None
    text: str
    keys: tuple
    verify: Callable
    engine_keys: tuple = ()
    params: Callable = lambda *values: None


# The dispatch closures look each verifier up in this module's globals when
# they run, so a verifier patched here is the one called.

_GRUSHIN = ("geometry", "weights")
_MAGNETIC = (*_GRUSHIN, "flux")
_LANDAU = ("psi", "domain")
_grushin_params = lambda geom, exps, flux=None: {"geom": geom, "exps": exps, "flux": flux}


def _landau(variant: str):
    """verify_landau on _LANDAU's values, then the variant's params, if any."""
    return lambda f, spec, psi, radius, params=None: verify_landau(
        variant, psi, params, f, spec, radius=radius)


def _real_landau(variant: str):
    return lambda f, spec, n, radius=None, R=None: verify_real_landau(
        variant, n, f, spec, radius=radius, R=R)


def _radial_p(variant: str, params=lambda: {}):
    """verify_radial_p on Q and p, its params built from the values after them."""
    return lambda f, spec, Q, p, *values: verify_radial_p(
        variant, Q, p, params(*values), f, spec)


_CHECKS = {
    "radial_hardy": _Check(
        "((Q+a1-2)/2)^2", "Q+a1-2 > 0, m+g*a2 > 0; radial f", _GRUSHIN,
        lambda f, spec, geom, exps: verify_radial_hardy(geom, exps, f, spec),
        _GRUSHIN, _grushin_params),
    "magnetic_grushin": _Check(
        "((Q+a1-2)/2)^2 + b^2", "Q+a1-2 > 0, m+g*a2 > 0; real f", _MAGNETIC,
        lambda f, spec, geom, exps, flux: verify_magnetic_grushin(geom, exps, flux, f, spec),
        _MAGNETIC, _grushin_params),
    "ab_hardy": _Check(
        "((a1+k(g+1))/2)^2 + b^2",
        "m = 2, a1+k(g+1) > 0, and a2+2g > 0 (thm2) or a2*g+2 > 0 (corollary)",
        (*_MAGNETIC, "admissibility"),
        lambda f, spec, geom, exps, flux, admissibility: verify_ab_hardy(
            geom, exps, flux, f, spec, admissibility=admissibility)),
    "uncertainty_grushin": _Check(
        "(((Q+a1-2)/2)^2 + b^2)^(1/2)",
        "as magnetic_grushin; norms halve the weight exponents", _MAGNETIC,
        lambda f, spec, geom, exps, flux: verify_uncertainty_grushin(
            geom, exps, flux, f, spec, variant="uncer1")),
    "uncertainty_ab": _Check(
        "(((a1+k(g+1))/2)^2 + b^2)^(1/2)", "m = 2, a1+k(g+1) > 0, a2*g+2 > 0", _MAGNETIC,
        lambda f, spec, geom, exps, flux: verify_uncertainty_grushin(
            geom, exps, flux, f, spec, variant="uncer21")),
    "landau_hardy_sobolev": _Check(
        "theta1^2", "theta1 != 0", (*_LANDAU, "theta1"), _landau("hardy_sobolev"),
        ("theta1",), lambda theta1: {"theta1": theta1}),
    "landau_log": _Check(
        "1/4", "support inside the closed unit disc", _LANDAU, _landau("log")),
    "landau_poincare": _Check(
        "1/R^2", "bounded ball of radius R containing the support", _LANDAU,
        _landau("poincare")),
    "landau_superweight": _Check(
        "(t2*t3 - 2*t4)/2", "a, b > 0, t2*t3 < 0, 2*t4 <= t2*t3",
        (*_LANDAU, "superweight"), _landau("superweight"),
        ("superweight",), lambda superweight: superweight),
    "radial_p_weighted": _Check(
        "|p/(Q - theta*p)|", "p > 1, theta*p != Q; radial f", ("Q", "p", "theta"),
        _radial_p("weighted", lambda theta: {"theta": theta})),
    "radial_p_log": _Check("p", "p > 1; radial f", ("Q", "p"), _radial_p("log")),
    "radial_p_poincare": _Check(
        "R*p/Q", "p > 1, support inside [0, R]; radial f", ("Q", "p", "R"),
        _radial_p("poincare", lambda R: {"R": R})),
    "radial_p_superweight": _Check(
        "(Q - p*t4 + t2*t3 - p)/p",
        "p > 1, a, b > 0, t2*t3 < 0, p*t4 - t2*t3 <= Q - p; radial f",
        ("Q", "p", "superweight"), _radial_p("superweight", lambda superweight: superweight)),
    "real_landau_hardy": _Check(
        "(n-1)^2", "n >= 1; real f (radial for n >= 2)", ("n", "domain"),
        _real_landau("hardy")),
    "real_landau_critical": _Check(
        "1/4", "n = 1, R >= e * sup|z| over the domain; real f",
        ("n", "domain", "R"), _real_landau("critical")),
    "real_landau_uncertainty": _Check(
        "1 (norm product vs pointwise bound)",
        "n >= 1; real f; R as in real_landau_critical when n = 1",
        ("n", "domain", "R"), _real_landau("uncertainty")),
    "constant_field": _Check(
        "(n(2+g)+a1-2)/2 as printed; squared reading also evaluated",
        "m = k = n, n(2+g)+a1-2 > 0, n+a2*g > 0; real radial f",
        (*_GRUSHIN, "potentials"),
        lambda f, spec, geom, exps, pots: verify_constant_field(geom, exps, pots, f, spec)),
    "grushin_ibp": _Check(
        None, "shifted-gradient expansion of the anisotropic Dirichlet form",
        (*_GRUSHIN, "alpha"),
        lambda f, spec, geom, exps, alpha: check_grushin_ibp_identity(
            geom, exps, f, alpha, spec)),
    "twisted_polar": _Check(
        None, "polar split of the twisted Dirichlet integral over kappa", ("psi", "kappa"),
        lambda f, spec, psi, kappa: check_twisted_polar_identity(psi, kappa, f, spec)),
    "real_landau_identity": _Check(
        None, "Dirichlet + harmonic-potential split on the plane", ("n",),
        _real_landau("identity")),
}


def list_theorems() -> str:
    """Stable text table of every checkable statement."""
    width = max(len(tid) for tid in _CHECKS)
    lines = ["margin checks:"]
    for tid, check in _CHECKS.items():
        if check.constant is not None:
            lines.append(f"  {tid:<{width}}  constant: {check.constant}")
            lines.append(f"  {'':<{width}}  requires: {check.text}")
    lines.append("identity checks:")
    for tid, check in _CHECKS.items():
        if check.constant is None:
            lines.append(f"  {tid:<{width}}  {check.text}")
    return "\n".join(lines)


def _run_seed(run, index: int, suite_seed: int) -> int:
    """The seed of a run: its own, or the suite's seed plus its index."""
    return _read(run, "seed", f"runs[{index}]", _count(default=suite_seed + index))


def _run_one(run: dict, index: int, seed: int, admissibility_default: str):
    """Execute a single suite entry, its seed read; returns the report object.

    The run may hold _RUN_KEYS, its path's keys and the keys its record
    lists for that path, no other; each listed key is read through _FIELDS
    before the function, and the values go to the record's closure."""
    where = f"runs[{index}]"
    tid = str(_need(run, "theorem_id", where))
    if tid not in _CHECKS:
        raise ConfigError(f"{where}: unknown theorem_id {tid!r}")
    check = _CHECKS[tid]
    engine = "family" in run and tid in FAMILY_FOR
    keys = check.engine_keys if engine else check.keys
    _check_keys(run, (*_RUN_KEYS, *(_ENGINE_KEYS if engine else _VERIFY_KEYS), *keys), where)

    def read(key):
        field = _FIELDS[key]
        if key == "admissibility":
            field = field._replace(default=admissibility_default)
        return _read(run, key, where, field)

    values = {key: read(key) for key in keys}
    if engine:
        family, schedule, window = map(read, _ENGINE_KEYS)
        return estimate_sharpness(tid, check.params(*values.values()), family, schedule,
                                  window=window)
    spec = read("quadrature")
    f = _parse_function(_need(run, "function", where), f"{where}.function", seed,
                        values.get("geometry"), values.get("weights"))
    return check.verify(f, spec, *values.values())


def _load_config(path: str) -> tuple[dict, int]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    _check_keys(cfg, {"suite", "seed", "runs"}, "config")
    if not isinstance(cfg.setdefault("runs", []), list):
        raise ConfigError("config: runs must be a list")
    return cfg, _read(cfg, "seed", "config", _count(default=0))


def _write_json(obj, path: str) -> None:
    """obj as sorted, indented JSON plus a newline.

    jsonable converts the records, and ReportEncoder writes the stdlib's
    indent=2 text in one pass instead of its pure-Python chunk stream.
    """
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=jsonable,
                  cls=ReportEncoder)
        fh.write("\n")


def _error(exc: MagHardyError) -> dict:
    """The fields of the record of a run that raised exc."""
    return {"status": "error",
            "error": {"type": type(exc).__name__, "message": str(exc)}}


def run_suite(config_path: str, out_path: str, admissibility: str = "thm2",
              timings: bool = False) -> int:
    cfg, suite_seed = _load_config(config_path)

    def execute(i, run):
        t0 = time.perf_counter()
        record = {"index": i, "label": str(run.get("label", "")) if isinstance(run, dict) else "",
                  "theorem_id": run.get("theorem_id") if isinstance(run, dict) else None,
                  "seed": None}
        try:
            if isinstance(run, dict):
                record["seed"] = _run_seed(run, i, suite_seed)
            report = _run_one(run, i, record["seed"], admissibility)
            record.update(status="ok", passed=report.passed(), report=report, error=None)
        except MagHardyError as exc:
            record.update(_error(exc), passed=False, report=None)
        record["wall_clock_s"] = time.perf_counter() - t0 if timings else None
        return record

    records = [execute(i, run) for i, run in enumerate(cfg["runs"])]

    n_pass = sum(1 for r in records if r["passed"])
    n_err = sum(1 for r in records if r["status"] == "error")
    out = {
        "version": REPORT_VERSION,
        "tool": {"name": "maghardy", "version": __version__},
        "suite": str(cfg.get("suite", "")),
        "seed": suite_seed,
        "runs": records,
        "summary": {"n_runs": len(records), "n_passed": n_pass,
                    "n_failed": len(records) - n_pass, "n_errors": n_err},
    }
    _write_json(out, out_path)
    return 0 if n_pass == len(records) else 1


def sweep_sharpness(config_path: str, out_dir: str) -> int:
    cfg, suite_seed = _load_config(config_path)
    for i, run in enumerate(cfg["runs"]):
        where = f"runs[{i}]"
        if not isinstance(run, dict) or "family" not in run:
            raise ConfigError(f"{where}: sweep runs need a trial family")
        tid = str(run.get("theorem_id", ""))
        if tid not in FAMILY_FOR:
            raise ConfigError(f"{where}: {tid!r} has no sharpness engine")
    os.makedirs(out_dir, exist_ok=True)
    results, failures = [], 0
    for i, run in enumerate(cfg["runs"]):
        tid = run["theorem_id"]
        try:
            res = _run_one(run, i, _run_seed(run, i, suite_seed), "thm2")
        except MagHardyError as exc:
            results.append({"index": i, "theorem_id": tid, **_error(exc)})
            failures += 1
            continue
        path = os.path.join(out_dir, f"{tid}_{i}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["theorem_id", "epsilon", "quotient",
                             "sharp_constant", "gap"])
            for eps, q in res.schedule:
                writer.writerow([tid, repr(float(eps)), repr(float(q)),
                                 repr(float(res.sharp_constant)),
                                 repr(float(relative_gap(q, res.sharp_constant)))])
        results.append({"index": i, "theorem_id": tid, "status": "ok",
                        "csv": os.path.basename(path),
                        "result": res})
    combined = {
        "version": SWEEP_VERSION,
        "tool": {"name": "maghardy", "version": __version__},
        "seed": suite_seed,
        "results": results,
    }
    _write_json(combined, os.path.join(out_dir, "sweep.json"))
    return 0 if failures == 0 else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; main only parses with it."""
    parser = argparse.ArgumentParser(
        prog="maghardy",
        description="numerical checks for anisotropic magnetic Hardy-type "
                    "inequalities")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--config", required=True, help="suite JSON path")
    p_verify.add_argument("--out", required=True, help="report JSON path")
    p_verify.add_argument("--admissibility", choices=("thm2", "corollary"),
                          default="thm2",
                          help="which second admissibility condition to "
                               "enforce for ab_hardy runs")
    p_verify.add_argument("--timings", action="store_true",
                          help="record wall-clock per run (breaks "
                               "byte-reproducibility)")

    p_sweep = sub.add_parser("sweep", help="run sharpness sweeps to CSV")
    p_sweep.add_argument("--config", required=True, help="sweep JSON path")
    p_sweep.add_argument("--out-dir", required=True, help="output directory")

    sub.add_parser("list", help="list checkable statements")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "verify":
            return run_suite(args.config, args.out,
                             admissibility=args.admissibility,
                             timings=args.timings)
        if args.command == "sweep":
            return sweep_sharpness(args.config, args.out_dir)
        print(list_theorems())
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
