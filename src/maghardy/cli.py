"""Suite runner for the inequality checks.

usage: maghardy verify --config suite.json --out report.json [--timings]
       maghardy sweep  --config sweep.json --out-dir results/
       maghardy list

A suite config is a JSON object {"suite": name, "seed": int, "runs": [...]}.
Each run names a theorem_id and may carry a "label" and a "seed".  A run
with a "family" block, on an id with a sharpness engine, is a sharpness run:
it reads "family", "schedule" and "window" plus the keys that engine reads.
Any other run is a verify run: it reads "function" and "quadrature" plus
the keys its verifier reads.  Each verifiers.catalogue record lists both
key sets and _FIELDS holds each key's one reader; every other key, in a run
or in one of its blocks, is a ConfigError.  Example run:

    {"theorem_id": "radial_hardy",
     "geometry": {"m": 2, "k": 1, "gamma": 1.0},
     "weights": {"alpha1": 0.0, "alpha2": 0.0},
     "function": {"kind": "bump", "r_lo": 0.5, "r_hi": 2.0,
                  "y_box": [[-1.0, 1.0]]},
     "quadrature": {"n_r": 128, "n_y": 32}}

`verify` writes a JSON report and exits 0 only if every run passed; run
errors, malformed runs included, are recorded in the report, not raised.
`sweep` takes each run's record the way `verify` does and writes one CSV
per run (columns theorem_id,epsilon,quotient,sharp_constant,gap) plus a
combined sweep.json, whose ok entries carry the run's verdict as "passed";
it too exits 0 only if every run passed.  A ConfigError exits 2: a config
that cannot be read, an output that cannot be written, or a sweep run with
no trial family or no engine.  Reports are byte-identical for a fixed
config and seed; pass --timings to record wall-clock times (this breaks
byte-reproducibility, so it is off by default).
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
from .verifiers import FAMILY_FOR, estimate_sharpness
from .verifiers.catalogue import CHECKS, list_theorems

REPORT_VERSION = "maghardy-report/1"
SWEEP_VERSION = "maghardy-sweep/1"

# Ceiling on the dimensions m, k and n, far above any configured value: a huge
# one becomes a ConfigError instead of an OverflowError or an endless loop.
_MAX_DIM = 8

_REQUIRED = object()


def _check_keys(obj: dict, allowed: frozenset, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = obj.keys() - allowed
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


def _walk(obj: dict, where: str, fields: dict, allowed: frozenset) -> dict:
    """{key: value} for each key of fields in the JSON object obj, read through
    _read; a key not in allowed (fields' keys, and any the caller reads) is refused."""
    _check_keys(obj, allowed, where)
    return {key: _read(obj, key, where, field) for key, field in fields.items()}


def _object(make: Callable, default=_REQUIRED, nullable=False, **fields) -> _Field:
    """The field of a JSON object with the given fields, read as make(**values)."""
    allowed = frozenset(fields)
    return _Field(lambda obj, where: make(**_walk(obj, where, fields, allowed)), default,
                  nullable)


def _count(ceiling=math.inf, default=_REQUIRED) -> _Field:
    return _Field(functools.partial(_number, kind=Integral, ceiling=ceiling), default)


_COUNT = _count()


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
    allowed = {kind: frozenset((*fields, "kind")) for kind, (_, fields) in kinds.items()}

    def read(obj, where):
        kind, (make, fields) = _kind(obj, where, kinds, what, default)
        return make(**_walk(obj, where, fields, allowed[kind]))
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
               "modes": _Field(functools.partial(_list, read=_COUNT.read), (0,)),
               "real": _Field(_flag, False), "gaussian_y": _Field(_flag, True),
               "r_lo_range": _Field(_range, None), "ratio_range": _Field(_range, None),
               "y_half_range": _Field(_range, None)},
    "trial": {**_FAMILY, "exponent": _Field(default=None, nullable=True)},
    "gauss_tail": {"a": _Field(default=0.5), "fall": _Field(default=6.0),
                   "r_hi": _Field(default=8.0), "r_lo": _Field(default=1e-8)},
    "zero": {},
}
_FUNCTION_KEYS = {kind: frozenset((*fields, "kind")) for kind, fields in _FUNCTIONS.items()}


def _parse_function(obj, where, seed, geom=None, exps=None) -> TestFunction:
    kind, fields = _kind(obj, where, _FUNCTIONS, "function")
    if kind == "random" and seed < 0:
        raise ConfigError(f"{where}: a random function needs a nonnegative seed, got {seed}")
    values = _walk(obj, where, fields, _FUNCTION_KEYS[kind])
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


# run key -> its reader, for every key a CHECKS record or a path lists but
# "function", whose reader (_parse_function) takes the run's seed, geometry
# and weights
_FIELDS = {
    # the Grushin family
    "geometry": _object(GrushinGeometry, m=_count(_MAX_DIM), k=_count(_MAX_DIM),
                        gamma=_Field()),
    "weights": _object(WeightExponents, WeightExponents(0.0, 0.0), True,
                       alpha1=_Field(default=0.0), alpha2=_Field(default=0.0)),
    "flux": _object(FluxParam, FluxParam(0.0), True, beta=_Field(default=0.0)),
    # ab_hardy's second admissibility condition; verify_ab_hardy refuses an
    # unknown one
    "admissibility": _Field(_raw, "thm2"),
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

# (theorem id, whether a sharpness run) -> the keys its runs may hold
_ALLOWED = {(tid, engine): frozenset((*_RUN_KEYS, *(_ENGINE_KEYS if engine else _VERIFY_KEYS),
                                     *(check.engine_keys if engine else check.keys)))
            for tid, check in CHECKS.items() for engine in (False, True)}


def _run_seed(run, index: int, suite_seed: int) -> int:
    """The seed of a run: its own, or the suite's seed plus its index."""
    if "seed" not in run:
        return suite_seed + index
    return _COUNT.read(run["seed"], f"runs[{index}].seed")


def _run_one(run: dict, index: int, seed: int):
    """Execute a single suite entry, its seed read; returns the report object.

    The run may hold _RUN_KEYS, its path's keys and the keys its record
    lists for that path, no other; each listed key is read through _FIELDS
    before the function, and the values go to the record's closure."""
    where = f"runs[{index}]"
    tid = str(_need(run, "theorem_id", where))
    if tid not in CHECKS:
        raise ConfigError(f"{where}: unknown theorem_id {tid!r}")
    check = CHECKS[tid]
    engine = "family" in run and tid in FAMILY_FOR
    _check_keys(run, _ALLOWED[tid, engine], where)

    def read(key):
        return _read(run, key, where, _FIELDS[key])

    if engine:
        values = [read(key) for key in check.engine_keys]
        family, schedule, window = map(read, _ENGINE_KEYS)
        return estimate_sharpness(tid, check.params(*values), family, schedule,
                                  window=window)
    values = {key: read(key) for key in check.keys}
    spec = read("quadrature")
    f = _parse_function(_need(run, "function", where), f"{where}.function", seed,
                        values.get("geometry"), values.get("weights"))
    return check.verify(f, spec, *values.values())


_CONFIG_KEYS = frozenset(("suite", "seed", "runs"))
_SUITE_SEED = _count(default=0)


def _load_config(path: str) -> tuple[dict, int]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, bytes that are not UTF-8, an integer longer than
        # Python's digit limit, or arrays nested past the recursion limit
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    _check_keys(cfg, _CONFIG_KEYS, "config")
    if not isinstance(cfg.setdefault("runs", []), list):
        raise ConfigError("config: runs must be a list")
    return cfg, _read(cfg, "seed", "config", _SUITE_SEED)


def _open_out(path: str, **kwargs):
    """path opened for writing as UTF-8 text: every output file opens here.

    A path that cannot be opened is a ConfigError naming it.
    """
    try:
        return open(path, "w", encoding="utf-8", **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_json(obj, path: str) -> None:
    """obj as sorted, indented JSON plus a newline.

    jsonable converts the records, and ReportEncoder writes the stdlib's
    indent=2 text in one pass instead of its pure-Python chunk stream.
    """
    with _open_out(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=jsonable,
                  cls=ReportEncoder)
        fh.write("\n")


def _error(exc: MagHardyError) -> dict:
    """The fields of the record of a run that raised exc."""
    return {"status": "error",
            "error": {"type": type(exc).__name__, "message": str(exc)}}


def _execute(i: int, run, suite_seed: int, timings: bool = False) -> dict:
    """The record of run i, as verify writes it: its seed, its status, its
    verdict and its report, or the error it raised (recorded, not raised)."""
    t0 = time.perf_counter()
    given = run if isinstance(run, dict) else {}
    record = {"index": i, "label": str(given.get("label", "")),
              "theorem_id": given.get("theorem_id"), "seed": None}
    try:
        if run is given:
            record["seed"] = _run_seed(run, i, suite_seed)
        report = _run_one(run, i, record["seed"])
        record["status"], record["error"] = "ok", None
        record["passed"], record["report"] = report.passed(), report
    except MagHardyError as exc:
        record.update(_error(exc), passed=False, report=None)
    record["wall_clock_s"] = time.perf_counter() - t0 if timings else None
    return record


def run_suite(config_path: str, out_path: str, timings: bool = False) -> int:
    cfg, suite_seed = _load_config(config_path)
    records = [_execute(i, run, suite_seed, timings) for i, run in enumerate(cfg["runs"])]

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
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
    results = []
    for i, run in enumerate(cfg["runs"]):
        tid = run["theorem_id"]
        record = _execute(i, run, suite_seed)
        if record["status"] == "error":
            results.append({"index": i, "theorem_id": tid, "status": "error",
                            "error": record["error"]})
            continue
        res = record["report"]
        path = os.path.join(out_dir, f"{tid}_{i}.csv")
        with _open_out(path, newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["theorem_id", "epsilon", "quotient",
                             "sharp_constant", "gap"])
            for eps, q in res.schedule:
                writer.writerow([tid, repr(float(eps)), repr(float(q)),
                                 repr(float(res.sharp_constant)),
                                 repr(float(relative_gap(q, res.sharp_constant)))])
        results.append({"index": i, "theorem_id": tid, "status": "ok",
                        "passed": record["passed"], "csv": os.path.basename(path),
                        "result": res})
    combined = {
        "version": SWEEP_VERSION,
        "tool": {"name": "maghardy", "version": __version__},
        "seed": suite_seed,
        "results": results,
    }
    _write_json(combined, os.path.join(out_dir, "sweep.json"))
    return 0 if all(result.get("passed") for result in results) else 1


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
            return run_suite(args.config, args.out, timings=args.timings)
        if args.command == "sweep":
            return sweep_sharpness(args.config, args.out_dir)
        print(list_theorems())
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
