"""Suite runner for the inequality checks.

usage: maghardy verify --config suite.json --out report.json [--admissibility thm2|corollary] [--timings]
       maghardy sweep  --config sweep.json --out-dir results/
       maghardy list

A suite config is a JSON object {"suite": name, "seed": int, "runs": [...]}.
Each run names a theorem_id plus whatever that check needs (geometry,
weights, flux, psi, variant numbers, a function spec, quadrature); a key
the named check does not read is an error.  A run carrying a "family" block
is a sharpness run.  Example run:

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

# run keys every theorem accepts; each registry record lists the rest it
# reads, and the ids with a sharpness engine also read _SHARPNESS_KEYS
_COMMON_KEYS = {"theorem_id", "label", "seed", "quadrature", "function"}
_SHARPNESS_KEYS = {"family", "schedule", "window"}
_GRUSHIN_KEYS = {"geometry", "weights"}

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


def _number(value, field: str, kind=Real):
    """value through require_param, an integral float as a count; ConfigError naming field."""
    if kind is Integral and type(value) is float and value.is_integer():
        value = int(value)
    try:
        return require_param("the field", "an integer" if kind is Integral else "a number",
                             value, kind)
    except MagHardyError as exc:
        raise ConfigError(f"{field}: {exc}") from None


def _num(obj: dict, key: str, where: str, kind=Real, default=_REQUIRED,
         ceiling=math.inf):
    """obj[key], or default when the key is absent, through _number and no
    larger than ceiling, which is checked before anything of that size is built."""
    value = _need(obj, key, where) if default is _REQUIRED else obj.get(key, default)
    out = _number(value, f"{where}.{key}", kind)
    if out > ceiling:
        raise ConfigError(f"{where}.{key}: at most {ceiling}, got {value!r}")
    return out


def _flag(obj: dict, key: str, where: str, default: bool) -> bool:
    """obj[key] as a JSON true or false, or default when the key is absent."""
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{where}.{key}: expected true or false, got {value!r}")
    return value


def _numbers(value, field: str, kind=Real, length=None):
    """A list of finite numbers through _number, of the given length if set."""
    if not (isinstance(value, (list, tuple)) and length in (None, len(value))):
        size = "a list" if length is None else f"a list of {length}"
        raise ConfigError(f"{field}: expected {size} numbers, got {value!r}")
    return tuple(_number(v, f"{field}[{j}]", kind) for j, v in enumerate(value))


def _parse_geometry(obj, where) -> GrushinGeometry:
    _check_keys(obj, {"m", "k", "gamma"}, where)
    return GrushinGeometry(_num(obj, "m", where, Integral, ceiling=_MAX_DIM),
                           _num(obj, "k", where, Integral, ceiling=_MAX_DIM),
                           _num(obj, "gamma", where))


def _parse_weights(obj, where) -> WeightExponents:
    if obj is None:
        return WeightExponents(0.0, 0.0)
    _check_keys(obj, {"alpha1", "alpha2"}, where)
    return WeightExponents(_num(obj, "alpha1", where, default=0.0),
                           _num(obj, "alpha2", where, default=0.0))


def _parse_radial_potential(obj, where) -> RadialPotential:
    if obj is None:
        return RadialPotential.constant(0.0)
    _check_keys(obj, {"kind", "c", "s"}, where)
    kind = _need(obj, "kind", where)
    if kind == "zero":
        return RadialPotential.constant(0.0)
    if kind == "constant":
        return RadialPotential.constant(_num(obj, "c", where))
    if kind == "power":
        return RadialPotential.power(_num(obj, "c", where), _num(obj, "s", where))
    raise ConfigError(f"{where}: unknown potential kind {kind!r}")


def _parse_quadrature(obj, where) -> QuadratureSpec:
    if obj is None:
        return QuadratureSpec()
    _check_keys(obj, {"n_r", "n_phi", "n_y", "oracle"}, where)
    return QuadratureSpec(
        n_r=_num(obj, "n_r", where, Integral, 256, MAX_AXIS_NODES),
        n_phi=_num(obj, "n_phi", where, Integral, 32, MAX_AXIS_NODES),
        n_y=_num(obj, "n_y", where, Integral, 64, MAX_AXIS_NODES),
        oracle=_flag(obj, "oracle", where, False))


def _parse_family(obj, where) -> TrialFamily:
    exponent = obj.get("exponent")
    return TrialFamily(base=str(_need(obj, "base", where)),
                       epsilon=_num(obj, "epsilon", where),
                       cutoff=_numbers(_need(obj, "cutoff", where),
                                       f"{where}.cutoff", length=2),
                       exponent=None if exponent is None
                       else _num(obj, "exponent", where))


def _parse_function(obj, where, seed, geom=None, exps=None) -> TestFunction:
    kind = _need(obj, "kind", where)
    if kind == "bump":
        _check_keys(obj, {"kind", "r_lo", "r_hi", "y_box"}, where)
        y_box = obj.get("y_box", [])
        if not isinstance(y_box, list):
            raise ConfigError(f"{where}.y_box: expected a list of [lo, hi] pairs")
        y_box = tuple(_numbers(v, f"{where}.y_box[{j}]", length=2)
                      for j, v in enumerate(y_box))
        return make_bump(_num(obj, "r_lo", where), _num(obj, "r_hi", where), y_box)
    if kind == "random":
        _check_keys(obj, {"kind", "k", "modes", "real", "r_lo_range",
                          "ratio_range", "y_half_range", "gaussian_y"}, where)
        if seed < 0:
            raise ConfigError(f"{where}: a random function needs a nonnegative "
                              f"seed, got {seed}")
        rng = np.random.default_rng(seed)
        kwargs = {}
        for name in ("r_lo_range", "ratio_range", "y_half_range"):
            if name in obj:
                kwargs[name] = _numbers(obj[name], f"{where}.{name}", length=2)
                if not kwargs[name][0] <= kwargs[name][1]:
                    raise ConfigError(f"{where}.{name}: need lo <= hi, "
                                      f"got {obj[name]!r}")
        return random_test_function(
            rng, k=_num(obj, "k", where, Integral, 0, _MAX_DIM),
            modes=_numbers(obj.get("modes", [0]), f"{where}.modes", Integral),
            real=_flag(obj, "real", where, False),
            gaussian_y=_flag(obj, "gaussian_y", where, True), **kwargs)
    if kind == "trial":
        _check_keys(obj, {"kind", "base", "epsilon", "cutoff", "exponent"}, where)
        return make_trial(_parse_family(obj, where), geom, exps)
    if kind == "gauss_tail":
        _check_keys(obj, {"kind", "a", "fall", "r_hi", "r_lo"}, where)
        tail = GaussTail(a=_num(obj, "a", where, default=0.5),
                         fall=_num(obj, "fall", where, default=6.0),
                         r_hi=_num(obj, "r_hi", where, default=8.0),
                         r_lo=_num(obj, "r_lo", where, default=1e-8))
        return TestFunction([AngularMode(0, ProductProfile(tail))])
    if kind == "zero":
        # a zero-amplitude bump on an annulus inside the unit disc, so that
        # every check, landau_log included, integrates it like any other f
        _check_keys(obj, {"kind"}, where)
        k = 0 if geom is None else geom.k
        zero = ProductProfile(PlateauLogBump(0.25, 0.5), [PlateauBumpY(-1.0, 1.0)] * k,
                              amplitude=0.0)
        return TestFunction([AngularMode(0, zero)])
    raise ConfigError(f"{where}: unknown function kind {kind!r}")


class _Fields:
    """The fields of one run.

    The common fields are parsed on construction.  Each theorem-specific
    field is parsed, with its default, by one method (`num` for a plain
    number), which the verify and the sharpness path of every check share.
    """

    def __init__(self, run: dict, where: str, seed: int, admissibility: str):
        self.run, self.where, self.seed = run, where, seed
        self.spec = _parse_quadrature(run.get("quadrature"), f"{where}.quadrature")
        # verify_ab_hardy, its one reader, refuses an unknown flag
        self.admissibility = run.get("admissibility", admissibility)
        self.geom = self.exps = None
        if "geometry" in run:
            self.geom = _parse_geometry(run["geometry"], f"{where}.geometry")
            self.exps = _parse_weights(run.get("weights"), f"{where}.weights")

    def num(self, key: str, default=_REQUIRED) -> float:
        return _num(self.run, key, self.where, default=default)

    def n(self) -> int:
        return _num(self.run, "n", self.where, Integral, 1, _MAX_DIM)

    def R(self) -> float | None:
        return None if self.run.get("R") is None else self.num("R")

    def flux(self) -> FluxParam:
        obj, where = self.run.get("flux"), f"{self.where}.flux"
        if obj is None:
            return FluxParam(0.0)
        _check_keys(obj, {"beta"}, where)
        return FluxParam(_num(obj, "beta", where, default=0.0))

    def psi(self) -> RadialPotential:
        return _parse_radial_potential(self.run.get("psi"), f"{self.where}.psi")

    def kappa(self) -> RadialPotential:
        return _parse_radial_potential(
            self.run.get("kappa", {"kind": "constant", "c": 1.0}),
            f"{self.where}.kappa")

    def superweight(self) -> SuperweightParams:
        obj = _need(self.run, "superweight", self.where)
        where = f"{self.where}.superweight"
        _check_keys(obj, {"a", "b", "theta2", "theta3", "theta4", "p"}, where)
        return SuperweightParams(
            a=_num(obj, "a", where), b=_num(obj, "b", where),
            theta2=_num(obj, "theta2", where), theta3=_num(obj, "theta3", where),
            theta4=_num(obj, "theta4", where), p=_num(obj, "p", where, default=2.0))

    def radius(self) -> float | None:
        if "domain" not in self.run:
            return None
        obj, where = self.run["domain"], f"{self.where}.domain"
        _check_keys(obj, {"kind", "R"}, where)
        R = _num(obj, "R", where)
        if obj.get("kind", "ball") != "ball":
            raise ConfigError(f"{where}: the domain is a ball, not {obj['kind']!r}")
        return R

    def potentials(self) -> ConstantFieldPotentials:
        where = f"{self.where}.potentials"
        obj = self.run.get("potentials", {"kind": "linear", "slope": 0.5})
        _check_keys(obj, {"kind", "slope"}, where)
        if obj.get("kind", "linear") != "linear":
            raise ConfigError(f"{self.where}: only linear potentials are configurable")
        return ConstantFieldPotentials(_num(obj, "slope", where, default=0.5))


class _Check(NamedTuple):
    """One catalogued statement.

    constant and text are its `list` entry: the sharp constant and the
    conditions of a margin check, or (constant None) what an identity
    states.  keys are the run fields it reads beyond _COMMON_KEYS; a check
    that reads "geometry" needs it.  verify(fields, f) calls the verifier;
    sharpness(fields) builds the `estimate_sharpness` params where the
    engine takes any.
    """

    constant: str | None
    text: str
    keys: set
    verify: Callable
    sharpness: Callable | None = None


# The dispatch closures look each verifier up in this module's globals when
# they run, so a verifier patched here is the one called.

def _landau(variant: str, params=lambda r: None):
    return lambda r, f: verify_landau(variant, r.psi(), params(r), f, r.spec,
                                      radius=r.radius())


def _real_landau(variant: str):
    return lambda r, f: verify_real_landau(variant, r.n(), f, r.spec,
                                           radius=r.radius(), R=r.R())


def _radial_p(variant: str, params=lambda r: {}):
    return lambda r, f: verify_radial_p(variant, r.num("Q"), r.num("p"),
                                        params(r), f, r.spec)


_CHECKS = {
    "radial_hardy": _Check(
        "((Q+a1-2)/2)^2", "Q+a1-2 > 0, m+g*a2 > 0; radial f", _GRUSHIN_KEYS,
        lambda r, f: verify_radial_hardy(r.geom, r.exps, f, r.spec),
        lambda r: {"geom": r.geom, "exps": r.exps}),
    "magnetic_grushin": _Check(
        "((Q+a1-2)/2)^2 + b^2", "Q+a1-2 > 0, m+g*a2 > 0; real f",
        _GRUSHIN_KEYS | {"flux"},
        lambda r, f: verify_magnetic_grushin(r.geom, r.exps, r.flux(), f, r.spec),
        lambda r: {"geom": r.geom, "exps": r.exps, "flux": r.flux()}),
    "ab_hardy": _Check(
        "((a1+k(g+1))/2)^2 + b^2",
        "m = 2, a1+k(g+1) > 0, and a2+2g > 0 (thm2) or a2*g+2 > 0 (corollary)",
        _GRUSHIN_KEYS | {"flux", "admissibility"},
        lambda r, f: verify_ab_hardy(r.geom, r.exps, r.flux(), f, r.spec,
                                     admissibility=r.admissibility)),
    "uncertainty_grushin": _Check(
        "(((Q+a1-2)/2)^2 + b^2)^(1/2)",
        "as magnetic_grushin; norms halve the weight exponents",
        _GRUSHIN_KEYS | {"flux"},
        lambda r, f: verify_uncertainty_grushin(r.geom, r.exps, r.flux(), f,
                                                r.spec, variant="uncer1")),
    "uncertainty_ab": _Check(
        "(((a1+k(g+1))/2)^2 + b^2)^(1/2)", "m = 2, a1+k(g+1) > 0, a2*g+2 > 0",
        _GRUSHIN_KEYS | {"flux"},
        lambda r, f: verify_uncertainty_grushin(r.geom, r.exps, r.flux(), f,
                                                r.spec, variant="uncer21")),
    "landau_hardy_sobolev": _Check(
        "theta1^2", "theta1 != 0", {"psi", "domain", "theta1"},
        _landau("hardy_sobolev", lambda r: r.num("theta1")),
        lambda r: {"theta1": r.num("theta1")}),
    "landau_log": _Check(
        "1/4", "support inside the closed unit disc", {"psi", "domain"},
        _landau("log")),
    "landau_poincare": _Check(
        "1/R^2", "bounded ball of radius R containing the support",
        {"psi", "domain"}, _landau("poincare")),
    "landau_superweight": _Check(
        "(t2*t3 - 2*t4)/2", "a, b > 0, t2*t3 < 0, 2*t4 <= t2*t3",
        {"psi", "domain", "superweight"},
        _landau("superweight", lambda r: r.superweight()),
        lambda r: r.superweight()),
    "radial_p_weighted": _Check(
        "|p/(Q - theta*p)|", "p > 1, theta*p != Q; radial f", {"Q", "p", "theta"},
        _radial_p("weighted", lambda r: {"theta": r.num("theta")})),
    "radial_p_log": _Check("p", "p > 1; radial f", {"Q", "p"}, _radial_p("log")),
    "radial_p_poincare": _Check(
        "R*p/Q", "p > 1, support inside [0, R]; radial f", {"Q", "p", "R"},
        _radial_p("poincare", lambda r: {"R": r.R()})),
    "radial_p_superweight": _Check(
        "(Q - p*t4 + t2*t3 - p)/p",
        "p > 1, a, b > 0, t2*t3 < 0, p*t4 - t2*t3 <= Q - p; radial f",
        {"Q", "p", "superweight"},
        _radial_p("superweight", lambda r: r.superweight())),
    "real_landau_hardy": _Check(
        "(n-1)^2", "n >= 1; real f (radial for n >= 2)", {"n", "domain"},
        _real_landau("hardy")),
    "real_landau_critical": _Check(
        "1/4", "n = 1, R >= e * sup|z| over the domain; real f",
        {"n", "domain", "R"}, _real_landau("critical")),
    "real_landau_uncertainty": _Check(
        "1 (norm product vs pointwise bound)",
        "n >= 1; real f; R as in real_landau_critical when n = 1",
        {"n", "domain", "R"}, _real_landau("uncertainty")),
    "constant_field": _Check(
        "(n(2+g)+a1-2)/2 as printed; squared reading also evaluated",
        "m = k = n, n(2+g)+a1-2 > 0, n+a2*g > 0; real radial f",
        _GRUSHIN_KEYS | {"potentials"},
        lambda r, f: verify_constant_field(r.geom, r.exps, r.potentials(), f,
                                           r.spec)),
    "grushin_ibp": _Check(
        None, "shifted-gradient expansion of the anisotropic Dirichlet form",
        _GRUSHIN_KEYS | {"alpha"},
        lambda r, f: check_grushin_ibp_identity(r.geom, r.exps, f,
                                                r.num("alpha", 0.7), r.spec)),
    "twisted_polar": _Check(
        None, "polar split of the twisted Dirichlet integral over kappa",
        {"psi", "kappa"},
        lambda r, f: check_twisted_polar_identity(r.psi(), r.kappa(), f, r.spec)),
    "real_landau_identity": _Check(
        None, "Dirichlet + harmonic-potential split on the plane", {"n"},
        lambda r, f: verify_real_landau("identity", r.n(), f, r.spec)),
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
    return _num(run, "seed", f"runs[{index}]", Integral, suite_seed + index)


def _run_one(run: dict, index: int, seed: int, admissibility_default: str):
    """Execute a single suite entry, its seed read; returns the report object."""
    where = f"runs[{index}]"
    tid = str(_need(run, "theorem_id", where))
    if tid not in _CHECKS:
        raise ConfigError(f"{where}: unknown theorem_id {tid!r}")
    check = _CHECKS[tid]
    engine_keys = _SHARPNESS_KEYS if tid in FAMILY_FOR else set()
    _check_keys(run, _COMMON_KEYS | check.keys | engine_keys, where)
    fields = _Fields(run, where, seed, admissibility_default)
    if "geometry" in check.keys and fields.geom is None:
        raise ConfigError(f"{where}: {tid} needs geometry")

    if "family" in run:
        # epsilon is unread (the schedule supplies it), but shipped configs send it
        _check_keys(run["family"], {"base", "epsilon", "cutoff"}, f"{where}.family")
        family = _parse_family(run["family"], f"{where}.family")
        schedule = run.get("schedule")
        if schedule is not None:
            schedule = _numbers(schedule, f"{where}.schedule")
        params = None if check.sharpness is None else check.sharpness(fields)
        return estimate_sharpness(tid, params, family, schedule,
                                  window=run.get("window", "gauss"))

    f = _parse_function(_need(run, "function", where), f"{where}.function",
                        fields.seed, geom=fields.geom, exps=fields.exps)
    return check.verify(fields, f)


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
    return cfg, _num(cfg, "seed", "config", Integral, 0)


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
