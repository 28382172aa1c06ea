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
import json
import math
import os
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import ConfigError, MagHardyError
from .fields import ConstantFieldPotentials, FluxParam, RadialPotential
from .functions import (
    AngularMode,
    GaussTail,
    ProductProfile,
    TestFunction,
    TrialFamily,
    make_bump,
    make_trial,
    random_test_function,
)
from .geometry import GrushinGeometry, WeightExponents
from .quadrature import Domain, QuadratureSpec
from .reports import SuperweightParams, jsonable
from .verifiers import (
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
from .verifiers.sharpness import _FAMILY_FOR

REPORT_VERSION = "maghardy-report/1"
SWEEP_VERSION = "maghardy-sweep/1"

# run keys every theorem accepts; each registry record lists the rest it
# reads, and the ids with a sharpness engine also read _SHARPNESS_KEYS
_COMMON_KEYS = {"theorem_id", "label", "seed", "quadrature", "function"}
_SHARPNESS_KEYS = {"family", "schedule", "window"}
_GRUSHIN_KEYS = {"geometry", "weights"}

# Ceilings on the counts a run sets, far above any configured value: a huge
# count becomes a ConfigError instead of an OverflowError or an endless loop.
_MAX_NODES = 4096   # quadrature nodes per axis
_MAX_DIM = 8        # the dimensions m, k and n

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


def _number(value, field: str, kind=float):
    """value as a finite float (an int for kind=int); ConfigError naming field.

    A bool is not a number, and an int field refuses a non-integral value
    instead of truncating it.
    """
    if isinstance(value, bool):
        raise ConfigError(f"{field}: expected a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{field}: expected an integer, got {value!r}")
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{field}: expected a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"{field}: must be finite, got {value!r}")
    return out


def _num(obj: dict, key: str, where: str, kind=float, default=_REQUIRED):
    """obj[key], or default when the key is absent, through _number."""
    value = _need(obj, key, where) if default is _REQUIRED else obj.get(key, default)
    return _number(value, f"{where}.{key}", kind)


def _size(obj: dict, key: str, where: str, ceiling: int, default=_REQUIRED) -> int:
    """obj[key] as an integer no larger than ceiling, checked before anything
    of that size is built."""
    value = _num(obj, key, where, int, default)
    if value > ceiling:
        raise ConfigError(f"{where}.{key}: at most {ceiling}, got {obj[key]!r}")
    return value


def _flag(obj: dict, key: str, where: str, default: bool) -> bool:
    """obj[key] as a JSON true or false, or default when the key is absent."""
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{where}.{key}: expected true or false, got {value!r}")
    return value


def _numbers(value, field: str, kind=float, length=None):
    """A list of finite numbers through _number, of the given length if set."""
    if not (isinstance(value, (list, tuple)) and length in (None, len(value))):
        size = "a list" if length is None else f"a list of {length}"
        raise ConfigError(f"{field}: expected {size} numbers, got {value!r}")
    return tuple(_number(v, f"{field}[{j}]", kind) for j, v in enumerate(value))


def _parse_geometry(obj, where) -> GrushinGeometry:
    _check_keys(obj, {"m", "k", "gamma"}, where)
    return GrushinGeometry(_size(obj, "m", where, _MAX_DIM),
                           _size(obj, "k", where, _MAX_DIM),
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
        n_r=_size(obj, "n_r", where, _MAX_NODES, 256),
        n_phi=_size(obj, "n_phi", where, _MAX_NODES, 32),
        n_y=_size(obj, "n_y", where, _MAX_NODES, 64),
        oracle=_flag(obj, "oracle", where, False))


def _parse_family(obj, where) -> TrialFamily:
    _check_keys(obj, {"base", "epsilon", "cutoff", "exponent"}, where)
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
            rng, k=_size(obj, "k", where, _MAX_DIM, 0),
            modes=_numbers(obj.get("modes", [0]), f"{where}.modes", int),
            real=_flag(obj, "real", where, False),
            gaussian_y=_flag(obj, "gaussian_y", where, True), **kwargs)
    if kind == "trial":
        _check_keys(obj, {"kind", "base", "epsilon", "cutoff", "exponent"}, where)
        fam = _parse_family({k: v for k, v in obj.items() if k != "kind"}, where)
        return make_trial(fam, geom, exps)
    if kind == "gauss_tail":
        _check_keys(obj, {"kind", "a", "fall", "r_hi", "r_lo"}, where)
        tail = GaussTail(a=_num(obj, "a", where, default=0.5),
                         fall=_num(obj, "fall", where, default=6.0),
                         r_hi=_num(obj, "r_hi", where, default=8.0),
                         r_lo=_num(obj, "r_lo", where, default=1e-8))
        return TestFunction([AngularMode(0, ProductProfile(tail))])
    if kind == "zero":
        _check_keys(obj, {"kind"}, where)
        return TestFunction([])
    raise ConfigError(f"{where}: unknown function kind {kind!r}")


class _Fields:
    """The fields of one run.

    The common fields are parsed on construction.  Each theorem-specific
    field is parsed, with its default, by one method (`num` for a plain
    number), which the verify and the sharpness path of every check share.
    """

    def __init__(self, run: dict, where: str, seed: int, admissibility: str):
        self.run, self.where = run, where
        self.seed = _num(run, "seed", where, int, seed)
        self.spec = _parse_quadrature(run.get("quadrature"), f"{where}.quadrature")
        self.admissibility = run.get("admissibility", admissibility)
        if self.admissibility not in ("thm2", "corollary"):
            raise ConfigError(f"{where}: admissibility must be thm2 or corollary")
        self.geom = self.exps = None
        if "geometry" in run:
            self.geom = _parse_geometry(run["geometry"], f"{where}.geometry")
            self.exps = _parse_weights(run.get("weights"), f"{where}.weights")

    def num(self, key: str, default=_REQUIRED) -> float:
        return _num(self.run, key, self.where, default=default)

    def n(self) -> int:
        return _size(self.run, "n", self.where, _MAX_DIM, 1)

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
        _check_keys(obj, {"a", "b", "theta2", "theta3", "theta4", "p", "theta1"},
                    where)
        return SuperweightParams(
            a=_num(obj, "a", where), b=_num(obj, "b", where),
            theta2=_num(obj, "theta2", where), theta3=_num(obj, "theta3", where),
            theta4=_num(obj, "theta4", where), p=_num(obj, "p", where, default=2.0),
            theta1=_num(obj, "theta1", where, default=0.0))

    def domain(self) -> Domain | None:
        if "domain" not in self.run:
            return None
        obj, where = self.run["domain"], f"{self.where}.domain"
        _check_keys(obj, {"kind", "R"}, where)
        R = _num(obj, "R", where)
        kind = obj.get("kind", "ball")
        return Domain(r_lo=R * 1e-9, r_hi=R, y_box=(), kind=kind, R_Omega=R)

    def potentials(self) -> ConstantFieldPotentials:
        where = f"{self.where}.potentials"
        obj = self.run.get("potentials", {"kind": "linear", "slope": 0.5})
        _check_keys(obj, {"kind", "slope"}, where)
        if obj.get("kind", "linear") != "linear":
            raise ConfigError(f"{self.where}: only linear potentials are configurable")
        return ConstantFieldPotentials.linear(
            self.geom.m, _num(obj, "slope", where, default=0.5))


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
                                      domain=r.domain())


def _real_landau(variant: str):
    return lambda r, f: verify_real_landau(variant, r.n(), f, r.spec,
                                           Omega=r.domain(), R=r.R())


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
        "theta1^2", "theta1 != 0", {"psi", "domain", "theta1", "superweight"},
        _landau("hardy_sobolev",
                lambda r: r.superweight() if "superweight" in r.run
                else r.num("theta1")),
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
        "(n-1)^2", "n >= 1; real f (radial for n >= 2)", {"n", "domain", "R"},
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


def _run_one(run: dict, index: int, suite_seed: int, admissibility_default: str):
    """Execute a single suite entry; returns the report object."""
    where = f"runs[{index}]"
    tid = str(_need(run, "theorem_id", where))
    if tid not in _CHECKS:
        raise ConfigError(f"{where}: unknown theorem_id {tid!r}")
    check = _CHECKS[tid]
    engine_keys = _SHARPNESS_KEYS if tid in _FAMILY_FOR else set()
    _check_keys(run, _COMMON_KEYS | check.keys | engine_keys, where)
    fields = _Fields(run, where, suite_seed + index, admissibility_default)
    if "geometry" in check.keys and fields.geom is None:
        raise ConfigError(f"{where}: {tid} needs geometry")

    if "family" in run:
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


def _passes(report) -> bool:
    kind = report.to_dict().get("kind")
    if kind == "inequality":
        return report.passes(report.tolerance(1e-9))
    if kind == "identity":
        return report.rel_err <= 1e-8
    if kind == "sharpness":
        qs = [q for _, q in report.schedule]
        tol = 1e-9 * max(1.0, abs(report.sharp_constant))
        one_sided = report.best_quotient >= report.sharp_constant - tol
        monotone = all(q2 <= q1 + tol for q1, q2 in zip(qs, qs[1:]))
        return one_sided and monotone
    return False


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    _check_keys(cfg, {"suite", "seed", "runs"}, "config")
    if not isinstance(cfg.get("runs", []), list):
        raise ConfigError("config: runs must be a list")
    return cfg


def run_suite(config_path: str, out_path: str, admissibility: str = "thm2",
              timings: bool = False) -> int:
    cfg = _load_config(config_path)
    runs = cfg.get("runs", [])
    suite_seed = _num(cfg, "seed", "config", int, 0)

    def execute(i, run):
        t0 = time.perf_counter()
        record = {"index": i, "label": str(run.get("label", "")) if isinstance(run, dict) else "",
                  "theorem_id": run.get("theorem_id") if isinstance(run, dict) else None,
                  "seed": None}
        try:
            if isinstance(run, dict):
                record["seed"] = _num(run, "seed", f"runs[{i}]", int, suite_seed + i)
            report = _run_one(run, i, suite_seed, admissibility)
            record["status"] = "ok"
            record["passed"] = _passes(report)
            record["report"] = report.to_dict()
            record["error"] = None
        except MagHardyError as exc:
            record["status"] = "error"
            record["passed"] = False
            record["report"] = None
            record["error"] = {"type": type(exc).__name__, "message": str(exc)}
        record["wall_clock_s"] = time.perf_counter() - t0 if timings else None
        return record

    records = [execute(i, run) for i, run in enumerate(runs)]

    n_pass = sum(1 for r in records if r["passed"])
    n_err = sum(1 for r in records if r["status"] == "error")
    out = {
        "version": REPORT_VERSION,
        "tool": {"name": "maghardy", "version": __version__},
        "suite": str(cfg.get("suite", "")),
        "seed": suite_seed,
        "runs": jsonable(records),
        "summary": {"n_runs": len(records), "n_passed": n_pass,
                    "n_failed": len(records) - n_pass, "n_errors": n_err},
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0 if n_pass == len(records) else 1


def sweep_sharpness(config_path: str, out_dir: str) -> int:
    cfg = _load_config(config_path)
    runs = cfg.get("runs", [])
    suite_seed = _num(cfg, "seed", "config", int, 0)
    os.makedirs(out_dir, exist_ok=True)
    results, failures = [], 0
    for i, run in enumerate(runs):
        where = f"runs[{i}]"
        if not isinstance(run, dict) or "family" not in run:
            raise ConfigError(f"{where}: sweep runs need a trial family")
        tid = str(run.get("theorem_id", ""))
        if tid not in _FAMILY_FOR:
            raise ConfigError(f"{where}: {tid!r} has no sharpness engine")
        try:
            res = _run_one(run, i, suite_seed, "thm2")
        except MagHardyError as exc:
            results.append({"index": i, "theorem_id": tid, "status": "error",
                            "error": {"type": type(exc).__name__,
                                      "message": str(exc)}})
            failures += 1
            continue
        path = os.path.join(out_dir, f"{tid}_{i}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["theorem_id", "epsilon", "quotient",
                             "sharp_constant", "gap"])
            for eps, q in res.schedule:
                gap = (q - res.sharp_constant) / res.sharp_constant \
                    if res.sharp_constant != 0.0 else float("inf")
                writer.writerow([tid, repr(float(eps)), repr(float(q)),
                                 repr(float(res.sharp_constant)),
                                 repr(float(gap))])
        results.append({"index": i, "theorem_id": tid, "status": "ok",
                        "csv": os.path.basename(path),
                        "result": res.to_dict()})
    combined = {
        "version": SWEEP_VERSION,
        "tool": {"name": "maghardy", "version": __version__},
        "seed": suite_seed,
        "results": jsonable(results),
    }
    with open(os.path.join(out_dir, "sweep.json"), "w", encoding="utf-8") as fh:
        json.dump(combined, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
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

    args = parser.parse_args(argv)
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
