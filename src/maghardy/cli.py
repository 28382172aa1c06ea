"""Suite runner for the inequality checks.

usage: maghardy verify --config suite.json --out report.json [--admissibility thm2|corollary] [--timings]
       maghardy sweep  --config sweep.json --out-dir results/
       maghardy list

A suite config is a JSON object {"suite": name, "seed": int, "runs": [...]}.
Each run names a theorem_id plus whatever that check needs (geometry,
weights, flux, psi, variant numbers, a function spec, quadrature).  A run
carrying a "family" block is a sharpness run.  Example run:

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

import numpy as np

from . import __version__
from .catalog import list_theorems
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

_RUN_KEYS = {
    "theorem_id", "label", "seed", "geometry", "weights", "flux", "psi",
    "kappa", "superweight", "theta1", "theta", "Q", "p", "R", "n", "alpha",
    "potentials", "domain", "function", "quadrature", "admissibility",
    "family", "schedule", "window",
}

# theorem ids whose runs need a "geometry" block
_GRUSHIN_IDS = {
    "radial_hardy", "grushin_ibp", "magnetic_grushin", "ab_hardy",
    "uncertainty_grushin", "uncertainty_ab", "constant_field",
}

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
    """value as a finite float (an int for kind=int); ConfigError naming field."""
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


def _numbers(value, field: str, kind=float, length=None):
    """A list of finite numbers through _number, of the given length if set."""
    if not (isinstance(value, (list, tuple)) and length in (None, len(value))):
        size = "a list" if length is None else f"a list of {length}"
        raise ConfigError(f"{field}: expected {size} numbers, got {value!r}")
    return tuple(_number(v, f"{field}[{j}]", kind) for j, v in enumerate(value))


def _parse_geometry(obj, where) -> GrushinGeometry:
    _check_keys(obj, {"m", "k", "gamma"}, where)
    return GrushinGeometry(_num(obj, "m", where, int), _num(obj, "k", where, int),
                           _num(obj, "gamma", where))


def _parse_weights(obj, where) -> WeightExponents:
    if obj is None:
        return WeightExponents(0.0, 0.0)
    _check_keys(obj, {"alpha1", "alpha2"}, where)
    return WeightExponents(_num(obj, "alpha1", where, default=0.0),
                           _num(obj, "alpha2", where, default=0.0))


def _parse_flux(obj, where) -> FluxParam:
    if obj is None:
        return FluxParam(0.0)
    _check_keys(obj, {"beta"}, where)
    return FluxParam(_num(obj, "beta", where, default=0.0))


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


def _parse_superweight(obj, where) -> SuperweightParams:
    _check_keys(obj, {"a", "b", "theta2", "theta3", "theta4", "p", "theta1"},
                where)
    return SuperweightParams(
        a=_num(obj, "a", where), b=_num(obj, "b", where),
        theta2=_num(obj, "theta2", where), theta3=_num(obj, "theta3", where),
        theta4=_num(obj, "theta4", where), p=_num(obj, "p", where, default=2.0),
        theta1=_num(obj, "theta1", where, default=0.0))


def _parse_quadrature(obj, where) -> QuadratureSpec:
    if obj is None:
        return QuadratureSpec()
    _check_keys(obj, {"n_r", "r_map", "n_phi", "n_y", "oracle"}, where)
    return QuadratureSpec(
        n_r=_num(obj, "n_r", where, int, 256), r_map=obj.get("r_map", "log"),
        n_phi=_num(obj, "n_phi", where, int, 32),
        n_y=_num(obj, "n_y", where, int, 64),
        oracle=bool(obj.get("oracle", False)))


def _parse_domain(obj, where) -> Domain:
    _check_keys(obj, {"kind", "R"}, where)
    R = _num(obj, "R", where)
    kind = obj.get("kind", "ball")
    return Domain(r_lo=R * 1e-9, r_hi=R, y_box=(), kind=kind, R_Omega=R)


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
        rng = np.random.default_rng(seed)
        kwargs = {}
        for name in ("r_lo_range", "ratio_range", "y_half_range"):
            if name in obj:
                kwargs[name] = _numbers(obj[name], f"{where}.{name}", length=2)
        if "gaussian_y" in obj:
            kwargs["gaussian_y"] = bool(obj["gaussian_y"])
        return random_test_function(
            rng, k=_num(obj, "k", where, int, 0),
            modes=_numbers(obj.get("modes", [0]), f"{where}.modes", int),
            real=bool(obj.get("real", False)), **kwargs)
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


def _run_one(run: dict, index: int, suite_seed: int, admissibility_default: str):
    """Execute a single suite entry; returns the report object."""
    where = f"runs[{index}]"
    _check_keys(run, _RUN_KEYS, where)
    tid = str(_need(run, "theorem_id", where))
    seed = _num(run, "seed", where, int, suite_seed + index)
    spec = _parse_quadrature(run.get("quadrature"), f"{where}.quadrature")
    admissibility = run.get("admissibility", admissibility_default)
    if admissibility not in ("thm2", "corollary"):
        raise ConfigError(f"{where}: admissibility must be thm2 or corollary")

    geom = exps = None
    if "geometry" in run:
        geom = _parse_geometry(run["geometry"], f"{where}.geometry")
        exps = _parse_weights(run.get("weights"), f"{where}.weights")
    elif tid in _GRUSHIN_IDS:
        raise ConfigError(f"{where}: {tid} needs geometry")

    if "family" in run:
        family = _parse_family(run["family"], f"{where}.family")
        schedule = run.get("schedule")
        if schedule is not None:
            schedule = _numbers(schedule, f"{where}.schedule")
        window = run.get("window", "gauss")
        if tid in ("radial_hardy", "magnetic_grushin"):
            params = {"geom": geom, "exps": exps}
            if tid == "magnetic_grushin":
                params["flux"] = _parse_flux(run.get("flux"), f"{where}.flux")
        elif tid == "landau_hardy_sobolev":
            params = {"theta1": _num(run, "theta1", where)}
        elif tid == "landau_superweight":
            params = _parse_superweight(_need(run, "superweight", where),
                                        f"{where}.superweight")
        else:
            params = None
        return estimate_sharpness(tid, params, family, schedule, window=window)

    f = _parse_function(_need(run, "function", where), f"{where}.function",
                        seed, geom=geom, exps=exps)

    if tid == "radial_hardy":
        return verify_radial_hardy(geom, exps, f, spec)
    if tid == "magnetic_grushin":
        flux = _parse_flux(run.get("flux"), f"{where}.flux")
        return verify_magnetic_grushin(geom, exps, flux, f, spec)
    if tid == "ab_hardy":
        flux = _parse_flux(run.get("flux"), f"{where}.flux")
        return verify_ab_hardy(geom, exps, flux, f, spec,
                               admissibility=admissibility)
    if tid in ("uncertainty_grushin", "uncertainty_ab"):
        flux = _parse_flux(run.get("flux"), f"{where}.flux")
        variant = "uncer1" if tid == "uncertainty_grushin" else "uncer21"
        return verify_uncertainty_grushin(geom, exps, flux, f, spec,
                                          variant=variant)
    if tid == "constant_field":
        pots_cfg = run.get("potentials", {"kind": "linear", "slope": 0.5})
        _check_keys(pots_cfg, {"kind", "slope"}, f"{where}.potentials")
        if pots_cfg.get("kind", "linear") != "linear":
            raise ConfigError(f"{where}: only linear potentials are configurable")
        pots = ConstantFieldPotentials.linear(
            geom.m, _num(pots_cfg, "slope", f"{where}.potentials", default=0.5))
        return verify_constant_field(geom, exps, pots, f, spec)
    if tid == "grushin_ibp":
        alpha = _num(run, "alpha", where, default=0.7)
        return check_grushin_ibp_identity(geom, exps, f, alpha, spec)
    if tid == "twisted_polar":
        psi = _parse_radial_potential(run.get("psi"), f"{where}.psi")
        kappa = _parse_radial_potential(
            run.get("kappa", {"kind": "constant", "c": 1.0}), f"{where}.kappa")
        return check_twisted_polar_identity(psi, kappa, f, spec)
    if tid.startswith("landau_"):
        variant = tid[len("landau_"):]
        psi = _parse_radial_potential(run.get("psi"), f"{where}.psi")
        params = None
        if variant == "hardy_sobolev":
            if "superweight" in run:
                params = _parse_superweight(run["superweight"],
                                            f"{where}.superweight")
            else:
                params = _num(run, "theta1", where)
        elif variant == "superweight":
            params = _parse_superweight(_need(run, "superweight", where),
                                        f"{where}.superweight")
        domain = None
        if "domain" in run:
            domain = _parse_domain(run["domain"], f"{where}.domain")
        return verify_landau(variant, psi, params, f, spec, domain=domain)
    if tid == "real_landau_identity":
        return verify_real_landau("identity", _num(run, "n", where, int, 1), f, spec)
    if tid.startswith("real_landau_"):
        variant = tid[len("real_landau_"):]
        n = _num(run, "n", where, int, 1)
        Omega = None
        if "domain" in run:
            Omega = _parse_domain(run["domain"], f"{where}.domain")
        R = None if run.get("R") is None else _num(run, "R", where)
        return verify_real_landau(variant, n, f, spec, Omega=Omega, R=R)
    if tid.startswith("radial_p_"):
        variant = tid[len("radial_p_"):]
        Q = _num(run, "Q", where)
        p = _num(run, "p", where)
        if variant == "weighted":
            params = {"theta": _num(run, "theta", where)}
        elif variant == "poincare":
            params = {"R": _num(run, "R", where)} if "R" in run else {}
        elif variant == "superweight":
            params = _parse_superweight(_need(run, "superweight", where),
                                        f"{where}.superweight")
        else:
            params = {}
        return verify_radial_p(variant, Q, p, params, f, spec)
    raise ConfigError(f"{where}: unknown theorem_id {tid!r}")


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


def sweep_sharpness(config_path: str, out_dir: str,
                    admissibility: str = "thm2") -> int:
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
            res = _run_one(run, i, suite_seed, admissibility)
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
    p_sweep.add_argument("--admissibility", choices=("thm2", "corollary"),
                         default="thm2")

    sub.add_parser("list", help="list checkable statements")

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return run_suite(args.config, args.out,
                             admissibility=args.admissibility,
                             timings=args.timings)
        if args.command == "sweep":
            return sweep_sharpness(args.config, args.out_dir,
                                   admissibility=args.admissibility)
        print(list_theorems())
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
