"""One benchmark workload in one fresh, single-threaded process.

Started by run.py with maghardy's `src` first on PYTHONPATH and
MAGHARDY_THREADS unset; writes a JSON record to --out.  Every pass goes
through the public entry point `maghardy.cli.main(["verify", ...,
"--timings"])` on a config generated from a seed.

  1. A reference pass at REFERENCE_SEED is compared field by field with the
     report recorded in reference/<workload>.json (max_rel_drift).
  2. workloads.pass_count(--workload, --seconds) timed passes follow; pass
     i uses seed 1000 * --seed + i, so no pass repeats an input another pass
     has seen, and a seed fixes every input of the run.  The calibration
     kernel (calib.py) is timed before the first pass and after each pass;
     each pass records the scale factor of its interval.  With --trace 1,
     untraced and traced passes alternate, and passes 2j and 2j+1 take pass
     index j for their stratified draws, so the tracing overhead compares
     like with like.

`--shipped` instead runs `verify` on scripts/default_suite.json and `sweep`
on scripts/sharpness_sweep.json and compares the outputs with the recorded
bytes.  `--record` writes the references instead of comparing.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
# The reference pass is pass index 0, whose margins draw holds a k=2 ab_hardy
# case with three modes, the workload's largest case in memory, so
# peak_rss_mb measures that case in every run.
REFERENCE_SEED = 42

# A numeric field agrees with its reference when it is within this relative
# distance, or within ABS_FLOOR absolutely (fields that are pure roundoff,
# such as an identity's rel_err near 1e-16, have no stable relative digits).
REL_TOL = 1e-9
ABS_FLOOR = 1e-12

sys.path.insert(0, str(HERE))
import calib  # noqa: E402
import layertrace  # noqa: E402
from timings import pass_timings  # noqa: E402
import workloads  # noqa: E402


def strip_timings(obj):
    if isinstance(obj, dict):
        return {k: strip_timings(v) for k, v in obj.items() if k != "wall_clock_s"}
    if isinstance(obj, list):
        return [strip_timings(v) for v in obj]
    return obj


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(ref, new, path="$"):
    """(max relative drift, worst path, fields out of tolerance) of new vs ref.

    Keys present in the reference must be present in new; keys new adds are
    ignored, so an additive report field does not count as drift.
    """
    worst, where, bad = 0.0, None, []

    def visit(a, b, p):
        nonlocal worst, where
        if isinstance(a, dict) and isinstance(b, dict):
            for k, v in a.items():
                if k not in b:
                    note(math.inf, p + "." + k)
                else:
                    visit(v, b[k], p + "." + k)
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                note(math.inf, p + ".length")
            for i, (x, y) in enumerate(zip(a, b)):
                visit(x, y, f"{p}[{i}]")
        elif _is_number(a) and _is_number(b):
            if a == b or (math.isnan(a) and math.isnan(b)):
                return
            diff = abs(a - b)
            rel = diff / max(abs(a), abs(b)) if math.isfinite(diff) else math.inf
            if rel > worst:
                worst, where = rel, p
            if not (rel <= REL_TOL or diff <= ABS_FLOOR):
                bad.append(p)
        elif a != b:
            note(math.inf, p)

    def note(rel, p):
        nonlocal worst, where
        if rel > worst:
            worst, where = rel, p
        bad.append(p)

    visit(ref, new, path)
    return worst, where, bad


def _verify(cli, config_path, out_path, with_timings=True):
    argv = ["verify", "--config", str(config_path), "--out", str(out_path)]
    if with_timings:
        argv.append("--timings")
    t0 = time.perf_counter()
    rc = cli.main(argv)
    return rc, time.perf_counter() - t0


def _os_threads():
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def run_workload(args, work):
    import numpy
    from maghardy import cli

    make = workloads.CONFIGS[args.workload]
    ref_path = REFERENCE_DIR / f"{args.workload}.json"

    # reference pass (also the warm-up: imports and first-call set-up)
    cfg_path, out_path = work / "config.json", work / "report.json"
    cfg_path.write_text(json.dumps(make(REFERENCE_SEED, 0)))
    _verify(cli, cfg_path, out_path)
    report = strip_timings(json.loads(out_path.read_text()))
    if args.record:
        REFERENCE_DIR.mkdir(exist_ok=True)
        ref_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
        return {"recorded": str(ref_path.relative_to(HERE))}
    drift, where, bad = compare(json.loads(ref_path.read_text()), report)

    tracer = None
    if args.trace:
        tracer = layertrace.Tracer()

    base = 1000 * args.seed
    passes = []
    attempted = failed = 0
    malformed = []
    failures = {}
    cal = calib.sample()
    for i in range(workloads.pass_count(args.workload, args.seconds)):
        traced = bool(tracer) and i % 2 == 1
        seed = base + i
        # traced passes pair with the untraced pass before them on the same
        # stratum, so both sets hold the same heavy draws
        cfg = make(seed, i // 2 if tracer else i)
        cfg_path.write_text(json.dumps(cfg))
        if traced:
            with tracer.active():
                rc, seconds = _verify(cli, cfg_path, out_path)
        else:
            rc, seconds = _verify(cli, cfg_path, out_path)
        report = json.loads(out_path.read_text())
        runs = report.get("runs", [])
        if len(runs) != len(cfg["runs"]) or rc not in (0, 1):
            malformed.append(seed)
        for run in runs:
            attempted += 1
            if run["status"] == "error" or not run["passed"]:
                failed += 1
                failures[run["theorem_id"]] = failures.get(run["theorem_id"], 0) + 1
        cal_after = calib.sample()
        passes.append({"seed": seed, "seconds": seconds, "traced": traced,
                       "latencies_s": [run["wall_clock_s"] for run in runs],
                       "report_bytes": out_path.stat().st_size,
                       "calib_s": [cal, cal_after],
                       "scale": calib.factor(cal, cal_after)})
        cal = cal_after

    out = {
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "failures_by_id": failures,
        "malformed_passes": malformed,
        "max_rel_drift": drift,
        "drift_worst_field": where,
        "drift_out_of_tolerance": bad[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python_threads": threading.active_count(),
        "os_threads": _os_threads(),
        "numpy": numpy.__version__,
    }
    if tracer:
        n_traced = sum(p["traced"] for p in passes)
        layers = layertrace.layer_metrics(tracer.spans, n_traced)
        traced_bytes = [p["report_bytes"] for p in passes if p["traced"]]
        layers["reports.bytes"] = sum(traced_bytes) / n_traced
        untraced = pass_timings([p for p in passes if not p["traced"]])
        traced = pass_timings([p for p in passes if p["traced"]])
        layers["trace.overhead_frac"] = untraced["cases_per_s"] / traced["cases_per_s"] - 1.0
        out["layers"] = layers
        out["untraced_cases_per_s"] = untraced["cases_per_s"]
        out["traced_cases_per_s"] = traced["cases_per_s"]
        spans_path = work / f"spans-{args.workload}.jsonl"
        tracer.write(spans_path)
        out["spans_file"] = str(spans_path)
    return out


def _tree_files(root):
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


def run_shipped(args, work, scripts):
    """verify + sweep on the shipped configs, compared byte for byte."""
    from maghardy import cli

    out_dir = work / "shipped"
    shutil.rmtree(out_dir, ignore_errors=True)
    (out_dir / "sweep").mkdir(parents=True)
    rc_verify, _ = _verify(cli, scripts / "default_suite.json",
                           out_dir / "default_suite.report.json", with_timings=False)
    rc_sweep = cli.main(["sweep", "--config", str(scripts / "sharpness_sweep.json"),
                         "--out-dir", str(out_dir / "sweep")])
    ref_dir = REFERENCE_DIR / "shipped"
    if args.record:
        shutil.rmtree(ref_dir, ignore_errors=True)
        shutil.copytree(out_dir, ref_dir)
        return {"recorded": _tree_files(ref_dir)}

    files = sorted(set(_tree_files(ref_dir)) | set(_tree_files(out_dir)))
    differing, drift, where, bad = [], 0.0, None, []
    for name in files:
        ref, new = ref_dir / name, out_dir / name
        if not (ref.is_file() and new.is_file()):
            differing.append(name)
            drift, where = math.inf, name
            bad.append(name)
            continue
        if ref.read_bytes() == new.read_bytes():
            continue
        differing.append(name)
        if name.endswith(".json"):
            d, w, b = compare(json.loads(ref.read_text()), json.loads(new.read_text()),
                              name)
        else:
            d, w, b = compare(_csv_cells(ref), _csv_cells(new), name)
        if d >= drift:
            drift, where = d, w
        bad.extend(b)
    return {"files": files, "differing": differing, "max_rel_drift": drift,
            "drift_worst_field": where, "drift_out_of_tolerance": bad[:20],
            "exit_codes": [rc_verify, rc_sweep]}


def _csv_cells(path):
    cells = []
    for line in path.read_text().splitlines():
        row = []
        for cell in line.split(","):
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell)
        cells.append(row)
    return cells


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--shipped", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="write the reference outputs instead of comparing")
    ap.add_argument("--scripts", type=Path, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    args.work.mkdir(parents=True, exist_ok=True)
    if args.shipped:
        result = run_shipped(args, args.work, args.scripts)
    else:
        result = run_workload(args, args.work)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
