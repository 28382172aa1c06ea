#!/usr/bin/env python3
"""maghardy benchmark: verdicts per second at a stated resolution, checked.

usage: python3 perfbench/run.py --workload {margins,hires,sharpness}
                                --seed N --seconds S --trace {0,1}
       python3 perfbench/run.py --record-reference

Run from the root of a source checkout; maghardy is imported from ./src.
Each invocation

  * runs `verify` on scripts/default_suite.json and `sweep` on
    scripts/sharpness_sweep.json in a fresh process and compares every
    output file with the bytes recorded in perfbench/reference/shipped;
  * times `import maghardy` in SETUP_PROBES fresh interpreters (setup_s);
  * runs the workload in one fresh single-threaded process (worker.py):
    a reference pass checked against perfbench/reference/<workload>.json,
    then a fixed number of seeded timed passes, about --seconds' worth.

Every time metric is read at the reference machine speed: it is scaled by
a yardstick timed around each pass and each set-up probe (calib.py),
because other tenants of a shared host change the machine's speed from
second to second.  The unscaled figures are printed beside them.

It prints every metric by name and unit, an environment record, and last a
JSON line {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics (from an
outside-in traced run, see layertrace.py) with --trace 1.  Full records go
to .bench_out/.  `--record-reference` rewrites the reference outputs from
the checkout's current code.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import calib  # noqa: E402
from timings import pass_timings  # noqa: E402

WORKLOADS = ("margins", "hires", "sharpness")
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _child_env():
    env = dict(os.environ)
    env.pop("MAGHARDY_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args, out_path, work):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--scripts", str(ROOT / "scripts"),
           "--work", str(work), "--out", str(out_path), *args]
    subprocess.run(cmd, env=_child_env(), cwd=ROOT, check=True,
                   timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL)
    return json.loads(out_path.read_text())


def _setup_seconds():
    """Seconds from spawning a fresh interpreter until `import maghardy` returns.

    Each probe prints its own clock reading right after the import (the
    monotonic clock is shared between processes), so interpreter exit and
    the parent's wait are not counted.  Probes of a bare `import numpy`
    alternate with them as the yardstick (calib.py).  Returns (raw, scaled)
    probe times.
    """
    def probe(module):
        code = f"import {module}, time; print(repr(time.perf_counter()))"
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=ROOT,
                             check=True, timeout=60, capture_output=True, text=True)
        return float(out.stdout) - t0

    raw, scaled = [], []
    yardstick = probe("numpy")
    for _ in range(SETUP_PROBES):
        seconds = probe("maghardy")
        after = probe("numpy")
        raw.append(seconds)
        scaled.append(seconds * calib.factor(yardstick, after, calib.IMPORT_REFERENCE_S))
        yardstick = after
    return raw, scaled


def _loadavg():
    with open("/proc/loadavg", encoding="ascii") as fh:
        return fh.read().split()[:3]


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _record_reference(work):
    for wl in WORKLOADS:
        print(_worker(["--workload", wl, "--record"], work / "record.json", work / wl))
    print(_worker(["--shipped", "--record"], work / "record.json", work / "shipped"))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description="maghardy benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "maghardy" / "__init__.py").is_file():
        return _fail(f"no maghardy source under {ROOT / 'src'}; run from a checkout")
    for name in ("default_suite.json", "sharpness_sweep.json"):
        if not (ROOT / "scripts" / name).is_file():
            return _fail(f"missing scripts/{name}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".bench_out"
    work.mkdir(exist_ok=True)
    if args.record_reference:
        return _record_reference(work)
    if args.workload is None:
        return _fail("--workload is required")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shipped = _worker(["--shipped"], work / f"shipped-{tag}.json", work / "shipped")
    setup_raw, setup = _setup_seconds()
    load_before = _loadavg()
    res = _worker(["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)],
                  work / f"worker-{tag}.json", work / args.workload)
    load_after = _loadavg()

    plain = [p for p in res["passes"] if not p["traced"]]
    timings = pass_timings(plain)
    unscaled = pass_timings(plain, scaled=False)
    unscaled["setup_s"] = statistics.median(setup_raw)
    scales = [p["scale"] for p in plain]
    end_to_end = {
        "cases_per_s": timings["cases_per_s"],
        "case_p50_ms": timings["case_p50_ms"],
        "case_p90_ms": timings["case_p90_ms"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": res["peak_rss_mb"],
        "fail_frac": res["failed"] / res["attempted"],
        "max_rel_drift": res["max_rel_drift"],
    }
    checks = {
        "workload_reference": not res["drift_out_of_tolerance"],
        "shipped_reference": not shipped["drift_out_of_tolerance"],
        "passes_well_formed": not res["malformed_passes"],
        "single_threaded": res["os_threads"] == 1 and res["python_threads"] == 1,
    }
    if args.trace:
        checks["layer_sum"] = abs(res["layers"]["trace.layer_sum_frac"] - 1.0) < 1e-6
    env = {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "MAGHARDY_THREADS": os.environ.get("MAGHARDY_THREADS"),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
    }

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(fail_frac="fraction", max_rel_drift="relative")
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {len(plain)} untraced passes, "
          f"{timings['samples']} timed entries, {len(setup)} setup probes")
    for name, value in end_to_end.items():
        raw = f"   (unscaled {unscaled[name]:.6g})" if name in unscaled else ""
        print(f"  {name:16s} {value:.6g} {units[name]}{raw}")
    print(f"  calibration scale: median {statistics.median(scales):.4g}, "
          f"range {min(scales):.4g}-{max(scales):.4g} over {len(scales)} passes")
    differing = shipped["differing"]
    print(f"  shipped outputs: {len(shipped['files']) - len(differing)}/"
          f"{len(shipped['files'])} files byte-identical"
          + (f", differing {differing}, max_rel_drift {shipped['max_rel_drift']:.3g}"
             if differing else ""))
    if res["failures_by_id"]:
        print(f"  failed entries by id: {res['failures_by_id']}")
    for name, ok in checks.items():
        if not ok:
            print(f"  CHECK FAILED: {name}")
    if args.trace:
        for name, value in sorted(res["layers"].items()):
            print(f"  {name:28s} {value:.6g}")
    print("env " + json.dumps(env, sort_keys=True))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = res["layers"] if args.trace else end_to_end
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": all(checks.values()), "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    record = {"args": vars(args), "result": result, "end_to_end": end_to_end,
              "unscaled": unscaled, "checks": checks, "env": env,
              "setup_probes_s": setup, "setup_probes_unscaled_s": setup_raw,
              "shipped": shipped, "worker": res}
    (work / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
