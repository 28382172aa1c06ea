#!/usr/bin/env python3
"""Run the bundled verification suite and print a one-line-per-run digest.

Drives the maghardy CLI in-process: first `verify` on a suite config, then
(optionally) `sweep` on the sharpness schedule config, and summarises the
JSON report on stdout.

Usage:
  python3 scripts/run_demo.py
  python3 scripts/run_demo.py --out-dir /tmp/maghardy_demo --sweep
  python3 scripts/run_demo.py --config scripts/default_suite.json --timings
"""

import argparse
import json
from pathlib import Path

from maghardy import cli

SCRIPTS_DIR = Path(__file__).resolve().parent


def _digest_line(run):
    label = run["label"] or run["theorem_id"]
    rep = run["report"] or {}
    kind = rep.get("kind", "?")
    if run["status"] != "ok":
        detail = f"{run['error']['type']}: {run['error']['message']}"
        return f"ERROR {label:26s} {detail}"
    flag = "pass" if run["passed"] else "FAIL"
    if kind == "identity":
        detail = f"rel_err={rep['rel_err']:.3e}"
    elif kind == "sharpness":
        detail = f"gap={rep['gap']:.3e} (sharp={rep['sharp_constant']:g})"
    else:
        detail = f"margin={rep['margin']:.6g}  ratio={rep['ratio']:.6g}"
    return f"{flag:5s} {label:26s} {kind:10s} {detail}"


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run the bundled verification suite and digest the report")
    parser.add_argument("--config", default=str(SCRIPTS_DIR / "default_suite.json"),
                        help="suite config for `verify` (default: bundled suite)")
    parser.add_argument("--sweep-config",
                        default=str(SCRIPTS_DIR / "sharpness_sweep.json"),
                        help="suite config for `sweep` (used with --sweep)")
    parser.add_argument("--out-dir", default="demo_out",
                        help="where the report JSON / sweep CSVs go")
    parser.add_argument("--sweep", action="store_true",
                        help="also run the sharpness sweep and print the CSVs")
    parser.add_argument("--timings", action="store_true",
                        help="record wall-clock time per run")
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.json"

    verify_argv = ["verify", "--config", args.config, "--out", str(report_path)]
    if args.timings:
        verify_argv.append("--timings")
    rc = cli.main(verify_argv)

    report = json.loads(report_path.read_text())
    print(f"suite {report['suite']!r}  seed {report['seed']}")
    for run in report["runs"]:
        print("  " + _digest_line(run))
    s = report["summary"]
    print(f"{s['n_passed']}/{s['n_runs']} passed, "
          f"{s['n_failed']} failed, {s['n_errors']} errors "
          f"-> {report_path}")

    if args.sweep:
        sweep_dir = out_dir / "sweep"
        rc_sweep = cli.main(["sweep", "--config", args.sweep_config,
                             "--out-dir", str(sweep_dir)])
        rc = rc or rc_sweep
        for csv_path in sorted(sweep_dir.glob("*.csv")):
            rows = csv_path.read_text().strip().splitlines()
            first, last = rows[1].split(","), rows[-1].split(",")
            print(f"sweep {csv_path.name}: gap {float(first[4]):.3e} -> "
                  f"{float(last[4]):.3e} over {len(rows) - 1} epsilons")

    return rc


if __name__ == "__main__":
    raise SystemExit(main())
