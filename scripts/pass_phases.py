#!/usr/bin/env python3
"""Split one benchmark pass of `maghardy verify` into its phases.

usage: PYTHONPATH=src python3 scripts/pass_phases.py --workload sharpness --seed 5
       PYTHONPATH=src python3 scripts/pass_phases.py --workload margins --passes 10

Run from the root of a source checkout.  The suite config of each pass comes
from perfbench/workloads.py (pass i takes seed 1000 * --seed + i, as the
benchmark's timed passes do); the script reads that file and edits nothing.
As in perfbench/worker.py, each pass's config is written to one path before
the pass, and every pass goes through
`maghardy.cli.main(["verify", ..., "--timings"])` with the same arguments,
its report overwriting one file.  The passes run once untimed as a warm-up,
then --passes times each unwrapped and again with the functions below
wrapped for the duration of the pass:

  config load        cli._load_config
  run reading        cli._run_one, less its engine call
  engine bookkeeping the engine call (estimate_sharpness, or a record's
                     verify), less its kernels
  engine kernels     the sharpness windows (_gauss_window, _plain_window:
                     panel rules and window values), quotients
                     (_power_quotient, _log_quotient), the shared gauss
                     windows of one-chunk schedules (_shared_gauss_window,
                     whose misses run a window) and the integration calls
                     (integrate_polar, integrate_radial, oracle_integrate);
                     a kernel called inside another counts once
  report write       cli._write_json
  suite bookkeeping  the rest of cli.main: argument parsing, the run
                     records and the summary

It prints the median milliseconds per pass of each phase and its share of
the wrapped pass, beside the median of as many unwrapped passes, so the
wrappers' own cost shows as the difference of the two totals.  Each time is
scaled by the yardstick of perfbench/calib.py, timed around its pass, so it
reads at the benchmark's reference machine speed as perfbench's times do.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import calib  # noqa: E402
import workloads  # noqa: E402

from maghardy import cli, quadrature  # noqa: E402
from maghardy.verifiers import sharpness  # noqa: E402

PHASES = ("config load", "run reading", "engine bookkeeping", "engine kernels",
          "report write", "suite bookkeeping")
KERNELS = ((sharpness, "_gauss_window"), (sharpness, "_plain_window"),
           (sharpness, "_power_quotient"), (sharpness, "_log_quotient"),
           (sharpness, "_shared_gauss_window"),
           (quadrature, "integrate_polar"), (quadrature, "integrate_radial"),
           (quadrature, "oracle_integrate"))


class Phases:
    """Inclusive seconds of each wrapped function, and the patches that time them."""

    def __init__(self):
        self.seconds = dict.fromkeys(("load", "run", "engine", "kernel", "write", "main"), 0.0)
        self._open = dict.fromkeys(self.seconds, 0)   # calls under way per key
        self._patches = []   # (owner, attribute, original)

    def _timed(self, key, fn):
        seconds, open_ = self.seconds, self._open

        def timed(*args, **kwargs):
            if open_[key]:   # inside a call timed under the same key
                return fn(*args, **kwargs)
            open_[key] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[key] += time.perf_counter() - t0
                open_[key] -= 1
        return timed

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        for attr, key in (("_load_config", "load"), ("_run_one", "run"),
                          ("estimate_sharpness", "engine"), ("_write_json", "write"),
                          ("main", "main")):
            self._set(cli, attr, self._timed(key, getattr(cli, attr)))
        checks = dict(cli.CHECKS)
        self._set(cli, "CHECKS", {tid: check._replace(verify=self._timed("engine", check.verify))
                                  for tid, check in checks.items()})
        # a kernel is looked up wherever a module imported it by name
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "maghardy" or name.startswith("maghardy."))]
        for owner, attr in KERNELS:
            fn = getattr(owner, attr)
            wrapped = self._timed("kernel", fn)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, name, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def split(self, scale: float) -> dict:
        """Exclusive seconds of each phase, in PHASES order, times scale."""
        s = self.seconds
        return {name: scale * seconds for name, seconds in zip(PHASES, (
            s["load"], s["run"] - s["engine"], s["engine"] - s["kernel"], s["kernel"],
            s["write"], s["main"] - s["load"] - s["run"] - s["write"]))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, default="sharpness")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=30)
    args = ap.parse_args(argv)

    configs = [json.dumps(workloads.CONFIGS[args.workload](1000 * args.seed + i, i))
               for i in range(args.passes)]
    with tempfile.TemporaryDirectory() as work:
        path, out = Path(work) / "config.json", str(Path(work) / "report.json")
        argv = ["verify", "--config", str(path), "--out", out, "--timings"]

        def run(config):
            """The seconds of one pass and the yardstick's scale around it."""
            path.write_text(config)
            before = calib.sample()
            t0 = time.perf_counter()
            cli.main(argv)
            seconds = time.perf_counter() - t0
            scale = calib.factor(before, calib.sample())
            return scale * seconds, scale

        for config in configs:
            run(config)   # warm-up: first calls, rule caches, file system
        plain, wrapped, splits = [], [], []
        for config in configs:
            plain.append(run(config)[0])
            phases = Phases()
            phases.install()
            try:
                seconds, scale = run(config)
            finally:
                phases.uninstall()
            wrapped.append(seconds)
            splits.append(phases.split(scale))

    total = statistics.median(wrapped)
    print(f"{args.workload} seed {args.seed}: {args.passes} passes, median "
          f"ms per pass at the reference speed (share of the wrapped pass)")
    for name in PHASES:
        ms = 1e3 * statistics.median(s[name] for s in splits)
        print(f"  {name:20s} {ms:8.3f}  ({100.0 * ms / (1e3 * total):4.1f} %)")
    print(f"  {'wrapped pass':20s} {1e3 * total:8.3f}")
    print(f"  {'unwrapped pass':20s} {1e3 * statistics.median(plain):8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
