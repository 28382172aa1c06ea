#!/usr/bin/env python3
"""Compare the report bytes of a base revision and of the working tree.

usage: python3 scripts/drift_table.py
       python3 scripts/drift_table.py --base HEAD~1 --margins 10 --sharpness 10 --hires 0

Run from the root of a git checkout.  The script exports the base
revision's src/ (default HEAD) with `git archive` into a temporary
directory and runs the same configs through it and through the checkout's
own src/, each tree in one subprocess of its own:

  * the shipped configs: `maghardy verify` on scripts/default_suite.json
    and `maghardy sweep` on scripts/sharpness_sweep.json;
  * for each workload of perfbench/workloads.py, --<workload> configs
    through `maghardy verify`, config i taking seed 1000 * --seed + i and
    pass index i, as scripts/pass_phases.py and the benchmark's timed passes
    do.  The script reads that file and edits nothing.

It prints how many output files are byte-identical, then, per
(theorem_id, field) that moved, the largest relative drift
|a - b| / max(|a|, |b|), the largest absolute drift |a - b| (the scale of a
field that is itself a roundoff, such as an identity's rel_err) and in how
many runs it moved.  The leaves both sides have are compared, list items by
position; in the table list positions are written [*], so a sweep's
schedule is one field.  A field that only one side has is printed as added
or removed, with the runs it is in.  A missing file, a removed field or a
non-numeric difference is a problem: it is printed apart and makes the
exit status 1.  The subprocesses inherit the environment, so numpy's SIMD
dispatch can be pinned as for the shipped bytes, e.g. with
NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4 X86_V3".
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

# the CLI calls of one tree, run in a fresh interpreter; a failing margin
# exits 1, which is a result here, not an error
_RUN = """\
import json, sys
from maghardy.cli import main
for argv in json.loads(sys.argv[1]):
    main(argv)
"""
DEFAULT_COUNTS = {"margins": 40, "sharpness": 40, "hires": 6}


def _export(rev: str, dest: Path) -> Path:
    """src/ of rev, from git archive, under dest; returns dest / "src"."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(dest, **safe)
    return dest / "src"


def _jobs(configs: Path, out: Path) -> list:
    """The CLI argument lists of one tree, writing under out."""
    jobs = [["verify", "--config", str(ROOT / "scripts" / "default_suite.json"),
             "--out", str(out / "default_suite.report.json")],
            ["sweep", "--config", str(ROOT / "scripts" / "sharpness_sweep.json"),
             "--out-dir", str(out / "sweep")]]
    for path in sorted(configs.iterdir()):
        jobs.append(["verify", "--config", str(path),
                     "--out", str(out / f"{path.stem}.report.json")])
    return jobs


def _run_tree(src: Path, configs: Path, out: Path) -> None:
    (out / "sweep").mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", _RUN, json.dumps(_jobs(configs, out))],
                   cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)


def _leaves(node, path=(), out=None) -> dict:
    """{path: value} of every leaf of a JSON value; a path is the tuple of
    its keys and list positions."""
    out = {} if out is None else out
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            _leaves(value, (*path, key), out)
    else:
        out[path] = node
    return out


def _field(path: tuple) -> str:
    """The field of a leaf: its keys joined by dots, list positions as [*]."""
    text = ""
    for key in path:
        text += "[*]" if isinstance(key, int) else f".{key}" if text else key
    return text


def _records(path: Path):
    """(theorem_id, record) of each run of a report, sweep or CSV file."""
    if path.suffix == ".csv":
        with path.open(newline="") as fh:
            for row in csv.DictReader(fh):
                yield row["theorem_id"], {k: _number(v) for k, v in row.items()}
        return
    data = json.loads(path.read_text())
    for run in data.pop("runs", None) or data.pop("results", None) or []:
        yield run.get("theorem_id", "-"), run
    yield "-", data   # the suite's own fields: summary, seed, tool


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare(base: Path, head: Path):
    """(files, identical, drift, only, problems): drift maps (theorem_id, field)
    to [largest relative drift, largest absolute drift, runs moved]; only maps
    (theorem_id, field, "added" or "removed") to the runs it is in; problems
    lists what is not a numeric drift, a removed field included."""
    names = sorted({p.relative_to(base) for p in base.rglob("*") if p.is_file()}
                   | {p.relative_to(head) for p in head.rglob("*") if p.is_file()})
    identical, drift, only, problems = 0, {}, {}, []
    for name in names:
        a, b = base / name, head / name
        if not (a.is_file() and b.is_file()):
            problems.append(f"{name}: only in {'base' if a.is_file() else 'head'}")
            continue
        if a.read_bytes() == b.read_bytes():
            identical += 1
            continue
        runs_a, runs_b = list(_records(a)), list(_records(b))
        if [t for t, _ in runs_a] != [t for t, _ in runs_b]:
            problems.append(f"{name}: the runs differ")
            continue
        for (tid, ra), (_, rb) in zip(runs_a, runs_b):
            la, lb = _leaves(ra), _leaves(rb)
            for side, paths in (("removed", [p for p in la if p not in lb]),
                                ("added", [p for p in lb if p not in la])):
                for field in dict.fromkeys(map(_field, paths)):
                    only[tid, field, side] = only.get((tid, field, side), 0) + 1
                    if side == "removed":
                        problems.append(f"{name}: {tid} {field} removed")
            moved = {}
            for path, va in la.items():
                if path not in lb:
                    continue
                field, vb = _field(path), lb[path]
                if va == vb or (_is_number(va) and _is_number(vb)
                                and math.isnan(va) and math.isnan(vb)):
                    continue
                if not (_is_number(va) and _is_number(vb)
                        and math.isfinite(va) and math.isfinite(vb)):
                    problems.append(f"{name}: {tid} {field}: {va!r} -> {vb!r}")
                    continue
                rel, dif = moved.get(field, (0.0, 0.0))
                d = abs(va - vb)
                moved[field] = max(rel, d / max(abs(va), abs(vb))), max(dif, d)
            for field, (rel, dif) in moved.items():
                entry = drift.setdefault((tid, field), [0.0, 0.0, 0])
                entry[:] = max(entry[0], rel), max(entry[1], dif), entry[2] + 1
    return len(names), identical, drift, only, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD", help="git revision to compare against")
    ap.add_argument("--seed", type=int, default=1)
    for name in workloads.WORKLOADS:
        ap.add_argument(f"--{name}", type=int, default=DEFAULT_COUNTS.get(name, 0),
                        metavar="N", help=f"{name} configs (default %(default)s)")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        configs = work / "configs"
        configs.mkdir()
        for name in workloads.WORKLOADS:
            for i in range(getattr(args, name)):
                config = workloads.CONFIGS[name](1000 * args.seed + i, i)
                (configs / f"{name}_{i:03d}.json").write_text(json.dumps(config))
        base_src = _export(args.base, work / "base")
        _run_tree(base_src, configs, work / "out_base")
        _run_tree(ROOT / "src", configs, work / "out_head")
        files, identical, drift, only, problems = compare(work / "out_base",
                                                          work / "out_head")

    print(f"{identical} of {files} files byte-identical ({args.base} -> working tree)")
    if drift:
        width = max(len(f"{tid} {field}") for tid, field in drift)
        print(f"{'theorem_id field':<{width}}  max rel drift  max abs drift  runs moved")
        for (tid, field), (rel, dif, runs) in sorted(drift.items()):
            print(f"{tid + ' ' + field:<{width}}  {rel:13.3e}  {dif:13.3e}  {runs:10d}")
    for (tid, field, side), runs in sorted(only.items()):
        print(f"{side} field: {tid} {field} ({runs} runs)")
    for line in problems:
        print(f"not a numeric drift: {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
