"""One constant per statement: every report's sharp_constant is its record's.

The verifiers and the sharpness engines take their constants from the
catalogue record of their theorem id, so the verifier, the engine and
record.constant must agree wherever a statement is read the same way.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from maghardy import quadrature
from maghardy.cli import _FIELDS, _read, _run_one
from maghardy.verifiers import FAMILY_FOR
from maghardy.verifiers.catalogue import CHECKS

REPO = Path(__file__).resolve().parents[1]
_SUITE = json.loads((REPO / "scripts" / "default_suite.json").read_text())["runs"]
_SWEEP = json.loads((REPO / "scripts" / "sharpness_sweep.json").read_text())["runs"]

_QUICK = {"n_r": 8, "n_phi": 8, "n_y": 4}
_GRUSHIN_BUMP = {"kind": "bump", "r_lo": 0.5, "r_hi": 2.0, "y_box": [[-1.0, 1.0]]}
_DISC_BUMP = {"kind": "bump", "r_lo": 0.3, "r_hi": 0.9}

_MARGIN_RUNS = [run for run in _SUITE
                if "family" not in run and CHECKS[run["theorem_id"]].formula is not None]
_VERIFY_RUNS = [run for run in _SUITE if "family" not in run]


def _values(run, keys):
    """The values _run_one reads for keys."""
    return [_read(run, key, "run", _FIELDS[key]) for key in keys]


@pytest.mark.parametrize("run", _MARGIN_RUNS, ids=[run["theorem_id"] for run in _MARGIN_RUNS])
def test_every_margin_run_reports_its_records_constant(run):
    record = CHECKS[run["theorem_id"]]
    report = _run_one(run, 0, 0)
    assert report.sharp_constant == record.constant(*_values(run, record.keys))


def test_the_default_suite_covers_every_margin_id():
    margin = {tid for tid, check in CHECKS.items() if check.formula is not None}
    assert len(_MARGIN_RUNS) == 17 and {run["theorem_id"] for run in _MARGIN_RUNS} == margin
    assert {run["theorem_id"] for run in _VERIFY_RUNS} == set(CHECKS)   # and 3 identities


def _verify_run(engine_run):
    """The verify run on an engine run's statement values, on a quick bump."""
    run = {key: value for key, value in engine_run.items()
           if key not in ("label", "family", "schedule", "window")}
    bump = _GRUSHIN_BUMP if "geometry" in run else _DISC_BUMP
    return {**run, "function": bump, "quadrature": _QUICK}


def _sweep_run(tid, **values):
    """The last shipped sweep run of tid, with values in place of its own."""
    run = [run for run in _SWEEP if run["theorem_id"] == tid][-1]
    return {**run, **values}


_SUPERWEIGHT_C_QUARTER = {"a": 1.0, "b": 1.0, "theta2": -2.0, "theta3": 1.0, "theta4": -1.25}

# the shipped sweep point of each engine id, and one more point
_ENGINE_POINTS = {
    **{f"{tid} shipped": _sweep_run(tid) for tid in FAMILY_FOR},
    "radial_hardy m = 3": _sweep_run(
        "radial_hardy", geometry={"m": 3, "k": 1, "gamma": 0.5},
        weights={"alpha1": 0.3, "alpha2": -0.2}),
    "magnetic_grushin beta = -1.3": _sweep_run(
        "magnetic_grushin", weights={"alpha1": 0.4, "alpha2": 0.1}, flux={"beta": -1.3}),
    "landau_hardy_sobolev theta1 = -0.7": _sweep_run("landau_hardy_sobolev", theta1=-0.7),
    "landau_log plain window": _sweep_run("landau_log", window="plain"),
}


@pytest.mark.parametrize("case", sorted(_ENGINE_POINTS))
def test_engine_and_verifier_read_one_constant(case):
    run = _ENGINE_POINTS[case]
    engine = _run_one(run, 0, 0)
    verified = _run_one(_verify_run(run), 0, 0)
    assert engine.sharp_constant == verified.sharp_constant


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: the superweight verifier applies c = (t2*t3 - 2*t4)/2 and the "
    "engine c^2; they agree only where c = 1"))
def test_superweight_engine_and_verifier_agree_off_the_shipped_point():
    # c = 0.25: the verifier applies 0.25, the engine 0.0625
    run = _sweep_run("landau_superweight", superweight=_SUPERWEIGHT_C_QUARTER)
    engine = _run_one(run, 0, 0)
    verified = _run_one(_verify_run(run), 0, 0)
    assert engine.sharp_constant == verified.sharp_constant


@pytest.mark.parametrize("run", _VERIFY_RUNS, ids=[run["theorem_id"] for run in _VERIFY_RUNS])
def test_every_integrand_of_every_check_is_a_real_float_array(monkeypatch, run):
    # the density protocol: each check integrates real quadratic forms, so
    # every integrand its density yields, on every block and at every point
    # (each mode of f on the polar path, the angle 0.0 on the radial-x
    # path), is float64
    seen = []
    tensor_sums = quadrature._tensor_sums

    def checking(density, *args):
        def checked(r, y):
            at = density(r, y)

            def each(x):
                for vals in at(x):
                    assert isinstance(vals, np.ndarray) and vals.dtype == np.float64
                    seen.append(vals.shape)
                    yield vals

            return each

        return tensor_sums(checked, *args)

    monkeypatch.setattr(quadrature, "_tensor_sums", checking)
    small = {**run["quadrature"], "n_r": 16, **({"n_y": 4} if "n_y" in run["quadrature"] else {})}
    report = _run_one({**run, "quadrature": small}, 0, 0)
    sides = (report.rhs,) if hasattr(report, "rhs") else report.rhs_terms.values()
    assert seen and all(isinstance(v, float) for v in (report.lhs, *sides))
