"""Mutation slice: a catalogued constant inflated by 1 % must be caught.

Each case scales one record's constant by 1 + DELTA through monkeypatch, so
the verifier and the sharpness engine both read the inflated value.  A
catcher is a run that passes on the true constant and fails on the inflated
one.  Today only the 5 sharpness engines catch a 1 % inflation: their
shipped sweep runs end within 1e-3 of their constants.  The other margin
ids have no catcher yet; the Rayleigh-Ritz trials of ROADMAP item 3 and the
rest of item 11 are to give them one.
"""

import json
from pathlib import Path

import pytest

from maghardy.cli import _run_one, main
from maghardy.verifiers import FAMILY_FOR
from maghardy.verifiers.catalogue import CHECKS

REPO = Path(__file__).resolve().parents[1]
DELTA = 1e-2

_SWEEP = json.loads((REPO / "scripts" / "sharpness_sweep.json").read_text())["runs"]
_SUITE = json.loads((REPO / "scripts" / "default_suite.json").read_text())["runs"]

# margin ids whose 1 % inflation no run of this repository catches yet
_NO_CATCHER = (
    "ab_hardy", "uncertainty_grushin", "uncertainty_ab", "landau_poincare",
    "radial_p_weighted", "radial_p_log", "radial_p_poincare", "radial_p_superweight",
    "real_landau_hardy", "real_landau_critical", "real_landau_uncertainty",
    "constant_field",
)


def _inflate(monkeypatch, tid):
    record = CHECKS[tid]
    monkeypatch.setitem(CHECKS, tid, record._replace(
        constant=lambda *values: (1.0 + DELTA) * record.constant(*values)))


def _run(run, index=0):
    return _run_one(run, index, index)


def test_every_margin_id_has_a_catcher_or_is_listed_without_one():
    margin = {tid for tid, check in CHECKS.items() if check.formula is not None}
    assert len(margin) == 17 and len(_NO_CATCHER) == 12
    assert set(FAMILY_FOR) | set(_NO_CATCHER) == margin
    assert not set(FAMILY_FOR) & set(_NO_CATCHER)


@pytest.mark.parametrize("tid", sorted(FAMILY_FOR))
def test_an_inflated_constant_fails_its_shipped_sweep(monkeypatch, tid):
    runs = [(i, run) for i, run in enumerate(_SWEEP) if run["theorem_id"] == tid]
    [suite_run] = [run for run in _SUITE if run["theorem_id"] == tid and "family" not in run]
    assert runs
    true = [_run(run, i) for i, run in runs]
    assert all(res.passed() for res in true)
    verified = _run(suite_run)
    _inflate(monkeypatch, tid)
    assert not any(_run(run, i).passed() for i, run in runs)
    # the verifier reads the same record: its reported constant moves by 1 + DELTA
    assert _run(suite_run).sharp_constant == (1.0 + DELTA) * verified.sharp_constant


def test_an_inflated_constant_fails_the_sweep_command(monkeypatch, tmp_path):
    # sweep takes each run's verdict from the record verify writes, so the
    # inflated radial_hardy run records passed false and the command exits 1
    config = str(REPO / "scripts" / "sharpness_sweep.json")

    def sweep(out):
        code = main(["sweep", "--config", config, "--out-dir", str(tmp_path / out)])
        results = json.loads((tmp_path / out / "sweep.json").read_text())["results"]
        assert all(result["status"] == "ok" for result in results)
        return code, {result["theorem_id"]: result["passed"] for result in results}

    assert sweep("true") == (0, dict.fromkeys(FAMILY_FOR, True))
    _inflate(monkeypatch, "radial_hardy")
    assert sweep("inflated") == (1, {**dict.fromkeys(FAMILY_FOR, True), "radial_hardy": False})
