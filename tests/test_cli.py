"""End-to-end checks of the maghardy command line: exit codes, report files,
sweep CSVs, and byte-level reproducibility."""

import csv
import json
from pathlib import Path

import pytest

from maghardy.cli import main

REPO = Path(__file__).resolve().parents[1]
SHIPPED = REPO / "perfbench" / "reference" / "shipped"

GEOM = {"m": 2, "k": 1, "gamma": 1.0}
BUMP = {"kind": "bump", "r_lo": 0.5, "r_hi": 2.0, "y_box": [[-1.0, 1.0]]}
FAST = {"n_r": 64, "n_phi": 8, "n_y": 12}


def _write(path, cfg):
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def _passing_suite():
    return {
        "suite": "smoke",
        "seed": 7,
        "runs": [
            {"theorem_id": "radial_hardy", "geometry": GEOM,
             "weights": {"alpha1": 0.0, "alpha2": 0.0},
             "function": BUMP, "quadrature": FAST},
            {"theorem_id": "magnetic_grushin", "label": "seeded draw",
             "geometry": GEOM, "weights": {"alpha1": 0.5, "alpha2": 0.2},
             "flux": {"beta": 0.5},
             "function": {"kind": "random", "k": 1, "modes": [0, 1],
                          "real": True},
             "quadrature": {"n_r": 64, "n_phi": 12, "n_y": 12}},
            {"theorem_id": "radial_p_log", "Q": 3.0, "p": 2.0,
             "function": {"kind": "bump", "r_lo": 0.5, "r_hi": 2.0,
                          "y_box": []},
             "quadrature": {"n_r": 96}},
            {"theorem_id": "radial_hardy", "geometry": GEOM,
             "weights": {"alpha1": 0.0, "alpha2": 0.0},
             "family": {"base": "rho_power", "epsilon": 0.5,
                        "cutoff": [0.5, 2.0]},
             "schedule": [0.5, 0.2, 0.1]},
        ],
    }


def test_verify_passes_and_report_shape(tmp_path):
    cfg = _write(tmp_path / "suite.json", _passing_suite())
    out = tmp_path / "report.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["version"] == "maghardy-report/1"
    assert rep["summary"] == {"n_runs": 4, "n_passed": 4, "n_failed": 0,
                              "n_errors": 0}
    kinds = [r["report"]["kind"] for r in rep["runs"]]
    assert kinds == ["inequality", "inequality", "inequality", "sharpness"]
    assert rep["runs"][1]["label"] == "seeded draw"
    assert all(r["wall_clock_s"] is None for r in rep["runs"])


def test_verify_is_byte_identical_across_runs(tmp_path):
    cfg = _write(tmp_path / "suite.json", _passing_suite())
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["verify", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def _ab_split_suite():
    # second admissibility condition: fails the default reading, passes the
    # alternative one (gamma = 0.5, alpha2 = -1.5)
    return {
        "suite": "flag",
        "seed": 3,
        "runs": [{
            "theorem_id": "ab_hardy",
            "geometry": {"m": 2, "k": 1, "gamma": 0.5},
            "weights": {"alpha1": 0.0, "alpha2": -1.5},
            "flux": {"beta": 0.5},
            "function": {"kind": "random", "k": 1, "modes": [0, 1]},
            "quadrature": {"n_r": 48, "n_phi": 8, "n_y": 8},
        }],
    }


def test_admissibility_flag_switches_outcome(tmp_path):
    cfg = _write(tmp_path / "flag.json", _ab_split_suite())

    strict = tmp_path / "strict.json"
    assert main(["verify", "--config", cfg, "--out", str(strict)]) == 1
    rec = json.loads(strict.read_text())["runs"][0]
    assert rec["status"] == "error"
    assert rec["error"]["type"] == "AdmissibilityError"

    relaxed = tmp_path / "relaxed.json"
    assert main(["verify", "--config", cfg, "--out", str(relaxed),
                 "--admissibility", "corollary"]) == 0
    rec = json.loads(relaxed.read_text())["runs"][0]
    assert rec["status"] == "ok" and rec["passed"]


def test_run_level_errors_are_recorded_not_raised(tmp_path):
    cfg = _write(tmp_path / "suite.json", {
        "suite": "mixed", "seed": 1,
        "runs": [
            {"theorem_id": "radial_hardy", "geometry": GEOM,
             "weights": {"alpha1": 0.0, "alpha2": 0.0},
             "function": BUMP, "quadrature": FAST},
            {"theorem_id": "radial_hardy", "geometry": GEOM,
             "weights": {"alpha1": -4.0, "alpha2": 0.0},   # Q + a1 - 2 < 0
             "function": BUMP, "quadrature": FAST},
            {"theorem_id": "radial_hardy", "geometry": GEOM,
             "function": BUMP, "frobnicate": 1},           # unknown run key
        ],
    })
    out = tmp_path / "report.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    rep = json.loads(out.read_text())
    assert rep["summary"]["n_passed"] == 1
    assert rep["summary"]["n_errors"] == 2
    types = [r["error"]["type"] for r in rep["runs"] if r["error"]]
    assert types == ["AdmissibilityError", "ConfigError"]


_GOOD_RUN = {"theorem_id": "radial_hardy", "geometry": GEOM,
             "weights": {"alpha1": 0.0, "alpha2": 0.0},
             "function": BUMP, "quadrature": FAST}

_MALFORMED_RUNS = {
    "non-integer m": {**_GOOD_RUN, "geometry": {**GEOM, "m": "x"}},
    "y_box entry not a pair": {**_GOOD_RUN,
                               "function": {**BUMP, "y_box": [[1]]}},
    "grushin run without geometry": {
        k: v for k, v in _GOOD_RUN.items() if k not in ("geometry", "weights")},
    "null theta": {"theorem_id": "radial_p_weighted", "Q": 3.0, "p": 2.0,
                   "theta": None,
                   "function": {"kind": "bump", "r_lo": 0.5, "r_hi": 2.0}},
    "non-finite theta1": {"theorem_id": "landau_hardy_sobolev", "theta1": "nan",
                          "function": {"kind": "random", "k": 0,
                                       "modes": [0, 1]},
                          "quadrature": {"n_r": 64, "n_phi": 12}},
}


@pytest.mark.parametrize("bad", sorted(_MALFORMED_RUNS))
def test_malformed_run_is_recorded_and_the_suite_goes_on(tmp_path, bad):
    cfg = _write(tmp_path / "suite.json", {
        "suite": "malformed", "seed": 0,
        "runs": [_MALFORMED_RUNS[bad], _GOOD_RUN]})
    out = tmp_path / "report.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    first, second = json.loads(out.read_text())["runs"]
    assert first["status"] == "error"
    assert first["error"]["type"] == "ConfigError"
    assert first["error"]["message"].startswith("runs[0]")
    assert second["status"] == "ok" and second["passed"]


def test_shipped_configs_reproduce_the_recorded_bytes(tmp_path):
    assert main(["verify", "--config", str(REPO / "scripts" / "default_suite.json"),
                 "--out", str(tmp_path / "default_suite.report.json")]) == 0
    assert main(["sweep", "--config", str(REPO / "scripts" / "sharpness_sweep.json"),
                 "--out-dir", str(tmp_path / "sweep")]) == 0
    want = sorted(p.relative_to(SHIPPED) for p in SHIPPED.rglob("*") if p.is_file())
    got = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    assert got == want
    for rel in want:
        assert (tmp_path / rel).read_bytes() == (SHIPPED / rel).read_bytes(), rel


def test_config_problems_exit_two(tmp_path, capsys):
    out = str(tmp_path / "r.json")

    rc = main(["verify", "--config", str(tmp_path / "missing.json"),
               "--out", out])
    assert rc == 2
    assert "error:" in capsys.readouterr().err

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["verify", "--config", str(bad_json), "--out", out]) == 2

    unknown_top = _write(tmp_path / "top.json",
                         {"suite": "x", "seed": 0, "runs": [], "extra": 1})
    assert main(["verify", "--config", unknown_top, "--out", out]) == 2



def test_timings_flag_records_wall_clock(tmp_path):
    cfg = _write(tmp_path / "suite.json", {
        "suite": "t", "seed": 0,
        "runs": [{"theorem_id": "radial_hardy", "geometry": GEOM,
                  "weights": {"alpha1": 0.0, "alpha2": 0.0},
                  "function": BUMP, "quadrature": FAST}],
    })
    out = tmp_path / "report.json"
    assert main(["verify", "--config", cfg, "--out", str(out), "--timings"]) == 0
    rec = json.loads(out.read_text())["runs"][0]
    assert isinstance(rec["wall_clock_s"], float) and rec["wall_clock_s"] >= 0.0


def test_sweep_writes_csv_per_run(tmp_path):
    cfg = _write(tmp_path / "sweep.json", {
        "suite": "sweep", "seed": 0,
        "runs": [
            {"theorem_id": "radial_hardy", "geometry": GEOM,
             "weights": {"alpha1": 0.0, "alpha2": 0.0},
             "family": {"base": "rho_power", "epsilon": 0.5,
                        "cutoff": [0.5, 2.0]},
             "schedule": [0.5, 0.2, 0.1]},
            {"theorem_id": "landau_log",
             "family": {"base": "log_power", "epsilon": 0.5,
                        "cutoff": [0.05, 0.9]},
             "schedule": [0.5, 0.2]},
        ],
    })
    out_dir = tmp_path / "results"
    assert main(["sweep", "--config", cfg, "--out-dir", str(out_dir)]) == 0

    first = out_dir / "radial_hardy_0.csv"
    second = out_dir / "landau_log_1.csv"
    assert first.exists() and second.exists()
    assert first.read_text().splitlines()[0] == \
        "theorem_id,epsilon,quotient,sharp_constant,gap"

    with open(first, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["epsilon"]) for r in rows] == [0.5, 0.2, 0.1]
    for row in rows:
        q = float(row["quotient"])
        sharp = float(row["sharp_constant"])
        assert row["theorem_id"] == "radial_hardy"
        assert sharp == 1.0
        assert float(row["gap"]) == pytest.approx((q - sharp) / sharp)

    combined = json.loads((out_dir / "sweep.json").read_text())
    assert combined["version"] == "maghardy-sweep/1"
    assert [r["csv"] for r in combined["results"]] == \
        ["radial_hardy_0.csv", "landau_log_1.csv"]


def test_sweep_rejects_runs_without_a_family(tmp_path, capsys):
    cfg = _write(tmp_path / "sweep.json", {
        "suite": "s", "seed": 0,
        "runs": [{"theorem_id": "radial_hardy", "geometry": GEOM,
                  "weights": {"alpha1": 0.0, "alpha2": 0.0},
                  "function": BUMP}],
    })
    assert main(["sweep", "--config", cfg, "--out-dir",
                 str(tmp_path / "out")]) == 2
    assert "trial family" in capsys.readouterr().err

    no_engine = _write(tmp_path / "noeng.json", {
        "suite": "s", "seed": 0,
        "runs": [{"theorem_id": "ab_hardy", "geometry": GEOM,
                  "family": {"base": "rho_power", "epsilon": 0.5,
                             "cutoff": [0.5, 2.0]}}],
    })
    assert main(["sweep", "--config", no_engine, "--out-dir",
                 str(tmp_path / "out2")]) == 2


def test_sweep_records_engine_errors(tmp_path):
    cfg = _write(tmp_path / "sweep.json", {
        "suite": "s", "seed": 0,
        "runs": [{"theorem_id": "radial_hardy", "geometry": GEOM,
                  "weights": {"alpha1": -4.0, "alpha2": 0.0},
                  "family": {"base": "rho_power", "epsilon": 0.5,
                             "cutoff": [0.5, 2.0]}}],
    })
    out_dir = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out-dir", str(out_dir)]) == 1
    combined = json.loads((out_dir / "sweep.json").read_text())
    assert combined["results"][0]["status"] == "error"
    assert combined["results"][0]["error"]["type"] == "AdmissibilityError"


def test_list_is_informative_and_stable(capsys):
    assert main(["list"]) == 0
    first = capsys.readouterr().out
    assert "ab_hardy" in first
    assert "((a1+k(g+1))/2)^2 + b^2" in first
    assert "landau_log" in first
    assert "1/4" in first
    assert main(["list"]) == 0
    assert capsys.readouterr().out == first
