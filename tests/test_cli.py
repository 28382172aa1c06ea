"""End-to-end checks of the maghardy command line: exit codes, report files,
sweep CSVs, and byte-level reproducibility."""

import copy
import csv
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    "string oracle flag": {**_GOOD_RUN, "quadrature": {**FAST, "oracle": "false"}},
    "numeric real flag": {**_GOOD_RUN, "theorem_id": "magnetic_grushin",
                          "function": {"kind": "random", "k": 1, "modes": [0],
                                       "real": 0}},
    "string gaussian_y flag": {**_GOOD_RUN, "function": {
        "kind": "random", "k": 1, "modes": [0], "gaussian_y": "yes"}},
    "fractional m": {**_GOOD_RUN, "geometry": {**GEOM, "m": 2.7}},
    "boolean k": {**_GOOD_RUN, "geometry": {**GEOM, "k": True}},
    "fractional n_r": {**_GOOD_RUN, "quadrature": {**FAST, "n_r": 64.5}},
    "boolean n_phi": {**_GOOD_RUN, "quadrature": {**FAST, "n_phi": True}},
    "fractional n_y": {**_GOOD_RUN, "quadrature": {**FAST, "n_y": 12.25}},
    "fractional mode": {**_GOOD_RUN, "function": {"kind": "random", "k": 1,
                                                  "modes": [0, 0.5]}},
    "fractional seed": {**_GOOD_RUN, "seed": 2.5},
    "boolean seed": {**_GOOD_RUN, "seed": False},
    "fractional n": {"theorem_id": "real_landau_hardy", "n": 1.5,
                     "function": {"kind": "bump", "r_lo": 0.5, "r_hi": 2.0}},
    "descending range of a random function": {
        **_GOOD_RUN, "function": {"kind": "random", "k": 1, "modes": [0],
                                  "r_lo_range": [1.0, 0.5]}},
    "negative seed of a random function": {
        **_GOOD_RUN, "seed": -3,
        "function": {"kind": "random", "k": 1, "modes": [0]}},
    # keys another theorem reads
    "domain on radial_p_poincare": {
        "theorem_id": "radial_p_poincare", "Q": 3.0, "p": 2.0,
        "domain": {"kind": "ball", "R": 0.5},
        "function": {"kind": "bump", "r_lo": 0.5, "r_hi": 2.0}},
    "theta1 and flux on landau_log": {
        "theorem_id": "landau_log", "theta1": 1.0, "flux": {"beta": 0.5},
        "function": {"kind": "random", "k": 0, "modes": [0, 1]},
        "quadrature": {"n_r": 64, "n_phi": 12}},
    "flux on radial_hardy": {**_GOOD_RUN, "flux": {"beta": 5}},
    "geometry, weights and admissibility on landau_log": {
        "theorem_id": "landau_log", "geometry": GEOM,
        "weights": {"alpha1": 0.0, "alpha2": 0.0}, "admissibility": "corollary",
        "function": {"kind": "random", "k": 0, "modes": [0, 1]},
        "quadrature": {"n_r": 64, "n_phi": 12}},
    "admissibility on magnetic_grushin": {
        **_GOOD_RUN, "theorem_id": "magnetic_grushin", "admissibility": "thm2",
        "function": {"kind": "random", "k": 1, "modes": [0], "real": True}},
    "schedule and window on radial_p_log": {
        "theorem_id": "radial_p_log", "Q": 3.0, "p": 2.0,
        "schedule": [0.5, 0.2], "window": "plain",
        "function": {"kind": "bump", "r_lo": 0.5, "r_hi": 2.0}},
    # sizes far past the ceilings, refused before anything is allocated
    "huge n_r": {**_GOOD_RUN, "quadrature": {"n_r": 1e300}},
    "huge m": {**_GOOD_RUN, "geometry": {**GEOM, "m": 1e300}},
    "huge n": {"theorem_id": "real_landau_hardy", "n": 1e300,
               "function": {"kind": "bump", "r_lo": 0.5, "r_hi": 2.0}},
    "huge k of a random function": {
        **_GOOD_RUN, "function": {"kind": "random", "k": 1e300, "modes": [0]}},
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


# Grids past quadrature.MAX_SLICE_NODES, refused where the grid is built.
_OVERSIZED_RUNS = {
    "k 8 at n_y 64": {
        **_GOOD_RUN, "geometry": {**GEOM, "k": 8},
        "function": {"kind": "random", "k": 8, "modes": [0]},
        "quadrature": {"n_r": 64, "n_y": 64}},
    "k 4 at n_y 64 and n_r 256": {
        **_GOOD_RUN, "geometry": {**GEOM, "k": 4},
        "function": {"kind": "random", "k": 4, "modes": [0]},
        "quadrature": {"n_r": 256, "n_y": 64}},
}


@pytest.mark.parametrize("bad", sorted(_OVERSIZED_RUNS))
def test_oversized_grid_is_recorded_and_the_suite_goes_on(tmp_path, bad):
    cfg = _write(tmp_path / "suite.json", {
        "suite": "oversized", "seed": 0,
        "runs": [_OVERSIZED_RUNS[bad], _GOOD_RUN]})
    out = tmp_path / "report.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    first, second = json.loads(out.read_text())["runs"]
    assert first["status"] == "error"
    assert first["error"]["type"] == "DomainError"
    assert "ceiling" in first["error"]["message"]
    assert second["status"] == "ok" and second["passed"]


# Tiny-resolution runs whose every field, at any depth, the fuzz may replace.
_FUZZ_RUNS = [
    {**_GOOD_RUN, "seed": 4, "quadrature": {"n_r": 8, "n_phi": 4, "n_y": 4,
                                            "oracle": False}},
    {"theorem_id": "magnetic_grushin", "geometry": GEOM,
     "weights": {"alpha1": 0.5, "alpha2": 0.2}, "flux": {"beta": 0.5},
     "function": {"kind": "random", "k": 1, "modes": [0, 1], "real": True,
                  "gaussian_y": False, "r_lo_range": [0.4, 0.8]},
     "quadrature": {"n_r": 8, "n_phi": 8, "n_y": 4}},
    {"theorem_id": "landau_superweight", "psi": {"kind": "power", "c": 0.5, "s": 1.0},
     "superweight": {"a": 1.0, "b": 1.0, "theta2": -2.0, "theta3": 1.0,
                     "theta4": -2.0},
     "function": {"kind": "random", "k": 0, "modes": [-1, 0]},
     "quadrature": {"n_r": 8, "n_phi": 8}},
    {"theorem_id": "radial_p_weighted", "Q": 3.0, "p": 2.0, "theta": 0.5,
     "function": {"kind": "bump", "r_lo": 0.5, "r_hi": 2.0},
     "quadrature": {"n_r": 8}},
]


def _field_paths(obj, prefix=()):
    """Key/index paths to every field of a run, nested ones included."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, prefix + (key,))


_FUZZ_CASES = [(i, path) for i, run in enumerate(_FUZZ_RUNS)
               for path in _field_paths(run)]

_FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.floats(-4.0, 4.0), st.just(float("nan")),
    st.lists(st.lists(st.floats(-2.0, 2.0), max_size=2), max_size=2))


@given(case=st.sampled_from(_FUZZ_CASES), value=_FUZZ_VALUES)
@settings(max_examples=60, deadline=None)
def test_fuzzed_field_never_raises(case, value):
    index, path = case
    run = copy.deepcopy(_FUZZ_RUNS[index])
    owner = run
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _write(Path(tmp) / "suite.json",
                     {"suite": "fuzz", "seed": 0, "runs": [run]})
        assert main(["verify", "--config", cfg,
                     "--out", str(Path(tmp) / "report.json")]) in (0, 1, 2)


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


def test_sweep_has_no_admissibility_flag(tmp_path, capsys):
    cfg = str(REPO / "scripts" / "sharpness_sweep.json")
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", cfg, "--out-dir", str(tmp_path / "out"),
              "--admissibility", "corollary"])
    assert exc.value.code == 2
    assert "--admissibility" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


_LIST_TEXT = """\
margin checks:
  radial_hardy             constant: ((Q+a1-2)/2)^2
                           requires: Q+a1-2 > 0, m+g*a2 > 0; radial f
  magnetic_grushin         constant: ((Q+a1-2)/2)^2 + b^2
                           requires: Q+a1-2 > 0, m+g*a2 > 0; real f
  ab_hardy                 constant: ((a1+k(g+1))/2)^2 + b^2
                           requires: m = 2, a1+k(g+1) > 0, and a2+2g > 0 (thm2) or a2*g+2 > 0 (corollary)
  uncertainty_grushin      constant: (((Q+a1-2)/2)^2 + b^2)^(1/2)
                           requires: as magnetic_grushin; norms halve the weight exponents
  uncertainty_ab           constant: (((a1+k(g+1))/2)^2 + b^2)^(1/2)
                           requires: m = 2, a1+k(g+1) > 0, a2*g+2 > 0
  landau_hardy_sobolev     constant: theta1^2
                           requires: theta1 != 0
  landau_log               constant: 1/4
                           requires: support inside the closed unit disc
  landau_poincare          constant: 1/R^2
                           requires: bounded ball of radius R containing the support
  landau_superweight       constant: (t2*t3 - 2*t4)/2
                           requires: a, b > 0, t2*t3 < 0, 2*t4 <= t2*t3
  radial_p_weighted        constant: |p/(Q - theta*p)|
                           requires: p > 1, theta*p != Q; radial f
  radial_p_log             constant: p
                           requires: p > 1; radial f
  radial_p_poincare        constant: R*p/Q
                           requires: p > 1, support inside [0, R]; radial f
  radial_p_superweight     constant: (Q - p*t4 + t2*t3 - p)/p
                           requires: p > 1, a, b > 0, t2*t3 < 0, p*t4 - t2*t3 <= Q - p; radial f
  real_landau_hardy        constant: (n-1)^2
                           requires: n >= 1; real f (radial for n >= 2)
  real_landau_critical     constant: 1/4
                           requires: n = 1, R >= e * sup|z| over the domain; real f
  real_landau_uncertainty  constant: 1 (norm product vs pointwise bound)
                           requires: n >= 1; real f; R as in real_landau_critical when n = 1
  constant_field           constant: (n(2+g)+a1-2)/2 as printed; squared reading also evaluated
                           requires: m = k = n, n(2+g)+a1-2 > 0, n+a2*g > 0; real radial f
identity checks:
  grushin_ibp              shifted-gradient expansion of the anisotropic Dirichlet form
  twisted_polar            polar split of the twisted Dirichlet integral over kappa
  real_landau_identity     Dirichlet + harmonic-potential split on the plane
"""


def test_list_is_informative_and_stable(capsys):
    assert main(["list"]) == 0
    assert capsys.readouterr().out == _LIST_TEXT
    assert main(["list"]) == 0
    assert capsys.readouterr().out == _LIST_TEXT


def test_default_suite_runs_every_listed_check():
    listed = {line.split()[0] for line in _LIST_TEXT.splitlines()
              if line.startswith("  ") and not line.startswith("   ")}
    cfg = json.loads((REPO / "scripts" / "default_suite.json").read_text())
    assert {run["theorem_id"] for run in cfg["runs"]} == listed
    assert len(listed) == 20
