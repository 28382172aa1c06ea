"""End-to-end checks of the maghardy command line: exit codes, report files,
sweep CSVs, and byte-level reproducibility."""

import copy
import csv
import inspect
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maghardy.cli import (
    _ENGINE_KEYS,
    _FIELDS,
    _VERIFY_KEYS,
    _run_one,
    _run_seed,
    _write_json,
    main,
)
from maghardy.errors import AdmissibilityError, ConfigError, MagHardyError
from maghardy.reports import (
    IdentityReport,
    InequalityReport,
    ReportEncoder,
    SharpnessResult,
    jsonable,
)
from maghardy.verifiers import FAMILY_FOR
from maghardy.verifiers.catalogue import CHECKS as _CHECKS

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


def test_verify_converts_each_report_once(tmp_path, monkeypatch):
    calls = []
    for cls in (InequalityReport, IdentityReport, SharpnessResult):
        def counting(self, to_dict=cls.to_dict):
            calls.append(type(self).__name__)
            return to_dict(self)
        monkeypatch.setattr(cls, "to_dict", counting)
    suite = _passing_suite()
    suite["runs"].append({"theorem_id": "twisted_polar",
                          "psi": {"kind": "power", "c": 0.5, "s": 1.0},
                          "function": {"kind": "random", "modes": [0, 1, 2],
                                       "real": True},
                          "quadrature": {"n_r": 96, "n_phi": 16}})
    cfg = _write(tmp_path / "suite.json", suite)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
    assert sorted(calls) == ["IdentityReport"] + ["InequalityReport"] * 3 \
        + ["SharpnessResult"]


def test_report_json_converts_numpy_and_complex_values(tmp_path):
    params = {"count": np.int64(3), "single": np.float32(0.1),
              "nodes": np.array([0.5, 2.0]), "pair": (1, 2.5),
              "z": 1.0 - 2.0j, "real_z": 3.0 + 0.0j, "flag": np.bool_(True)}
    out = tmp_path / "r.json"
    _write_json({"report": IdentityReport("demo", np.float64(0.1), 0.1, params)},
                str(out))
    # the same values as plain Python ones, written by json itself
    plain = {"count": 3, "single": 0.10000000149011612, "nodes": [0.5, 2.0],
             "pair": [1, 2.5], "z": {"re": 1.0, "im": -2.0}, "real_z": 3.0,
             "flag": True}
    want = {"report": {"kind": "identity", "identity_id": "demo", "lhs": 0.1,
                       "rhs": 0.1, "rel_err": 0.0, "params": plain,
                       "resolution": {}}}
    assert out.read_text() == json.dumps(want, indent=2, sort_keys=True) + "\n"
    assert '"flag": true' in out.read_text()


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308 / 3, float("nan"),
                     float("inf"), float("-inf")]))
_TEXT = st.one_of(st.text(), st.sampled_from(['"', "\\", "\n\t\r\x00\x1f\x7f",
                                              "\u00e9\u2028\u03b8", "\U0001d4d7"]))
_RECORDS = st.one_of(
    st.builds(InequalityReport, _TEXT, _FLOATS, st.dictionaries(_TEXT, _FLOATS),
              _FLOATS, st.dictionaries(_TEXT, _FLOATS)),
    st.builds(IdentityReport, _TEXT, _FLOATS, _FLOATS),
    st.builds(SharpnessResult, _TEXT, st.lists(st.tuples(_FLOATS, _FLOATS), min_size=1),
              _FLOATS))
_LEAVES = st.one_of(
    _TEXT, st.booleans(), st.none(),
    st.integers(), st.integers(min_value=2**64, max_value=2**200).map(lambda n: -n),
    st.integers(min_value=2**64, max_value=2**200),
    _FLOATS, _FLOATS.map(np.float64),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.just([]), st.just(()), st.just({}), _RECORDS)
_TREES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=24)


@given(_TREES)
@settings(max_examples=200, deadline=None)
def test_report_encoder_writes_the_stdlib_text(obj):
    want = json.dumps(obj, indent=2, sort_keys=True, default=jsonable)
    assert json.dumps(obj, indent=2, sort_keys=True, default=jsonable,
                      cls=ReportEncoder) == want


@pytest.mark.parametrize("key", [1, 2.5, None, True, (1, 2)])
def test_report_encoder_refuses_a_key_that_is_not_a_string(key):
    with pytest.raises(TypeError):
        json.dumps({"runs": [{key: 1.0}]}, indent=2, sort_keys=True,
                   default=jsonable, cls=ReportEncoder)


@pytest.mark.parametrize("kw", [{}, {"indent": 2}, {"indent": 4, "sort_keys": True},
                                {"indent": 2, "sort_keys": True, "allow_nan": False},
                                {"indent": 2, "sort_keys": True, "ensure_ascii": False}])
def test_report_encoder_refuses_other_settings(kw):
    with pytest.raises(ValueError, match="indent=2"):
        json.dumps({"a": 1}, cls=ReportEncoder, **kw)


def test_report_file_carries_the_non_finite_tokens(tmp_path):
    out = tmp_path / "r.json"
    _write_json({"gap": float("inf"), "ratio": float("nan"), "low": -np.inf}, str(out))
    assert out.read_text() == '{\n  "gap": Infinity,\n  "low": -Infinity,\n  "ratio": NaN\n}\n'


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    cfg = _write(tmp_path / "ab.json", {
        "suite": "reuse", "seed": 5,
        "runs": [{"theorem_id": "ab_hardy", "geometry": GEOM,
                  "weights": {"alpha1": 0.0, "alpha2": 0.0}, "flux": {"beta": 0.5},
                  "function": {"kind": "random", "k": 1, "modes": [0, 1]},
                  "quadrature": {"n_r": 32, "n_phi": 8, "n_y": 8}}]})
    first, last = tmp_path / "first.json", tmp_path / "last.json"

    assert main(["verify", "--config", cfg, "--out", str(first),
                 "--admissibility", "corollary", "--timings"]) == 0
    assert main(["list"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", cfg])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert main(["verify", "--config", cfg, "--out", str(last)]) == 0

    [run] = json.loads(first.read_text())["runs"]
    assert run["report"]["params"]["admissibility"] == "corollary"
    assert isinstance(run["wall_clock_s"], float)
    [run] = json.loads(last.read_text())["runs"]
    assert run["report"]["params"]["admissibility"] == "thm2"
    assert run["wall_clock_s"] is None


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

_SHARP_RUN = {"theorem_id": "radial_hardy", "geometry": GEOM,
              "weights": {"alpha1": 0.0, "alpha2": 0.0},
              "family": {"base": "rho_power", "epsilon": 0.5, "cutoff": [0.5, 2.0]},
              "schedule": [0.5, 0.2]}

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
    # a JSON string is no number, wherever a number is read
    "string gamma": {**_GOOD_RUN, "geometry": {**GEOM, "gamma": "1.0"}},
    "string n_r": {**_GOOD_RUN, "quadrature": {**FAST, "n_r": "32"}},
    "string seed": {**_GOOD_RUN, "seed": "5"},
    "string mode": {**_GOOD_RUN, "function": {"kind": "random", "k": 1,
                                              "modes": ["0"]}},
    "string y_box entry": {**_GOOD_RUN,
                           "function": {**BUMP, "y_box": [["-1.0", 1.0]]}},
    # keys no code reads
    "exponent in a sharpness family": {
        "theorem_id": "landau_hardy_sobolev", "theta1": 1.0,
        "family": {"base": "inverse_power", "epsilon": 0.5,
                   "cutoff": [0.5, 2.0], "exponent": 5.0}},
    "R on real_landau_hardy": {"theorem_id": "real_landau_hardy", "n": 2, "R": 3.0,
                               "function": {"kind": "bump", "r_lo": 0.5, "r_hi": 2.0},
                               "quadrature": {"n_r": 64, "n_phi": 8}},
    # keys another theorem reads
    "domain on radial_p_poincare": {
        "theorem_id": "radial_p_poincare", "Q": 3.0, "p": 2.0,
        "domain": {"kind": "ball", "R": 0.5},
        "function": {"kind": "bump", "r_lo": 0.5, "r_hi": 2.0}},
    "non-ball domain kind": {
        "theorem_id": "landau_hardy_sobolev", "theta1": 1.0,
        "domain": {"kind": "support", "R": 0.5},
        "function": {"kind": "random", "k": 0, "modes": [0, 1]},
        "quadrature": {"n_r": 64, "n_phi": 12}},
    "theta1 and flux on landau_log": {
        "theorem_id": "landau_log", "theta1": 1.0, "flux": {"beta": 0.5},
        "function": {"kind": "random", "k": 0, "modes": [0, 1]},
        "quadrature": {"n_r": 64, "n_phi": 12}},
    "flux on radial_hardy": {**_GOOD_RUN, "flux": {"beta": 5}},
    "superweight record on landau_hardy_sobolev": {
        "theorem_id": "landau_hardy_sobolev",
        "superweight": {"a": 1.0, "b": 1.0, "theta2": -2.0, "theta3": 1.0,
                        "theta4": -2.0, "theta1": 0.8},
        "function": {"kind": "random", "k": 0, "modes": [0, 1]},
        "quadrature": {"n_r": 64, "n_phi": 12}},
    "theta1 in a superweight record": {
        "theorem_id": "landau_superweight",
        "superweight": {"a": 1.0, "b": 1.0, "theta2": -2.0, "theta3": 1.0,
                        "theta4": -2.0, "theta1": 0.8},
        "function": {"kind": "random", "k": 0, "modes": [0, 1]},
        "quadrature": {"n_r": 64, "n_phi": 12}},
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
    # keys the run's path never reads: the verifier's on a sharpness run, the
    # engine's on a verify run (_UNREAD names them)
    "psi and domain on a landau_hardy_sobolev sharpness run": {
        "theorem_id": "landau_hardy_sobolev", "theta1": 1.0,
        "psi": {"kind": "bogus"}, "domain": {"R": "big"},
        "family": {"base": "inverse_power", "epsilon": 0.5, "cutoff": [0.5, 2.0]}},
    "psi and quadrature on a landau_log sharpness run": {
        "theorem_id": "landau_log", "psi": 7, "quadrature": {"n_r": 64},
        "family": {"base": "log_power", "epsilon": 0.5, "cutoff": [0.05, 0.9]}},
    "valid quadrature on a radial_hardy sharpness run": {**_SHARP_RUN, "quadrature": FAST},
    "function on a radial_hardy sharpness run": {**_SHARP_RUN, "function": BUMP},
    "schedule and window on a radial_hardy verify run": {
        **_GOOD_RUN, "schedule": ["junk"], "window": 42},
    "s on a constant psi": {
        "theorem_id": "twisted_polar", "psi": {"kind": "constant", "c": 0.5, "s": 3.0},
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


# the keys of a _MALFORMED_RUNS entry that its path does not read
_UNREAD = {
    "psi and domain on a landau_hardy_sobolev sharpness run": ["domain", "psi"],
    "psi and quadrature on a landau_log sharpness run": ["psi", "quadrature"],
    "valid quadrature on a radial_hardy sharpness run": ["quadrature"],
    "function on a radial_hardy sharpness run": ["function"],
    "schedule and window on a radial_hardy verify run": ["schedule", "window"],
}


@pytest.mark.parametrize("bad", sorted(_UNREAD))
def test_a_key_the_path_does_not_read_is_named(bad):
    with pytest.raises(ConfigError) as exc:
        _run_one(_MALFORMED_RUNS[bad], 0, 0, "thm2")
    assert str(exc.value) == f"runs[0]: unknown keys {_UNREAD[bad]}"
    _run_one(_SHARP_RUN, 0, 0, "thm2")   # the sharpness run without them runs


def test_every_listed_key_has_one_reader_and_every_reader_is_listed():
    listed = {key for check in _CHECKS.values() for key in check.keys + check.engine_keys}
    paths = {*_VERIFY_KEYS, *_ENGINE_KEYS}
    assert not listed & paths
    # "function" is read by _parse_function, which takes the run's seed,
    # geometry and weights
    assert set(_FIELDS) == (listed | paths) - {"function"}
    assert {tid for tid, check in _CHECKS.items() if check.engine_keys} <= set(FAMILY_FOR)
    for check in _CHECKS.values():   # each closure takes its record's values
        inspect.signature(check.verify).bind("f", "spec", *check.keys)
        inspect.signature(check.params).bind(*check.engine_keys)


@pytest.mark.parametrize("oracle", [False, True])
def test_a_density_that_overflows_is_a_recorded_non_finite_error(tmp_path, oracle):
    # the log bump's radial derivative overflows near r_lo = 1.8e-298; under
    # error::RuntimeWarning (this suite's policy) numpy's warning of the
    # density must not escape main, on either engine
    tiny = {**_GOOD_RUN, "function": {**BUMP, "r_lo": 1.8388204647668363e-298},
            "quadrature": {**FAST, "oracle": oracle}}
    cfg = _write(tmp_path / "suite.json", {"suite": "tiny", "seed": 0,
                                           "runs": [tiny, _GOOD_RUN]})
    out = tmp_path / "report.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    first, second = json.loads(out.read_text())["runs"]
    assert first["status"] == "error"
    assert first["error"]["type"] == "NonFiniteError"
    assert second["status"] == "ok" and second["passed"]


def test_empty_mode_list_and_a_ball_inside_the_zero_function_are_run_errors(tmp_path):
    # f = 0 is a zero-amplitude bump on 0.25 <= r <= 0.5, never an empty mode list
    cfg = _write(tmp_path / "suite.json", {"suite": "empty", "seed": 0, "runs": [
        {**_GOOD_RUN, "function": {"kind": "random", "k": 1, "modes": []}},
        {"theorem_id": "landau_poincare", "domain": {"R": 0.4},
         "function": {"kind": "zero"}, "quadrature": {"n_r": 64, "n_phi": 12}},
        _GOOD_RUN]})
    out = tmp_path / "report.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    empty, small_ball, good = json.loads(out.read_text())["runs"]
    assert empty["status"] == "error" and empty["error"]["type"] == "DomainError"
    assert small_ball["error"]["type"] == "AdmissibilityError"
    assert good["status"] == "ok" and good["passed"]


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


@pytest.mark.parametrize("workload", ["margins", "sharpness"])
def test_benchmark_reference_pass_matches_its_recorded_report(tmp_path, workload):
    # the benchmark's seed-42 reference pass, checked as the benchmark checks it
    if str(REPO / "perfbench") not in sys.path:
        sys.path.insert(0, str(REPO / "perfbench"))
    import worker
    cfg, out = tmp_path / "config.json", tmp_path / "report.json"
    cfg.write_text(json.dumps(worker.workloads.CONFIGS[workload](worker.REFERENCE_SEED, 0)))
    assert main(["verify", "--config", str(cfg), "--out", str(out), "--timings"]) in (0, 1)
    ref = json.loads((worker.REFERENCE_DIR / f"{workload}.json").read_text())
    drift, where, bad = worker.compare(ref, worker.strip_timings(json.loads(out.read_text())))
    assert bad == [], (drift, where)


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


def test_sweep_checks_every_run_before_running_any(tmp_path, capsys):
    cfg = _write(tmp_path / "sweep.json", {
        "suite": "s", "seed": 0,
        "runs": [{"theorem_id": "landau_log",
                  "family": {"base": "log_power", "epsilon": 0.5,
                             "cutoff": [0.05, 0.9]},
                  "schedule": [0.5]},
                 {"theorem_id": "grushin_ibp", "geometry": GEOM,
                  "family": {"base": "rho_power", "epsilon": 0.5,
                             "cutoff": [0.5, 2.0]}}],
    })
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["sweep", "--config", cfg, "--out-dir", str(out_dir)]) == 2
    assert "runs[1]: 'grushin_ibp' has no sharpness engine" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


# 2*theta4 = theta2*theta3: the composite-weight sharp constant is zero
_ZERO_CONSTANT_RUN = {
    "theorem_id": "landau_superweight",
    "superweight": {"a": 1.0, "b": 1.0, "theta2": -2.0, "theta3": 1.0,
                    "theta4": -1.0},
    "family": {"base": "power", "epsilon": 0.5, "cutoff": [0.5, 2.0]},
    "schedule": [0.5, 0.2],
}


def test_zero_sharp_constant_gives_an_infinite_gap(tmp_path):
    cfg = _write(tmp_path / "zero.json", {"suite": "zero", "seed": 0,
                                          "runs": [_ZERO_CONSTANT_RUN]})
    out = tmp_path / "report.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    [run] = json.loads(out.read_text())["runs"]
    assert run["status"] == "ok" and run["passed"]
    assert run["report"]["sharp_constant"] == 0.0
    assert run["report"]["gap"] == float("inf")

    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out-dir", str(out_dir)]) == 0
    [result] = json.loads((out_dir / "sweep.json").read_text())["results"]
    assert result["status"] == "ok"
    assert result["result"]["gap"] == float("inf")
    with open(out_dir / "landau_superweight_0.csv", newline="") as fh:
        assert [r["gap"] for r in csv.DictReader(fh)] == ["inf", "inf"]


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


def _strict_json(text):
    """text parsed as JSON that holds no NaN or infinity."""
    def refuse(constant):
        raise AssertionError(f"{constant} in a report")
    return json.loads(text, parse_constant=refuse)


def test_a_non_finite_schedule_point_is_a_run_error(tmp_path):
    # NaN and Infinity are refused with the config; 1e-320 is finite, but
    # 6/eps overflows the gauss window, so its quotient is not finite
    def run(schedule):
        return {"theorem_id": "landau_hardy_sobolev", "theta1": 1.2,
                "family": {"base": "inverse_power", "epsilon": 0.5,
                           "cutoff": [0.5, 2.0]},
                "schedule": schedule}

    bad = [[0.5, float("nan")], [0.5, float("inf")], [0.5, 1e-320]]
    cfg = _write(tmp_path / "bad.json", {
        "suite": "s", "seed": 0, "runs": [run(s) for s in bad] + [run([0.5, 0.2])]})
    errors = ["ConfigError", "ConfigError", "NonFiniteError"]

    out = tmp_path / "report.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    runs = _strict_json(out.read_text())["runs"]
    assert [r["status"] for r in runs] == ["error"] * 3 + ["ok"]
    assert [r["error"]["type"] for r in runs[:3]] == errors
    assert "1e-320" in runs[2]["error"]["message"]

    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out-dir", str(out_dir)]) == 1
    results = _strict_json((out_dir / "sweep.json").read_text())["results"]
    assert [r["status"] for r in results] == ["error"] * 3 + ["ok"]
    assert [r["error"]["type"] for r in results[:3]] == errors
    assert sorted(p.name for p in out_dir.iterdir()) == \
        ["landau_hardy_sobolev_3.csv", "sweep.json"]


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


def test_zero_function_gives_zero_on_every_check(tmp_path):
    # every margin and identity run of the default suite, on f = 0
    cfg = json.loads((REPO / "scripts" / "default_suite.json").read_text())
    cfg["runs"] = [{**run, "function": {"kind": "zero"}}
                   for run in cfg["runs"] if "family" not in run]
    out = tmp_path / "report.json"
    assert main(["verify", "--config", _write(tmp_path / "zero.json", cfg),
                 "--out", str(out)]) == 0
    records = json.loads(out.read_text())["runs"]
    assert len({r["theorem_id"] for r in records}) == 20
    for record in records:
        assert record["status"] == "ok" and record["passed"], record
        report = record["report"]
        values = [report["lhs"]] + (list(report["rhs_terms"].values())
                                    if "rhs_terms" in report else [report["rhs"]])
        assert values == [0.0] * len(values), record["theorem_id"]


# --- phi tiles: a polar check gives the same bits one angular node per call -----

POLAR_IDS = {"ab_hardy", "magnetic_grushin", "uncertainty_grushin", "uncertainty_ab",
             "landau_hardy_sobolev", "landau_log", "landau_poincare",
             "landau_superweight", "twisted_polar", "real_landau_identity",
             "real_landau_critical", "real_landau_uncertainty"}


def test_phi_tiles_give_the_reports_of_one_node_per_call(monkeypatch):
    import maghardy.quadrature as quadrature

    cfg = json.loads((REPO / "scripts" / "default_suite.json").read_text())
    runs = [(i, run) for i, run in enumerate(cfg["runs"])
            if run["theorem_id"] in POLAR_IDS and run.get("n", 1) == 1]
    assert {run["theorem_id"] for _, run in runs} == POLAR_IDS
    reduce_slices, widths = quadrature.reduce_slices, []

    def spy(at, base, phis):  # records the angular nodes of each call
        def seen(phi):
            widths[-1].append(len(phi))
            return at(phi)
        return reduce_slices(seen, base, phis)

    monkeypatch.setattr(quadrature, "reduce_slices", spy)

    def reports():
        out = []
        for i, run in runs:
            widths.append([])
            report = _run_one(run, i, _run_seed(run, i, cfg["seed"]), "thm2")
            out.append(json.dumps(report, default=jsonable, sort_keys=True))
        return out

    tiled = reports()
    assert all(max(seen) > 1 for seen in widths)  # every check runs tiles
    widths.clear()
    row_blocks = quadrature.row_blocks

    def one_block(density, r, Y):  # the grid one block, one angular node per tile
        monkeypatch.setattr(quadrature, "BLOCK_NODES", r.size * len(Y))
        return row_blocks(density, r, Y)

    monkeypatch.setattr(quadrature, "row_blocks", one_block)
    assert reports() == tiled
    assert {w for seen in widths for w in seen} == {1}


# --- admissibility boundaries of the registry records ---------------------------

# gamma = 0.5 throughout; m = 2, k = 1 (Q = 3.5), and m = k = n = 1 (Q = 2.5)
# for constant_field.  Each point moves one parameter so that its condition
# reads eps while every other condition of the record stays 0.5 or more clear.
# A condition is named as the record's list text states it, and maps eps to
# the run fields that put it there.
_G = 0.5


def _weights(a1, a2):
    return {"weights": {"alpha1": a1, "alpha2": a2}}


def _first_kind(m, k, names=("Q+a1-2 > 0", "m+g*a2 > 0")):
    Q = m + (1.0 + _G) * k
    return {names[0]: lambda eps: _weights(2.0 - Q + eps, 0.0),
            names[1]: lambda eps: _weights(0.0, (eps - m) / _G)}


_ROTATED = {"a1+k(g+1) > 0": lambda eps: _weights(eps - (_G + 1.0), 0.0),
            "a2+2g > 0 (thm2)": lambda eps: _weights(0.0, eps - 2.0 * _G),
            "a2*g+2 > 0": lambda eps: _weights(0.0, (eps - 2.0) / _G)}
_ROTATED["a2*g+2 > 0 (corollary)"] = _ROTATED["a2*g+2 > 0"]

# theta2*theta3 = -2, so theta4 = -(2 + eps)/2
_COMPOSITE = {"2*t4 <= t2*t3": lambda eps: {"superweight": {
    "a": 1.0, "b": 1.0, "theta2": -2.0, "theta3": 1.0, "theta4": -0.5 * (2.0 + eps)}}}
# theta1 != 0 is refused at the boundary point itself and accepted on both
# sides, so only the parity test below runs it (at eps and -eps, and at 0)
_THETA1 = "theta1 != 0"
_POWER = {_THETA1: lambda eps: {"theta1": eps}}

# case -> (the record whose list text states its conditions, the conditions);
# a case is a theorem id, run through its verifier, or "<id> sharpness",
# run through its sharpness engine.  grushin_ibp is an identity and states
# none, but its verifier applies the radial_hardy conditions
_BOUNDARIES = {
    "radial_hardy": ("radial_hardy", _first_kind(2, 1)),
    "magnetic_grushin": ("magnetic_grushin", _first_kind(2, 1)),
    "uncertainty_grushin": ("magnetic_grushin", _first_kind(2, 1)),
    "grushin_ibp": (None, _first_kind(2, 1)),
    "constant_field": ("constant_field",
                       _first_kind(1, 1, ("n(2+g)+a1-2 > 0", "n+a2*g > 0"))),
    "ab_hardy": ("ab_hardy", {c: _ROTATED[c] for c in (
        "a1+k(g+1) > 0", "a2+2g > 0 (thm2)", "a2*g+2 > 0 (corollary)")}),
    "uncertainty_ab": ("uncertainty_ab", {c: _ROTATED[c] for c in (
        "a1+k(g+1) > 0", "a2*g+2 > 0")}),
    "landau_superweight": ("landau_superweight", _COMPOSITE),
    "landau_superweight sharpness": ("landau_superweight", _COMPOSITE),
    "landau_hardy_sobolev": ("landau_hardy_sobolev", _POWER),
    "landau_hardy_sobolev sharpness": ("landau_hardy_sobolev", _POWER),
}
_BOUNDARY_CASES = [(case, cond) for case, (_, conds) in _BOUNDARIES.items()
                   for cond in conds if cond != _THETA1]


def _boundary_run(case, cond, eps):
    tid, _, engine = case.partition(" ")
    run = {"theorem_id": tid, **_BOUNDARIES[case][1][cond](eps)}
    if engine:
        run.update(family={"base": FAMILY_FOR[tid], "epsilon": 0.5,
                           "cutoff": [0.5, 2.0]}, schedule=[0.5])
        return run
    run["quadrature"] = {"n_r": 8, "n_phi": 4, "n_y": 4}
    if "weights" not in run:   # a plane check
        run["function"] = {"kind": "bump", "r_lo": 0.5, "r_hi": 2.0}
        return run
    run["geometry"] = {"m": 1 if tid == "constant_field" else 2, "k": 1, "gamma": _G}
    run["function"] = {"kind": "random", "k": 1, "modes": [0], "real": True}
    if tid == "ab_hardy":
        run["admissibility"] = "corollary" if "corollary" in cond else "thm2"
    return run


def test_boundary_conditions_are_the_listed_ones():
    assert len(_BOUNDARIES) == 11 and len(_BOUNDARY_CASES) == 17
    for case, (text_of, conds) in _BOUNDARIES.items():
        for cond in conds if text_of else ():
            assert cond in _CHECKS[text_of].text, (case, cond)


@pytest.mark.parametrize("tid, cond", _BOUNDARY_CASES)
def test_admissibility_boundary_is_sharp(tid, cond):
    _run_one(_boundary_run(tid, cond, 1e-6), 0, 3, "thm2")  # accepted
    with pytest.raises(AdmissibilityError):
        _run_one(_boundary_run(tid, cond, -1e-6), 0, 3, "thm2")


def _outcome(run):
    """The string "accepted", or the class and message of the error raised."""
    try:
        _run_one(run, 0, 3, "thm2")
    except MagHardyError as exc:
        return type(exc), str(exc)
    return "accepted"


# (verifier case, its twin, the condition, the points): each pair states the
# same condition and must draw the same line with the same words
_TWINS = [
    ("ab_hardy", "uncertainty_ab", "a2*g+2 > 0", (1e-6, -1e-6)),
    ("landau_superweight", "landau_superweight sharpness", "2*t4 <= t2*t3",
     (1e-6, -1e-6)),
    ("landau_hardy_sobolev", "landau_hardy_sobolev sharpness", _THETA1,
     (1e-6, -1e-6, 0.0)),
]


@pytest.mark.parametrize("case, twin, cond, points", _TWINS, ids=[t[1] for t in _TWINS])
def test_a_verifier_and_its_twin_draw_the_same_boundary(case, twin, cond, points):
    verifier_cond = cond + " (corollary)" if case == "ab_hardy" else cond
    outcomes = [_outcome(_boundary_run(case, verifier_cond, eps)) for eps in points]
    assert outcomes == [_outcome(_boundary_run(twin, cond, eps)) for eps in points]
    assert outcomes[0] == "accepted" and outcomes[-1] != "accepted"
