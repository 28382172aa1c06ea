"""Sharpness runs: quotient schedules approach the advertised constants from
above, and the reduced 1-D engines agree with the full quadrature pipeline on
matching plain-window trial functions."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from maghardy import functions
from maghardy.errors import AdmissibilityError, DomainError, NonFiniteError
from maghardy.fields import FluxParam, RadialPotential
from maghardy.functions import TrialFamily, make_trial, plateau_breaks, plateau_panels
from maghardy.geometry import GrushinGeometry, WeightExponents
from maghardy.quadrature import QuadratureSpec, _reference_rule
from maghardy.reports import SharpnessResult, SuperweightParams
from maghardy.verifiers import (
    DEFAULT_SCHEDULE,
    estimate_sharpness,
    verify_landau,
    verify_radial_hardy,
)
from maghardy.verifiers import sharpness
from maghardy.verifiers.sharpness import (
    _CHUNK,
    _PANEL_N,
    _gauss_window,
    _plain_window,
    _power_quotient,
    _shared_gauss_window,
)

GEOM = GrushinGeometry(m=2, k=1, gamma=1.0)
FLAT = WeightExponents(alpha1=0.0, alpha2=0.0)
NO_PSI = RadialPotential.constant(0.0)


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _assert_descending(schedule):
    # DEFAULT_SCHEDULE shrinks epsilon; quotients should not move away
    # from the constant as the window widens.
    for (e1, q1), (e2, q2) in zip(schedule, schedule[1:]):
        assert e2 < e1
        assert q2 <= q1 + 1e-12 * max(abs(q1), 1.0)


# ---------------------------------------------------------------------------
# gap targets
# ---------------------------------------------------------------------------

def test_radial_hardy_gap_reaches_one():
    fam = TrialFamily("rho_power", 0.02, (0.5, 2.0))
    res = estimate_sharpness("radial_hardy", {"geom": GEOM, "exps": FLAT}, fam)
    assert res.sharp_constant == pytest.approx(1.0)
    assert res.gap <= 0.02
    assert res.best_quotient >= res.sharp_constant - 1e-12
    _assert_descending(res.schedule)


@pytest.mark.parametrize("beta", [0.5, -0.5])
def test_magnetic_gap_reaches_five_quarters(beta):
    fam = TrialFamily("rho_power", 0.02, (0.5, 2.0))
    res = estimate_sharpness(
        "magnetic_grushin",
        {"geom": GEOM, "exps": FLAT, "flux": FluxParam(beta)},
        fam,
    )
    assert res.sharp_constant == pytest.approx(1.25)
    assert res.gap <= 0.03
    assert res.best_quotient >= res.sharp_constant - 1e-12
    assert res.params["beta"] == beta
    _assert_descending(res.schedule)


def test_log_weight_gap_reaches_one_quarter():
    fam = TrialFamily("log_power", 0.02, (0.05, 0.9))
    res = estimate_sharpness("landau_log", None, fam)
    assert res.sharp_constant == pytest.approx(0.25)
    assert res.gap <= 0.05
    assert res.best_quotient >= res.sharp_constant - 1e-12
    _assert_descending(res.schedule)


def test_superweight_gap_reaches_one():
    sw = SuperweightParams(1.0, 1.0, -2.0, 1.0, -2.0)
    fam = TrialFamily("power", 0.02, (0.002, 0.04))
    res = estimate_sharpness("landau_superweight", sw, fam)
    # squared reading of the printed constant: ((-2)*1 - 2*(-2))/2 = 1
    assert res.sharp_constant == pytest.approx(1.0)
    assert res.gap <= 0.05
    assert res.best_quotient >= res.sharp_constant - 1e-12
    assert res.params["constant_reading"] == "squared"
    _assert_descending(res.schedule)


def test_hardy_sobolev_gap_closes():
    res = estimate_sharpness(
        "landau_hardy_sobolev", {"theta1": 1.2},
        TrialFamily("inverse_power", 0.02, (0.5, 2.0)))
    assert res.sharp_constant == pytest.approx(1.44)
    assert res.gap <= 0.05
    assert res.best_quotient >= res.sharp_constant - 1e-12
    _assert_descending(res.schedule)


def test_superweight_growing_weight_branch():
    # theta2 > 0 pushes the near-extremal window toward large r; the gap
    # should still close from above.
    sw = SuperweightParams(1.0, 1.0, 2.0, -1.0, -1.5)
    res = estimate_sharpness(
        "landau_superweight", sw, TrialFamily("power", 0.02, (5.0, 80.0)))
    c = 0.5 * (sw.theta2 * sw.theta3 - 2.0 * sw.theta4)
    assert res.sharp_constant == pytest.approx(c * c)
    assert res.best_quotient >= res.sharp_constant - 1e-12
    assert res.gap <= 0.05


# ---------------------------------------------------------------------------
# panel rules: built once, bitwise equal to a fresh per-call build
# ---------------------------------------------------------------------------

def _fresh_leggauss_loop(edges):
    x, w = np.polynomial.legendre.leggauss(_PANEL_N)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nodes.append(mid + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def test_panels_match_fresh_leggauss_loop_bitwise():
    # each window's nodes and weights are the rule of its own plateau panels
    eps, center = 0.05, -3.0
    lo, hi = center - 6.0 / eps, center + 6.0 / eps
    u_lo, u_hi = math.log(0.5), math.log(2.0)
    for window, (a, b) in ((_gauss_window(eps, center), (lo, hi)),
                           (_plain_window(eps, u_lo, u_hi), (u_lo, u_hi))):
        x, w = _fresh_leggauss_loop((a, *plateau_breaks(a, b), b))
        assert np.array_equal(window[0], x) and np.array_equal(window[1], w)


def test_schedule_builds_the_panel_rule_once(monkeypatch):
    # the plateau table reads the cached reference rule: no leggauss of its own
    calls = []
    real = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda n: calls.append(n) or real(n))
    _reference_rule.cache_clear()
    plateau_panels.cache_clear()
    fam = TrialFamily("rho_power", 0.02, (0.5, 2.0))
    for window in ("gauss", "plain"):
        estimate_sharpness("radial_hardy", {"geom": GEOM, "exps": FLAT}, fam,
                           window=window)
    assert calls == [_PANEL_N]


_ENGINES = [
    ("radial_hardy", {"geom": GEOM, "exps": FLAT}, TrialFamily("rho_power", 0.02, (0.5, 2.0))),
    ("magnetic_grushin", {"geom": GEOM, "exps": FLAT, "flux": FluxParam(0.5)},
     TrialFamily("rho_power", 0.02, (0.5, 2.0))),
    ("landau_hardy_sobolev", {"theta1": 1.2}, TrialFamily("inverse_power", 0.02, (0.5, 2.0))),
    ("landau_log", None, TrialFamily("log_power", 0.02, (0.05, 0.9))),
    ("landau_superweight", SuperweightParams(1.0, 1.0, -2.0, 1.0, -2.0),
     TrialFamily("power", 0.02, (0.002, 0.04))),
]


def _count_steps(monkeypatch):
    """The list that gains one entry per call of functions._step."""
    calls = []
    step = functions._step
    monkeypatch.setattr(functions, "_step", lambda t: calls.append(1) or step(t))
    return calls


# the plateau is read from its table, so once the table is built no
# schedule point evaluates a plateau edge
@pytest.mark.parametrize("window", ["gauss", "plain"])
@pytest.mark.parametrize("theorem_id,params,family", _ENGINES, ids=[e[0] for e in _ENGINES])
def test_a_schedule_steps_no_plateau_edge(monkeypatch, theorem_id, params, family, window):
    plateau_panels(_PANEL_N)
    calls = _count_steps(monkeypatch)
    res = estimate_sharpness(theorem_id, params, family, window=window)
    assert len(res.schedule) == len(DEFAULT_SCHEDULE)
    assert len(calls) == 0


def test_the_plateau_table_steps_its_edge_once_per_node_count(monkeypatch):
    plateau_panels.cache_clear()
    calls = _count_steps(monkeypatch)
    for window in ("gauss", "plain"):
        for theorem_id, params, family in _ENGINES:
            estimate_sharpness(theorem_id, params, family, window=window)
    assert len(calls) == 1
    for n in (12, 12, _PANEL_N):
        plateau_panels(n)
    assert len(calls) == 2


# 50 points run as chunks of 22, 22 and 6
_LONG = tuple(float(e) for e in np.geomspace(0.5, 0.005, 50))


@pytest.mark.parametrize("window", ["gauss", "plain"])
@pytest.mark.parametrize("theorem_id,params,family", _ENGINES, ids=[e[0] for e in _ENGINES])
def test_batched_schedule_equals_one_point_at_a_time_bitwise(monkeypatch, theorem_id,
                                                            params, family, window):
    plateau_panels(_PANEL_N)
    calls = _count_steps(monkeypatch)
    res = estimate_sharpness(theorem_id, params, family, _LONG, window)
    assert _CHUNK == 22 and len(calls) == 0
    assert [e for e, _ in res.schedule] == list(_LONG)
    for eps, q in res.schedule:
        [(_, alone)] = estimate_sharpness(theorem_id, params, family, (eps,),
                                          window).schedule
        assert q.hex() == alone.hex()


def _power_loop(res, u, w, v, d):
    return res.sharp_constant + float(np.sum(w * d**2)) / float(np.sum(w * v**2))


def _superweight_loop(res, u, w, v, d):
    # sum(w G (v' - c v)^2) / sum(w G v^2) with the composite weight
    # G = (a e^(-theta2 u) + b)^theta3 and c = (theta2*theta3 - 2*theta4)/2
    sw = res.params["weights"]
    t2, t3 = sw["theta2"], sw["theta3"]
    g = np.exp(t3 * np.logaddexp(math.log(sw["a"]) - t2 * u, math.log(sw["b"])))
    c = 0.5 * (t2 * t3 - 2.0 * sw["theta4"])
    return float(np.sum(w * g * (d - c * v) ** 2)) / float(np.sum(w * g * v**2))


@pytest.mark.parametrize("window", ["gauss", "plain"])
def test_batched_schedule_equals_a_loop_over_float_windows_bitwise(window):
    # the per-epsilon loop: a float window on its 1-D rule and two 1-D sums,
    # for the power weight (G = 1, c = 0) and the composite weight
    for (theorem_id, params, family), center, loop in (
            (_ENGINES[0], lambda eps: 0.0, _power_loop),
            (_ENGINES[-1], lambda eps: math.log(0.05) - 6.0 / eps, _superweight_loop)):
        lo, hi = family.cutoff
        res = estimate_sharpness(theorem_id, params, family, _LONG, window)
        for eps, q in res.schedule:
            u, w, v, d = (_gauss_window(eps, center(eps)) if window == "gauss"
                          else _plain_window(eps, math.log(lo), math.log(hi)))
            assert u.shape == (3 * _PANEL_N,)
            assert q.hex() == loop(res, u, w, v, d).hex(), (theorem_id, eps)


def test_column_windows_give_the_rows_of_scalar_windows_bitwise():
    eps = np.array(_LONG)[:, None]
    for window, scalar in ((_gauss_window(eps, -3.0 + eps), lambda e: _gauss_window(e, -3.0 + e)),
                           (_plain_window(eps, -0.7, 0.7), lambda e: _plain_window(e, -0.7, 0.7))):
        u, w, v, d = np.broadcast_arrays(*window)
        assert u.shape == (len(_LONG), 3 * _PANEL_N)
        for i, e in enumerate(_LONG):
            for rows, alone in zip((u, w, v, d), scalar(e)):
                assert np.array_equal(rows[i], alone)


@pytest.mark.parametrize("window", ["gauss", "plain"])
@pytest.mark.parametrize("theorem_id,params,family", _ENGINES, ids=[e[0] for e in _ENGINES])
def test_a_long_schedule_peaks_like_one_chunk(theorem_id, params, family, window):
    def peak(n):
        schedule = tuple(float(e) for e in np.geomspace(0.5, 0.005, n))
        # a one-chunk gauss run then builds its window instead of reading
        # the one another run left in the cache
        _shared_gauss_window.cache_clear()
        tracemalloc.start()
        try:
            estimate_sharpness(theorem_id, params, family, schedule, window)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)   # builds the panel rule, which the cache keeps
    assert peak(1000) <= 2 * peak(22)


# ---------------------------------------------------------------------------
# the gauss window of a one-chunk schedule, shared
# ---------------------------------------------------------------------------

_SCHEDULES = {"default": DEFAULT_SCHEDULE, "benchmark": (0.5, 0.3, 0.2, 0.1, 0.05, 0.02),
              "long": _LONG}


def _hex(res):
    return [(e.hex(), q.hex()) for e, q in res.schedule]


@pytest.mark.parametrize("schedule", _SCHEDULES.values(), ids=_SCHEDULES)
@pytest.mark.parametrize("window", ["gauss", "plain"])
@pytest.mark.parametrize("theorem_id,params,family", _ENGINES, ids=[e[0] for e in _ENGINES])
def test_cached_quotients_equal_uncached_ones_bitwise(monkeypatch, theorem_id, params,
                                                      family, window, schedule):
    run = lambda: _hex(estimate_sharpness(theorem_id, params, family, schedule, window))
    _shared_gauss_window.cache_clear()
    computed = run()
    cached = run()
    monkeypatch.setattr(sharpness, "_shared_gauss_window", _shared_gauss_window.__wrapped__)
    assert computed == cached == run()


def _gauss_center(theorem_id, params):
    """The centre of the engine's gauss window, as a function of epsilon."""
    if theorem_id == "landau_log":
        return lambda e: -(6.0 / e + (2.0 + 0.08 / e))
    if theorem_id == "landau_superweight":
        if params.theta2 >= 0.0:
            return lambda e: math.log(20.0) + 6.0 / e
        return lambda e: math.log(0.05) - 6.0 / e
    return lambda e: 0.0


def _superweight_quotients(res, window):
    sw = res.params["weights"]
    t2, t3 = sw["theta2"], sw["theta3"]
    G = lambda u: np.exp(t3 * np.logaddexp(math.log(sw["a"]) - t2 * u, math.log(sw["b"])))
    return _power_quotient(0.0, window, G=G,
                           c=0.5 * (t2 * t3 - 2.0 * sw["theta4"])).tolist()


def _kernel(res, window):
    """The engine's kernel on window: the power weights add their constant."""
    if res.theorem_id == "landau_log":
        return sharpness._log_quotient(window).tolist()
    if res.theorem_id == "landau_superweight":
        return _superweight_quotients(res, window)
    return _power_quotient(res.sharp_constant, window).tolist()


@pytest.mark.parametrize("schedule", _SCHEDULES.values(), ids=_SCHEDULES)
@pytest.mark.parametrize("theorem_id,params,family", _ENGINES, ids=[e[0] for e in _ENGINES])
def test_gauss_quotients_are_the_kernel_on_a_fresh_window(theorem_id, params, family,
                                                          schedule):
    # the gauss window reads no cutoff and nothing of the run but epsilon and
    # its centre; on each chunk, the engine's kernel on a fresh window gives
    # the same bits, and the base a power weight adds is its constant
    _shared_gauss_window.cache_clear()
    res = estimate_sharpness(theorem_id, params, family, schedule)
    center = _gauss_center(theorem_id, params)
    want = []
    for i in range(0, len(schedule), _CHUNK):
        e = np.array(schedule[i:i + _CHUNK])[:, None]
        want += _kernel(res, _gauss_window(e, center(e)))
    assert [q.hex() for _, q in res.schedule] == [q.hex() for q in want]


def _count_windows(monkeypatch):
    """The list that gains the window's name on each window evaluation."""
    calls = []
    for name in ("_gauss_window", "_plain_window"):
        fn = getattr(sharpness, name)
        monkeypatch.setattr(sharpness, name,
                            lambda *a, name=name, fn=fn, **k: calls.append(name) or fn(*a, **k))
    return calls


@pytest.mark.parametrize("window", ["gauss", "plain"])
@pytest.mark.parametrize("theorem_id,params,family", _ENGINES, ids=[e[0] for e in _ENGINES])
def test_a_long_schedule_computes_every_chunk_and_keeps_no_window(
        monkeypatch, theorem_id, params, family, window):
    # a schedule longer than one chunk would evict its own chunks before it
    # came back to them, and a plain window's bounds read the cutoff, so
    # every run of either computes each chunk
    _shared_gauss_window.cache_clear()
    calls = _count_windows(monkeypatch)
    first = estimate_sharpness(theorem_id, params, family, _LONG, window)
    again = estimate_sharpness(theorem_id, params, family, _LONG, window)
    assert calls == [f"_{window}_window"] * 6   # chunks of 22, 22 and 6, twice
    assert _shared_gauss_window.cache_info().currsize == 0
    assert _hex(again) == _hex(first)


# the superweight draws of both signs of theta2; two of each
_SUPERWEIGHTS = [SuperweightParams(1.0, 1.0, -2.0, 1.0, -2.0),
                 SuperweightParams(0.7, 1.3, -1.1, 0.8, -1.9),
                 SuperweightParams(1.0, 1.0, 2.0, -1.0, -1.5),
                 SuperweightParams(0.4, 1.8, 0.9, -1.2, -1.0)]


def test_a_one_chunk_pass_builds_one_gauss_window_per_centre_list(monkeypatch):
    # a gauss window reads epsilon and its centre only, so on a one-chunk
    # schedule the runs with one centre list share a window: 0 for the three
    # power weights, the logarithmic weight's, and the superweight's at each
    # sign of theta2.  Each run still evaluates its own kernel on it, bit for
    # bit as on a fresh window, and a plain run computes its own window.
    _shared_gauss_window.cache_clear()
    calls = _count_windows(monkeypatch)
    schedule, fam = _SCHEDULES["benchmark"], _ENGINES[-1][2]
    runs = _ENGINES[:-1] + [("landau_superweight", sw, fam) for sw in _SUPERWEIGHTS]
    gauss = [estimate_sharpness(theorem_id, params, family, schedule)
             for theorem_id, params, family in runs]
    for theorem_id, params, family in runs:
        estimate_sharpness(theorem_id, params, family, schedule, "plain")
    assert calls.count("_gauss_window") == 4
    assert calls.count("_plain_window") == len(runs)
    info = _shared_gauss_window.cache_info()
    assert (info.misses, info.currsize, info.maxsize) == (4, 4, 4)
    assert len({tuple(_hex(res)) for res in gauss}) == len(runs)
    e = np.array(schedule)[:, None]
    for (theorem_id, params, _), res in zip(runs, gauss):
        center = _gauss_center(theorem_id, params)
        assert [q.hex() for _, q in res.schedule] == [
            q.hex() for q in _kernel(res, _gauss_window(e, center(e)))]
        for arr in _shared_gauss_window(schedule, tuple(map(center, schedule))):
            assert not arr.flags.writeable
    assert _shared_gauss_window.cache_info().misses == 4


# ---------------------------------------------------------------------------
# the verdict
# ---------------------------------------------------------------------------

def test_the_verdict_does_not_depend_on_the_order_of_the_schedule():
    theorem_id, params, family = _ENGINES[0]
    verdicts = {estimate_sharpness(theorem_id, params, family, order).passed()
                for order in itertools.permutations((0.05, 0.2, 0.5))}
    assert verdicts == {True}
    # a quotient that rises as epsilon shrinks fails in every order
    rising = [(0.5, 1.1), (0.2, 1.2), (0.1, 1.05)]
    assert {SharpnessResult(theorem_id, list(order), 1.0).passed()
            for order in itertools.permutations(rising)} == {False}


@pytest.mark.parametrize("window", ["gauss", "plain"])
def test_non_finite_epsilons_are_refused(window):
    theorem_id, params, family = _ENGINES[2]
    for eps in (math.nan, math.inf):
        with pytest.raises(DomainError, match="schedule must be finite"):
            estimate_sharpness(theorem_id, params, family, (0.5, eps), window)


@pytest.mark.parametrize("theorem_id,params,family", _ENGINES, ids=[e[0] for e in _ENGINES])
def test_a_window_that_overflows_is_a_non_finite_error(theorem_id, params, family):
    # 6/eps overflows the gauss plateau; e^(eps u) overflows the plain window
    for eps, window in ((1e-320, "gauss"), (1e300, "plain")):
        with pytest.raises(NonFiniteError, match=re.escape(f"epsilon {eps!r}")):
            estimate_sharpness(theorem_id, params, family, (0.5, eps), window)


# ---------------------------------------------------------------------------
# reduced engine vs full quadrature on the same plain-window trial
# ---------------------------------------------------------------------------

def test_plain_window_matches_radial_hardy_quadrature():
    eps = 0.1
    fam = TrialFamily("rho_power", eps, (0.5, 2.0))
    engine = estimate_sharpness(
        "radial_hardy", {"geom": GEOM, "exps": FLAT}, fam,
        schedule=(eps,), window="plain").schedule[0][1]
    f = make_trial(fam, GEOM, FLAT)
    rep = verify_radial_hardy(GEOM, FLAT, f, QuadratureSpec(n_r=512, n_phi=8, n_y=256))
    # the shell profile is smooth but not a tensor product in (r, y), so the
    # 2-D rule converges slowly compared with the exact 1-D reduction
    assert _rel(engine, rep.ratio) <= 1e-5


def test_plain_window_matches_power_weight_quadrature():
    t1, eps = 1.2, 0.05
    fam = TrialFamily("inverse_power", eps, (0.5, 2.0), exponent=eps - t1)
    engine = estimate_sharpness(
        "landau_hardy_sobolev", {"theta1": t1}, fam,
        schedule=(eps,), window="plain").schedule[0][1]
    rep = verify_landau("hardy_sobolev", NO_PSI, t1, make_trial(fam),
                        QuadratureSpec(n_r=512, n_phi=8, n_y=4))
    assert _rel(engine, rep.ratio) <= 1e-10


def test_plain_window_matches_log_weight_quadrature():
    eps = 0.05
    fam = TrialFamily("log_power", eps, (0.05, 0.9), exponent=-0.5 + eps)
    engine = estimate_sharpness(
        "landau_log", None, fam, schedule=(eps,), window="plain").schedule[0][1]
    rep = verify_landau("log", NO_PSI, None, make_trial(fam),
                        QuadratureSpec(n_r=512, n_phi=8, n_y=4))
    assert _rel(engine, rep.ratio) <= 1e-10


def test_plain_window_matches_superweight_quadrature():
    sw = SuperweightParams(1.0, 1.0, -2.0, 1.0, -2.0)
    c = 0.5 * (sw.theta2 * sw.theta3 - 2.0 * sw.theta4)
    eps = 0.05
    fam = TrialFamily("power", eps, (0.002, 0.04), exponent=-c + eps)
    engine = estimate_sharpness(
        "landau_superweight", sw, fam,
        schedule=(eps,), window="plain").schedule[0][1]
    rep = verify_landau("superweight", NO_PSI, sw, make_trial(fam),
                        QuadratureSpec(n_r=512, n_phi=8, n_y=4))
    assert _rel(engine, rep.ratio) <= 1e-10


# ---------------------------------------------------------------------------
# bookkeeping and guards
# ---------------------------------------------------------------------------

def test_default_schedule_used_and_recorded():
    res = estimate_sharpness(
        "landau_hardy_sobolev", {"theta1": 1.0},
        TrialFamily("inverse_power", 0.02, (0.5, 2.0)))
    assert tuple(e for e, _ in res.schedule) == DEFAULT_SCHEDULE
    assert res.params["window"] == "gauss"
    assert res.params["family"] == "inverse_power"
    assert res.best_quotient == min(q for _, q in res.schedule)
    assert res.gap == pytest.approx(
        (res.best_quotient - res.sharp_constant) / res.sharp_constant)


def test_family_mismatch_is_rejected():
    with pytest.raises(AdmissibilityError):
        estimate_sharpness("radial_hardy", {"geom": GEOM, "exps": FLAT},
                           TrialFamily("log_power", 0.1, (0.05, 0.9)))
    with pytest.raises(AdmissibilityError):
        estimate_sharpness("landau_log", None,
                           TrialFamily("power", 0.1, (0.5, 2.0)))


def test_unknown_theorem_and_window_and_schedule():
    fam = TrialFamily("rho_power", 0.1, (0.5, 2.0))
    with pytest.raises(AdmissibilityError):
        estimate_sharpness("grushin_ibp", {"geom": GEOM, "exps": FLAT}, fam)
    with pytest.raises(DomainError):
        estimate_sharpness("radial_hardy", {"geom": GEOM, "exps": FLAT}, fam,
                           window="hann")
    with pytest.raises(DomainError):
        estimate_sharpness("radial_hardy", {"geom": GEOM, "exps": FLAT}, fam,
                           schedule=())
    with pytest.raises(DomainError):
        estimate_sharpness("radial_hardy", {"geom": GEOM, "exps": FLAT}, fam,
                           schedule=(0.1, -0.2))


def test_log_plain_window_needs_unit_disc_cutoffs():
    fam = TrialFamily("log_power", 0.1, (0.5, 2.0))
    with pytest.raises(AdmissibilityError):
        estimate_sharpness("landau_log", None, fam, window="plain")


def test_inadmissible_parameters_are_rejected():
    thin = GrushinGeometry(m=2, k=1, gamma=1.0)
    bad = WeightExponents(alpha1=-4.0, alpha2=0.0)  # Q + a1 - 2 = -2
    with pytest.raises(AdmissibilityError):
        estimate_sharpness("radial_hardy", {"geom": thin, "exps": bad},
                           TrialFamily("rho_power", 0.1, (0.5, 2.0)))
    # m + gamma*alpha2 = -1, which verify_radial_hardy refuses too
    low = WeightExponents(alpha1=0.0, alpha2=-3.0)
    for tid, params in (("radial_hardy", {"geom": thin, "exps": low}),
                        ("magnetic_grushin", {"geom": thin, "exps": low,
                                              "flux": FluxParam(0.5)})):
        with pytest.raises(AdmissibilityError, match=r"m \+ gamma\*alpha2"):
            estimate_sharpness(tid, params, TrialFamily("rho_power", 0.1, (0.5, 2.0)))
    with pytest.raises(AdmissibilityError):
        estimate_sharpness("landau_hardy_sobolev", {"theta1": 0.0},
                           TrialFamily("inverse_power", 0.1, (0.5, 2.0)))
    with pytest.raises(AdmissibilityError):
        estimate_sharpness("landau_superweight", {"theta2": -2.0},
                           TrialFamily("power", 0.1, (0.5, 2.0)))
    with pytest.raises(AdmissibilityError):
        # 2*theta4 > theta2*theta3 makes the printed constant negative
        estimate_sharpness("landau_superweight",
                           SuperweightParams(1.0, 1.0, -2.0, 1.0, 1.0),
                           TrialFamily("power", 0.1, (0.5, 2.0)))


@pytest.mark.parametrize("theorem_id", ["radial_hardy", "magnetic_grushin"])
def test_the_first_kind_condition_and_the_flux_are_checked_once_per_run(monkeypatch,
                                                                        theorem_id):
    from maghardy import errors
    from maghardy.verifiers import grushin

    calls = {"exponent": 0, "flux": 0}
    exponent, require_param = grushin._first_kind_exponent, errors.require_param

    def counting_exponent(*args):
        calls["exponent"] += 1
        return exponent(*args)

    def counting_param(what, name, *args):
        calls["flux"] += name == "flux"
        return require_param(what, name, *args)

    monkeypatch.setattr(grushin, "_first_kind_exponent", counting_exponent)
    monkeypatch.setattr("maghardy.verifiers._grids.require_param", counting_param)
    params = {"geom": GEOM, "exps": FLAT, "flux": FluxParam(0.5)}
    res = estimate_sharpness(theorem_id, params, TrialFamily("rho_power", 0.1, (0.5, 2.0)))
    assert calls == {"exponent": 1, "flux": int(theorem_id == "magnetic_grushin")}
    assert res.sharp_constant == (1.0 if theorem_id == "radial_hardy" else 1.25)


def test_the_magnetic_engine_refuses_a_missing_flux():
    with pytest.raises(AdmissibilityError, match="flux"):
        estimate_sharpness("magnetic_grushin", {"geom": GEOM, "exps": FLAT},
                           TrialFamily("rho_power", 0.1, (0.5, 2.0)))


def test_make_trial_guards():
    fam = TrialFamily("rho_power", 0.1, (0.5, 2.0))
    with pytest.raises(DomainError):
        make_trial(fam)  # needs geometry + exponents
    with pytest.raises(DomainError):
        TrialFamily("witch_hat", 0.1, (0.5, 2.0))
    with pytest.raises(DomainError):
        TrialFamily("power", -0.1, (0.5, 2.0))
    with pytest.raises(DomainError):
        TrialFamily("power", 0.1, (2.0, 0.5))
