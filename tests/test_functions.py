"""Test-function library: windows, profiles, mode sums, and their partials."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maghardy import GrushinGeometry, Point, TrialFamily, WeightExponents
from maghardy.errors import AdmissibilityError, DomainError
from maghardy.fields import RadialPotential
from maghardy.functions import (
    _EDGE_EPS,
    _plateau,
    _step,
    AbsLogPowerWindow,
    AngularMode,
    GaussBumpY,
    GaussTail,
    PlateauBumpY,
    PlateauLogBump,
    PowerLogWindow,
    ProductProfile,
    RhoShellProfile,
    TestFunction,
    evaluate,
    make_bump,
    make_trial,
    plateau_breaks,
    plateau_panels,
    plateau_rule,
    random_test_function,
)
from maghardy.quadrature import (
    QuadratureSpec,
    _reference_rule,
    gauss_panels,
    log_radial_rule,
    tensor_grid,
)
from maghardy.verifiers._grids import support_domain
from maghardy.verifiers.sharpness import DEFAULT_SCHEDULE, _PANEL_N


def central_diff(fn, t, h):
    return (fn(t + h) - fn(t - h)) / (2.0 * h)


def value(factor, t):
    """The value half of a factor's (value, derivative) pair."""
    return factor.both(t)[0]


# --- smoothstep edge --------------------------------------------------------

def _step_reference(t):
    """_step as it was before it ran on the ramp only: every node, one clip."""
    t = np.asarray(t, dtype=float)
    tc = np.minimum(np.maximum(t, _EDGE_EPS), 1.0 - _EDGE_EPS)
    tm = 1.0 - tc
    a = np.exp(-1.0 / tc)
    b = np.exp(-1.0 / tm)
    ab = a + b
    d = a * b * (1.0 / tc**2 + 1.0 / tm**2) / ab**2
    low, high = t <= _EDGE_EPS, t >= 1.0 - _EDGE_EPS
    return np.where(low, 0.0, np.where(high, 1.0, a / ab)), np.where(low | high, 0.0, d)


def _assert_step_bits(t):
    for new, ref in zip(_step(t), _step_reference(t)):
        assert new.shape == ref.shape and new.dtype == ref.dtype == np.float64
        assert np.array_equal(new.view(np.uint64), ref.view(np.uint64))


def _edge_arguments(u, lo, hi):
    """The t of the rising and the falling edge of a plateau on [lo, hi]."""
    q = 0.25 * (hi - lo)
    return (u - lo) / q, (hi - u) / q


def test_step_matches_its_reference_bitwise_at_the_junctions():
    t = np.array([0.0, -0.0, _EDGE_EPS, 1.0 - _EDGE_EPS, 1.0, np.nextafter(_EDGE_EPS, 1.0),
                  np.nextafter(1.0 - _EDGE_EPS, 0.0), 0.5, -1e-300, -0.25, -7.0,
                  1.0 + 1e-16, 1.5, 1e300, np.nan, np.inf, -np.inf])
    _assert_step_bits(t)
    s, d = _step(t)
    assert np.isnan(s[-3]) and np.isnan(d[-3])
    assert list(s[[0, 2, 4, -1]]) == [0.0, 0.0, 1.0, 0.0]
    assert not np.any(d[[0, 1, 2, 3, 4, -2, -1]])
    _assert_step_bits(np.float64(0.3))


def _margins_grids():
    # radial nodes as a column in u = log r, y nodes as a row, each split at
    # the plateau breaks like the margins grids
    r_lo, r_hi = 0.5, 2.0
    lo, hi = math.log(r_lo), math.log(r_hi)
    r, _ = log_radial_rule(r_lo, r_hi, 48, PlateauLogBump(r_lo, r_hi).breaks)
    yield from _edge_arguments(np.log(r)[:, None], lo, hi)
    y, _ = gauss_panels((-1.0, *plateau_breaks(-1.0, 1.0), 1.0), 12)
    yield from _edge_arguments(y[None, :], -1.0, 1.0)


@pytest.mark.parametrize("t", [*_margins_grids()], ids=["r_up", "r_down", "y_up", "y_down"])
def test_step_matches_its_reference_bitwise_on_the_grids(t):
    _assert_step_bits(t)
    ramp = (t > _EDGE_EPS) & (t < 1.0 - _EDGE_EPS)
    assert 0 < ramp.sum() < t.size


@pytest.mark.parametrize("n", [_PANEL_N, 7])
def test_step_matches_its_reference_bitwise_on_the_table_argument(n):
    # plateau_panels steps (1 + xi) / 2, the first panel's nodes, every one
    # on the ramp (at n = 7 one is exactly 1/2)
    t = 0.5 * (1.0 + _reference_rule(n)[0])
    _assert_step_bits(t)
    assert np.all((t > _EDGE_EPS) & (t < 1.0 - _EDGE_EPS))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64), max_size=40))
def test_step_matches_its_reference_bitwise_on_any_floats(values):
    _assert_step_bits(np.array(values, dtype=float))


# --- radial windows ---------------------------------------------------------

def test_plateau_window_range_and_support():
    w = PlateauLogBump(0.5, 2.0)
    r = np.geomspace(0.5001, 1.9999, 200)
    v = value(w, r)
    assert np.all((v >= 0.0) & (v <= 1.0))
    assert np.all(v[(r > 0.9) & (r < 1.1)] > 0.999)  # flat top in the middle
    assert value(w, np.array([0.4, 2.5])).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("window", [
    PlateauLogBump(0.5, 2.0),
    PowerLogWindow(-0.7, 0.5, 2.0),
    PowerLogWindow(1.3, 0.2, 5.0),
    AbsLogPowerWindow(-0.5, 0.05, 0.9),
    GaussTail(),
])
def test_window_derivative_matches_fd(window):
    lo, hi = window.r_lo, window.r_hi
    # deep interior of the support, away from the cutoff corners
    r = np.geomspace(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo), 60)
    h = 1e-6 * r
    fd = (value(window, r + h) - value(window, r - h)) / (2.0 * h)
    an = window.both(r)[1]
    scale = float(np.max(np.abs(an))) or 1.0
    assert float(np.max(np.abs(an - fd))) <= 1e-7 * scale


# --- the plateau on its own panels ------------------------------------------

# Worst measured disagreement of plateau_rule with _plateau, relative to
# the largest |p| or |dp/du| of a window: 1.8e-15 (values) and 4.4e-15
# (derivatives), over the gauss windows of every engine's centre at the
# default, the benchmark's and a 50-point schedule and the plain windows of
# every engine.  It comes from the roundoff of t = (u - lo) / q, a few ulps
# of |lo| / q.
_TABLE_REL = 1e-14


def _assert_table_matches_plateau(lo, hi):
    """plateau_rule against _plateau on the panels of [lo, hi]: rows of
    column edges, or one row of float edges."""
    n = _PANEL_N
    u, w, p, dp = plateau_rule(lo, hi, n)
    u_ref, w_ref = gauss_panels((lo, *plateau_breaks(lo, hi), hi), n)
    assert np.array_equal(u, u_ref) and np.array_equal(w, w_ref)
    assert p is plateau_panels(n)[0]
    plat, dplat = _plateau(u, lo, hi)
    for table, ref in ((p, plat), (dp, dplat)):
        scale = np.max(np.abs(ref), axis=-1)
        assert np.all(np.max(np.abs(table - ref), axis=-1) <= _TABLE_REL * scale)
    # the middle panel is exactly flat for _plateau too
    assert np.all(plat[..., n:2 * n] == 1.0) and np.all(dplat[..., n:2 * n] == 0.0)
    return u


@pytest.mark.parametrize("lo, hi", [(-120.0, 120.0), (-1210.0, -10.0),
                                    (math.log(0.002), math.log(0.04)),
                                    (math.log(-math.log(0.9)), math.log(-math.log(0.05)))],
                         ids=["gauss", "gauss_far", "plain", "plain_log"])
def test_plateau_table_matches_the_plateau_on_float_edges(lo, hi):
    _assert_table_matches_plateau(lo, hi)


def test_plateau_table_matches_the_plateau_on_a_gauss_chunk():
    eps = np.array(DEFAULT_SCHEDULE + (0.01,))[:, None]
    u = _assert_table_matches_plateau(-6.0 / eps, 6.0 / eps)
    assert u.shape == (6, 3 * _PANEL_N)


@pytest.mark.parametrize("n", [_PANEL_N, 7])
def test_plateau_table_panels(n):
    p, dp = plateau_panels(n)
    assert p.shape == dp.shape == (3 * n,)
    assert not (p.flags.writeable or dp.flags.writeable)
    assert plateau_panels(n)[0] is p
    # the middle panel is exactly 1 and 0
    assert np.all(p[n:2 * n] == 1.0) and np.all(dp[n:2 * n] == 0.0)
    # the first panel is the rising edge; the last, the first mirrored, is
    # bitwise the falling edge on its own argument (1 - xi) / 2
    xi = _reference_rule(n)[0]
    s, ds = _step(0.5 * (1.0 + xi))
    assert np.array_equal(p[:n], s) and np.array_equal(dp[:n], ds)
    s, ds = _step(0.5 * (1.0 - xi))
    assert np.array_equal(p[2 * n:], s) and np.array_equal(dp[2 * n:], -ds)
    assert np.array_equal(p[2 * n:], p[:n][::-1])


# --- plateau factors on the main engine's rule read the table ----------------

def _rule_cases():
    """(name, f) of every kind of plateau factor on its own panels: the
    radial bump and power window on the r rule, and the plateau and
    Gaussian y bumps on whole (off-centre) and folded (symmetric) boxes,
    at k = 1 and k = 2."""
    def gauss_f(radial, boxes, a=0.6):
        return TestFunction([AngularMode(0, ProductProfile(
            radial, tuple(GaussBumpY(lo, hi, a=a) for lo, hi in boxes)))])

    bump = PlateauLogBump(0.4, 1.3)
    return {
        "radial bump": make_bump(0.5, 2.0),
        "power window": make_trial(TrialFamily("power", 0.1, (0.3, 3.0), exponent=-0.7)),
        "plateau k=1 folded": make_bump(0.5, 2.0, [(-1.0, 1.0)]),
        # off-centre, which no workload draws: the whole box
        "plateau k=1 off-centre": make_bump(0.5, 2.0, [(-1.0, 2.0)]),
        "plateau k=2 folded": make_bump(0.5, 2.0, [(-1.0, 1.0), (-2.5, 2.5)]),
        "plateau k=2 off-centre": make_bump(0.5, 2.0, [(-1.0, 2.0), (-1.5, 0.5)]),
        "gauss k=1 folded": gauss_f(bump, [(-1.5, 1.5)]),
        "gauss k=1 off-centre": gauss_f(bump, [(0.2, 2.2)]),
        "gauss k=2 folded": gauss_f(bump, [(-1.5, 1.5), (-0.5, 0.5)]),
        "gauss k=2 off-centre": gauss_f(bump, [(-3.0, 1.0), (-0.5, 0.5)]),
        "random k=2": random_test_function(np.random.default_rng(4), k=2, modes=(-1, 0, 2)),
    }


_RULE_CASES = _rule_cases()


@pytest.mark.parametrize("n_r, n_y", [(48, 12), (16, 7)], ids=["margins", "odd n_y"])
@pytest.mark.parametrize("case", sorted(_RULE_CASES))
def test_factors_on_their_own_panels_read_the_table(monkeypatch, case, n_r, n_y):
    # each factor as factors_on_rule gives it on the main engine's grid,
    # against its both on the same nodes, within plateau_rule's bound
    from maghardy import functions
    f = _RULE_CASES[case]
    spec, domain = QuadratureSpec(n_r=n_r, n_y=n_y), support_domain(f)
    assert domain.y_even == ("off-centre" not in case)   # k = 0 counts as even
    r, _, Y, _ = tensor_grid(spec, domain)
    plateaus = []
    plateau = functions._plateau
    monkeypatch.setattr(functions, "_plateau", lambda *a: plateaus.append(1) or plateau(*a))
    memo = f.factors_on_rule(r, Y, domain, spec)(r[:, None])
    assert plateaus == []   # every factor read its table
    monkeypatch.undo()
    factors = {(id(factor), axis): factor for m in f.modes for factor, axis in m.profile.factors}
    assert memo.keys() == factors.keys()
    for (key, axis), factor in factors.items():
        t = r[:, None] if axis == "r" else Y[None, :, axis]
        for got, want in zip(memo[key, axis], factor.both(t), strict=True):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= _TABLE_REL * np.max(np.abs(want))


def test_a_plateau_factor_reads_the_table_itself():
    # the values are the table's own entries: all 3 n on the r rule and an
    # off-centre box, the nonnegative tail on a folded axis
    n = 12
    table = plateau_panels(n)[0]
    for f, axis, size in ((make_bump(0.5, 2.0), "r", 3 * n),
                          (make_bump(0.5, 2.0, [(-1.0, 2.0)]), 0, 3 * n),
                          (make_bump(0.5, 2.0, [(-1.0, 1.0)]), 0, 3 * n // 2)):
        domain = support_domain(f)
        spec = QuadratureSpec(n_r=n, n_y=n)
        r, _, Y, _ = tensor_grid(spec, domain)
        factor = dict((a, fa) for fa, a in f.modes[0].profile.factors)[axis]
        t = r if axis == "r" else Y[:, axis]
        value = factor.on_rule(t, (domain.r_lo, domain.r_hi, domain.r_breaks)
                               if axis == "r" else domain.y_box[axis], n)[0]
        assert value.size == size and np.shares_memory(value, table)
        assert np.array_equal(value, table[3 * n - size:])


def test_a_factor_off_its_own_panels_keeps_both():
    # a two-mode f with different radial bumps: the domain's panels are the
    # union's, so neither bump reads the table, and each runs both on the
    # whole rule once; a y box wider than the factor's own does the same
    inner, outer = PlateauLogBump(0.5, 2.0), PlateauLogBump(0.7, 3.0)
    narrow, wide = PlateauBumpY(-1.0, 1.0), PlateauBumpY(-2.0, 2.0)
    f = TestFunction([AngularMode(0, ProductProfile(inner, (narrow,))),
                      AngularMode(1, ProductProfile(outer, (wide,)))])
    spec, domain = QuadratureSpec(n_r=16, n_y=8), support_domain(f)
    r, _, Y, _ = tensor_grid(spec, domain)
    memo = f.factors_on_rule(r, Y, domain, spec)(r[:, None])
    for factor, axis in ((inner, "r"), (outer, "r"), (narrow, 0)):
        t = r[:, None] if axis == "r" else Y[None, :, axis]
        for got, want in zip(memo[id(factor), axis], factor.both(t), strict=True):
            assert np.array_equal(got, want)
    # the wide y bump's box is the domain's: it reads the table
    assert np.shares_memory(memo[id(wide), 0][0], plateau_panels(8)[0])
    assert np.max(np.abs(memo[id(wide), 0][0] - wide.both(Y[None, :, 0])[0])) <= _TABLE_REL


def test_a_margins_pass_steps_no_plateau_edge_but_the_gauss_tail(monkeypatch, tmp_path):
    # every margins draw is a plateau factor on its own panels, so once the
    # tables are built a pass evaluates no plateau edge: only GaussTail's
    # rolloff (real_landau_identity) still runs _step, as the sharpness
    # engine's schedules run none (tests/test_sharpness.py)
    import json
    import sys
    from pathlib import Path

    from maghardy import functions
    from maghardy.cli import main

    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import workloads

    paths = []
    for index in (0, 1):   # pass 0 carries the k = 2 draws
        paths.append(tmp_path / f"margins{index}.json")
        paths[-1].write_text(json.dumps(workloads.margins_config(1000 + index, index)))

    def run():
        for path in paths:
            assert main(["verify", "--config", str(path),
                         "--out", str(tmp_path / "report.json")]) in (0, 1)

    run()   # builds each node count's table
    plateaus, steps, in_tail = [], [], []
    plateau, step, tail = functions._plateau, functions._step, GaussTail.both
    monkeypatch.setattr(functions, "_plateau", lambda *a: plateaus.append(1) or plateau(*a))
    monkeypatch.setattr(functions, "_step", lambda t: steps.append(bool(in_tail)) or step(t))

    def tail_both(self, r):
        in_tail.append(1)
        try:
            return tail(self, r)
        finally:
            in_tail.pop()

    monkeypatch.setattr(GaussTail, "both", tail_both)
    run()
    assert plateaus == []
    assert steps and all(steps)   # the one GaussTail integration of each pass


def test_a_two_mode_f_on_different_bumps_keeps_the_plateau_and_its_bytes(monkeypatch):
    # the bumps' panels are not the domain's, so the main engine runs their
    # both, now once per integration on the whole rule, with the bits of
    # the per-block evaluation (factors_on_rule giving nothing to prefill)
    from maghardy import functions
    from maghardy.fields import RadialPotential as Psi
    from maghardy.verifiers.landau import verify_landau

    f = TestFunction([
        AngularMode(0, ProductProfile(PlateauLogBump(0.5, 2.0), amplitude=0.8)),
        AngularMode(2, ProductProfile(PlateauLogBump(0.7, 3.0), amplitude=0.3 - 0.4j)),
    ])

    def report():
        return verify_landau("hardy_sobolev", Psi.power(0.6, 0.8), -0.4, f,
                             QuadratureSpec(n_r=48, n_phi=12)).to_dict()

    plateaus, plateau = [], functions._plateau
    monkeypatch.setattr(functions, "_plateau", lambda *a: plateaus.append(1) or plateau(*a))
    rule_read = report()
    assert len(plateaus) == 2   # each bump once, on the whole rule
    monkeypatch.setattr(TestFunction, "factors_on_rule",
                        lambda self, *args: lambda r_block: {})
    per_block = report()
    assert rule_read == per_block and len(plateaus) == 4   # one block of the grid


def test_power_window_is_power_times_plateau():
    w = PowerLogWindow(-0.7, 0.5, 2.0)
    plat = PlateauLogBump(0.5, 2.0)
    r = np.geomspace(0.51, 1.99, 50)
    np.testing.assert_allclose(value(w, r), r ** -0.7 * value(plat, r), rtol=1e-13)


def test_gauss_tail_has_no_inner_cutoff():
    g = GaussTail(a=0.5, fall=6.0, r_hi=8.0)
    r = np.array([1e-6, 1e-3, 0.1, 1.0, 3.0])
    np.testing.assert_allclose(value(g, r), np.exp(-0.5 * r * r), rtol=1e-12)
    assert value(g, np.array([8.5]))[0] == 0.0
    assert g.breaks == (6.0,)
    with pytest.raises(DomainError):
        GaussTail(fall=9.0, r_hi=8.0)


def test_abs_log_window_blows_up_like_given_power():
    w = AbsLogPowerWindow(-0.5, 0.05, 0.9)
    # plateau is 1 only over the middle of the support (log-log scale)
    r = np.array([0.3, 0.45, 0.6])
    expect = np.abs(np.log(r)) ** -0.5
    np.testing.assert_allclose(value(w, r), expect, rtol=1e-9)


# --- y factors and product profiles ----------------------------------------

def test_y_bumps_vanish_at_endpoints():
    for yf in (PlateauBumpY(-1.0, 2.0), GaussBumpY(-1.0, 2.0, a=0.7)):
        assert value(yf, np.array([-1.0]))[0] == 0.0
        assert value(yf, np.array([2.0]))[0] == 0.0
        assert value(yf, np.array([0.5]))[0] > 0.0


def _val(prof, r, y):
    return prof.on_grid(r, y)[0]


def test_product_profile_partials_match_fd():
    prof = ProductProfile(PlateauLogBump(0.5, 2.0),
                          (GaussBumpY(-1.0, 1.0), PlateauBumpY(0.0, 2.0)),
                          amplitude=1.7)
    rng = np.random.default_rng(4)
    r = rng.uniform(0.8, 1.6, size=40)
    y = np.stack([rng.uniform(-0.5, 0.5, 40), rng.uniform(0.6, 1.4, 40)], axis=-1)
    h = 1e-6
    _, g_r, g_y = prof.on_grid(r, y)
    fd_r = (_val(prof, r + h, y) - _val(prof, r - h, y)) / (2 * h)
    np.testing.assert_allclose(g_r, fd_r, atol=1e-7)
    for j in range(2):
        dy = np.zeros_like(y)
        dy[:, j] = h
        fd_y = (_val(prof, r, y + dy) - _val(prof, r, y - dy)) / (2 * h)
        np.testing.assert_allclose(g_y[:, j], fd_y, atol=1e-7)


def test_rho_shell_profile_constant_on_shell():
    geom = GrushinGeometry(2, 1, 1.0)
    prof = RhoShellProfile(geom, 0.0, 0.5, 2.0)
    # with sigma = 0 the value depends only on rho: pick two points on the
    # same gauge sphere and compare
    r1, y1 = 1.0, np.array([[0.0]])
    rho1 = (r1 ** 4) ** 0.25
    y2 = np.array([[rho1 ** 2 / 2.0 * 0.8]])
    r2 = (rho1 ** 4 - 4.0 * y2[0, 0] ** 2) ** 0.25
    v1 = _val(prof, np.array([r1]), y1)
    v2 = _val(prof, np.array([r2]), y2)
    assert abs(v1[0] - v2[0]) <= 1e-12 * abs(v1[0])


def test_rho_shell_partials_match_fd():
    geom = GrushinGeometry(2, 1, 0.8)
    prof = RhoShellProfile(geom, -0.4, 0.5, 2.0)
    rng = np.random.default_rng(12)
    r = rng.uniform(0.7, 1.2, size=30)
    y = rng.uniform(-0.3, 0.3, size=(30, 1))
    h = 1e-6
    _, g_r, g_y = prof.on_grid(r, y)
    fd_r = (_val(prof, r + h, y) - _val(prof, r - h, y)) / (2 * h)
    np.testing.assert_allclose(g_r, fd_r, rtol=1e-6, atol=1e-8)
    dy = np.full_like(y, h)
    fd_y = (_val(prof, r, y + dy) - _val(prof, r, y - dy)) / (2 * h)
    np.testing.assert_allclose(g_y[:, 0], fd_y, rtol=1e-6, atol=1e-8)


# --- mode sums --------------------------------------------------------------

def test_make_bump_is_a_radial_test_function():
    f = make_bump(0.5, 2.0, ((-1.0, 1.0),))
    assert f.is_radial and f.k == 1 and f.max_abs_mode == 0
    r_lo, r_hi, box, breaks = f.support()
    assert (r_lo, r_hi) == (0.5, 2.0)
    assert box == ((-1.0, 1.0),)
    assert len(breaks) == 2  # plateau quarter-width edges
    assert evaluate(f, (1.0, 0.3, np.array([0.0]))) != 0.0
    assert evaluate(f, (3.0, 0.0, np.array([0.0]))) == 0.0
    assert evaluate(f, (1.0, 0.0, np.array([5.0]))) == 0.0


def test_evaluate_reads_a_profile_that_reaches_the_origin_below_its_cutoff():
    # r_lo of GaussTail and RhoShellProfile is an integration cutoff, not an
    # edge: f = e^(-r^2 / 2) is 1 at z = 0 and at |z| = 1e-9, below it
    gauss = TestFunction([AngularMode(0, ProductProfile(GaussTail()))])
    for x in ([0.0, 0.0], [1e-9, 0.0]):
        assert evaluate(gauss, Point(np.array(x), np.zeros(0))) == 1.0
    # on x = 0 the shell is (rho^-0.5 window)(rho), rho = (2 |y|)^(1/2) for
    # gamma = 1: the window is 1 on the middle half of [log 0.5, log 2]
    geom = GrushinGeometry(2, 1, 1.0)
    shell = TestFunction([AngularMode(0, RhoShellProfile(geom, -0.5, 0.5, 2.0))])
    rho = math.sqrt(2.0 * 0.6)
    got = evaluate(shell, Point(np.zeros(2), np.array([0.6])))
    assert abs(got - rho ** -0.5) <= 1e-15
    assert abs(got - 0.955) <= 1e-3
    # its gauge origin rho = 0 lies outside the shell: 0, with no
    # RuntimeWarning from log(0) (warnings fail the suite)
    assert evaluate(shell, Point(np.zeros(2), np.zeros(1))) == 0.0
    # a profile that stops at r_lo is still 0 below it
    assert evaluate(make_bump(0.5, 2.0), (0.25, 0.0, np.zeros(0))) == 0.0


def test_test_function_rejects_bad_mode_sets():
    prof = ProductProfile(PlateauLogBump(0.5, 2.0))
    with pytest.raises(DomainError):
        TestFunction([AngularMode(0, prof), AngularMode(0, prof)])
    prof1 = ProductProfile(PlateauLogBump(0.5, 2.0), (GaussBumpY(-1, 1),))
    with pytest.raises(DomainError):
        TestFunction([AngularMode(0, prof), AngularMode(1, prof1)])
    with pytest.raises(AdmissibilityError, match="mode"):
        AngularMode(1.5, prof)


def test_mode_sum_value_is_fourier_sum():
    p0 = ProductProfile(PlateauLogBump(0.5, 2.0))
    p1 = ProductProfile(PowerLogWindow(-0.3, 0.5, 2.0), amplitude=0.4)
    f = TestFunction([AngularMode(0, p0), AngularMode(2, p1)])
    r = np.array([1.1])
    y = np.zeros((1, 0))
    for phi in (0.0, 1.0, 2.5):
        want = _val(p0, r, y) + _val(p1, r, y) * np.exp(2j * phi)
        got = f.value_polar(r, phi, y)
        assert abs(got[0] - want[0]) <= 1e-14 * abs(want[0])


def test_partials_polar_match_fd_in_r_and_phi():
    rng = np.random.default_rng(8)
    f = random_test_function(rng, k=1, modes=(-1, 0, 2))
    r_lo, r_hi, box, _ = f.support()
    r = np.geomspace(r_lo * 1.3, r_hi / 1.3, 25)
    y = np.tile(np.array([[0.5 * (box[0][0] + box[0][1])]]), (25, 1))
    phi = 0.7
    h = 1e-6
    fr, fphi, fy = f.partials_polar(r, phi, y)
    fd_r = (f.value_polar(r + h, phi, y) - f.value_polar(r - h, phi, y)) / (2 * h)
    fd_phi = (f.value_polar(r, phi + h, y) - f.value_polar(r, phi - h, y)) / (2 * h)
    scale = float(np.max(np.abs(f.value_polar(r, phi, y)))) or 1.0
    assert float(np.max(np.abs(fr - fd_r))) <= 1e-5 * scale
    assert float(np.max(np.abs(fphi - fd_phi))) <= 1e-6 * scale
    dy = np.full_like(y, h)
    fd_y = (f.value_polar(r, phi, y + dy) - f.value_polar(r, phi, y - dy)) / (2 * h)
    assert float(np.max(np.abs(fy[:, 0] - fd_y))) <= 1e-5 * scale


def test_angular_average_is_mode_zero():
    # the zeroth angular mode that ab_hardy and the Landau checks subtract:
    # at any angle and on mode 0 itself; on every other mode it is 0
    rng = np.random.default_rng(21)
    f = random_test_function(rng, k=0, modes=(-1, 0, 1))
    r = np.array([1.0])
    y = np.zeros((1, 0))
    phis = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    mean = np.mean([f.value_polar(r, p, y)[0] for p in phis])
    on = f.on_grid(r, y)
    for x in (0.0, 2.5, f.modes[1]):
        got = on.mode_zero(x)[0]
        assert abs(got - mean) <= 1e-12 * max(1.0, abs(mean))
    assert on.mode_zero(f.modes[1]) is on(f.modes[1])[0]
    assert [on.mode_zero(m) for m in (f.modes[0], f.modes[2])] == [0.0, 0.0]
    # no mode 0: the zeroth mode is zero
    f1 = TestFunction([AngularMode(1, ProductProfile(PlateauLogBump(0.5, 2.0)))])
    on1 = f1.on_grid(r, y)
    assert on1.mode_zero(0.0) == 0.0 and on1.mode_zero(f1.modes[0]) == 0.0


def test_function_needs_a_mode():
    # f = 0 is a mode of zero amplitude, never an empty mode list
    with pytest.raises(DomainError):
        TestFunction([])


def test_a_profile_reaching_the_origin_carries_mode_zero_only():
    # |df/dphi|^2 / r^2 of mode l != 0 is not integrable where g(0, y) != 0
    geom = GrushinGeometry(2, 1, 1.0)
    shell = RhoShellProfile(geom, 0.0, 0.5, 2.0)
    tail = ProductProfile(GaussTail())
    bump = ProductProfile(PlateauLogBump(0.5, 2.0))
    for prof in (shell, tail):
        assert prof.reaches_origin
        TestFunction([AngularMode(0, prof)])
        for mode in (1, -2):
            with pytest.raises(DomainError, match="mode 0 only"):
                TestFunction([AngularMode(mode, prof)])
    assert not bump.reaches_origin
    with pytest.raises(DomainError, match="mode 0 only"):
        TestFunction([AngularMode(0, bump), AngularMode(1, tail)])
    TestFunction([AngularMode(0, tail), AngularMode(1, bump)])


# --- evaluation on a grid equals a fresh function's ---------------------------

def _grid(f, n_r=7, n_y=5, shift=0.0):
    """An integrate_polar-shaped grid (r (n_r, 1), y (1, n_y**k, k)) inside f's support."""
    r_lo, r_hi, box, _ = f.support()
    r = np.geomspace(r_lo * 1.05, r_hi / 1.05, n_r)[:, None] * (1.0 + shift)
    axes = [np.linspace(0.9 * lo, 0.9 * hi, n_y) + shift for lo, hi in box]
    if not axes:
        return r, np.zeros((1, 1, 0))
    grids = np.meshgrid(*axes, indexing="ij")
    return r, np.stack([g.reshape(-1) for g in grids], axis=-1)[None]


def _assert_same_evaluation(f, fresh, r, phi, y):
    assert np.array_equal(f.value_polar(r, phi, y), fresh().value_polar(r, phi, y))
    for got, want in zip(f.partials_polar(r, phi, y),
                         fresh().partials_polar(r, phi, y)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("modes", [(0,), (-1, 2), (-1, 0, 1)])
def test_memoised_profiles_equal_freshly_built_ones(k, modes):
    def fresh():
        return random_test_function(np.random.default_rng(31 + k), k=k, modes=modes)

    f = fresh()
    grid_a, grid_b = _grid(f), _grid(f, n_r=9, shift=0.01)
    for r, y in (grid_a, grid_b, grid_a):
        for phi in (0.0, 0.4, 2.9):
            _assert_same_evaluation(f, fresh, r, phi, y)


def test_mutating_the_grid_in_place_gives_the_new_values():
    def fresh():
        return random_test_function(np.random.default_rng(5), k=1, modes=(0, 1))

    f = fresh()
    r, y = _grid(f)
    before = f.value_polar(r, 0.3, y)
    r *= 1.02
    assert not np.array_equal(f.value_polar(r, 0.3, y), before)
    _assert_same_evaluation(f, fresh, r, 0.3, y)
    y += 0.05
    _assert_same_evaluation(f, fresh, r, 0.3, y)


# --- random draws and trial families ----------------------------------------

def test_random_test_function_is_seed_deterministic():
    a = random_test_function(np.random.default_rng(77), k=1, modes=(0, 1))
    b = random_test_function(np.random.default_rng(77), k=1, modes=(0, 1))
    r = np.array([0.9])
    y = np.array([[0.1]])
    assert a.value_polar(r, 0.3, y)[0] == b.value_polar(r, 0.3, y)[0]
    assert a.support() == b.support()


def test_random_test_function_honors_requests():
    rng = np.random.default_rng(5)
    f = random_test_function(rng, k=2, modes=(-2, 0, 1), real=False)
    assert f.k == 2 and f.max_abs_mode == 2
    fr = random_test_function(rng, k=1, modes=(0, 1), real=True)
    assert fr.real_valued and not f.real_valued
    r_lo, r_hi, _, _ = fr.support()
    assert 0.3 <= r_lo <= 1.0 and r_hi / r_lo <= 3.5 + 1e-12


def test_make_trial_families():
    geom = GrushinGeometry(2, 1, 1.0)
    exps = WeightExponents(0.0, 0.0)
    t = make_trial(TrialFamily("rho_power", 0.1, (0.5, 2.0)), geom, exps)
    assert t.is_radial and t.k == 1
    t2 = make_trial(TrialFamily("inverse_power", 0.1, (0.5, 2.0), exponent=-1.1))
    assert t2.k == 0
    t3 = make_trial(TrialFamily("log_power", 0.1, (0.05, 0.9), exponent=-0.4))
    assert t3.support()[1] <= 0.9
    with pytest.raises(DomainError):
        make_trial(TrialFamily("rho_power", 0.1, (0.5, 2.0)))  # needs geometry
    with pytest.raises(DomainError):
        make_trial(TrialFamily("no_such_family", 0.1, (0.5, 2.0)))


@given(seed=st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_random_function_support_always_valid(seed):
    f = random_test_function(np.random.default_rng(seed), k=1, modes=(0, 1))
    r_lo, r_hi, box, _ = f.support()
    assert 0.0 < r_lo < r_hi
    for lo, hi in box:
        assert lo < hi


# (label, constructor, admissible arguments by name): every number of a
# factor, of a profile's amplitude, of the y box of make_bump and of a radial
# potential goes through require_param
_FACTORS = [
    ("PlateauLogBump", PlateauLogBump, {"r_lo": 0.5, "r_hi": 2.0}),
    ("PowerLogWindow", PowerLogWindow, {"sigma": -1.0, "r_lo": 0.5, "r_hi": 2.0}),
    ("AbsLogPowerWindow", AbsLogPowerWindow, {"c": -0.5, "r_lo": 0.05, "r_hi": 0.5}),
    ("GaussTail", GaussTail, {"a": 0.5, "fall": 6.0, "r_hi": 8.0, "r_lo": 1e-8}),
    ("PlateauBumpY", PlateauBumpY, {"lo": -1.0, "hi": 1.0}),
    ("GaussBumpY", GaussBumpY, {"lo": -1.0, "hi": 1.0, "a": 1.0}),
    ("RhoShellProfile",
     lambda **kw: RhoShellProfile(GrushinGeometry(2, 1, 1.0), **kw),
     {"sigma": -1.0, "rho_lo": 0.5, "rho_hi": 2.0, "amplitude": 1.0}),
    ("ProductProfile", lambda **kw: ProductProfile(PlateauLogBump(0.5, 2.0), **kw),
     {"amplitude": 1.0}),
    ("make_bump y box", lambda lo, hi: make_bump(0.5, 2.0, ((lo, hi),)),
     {"lo": -1.0, "hi": 1.0}),
    ("RadialPotential.constant", RadialPotential.constant, {"c": 1.0}),
    ("RadialPotential.power", RadialPotential.power, {"c": 0.5, "s": 1.0}),
]
_SPOILT = [(label, make, args, name, bad, error)
           for label, make, args in _FACTORS for name in args
           for bad, error in (("1.0", AdmissibilityError), (math.nan, DomainError),
                              (math.inf, DomainError))]


@pytest.mark.parametrize("label, make, args, name, bad, error", _SPOILT,
                         ids=[f"{c[0]}-{c[3]}-{c[4]}" for c in _SPOILT])
def test_factor_constructors_read_their_numbers_through_require_param(
        label, make, args, name, bad, error):
    make(**args)
    with pytest.raises(error, match=rf"\b{name}\b"):
        make(**{**args, name: bad})


@pytest.mark.parametrize("part", [complex(math.nan, 1.0), complex(1.0, math.inf)])
def test_an_amplitude_with_a_non_finite_part_is_refused(part):
    radial = PlateauLogBump(0.5, 2.0)
    assert ProductProfile(radial, amplitude=1.5 - 2j).amplitude == 1.5 - 2j
    assert ProductProfile(radial, amplitude=np.complex128(0.5j)).amplitude == 0.5j
    with pytest.raises(DomainError, match=r"\bamplitude\b"):
        ProductProfile(radial, amplitude=part)
    with pytest.raises(DomainError, match=r"\bamplitude\b"):
        RhoShellProfile(GrushinGeometry(2, 1, 1.0), -1.0, 0.5, 2.0, amplitude=part)
