"""The y fold: a y-even test function integrated on the half box y >= 0.

Every Grushin integrand is even in each y_j when f is: B, the Hardy weight
and rho depend on y through |y|, and the odd field factors grad_y(rho)/rho
and Atilde's y block enter beside the odd grad_y f, inside a squared
modulus.  So on a y-even f the main engine keeps the nonnegative nodes of
the same Gauss rule, each node off 0 at twice its weight
(quadrature.y_box_rule), and every check reports what the whole box gives
up to roundoff.  Parity is declared by the profiles, never sampled; an f
that does not declare it runs the whole rule, and the oracle always covers
the whole box.
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from maghardy import quadrature
from maghardy.cli import _run_one, _run_seed
from maghardy.errors import DomainError
from maghardy.fields import FluxParam
from maghardy.functions import (
    AngularMode,
    GaussBumpY,
    PlateauBumpY,
    PlateauLogBump,
    ProductProfile,
    RhoShellProfile,
    TestFunction,
    make_bump,
    random_test_function,
)
from maghardy.geometry import GrushinGeometry, WeightExponents
from maghardy.quadrature import Domain, QuadratureSpec, gauss_panels, tensor_grid, y_box_rule
from maghardy.reports import jsonable
from maghardy.verifiers import _grids
from maghardy.verifiers.grushin import (
    fourier_defect_terms,
    verify_ab_hardy,
    verify_magnetic_grushin,
    verify_radial_hardy,
)

from _tolerance import assert_reports_close

REPO = Path(__file__).resolve().parents[1]
if str(REPO / "perfbench") not in sys.path:
    sys.path.insert(0, str(REPO / "perfbench"))
import workloads  # noqa: E402

# the catalogue's checks whose integrands depend on y
Y_CHECKS = {"radial_hardy", "grushin_ibp", "magnetic_grushin", "ab_hardy",
            "uncertainty_grushin", "uncertainty_ab", "constant_field"}


def _odd_n_y(run):
    """run at n_y one below its own, odd where its own is even."""
    quad = run.get("quadrature")
    if quad is None or "n_y" not in quad:
        return run
    return {**run, "quadrature": {**quad, "n_y": quad["n_y"] - 1}}


def _default_suite():
    cfg = json.loads((REPO / "scripts" / "default_suite.json").read_text())
    return [(run, _run_seed(run, i, cfg["seed"])) for i, run in enumerate(cfg["runs"])
            if "family" not in run]


def _margins():
    # 20 seeded draws; those of index 0 and 10 carry the k = 2 draws
    runs = []
    for i, seed in enumerate(range(9200, 9220)):
        cfg = workloads.margins_config(seed, i)
        runs += [(run, _run_seed(run, j, cfg["seed"])) for j, run in enumerate(cfg["runs"])]
    return runs


SOURCES = {"default suite": _default_suite, "margins": _margins}


def _report(run, i, seed):
    return json.loads(json.dumps(_run_one(run, i, seed), default=jsonable))


@pytest.mark.parametrize("parity", ["even n_y", "odd n_y"])
@pytest.mark.parametrize("source", sorted(SOURCES))
def test_folded_reports_match_the_whole_box(monkeypatch, source, parity):
    runs = SOURCES[source]()
    if parity == "odd n_y":
        runs = [(_odd_n_y(run), seed) for run, seed in runs]
    rules, fold = [], _grids.support_domain

    def spy(y_box, n_y, even=False):
        rules.append((tid, len(y_box), n_y, even))
        return y_box_rule(y_box, n_y, even)

    monkeypatch.setattr(quadrature, "y_box_rule", spy)
    folded = []
    for i, (run, seed) in enumerate(runs):
        tid = run["theorem_id"]
        folded.append(_report(run, i, seed))
    monkeypatch.setattr(_grids, "support_domain",
                        lambda f: dataclasses.replace(fold(f), y_even=False))
    whole = [_report(run, i, seed) for i, (run, seed) in enumerate(runs)]

    # every y-dependent check ran folded, on k = 1 and (margins) k = 2, and
    # on n_y of the given parity; only the whole-box pass ran unfolded
    ran = [rule for rule in rules[:len(rules) // 2] if rule[1]]
    assert {tid for tid, _, _, even in ran if even} == Y_CHECKS
    assert {k for _, k, _, even in ran if even} == ({1} if source == "default suite" else {1, 2})
    assert {n_y % 2 for *_, n_y, _ in ran} == {parity == "odd n_y"}
    assert not any(even for *_, even in rules[len(rules) // 2:])
    for want, got in zip(whole, folded, strict=True):
        assert_reports_close(want, got)


@pytest.mark.parametrize("n_y", [6, 7])
@pytest.mark.parametrize("k", [1, 2])
def test_folded_fourier_terms_match_the_whole_box(monkeypatch, k, n_y):
    f = random_test_function(np.random.default_rng(40 + k), k=k, modes=(-2, 0, 1))
    geom, exps = GrushinGeometry(2, k, 0.8), WeightExponents(0.5, 0.2)
    spec = QuadratureSpec(n_r=24, n_phi=12, n_y=n_y)
    assert f.y_even and _grids.support_domain(f).y_even
    folded = fourier_defect_terms(geom, exps, f, spec)
    fold = _grids.support_domain
    monkeypatch.setattr(_grids, "support_domain",
                        lambda f: dataclasses.replace(fold(f), y_even=False))
    assert_reports_close(fourier_defect_terms(geom, exps, f, spec), folded)


# --- the folded rule -------------------------------------------------------------

@pytest.mark.parametrize("n_y", [1, 5, 6, 12])
@pytest.mark.parametrize("half", [1.3, 0.7, 2.0 / 3.0])
def test_the_folded_rule_is_the_nonnegative_half_of_the_rule(half, n_y):
    lo, hi = -half, half
    q = 0.25 * (hi - lo)
    t, w = gauss_panels((lo, lo + q, hi - q, hi), n_y)
    # on a box symmetric about 0 the rule's nodes are antisymmetric and its
    # weights symmetric, bit for bit
    assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])
    Y, W = y_box_rule(((lo, hi),), n_y)
    assert np.array_equal(Y[:, 0], t) and np.array_equal(W, w)
    Yh, Wh = y_box_rule(((lo, hi),), n_y, even=True)
    kept = t >= 0.0
    assert Yh.shape == ((3 * n_y + 1) // 2, 1)
    assert np.array_equal(Yh[:, 0], t[kept])
    assert np.array_equal(Wh, np.where(t[kept] > 0.0, 2.0 * w[kept], w[kept]))
    assert (0.0 in Yh) == (n_y % 2 == 1)  # a node at 0, at its own weight
    assert math.fsum(Wh) == math.fsum(W)  # the same exact sum


def test_the_folded_tensor_rule_is_the_nonnegative_orthant():
    box = ((-0.7, 0.7), (-2.0, 2.0))
    Y, W = y_box_rule(box, 5)
    Yh, Wh = y_box_rule(box, 5, even=True)
    kept = (Y >= 0.0).all(axis=1)
    assert np.array_equal(Yh, Y[kept])
    # the weight of a node is doubled once per coordinate off 0
    assert np.array_equal(Wh, W[kept] * 2.0 ** (Y[kept] > 0.0).sum(axis=1))
    assert math.fsum(Wh) == pytest.approx(math.fsum(W), rel=1e-15)


def test_tensor_grid_folds_a_y_even_domain_only():
    spec = QuadratureSpec(n_r=8, n_y=6)
    for k in (0, 1, 2):
        box = ((-1.0, 1.0),) * k
        *_, Y, _ = tensor_grid(spec, Domain(0.5, 2.0, box))
        *_, Yh, _ = tensor_grid(spec, Domain(0.5, 2.0, box, y_even=True))
        assert (len(Y), len(Yh)) == (18 ** k, 9 ** k)


@pytest.mark.parametrize("n_y", [12, 7])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("gaussian_y", [True, False], ids=["gauss", "plateau"])
def test_folded_table_reads_are_the_whole_box_reads_bitwise(k, n_y, gaussian_y):
    # each y factor read from its plateau table on the folded axis has the
    # bits of its whole-box read at the nodes y >= 0: the fold keeps the
    # table's nonnegative tail, on nodes that are the whole rule's
    f = random_test_function(np.random.default_rng(50 + k), k=k, modes=(-1, 0, 2),
                             gaussian_y=gaussian_y)
    spec, folded = QuadratureSpec(n_r=12, n_y=n_y), _grids.support_domain(f)
    whole = dataclasses.replace(folded, y_even=False)
    r, _, Y, _ = tensor_grid(spec, whole)
    _, _, Yh, _ = tensor_grid(spec, folded)
    kept = (Y >= 0.0).all(axis=1)
    assert np.array_equal(Yh, Y[kept])
    half = f.factors_on_rule(r, Yh, folded, spec)(r[:, None])
    full = f.factors_on_rule(r, Y, whole, spec)(r[:, None])
    assert half.keys() == full.keys()
    y_keys = [key for key in full if key[1] != "r"]
    assert len(y_keys) == k * (3 if gaussian_y else 1)
    for key in y_keys:
        for a, b in zip(half[key], full[key], strict=True):
            assert a.shape == (1, len(Yh)) and np.array_equal(a, b[:, kept])


def test_a_y_even_domain_needs_a_box_symmetric_about_zero():
    with pytest.raises(DomainError):
        Domain(0.5, 2.0, ((-1.0, 2.0),), y_even=True)
    with pytest.raises(DomainError):
        Domain(0.5, 2.0, ((-1.0, 1.0), (0.0, 1.0)), y_even=True)


# --- declared parity ---------------------------------------------------------------

class _OddY:
    """A y factor that does not declare itself even: t times a plateau bump."""

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def both(self, t):
        p, dp = PlateauBumpY(self.lo, self.hi).both(t)
        return t * p, p + t * dp


class _Unmarked:
    """A profile that declares no parity: the wrapped profile's arrays."""

    def __init__(self, profile):
        self.inner = profile
        for name in ("r_lo", "r_hi", "y_box", "r_breaks", "reaches_origin", "k"):
            setattr(self, name, getattr(profile, name))

    def on_grid(self, r, y, memo=None):
        return self.inner.on_grid(r, y, memo)


def _bump(*y_factors, amplitude=1.0):
    return ProductProfile(PlateauLogBump(0.5, 2.0), y_factors, amplitude)


_GEOM = GrushinGeometry(2, 1, 0.8)
_EVEN = {
    "make_bump, symmetric box": make_bump(0.5, 2.0, [[-1.0, 1.0]]),
    "Gaussian y factor": TestFunction([AngularMode(1, _bump(GaussBumpY(-1.5, 1.5, 0.4)))]),
    "rho shell": TestFunction([AngularMode(0, RhoShellProfile(_GEOM, -0.5, 0.4, 2.0))]),
    "random, two modes": random_test_function(np.random.default_rng(3), k=1, modes=(0, 2)),
}
_UNFOLDED = {
    "make_bump, off-centre box": make_bump(0.5, 2.0, [[-1.0, 2.0]]),
    "mixed parity": TestFunction([AngularMode(0, _bump(PlateauBumpY(-1.0, 1.0))),
                                  AngularMode(1, _bump(PlateauBumpY(-1.0, 2.0), amplitude=0.5))]),
    "undeclared y factor": TestFunction([AngularMode(0, _bump(_OddY(-1.0, 1.0)))]),
    "unmarked profile": TestFunction([AngularMode(0, _Unmarked(_bump(PlateauBumpY(-1.0, 1.0))))]),
}


@pytest.mark.parametrize("case", sorted(_EVEN))
def test_declared_even_functions_fold(case):
    f = _EVEN[case]
    assert f.y_even and _grids.support_domain(f).y_even


@pytest.mark.parametrize("case", sorted(_UNFOLDED))
def test_an_f_not_declared_even_runs_the_whole_rule(monkeypatch, case):
    f = _UNFOLDED[case]
    assert not f.y_even and not _grids.support_domain(f).y_even
    rules = []

    def spy(y_box, n_y, even=False):
        rules.append(even)
        return y_box_rule(y_box, n_y, even)

    monkeypatch.setattr(quadrature, "y_box_rule", spy)
    spec = QuadratureSpec(n_r=16, n_phi=8, n_y=6)
    verify_ab_hardy(_GEOM, WeightExponents(0.5, 0.2), FluxParam(0.5), f, spec)
    assert rules == [False]


# --- the oracle covers the whole box ---------------------------------------------

_ORACLE_CASES = {
    "radial_hardy": lambda f, spec: verify_radial_hardy(
        _GEOM, WeightExponents(0.3, -0.2), f, spec),
    "magnetic_grushin": lambda f, spec: verify_magnetic_grushin(
        _GEOM, WeightExponents(0.5, 0.2), FluxParam(0.5), f, spec),
    "ab_hardy": lambda f, spec: verify_ab_hardy(
        _GEOM, WeightExponents(0.5, 0.2), FluxParam(0.5), f, spec),
}


@pytest.mark.parametrize("check", sorted(_ORACLE_CASES))
def test_the_oracle_certifies_the_folded_run_on_the_whole_box(monkeypatch, check):
    modes = (0,) if check == "radial_hardy" else (-1, 1)
    f = random_test_function(np.random.default_rng(11), k=1, modes=modes, real=True)
    run = _ORACLE_CASES[check]
    folded = run(f, QuadratureSpec(n_r=64, n_phi=8, n_y=48))
    seen, oracle = [], _grids.oracle_integrate

    def whole_box(density, domain, resolution):
        def spying(r, y):
            seen.append((domain.y_even, float(y.min()), float(y.max())))
            return density(r, y)
        return oracle(spying, domain, resolution)

    monkeypatch.setattr(_grids, "oracle_integrate", whole_box)
    check_rep = run(f, QuadratureSpec(n_r=96, n_phi=8, n_y=24, oracle=True))
    (lo, hi), = f.support()[2]
    assert seen and all(even for even, *_ in seen)
    assert min(a for _, a, _ in seen) == lo and max(b for *_, b in seen) == hi
    values = lambda rep: [rep.lhs, *rep.rhs_terms.values()]
    for a, b in zip(values(folded), values(check_rep), strict=True):
        assert abs(a - b) <= 1e-7 * abs(b), (a, b)
