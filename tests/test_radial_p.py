"""Lp bounds for radial profiles: constants, margins, and admissibility."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maghardy import QuadratureSpec
from maghardy.errors import AdmissibilityError, DomainError
from maghardy.functions import TestFunction, make_bump, random_test_function
from maghardy.quadrature import log_radial_rule
from maghardy.reports import SuperweightParams
from maghardy.verifiers import _grids, radial_p, verify_radial_p

from _closed_forms import GAUSS_SPEC, gauss_moment, gaussian

SPEC = QuadratureSpec(n_r=128)


def radial_profile(seed):
    return random_test_function(np.random.default_rng(seed), k=0, modes=(0,),
                                real=True, gaussian_y=False)


def test_weighted_constant_frozen_cases():
    f = make_bump(0.5, 2.0)
    rep = verify_radial_p("weighted", 2.0, 2.0, {"theta": 2.0}, f, SPEC)
    assert rep.sharp_constant == pytest.approx(1.0)  # |p/(Q - theta p)| = |2/(2-4)|
    assert rep.margin >= -rep.tolerance()
    rep2 = verify_radial_p("weighted", 4.0, 2.0, {"theta": 0.0}, f, SPEC)
    assert rep2.sharp_constant == pytest.approx(0.5)
    assert rep2.margin >= -rep2.tolerance()


def test_log_constant_is_p():
    f = make_bump(0.5, 2.0)
    for p in (2.0, 3.0):
        rep = verify_radial_p("log", 3.0, p, None, f, SPEC)
        assert rep.sharp_constant == pytest.approx(p)
        assert rep.margin >= -rep.tolerance()


def test_poincare_radius_and_support_guard():
    f = make_bump(0.5, 2.0)
    rep = verify_radial_p("poincare", 3.0, 2.0, None, f, SPEC)
    assert rep.params["R"] == pytest.approx(2.0)  # defaults to sup of support
    assert rep.sharp_constant == pytest.approx(2.0 * 2.0 / 3.0)
    assert rep.margin >= -rep.tolerance()
    rep2 = verify_radial_p("poincare", 3.0, 2.0, {"R": 5.0}, f, SPEC)
    assert rep2.sharp_constant == pytest.approx(5.0 * 2.0 / 3.0)
    with pytest.raises(AdmissibilityError):
        verify_radial_p("poincare", 3.0, 2.0, {"R": 1.0}, f, SPEC)


def test_superweight_margin_and_constant():
    f = make_bump(0.5, 2.0)
    w = SuperweightParams(1.0, 1.0, -2.0, 1.0, -2.0)
    # c_p = (Q - p t4 + t2 t3 - p)/p with Q = 4, p = 2: (4 + 4 - 2 - 2)/2 = 2
    rep = verify_radial_p("superweight", 4.0, 2.0, w, f, SPEC)
    assert rep.sharp_constant == pytest.approx(2.0)
    assert rep.margin >= -rep.tolerance()
    tight = SuperweightParams(1.0, 1.0, -2.0, 1.0, 3.0)
    with pytest.raises(AdmissibilityError):
        verify_radial_p("superweight", 4.0, 2.0, tight, f, SPEC)
    with pytest.raises(AdmissibilityError):
        verify_radial_p("superweight", 4.0, 2.0, {"theta": 1.0}, f, SPEC)



@pytest.mark.parametrize("Q, theta", [(3.0, 0.5), (4.0, -0.3), (2.5, 0.2)])
@pytest.mark.parametrize("a", [0.5, 0.8])
def test_weighted_on_the_gaussian_matches_its_closed_forms(a, Q, theta):
    # p = 2 on f = e^(-a r^2), with e = Q - 1 - 2 theta: the gradient side
    # is int (2 a r^2)^2 r^e e^(-2 a r^2) dr = 4 a^2 M(e + 4) and the
    # function side M(e); lhs carries the constant (measured within 1.1e-14)
    e = Q - 1.0 - 2.0 * theta
    rep = verify_radial_p("weighted", Q, 2.0, {"theta": theta}, gaussian(a), GAUSS_SPEC)
    assert (rep.lhs / rep.sharp_constant) ** 2 == pytest.approx(
        4.0 * a * a * gauss_moment(a, e + 4.0), rel=1e-12, abs=0.0)
    assert rep.rhs_terms["main"] ** 2 == pytest.approx(gauss_moment(a, e), rel=1e-12, abs=0.0)

def test_randomized_margins_all_variants():
    rng = np.random.default_rng(3001)
    for i in range(12):
        f = radial_profile(int(rng.integers(0, 2 ** 31)))
        Q = float(rng.uniform(1.0, 6.0))
        p = float(rng.uniform(1.2, 3.4))
        theta = float(rng.uniform(-2.0, 2.0))
        if abs(theta * p - Q) < 0.05:
            theta += 0.1
        for variant, params in (
            ("weighted", {"theta": theta}),
            ("log", None),
            ("poincare", None),
            ("superweight", SuperweightParams(
                float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)),
                -1.5, 1.0, float(rng.uniform(-2.0, (Q - p - 1.5) / p - 0.05)))),
        ):
            rep = verify_radial_p(variant, Q, p, params, f, SPEC)
            assert rep.margin >= -rep.tolerance(), (variant, Q, p, i)


def test_attained_ratio_stays_below_constant():
    # the normalized ratio must never exceed the constant it converges to
    f = radial_profile(17)
    rep = verify_radial_p("weighted", 2.5, 2.0, {"theta": 0.5}, f, SPEC)
    assert rep.ratio <= rep.sharp_constant * (1.0 + 1e-9)
    assert rep.ratio > 0.0


def test_oracle_route_agreement():
    f = make_bump(0.4, 1.6)
    a = verify_radial_p("weighted", 3.0, 2.5, {"theta": 0.4}, f, SPEC)
    b = verify_radial_p("weighted", 3.0, 2.5, {"theta": 0.4}, f,
                        QuadratureSpec(n_r=128, oracle=True))
    assert abs(a.lhs - b.lhs) <= 1e-7 * abs(b.lhs)
    assert abs(a.rhs_terms["main"] - b.rhs_terms["main"]) <= 1e-7 * abs(b.rhs_terms["main"])


def test_input_validation():
    f = make_bump(0.5, 2.0)
    with pytest.raises(AdmissibilityError):
        verify_radial_p("weighted", 2.0, 1.0, {"theta": 0.3}, f, SPEC)  # p > 1
    with pytest.raises(AdmissibilityError):
        verify_radial_p("weighted", -1.0, 2.0, {"theta": 0.3}, f, SPEC)  # Q > 0
    with pytest.raises(AdmissibilityError):
        verify_radial_p("weighted", 2.0, 2.0, {"theta": 1.0}, f, SPEC)  # theta p = Q
    with pytest.raises(DomainError):
        verify_radial_p("nope", 2.0, 2.0, None, f, SPEC)
    spinning = random_test_function(np.random.default_rng(2), k=0, modes=(1,))
    with pytest.raises(DomainError):
        verify_radial_p("log", 2.0, 2.0, None, spinning, SPEC)
    cylinder = random_test_function(np.random.default_rng(3), k=1, modes=(0,))
    with pytest.raises(DomainError):
        verify_radial_p("log", 2.0, 2.0, None, cylinder, SPEC)


@given(Q=st.floats(0.5, 6.0), p=st.floats(1.1, 3.5))
@settings(max_examples=20, deadline=None)
def test_log_margin_property(Q, p):
    f = make_bump(0.5, 1.8)
    rep = verify_radial_p("log", Q, p, None, f, SPEC)
    assert rep.margin >= -rep.tolerance()


@pytest.mark.parametrize("variant, Q, p, params", [
    ("weighted", 2.0, 2.0, {"theta": math.inf}),
    ("weighted", 2.0, 2.0, {"theta": math.nan}),
    ("poincare", 3.0, 2.0, {"R": math.inf}),
    ("poincare", 3.0, 2.0, {"R": math.nan}),
    ("log", math.inf, 2.0, None),
    ("log", math.nan, 2.0, None),
    ("log", 2.0, math.inf, None),
    ("log", 2.0, -math.inf, None),
])
def test_non_finite_inputs_are_refused_before_integrating(monkeypatch, variant, Q, p, params):
    def never(*args):
        raise AssertionError("integrated a refused input")

    monkeypatch.setattr(radial_p, "radial_integral", never)
    with pytest.raises(DomainError, match="must be finite"):
        verify_radial_p(variant, Q, p, params, make_bump(1.5, 3.0), QuadratureSpec(n_r=64))


# --- the tensor path against the two-call 1-D algorithm it replaced ----------

def _reference_radial_p(variant, Q, p, params, f, spec):
    """(lhs, main term) of a check, each side integrated on its own over
    the log-radial rule, f and df/dr taken at the angle 0 on the 1-D nodes,
    its radial factor read on the whole rule as the main engine reads it
    (TestFunction.factors_on_rule)."""
    r_lo, r_hi, _, breaks = f.support()
    r, w_r = log_radial_rule(r_lo, r_hi, spec.n_r, breaks)
    no_y = np.zeros((1, 1, 0))
    memo = f.factors_on_rule(r, no_y[0], _grids.support_domain(f), spec)
    fval, fder = (part[:, 0] for part in f.on_grid(r[:, None], no_y, memo(r[:, None]))(0.0)[:2])

    def norm(dens, w):
        vals = np.asarray(dens) * r ** (Q - 1.0 - w)
        return max(float(np.sum(w_r * vals)), 0.0) ** (1.0 / p)

    func = np.abs(fval) ** p
    if variant == "weighted":
        w = params["theta"] * p
        C = abs(p / (Q - w))
        return C * norm(np.abs(r * fder) ** p, w), norm(func, w)
    if variant == "log":
        return p * norm(np.abs(np.log(r) * r * fder) ** p, Q), norm(func, Q)
    if variant == "poincare":
        C = r_hi * p / Q
        return C * norm(np.abs(fder) ** p, 0.0), norm(func, 0.0)
    a, b, t2, t3, t4 = params.a, params.b, params.theta2, params.theta3, params.theta4
    C = (Q - p * t4 + t2 * t3 - p) / p
    W = (a + b * r**t2) ** t3
    return (norm(W * np.abs(fder) ** p, p * t4),
            C * norm(W * np.abs(fval) ** p, p * (t4 + 1.0)))


def _draw_radial_p_case(rng, variant):
    Q = float(rng.uniform(1.0, 6.0))
    p = float(rng.uniform(1.2, 3.4))
    if variant == "weighted":
        theta = float(rng.uniform(-2.0, 2.0))
        return Q, p, {"theta": theta + 0.1 if abs(theta * p - Q) < 0.05 else theta}
    if variant == "superweight":
        return Q, p, SuperweightParams(
            float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)),
            -1.5, 1.0, float(rng.uniform(-2.0, (Q - p - 1.5) / p - 0.05)))
    return Q, p, None


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("n_r", [16, 64, 128, 256])
@pytest.mark.parametrize("variant", ["weighted", "log", "poincare", "superweight"])
def test_tensor_path_is_bitwise_the_two_call_algorithm(variant, n_r, real):
    rng = np.random.default_rng([n_r, len(variant), real])
    spec = QuadratureSpec(n_r=n_r)
    for _ in range(4):
        f = random_test_function(np.random.default_rng(int(rng.integers(2 ** 31))),
                                 k=0, modes=(0,), real=real, gaussian_y=False)
        Q, p, params = _draw_radial_p_case(rng, variant)
        rep = verify_radial_p(variant, Q, p, params, f, spec)
        assert (rep.lhs, rep.rhs_terms["main"]) == _reference_radial_p(
            variant, Q, p, params, f, spec)


@pytest.mark.parametrize("oracle", [False, True], ids=["main", "oracle"])
@pytest.mark.parametrize("variant", ["weighted", "log", "poincare", "superweight"])
def test_one_integration_and_one_evaluation_per_check(monkeypatch, variant, oracle):
    counts = {"integrals": 0, "on_grid": 0}
    engine = "oracle_integrate" if oracle else "integrate_radial"
    integral, on_grid = getattr(_grids, engine), TestFunction.on_grid

    def counting_integral(*args, **kwargs):
        counts["integrals"] += 1
        return integral(*args, **kwargs)

    def counting_on_grid(self, r, y, memo=None):
        counts["on_grid"] += 1
        return on_grid(self, r, y, memo)

    monkeypatch.setattr(_grids, engine, counting_integral)
    monkeypatch.setattr(TestFunction, "on_grid", counting_on_grid)
    Q, p, params = _draw_radial_p_case(np.random.default_rng(5), variant)
    rep = verify_radial_p(variant, Q, p, params, radial_profile(11),
                          QuadratureSpec(n_r=64, oracle=oracle))
    assert rep.margin >= -rep.tolerance()
    assert counts == {"integrals": 1, "on_grid": 1}
