"""Margin, identity, and remainder checks for the weighted Grushin inequalities."""

import math

import numpy as np
import pytest

from maghardy import (
    ConstantFieldPotentials,
    FluxParam,
    GrushinGeometry,
    QuadratureSpec,
    WeightExponents,
)
from maghardy.errors import AdmissibilityError, DomainError, MagHardyError, RealnessError
from maghardy.fields import RadialPotential
from maghardy.functions import (
    AngularMode,
    GaussBumpY,
    PlateauBumpY,
    PlateauLogBump,
    ProductProfile,
    TestFunction,
    TrialFamily,
    make_bump,
    random_test_function,
)
from maghardy import functions, quadrature
from maghardy.quadrature import Domain, integrate_polar
from maghardy.reports import SuperweightParams
from maghardy.verifiers import (
    FAMILY_FOR,
    check_grushin_ibp_identity,
    estimate_sharpness,
    fourier_defect_terms,
    grushin,
    landau,
    radial_p,
    sharpness,
    verify_ab_hardy,
    verify_constant_field,
    verify_landau,
    verify_magnetic_grushin,
    verify_radial_hardy,
    verify_radial_p,
    verify_real_landau,
    verify_uncertainty_grushin,
)
from maghardy.verifiers._grids import abs2, grad_y_sq

from _closed_forms import GaugeGauss, gauge_polar_factor, log_integral
from _tolerance import assert_reports_close

SPEC = QuadratureSpec(n_r=96, n_phi=16, n_y=24)


def draw_admissible(rng, m=2):
    """Geometry and weights inside every stated admissibility region."""
    k = int(rng.integers(1, 3))
    gamma = float(rng.uniform(0.0, 2.0))
    geom = GrushinGeometry(m, k, gamma)
    Q = geom.hom_dim
    alpha1 = float(rng.uniform(0.5, 6.0)) + 2.0 - Q  # Q + a1 - 2 in [0.5, 6]
    lo = max(-m / gamma if gamma > 0 else -math.inf,   # m + g*a2 > 0
             -2.0 * gamma,                              # a2 + 2g > 0
             (-2.0 / gamma) if gamma > 0 else -math.inf)  # a2*g + 2 > 0
    alpha2 = float(rng.uniform(max(lo, -3.0) + 0.1, 2.0))
    return geom, WeightExponents(alpha1, alpha2)


# --- radial Hardy -----------------------------------------------------------

def test_radial_hardy_margin_and_constant():
    geom = GrushinGeometry(2, 1, 1.0)
    exps = WeightExponents(0.0, 0.0)
    f = make_bump(0.5, 2.0, ((-1.0, 1.0),))
    rep = verify_radial_hardy(geom, exps, f, SPEC)
    assert rep.sharp_constant == pytest.approx(((geom.hom_dim - 2.0) / 2.0) ** 2)
    assert rep.margin >= -rep.tolerance()
    assert list(rep.rhs_terms)[0] == "main"


def test_radial_hardy_randomized_margins():
    rng = np.random.default_rng(1001)
    for _ in range(15):
        geom, exps = draw_admissible(rng, m=int(rng.integers(1, 4)))
        f = random_test_function(rng, k=geom.k, modes=(0,), real=True)
        rep = verify_radial_hardy(geom, exps, f, SPEC)
        assert rep.margin >= -rep.tolerance(), (geom, exps)


def test_radial_hardy_rejects_bad_weights_and_modes():
    geom = GrushinGeometry(2, 1, 1.0)
    f = make_bump(0.5, 2.0, ((-1.0, 1.0),))
    with pytest.raises(AdmissibilityError):
        verify_radial_hardy(geom, WeightExponents(-4.0, 0.0), f, SPEC)
    with pytest.raises(AdmissibilityError):
        verify_radial_hardy(geom, WeightExponents(0.0, -3.0), f, SPEC)
    prof = ProductProfile(PlateauLogBump(0.5, 2.0), (GaussBumpY(-1, 1),))
    spinning = TestFunction([AngularMode(1, prof)])
    with pytest.raises(AdmissibilityError):
        verify_radial_hardy(geom, WeightExponents(0.0, 0.0), spinning, SPEC)


def test_radial_hardy_oracle_route_agrees():
    geom = GrushinGeometry(2, 1, 1.0)
    exps = WeightExponents(0.3, -0.2)
    f = make_bump(0.5, 2.0, ((-1.0, 1.0),))
    main = verify_radial_hardy(geom, exps, f, SPEC)
    check = verify_radial_hardy(geom, exps, f,
                                QuadratureSpec(n_r=96, n_phi=16, n_y=24, oracle=True))
    assert abs(main.lhs - check.lhs) <= 1e-7 * abs(check.lhs)
    assert abs(main.rhs_terms["main"] - check.rhs_terms["main"]) \
        <= 1e-7 * abs(check.rhs_terms["main"])


# --- integration-by-parts identity ------------------------------------------

def test_ibp_identity_random_cases_and_refinement():
    # y resolution is kept high so the n_r refinement axis is the one being
    # measured; the identity residual must drop to the converged floor
    rng = np.random.default_rng(1002)
    for _ in range(6):
        m = int(rng.integers(1, 4))
        gamma = float(rng.uniform(0.0, 2.0))
        geom = GrushinGeometry(m, 1, gamma)
        alpha1 = float(rng.uniform(0.5, 6.0)) + 2.0 - geom.hom_dim
        lo = max(-m / gamma if gamma > 0 else -3.0, -2.0 * gamma, -3.0)
        exps = WeightExponents(alpha1, float(rng.uniform(lo + 0.1, 2.0)))
        f = random_test_function(rng, k=1, modes=(0,), real=True)
        alpha = float(rng.uniform(0.2, 1.8))
        rep1 = check_grushin_ibp_identity(geom, exps, f, alpha, QuadratureSpec(n_r=128, n_y=96))
        assert rep1.rel_err <= 1e-8, (geom, exps, alpha)
        rep2 = check_grushin_ibp_identity(geom, exps, f, alpha, QuadratureSpec(n_r=256, n_y=96))
        assert rep2.rel_err <= max(0.5 * rep1.rel_err, 1e-12)


def _off_centre(f, shift=0.25):
    """f with every Gaussian y factor's box moved up by shift: the same
    shapes, no longer even in y, so the main engine runs the whole y box."""
    def moved(p):
        ys = tuple(GaussBumpY(yf.lo + shift, yf.hi + shift, yf.a) for yf in p.y_factors)
        return ProductProfile(p.radial, ys, p.amplitude)

    f = TestFunction([AngularMode(m.mode, moved(m.profile)) for m in f.modes])
    assert not f.y_even
    return f


def test_ibp_identity_two_transverse_dimensions():
    import tracemalloc

    rng = np.random.default_rng(1012)
    geom = GrushinGeometry(2, 2, 1.0)
    f = _off_centre(random_test_function(rng, k=2, modes=(0,), real=True))
    tracemalloc.start()
    try:
        rep = check_grushin_ibp_identity(geom, WeightExponents(0.5, 0.2), f, 0.9,
                                         QuadratureSpec(n_r=128, n_y=40))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.rel_err <= 1e-8
    # 384 x 14,400 nodes (f is not y-even), 44 MB per real full-grid array:
    # blocks of at most two rows, one alive at a time
    assert peak < 12 * 2**20


def test_ibp_identity_rejects_spinning_functions():
    geom = GrushinGeometry(2, 1, 1.0)
    prof = ProductProfile(PlateauLogBump(0.5, 2.0), (GaussBumpY(-1, 1),))
    f = TestFunction([AngularMode(2, prof)])
    with pytest.raises(AdmissibilityError):
        check_grushin_ibp_identity(geom, WeightExponents(0.0, 0.0), f, 0.7, SPEC)


# --- non-finite parameters ----------------------------------------------------

_SUPERWEIGHT = {"a": 1.0, "b": 1.0, "theta2": -2.0, "theta3": 1.0, "theta4": -2.0,
                "p": 2.0, "theta1": 0.0}

_TAKES_A_PARAMETER = {
    "flux beta": FluxParam,
    **{f"superweight {name}": (lambda x, name=name:
                               SuperweightParams(**{**_SUPERWEIGHT, name: x}))
       for name in _SUPERWEIGHT},
    "landau theta1": lambda x: verify_landau(
        "hardy_sobolev", RadialPotential.constant(0.5), x, make_bump(0.3, 1.0),
        QuadratureSpec(n_r=16, n_phi=8)),
    "ibp alpha": lambda x: check_grushin_ibp_identity(
        GrushinGeometry(2, 1, 1.0), WeightExponents(0.5, 0.2),
        make_bump(0.5, 2.0, ((-1.0, 1.0),)), x, QuadratureSpec(n_r=16, n_y=8)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build", list(_TAKES_A_PARAMETER.values()),
                         ids=list(_TAKES_A_PARAMETER))
def test_non_finite_parameters_are_refused_up_front(build, value):
    # a DomainError naming the parameter, not a RuntimeWarning of the
    # arithmetic or a NonFiniteError after integrating
    with pytest.raises(DomainError, match="must be finite"):
        build(value)


# --- missing and mistyped parameters ------------------------------------------

_PLANE_BUMP = make_bump(0.5, 2.0)
_PLANE_SPEC = QuadratureSpec(n_r=16, n_phi=8)


def _landau(variant, params):
    return lambda: verify_landau(variant, RadialPotential.constant(0.0), params,
                                 _PLANE_BUMP, _PLANE_SPEC)


def _engine(theorem_id, params):
    base = FAMILY_FOR[theorem_id]
    return lambda: estimate_sharpness(theorem_id, params, TrialFamily(base, 0.1, (0.5, 2.0)))


_GEOM, _EXPS = GrushinGeometry(2, 1, 1.0), WeightExponents(0.0, 0.0)
_BUMP = make_bump(0.5, 2.0, ((-1.0, 1.0),))
_FLAT_ENGINE = ("radial_hardy", {"geom": _GEOM, "exps": _EXPS})


def _radial_p(variant, params):
    return lambda: verify_radial_p(variant, 3.0, 2.0, params, _PLANE_BUMP, _PLANE_SPEC)


# case -> (the call, the parameter its error names).  Before each call
# reached one parameter check, these escaped as a TypeError, KeyError,
# AttributeError or ValueError, or (a non-finite engine theta1) as a
# NonFiniteError after the whole schedule had run; a bool quadrature count
# and a string slope were accepted.
_MALFORMED = {
    "landau superweight as a number": (_landau("superweight", 1.0), "superweight"),
    "landau superweight as a dict": (_landau("superweight", {"a": 1}), "superweight"),
    "landau theta1 as SuperweightParams": (
        _landau("hardy_sobolev", SuperweightParams(1.0, 1.0, -2.0, 1.0, -2.0)), "theta1"),
    "landau theta1 as a string": (_landau("hardy_sobolev", "x"), "theta1"),
    "engine theta1 nan": (_engine("landau_hardy_sobolev", {"theta1": math.nan}), "theta1"),
    "engine theta1 inf": (_engine("landau_hardy_sobolev", {"theta1": math.inf}), "theta1"),
    "engine theta1 None": (_engine("landau_hardy_sobolev", {"theta1": None}), "theta1"),
    "engine radial_hardy empty": (_engine("radial_hardy", {}), "geom"),
    "engine radial_hardy None": (_engine("radial_hardy", None), "geom"),
    "engine magnetic_grushin without flux": (_engine("magnetic_grushin", {
        "geom": GrushinGeometry(2, 1, 1.0), "exps": WeightExponents(0.0, 0.0)}), "flux"),
    "radial_p theta None": (_radial_p("weighted", None), "theta"),
    "radial_p theta missing": (_radial_p("weighted", {}), "theta"),
    # the same reader closes these too
    "radial_p Q as a string": (
        lambda: verify_radial_p("log", "x", 2.0, None, _PLANE_BUMP, _PLANE_SPEC), "Q"),
    "radial_p R as a string": (_radial_p("poincare", {"R": "x"}), "R"),
    "real_landau R as a string": (lambda: verify_real_landau(
        "critical", 1, _PLANE_BUMP, _PLANE_SPEC, R="x"), "R"),
    "real_landau R nan": (lambda: verify_real_landau(
        "critical", 1, _PLANE_BUMP, _PLANE_SPEC, R=math.nan), "R"),
    "ibp alpha as a string": (lambda: check_grushin_ibp_identity(
        GrushinGeometry(2, 1, 1.0), WeightExponents(0.5, 0.2),
        make_bump(0.5, 2.0, ((-1.0, 1.0),)), "x", SPEC), "alpha"),
    "weight exponent as a string": (lambda: WeightExponents("x", 0.0), "alpha1"),
    "geometry gamma as a string": (lambda: GrushinGeometry(2, 1, "x"), "gamma"),
    "flux beta as a string": (lambda: FluxParam("x"), "beta"),
    "superweight field as None": (
        lambda: SuperweightParams(1.0, None, -2.0, 1.0, -2.0), "b"),
    # the engine's family and schedule, and the trial family's numbers
    "engine family None": (lambda: estimate_sharpness(*_FLAT_ENGINE, None), "family"),
    "engine schedule entry as a string": (lambda: estimate_sharpness(
        *_FLAT_ENGINE, TrialFamily("rho_power", 0.1, (0.5, 2.0)), (0.5, "x")), "schedule"),
    "engine schedule as a number": (lambda: estimate_sharpness(
        *_FLAT_ENGINE, TrialFamily("rho_power", 0.1, (0.5, 2.0)), 0.5), "schedule"),
    "trial epsilon as a string": (
        lambda: TrialFamily("rho_power", "x", (0.5, 2.0)), "epsilon"),
    "trial cutoff None": (lambda: TrialFamily("rho_power", 0.1, None), "cutoff"),
    "trial cutoff of three": (
        lambda: TrialFamily("rho_power", 0.1, (0.5, 1.0, 2.0)), "cutoff"),
    "trial cutoff entry as a string": (
        lambda: TrialFamily("rho_power", 0.1, (0.5, "x")), "cutoff"),
    "trial exponent nan": (
        lambda: TrialFamily("power", 0.1, (0.5, 2.0), math.nan), "exponent"),
    # the verifiers' arguments
    "radial_hardy geom None": (
        lambda: verify_radial_hardy(None, _EXPS, _BUMP, SPEC), "geom"),
    "radial_hardy exps None": (
        lambda: verify_radial_hardy(_GEOM, None, _BUMP, SPEC), "exps"),
    "radial_hardy f None": (
        lambda: verify_radial_hardy(_GEOM, _EXPS, None, SPEC), "f"),
    "radial_hardy spec None": (
        lambda: verify_radial_hardy(_GEOM, _EXPS, _BUMP, None), "spec"),
    "magnetic_grushin flux None": (
        lambda: verify_magnetic_grushin(_GEOM, _EXPS, None, _BUMP, SPEC), "flux"),
    "ab_hardy flux as a number": (
        lambda: verify_ab_hardy(_GEOM, _EXPS, 0.5, _BUMP, SPEC), "flux"),
    "uncertainty spec None": (
        lambda: verify_uncertainty_grushin(_GEOM, _EXPS, FluxParam(0.5), _BUMP, None), "spec"),
    "constant_field pots None": (lambda: verify_constant_field(
        GrushinGeometry(1, 1, 1.0), _EXPS, None, _BUMP, SPEC), "pots"),
    "landau psi None": (lambda: verify_landau(
        "hardy_sobolev", None, 1.0, _PLANE_BUMP, _PLANE_SPEC), "psi"),
    "real_landau f None": (
        lambda: verify_real_landau("hardy", 1, None, _PLANE_SPEC), "f"),
    "radial_p spec None": (lambda: verify_radial_p(
        "weighted", 3.0, 2.0, {"theta": 0.5}, make_bump(0.5, 2.0), None), "spec"),
    "quadrature n_r fractional": (lambda: QuadratureSpec(n_r=16.5), "n_r"),
    "quadrature n_y as a float": (lambda: QuadratureSpec(n_y=8.0), "n_y"),
    "quadrature n_y as a bool": (lambda: QuadratureSpec(n_y=True), "n_y"),
    "constant-field slope as a string": (lambda: ConstantFieldPotentials("x"), "slope"),
    "constant-field slope nan": (lambda: ConstantFieldPotentials(math.nan), "slope"),
    # integer parameters, read as numbers.Integral, and reals past a float
    "geometry m as a bool": (lambda: GrushinGeometry(True, 1, 1.0), "m"),
    "angular mode as a bool": (lambda: AngularMode(
        True, ProductProfile(PlateauLogBump(0.5, 2.0))), "mode"),
    "real_landau n None": (
        lambda: verify_real_landau("hardy", None, _PLANE_BUMP, _PLANE_SPEC), "n"),
    "real_landau n fractional": (
        lambda: verify_real_landau("hardy", 1.5, _PLANE_BUMP, _PLANE_SPEC), "n"),
    "real_landau n as a bool": (
        lambda: verify_real_landau("hardy", True, _PLANE_BUMP, _PLANE_SPEC), "n"),
    "landau radius as a bool": (lambda: verify_landau(   # support inside radius 1
        "poincare", RadialPotential.constant(0.0), None, make_bump(0.3, 0.9),
        _PLANE_SPEC, radius=True), "radius"),
    "geometry gamma past a float": (lambda: GrushinGeometry(2, 1, 10**400), "gamma"),
    "flux beta past a float": (lambda: FluxParam(10**400), "beta"),
    "weight exponent past a float": (lambda: WeightExponents(10**400, 0.0), "alpha1"),
    "random function mode as a string": (lambda: random_test_function(
        np.random.default_rng(0), modes=("1",)), "modes"),
    "random function modes fractional": (lambda: random_test_function(
        np.random.default_rng(0), modes=(0.5,)), "modes"),
    "random function k negative": (
        lambda: random_test_function(np.random.default_rng(0), k=-1), "k"),
    "quadrature n_r past the ceiling": (lambda: QuadratureSpec(n_r=4097), "n_r"),
    "real_landau R that hardy does not read": (lambda: verify_real_landau(
        "hardy", 2, _PLANE_BUMP, _PLANE_SPEC, R=3.0), "R"),
    # used to escape as a ValueError from unpacking "a" into (lo, hi)
    "make_bump y_box as a string": (lambda: make_bump(0.5, 2.0, "ab"), "y_box"),
    "make_bump y_box as a number": (lambda: make_bump(0.5, 2.0, 1.0), "y_box"),
}


@pytest.mark.parametrize("call, name", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_malformed_parameters_are_refused_before_quadrature(monkeypatch, call, name):
    def never(*args, **kwargs):
        raise AssertionError("ran quadrature on a refused input")

    for module in (grushin, landau, radial_p):
        for stage in ("integrate", "polar_integral", "rx_integral", "radial_integral"):
            if hasattr(module, stage):
                monkeypatch.setattr(module, stage, never)
    monkeypatch.setattr(functions, "gauss_panels", never)   # the sharpness windows' panels
    monkeypatch.setattr(quadrature, "_reference_rule", never)
    with pytest.raises(MagHardyError, match=rf"\b{name}\b"):
        call()


# --- magnetic (real-function) inequality ------------------------------------

def test_magnetic_real_split_is_exact():
    rng = np.random.default_rng(1003)
    geom = GrushinGeometry(2, 1, 1.0)
    exps = WeightExponents(0.4, 0.2)
    f = random_test_function(rng, k=1, modes=(0, 1), real=True)
    rep = verify_magnetic_grushin(geom, exps, FluxParam(0.5), f, SPEC)
    assert rep.params["split_rel_err"] <= 1e-8
    assert rep.margin >= -rep.tolerance()
    assert rep.sharp_constant == pytest.approx(((geom.hom_dim + 0.4 - 2) / 2) ** 2 + 0.25)


def test_magnetic_rejects_complex_input():
    geom = GrushinGeometry(2, 1, 1.0)
    rng = np.random.default_rng(9)
    f = random_test_function(rng, k=1, modes=(1,), real=False)
    with pytest.raises(RealnessError):
        verify_magnetic_grushin(geom, WeightExponents(0, 0), FluxParam(0.3), f, SPEC)


def test_magnetic_scaling_covariance():
    # rebuilding the same profile with dilated constructor parameters must
    # leave the Rayleigh ratio unchanged: both sides scale by the same power
    geom = GrushinGeometry(2, 1, 1.0)
    exps = WeightExponents(0.3, 0.1)
    flux = FluxParam(0.4)

    def build(lam):
        lam_y = lam ** (1.0 + geom.gamma)
        prof = ProductProfile(PlateauLogBump(0.5 / lam, 2.0 / lam),
                              (GaussBumpY(-1.0 / lam_y, 1.0 / lam_y, a=0.8 * lam_y ** 2),))
        return TestFunction([AngularMode(0, prof)])

    base = verify_magnetic_grushin(geom, exps, flux, build(1.0), SPEC)
    for lam in (0.5, 2.0, 3.7):
        scaled = verify_magnetic_grushin(geom, exps, flux, build(lam), SPEC)
        assert abs(scaled.ratio - base.ratio) <= 1e-9 * abs(base.ratio), lam


# --- rotated-potential inequality and its Fourier remainder ------------------

def test_ab_hardy_margin_and_defect_sign():
    rng = np.random.default_rng(1004)
    light = QuadratureSpec(n_r=64, n_phi=12, n_y=10)
    for _ in range(8):
        k = int(rng.integers(1, 3))
        gamma = float(rng.uniform(0.0, 2.0))
        geom = GrushinGeometry(2, k, gamma)
        alpha1 = float(rng.uniform(0.5, 4.0)) - k * (gamma + 1.0)
        lo = max(-2.0 * gamma, -2.0 / gamma if gamma > 0 else -3.0, -3.0)
        exps = WeightExponents(alpha1, float(rng.uniform(lo + 0.1, 2.0)))
        f = random_test_function(rng, k=k, modes=tuple(int(v) for v in rng.choice(range(-2, 3), 2, replace=False)))
        rep = verify_ab_hardy(geom, exps, FluxParam(float(rng.uniform(-1, 1))), f, light)
        assert rep.margin >= -rep.tolerance()
        assert rep.rhs_terms["mode_defect"] >= -rep.tolerance()


def test_ab_hardy_defect_vanishes_for_radial():
    geom = GrushinGeometry(2, 1, 1.0)
    exps = WeightExponents(0.0, 0.0)
    f = make_bump(0.5, 2.0, ((-1.0, 1.0),))
    rep = verify_ab_hardy(geom, exps, FluxParam(0.5), f, SPEC)
    scale = abs(rep.lhs) + abs(rep.rhs_terms["main"])
    assert abs(rep.rhs_terms["mode_defect"]) <= 1e-12 * scale


def test_fourier_equality_low_modes():
    # for mode content in {-1, 0, 1} the angular term is pure defect
    rng = np.random.default_rng(1005)
    geom = GrushinGeometry(2, 1, 1.0)
    exps = WeightExponents(0.2, 0.3)
    for modes in [(0,), (-1, 1), (-1, 0, 1), (1,)]:
        f = random_test_function(rng, k=1, modes=modes)
        terms = fourier_defect_terms(geom, exps, f, SPEC)
        scale = max(abs(terms["angular"]), abs(terms["defect"]), 1e-300)
        assert abs(terms["angular"] - terms["defect"]) <= 1e-10 * scale, modes


def test_fourier_inequality_strict_for_high_modes():
    rng = np.random.default_rng(1006)
    geom = GrushinGeometry(2, 1, 1.0)
    exps = WeightExponents(0.2, 0.3)
    f = random_test_function(rng, k=1, modes=(0, 2))
    terms = fourier_defect_terms(geom, exps, f, SPEC)
    assert terms["angular"] >= terms["defect"] - 1e-10 * abs(terms["angular"])
    # mode 2 carries angular energy 4 vs defect weight 1: strict gap
    assert terms["angular"] > terms["defect"] * 1.01


def test_ab_hardy_admissibility_flags():
    # gamma = 0.5, alpha2 = -1.5: fails a2 + 2g > 0, passes a2*g + 2 > 0
    geom = GrushinGeometry(2, 1, 0.5)
    exps = WeightExponents(0.5, -1.5)
    f = make_bump(0.5, 2.0, ((-1.0, 1.0),))
    with pytest.raises(AdmissibilityError):
        verify_ab_hardy(geom, exps, FluxParam(0.3), f, SPEC, admissibility="thm2")
    rep = verify_ab_hardy(geom, exps, FluxParam(0.3), f, SPEC, admissibility="corollary")
    assert rep.margin >= -rep.tolerance()
    with pytest.raises(DomainError):
        verify_ab_hardy(geom, exps, FluxParam(0.3), f, SPEC, admissibility="bogus")


def test_ab_hardy_needs_m2():
    geom = GrushinGeometry(3, 1, 1.0)
    f = make_bump(0.5, 2.0, ((-1.0, 1.0),))
    with pytest.raises(DomainError):
        verify_ab_hardy(geom, WeightExponents(0.5, 0.0), FluxParam(0.3), f, SPEC)


def test_phi_resolution_guard():
    rng = np.random.default_rng(1007)
    geom = GrushinGeometry(2, 1, 1.0)
    f = random_test_function(rng, k=1, modes=(0, 2))
    with pytest.raises(DomainError):
        verify_ab_hardy(geom, WeightExponents(0.5, 0.0), FluxParam(0.3), f,
                        QuadratureSpec(n_r=32, n_phi=8, n_y=8))


# --- uncertainty-type bounds -------------------------------------------------

def test_uncertainty_variants():
    rng = np.random.default_rng(1008)
    geom = GrushinGeometry(2, 1, 1.0)
    exps = WeightExponents(0.6, 0.2)
    flux = FluxParam(0.5)
    f_real = random_test_function(rng, k=1, modes=(0, 1), real=True)
    rep1 = verify_uncertainty_grushin(geom, exps, flux, f_real, SPEC, variant="uncer1")
    assert rep1.margin >= -rep1.tolerance()
    assert rep1.sharp_constant == pytest.approx(
        math.sqrt(((geom.hom_dim + 0.6 - 2) / 2) ** 2 + 0.25))
    f_any = random_test_function(rng, k=1, modes=(-1, 0, 1))
    rep2 = verify_uncertainty_grushin(geom, exps, flux, f_any, SPEC, variant="uncer21")
    assert rep2.margin >= -rep2.tolerance()
    with pytest.raises(DomainError):
        verify_uncertainty_grushin(geom, exps, flux, f_real, SPEC, variant="uncer99")


# --- constant-field case ------------------------------------------------------

def test_constant_field_margins_both_readings():
    rng = np.random.default_rng(1009)
    for n, gamma in ((1, 1.0), (2, 0.8)):
        geom = GrushinGeometry(n, n, gamma)
        pots = ConstantFieldPotentials(0.5)
        exps = WeightExponents(0.3, 0.1)
        f = random_test_function(rng, k=n, modes=(0,), real=True)
        rep = verify_constant_field(geom, exps, pots, f, SPEC)
        assert rep.margin >= -rep.tolerance()
        assert rep.params["margin_squared"] >= -rep.tolerance()
        assert rep.params["split_rel_err"] <= 1e-8


def test_constant_field_shape_guard():
    pots = ConstantFieldPotentials(0.5)
    f = random_test_function(np.random.default_rng(3), k=1, modes=(0,), real=True)
    with pytest.raises(DomainError):
        verify_constant_field(GrushinGeometry(2, 1, 1.0), WeightExponents(0, 0), pots, f, SPEC)


def test_constant_field_rejects_complex():
    pots = ConstantFieldPotentials(0.5)
    f = random_test_function(np.random.default_rng(4), k=1, modes=(0,), real=False)
    # a lone mode-0 profile with complex amplitude is not declared real
    assert not f.real_valued
    with pytest.raises(RealnessError):
        verify_constant_field(GrushinGeometry(1, 1, 1.0), WeightExponents(0, 0), pots, f, SPEC)


# --- phi-independent work once per check ---------------------------------------

class _Counting:
    """A factor that counts its evaluations: each call of both, and each of
    on_rule, the main engine's once per integration (one that falls back to
    both counts once)."""

    calls = 0

    def both(self, t):
        self.calls += 1
        return super().both(t)

    def on_rule(self, t, panels, n):
        calls = self.calls
        out = super().on_rule(t, panels, n)
        self.calls = calls + 1
        return out


class _CountingBump(_Counting, PlateauLogBump):
    """Plateau bump in log r that counts its evaluations."""


def _real_cos_pair(radial):
    shared = ProductProfile(radial, (GaussBumpY(-1.0, 1.0),), amplitude=0.5)
    return TestFunction([AngularMode(-1, shared), AngularMode(1, shared)])


def test_radial_factor_runs_once_per_grid_across_modes():
    radial = _CountingBump(0.5, 2.0)
    f = _real_cos_pair(radial)
    dom = Domain(0.5, 2.0, y_box=((-1.0, 1.0),), r_breaks=f.support()[3])
    spec = QuadratureSpec(n_r=16, n_phi=12, n_y=6)

    def density(r, y):
        on = f.on_grid(r, y)
        return lambda x: (abs2(on(x)[1]),)

    integrate_polar(density, spec, dom, f.modes)
    assert radial.calls == 1


def test_radial_factor_runs_once_across_the_integrals_of_a_check():
    # modes -1 and +1 share one profile, whose factors are computed once
    radial = _CountingBump(0.5, 2.0)
    f = _real_cos_pair(radial)
    assert f.real_valued and radial.calls == 0  # declared, so nothing is sampled
    rep = verify_magnetic_grushin(GrushinGeometry(2, 1, 1.0), WeightExponents(0.5, 0.2),
                                  FluxParam(0.5), f, QuadratureSpec(n_r=16, n_phi=12, n_y=6))
    assert rep.margin >= -rep.tolerance()
    assert radial.calls == 1


def test_mode_zero_factor_runs_once_per_ab_hardy_check():
    # |f0|^2 of the mode defect comes from the factors f's own closure computed
    radial = _CountingBump(0.5, 2.0)
    f = TestFunction([
        AngularMode(0, ProductProfile(radial, (GaussBumpY(-1.0, 1.0),))),
        AngularMode(2, ProductProfile(PlateauLogBump(0.5, 2.0), (GaussBumpY(-1.0, 1.0),),
                                      amplitude=0.5j)),
    ])
    rep = verify_ab_hardy(GrushinGeometry(2, 1, 1.0), WeightExponents(0.5, 0.2),
                          FluxParam(0.5), f, QuadratureSpec(n_r=16, n_phi=12, n_y=6))
    assert rep.rhs_terms["mode_defect"] > 0.0
    assert radial.calls == 1


def _grid_k(k):
    """9 radii x 7 y points, with different coordinates on each of the k axes."""
    r = np.geomspace(0.5, 2.0, 9)[:, None]
    y = np.stack([np.linspace(-0.9, 0.8, 7) * (1.0 - 0.3 * j) for j in range(k)], axis=-1)
    return r, y[None, :, :]


_PHIS = np.linspace(0.0, 2.0 * np.pi, 5, endpoint=False).tolist()


def _same_bits(a, b):
    return all(np.array_equal(u, v) for u, v in zip(a, b, strict=True))


def _at_angles(at):
    """Every part of f from the closure at, at the 5 angles _PHIS, stacked."""
    return [np.stack(parts) for parts in zip(*[at(phi) for phi in _PHIS])]


def test_a_factor_shared_by_modes_runs_once_per_grid():
    # modes -1, 0 and 2 carry one radial factor object, each its own amplitude;
    # separate objects per mode would run it three times
    radial = _CountingBump(0.5, 2.0)
    amps = {-1: 0.5, 0: 1.0 - 0.25j, 2: 0.75j}
    f = TestFunction([AngularMode(m, ProductProfile(radial, (GaussBumpY(-1.0, 1.0),),
                                                    amplitude=a)) for m, a in amps.items()])
    apart = TestFunction([AngularMode(m, ProductProfile(
        PlateauLogBump(0.5, 2.0), (GaussBumpY(-1.0, 1.0),), amplitude=a))
        for m, a in amps.items()])
    r, y = _grid_k(1)
    at = f.on_grid(r, y)
    values = _at_angles(at)
    assert radial.calls == 1
    assert _same_bits(values, _at_angles(apart.on_grid(r, y)))
    at(f.modes[1])
    assert radial.calls == 1  # once per closure, however often it is called
    _at_angles(f.on_grid(r, y))
    assert radial.calls == 2  # once per grid, not once per closure's life


def test_one_y_factor_on_two_axes_runs_on_each_axis():
    # the memo keys a factor by its axis too: the zero function puts one
    # PlateauBumpY object on every y axis
    shared = PlateauBumpY(-1.0, 1.0)
    one = TestFunction([AngularMode(0, ProductProfile(PlateauLogBump(0.5, 2.0),
                                                      (shared, shared)))])
    two = TestFunction([AngularMode(0, ProductProfile(
        PlateauLogBump(0.5, 2.0), (PlateauBumpY(-1.0, 1.0), PlateauBumpY(-1.0, 1.0))))])
    r, y = _grid_k(2)
    assert not np.array_equal(y[..., 0], y[..., 1])
    assert _same_bits(_at_angles(one.on_grid(r, y)), _at_angles(two.on_grid(r, y)))


class _CountingProfile(ProductProfile):
    """Product profile that counts how often its full-grid products are formed."""

    forms = 0

    def on_grid(self, r, y, memo=None):
        self.forms += 1
        return super().on_grid(r, y, memo)


def _shared_pair_and_zero(shared):
    """Modes -1 and +1 on one profile `shared`, with mode 0 between them in
    the sum, and the same f with separate profiles for -1 and +1."""
    zero = ProductProfile(PlateauLogBump(0.6, 1.8), (GaussBumpY(-1.0, 1.0),))
    f = TestFunction([AngularMode(0, zero), AngularMode(-1, shared), AngularMode(1, shared)])
    apart = TestFunction([AngularMode(m, ProductProfile(
        PlateauLogBump(0.5, 2.0), (GaussBumpY(-1.0, 1.0),), amplitude=0.5)) for m in (-1, 1)]
        + [AngularMode(0, zero)])
    return f, apart


def test_a_profile_shared_by_two_modes_forms_its_products_once_per_closure():
    shared = _CountingProfile(PlateauLogBump(0.5, 2.0), (GaussBumpY(-1.0, 1.0),),
                              amplitude=0.5)
    f, apart = _shared_pair_and_zero(shared)
    r, y = _grid_k(1)
    at = f.on_grid(r, y)
    assert shared.forms == 0  # formed at the closure's first call, not before
    for phi in (0.0, 0.7, 2.1):
        assert _same_bits(at(phi), apart.on_grid(r, y)(phi))
    parts = {m.mode: at(m) for m in f.modes}
    assert parts[-1][0] is parts[1][0]  # one g, formed once, on both modes
    assert _same_bits(parts[1], apart.on_grid(r, y)(apart.modes[2]))
    assert shared.forms == 1


def _held_closure_cases():
    """f with mode 0 between two modes, alone (real, so the closure returns its
    held float arrays) and first of two (so the first addition allocates)."""
    profile = lambda amp: ProductProfile(PlateauLogBump(0.5, 2.0), (GaussBumpY(-1.0, 1.0),),
                                         amplitude=amp)
    return {
        "(-1, 0, 1)": _shared_pair_and_zero(profile(0.5))[0],
        "(0,)": TestFunction([AngularMode(0, profile(0.5))]),
        "(0, 1)": TestFunction([AngularMode(0, profile(0.5)), AngularMode(1, profile(0.3j))]),
    }


@pytest.mark.parametrize("case", sorted(_held_closure_cases()))
def test_the_closure_never_writes_its_held_products(case):
    # at phi = 0 every mode's e^(i mode phi) is 1, so a sum that started from
    # the held products themselves, or added into them, would change them;
    # a call on a mode returns them
    f = _held_closure_cases()[case]
    r, y = _grid_k(1)
    at = f.on_grid(r, y)
    zero_before = at.mode_zero(0.0).copy()
    held = [[v.copy() for v in at(m)] for m in f.modes]
    first = [v.copy() for v in at(0.0)]
    _at_angles(at)
    assert _same_bits(first, at(0.0))
    assert np.array_equal(zero_before, at.mode_zero(0.0))
    assert all(_same_bits(parts, at(m)) for parts, m in zip(held, f.modes, strict=True))


@pytest.mark.parametrize("check", ["magnetic", "ab_hardy"])
def test_weights_run_once_per_check(monkeypatch, check):
    import maghardy.verifiers._grids as grids
    import maghardy.verifiers.grushin as grushin

    counts = {"rho": 0, "integrals": 0}
    rho_power_rs, polar_integral = grushin.rho_power_rs, grushin.polar_integral

    def counting_rho(*args):
        counts["rho"] += 1
        return rho_power_rs(*args)

    def counting_integral(*args):
        counts["integrals"] += 1
        return polar_integral(*args)

    monkeypatch.setattr(grushin, "rho_power_rs", counting_rho)
    # magnetic_grushin reaches it through _grids.integrate, ab_hardy directly
    monkeypatch.setattr(grids, "polar_integral", counting_integral)
    monkeypatch.setattr(grushin, "polar_integral", counting_integral)
    geom, exps, flux = GrushinGeometry(2, 1, 1.0), WeightExponents(0.5, 0.2), FluxParam(0.5)
    f = _real_cos_pair(PlateauLogBump(0.5, 2.0))
    spec = QuadratureSpec(n_r=16, n_phi=12, n_y=6)
    if check == "magnetic":
        rep = verify_magnetic_grushin(geom, exps, flux, f, spec)
    else:
        rep = verify_ab_hardy(geom, exps, flux, f, spec)
    assert rep.margin >= -rep.tolerance()
    assert counts["integrals"] == 1
    assert counts["rho"] == 1


# --- row blocks: a heavy check runs block by block, to roundoff ---------------

# k = 2 at the margins resolution: 3 panels x 48 = 144 radial rows times
# 36^2 = 1296 y nodes, of which a y-even f (every f here) runs the
# 18^2 = 324 in y >= 0.  A block holds 37 rows, 11,988 nodes, the most whole
# rows within quadrature.BLOCK_NODES = 12,288 nodes, so the grid is 4 row
# blocks: three of 37 rows and one of 33
HEAVY = QuadratureSpec(n_r=48, n_phi=12, n_y=12)
HEAVY_BLOCKS = 4
HEAVY_GEOM, HEAVY_EXPS = GrushinGeometry(2, 2, 1.0), WeightExponents(0.5, 0.2)


def _heavy_ab_hardy(f, spec=HEAVY):
    return verify_ab_hardy(HEAVY_GEOM, HEAVY_EXPS, FluxParam(0.5), f, spec)


def _three_complex_modes():
    return random_test_function(np.random.default_rng(1), k=2, modes=(-1, 0, 2))


def test_blocked_reports_match_single_block(monkeypatch):
    import maghardy.quadrature as quadrature

    real = random_test_function(np.random.default_rng(2), k=2, modes=(0,), real=True)

    def reports():
        return (_heavy_ab_hardy(_three_complex_modes()).to_dict(),
                verify_radial_hardy(HEAVY_GEOM, HEAVY_EXPS, real, HEAVY).to_dict())

    blocked = reports()
    # one block of the whole grid (144 x 324 nodes)
    monkeypatch.setattr(quadrature, "BLOCK_NODES", 144 * 324)
    for want, got in zip(reports(), blocked, strict=True):
        assert_reports_close(want, got)


class _CountingGaussY(_Counting, GaussBumpY):
    """Gaussian y bump that counts its evaluations."""


def test_factors_run_once_per_integration_across_its_row_blocks(monkeypatch):
    import maghardy.quadrature as quadrature

    radial, gauss = _CountingBump(0.5, 2.0), _CountingGaussY(-1.0, 1.0)
    f = TestFunction([
        AngularMode(0, ProductProfile(radial, (gauss,) * 2)),
        AngularMode(2, ProductProfile(PlateauLogBump(0.5, 2.0), (GaussBumpY(-1.0, 1.0),) * 2,
                                      amplitude=0.5j)),
    ])
    blocks, tensor_sums = [], quadrature._tensor_sums

    def counting_blocks(density, *args):
        return tensor_sums(lambda r, y: blocks.append(r.shape) or density(r, y), *args)

    monkeypatch.setattr(quadrature, "_tensor_sums", counting_blocks)
    # two modes, so once per block would not be once per mode either
    rep = _heavy_ab_hardy(f, QuadratureSpec(n_r=48, n_phi=16, n_y=12))
    assert rep.margin >= -rep.tolerance()
    assert len(blocks) == HEAVY_BLOCKS
    # the radial factor once on the whole rule, the y factor once per axis
    assert (radial.calls, gauss.calls) == (1, 2)


def test_every_mode_forms_its_products_once_per_row_block():
    # four modes on each block, and mode_zero on top: once per call would be
    # 8 forms of mode 0 per block
    def counting(amplitude):
        return _CountingProfile(PlateauLogBump(0.5, 2.0), (GaussBumpY(-1.0, 1.0),) * 2,
                                amplitude=amplitude)

    profiles = {0: counting(1.0), 1: counting(0.5), 2: counting(0.5j)}
    f = TestFunction([AngularMode(-1, profiles[1])]
                     + [AngularMode(m, p) for m, p in profiles.items()])
    rep = _heavy_ab_hardy(f, QuadratureSpec(n_r=48, n_phi=16, n_y=12))
    assert rep.rhs_terms["mode_defect"] > 0.0
    assert [p.forms for p in profiles.values()] == [HEAVY_BLOCKS] * 3


def _heavy_peak(f, spec=HEAVY):
    """tracemalloc's peak over one heavy ab_hardy check, in bytes."""
    import tracemalloc

    _heavy_ab_hardy(f, spec)  # rules and realness are cached; measure the check alone
    tracemalloc.start()
    try:
        _heavy_ab_hardy(f, spec)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_heavy_ab_hardy_peak_memory():
    # on the whole box (f off centre, 144 x 1296 nodes): 50.0 MB when every
    # slice formed full-grid temporaries, 20.4 MB with full-grid integrand
    # arrays gathered from row blocks, 3.4 MB one block at a time
    assert _heavy_peak(_off_centre(_three_complex_modes())) < 8 * 2**20


def test_heavy_ab_hardy_peak_memory_off_the_row_grid():
    # n_r = 47 on the whole box: 141 rows of 1296 nodes, fifteen blocks of 9
    # rows and a last block of 6.  Run as one block, the whole grid peaks at
    # 73 MB
    f = _off_centre(_three_complex_modes())
    assert _heavy_peak(f, QuadratureSpec(n_r=47, n_phi=12, n_y=12)) < 8 * 2**20


def test_heavy_ab_hardy_peak_memory_does_not_grow_with_n_r():
    # 288 radial rows instead of 144: twice the blocks, one alive at a time
    f = _three_complex_modes()
    peaks = [_heavy_peak(f, QuadratureSpec(n_r=n_r, n_phi=12, n_y=12)) for n_r in (48, 96)]
    assert abs(peaks[1] - peaks[0]) < 2**20


def test_oracle_ab_hardy_peak_memory():
    # run on its whole grid (2403 x 163 nodes), the oracle left this check's
    # density holding 12 whole-grid complex arrays, a 152.5 MB peak; in row
    # blocks of quadrature.ORACLE_BLOCK_NODES it peaks at 3.5 MB
    import tracemalloc

    f = random_test_function(np.random.default_rng(5), k=1, modes=(0, 1, -2))
    spec = QuadratureSpec(n_r=48, n_phi=12, n_y=12, oracle=True)
    tracemalloc.start()
    try:
        rep = verify_ab_hardy(GrushinGeometry(2, 1, 1.0), WeightExponents(0.5, 0.5),
                              FluxParam(0.5), f, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_grad_y_sq_is_bitwise_the_trailing_axis_sum(k):
    # a row block (n_rows, n_flat, k) and a column of 3 angles on it
    rng = np.random.default_rng(k)
    for shape in [(12, 36, k), (3, 12, 36, k)]:
        dy = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
            * 10.0 ** rng.uniform(-4.0, 4.0, shape)
        assert np.array_equal(grad_y_sq(dy), np.sum(abs2(dy), axis=-1))


# --- Grushin terms on rho-radial f against gauge-polar references -------------

# On f = F(rho) each term is the Beta factor of _closed_forms times a 1-D
# integral in rho of its own rule, sharing no code with the weights B and
# w = |grad_g rho|^2 / rho^2 or with the tensor path.  F = X^3 e^(-X), X =
# rho^(2+2 gamma), vanishes to order 6 (1 + gamma) at the gauge origin, where
# the weights' fractional powers of X sit, so the engine converges fast: at
# (n_r, n_y) = (96, 48) the worst relative error of the terms below measured
# 4.8e-11 at (m, k, gamma) = (2, 1, 0) and 1.6e-11 at (3, 2, 0.5), against
# 3.8e-8 and 1.6e-8 at (64, 32).
_GAUGE_TOL = 2e-10
_GAUGE_CASES = {"(2, 1, 0)": (GrushinGeometry(2, 1, 0.0), WeightExponents(0.5, 0.3)),
                "(3, 2, 0.5)": (GrushinGeometry(3, 2, 0.5), WeightExponents(-1.0, 0.4))}


def _gauge_references(geom, exps, profile, alpha):
    """(shifted lhs, gradient, Hardy) integrals of grushin_ibp on F(rho):
    each a power of |x| / rho, c = gamma alpha2 + 2 gamma, times
    int rho^(alpha1 + Q - 1) (F' + alpha F / rho)^2, alpha = 0 for the
    gradient, and int rho^(alpha1 + Q - 3) F^2 for the Hardy integral."""
    g, s = geom.gamma, exps.alpha1 + geom.hom_dim
    K = gauge_polar_factor(geom.m, geom.k, g, g * exps.alpha2 + 2.0 * g)
    hi = 2.0 * profile.r_hi

    def energy(a):
        def fn(rho):
            F, dF = profile.F(rho)
            return rho ** (s - 1.0) * (dF + a * F / rho) ** 2
        return K * log_integral(fn, 1e-6, hi)

    hardy = K * log_integral(lambda rho: rho ** (s - 3.0) * profile.F(rho)[0] ** 2, 1e-6, hi)
    return energy(alpha), energy(0.0), hardy


@pytest.mark.parametrize("case", sorted(_GAUGE_CASES))
def test_grushin_terms_on_rho_radial_f_match_the_gauge_polar_reference(monkeypatch, case):
    geom, exps = _GAUGE_CASES[case]
    profile = GaugeGauss(geom, 3)
    f, spec, alpha = TestFunction([AngularMode(0, profile)]), QuadratureSpec(n_r=96, n_y=48), 0.7
    want = _gauge_references(geom, exps, profile, alpha)
    got, rx_integral = [], grushin.rx_integral
    monkeypatch.setattr(grushin, "rx_integral", lambda *a: got.append(rx_integral(*a)) or got[-1])
    identity = check_grushin_ibp_identity(geom, exps, f, alpha, spec)
    hardy = verify_radial_hardy(geom, exps, f, spec)
    # the identity's three integrals, then radial_hardy's lhs and main
    pairs = list(zip(got[0], want)) + [(hardy.lhs, want[1]),
                                      (hardy.rhs_terms["main"], hardy.sharp_constant * want[2])]
    for value, reference in pairs:
        assert abs(value - reference) <= _GAUGE_TOL * abs(reference), (value, reference)
    # and the reference meets the identity: lhs = grad - ((Q + a1 - 2) a - a^2) hardy
    s_hom = geom.hom_dim + exps.alpha1 - 2.0
    assert want[0] == pytest.approx(want[1] - (s_hom * alpha - alpha ** 2) * want[2], rel=1e-13)
    assert identity.rel_err <= _GAUGE_TOL
