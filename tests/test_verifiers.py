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
from maghardy.errors import AdmissibilityError, DomainError, RealnessError
from maghardy.functions import (
    AngularMode,
    GaussBumpY,
    PlateauLogBump,
    ProductProfile,
    TestFunction,
    make_bump,
    random_test_function,
)
from maghardy.quadrature import Domain, integrate_polar
from maghardy.verifiers import (
    check_grushin_ibp_identity,
    fourier_defect_terms,
    verify_ab_hardy,
    verify_constant_field,
    verify_magnetic_grushin,
    verify_radial_hardy,
    verify_uncertainty_grushin,
)

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


def test_ibp_identity_two_transverse_dimensions():
    rng = np.random.default_rng(1012)
    geom = GrushinGeometry(2, 2, 1.0)
    f = random_test_function(rng, k=2, modes=(0,), real=True)
    rep = check_grushin_ibp_identity(geom, WeightExponents(0.5, 0.2), f, 0.9,
                                     QuadratureSpec(n_r=128, n_y=40))
    assert rep.rel_err <= 1e-8


def test_ibp_identity_rejects_spinning_functions():
    geom = GrushinGeometry(2, 1, 1.0)
    prof = ProductProfile(PlateauLogBump(0.5, 2.0), (GaussBumpY(-1, 1),))
    f = TestFunction([AngularMode(2, prof)])
    with pytest.raises(AdmissibilityError):
        check_grushin_ibp_identity(geom, WeightExponents(0.0, 0.0), f, 0.7, SPEC)


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
        pots = ConstantFieldPotentials.linear(n, 0.5)
        exps = WeightExponents(0.3, 0.1)
        f = random_test_function(rng, k=n, modes=(0,), real=True)
        rep = verify_constant_field(geom, exps, pots, f, SPEC)
        assert rep.margin >= -rep.tolerance()
        assert rep.params["margin_squared"] >= -rep.tolerance()
        assert rep.params["split_rel_err"] <= 1e-8


def test_constant_field_shape_guard():
    pots = ConstantFieldPotentials.linear(1, 0.5)
    f = random_test_function(np.random.default_rng(3), k=1, modes=(0,), real=True)
    with pytest.raises(DomainError):
        verify_constant_field(GrushinGeometry(2, 1, 1.0), WeightExponents(0, 0), pots, f, SPEC)


def test_constant_field_rejects_complex():
    pots = ConstantFieldPotentials.linear(1, 0.5)
    f = random_test_function(np.random.default_rng(4), k=1, modes=(0,), real=False)
    # a lone mode-0 profile with complex amplitude is still complex-valued
    if f.is_real_valued():
        pytest.skip("draw happened to be real")
    with pytest.raises(RealnessError):
        verify_constant_field(GrushinGeometry(1, 1, 1.0), WeightExponents(0, 0), pots, f, SPEC)


# --- phi-independent work once per check ---------------------------------------

class _CountingBump(PlateauLogBump):
    """Plateau bump that counts the calls of its value factor."""

    calls = 0

    def v(self, r):
        self.calls += 1
        return super().v(r)


def _real_cos_pair(radial):
    shared = ProductProfile(radial, (GaussBumpY(-1.0, 1.0),), amplitude=0.5)
    return TestFunction([AngularMode(-1, shared), AngularMode(1, shared)])


def test_radial_factor_runs_once_per_grid_across_phi_slices():
    radial = _CountingBump(0.5, 2.0)
    f = _real_cos_pair(radial)
    dom = Domain(0.5, 2.0, y_box=((-1.0, 1.0),), r_breaks=f.support()[3])
    spec = QuadratureSpec(n_r=16, n_phi=12, n_y=6)

    def density(r, y):
        on = f.on_grid(r, y)
        return lambda phi: (on(phi)[1],)

    integrate_polar(density, spec, dom)
    assert radial.calls == 1


def test_radial_factor_runs_once_across_the_integrals_of_a_check():
    # modes -1 and +1 share one profile, whose factors are computed once
    radial = _CountingBump(0.5, 2.0)
    f = _real_cos_pair(radial)
    assert f.is_real_valued()  # cached; samples its own grid
    radial.calls = 0
    rep = verify_magnetic_grushin(GrushinGeometry(2, 1, 1.0), WeightExponents(0.5, 0.2),
                                  FluxParam(0.5), f, QuadratureSpec(n_r=16, n_phi=12, n_y=6))
    assert rep.margin >= -rep.tolerance()
    assert radial.calls == 1


@pytest.mark.parametrize("check", ["magnetic", "ab_hardy"])
def test_weights_run_once_per_check(monkeypatch, check):
    import maghardy.verifiers.grushin as grushin

    counts = {"rho": 0, "integrals": 0}
    rho_rs, polar_integral = grushin.rho_rs, grushin.polar_integral

    def counting_rho(*args):
        counts["rho"] += 1
        return rho_rs(*args)

    def counting_integral(*args):
        counts["integrals"] += 1
        return polar_integral(*args)

    monkeypatch.setattr(grushin, "rho_rs", counting_rho)
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
