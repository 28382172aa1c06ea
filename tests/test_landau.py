"""Twisted-gradient identities and weighted bounds on the plane."""

import json
import math

import numpy as np
import pytest

from maghardy import QuadratureSpec
from maghardy.errors import AdmissibilityError, DomainError, RealnessError
from maghardy.fields import RadialPotential
from maghardy.functions import (
    AngularMode,
    GaussTail,
    PlateauLogBump,
    PowerLogWindow,
    ProductProfile,
    TestFunction,
    make_bump,
    random_test_function,
)
from maghardy.geometry import sphere_area
from maghardy.reports import SuperweightParams, jsonable
from maghardy.verifiers import check_twisted_polar_identity, verify_landau, verify_real_landau

from _closed_forms import GAUSS_SPEC, gauss_moment, gaussian, log_integral, power_gaussian
from _tolerance import assert_reports_close

SPEC = QuadratureSpec(n_r=128, n_phi=16)

FIVE_PI_OVER_4 = 5.0 * math.pi / 4.0


def plane_function(rng, modes, real=False, r_band=(0.3, 1.0)):
    return random_test_function(rng, k=0, modes=modes, real=real,
                                r_lo_range=r_band)


# --- polar split of the twisted Dirichlet integral ---------------------------

def test_twisted_polar_identity_real_multimode():
    rng = np.random.default_rng(2001)
    psi = RadialPotential.power(1.0, 1.0)  # psi(r) = r
    kappa = lambda r: r ** 2
    f = plane_function(rng, modes=(-1, 0, 2), real=True)
    rep = check_twisted_polar_identity(psi, kappa, f, SPEC)
    assert rep.identity_id == "twisted_polar"
    assert rep.rel_err <= 1e-8


def test_twisted_polar_identity_complex_radial():
    # a complex f on mode 0 alone has no angular cross term; a lone rotating
    # mode k carries 2 k psi |g_k|^2 / kappa (refused, below)
    prof = ProductProfile(PowerLogWindow(-0.4, 0.5, 2.0), amplitude=0.7 + 0.3j)
    f = TestFunction([AngularMode(0, prof)])
    psi = RadialPotential.constant(0.5)
    rep = check_twisted_polar_identity(psi, lambda r: np.ones_like(r), f, SPEC)
    assert rep.rel_err <= 1e-8


@pytest.mark.parametrize("psi", [RadialPotential.constant(0.5),
                                 RadialPotential.power(0.8, 2.0)])
def test_twisted_polar_identity_various_potentials(psi):
    rng = np.random.default_rng(2002)
    f = plane_function(rng, modes=(0, 1), real=True)
    rep = check_twisted_polar_identity(psi, lambda r: np.ones_like(r), f, SPEC)
    assert rep.rel_err <= 1e-8


def test_twisted_polar_identity_refuses_a_lone_rotating_mode():
    # per mode, lhs - rhs = 2 pi int 2 k psi |g_k|^2 / kappa r dr: the
    # probe on mode 1 alone read rel_err 9.63e-3 and failed; a real +-k
    # pair cancels it, and mode 0 carries none
    psi, kappa = RadialPotential.constant(0.5), lambda r: np.ones_like(r)
    for modes in ((1,), (2,), (-1,), (-1, 0, 2)):
        probe = random_test_function(np.random.default_rng(3), k=0, modes=modes)
        with pytest.raises(RealnessError, match="cross term"):
            check_twisted_polar_identity(psi, kappa, probe, SPEC)
    pair = random_test_function(np.random.default_rng(3), k=0, modes=(1,), real=True)
    assert [m.mode for m in pair.modes] == [-1, 1] and pair.real_valued
    radial = random_test_function(np.random.default_rng(3), k=0, modes=(0,))
    assert not radial.real_valued
    for f in (pair, radial):
        rep = check_twisted_polar_identity(psi, kappa, f, SPEC)
        assert rep.passed() and rep.rel_err <= 1e-12


def test_twisted_polar_identity_rejects_cylinder_functions():
    f = random_test_function(np.random.default_rng(1), k=1, modes=(0,))
    with pytest.raises(DomainError):
        check_twisted_polar_identity(RadialPotential.constant(0.5),
                                     lambda r: np.ones_like(r), f, SPEC)


# --- constant-field split identity and the frozen Gaussian value -------------

def test_real_landau_identity_gaussian_value():
    # f = exp(-|z|^2/2) rolled off at |z| = 8: the twisted energy with
    # psi = 1/2 equals the Dirichlet + |z|^2/4 mass, and both equal 5*pi/4
    # up to a tail below 1e-12
    f = TestFunction([AngularMode(0, ProductProfile(GaussTail()))])
    rep = verify_real_landau("identity", 1, f, QuadratureSpec(n_r=192, n_phi=4))
    assert rep.identity_id == "real_landau_identity"
    assert rep.rel_err <= 1e-10
    assert abs(rep.lhs - FIVE_PI_OVER_4) <= 1e-6 * FIVE_PI_OVER_4

    check = verify_real_landau("identity", 1, f,
                               QuadratureSpec(n_r=192, n_phi=4, oracle=True))
    assert abs(rep.lhs - check.lhs) <= 1e-7 * abs(check.lhs)
    assert abs(check.lhs - FIVE_PI_OVER_4) <= 1e-6 * FIVE_PI_OVER_4


def test_real_landau_identity_random_windows():
    rng = np.random.default_rng(2003)
    f = plane_function(rng, modes=(0,), real=True)
    rep = verify_real_landau("identity", 1, f, SPEC)
    assert rep.rel_err <= 1e-8


# --- weighted bounds for the twisted gradient --------------------------------

def test_hardy_sobolev_margin_and_terms():
    rng = np.random.default_rng(2004)
    psi = RadialPotential.power(0.7, 1.0)
    f = plane_function(rng, modes=(-1, 0, 1))
    rep = verify_landau("hardy_sobolev", psi, 1.2, f, SPEC)
    assert rep.theorem_id == "landau_hardy_sobolev"
    assert rep.sharp_constant == pytest.approx(1.44)
    assert list(rep.rhs_terms) == ["main", "psi_potential", "mode_defect"]
    assert rep.margin >= -rep.tolerance()
    assert rep.rhs_terms["mode_defect"] >= -rep.tolerance()
    assert rep.rhs_terms["psi_potential"] >= -rep.tolerance()


def test_hardy_sobolev_refuses_zero_or_missing_theta1():
    # theta1 is a number; a zero or missing one is refused
    rng = np.random.default_rng(2005)
    psi = RadialPotential.constant(0.3)
    f = plane_function(rng, modes=(0,), real=True)
    with pytest.raises(AdmissibilityError):
        verify_landau("hardy_sobolev", psi, 0.0, f, SPEC)
    with pytest.raises(AdmissibilityError):
        verify_landau("hardy_sobolev", psi, None, f, SPEC)


@pytest.mark.parametrize("theta1", [0.1, 1.2])
def test_hardy_sobolev_refuses_an_f_that_reaches_the_origin_at_positive_theta1(
        monkeypatch, theta1):
    # the main term integrates r^(-2 theta1 - 1) |g|^2 near 0, which diverges
    # where g(0) != 0 and theta1 > 0; refused before any quadrature runs
    def never(*args):
        raise AssertionError("ran quadrature on a refused input")

    monkeypatch.setattr("maghardy.verifiers.landau.polar_integral", never)
    f = TestFunction([AngularMode(0, ProductProfile(GaussTail()))])
    with pytest.raises(AdmissibilityError, match="vanish at the origin"):
        verify_landau("hardy_sobolev", RadialPotential.constant(0.0), theta1, f, SPEC)


@pytest.mark.parametrize("theta1, c, s", [(-0.5, 0.3, 0.5), (-1.2, -0.8, 0.86)])
def test_hardy_sobolev_on_the_gaussian_matches_its_closed_forms(theta1, c, s):
    # f = e^(-a r^2) on mode 0, psi = c r^s: |twisted grad f|^2 is
    # (4 a^2 r^2 + c^2 r^(2s+2)) |f|^2, so against r^(-2 theta1) r dr dphi
    # lhs = 2 pi (4 a^2 M(3 - 2 theta1) + c^2 M(2s + 3 - 2 theta1)) and the
    # psi term is its second part; the rolloff past r = 6 and the cutoff
    # below 1e-8 sit far below 1e-12 (measured 9.7e-15 and 1.1e-14)
    a = 0.5
    f = gaussian(a)
    rep = verify_landau("hardy_sobolev", RadialPotential.power(c, s), theta1, f, SPEC)
    psi_term = 2.0 * math.pi * c * c * gauss_moment(a, 2.0 * s + 3.0 - 2.0 * theta1)
    lhs = 2.0 * math.pi * 4.0 * a * a * gauss_moment(a, 3.0 - 2.0 * theta1) + psi_term
    assert SPEC.n_r == 128
    assert rep.lhs == pytest.approx(lhs, rel=1e-12, abs=0.0)
    assert rep.rhs_terms["psi_potential"] == pytest.approx(psi_term, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("a", [0.5, 0.8])
def test_real_landau_identity_on_the_gaussian_matches_its_closed_form(a):
    # psi = 1/2: |twisted grad f|^2 = (4 a^2 + 1/4) r^2 |f|^2 on both sides,
    # so lhs = rhs = 2 pi (4 a^2 + 1/4) M(3) = pi (1 + 1/(16 a^2)), M(3) = 1/(8 a^2)
    # (measured within 1.1e-14)
    rep = verify_real_landau("identity", 1, gaussian(a), GAUSS_SPEC)
    want = math.pi * (1.0 + 1.0 / (16.0 * a * a))
    assert GAUSS_SPEC.n_r == 192
    assert rep.lhs == pytest.approx(want, rel=1e-12, abs=0.0)
    assert rep.rhs == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("c, s, k0", [(0.3, 0.5, 2.0), (-0.8, 0.86, 0.7)])
@pytest.mark.parametrize("a", [0.5, 0.8])
def test_twisted_polar_on_the_gaussian_matches_its_closed_form(a, c, s, k0):
    # psi = c r^s, kappa = k0: both sides are
    # (2 pi / k0) int (4 a^2 r^3 + c^2 r^(2s+3)) e^(-2 a r^2) dr
    # (measured within 1.1e-14)
    rep = check_twisted_polar_identity(RadialPotential.power(c, s), RadialPotential.constant(k0),
                                       gaussian(a), GAUSS_SPEC)
    want = (2.0 * math.pi / k0) * (4.0 * a * a * gauss_moment(a, 3.0)
                                   + c * c * gauss_moment(a, 2.0 * s + 3.0))
    assert rep.lhs == pytest.approx(want, rel=1e-12, abs=0.0)
    assert rep.rhs == pytest.approx(want, rel=1e-12, abs=0.0)



@pytest.mark.parametrize("c, s", [(0.0, 1.0), (0.3, 0.5), (-0.8, 0.86)])
@pytest.mark.parametrize("a", [0.5, 0.8])
def test_poincare_on_the_gaussian_matches_its_closed_forms(a, c, s):
    # on the ball R = 8, the rolloff's r_hi, with psi = c r^s:
    # lhs = 2 pi (4 a^2 M(3) + c^2 M(2s + 3)), the psi term is its second
    # part, main = 2 pi M(1) / R^2, and one mode has no defect
    # (measured within 1.1e-14)
    R = 8.0
    psi = RadialPotential.power(c, s) if c else RadialPotential.constant(0.0)
    rep = verify_landau("poincare", psi, None, gaussian(a), GAUSS_SPEC, radius=R)
    psi_term = 2.0 * math.pi * c * c * gauss_moment(a, 2.0 * s + 3.0)
    lhs = 2.0 * math.pi * 4.0 * a * a * gauss_moment(a, 3.0) + psi_term
    assert rep.lhs == pytest.approx(lhs, rel=1e-12, abs=0.0)
    assert rep.rhs_terms["main"] == pytest.approx(2.0 * math.pi * gauss_moment(a, 1.0) / R**2,
                                                  rel=1e-12, abs=0.0)
    assert rep.rhs_terms["psi_potential"] == pytest.approx(psi_term, rel=1e-12, abs=0.0)
    assert rep.rhs_terms["mode_defect"] == 0.0

def _twisted_moment(a, j, k, c, s, e):
    """int_0^inf r^e (|g'|^2 + (k/r + c r^(s+1))^2 |g|^2) r dr for
    g = r^j e^(-a r^2), psi = c r^s: mode k's twisted square is
    (j^2 + k^2) r^(2j-2) - 4 a j r^(2j) + 4 a^2 r^(2j+2) + 2 k c r^(2j+s)
    + c^2 r^(2j+2s+2), times e^(-2 a r^2), the cross term 2 k c included."""
    M = lambda p: gauss_moment(a, p + e + 1.0)
    return ((j * j + k * k) * M(2 * j - 2) - 4.0 * a * j * M(2 * j) + 4.0 * a * a * M(2 * j + 2)
            + 2.0 * k * c * M(2 * j + s) + c * c * M(2 * j + 2 * s + 2))


# r^j e^(-a r^2) vanishes at 0 to order j = |k|: its cutoff r_lo = 1e-8
# drops r_lo^(p + 1) / (p + 1) of a moment M(p), and p >= 1 here, so at most
# 5e-17, 1e-16 of M(1) at a = 0.5 (measured within 1.1e-14 in all)
@pytest.mark.parametrize("theta1, c, s", [(-0.5, 0.3, 0.5), (-1.2, -0.8, 0.86)])
@pytest.mark.parametrize("k", [1, -1, 2])
def test_hardy_sobolev_on_a_rotating_mode_matches_its_closed_forms(k, theta1, c, s):
    # against r^(-2 theta1) r dr dphi on one mode k: lhs carries the cross
    # term 2 k c r^(2j+s) of the twisted square; the psi term is
    # 2 pi c^2 M(2j + 2s + 3 - 2 theta1), and the mode defect, all of |f|^2
    # on a mode k != 0, 2 pi M(2j - 1 - 2 theta1), which main takes times
    # theta1^2
    a, j = 0.5, abs(k)
    f = power_gaussian(j, a, (k,))
    rep = verify_landau("hardy_sobolev", RadialPotential.power(c, s), theta1, f, GAUSS_SPEC)
    defect = 2.0 * math.pi * gauss_moment(a, 2 * j - 1 - 2.0 * theta1)
    want = {"lhs": 2.0 * math.pi * _twisted_moment(a, j, k, c, s, -2.0 * theta1),
            "main": theta1 * theta1 * defect,
            "psi_potential": 2.0 * math.pi * c * c * gauss_moment(a, 2 * j + 2 * s + 3 - 2 * theta1),
            "mode_defect": defect}
    got = {"lhs": rep.lhs, **rep.rhs_terms}
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("c, s, k0", [(0.3, 0.5, 2.0), (-0.8, 0.86, 0.7)])
@pytest.mark.parametrize("k", [1, 2])
def test_twisted_polar_on_a_real_pair_matches_its_closed_form(k, c, s, k0):
    # f = 2 r^k e^(-a r^2) cos(k phi) on the modes +-k: the cross terms
    # 2 (+-k) c of the two modes cancel, so both sides are the sum of the
    # two modes' twisted squares over kappa = k0
    a = 0.5
    f = power_gaussian(k, a, (-k, k))
    assert f.real_valued
    rep = check_twisted_polar_identity(RadialPotential.power(c, s), RadialPotential.constant(k0),
                                       f, GAUSS_SPEC)
    want = (2.0 * math.pi / k0) * (_twisted_moment(a, k, k, c, s, 0.0)
                                   + _twisted_moment(a, k, -k, c, s, 0.0))
    assert rep.lhs == pytest.approx(want, rel=1e-12, abs=0.0)
    assert rep.rhs == pytest.approx(want, rel=1e-12, abs=0.0)


def test_hardy_sobolev_defect_vanishes_for_single_mode():
    rng = np.random.default_rng(2006)
    psi = RadialPotential.power(0.5, 1.0)
    f = plane_function(rng, modes=(0,), real=True)
    rep = verify_landau("hardy_sobolev", psi, 1.0, f, SPEC)
    scale = abs(rep.lhs) + abs(rep.rhs_terms["main"])
    assert abs(rep.rhs_terms["mode_defect"]) <= 1e-12 * scale


def test_log_variant_needs_unit_disc_support():
    rng = np.random.default_rng(2007)
    psi = RadialPotential.constant(0.5)
    inside = plane_function(rng, modes=(0, 1), real=True, r_band=(0.2, 0.27))
    assert inside.support()[1] <= 1.0
    rep = verify_landau("log", psi, None, inside, SPEC)
    assert rep.theorem_id == "landau_log"
    assert rep.sharp_constant == pytest.approx(0.25)
    assert rep.margin >= -rep.tolerance()
    outside = plane_function(rng, modes=(0,), real=True, r_band=(0.9, 1.0))
    if outside.support()[1] > 1.0:
        with pytest.raises(AdmissibilityError):
            verify_landau("log", psi, None, outside, SPEC)


def test_poincare_variant_on_a_ball():
    rng = np.random.default_rng(2008)
    psi = RadialPotential.power(0.4, 1.0)
    f = plane_function(rng, modes=(0, 1), real=True)
    R = f.support()[1] * 1.5
    rep = verify_landau("poincare", psi, None, f, SPEC, radius=R)
    assert rep.sharp_constant == pytest.approx(1.0 / R ** 2)
    assert rep.margin >= -rep.tolerance()
    with pytest.raises(AdmissibilityError):
        verify_landau("poincare", psi, None, f, SPEC)  # no ball given
    with pytest.raises(AdmissibilityError):
        verify_landau("poincare", psi, None, f, SPEC, radius=f.support()[1] * 0.5)


def test_superweight_margin_and_zero_constant_case():
    rng = np.random.default_rng(2009)
    psi = RadialPotential.constant(0.5)
    f = plane_function(rng, modes=(0,), real=True)
    w = SuperweightParams(1.0, 1.0, -2.0, 1.0, -2.0)
    rep = verify_landau("superweight", psi, w, f, SPEC)
    assert rep.sharp_constant == pytest.approx(1.0)  # (t2 t3 - 2 t4) / 2
    assert rep.margin >= -rep.tolerance()

    # boundary case 2 t4 = t2 t3: the weighted mass is multiplied by zero and
    # the bound degenerates to lhs >= 0
    z = SuperweightParams(1.0, 1.0, 2.0, -1.0, -1.0)
    rep0 = verify_landau("superweight", psi, z, f, SPEC)
    assert rep0.sharp_constant == 0.0
    assert rep0.rhs_terms["main"] == 0.0
    assert rep0.margin >= -rep0.tolerance()

    with pytest.raises(AdmissibilityError):
        verify_landau("superweight", psi, SuperweightParams(1.0, 1.0, -2.0, 1.0, 0.5), f, SPEC)
    with pytest.raises(AdmissibilityError):
        SuperweightParams(1.0, 1.0, 2.0, 1.0, -2.0)  # t2 t3 must be negative
    with pytest.raises(AdmissibilityError):
        SuperweightParams(-1.0, 1.0, -2.0, 1.0, -2.0)


def test_landau_oracle_route_agreement():
    rng = np.random.default_rng(2010)
    psi = RadialPotential.power(0.7, 1.0)
    f = plane_function(rng, modes=(0, 1))
    a = verify_landau("hardy_sobolev", psi, 1.1, f, SPEC)
    b = verify_landau("hardy_sobolev", psi, 1.1, f,
                      QuadratureSpec(n_r=128, n_phi=16, oracle=True))
    assert abs(a.lhs - b.lhs) <= 1e-7 * abs(b.lhs)
    for key in a.rhs_terms:
        scale = max(abs(b.rhs_terms[key]), 1e-12 * abs(b.lhs))
        assert abs(a.rhs_terms[key] - b.rhs_terms[key]) <= 1e-7 * scale, key


# --- classical-field family ---------------------------------------------------

def test_real_landau_hardy_dimensions():
    rng = np.random.default_rng(2011)
    f = random_test_function(rng, k=0, modes=(0,), real=True)
    for n in (2, 3):
        rep = verify_real_landau("hardy", n, f, SPEC)
        assert rep.sharp_constant == pytest.approx((n - 1) ** 2)
        assert rep.margin >= -rep.tolerance()
    rep1 = verify_real_landau("hardy", 1, f, SPEC)
    assert rep1.sharp_constant == 0.0
    assert rep1.margin >= -rep1.tolerance()


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("a", [0.5, 0.8])
def test_real_landau_hardy_on_a_real_pair_matches_its_closed_forms(a, k):
    # n = 1, psi = 1/2, f = 2 r^k e^(-a r^2) cos(k phi) on the modes +-k:
    # the cross terms of the two modes cancel, and each mode's twisted square
    # (|g'|^2 + (k^2 / r^2 + r^2 / 4) |g|^2) r is
    # 2 k^2 r^(2k-1) - 4 a k r^(2k+1) + (4 a^2 + 1/4) r^(2k+3) times
    # e^(-2 a r^2); the constant is 0 (measured within 1.2e-14)
    f = power_gaussian(k, a, (k, -k))
    rep = verify_real_landau("hardy", 1, f, GAUSS_SPEC)
    M = lambda p: gauss_moment(a, p)
    want = {"lhs": 4.0 * math.pi * (2 * k * k * M(2 * k - 1) - 4.0 * a * k * M(2 * k + 1)
                                    + (4.0 * a * a + 0.25) * M(2 * k + 3)),
            "main": 0.0, "psi_potential": math.pi * M(2 * k + 3)}
    assert {"lhs": rep.lhs, **rep.rhs_terms} == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("a", [0.5, 0.8])
def test_real_landau_hardy_on_the_gaussian_matches_its_closed_forms(a, n):
    # on R^2n against S r^(2n-1) dr, S = |S^(2n-1)|: |f'|^2 + r^2 |f|^2 / 4
    # is (4 a^2 + 1/4) r^2 e^(-2 a r^2), main takes (n - 1)^2 / r^2 and the
    # psi term r^2 / 4 (measured within 1.2e-14)
    rep = verify_real_landau("hardy", n, gaussian(a), GAUSS_SPEC)
    S, M = sphere_area(2 * n), lambda p: gauss_moment(a, p)
    want = {"lhs": S * (4.0 * a * a + 0.25) * M(2 * n + 1),
            "main": S * (n - 1) ** 2 * M(2 * n - 3), "psi_potential": S * M(2 * n + 1) / 4.0}
    assert {"lhs": rep.lhs, **rep.rhs_terms} == pytest.approx(want, rel=1e-12, abs=0.0)


# --- weights that are not powers of r, against a 1-D rule in log r ------------

# The reference integrates the profile's closed form r^j e^(-a r^2) on its
# own Gauss-Legendre rule in log r (_closed_forms.log_integral, 48 panels of
# 32 nodes: 1536 nodes, 4x the engine's two panels of 192) over the engine's
# [r_lo, fall]; the rolloff past fall holds e^(-2 a fall^2) of |f|^2, below
# 1e-15 here.  Measured within 1.2e-14.
_LOG_REL = 1e-12


def _log_reference(weight, j, a, lo, hi):
    """int_lo^hi weight(r) r^(2j) e^(-2 a r^2) r dr on the reference rule."""
    return log_integral(lambda r: weight(r) * r ** (2 * j + 1) * np.exp(-2.0 * a * r * r),
                        lo, hi, panels=48, n=32)


@pytest.mark.parametrize("f_kind", ["gaussian", "real pair k=1", "real pair k=2"])
@pytest.mark.parametrize("a", [0.5, 0.8])
def test_real_landau_critical_main_weight_matches_a_1d_reference(a, f_kind):
    # main = C int |f|^2 / (r^2 log^2(R / r)), R = e sup|z| by default: on
    # the Gaussian 2 pi times the radial integral, on a real pair
    # 2 r^k e^(-a r^2) cos(k phi) 4 pi times it
    if f_kind == "gaussian":
        f, j, modes_factor, fall = gaussian(a), 0, 2.0, 6.0
    else:
        j = int(f_kind[-1])
        f, modes_factor, fall = power_gaussian(j, a, (j, -j)), 4.0, 8.0
    rep = verify_real_landau("critical", 1, f, GAUSS_SPEC)
    R = rep.params["R"]
    assert R == math.e * f.support()[1]
    main = modes_factor * math.pi * _log_reference(
        lambda r: 1.0 / (r * r * np.log(R / r) ** 2), j, a, f.support()[0], fall)
    assert rep.rhs_terms["main"] == pytest.approx(rep.sharp_constant * main, rel=_LOG_REL, abs=0.0)


# inside the unit disc, as landau_log needs: the rolloff on [0.9, 1] at
# a = 30 holds e^(-48.6) of |f|^2
_DISC = {"fall": 0.9, "r_hi": 1.0}


@pytest.mark.parametrize("modes, j", [((0,), 0), ((0, 1), 1), ((-2, 2), 2)],
                         ids=["gaussian", "modes 0 and 1", "real pair k=2"])
@pytest.mark.parametrize("c, s", [(0.7, 0.0), (-1.3, 0.8)])
def test_landau_log_weights_match_a_1d_reference(modes, j, c, s):
    # the psi term int psi^2 r^2 log^2(r) |f|^2 over every mode, and the
    # mode defect int log^2(r) / r^2 (|f|^2 - |f0|^2) over the modes k != 0,
    # each 2 pi times its radial integral per mode of r^j e^(-a r^2)
    a = 30.0
    if j == 0:
        f = TestFunction([AngularMode(0, ProductProfile(GaussTail(a=a, r_lo=1e-8, **_DISC)))])
    else:
        f = power_gaussian(j, a, modes, **_DISC)
    psi = RadialPotential.power(c, s)
    rep = verify_landau("log", psi, None, f, GAUSS_SPEC)
    lo = f.support()[0]
    psi_term = 2.0 * math.pi * len(modes) * _log_reference(
        lambda r: c * c * r ** (2.0 * s) * r * r * np.log(r) ** 2, j, a, lo, 0.9)
    defect = 2.0 * math.pi * sum(m != 0 for m in modes) * _log_reference(
        lambda r: np.log(r) ** 2 / (r * r), j, a, lo, 0.9)
    assert rep.rhs_terms["psi_potential"] == pytest.approx(psi_term, rel=_LOG_REL, abs=0.0)
    assert rep.rhs_terms["mode_defect"] == pytest.approx(defect, rel=_LOG_REL, abs=0.0)
    assert (defect == 0.0) == (modes == (0,))


def test_real_landau_hardy_rejects_spinning_for_high_n():
    rng = np.random.default_rng(2012)
    f = plane_function(rng, modes=(-1, 1), real=True)
    with pytest.raises(AdmissibilityError):
        verify_real_landau("hardy", 2, f, SPEC)


def test_real_landau_critical_radius_handling():
    rng = np.random.default_rng(2013)
    f = plane_function(rng, modes=(0,), real=True)
    sup = f.support()[1]
    rep = verify_real_landau("critical", 1, f, SPEC)  # R defaults to e*sup
    assert rep.params["R"] == pytest.approx(math.e * sup)
    assert rep.margin >= -rep.tolerance()
    rep2 = verify_real_landau("critical", 1, f, SPEC, R=4.0 * sup)
    assert rep2.margin >= -rep2.tolerance()
    with pytest.raises(AdmissibilityError):
        verify_real_landau("critical", 1, f, SPEC, R=2.0 * sup)  # < e * sup
    rep3 = verify_real_landau("critical", 1, f, SPEC, radius=2.0 * sup)
    assert rep3.params["R"] == pytest.approx(math.e * 2.0 * sup)
    with pytest.raises(AdmissibilityError):
        verify_real_landau("critical", 1, f, SPEC, radius=0.5 * sup)


def test_real_landau_uncertainty():
    rng = np.random.default_rng(2014)
    f = plane_function(rng, modes=(0,), real=True)
    rep = verify_real_landau("uncertainty", 1, f, SPEC)
    assert rep.sharp_constant == 1.0
    assert rep.margin >= -rep.tolerance()
    f2 = random_test_function(rng, k=0, modes=(0,), real=True)
    rep2 = verify_real_landau("uncertainty", 2, f2, SPEC)
    assert rep2.margin >= -rep2.tolerance()


def test_real_landau_rejects_complex_and_bad_variant():
    prof = ProductProfile(PlateauLogBump(0.5, 2.0), amplitude=1j)
    f = TestFunction([AngularMode(0, prof)])
    with pytest.raises(RealnessError):
        verify_real_landau("hardy", 1, f, SPEC)
    fr = TestFunction([AngularMode(0, ProductProfile(PlateauLogBump(0.5, 2.0)))])
    with pytest.raises(DomainError):
        verify_real_landau("no_such", 1, fr, SPEC)
    with pytest.raises(DomainError):
        verify_real_landau("identity", 2, fr, SPEC)
    with pytest.raises(DomainError):
        verify_real_landau("hardy", 0, fr, SPEC)


# --- the ball: a radius confines the support, it never clips it --------------

_BUMP = make_bump(0.3, 0.9)   # inside the closed unit disc, as landau_log needs
_PSI = RadialPotential.power(0.4, 1.0)
_BALL_RUNS = {
    "landau_hardy_sobolev": lambda radius: verify_landau(
        "hardy_sobolev", _PSI, 0.5, _BUMP, SPEC, radius=radius),
    "landau_log": lambda radius: verify_landau(
        "log", _PSI, None, _BUMP, SPEC, radius=radius),
    "landau_poincare": lambda radius: verify_landau(
        "poincare", _PSI, None, _BUMP, SPEC, radius=radius),
    "landau_superweight": lambda radius: verify_landau(
        "superweight", _PSI, SuperweightParams(1.0, 1.0, -2.0, 1.0, -2.0), _BUMP,
        SPEC, radius=radius),
    "real_landau_hardy": lambda radius: verify_real_landau(
        "hardy", 1, _BUMP, SPEC, radius=radius),
    "real_landau_critical": lambda radius: verify_real_landau(
        "critical", 1, _BUMP, SPEC, radius=radius),
    "real_landau_uncertainty": lambda radius: verify_real_landau(
        "uncertainty", 1, _BUMP, SPEC, radius=radius),
}


@pytest.mark.parametrize("tid", sorted(_BALL_RUNS))
def test_a_support_past_the_radius_is_refused(tid):
    with pytest.raises(AdmissibilityError, match="inside the ball"):
        _BALL_RUNS[tid](0.6)
    for radius in (0.0, -1.0, math.inf):
        with pytest.raises(DomainError, match="radius"):
            _BALL_RUNS[tid](radius)
    assert _BALL_RUNS[tid](0.9).passed()   # the support's own edge is inside


@pytest.mark.parametrize("tid", ["landau_hardy_sobolev", "landau_log",
                                 "landau_superweight", "real_landau_hardy"])
def test_a_radius_past_the_support_changes_no_integral(tid):
    inside, free = _BALL_RUNS[tid](2.0), _BALL_RUNS[tid](None)
    assert inside.lhs == free.lhs
    assert inside.rhs_terms == free.rhs_terms
    assert inside.params.get("R") == (2.0 if tid.startswith("landau") else None)


# --- row blocks of a k = 0 grid, down to a block of one node -----------------

def _outer_heavy(rng, r_lo_range):
    """Three complex modes of r^sigma in a log window, sigma in [80, 160].

    The mass sits at the outer edge, on the last radial node, so a rounding
    change in that node's products shows in the integrals.
    """
    r_lo = float(rng.uniform(*r_lo_range))
    r_hi = r_lo * float(rng.uniform(1.8, 3.5))
    sigma = float(rng.uniform(80.0, 160.0))
    return TestFunction([
        AngularMode(int(m), ProductProfile(
            PowerLogWindow(sigma, r_lo, r_hi),
            amplitude=r_hi ** -sigma * np.exp(2j * math.pi * rng.random())))
        for m in rng.choice(range(-2, 3), size=3, replace=False)])


def test_k0_row_blocks_match_one_block(monkeypatch):
    import maghardy.quadrature as quadrature

    # 3 panels x 48 = 144 radial nodes of one y node each; at BLOCK_NODES = 13
    # they run in 11 blocks of 13 rows and a last block of one node, whose
    # complex products may round unlike a larger block's, within roundoff.
    spec = QuadratureSpec(n_r=48, n_phi=12)
    rng = np.random.default_rng(2031)
    runs = []
    for i in range(20):
        variant = ("hardy_sobolev", "log", "poincare", "superweight")[i % 4]
        f = _outer_heavy(rng, (0.05, 0.2) if variant == "log" else (0.3, 1.0))
        psi = RadialPotential.power(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 1.5)))
        params = {"hardy_sobolev": float(rng.uniform(0.3, 1.8)),
                  "superweight": SuperweightParams(1.0, 1.0, -2.0, 1.0, -2.0)}.get(variant)
        radius = 2.0 * f.support()[1] if variant == "poincare" else None
        runs.append((variant, psi, params, f, radius))

    def reports():
        return [json.loads(json.dumps(verify_landau(v, psi, params, f, spec, radius=radius),
                                      default=jsonable))
                for v, psi, params, f, radius in runs]

    one_block = reports()
    widths, tensor_sums = [], quadrature._tensor_sums

    def spy(density, *args):  # records the nodes of each block
        def recorded(r, y):
            widths.append(r.size * y.shape[1])
            return density(r, y)
        return tensor_sums(recorded, *args)

    monkeypatch.setattr(quadrature, "_tensor_sums", spy)
    monkeypatch.setattr(quadrature, "BLOCK_NODES", 13)
    for want, got in zip(one_block, reports(), strict=True):
        assert_reports_close(want, got)
    assert widths == ([13] * 11 + [1]) * len(runs)


# --- the potential runs once per row block -----------------------------------

_PSI_RUNS = {
    **{f"landau_{variant}": lambda psi, variant=variant, params=params: verify_landau(
        variant, psi, params, _BUMP, QuadratureSpec(n_r=48, n_phi=12),
        radius=0.9 if variant == "poincare" else None)
       for variant, params in (("hardy_sobolev", 0.5), ("log", None), ("poincare", None),
                               ("superweight", SuperweightParams(1.0, 1.0, -2.0, 1.0, -2.0)))},
    "twisted_polar": lambda psi: check_twisted_polar_identity(
        psi, lambda r: 1.0 + r, _BUMP, QuadratureSpec(n_r=48, n_phi=12)),
}


@pytest.mark.parametrize("tid", sorted(_PSI_RUNS))
def test_psi_runs_once_per_row_block(monkeypatch, tid):
    # a k = 0 grid in blocks of 13 rows: psi runs once on each block, for the
    # twisted gradient and the psi term alike
    import maghardy.quadrature as quadrature

    calls, blocks, tensor_sums = [], [], quadrature._tensor_sums
    psi = RadialPotential(psi=lambda r: calls.append(r.shape) or 0.4 * r)

    def spy(density, *args):  # records the radial nodes of each block
        def recorded(r, y):
            blocks.append(r.shape)
            return density(r, y)
        return tensor_sums(recorded, *args)

    monkeypatch.setattr(quadrature, "_tensor_sums", spy)
    monkeypatch.setattr(quadrature, "BLOCK_NODES", 13)
    assert _PSI_RUNS[tid](psi).passed()
    assert len(blocks) > 1 and calls == blocks
