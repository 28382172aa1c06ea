"""Verifiers for the anisotropic-gradient (Grushin-type) inequalities.

Each operation evaluates both sides of one inequality or identity on a test
function and returns a report.  Left-hand sides are always assembled from the
magnetic gradient COMPONENTWISE in complex arithmetic (the honest reading of
the displayed integrand), from the grid components in fields that the
pointwise magnetic_grad also runs; the real-function splits used by the
proofs are recomputed separately and reported as identities, never
substituted.

Conventions: every density takes (r, phi, y).  x-radial functions use the
reduced tensor path at phi = 0 with the closed-form sphere factor; genuinely
angular functions require m = 2 and run through the full polar engine.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import AdmissibilityError, DomainError, RealnessError
from ..fields import (
    ConstantFieldPotentials,
    FluxParam,
    grushin_components,
    tilde_components,
)
from ..functions import TestFunction
from ..geometry import (
    GrushinGeometry,
    WeightExponents,
    drho_dr_over_rho,
    grad_y_rho_over_rho,
    hardy_density_rs,
    rho_rs,
    weight_B_rs,
)
from ..quadrature import GridMemo, QuadratureSpec
from ..reports import IdentityReport, InequalityReport
from ._grids import (
    abs2,
    grad_y_sq,
    mode_zero_sq,
    polar_integral,
    require_phi_resolution,
    rx_integral,
    s_of,
    support_domain,
)

__all__ = [
    "verify_radial_hardy",
    "check_grushin_ibp_identity",
    "verify_magnetic_grushin",
    "verify_ab_hardy",
    "verify_uncertainty_grushin",
    "verify_constant_field",
    "fourier_defect_terms",
]


def _resolution(spec: QuadratureSpec) -> dict:
    # every radial rule maps u = log r; the report still names the map
    return {"n_r": spec.n_r, "r_map": "log", "n_phi": spec.n_phi,
            "n_y": spec.n_y, "oracle": spec.oracle}


def _geom_params(geom: GrushinGeometry, exps: WeightExponents) -> dict:
    return {"m": geom.m, "k": geom.k, "gamma": geom.gamma,
            "alpha1": exps.alpha1, "alpha2": exps.alpha2}


def _require_shape(geom: GrushinGeometry, f: TestFunction) -> None:
    if f.modes and f.k != geom.k:
        raise DomainError(f"function has k={f.k} but geometry has k={geom.k}")
    if geom.m != 2 and not f.is_radial:
        raise AdmissibilityError("angular modes need m = 2; this geometry has "
                                 f"m = {geom.m}")


def _require_real(f: TestFunction, what: str) -> None:
    if not f.is_real_valued():
        raise RealnessError(f"{what} is stated for real-valued functions only")


def _weights(geom: GrushinGeometry, exps: WeightExponents):
    """Closure (r, y) -> (B, w, rho) on grid arrays, computed once per grid."""
    g, a1, a2 = geom.gamma, exps.alpha1, exps.alpha2
    memo = GridMemo()

    def compute(r, y):
        s = s_of(y)
        rho = rho_rs(g, r, s)
        return weight_B_rs(g, a1, a2, r, rho), hardy_density_rs(g, r, rho), rho

    def at(r, y):
        return memo(r, y, compute)

    return at


def _first_kind(geom: GrushinGeometry, exps: WeightExponents) -> float:
    """Check Q + alpha1 - 2 > 0 and m + gamma*alpha2 > 0; return Q + alpha1 - 2."""
    s_hom = geom.hom_dim + exps.alpha1 - 2.0
    if not (s_hom > 0.0):
        raise AdmissibilityError(f"need Q + alpha1 - 2 > 0, got {s_hom}")
    if not (geom.m + geom.gamma * exps.alpha2 > 0.0):
        raise AdmissibilityError("need m + gamma*alpha2 > 0")
    return s_hom


def _hardy_density(geom: GrushinGeometry, exps: WeightExponents, f: TestFunction):
    """Density B w |f|^2 of the weighted Hardy integral."""
    wts = _weights(geom, exps)

    def density(r, phi, y):
        B, w, _ = wts(r, y)
        return B * w * abs2(f.value_polar(r, phi, y))

    return density


def _plain_density(geom: GrushinGeometry, exps: WeightExponents, f: TestFunction):
    """Density B |grad_g f|^2 of the plain anisotropic gradient."""
    wts = _weights(geom, exps)
    g = geom.gamma

    def density(r, phi, y):
        fr, fphi, fy = f.partials_polar(r, phi, y)
        B, _, _ = wts(r, y)
        return B * (abs2(fr) + abs2(fphi / r) + r ** (2.0 * g) * grad_y_sq(fy))

    return density


def _defect_density(geom: GrushinGeometry, exps: WeightExponents, f: TestFunction):
    """Density B (|f|^2 - |f0|^2) / r^2 of the angular-mode defect."""
    wts = _weights(geom, exps)
    f0_sq = mode_zero_sq(f)

    def density(r, phi, y):
        B, _, _ = wts(r, y)
        return B * (abs2(f.value_polar(r, phi, y)) - f0_sq(r, y)) / r**2

    return density


def _magnetic_density(components, geom: GrushinGeometry, exps: WeightExponents,
                      beta: float, f: TestFunction):
    """B times the sum of |component|^2 of a magnetic gradient from fields."""
    wts = _weights(geom, exps)

    def density(r, phi, y):
        B, _, rho = wts(r, y)
        cr, cphi, *yblocks = components(f, beta, geom.gamma, r, phi, y, rho)
        out = abs2(cr) + abs2(cphi)
        for block in yblocks:
            out = out + grad_y_sq(block)
        return B * out

    return density


def _integrals(geom: GrushinGeometry, f: TestFunction, spec: QuadratureSpec,
               dom, *densities) -> list:
    """Each density integrated on the polar path (m = 2) or the x-radial path."""
    if geom.m == 2:
        require_phi_resolution(f, spec)
        return [polar_integral(d, spec, dom) for d in densities]
    return [rx_integral(d, spec, dom, geom.m) for d in densities]


# ---------------------------------------------------------------------------
# Radial Hardy and its integration-by-parts identity
# ---------------------------------------------------------------------------

def verify_radial_hardy(geom: GrushinGeometry, exps: WeightExponents,
                        f: TestFunction, spec: QuadratureSpec) -> InequalityReport:
    """Weighted Hardy bound for x-radial functions of the anisotropic gradient."""
    s_hom = _first_kind(geom, exps)
    if not f.is_radial:
        raise AdmissibilityError("this bound applies to x-radial functions")
    _require_shape(geom, f)

    C = (0.5 * s_hom) ** 2
    params = {**_geom_params(geom, exps), "sharp_constant": C}
    if not f.modes:
        return InequalityReport("radial_hardy", 0.0, {"main": 0.0}, C,
                                params, _resolution(spec))

    dom = support_domain(f)
    lhs = rx_integral(_plain_density(geom, exps, f), spec, dom, geom.m)
    main = C * rx_integral(_hardy_density(geom, exps, f), spec, dom, geom.m)
    return InequalityReport("radial_hardy", lhs, {"main": main}, C,
                            params, _resolution(spec))


def check_grushin_ibp_identity(geom: GrushinGeometry, exps: WeightExponents,
                               f: TestFunction, alpha: float,
                               spec: QuadratureSpec) -> IdentityReport:
    """Completing-the-square identity behind the radial Hardy bound.

    Shifting both gradient blocks by alpha * (gradient of rho)/rho costs
    exactly -((Q+a1-2)*alpha - alpha^2) times the Hardy integral; this holds
    for any real alpha, by integration by parts against the weight.
    """
    s_hom = _first_kind(geom, exps)
    if not f.is_radial:
        raise AdmissibilityError("identity stated for x-radial functions")
    _require_shape(geom, f)

    params = {**_geom_params(geom, exps), "alpha": float(alpha)}
    if not f.modes:
        return IdentityReport("grushin_ibp", 0.0, 0.0, params, _resolution(spec))

    wts = _weights(geom, exps)
    dom = support_domain(f)
    g = geom.gamma
    a = float(alpha)

    def shifted_density(r, phi, y):
        fr, _, fy = f.partials_polar(r, phi, y)
        val = f.value_polar(r, phi, y)
        B, _, rho = wts(r, y)
        cr = fr + a * drho_dr_over_rho(g, r, rho) * val
        cy = fy + a * grad_y_rho_over_rho(g, y, rho[..., None]) * val[..., None]
        return B * (abs2(cr) + r ** (2.0 * g) * grad_y_sq(cy))

    lhs = rx_integral(shifted_density, spec, dom, geom.m)
    rhs = (rx_integral(_plain_density(geom, exps, f), spec, dom, geom.m)
           - (s_hom * a - a * a)
           * rx_integral(_hardy_density(geom, exps, f), spec, dom, geom.m))
    return IdentityReport("grushin_ibp", lhs, rhs, params, _resolution(spec))


# ---------------------------------------------------------------------------
# Magnetic inequality with the gradient-field potential
# ---------------------------------------------------------------------------

def verify_magnetic_grushin(geom: GrushinGeometry, exps: WeightExponents,
                            flux: FluxParam, f: TestFunction,
                            spec: QuadratureSpec) -> InequalityReport:
    """Hardy bound for the magnetic gradient built on the field grad(rho)/rho.

    Stated for real functions; the report's params carry the split identity
    (gradient part + beta^2 potential part = lhs) with its relative error.
    """
    s_hom = _first_kind(geom, exps)
    _require_shape(geom, f)
    _require_real(f, "the magnetic Hardy bound")

    beta = flux.beta
    C = (0.5 * s_hom) ** 2 + beta * beta
    params = {**_geom_params(geom, exps), "beta": beta}
    res = _resolution(spec)
    if not f.modes:
        params.update(gradient_part=0.0, potential_part=0.0, split_rel_err=0.0)
        return InequalityReport("magnetic_grushin", 0.0, {"main": 0.0}, C, params, res)

    lhs, grad_part, hardy_int = _integrals(
        geom, f, spec, support_domain(f),
        _magnetic_density(grushin_components, geom, exps, beta, f),
        _plain_density(geom, exps, f), _hardy_density(geom, exps, f))

    pot_part = beta * beta * hardy_int
    split = abs(lhs - (grad_part + pot_part)) / max(abs(lhs), 1e-300)
    params.update(gradient_part=grad_part, potential_part=pot_part,
                  split_rel_err=split)
    return InequalityReport("magnetic_grushin", lhs, {"main": C * hardy_int},
                            C, params, res)


# ---------------------------------------------------------------------------
# Rotated-potential inequality with the angular-mode defect remainder
# ---------------------------------------------------------------------------

def _second_condition(exps: WeightExponents, gamma: float, admissibility: str) -> None:
    if admissibility == "thm2":
        if not (exps.alpha2 + 2.0 * gamma > 0.0):
            raise AdmissibilityError("need alpha2 + 2*gamma > 0 (thm2 flag)")
    elif admissibility == "corollary":
        if not (exps.alpha2 * gamma + 2.0 > 0.0):
            raise AdmissibilityError("need alpha2*gamma + 2 > 0 (corollary flag)")
    else:
        raise DomainError(f"unknown admissibility flag {admissibility!r}")


def verify_ab_hardy(geom: GrushinGeometry, exps: WeightExponents, flux: FluxParam,
                    f: TestFunction, spec: QuadratureSpec,
                    admissibility: str = "thm2") -> InequalityReport:
    """Hardy bound for the rotated potential, with the angular-defect remainder."""
    if geom.m != 2:
        raise DomainError("the rotated potential lives on m = 2")
    s_hom = exps.alpha1 + geom.k * (geom.gamma + 1.0)
    if not (s_hom > 0.0):
        raise AdmissibilityError("need alpha1 + k*(gamma+1) > 0")
    _second_condition(exps, geom.gamma, admissibility)
    _require_shape(geom, f)

    beta = flux.beta
    C = (0.5 * s_hom) ** 2 + beta * beta
    params = {**_geom_params(geom, exps), "beta": beta,
              "admissibility": admissibility}
    res = _resolution(spec)
    if not f.modes:
        return InequalityReport("ab_hardy", 0.0, {"main": 0.0, "mode_defect": 0.0},
                                C, params, res)
    require_phi_resolution(f, spec)

    dom = support_domain(f)
    lhs = polar_integral(_magnetic_density(tilde_components, geom, exps, beta, f),
                         spec, dom)
    main = C * polar_integral(_hardy_density(geom, exps, f), spec, dom)
    defect = polar_integral(_defect_density(geom, exps, f), spec, dom)
    return InequalityReport("ab_hardy", lhs, {"main": main, "mode_defect": defect},
                            C, params, res)


def fourier_defect_terms(geom: GrushinGeometry, exps: WeightExponents,
                         f: TestFunction, spec: QuadratureSpec) -> dict:
    """Angular-derivative term vs mode-defect term of the weighted decomposition.

    Returns {"angular": int B |df/dphi|^2 / r^2, "defect": int B (|f|^2-|f0|^2)/r^2}.
    The first dominates the second for any mode content; they agree exactly when
    every nonzero mode has |mode| = 1.
    """
    if geom.m != 2:
        raise DomainError("mode decomposition needs m = 2")
    _require_shape(geom, f)
    if not f.modes:
        return {"angular": 0.0, "defect": 0.0}
    require_phi_resolution(f, spec)
    wts = _weights(geom, exps)
    dom = support_domain(f)

    def angular_density(r, phi, y):
        _, fphi, _ = f.partials_polar(r, phi, y)
        B, _, _ = wts(r, y)
        return B * abs2(fphi) / r**2

    return {"angular": polar_integral(angular_density, spec, dom),
            "defect": polar_integral(_defect_density(geom, exps, f), spec, dom)}


# ---------------------------------------------------------------------------
# Uncertainty-type products
# ---------------------------------------------------------------------------

def verify_uncertainty_grushin(geom: GrushinGeometry, exps: WeightExponents,
                               flux: FluxParam, f: TestFunction,
                               spec: QuadratureSpec,
                               variant: str = "uncer1") -> InequalityReport:
    """Norm-product uncertainty bound: ||weighted magnetic grad f|| ||f|| vs C^(1/2)."""
    beta = flux.beta
    if variant == "uncer1":
        s_hom = _first_kind(geom, exps)
        _require_real(f, "the gradient-field uncertainty bound")
        theorem_id = "uncertainty_grushin"
        components = grushin_components
    elif variant == "uncer21":
        if geom.m != 2:
            raise DomainError("the rotated-potential variant needs m = 2")
        s_hom = exps.alpha1 + geom.k * (geom.gamma + 1.0)
        if not (s_hom > 0.0):
            raise AdmissibilityError("need alpha1 + k*(gamma+1) > 0")
        if not (exps.alpha2 * geom.gamma + 2.0 > 0.0):
            raise AdmissibilityError("need alpha2*gamma + 2 > 0")
        theorem_id = "uncertainty_ab"
        components = tilde_components
    else:
        raise DomainError(f"unknown variant {variant!r}")
    _require_shape(geom, f)

    C = (0.5 * s_hom) ** 2 + beta * beta
    params = {**_geom_params(geom, exps), "beta": beta, "variant": variant,
              "sqrt_constant": math.sqrt(C)}
    res = _resolution(spec)
    if not f.modes:
        return InequalityReport(theorem_id, 0.0, {"main": 0.0}, math.sqrt(C),
                                params, res)

    g, a1, a2 = geom.gamma, exps.alpha1, exps.alpha2
    memo = GridMemo()

    def cross_weight(r, y):
        rho = rho_rs(g, r, s_of(y))
        half_B = weight_B_rs(g, 0.5 * a1, 0.5 * a2, r, rho)
        half_w = r**g / rho ** (g + 1.0)
        return half_B * half_w

    def f_sq(r, phi, y):
        return abs2(f.value_polar(r, phi, y))

    def cross_density(r, phi, y):
        return memo(r, y, cross_weight) * abs2(f.value_polar(r, phi, y))

    grad_sq, norm_sq, cross = _integrals(
        geom, f, spec, support_domain(f),
        _magnetic_density(components, geom, exps, beta, f), f_sq, cross_density)

    lhs = math.sqrt(max(grad_sq, 0.0)) * math.sqrt(max(norm_sq, 0.0))
    rhs = math.sqrt(C) * cross
    return InequalityReport(theorem_id, lhs, {"main": rhs}, math.sqrt(C),
                            params, res)


# ---------------------------------------------------------------------------
# Constant-field case (m = k = n), separable potentials
# ---------------------------------------------------------------------------

def verify_constant_field(geom: GrushinGeometry, exps: WeightExponents,
                          pots: ConstantFieldPotentials, f: TestFunction,
                          spec: QuadratureSpec) -> InequalityReport:
    """Hardy bound for the separable-potential magnetic gradient on m = k = n.

    The main constant is applied as printed (linear); the squared reading is
    evaluated alongside and reported in params as main_squared/margin_squared.
    """
    n = pots.n
    if geom.m != n or geom.k != n:
        raise DomainError(f"need m = k = n = {n}, got m={geom.m}, k={geom.k}")
    s_hom = n * (2.0 + geom.gamma) + exps.alpha1 - 2.0
    if not (s_hom > 0.0):
        raise AdmissibilityError("need n*(2+gamma) + alpha1 - 2 > 0")
    if not (n + exps.alpha2 * geom.gamma > 0.0):
        raise AdmissibilityError("need n + alpha2*gamma > 0")
    if not f.is_radial:
        raise AdmissibilityError("stated here for x-radial functions")
    _require_shape(geom, f)
    _require_real(f, "the constant-field bound")
    if n >= 2 and getattr(pots, "slope", None) is None:
        raise DomainError("n >= 2 needs the linear separable potentials "
                          "(x-angular quadrature is out of scope)")

    C_lin = 0.5 * s_hom
    params = {**_geom_params(geom, exps), "n": n,
              "constant_printed": C_lin, "constant_squared": C_lin**2}
    res = _resolution(spec)
    if not f.modes:
        params.update(main_squared=0.0, margin_squared=0.0, split_rel_err=0.0)
        return InequalityReport("constant_field", 0.0,
                                {"main": 0.0, "field_potential": 0.0},
                                C_lin, params, res)

    wts = _weights(geom, exps)
    dom = support_domain(f)
    g = geom.gamma

    def vx_sq(r):
        # sum_j psi2_j(x_j)^2 reduced over the x-sphere
        if n == 1:
            return 0.5 * (np.asarray(pots.psi2[0](r)) ** 2
                          + np.asarray(pots.psi2[0](-r)) ** 2)
        return (pots.slope * r) ** 2

    def vy_sq(y):
        out = np.zeros(y.shape[:-1])
        for j in range(n):
            out = out + np.asarray(pots.psi1[j](y[..., j])) ** 2
        return out

    def lhs_density(r, phi, y):
        # x-sphere reduction of |(i d_x + psi1) f|^2 + |(i r^g d_y + psi2) f|^2:
        # the cross terms vanish for real f, and sum_j psi2_j(x_j)^2 is
        # replaced by its x-sphere mean vx_sq(r)
        fr, _, fy = f.partials_polar(r, phi, y)
        val = f.value_polar(r, phi, y)
        xblock = abs2(1j * fr) + vy_sq(y) * abs2(val)
        yblock = r ** (2.0 * g) * grad_y_sq(1j * fy) + vx_sq(r) * abs2(val)
        return wts(r, y)[0] * (xblock + yblock)

    def pot_density(r, phi, y):
        B, _, _ = wts(r, y)
        return B * (vx_sq(r) + vy_sq(y)) * abs2(f.value_polar(r, phi, y))

    lhs = rx_integral(lhs_density, spec, dom, n)
    grad_part = rx_integral(_plain_density(geom, exps, f), spec, dom, n)
    pot_part = rx_integral(pot_density, spec, dom, n)
    hardy_int = rx_integral(_hardy_density(geom, exps, f), spec, dom, n)
    split = abs(lhs - (grad_part + pot_part)) / max(abs(lhs), 1e-300)

    main = C_lin * hardy_int
    main_sq = C_lin**2 * hardy_int
    params.update(main_squared=main_sq,
                  margin_squared=lhs - main_sq - pot_part,
                  split_rel_err=split)
    return InequalityReport("constant_field", lhs,
                            {"main": main, "field_potential": pot_part},
                            C_lin, params, res)
