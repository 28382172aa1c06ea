"""Verifiers for the anisotropic-gradient (Grushin-type) inequalities.

Each operation evaluates both sides of one inequality or identity on a test
function and returns a report.  Left-hand sides are always assembled from the
magnetic gradient COMPONENTWISE in complex arithmetic (the honest reading of
the displayed integrand), from the grid components in fields that the
pointwise magnetic_grad also runs; the real-function splits used by the
proofs are recomputed separately and reported as identities, never
substituted.

Each check writes one density in the quadrature protocol: density(r, y)
forms the phi-independent quantities of the check once (the test function's
factors through TestFunction.on_grid, the weights B, w and rho, the field
closure), and at(phi) yields the integrand of every term of the displayed
inequality in turn, so the check makes one integration call.  x-radial
functions use the reduced tensor path at phi = 0 with the closed-form sphere
factor; genuinely angular functions require m = 2 and run through the full
polar engine.
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
from ..quadrature import QuadratureSpec
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


def _weights(geom: GrushinGeometry, exps: WeightExponents, r, y):
    """(B, w, rho) on the grid (r, y)."""
    g = geom.gamma
    rho = rho_rs(g, r, s_of(y))
    return (weight_B_rs(g, exps.alpha1, exps.alpha2, r, rho),
            hardy_density_rs(g, r, rho), rho)


def _first_kind(geom: GrushinGeometry, exps: WeightExponents) -> float:
    """Check Q + alpha1 - 2 > 0 and m + gamma*alpha2 > 0; return Q + alpha1 - 2."""
    s_hom = geom.hom_dim + exps.alpha1 - 2.0
    if not (s_hom > 0.0):
        raise AdmissibilityError(f"need Q + alpha1 - 2 > 0, got {s_hom}")
    if not (geom.m + geom.gamma * exps.alpha2 > 0.0):
        raise AdmissibilityError("need m + gamma*alpha2 > 0")
    return s_hom


def _plain_sq(gamma: float, r, parts):
    """|grad_g f|^2 from the polar partials of f: the plain anisotropic gradient."""
    _, fr, fphi, fy = parts
    return abs2(fr) + abs2(fphi / r) + r ** (2.0 * gamma) * grad_y_sq(fy)


def _components_sq(components) -> np.ndarray:
    """Sum of |component|^2 of a magnetic gradient from fields."""
    cr, cphi, *yblocks = components
    out = abs2(cr) + abs2(cphi)
    for block in yblocks:
        out = out + grad_y_sq(block)
    return out


def _integrate(geom: GrushinGeometry, f: TestFunction, spec: QuadratureSpec,
               dom, density) -> list:
    """The integrals of density on the polar path (m = 2) or the x-radial path."""
    if geom.m == 2:
        require_phi_resolution(f, spec)
        return polar_integral(density, spec, dom)
    return rx_integral(density, spec, dom, geom.m)


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

    def density(r, y):
        on = f.on_grid(r, y)
        B, w, _ = _weights(geom, exps, r, y)

        def at(phi):
            parts = on(phi)
            yield B * _plain_sq(geom.gamma, r, parts)
            yield B * w * abs2(parts[0])

        return at

    lhs, hardy_int = rx_integral(density, spec, support_domain(f), geom.m)
    return InequalityReport("radial_hardy", lhs, {"main": C * hardy_int}, C,
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

    g = geom.gamma
    a = float(alpha)

    def density(r, y):
        on = f.on_grid(r, y)
        B, w, rho = _weights(geom, exps, r, y)

        def at(phi):
            parts = on(phi)
            val, fr, _, fy = parts
            cr = fr + a * drho_dr_over_rho(g, r, rho) * val
            cy = fy + a * grad_y_rho_over_rho(g, y, rho[..., None]) * val[..., None]
            yield B * (abs2(cr) + r ** (2.0 * g) * grad_y_sq(cy))
            yield B * _plain_sq(g, r, parts)
            yield B * w * abs2(val)

        return at

    lhs, grad_int, hardy_int = rx_integral(density, spec, support_domain(f), geom.m)
    rhs = grad_int - (s_hom * a - a * a) * hardy_int
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

    def density(r, y):
        on = f.on_grid(r, y)
        B, w, rho = _weights(geom, exps, r, y)

        def at(phi):
            parts = on(phi)
            yield B * _components_sq(grushin_components(beta, geom.gamma, r, y, rho, parts))
            yield B * _plain_sq(geom.gamma, r, parts)
            yield B * w * abs2(parts[0])

        return at

    lhs, grad_part, hardy_int = _integrate(geom, f, spec, support_domain(f), density)
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

    def density(r, y):
        on = f.on_grid(r, y)
        B, w, rho = _weights(geom, exps, r, y)
        f0_sq = mode_zero_sq(f, r, y)

        def at(phi):
            parts = on(phi)
            yield B * _components_sq(tilde_components(beta, geom.gamma, r, y, rho, parts))
            f_sq = abs2(parts[0])
            yield B * w * f_sq
            yield B * (f_sq - f0_sq) / r**2

        return at

    lhs, hardy_int, defect = polar_integral(density, spec, support_domain(f))
    return InequalityReport("ab_hardy", lhs, {"main": C * hardy_int, "mode_defect": defect},
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

    def density(r, y):
        on = f.on_grid(r, y)
        B, _, _ = _weights(geom, exps, r, y)
        f0_sq = mode_zero_sq(f, r, y)

        def at(phi):
            val, _, fphi, _ = on(phi)
            yield B * abs2(fphi) / r**2
            yield B * (abs2(val) - f0_sq) / r**2

        return at

    angular, defect = polar_integral(density, spec, support_domain(f))
    return {"angular": angular, "defect": defect}


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

    def density(r, y):
        on = f.on_grid(r, y)
        B, _, rho = _weights(geom, exps, r, y)
        # the half-exponent weight of the cross norm
        half_B = weight_B_rs(g, 0.5 * a1, 0.5 * a2, r, rho)
        half_w = r**g / rho ** (g + 1.0)
        cross_weight = half_B * half_w

        def at(phi):
            parts = on(phi)
            yield B * _components_sq(components(beta, g, r, y, rho, parts))
            f_sq = abs2(parts[0])
            yield f_sq
            yield cross_weight * f_sq

        return at

    grad_sq, norm_sq, cross = _integrate(geom, f, spec, support_domain(f), density)
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

    g = geom.gamma

    def density(r, y):
        on = f.on_grid(r, y)
        B, w, _ = _weights(geom, exps, r, y)
        # sum_j psi2_j(x_j)^2 reduced over the x-sphere, and sum_j psi1_j(y_j)^2
        if n == 1:
            vx_sq = 0.5 * (np.asarray(pots.psi2[0](r)) ** 2
                           + np.asarray(pots.psi2[0](-r)) ** 2)
        else:
            vx_sq = (pots.slope * r) ** 2
        vy_sq = np.zeros(y.shape[:-1])
        for j in range(n):
            vy_sq = vy_sq + np.asarray(pots.psi1[j](y[..., j])) ** 2

        def at(phi):
            parts = on(phi)
            val, fr, _, fy = parts
            f_sq = abs2(val)
            # x-sphere reduction of |(i d_x + psi1) f|^2 + |(i r^g d_y + psi2) f|^2:
            # the cross terms vanish for real f, and sum_j psi2_j(x_j)^2 is
            # replaced by its x-sphere mean vx_sq
            xblock = abs2(1j * fr) + vy_sq * f_sq
            yblock = r ** (2.0 * g) * grad_y_sq(1j * fy) + vx_sq * f_sq
            yield B * (xblock + yblock)
            yield B * _plain_sq(g, r, parts)
            yield B * (vx_sq + vy_sq) * f_sq
            yield B * w * f_sq

        return at

    lhs, grad_part, pot_part, hardy_int = rx_integral(
        density, spec, support_domain(f), n)
    split = abs(lhs - (grad_part + pot_part)) / max(abs(lhs), 1e-300)

    main = C_lin * hardy_int
    main_sq = C_lin**2 * hardy_int
    params.update(main_squared=main_sq,
                  margin_squared=lhs - main_sq - pot_part,
                  split_rel_err=split)
    return InequalityReport("constant_field", lhs,
                            {"main": main, "field_potential": pot_part},
                            C_lin, params, res)
