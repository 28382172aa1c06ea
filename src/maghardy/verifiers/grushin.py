"""Verifiers for the anisotropic-gradient (Grushin-type) inequalities.

Each operation evaluates both sides of one inequality or identity on a test
function and returns a report.  Left-hand sides are assembled from the
magnetic gradient COMPONENTWISE in complex arithmetic (the honest reading of
the displayed integrand), from the grid components in fields that the
pointwise magnetic_grad also runs, with one exception: verify_constant_field
uses the x-sphere reduction of the real-f split (the cross terms vanish for
real f), which the tests pin node by node to the pointwise
fields.constant_field_grad.  The real-function splits of the proofs are
recomputed separately and reported as identities.

Each check writes one density in the quadrature protocol: density(r, y)
forms the phi-independent quantities of the check once per row block of the
grid (the test function's factors through TestFunction.on_grid, the weights
B, B*w and rho, the field factors of the fields components), and at(phi)
yields the integrand of every term of the displayed inequality in turn, so
the check makes one integration call.  x-radial functions use the reduced
tensor path at phi = 0 with the closed-form sphere factor; genuinely angular
functions require m = 2 and run through the full polar engine.
"""

from __future__ import annotations

import math

from ..errors import AdmissibilityError, DomainError, RealnessError, require_param
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
    components_sq,
    grad_y_sq,
    integrate,
    polar_integral,
    require_args,
    rx_integral,
    s_of,
    sharp_constant,
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
    if f.k != geom.k:
        raise DomainError(f"function has k={f.k} but geometry has k={geom.k}")
    if geom.m != 2 and not f.is_radial:
        raise AdmissibilityError("angular modes need m = 2; this geometry has "
                                 f"m = {geom.m}")


def _require_real(f: TestFunction, what: str) -> None:
    if not f.is_real_valued():
        raise RealnessError(f"{what} is stated for real-valued functions only")


def _require_radial(f: TestFunction, what: str) -> None:
    if not f.is_radial:
        raise AdmissibilityError(f"{what} is stated for x-radial functions only")


def _weights(geom: GrushinGeometry, exps: WeightExponents, r, y):
    """(B, B*w, rho) on the grid (r, y), w the Hardy weight."""
    g = geom.gamma
    rho = rho_rs(g, r, s_of(y))
    B = weight_B_rs(g, exps.alpha1, exps.alpha2, r, rho)
    return B, B * hardy_density_rs(g, r, rho), rho


def _first_kind(geom: GrushinGeometry, exps: WeightExponents) -> float:
    """Check Q + alpha1 - 2 > 0 and m + gamma*alpha2 > 0; return Q + alpha1 - 2."""
    s_hom = geom.hom_dim + exps.alpha1 - 2.0
    if not (s_hom > 0.0):
        raise AdmissibilityError(f"need Q + alpha1 - 2 > 0, got {s_hom}")
    if not (geom.m + geom.gamma * exps.alpha2 > 0.0):
        raise AdmissibilityError("need m + gamma*alpha2 > 0")
    return s_hom


def _rotated_kind(geom: GrushinGeometry, exps: WeightExponents,
                  admissibility: str) -> float:
    """Check m = 2, alpha1 + k*(gamma+1) > 0 and the flag's condition; return the former."""
    if geom.m != 2:
        raise DomainError("the rotated potential lives on m = 2")
    s_hom = exps.alpha1 + geom.k * (geom.gamma + 1.0)
    if not (s_hom > 0.0):
        raise AdmissibilityError("need alpha1 + k*(gamma+1) > 0")
    if admissibility == "thm2":
        if not (exps.alpha2 + 2.0 * geom.gamma > 0.0):
            raise AdmissibilityError("need alpha2 + 2*gamma > 0 (thm2 flag)")
    elif admissibility == "corollary":
        if not (exps.alpha2 * geom.gamma + 2.0 > 0.0):
            raise AdmissibilityError("need alpha2*gamma + 2 > 0 (corollary flag)")
    else:
        raise DomainError(f"unknown admissibility flag {admissibility!r}")
    return s_hom


def _plain_sq(gamma: float, r, parts):
    """|grad_g f|^2 from the polar partials of f: the plain anisotropic gradient."""
    _, fr, fphi, fy = parts
    return abs2(fr) + abs2(fphi / r) + r ** (2.0 * gamma) * grad_y_sq(fy)


# ---------------------------------------------------------------------------
# Radial Hardy and its integration-by-parts identity
# ---------------------------------------------------------------------------

def verify_radial_hardy(geom: GrushinGeometry, exps: WeightExponents,
                        f: TestFunction, spec: QuadratureSpec) -> InequalityReport:
    """Weighted Hardy bound for x-radial functions of the anisotropic gradient."""
    require_args("radial_hardy", geom=geom, exps=exps, f=f, spec=spec)
    C = sharp_constant("radial_hardy", geom, exps)
    _require_radial(f, "the radial Hardy bound")
    _require_shape(geom, f)

    params = {**_geom_params(geom, exps), "sharp_constant": C}

    def density(r, y):
        on = f.on_grid(r, y)
        B, Bw, _ = _weights(geom, exps, r, y)

        def at(phi):
            parts = on(phi)
            yield B * _plain_sq(geom.gamma, r, parts)
            yield Bw * abs2(parts[0])

        return at

    lhs, hardy_int = rx_integral(density, f, spec, geom.m)
    return InequalityReport("radial_hardy", lhs, {"main": C * hardy_int}, C,
                            params, _resolution(spec))


def check_grushin_ibp_identity(geom: GrushinGeometry, exps: WeightExponents,
                               f: TestFunction, alpha: float,
                               spec: QuadratureSpec) -> IdentityReport:
    """Completing-the-square identity behind the radial Hardy bound.

    Shifting both gradient blocks by alpha * (gradient of rho)/rho costs
    exactly -((Q+a1-2)*alpha - alpha^2) times the Hardy integral; this holds
    for any finite real alpha, by integration by parts against the weight.
    """
    require_args("grushin_ibp", geom=geom, exps=exps, f=f, spec=spec)
    a = require_param("the integration-by-parts identity", "alpha", alpha)
    s_hom = _first_kind(geom, exps)
    _require_radial(f, "the integration-by-parts identity")
    _require_shape(geom, f)

    params = {**_geom_params(geom, exps), "alpha": a}
    g = geom.gamma

    def density(r, y):
        on = f.on_grid(r, y)
        B, Bw, rho = _weights(geom, exps, r, y)

        def at(phi):
            parts = on(phi)
            val, fr, _, fy = parts
            cr = fr + a * drho_dr_over_rho(g, r, rho) * val
            cy = fy + a * grad_y_rho_over_rho(g, y, rho[..., None]) * val[..., None]
            yield B * (abs2(cr) + r ** (2.0 * g) * grad_y_sq(cy))
            yield B * _plain_sq(g, r, parts)
            yield Bw * abs2(val)

        return at

    lhs, grad_int, hardy_int = rx_integral(density, f, spec, geom.m)
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
    require_args("magnetic_grushin", geom=geom, exps=exps, flux=flux, f=f, spec=spec)
    C = sharp_constant("magnetic_grushin", geom, exps, flux)
    _require_shape(geom, f)
    _require_real(f, "the magnetic Hardy bound")

    beta = flux.beta
    params = {**_geom_params(geom, exps), "beta": beta}

    def density(r, y):
        on = f.on_grid(r, y)
        B, Bw, rho = _weights(geom, exps, r, y)
        components = grushin_components(beta, geom.gamma, r, y, rho)

        def at(phi):
            parts = on(phi)
            yield B * components_sq(components(parts))
            yield B * _plain_sq(geom.gamma, r, parts)
            yield Bw * abs2(parts[0])

        return at

    lhs, grad_part, hardy_int = integrate(density, f, spec, geom.m)
    pot_part = beta * beta * hardy_int
    split = abs(lhs - (grad_part + pot_part)) / max(abs(lhs), 1e-300)
    params.update(gradient_part=grad_part, potential_part=pot_part,
                  split_rel_err=split)
    return InequalityReport("magnetic_grushin", lhs, {"main": C * hardy_int},
                            C, params, _resolution(spec))


# ---------------------------------------------------------------------------
# Rotated-potential inequality with the angular-mode defect remainder
# ---------------------------------------------------------------------------

def verify_ab_hardy(geom: GrushinGeometry, exps: WeightExponents, flux: FluxParam,
                    f: TestFunction, spec: QuadratureSpec,
                    admissibility: str = "thm2") -> InequalityReport:
    """Hardy bound for the rotated potential, with the angular-defect remainder."""
    require_args("ab_hardy", geom=geom, exps=exps, flux=flux, f=f, spec=spec)
    C = sharp_constant("ab_hardy", geom, exps, flux, admissibility)
    _require_shape(geom, f)

    beta = flux.beta
    params = {**_geom_params(geom, exps), "beta": beta,
              "admissibility": admissibility}

    def density(r, y):
        on = f.on_grid(r, y)
        B, Bw, rho = _weights(geom, exps, r, y)
        components = tilde_components(beta, geom.gamma, r, y, rho)
        f0_sq = abs2(on.mode_zero())

        def at(phi):
            parts = on(phi)
            yield B * components_sq(components(parts))
            f_sq = abs2(parts[0])
            yield Bw * f_sq
            yield B * (f_sq - f0_sq) / r**2

        return at

    lhs, hardy_int, defect = polar_integral(density, f, spec)
    return InequalityReport("ab_hardy", lhs, {"main": C * hardy_int, "mode_defect": defect},
                            C, params, _resolution(spec))


def fourier_defect_terms(geom: GrushinGeometry, exps: WeightExponents,
                         f: TestFunction, spec: QuadratureSpec) -> dict:
    """Angular-derivative term vs mode-defect term of the weighted decomposition.

    Returns {"angular": int B |df/dphi|^2 / r^2, "defect": int B (|f|^2-|f0|^2)/r^2}.
    The first dominates the second for any mode content; they agree exactly when
    every nonzero mode has |mode| = 1.
    """
    require_args("the Fourier defect terms", geom=geom, exps=exps, f=f, spec=spec)
    if geom.m != 2:
        raise DomainError("mode decomposition needs m = 2")
    _require_shape(geom, f)

    def density(r, y):
        on = f.on_grid(r, y)
        B, _, _ = _weights(geom, exps, r, y)
        f0_sq = abs2(on.mode_zero())

        def at(phi):
            val, _, fphi, _ = on(phi)
            yield B * abs2(fphi) / r**2
            yield B * (abs2(val) - f0_sq) / r**2

        return at

    angular, defect = polar_integral(density, f, spec)
    return {"angular": angular, "defect": defect}


# ---------------------------------------------------------------------------
# Uncertainty-type products
# ---------------------------------------------------------------------------

def verify_uncertainty_grushin(geom: GrushinGeometry, exps: WeightExponents,
                               flux: FluxParam, f: TestFunction,
                               spec: QuadratureSpec,
                               variant: str = "uncer1") -> InequalityReport:
    """Norm-product uncertainty bound: ||weighted magnetic grad f|| ||f|| vs C^(1/2)."""
    require_args("the uncertainty bound", geom=geom, exps=exps, flux=flux, f=f, spec=spec)
    beta = flux.beta
    if variant == "uncer1":
        theorem_id, components = "uncertainty_grushin", grushin_components
    elif variant == "uncer21":
        theorem_id, components = "uncertainty_ab", tilde_components
    else:
        raise DomainError(f"unknown variant {variant!r}")
    C = sharp_constant(theorem_id, geom, exps, flux)   # the root of the Grushin constant
    if variant == "uncer1":
        _require_real(f, "the gradient-field uncertainty bound")
    _require_shape(geom, f)

    params = {**_geom_params(geom, exps), "beta": beta, "variant": variant,
              "sqrt_constant": C}
    g, a1, a2 = geom.gamma, exps.alpha1, exps.alpha2

    def density(r, y):
        on = f.on_grid(r, y)
        B, _, rho = _weights(geom, exps, r, y)
        # the half-exponent weight of the cross norm
        half_B = weight_B_rs(g, 0.5 * a1, 0.5 * a2, r, rho)
        half_w = r**g / rho ** (g + 1.0)
        cross_weight = half_B * half_w
        field = components(beta, g, r, y, rho)

        def at(phi):
            parts = on(phi)
            yield B * components_sq(field(parts))
            f_sq = abs2(parts[0])
            yield f_sq
            yield cross_weight * f_sq

        return at

    grad_sq, norm_sq, cross = integrate(density, f, spec, geom.m)
    lhs = math.sqrt(max(grad_sq, 0.0)) * math.sqrt(max(norm_sq, 0.0))
    return InequalityReport(theorem_id, lhs, {"main": C * cross}, C,
                            params, _resolution(spec))


# ---------------------------------------------------------------------------
# Constant-field case (m = k = n), linear potentials
# ---------------------------------------------------------------------------

def verify_constant_field(geom: GrushinGeometry, exps: WeightExponents,
                          pots: ConstantFieldPotentials, f: TestFunction,
                          spec: QuadratureSpec) -> InequalityReport:
    """Hardy bound for the constant-field magnetic gradient on m = k = n.

    The main constant is applied as printed (linear); the squared reading is
    evaluated alongside and reported in params as main_squared/margin_squared.
    """
    require_args("constant_field", geom=geom, exps=exps, pots=pots, f=f, spec=spec)
    C_lin = sharp_constant("constant_field", geom, exps, pots)
    _require_radial(f, "the constant-field bound")
    _require_shape(geom, f)
    _require_real(f, "the constant-field bound")

    n = geom.m
    params = {**_geom_params(geom, exps), "n": n,
              "constant_printed": C_lin, "constant_squared": C_lin**2}
    g, slope = geom.gamma, pots.slope

    def density(r, y):
        on = f.on_grid(r, y)
        B, Bw, _ = _weights(geom, exps, r, y)
        # sum_j (slope x_j)^2 = (slope r)^2 on the x-sphere, and sum_j (slope y_j)^2
        vx_sq = (slope * r) ** 2
        vy_sq = grad_y_sq(slope * y)

        def at(phi):
            parts = on(phi)
            val, fr, _, fy = parts
            f_sq = abs2(val)
            # x-sphere reduction of |(i d_x + slope y) f|^2 + |(i r^g d_y + slope x) f|^2:
            # the cross terms vanish for real f
            xblock = abs2(1j * fr) + vy_sq * f_sq
            yblock = r ** (2.0 * g) * grad_y_sq(1j * fy) + vx_sq * f_sq
            yield B * (xblock + yblock)
            yield B * _plain_sq(g, r, parts)
            yield B * (vx_sq + vy_sq) * f_sq
            yield Bw * f_sq

        return at

    lhs, grad_part, pot_part, hardy_int = rx_integral(density, f, spec, n)
    split = abs(lhs - (grad_part + pot_part)) / max(abs(lhs), 1e-300)

    main = C_lin * hardy_int
    main_sq = C_lin**2 * hardy_int
    params.update(main_squared=main_sq,
                  margin_squared=lhs - main_sq - pot_part,
                  split_rel_err=split)
    return InequalityReport("constant_field", lhs,
                            {"main": main, "field_potential": pot_part},
                            C_lin, params, _resolution(spec))
