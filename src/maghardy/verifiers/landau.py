"""Verifiers for the twisted (Landau-type) inequalities on the plane.

The twisted gradient carries a radial profile psi(|z|) multiplying the
rotation field (-y, x); its squared norm is always assembled componentwise
from the Cartesian components of fields.twisted_components (the same code
as the pointwise twisted_grad_psi), so left-hand sides are the displayed
integrands and nothing is simplified away.  Each check writes one density
in the quadrature protocol and makes one integration call.  Plane functions
are TestFunctions with k = 0; the x-radial real case generalizes to any
even dimension 2n through the sphere-factor reduction.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from ..errors import AdmissibilityError, DomainError, require_param
from ..fields import RadialPotential, twisted_components
from ..functions import TestFunction
from ..quadrature import QuadratureSpec
from ..reports import IdentityReport, InequalityReport, SuperweightParams
from ._grids import abs2, components_sq, integrate, polar_integral, require_args, sharp_constant
from .grushin import _require_radial, _require_real, _resolution

__all__ = [
    "check_twisted_polar_identity",
    "verify_landau",
    "verify_real_landau",
]


def _require_plane(f: TestFunction) -> None:
    if f.k != 0:
        raise DomainError("plane functions carry no y-block (k = 0)")


def _require_in_ball(f: TestFunction, radius: float | None) -> None:
    """Refuse a support reaching beyond the ball |z| <= radius, if one is given."""
    if radius is not None and not require_param("the ball", "radius", radius) > 0.0:
        raise DomainError(f"the ball needs a finite positive radius, got {radius}")
    if radius is not None and f.support()[1] > radius * (1.0 + 1e-12):
        raise AdmissibilityError(
            f"function must be supported inside the ball of radius {radius}")


def _theta1(value) -> float:
    """theta1 of the power weights 1/|z|^(2 theta1): a finite real other than 0."""
    t1 = require_param("power-weight variant", "theta1", value)
    if t1 == 0.0:
        raise AdmissibilityError("power-weight variant needs theta1 != 0")
    return t1


def _psi_record(psi) -> dict:
    """The report's record of the potential psi: its kind and parameters."""
    return {"psi_kind": getattr(psi, "kind", "user"),
            "psi_params": list(getattr(psi, "params", ()))}


def check_twisted_polar_identity(psi, kappa, f: TestFunction,
                                 spec: QuadratureSpec) -> IdentityReport:
    """Polar split of the twisted Dirichlet integral against a radial weight.

    lhs: componentwise |twisted grad f|^2 / kappa(r); rhs: the polar form
    (|df/dr|^2 + |df/dphi|^2/r^2 + psi^2 r^2 |f|^2) / kappa(r), i.e. the
    split without any angular cross contribution.
    """
    require_args("twisted_polar", psi=psi, kappa=kappa, f=f, spec=spec)
    _require_plane(f)

    def density(r, y):
        on = f.on_grid(r, y)
        pv, kv = np.asarray(psi(r)), np.asarray(kappa(r))

        def at(phi):
            parts = on(phi)
            yield components_sq(twisted_components(pv, r, phi, parts)) / kv
            val, fr, fphi, _ = parts
            yield (abs2(fr) + abs2(fphi) / r**2 + pv**2 * r**2 * abs2(val)) / kv

        return at

    lhs, rhs = polar_integral(density, f, spec)
    return IdentityReport("twisted_polar", lhs, rhs, _psi_record(psi), _resolution(spec))


# ---------------------------------------------------------------------------
# The four weighted inequalities for the twisted gradient
# ---------------------------------------------------------------------------

def verify_landau(variant: str, psi: RadialPotential,
                  params: float | SuperweightParams | None, f: TestFunction,
                  spec: QuadratureSpec,
                  radius: float | None = None) -> InequalityReport:
    """Weighted Hardy/Poincare bounds for the twisted gradient on the plane.

    variant selects the weight family, and params its numbers:
      hardy_sobolev  power weights 1/|z|^(2 theta1), theta1 != 0 (params)
      log            log^2|z| against the constant 1/4
      poincare       the ball |z| <= radius, constant 1/radius^2
      superweight    (a + b|z|^theta2)^theta3 / |z|^(2 theta4) weights
                     (params a SuperweightParams)
    Every right-hand term of the corresponding display is evaluated,
    including the psi^2 term and the angular-defect remainder.  A radius
    (poincare needs one) confines f to the ball |z| <= radius, recorded as R.
    """
    theorem_id = f"landau_{variant}"
    require_args(theorem_id, psi=psi, f=f, spec=spec)
    _require_plane(f)
    _require_in_ball(f, radius)
    run_params = {"variant": variant, **_psi_record(psi)}

    def psi_sq(r):
        return np.asarray(psi(r)) ** 2

    # per variant: admissibility, its parameters in the report, and the
    # weights of the gradient side (wv), the main term, the psi term and the
    # mode defect; then the constant, whose record checks the rest
    if variant == "hardy_sobolev":
        t1 = _theta1(params)
        run_params["theta1"] = t1
        wv = lambda r: r ** (-2.0 * t1)
        main_weight = defect_weight = lambda r: r ** (-2.0 * t1 - 2.0)
        psi_weight = lambda r: psi_sq(r) * r ** (-2.0 * t1 + 2.0)
    elif variant == "log":
        _require_in_ball(f, 1.0)   # the closed unit disc
        wv = lambda r: np.log(r) ** 2
        main_weight = np.ones_like
        psi_weight = lambda r: psi_sq(r) * r**2 * np.log(r) ** 2
        defect_weight = lambda r: np.log(r) ** 2 / r**2
    elif variant == "poincare":
        wv = main_weight = defect_weight = np.ones_like
        psi_weight = lambda r: psi_sq(r) * r**2
    elif variant == "superweight":
        sw = require_param("superweight variant", "its parameters", params, SuperweightParams)
        W, t4 = sw.weight, sw.theta4
        run_params["weights"] = sw.to_dict()
        wv = lambda r: W(r) * r ** (-2.0 * t4)
        main_weight = defect_weight = lambda r: W(r) * r ** (-2.0 * t4 - 2.0)
        psi_weight = lambda r: psi_sq(r) * W(r) * r ** (-2.0 * t4 + 2.0)
    else:
        raise DomainError(f"unknown variant {variant!r}")
    sharp = sharp_constant(theorem_id, psi, radius, params)

    if radius is not None:
        run_params["R"] = float(radius)

    def density(r, y):
        on = f.on_grid(r, y)
        pv = np.asarray(psi(r))
        f0_sq = abs2(on.mode_zero())
        w_grad, w_main, w_psi, w_defect = (
            wv(r), main_weight(r), psi_weight(r), defect_weight(r))

        def at(phi):
            parts = on(phi)
            yield w_grad * components_sq(twisted_components(pv, r, phi, parts))
            f_sq = abs2(parts[0])
            yield w_main * f_sq
            yield w_psi * f_sq
            yield w_defect * (f_sq - f0_sq)

        return at

    lhs, main_int, psi_term, defect = polar_integral(density, f, spec)
    main = sharp * main_int
    terms = {"main": main, "psi_potential": psi_term, "mode_defect": defect}
    return InequalityReport(theorem_id, lhs, terms, sharp, run_params, _resolution(spec))


# ---------------------------------------------------------------------------
# Classical-field (psi = 1/2) statements for real functions
# ---------------------------------------------------------------------------

def verify_real_landau(variant: str, n: int, f: TestFunction,
                       spec: QuadratureSpec, radius: float | None = None,
                       R: float | None = None):
    """Classical constant-field statements (psi = 1/2) for real functions.

    variant: identity (the Dirichlet + harmonic-potential split, n = 1),
    hardy ((n-1)^2 constant), critical (log-weighted, n = 1, needs
    R >= e * sup|z|), uncertainty (norm product vs the pointwise sqrt bound).
    A radius confines f to the ball |z| <= radius and stands for sup|z|.
    Only critical, and uncertainty at n = 1, read R; the others refuse one.
    """
    theorem_id = f"real_landau_{variant}"
    if require_param(theorem_id, "n", n, numbers.Integral) < 1:
        raise DomainError("need n >= 1")
    if n != 1 and variant in ("identity", "critical"):
        raise DomainError(f"the {variant} statement runs on the plane (n = 1)")
    require_args(theorem_id, f=f, spec=spec)
    _require_plane(f)
    _require_real(f, "the classical-field statement")
    if n >= 2:   # through the radial reduction
        _require_radial(f, "the classical-field statement for n >= 2")
    half = RadialPotential.constant(0.5)
    res = _resolution(spec)

    _require_in_ball(f, radius)
    params = {"n": n, "variant": variant}
    if variant == "critical" or (variant == "uncertainty" and n == 1):
        sup_z = f.support()[1] if radius is None else float(radius)
        R = math.e * sup_z if R is None else require_param("the log-weighted bound", "R", R)
        if R < math.e * sup_z * (1.0 - 1e-12):
            raise AdmissibilityError("need R >= e * sup|z| over the domain")
        params["R"] = R
    elif R is not None:
        raise AdmissibilityError(f"the {variant} statement at n = {n} reads no R")

    def pot(r, parts):
        return 0.25 * r**2 * abs2(parts[0])

    # per variant: the integrands after the gradient side
    if variant == "identity":
        def plain(r, parts):
            _, fr, fphi, _ = parts
            return abs2(fr) + abs2(fphi) / r**2

        terms = (plain, pot)
    elif variant == "hardy":
        terms = (lambda r, parts: abs2(parts[0]) / r**2, pot)
    elif variant == "critical":
        terms = (lambda r, parts: abs2(parts[0]) / (r**2 * np.log(R / r) ** 2), pot)
    elif variant == "uncertainty":
        # the norm product against the pointwise square-root bound
        def root_bound(r, parts):
            if n == 1:
                root = np.sqrt(0.25 / (r**2 * np.log(R / r) ** 2) + 0.25 * r**2)
            else:
                root = np.sqrt((n - 1) ** 2 / r**2 + 0.25 * r**2)
            return root * abs2(parts[0])

        terms = (lambda r, parts: abs2(parts[0]), root_bound)
    else:
        raise DomainError(f"unknown variant {variant!r}")

    def density(r, y):
        on = f.on_grid(r, y)
        # n = 1 runs on the plane; n >= 2 through the radial reduction
        pv = np.asarray(half(r)) if n == 1 else None

        def at(phi):
            parts = on(phi)
            if n == 1:
                yield components_sq(twisted_components(pv, r, phi, parts))
            else:
                yield abs2(parts[1]) + 0.25 * r**2 * abs2(parts[0])
            for term in terms:
                yield term(r, parts)

        return at

    lhs, first, second = integrate(density, f, spec, 2 * n)

    if variant == "identity":
        return IdentityReport(theorem_id, lhs, first + second, params, res)
    sharp = sharp_constant(theorem_id, n, radius, R)
    if variant == "uncertainty":
        lhs = math.sqrt(max(lhs, 0.0)) * math.sqrt(max(first, 0.0))
        return InequalityReport(theorem_id, lhs, {"main": sharp * second}, sharp, params, res)
    return InequalityReport(theorem_id, lhs, {"main": sharp * first, "psi_potential": second},
                            sharp, params, res)
