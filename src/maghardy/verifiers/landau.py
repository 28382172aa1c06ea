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

import numpy as np

from ..errors import AdmissibilityError, DomainError
from ..fields import RadialPotential, twisted_components
from ..functions import TestFunction
from ..quadrature import Domain, QuadratureSpec
from ..reports import IdentityReport, InequalityReport, SuperweightParams
from ._grids import (
    abs2,
    mode_zero_sq,
    polar_integral,
    require_phi_resolution,
    rx_integral,
    support_domain,
)
from .grushin import _require_real, _resolution

__all__ = [
    "check_twisted_polar_identity",
    "verify_landau",
    "verify_real_landau",
]


def _require_plane(f: TestFunction) -> None:
    if f.modes and f.k != 0:
        raise DomainError("plane functions carry no y-block (k = 0)")


def _twisted_sq(tx, ty):
    """|twisted gradient|^2 from its Cartesian components."""
    return abs2(tx) + abs2(ty)


def check_twisted_polar_identity(psi, kappa, f: TestFunction,
                                 spec: QuadratureSpec) -> IdentityReport:
    """Polar split of the twisted Dirichlet integral against a radial weight.

    lhs: componentwise |twisted grad f|^2 / kappa(r); rhs: the polar form
    (|df/dr|^2 + |df/dphi|^2/r^2 + psi^2 r^2 |f|^2) / kappa(r), i.e. the
    split without any angular cross contribution.
    """
    _require_plane(f)
    params = {"psi_kind": getattr(psi, "kind", "user"),
              "psi_params": list(getattr(psi, "params", ()))}
    if not f.modes:
        return IdentityReport("twisted_polar", 0.0, 0.0, params, _resolution(spec))
    require_phi_resolution(f, spec)

    def density(r, y):
        on = f.on_grid(r, y)
        pv, kv = np.asarray(psi(r)), np.asarray(kappa(r))

        def at(phi):
            parts = on(phi)
            yield _twisted_sq(*twisted_components(pv, r, phi, parts)) / kv
            val, fr, fphi, _ = parts
            yield (abs2(fr) + abs2(fphi) / r**2 + pv**2 * r**2 * abs2(val)) / kv

        return at

    lhs, rhs = polar_integral(density, spec, support_domain(f))
    return IdentityReport("twisted_polar", lhs, rhs, params, _resolution(spec))


# ---------------------------------------------------------------------------
# The four weighted inequalities for the twisted gradient
# ---------------------------------------------------------------------------

def verify_landau(variant: str, psi: RadialPotential,
                  params: SuperweightParams | None, f: TestFunction,
                  spec: QuadratureSpec,
                  domain: Domain | None = None) -> InequalityReport:
    """Weighted Hardy/Poincare bounds for the twisted gradient on the plane.

    variant selects the weight family:
      hardy_sobolev  power weights 1/|z|^(2 theta1), theta1 != 0
      log            log^2|z| against the constant 1/4
      poincare       bounded ball, constant 1/R^2
      superweight    (a + b|z|^theta2)^theta3 / |z|^(2 theta4) weights
    Every right-hand term of the corresponding display is evaluated,
    including the psi^2 term and the angular-defect remainder.
    """
    theorem_id = f"landau_{variant}"
    _require_plane(f)

    run_params = {"variant": variant,
                  "psi_kind": getattr(psi, "kind", "user"),
                  "psi_params": list(getattr(psi, "params", ()))}

    def psi_sq(r):
        return np.asarray(psi(r)) ** 2

    # per variant: admissibility, the constant, its parameters in the report,
    # and the weights of the gradient side (wv), the main term, the psi term
    # and the mode defect
    if variant == "hardy_sobolev":
        if params is None:
            raise AdmissibilityError("power-weight variant needs theta1")
        t1 = params.theta1 if isinstance(params, SuperweightParams) else float(params)
        if t1 == 0.0:
            raise AdmissibilityError("power-weight variant needs theta1 != 0")
        sharp = t1 * t1
        run_params["theta1"] = t1
        wv = lambda r: r ** (-2.0 * t1)
        main_weight = defect_weight = lambda r: r ** (-2.0 * t1 - 2.0)
        psi_weight = lambda r: psi_sq(r) * r ** (-2.0 * t1 + 2.0)
    elif variant == "log":
        if f.modes and f.support()[1] > 1.0 + 1e-12:
            raise AdmissibilityError(
                "log-weighted bound needs support inside the closed unit disc")
        sharp = 0.25
        wv = lambda r: np.log(r) ** 2
        main_weight = np.ones_like
        psi_weight = lambda r: psi_sq(r) * r**2 * np.log(r) ** 2
        defect_weight = lambda r: np.log(r) ** 2 / r**2
    elif variant == "poincare":
        if domain is None or domain.kind != "ball":
            raise AdmissibilityError("bounded variant needs a ball domain")
        R = float(domain.R_Omega)
        if f.modes and f.support()[1] > R * (1.0 + 1e-12):
            raise AdmissibilityError("function must be supported inside the ball")
        sharp = 1.0 / (R * R)
        wv = main_weight = defect_weight = np.ones_like
        psi_weight = lambda r: psi_sq(r) * r**2
    elif variant == "superweight":
        if params is None:
            raise AdmissibilityError("superweight variant needs its parameters")
        if not (2.0 * params.theta4 <= params.theta2 * params.theta3):
            raise AdmissibilityError("need 2*theta4 <= theta2*theta3")
        a, b = params.a, params.b
        t2, t3, t4 = params.theta2, params.theta3, params.theta4
        sharp = 0.5 * (t2 * t3 - 2.0 * t4)
        run_params["weights"] = params.to_dict()
        W = lambda r: (a + b * r**t2) ** t3
        wv = lambda r: W(r) * r ** (-2.0 * t4)
        main_weight = defect_weight = lambda r: W(r) * r ** (-2.0 * t4 - 2.0)
        psi_weight = lambda r: psi_sq(r) * W(r) * r ** (-2.0 * t4 + 2.0)
    else:
        raise DomainError(f"unknown variant {variant!r}")

    if domain is not None and domain.kind == "ball":
        run_params["R"] = float(domain.R_Omega)
    res = _resolution(spec)
    if not f.modes:
        terms = {"main": 0.0, "psi_potential": 0.0, "mode_defect": 0.0}
        return InequalityReport(theorem_id, 0.0, terms, sharp, run_params, res)
    require_phi_resolution(f, spec)

    dom = support_domain(f) if domain is None else Domain(
        r_lo=f.support()[0], r_hi=f.support()[1], y_box=(),
        kind=domain.kind, R_Omega=domain.R_Omega,
        r_breaks=f.support()[3])

    def density(r, y):
        on = f.on_grid(r, y)
        pv = np.asarray(psi(r))
        f0_sq = mode_zero_sq(f, r, y)
        w_grad, w_main, w_psi, w_defect = (
            wv(r), main_weight(r), psi_weight(r), defect_weight(r))

        def at(phi):
            parts = on(phi)
            yield w_grad * _twisted_sq(*twisted_components(pv, r, phi, parts))
            f_sq = abs2(parts[0])
            yield w_main * f_sq
            yield w_psi * f_sq
            yield w_defect * (f_sq - f0_sq)

        return at

    lhs, main_int, psi_term, defect = polar_integral(density, spec, dom)
    main = sharp * main_int
    terms = {"main": main, "psi_potential": psi_term, "mode_defect": defect}
    return InequalityReport(theorem_id, lhs, terms, sharp, run_params, res)


# ---------------------------------------------------------------------------
# Classical-field (psi = 1/2) statements for real functions
# ---------------------------------------------------------------------------

def verify_real_landau(variant: str, n: int, f: TestFunction,
                       spec: QuadratureSpec, Omega: Domain | None = None,
                       R: float | None = None):
    """Classical constant-field statements (psi = 1/2) for real functions.

    variant: identity (the Dirichlet + harmonic-potential split, n = 1),
    hardy ((n-1)^2 constant), critical (log-weighted, n = 1, needs
    R >= e * sup|z|), uncertainty (norm product vs the pointwise sqrt bound).
    """
    if n < 1:
        raise DomainError("need n >= 1")
    _require_plane(f)
    _require_real(f, "the classical-field statement")
    if n >= 2 and f.modes and not f.is_radial:
        raise AdmissibilityError("n >= 2 runs through the radial reduction")
    theorem_id = f"real_landau_{variant}"
    half = RadialPotential.constant(0.5)
    res = _resolution(spec)
    dim = 2 * n

    if variant == "critical" or (variant == "uncertainty" and n == 1):
        if f.modes:
            sup_z = f.support()[1]
            if Omega is not None:
                sup_z = float(Omega.R_Omega)
                if f.support()[1] > sup_z * (1.0 + 1e-12):
                    raise AdmissibilityError("function must be supported in Omega")
            R = math.e * sup_z if R is None else float(R)
            if R < math.e * sup_z * (1.0 - 1e-12):
                raise AdmissibilityError("need R >= e * sup|z| over the domain")

    params = {"n": n, "variant": variant}
    if R is not None:
        params["R"] = R

    def pot(r, parts):
        return 0.25 * r**2 * abs2(parts[0])

    # per variant: the constant and the integrands after the gradient side
    if variant == "identity":
        if n != 1:
            raise DomainError("the split identity check runs on the plane (n=1)")
        if not f.modes:
            return IdentityReport(theorem_id, 0.0, 0.0, params, res)

        def plain(r, parts):
            _, fr, fphi, _ = parts
            return abs2(fr) + abs2(fphi) / r**2

        terms = (plain, pot)
    elif variant == "hardy":
        sharp = float((n - 1) ** 2)
        terms = (lambda r, parts: abs2(parts[0]) / r**2, pot)
    elif variant == "critical":
        if n != 1:
            raise DomainError("the log-weighted bound is stated on the plane")
        sharp = 0.25
        terms = (lambda r, parts: abs2(parts[0]) / (r**2 * np.log(R / r) ** 2), pot)
    elif variant == "uncertainty":
        # the norm product against the pointwise square-root bound
        sharp = 1.0

        def root_bound(r, parts):
            if n == 1:
                root = np.sqrt(0.25 / (r**2 * np.log(R / r) ** 2) + 0.25 * r**2)
            else:
                root = np.sqrt((n - 1) ** 2 / r**2 + 0.25 * r**2)
            return root * abs2(parts[0])

        terms = (lambda r, parts: abs2(parts[0]), root_bound)
    else:
        raise DomainError(f"unknown variant {variant!r}")

    if variant != "identity" and not f.modes:
        names = ("main",) if variant == "uncertainty" else ("main", "psi_potential")
        return InequalityReport(theorem_id, 0.0, dict.fromkeys(names, 0.0),
                                sharp, params, res)

    def density(r, y):
        on = f.on_grid(r, y)
        # n = 1 runs on the plane; n >= 2 through the radial reduction
        pv = np.asarray(half(r)) if n == 1 else None

        def at(phi):
            parts = on(phi)
            if n == 1:
                yield _twisted_sq(*twisted_components(pv, r, phi, parts))
            else:
                yield abs2(parts[1]) + 0.25 * r**2 * abs2(parts[0])
            for term in terms:
                yield term(r, parts)

        return at

    dom = support_domain(f)
    if n == 1:
        require_phi_resolution(f, spec)
        lhs, first, second = polar_integral(density, spec, dom)
    else:
        lhs, first, second = rx_integral(density, spec, dom, dim)

    if variant == "identity":
        return IdentityReport(theorem_id, lhs, first + second, params, res)
    if variant == "uncertainty":
        lhs = math.sqrt(max(lhs, 0.0)) * math.sqrt(max(first, 0.0))
        return InequalityReport(theorem_id, lhs, {"main": second}, sharp, params, res)
    return InequalityReport(theorem_id, lhs, {"main": sharp * first, "psi_potential": second},
                            sharp, params, res)
