"""One-dimensional Lp inequalities for radial profiles.

Everything here reduces to weighted integrals of |f| and |df/dr| against
r^(Q-1) dr, evaluated through the radial quadrature (or its oracle).  The
Euler operator r * df/dr drives the weighted and logarithmic variants; the
plain derivative drives the bounded-support and composite-weight ones.
"""

from __future__ import annotations

import numpy as np

from ..errors import AdmissibilityError, DomainError
from ..functions import TestFunction
from ..quadrature import QuadratureSpec, integrate_radial, oracle_integrate_radial
from ..reports import InequalityReport, SuperweightParams
from .grushin import _resolution

__all__ = ["verify_radial_p"]

def _rint(density, Q: float, w: float, spec: QuadratureSpec,
          r_lo: float, r_hi: float, breaks) -> float:
    if spec.oracle:
        return oracle_integrate_radial(density, Q, w, r_lo, r_hi)
    return integrate_radial(density, Q, w, spec, r_lo, r_hi, breaks)


def verify_radial_p(variant: str, Q: float, p: float, params,
                    f: TestFunction, spec: QuadratureSpec) -> InequalityReport:
    """Margin report for one of the radial Lp bounds.

    variant: weighted (power weight r^-theta, needs theta*p != Q), log
    (critical weight with the factor log r), poincare (bounded support,
    constant R*p/Q), superweight ((a + b r^theta2)^theta3 weights).  params
    carries the variant's numbers: {"theta": ...}, {}, {"R": ...} or a
    SuperweightParams.  The reported lhs is whichever side the inequality
    bounds from below, so margin >= 0 is the assertion in every variant.
    """
    theorem_id = f"radial_p_{variant}"
    if not (p > 1.0):
        raise AdmissibilityError("need p > 1")
    if not (Q > 0.0):
        raise AdmissibilityError("need Q > 0")
    if f.modes and not (f.is_radial and f.k == 0):
        raise DomainError("the one-dimensional checks take radial profiles")

    run_params: dict = {"variant": variant, "Q": Q, "p": p}

    def fval(r):
        return f.value_polar(r, 0.0, np.zeros(np.shape(r) + (0,)))

    def fder(r):
        return f.partials_polar(r, 0.0, np.zeros(np.shape(r) + (0,)))[0]

    # per variant: admissibility, the constant C, the radial weight exponents
    # and the densities of the gradient and (where weighted) the function side
    func_dens = lambda r: np.abs(fval(r)) ** p
    if variant == "weighted":
        theta = float(params["theta"])
        if abs(theta * p - Q) < 1e-12:
            raise AdmissibilityError("need theta * p != Q")
        C = abs(p / (Q - theta * p))
        w_grad = w_func = theta * p
        run_params["theta"] = theta
        grad_dens = lambda r: np.abs(r * fder(r)) ** p
    elif variant == "log":
        C = p
        w_grad = w_func = Q
        grad_dens = lambda r: np.abs(np.log(r) * r * fder(r)) ** p
    elif variant == "poincare":
        R = None if params is None else params.get("R")
        if R is None:
            R = f.support()[1] if f.modes else 1.0
        R = float(R)
        if f.modes and f.support()[1] > R * (1.0 + 1e-12):
            raise AdmissibilityError("support must sit inside [0, R]")
        C = R * p / Q
        w_grad = w_func = 0.0
        run_params["R"] = R
        grad_dens = lambda r: np.abs(fder(r)) ** p
    elif variant == "superweight":
        if not isinstance(params, SuperweightParams):
            raise AdmissibilityError("composite-weight variant needs its parameters")
        a, b = params.a, params.b
        t2, t3, t4 = params.theta2, params.theta3, params.theta4
        C = (Q - p * t4 + t2 * t3 - p) / p
        if C < 0.0:
            raise AdmissibilityError("need p*theta4 - theta2*theta3 <= Q - p")
        w_grad, w_func = p * t4, p * (t4 + 1.0)
        run_params["weights"] = params.to_dict()
        W = lambda r: (a + b * r**t2) ** t3
        grad_dens = lambda r: W(r) * np.abs(fder(r)) ** p
        func_dens = lambda r: W(r) * np.abs(fval(r)) ** p
    else:
        raise DomainError(f"unknown variant {variant!r}")

    res = _resolution(spec)
    if not f.modes:
        if variant == "superweight":
            return InequalityReport(theorem_id, 0.0, {"main": 0.0}, C,
                                    run_params, res)
        return InequalityReport(theorem_id, 0.0, {"main": 0.0}, C,
                                run_params, res, ratio_override=float("nan"))

    r_lo, r_hi, _, breaks = f.support()
    grad_int = _rint(grad_dens, Q, w_grad, spec, r_lo, r_hi, breaks)
    func_int = _rint(func_dens, Q, w_func, spec, r_lo, r_hi, breaks)
    grad_norm = max(grad_int, 0.0) ** (1.0 / p)
    func_norm = max(func_int, 0.0) ** (1.0 / p)

    if variant == "superweight":
        # printed as  C * ||W^(1/p) f / r^(theta4+1)|| <= ||W^(1/p) f' / r^theta4||
        return InequalityReport(theorem_id, grad_norm,
                                {"main": C * func_norm}, C, run_params, res)

    # printed as  ||f-side|| <= C * ||gradient-side||; the constant rides
    # on the lhs here, so the attained-constant ratio needs the override.
    lhs = C * grad_norm
    ratio = C * func_norm / lhs if lhs > 0.0 else float("nan")
    return InequalityReport(theorem_id, lhs, {"main": func_norm}, C,
                            run_params, res, ratio_override=ratio)
