"""One-dimensional Lp inequalities for radial profiles.

Everything here reduces to weighted integrals of |f| and |df/dr| against
r^(Q-1) dr.  Each check writes one density in the quadrature protocol: on a
grid block it evaluates f and df/dr once and yields the gradient-side and
the function-side integrands, each with its own radial weight r^(Q-1-w).
Both integrals come from one call of the x-radial path at power 0
(_grids.radial_integral, main engine or oracle).  The Euler operator
r * df/dr drives the weighted and logarithmic variants; the plain
derivative drives the bounded-support and composite-weight ones.
"""

from __future__ import annotations

import numpy as np

from ..errors import AdmissibilityError, DomainError, require_param
from ..functions import TestFunction
from ..quadrature import QuadratureSpec
from ..reports import InequalityReport, SuperweightParams
from ._grids import radial_integral, require_args, sharp_constant
from .grushin import _resolution
from .landau import _require_in_ball

__all__ = ["verify_radial_p"]


def verify_radial_p(variant: str, Q: float, p: float, params,
                    f: TestFunction, spec: QuadratureSpec) -> InequalityReport:
    """Margin report for one of the radial Lp bounds.

    variant: weighted (power weight r^-theta, needs theta*p != Q), log
    (critical weight with the factor log r), poincare (bounded support,
    constant R*p/Q), superweight ((a + b r^theta2)^theta3 weights).  params
    carries the variant's numbers: {"theta": ...}, {}, {"R": ...} or a
    SuperweightParams.  Q, p, theta and R must be finite.  The reported lhs
    is whichever side the inequality bounds from below, so margin >= 0 is
    the assertion in every variant.
    """
    theorem_id = f"radial_p_{variant}"
    for name, value in (("Q", Q), ("p", p)):
        require_param("the radial Lp check", name, value)
    if not (p > 1.0):
        raise AdmissibilityError("need p > 1")
    if not (Q > 0.0):
        raise AdmissibilityError("need Q > 0")
    require_args(theorem_id, f=f, spec=spec)
    if not (f.is_radial and f.k == 0):
        raise DomainError("the one-dimensional checks take radial profiles")

    run_params: dict = {"variant": variant, "Q": Q, "p": p}
    given = params if isinstance(params, dict) else {}

    # per variant: admissibility, the values after Q and p its record's
    # constant C reads, the radial weight exponents and the integrands of
    # the gradient side (of df/dr) and the function side (of f)
    func_side = lambda r, fv: np.abs(fv) ** p
    if variant == "weighted":
        theta = require_param("weighted variant", "theta", given.get("theta"))
        values = (theta,)
        w_grad = w_func = theta * p
        run_params["theta"] = theta
        grad_side = lambda r, fr: np.abs(r * fr) ** p
    elif variant == "log":
        values = ()
        w_grad = w_func = Q
        grad_side = lambda r, fr: np.abs(np.log(r) * r * fr) ** p
    elif variant == "poincare":
        R = given.get("R")
        R = f.support()[1] if R is None else require_param("poincare variant", "R", R)
        _require_in_ball(f, R)
        values = (R,)
        w_grad = w_func = 0.0
        run_params["R"] = R
        grad_side = lambda r, fr: np.abs(fr) ** p
    elif variant == "superweight":
        sw = require_param("composite-weight variant", "its parameters", params, SuperweightParams)
        values = (sw,)
        w_grad, w_func = p * sw.theta4, p * (sw.theta4 + 1.0)
        run_params["weights"] = sw.to_dict()
        W = sw.weight
        grad_side = lambda r, fr: W(r) * np.abs(fr) ** p
        func_side = lambda r, fv: W(r) * np.abs(fv) ** p
    else:
        raise DomainError(f"unknown variant {variant!r}")
    C = sharp_constant(theorem_id, Q, p, *values)

    def density(r, y):
        fv, fr = f.on_grid(r, y)(0.0)[:2]
        sides = (grad_side(r, fr) * r ** (Q - 1.0 - w_grad),
                 func_side(r, fv) * r ** (Q - 1.0 - w_func))
        return lambda phi: sides

    res = _resolution(spec)
    grad_norm, func_norm = (max(v, 0.0) ** (1.0 / p)
                            for v in radial_integral(density, f, spec, 0))

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
