"""The catalogue: one record per checkable statement.

A record owns its statement's `list` texts, the run keys its verifier reads
and the dispatch to it, the trial family of its sharpness engine, if any,
and constant(*values), the one place its sharp constant is computed, with
the admissibility conditions it rests on.  The verifiers (through
_grids.sharp_constant) and the engine look the record up when they run, so
a record whose constant is swapped moves both.  The dispatch closures look
each verifier up in its module when they run, so a verifier patched there
is the one called; this module imports the verifiers, not the reverse.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from ..errors import AdmissibilityError, DomainError, require_param
from ..reports import SuperweightParams
from . import grushin, landau, radial_p
from ._grids import require_args
from .grushin import _first_kind, _rotated_kind
from .landau import _theta1

__all__ = ["CHECKS", "FAMILY_FOR", "Statement", "list_theorems"]


class Statement(NamedTuple):
    """One catalogued statement.

    formula and text are its `list` entry: the sharp constant and the
    conditions of a margin check, or (formula None) what an identity
    states.  keys are the run keys its verifier reads; verify(f, spec,
    *values) calls it and constant(*values) gives its sharp constant on
    their values.  An id with a sharpness engine names the trial family it
    takes, the engine_keys it reads and params(*values), its params."""

    formula: str | None
    text: str
    keys: tuple
    verify: Callable
    constant: Callable | None = None
    family: str | None = None
    engine_keys: tuple = ()
    params: Callable = lambda *values: None


# --- the constants -------------------------------------------------------------

def _grushin(s_hom: float, beta: float = 0.0) -> float:
    """(s/2)^2 + beta^2, the constant of the Grushin family for the exponent s of its kind."""
    return (0.5 * s_hom) ** 2 + beta * beta


def _magnetic(theorem_id: str, kind: Callable, root: bool = False) -> Callable:
    """(s/2)^2 + beta^2, or its root, for s = kind(geom, exps, *flag), then flux checked."""
    def constant(geom, exps, flux, *flag):
        s_hom = kind(geom, exps, *flag)
        require_args(theorem_id, flux=flux)
        C = _grushin(s_hom, flux.beta)
        return math.sqrt(C) if root else C
    return constant


def _constant_field(geom, exps, pots):
    n = geom.m
    if geom.k != n:
        raise DomainError(f"need m = k = n = {n}, got m={geom.m}, k={geom.k}")
    _first_kind(geom, exps)   # m = k = n: Q = n*(2+gamma), m + gamma*alpha2 = n + alpha2*gamma
    return 0.5 * (n * (2.0 + geom.gamma) + exps.alpha1 - 2.0)


# The Landau constants take (psi, radius, params); psi never enters them, and
# the sharpness engine, with neither a potential nor a ball, passes None.

def _power_weight(psi, radius, theta1):
    t1 = _theta1(theta1)
    return t1 * t1


def _ball(psi, radius, params=None):
    if radius is None:
        raise AdmissibilityError("bounded variant needs a ball domain")
    return 1.0 / (radius * radius)


def _superweight(psi, radius, params):
    sw = require_param("superweight variant", "its parameters", params, SuperweightParams)
    if not (2.0 * sw.theta4 <= sw.theta2 * sw.theta3):
        raise AdmissibilityError("need 2*theta4 <= theta2*theta3")
    return 0.5 * (sw.theta2 * sw.theta3 - 2.0 * sw.theta4)


def _weighted(Q, p, theta):
    if abs(theta * p - Q) < 1e-12:
        raise AdmissibilityError("need theta * p != Q")
    return abs(p / (Q - theta * p))


def _composite(Q, p, params):
    sw = require_param("composite-weight variant", "its parameters", params, SuperweightParams)
    C = (Q - p * sw.theta4 + sw.theta2 * sw.theta3 - p) / p
    if C < 0.0:
        raise AdmissibilityError("need p*theta4 - theta2*theta3 <= Q - p")
    return C


# --- the dispatch --------------------------------------------------------------

_GRUSHIN = ("geometry", "weights")
_MAGNETIC = (*_GRUSHIN, "flux")
_LANDAU = ("psi", "domain")


def _landau(variant: str):
    """verify_landau on _LANDAU's values, then the variant's params, if any."""
    return lambda f, spec, psi, radius, params=None: landau.verify_landau(
        variant, psi, params, f, spec, radius=radius)


def _real_landau(variant: str):
    return lambda f, spec, n, radius=None, R=None: landau.verify_real_landau(
        variant, n, f, spec, radius=radius, R=R)


def _radial_p(variant: str, params=lambda: {}):
    """verify_radial_p on Q and p, its params built from the values after them."""
    return lambda f, spec, Q, p, *values: radial_p.verify_radial_p(
        variant, Q, p, params(*values), f, spec)


CHECKS = {
    "radial_hardy": Statement(
        "((Q+a1-2)/2)^2", "Q+a1-2 > 0, m+g*a2 > 0; radial f", _GRUSHIN,
        lambda f, spec, geom, exps: grushin.verify_radial_hardy(geom, exps, f, spec),
        lambda geom, exps: _grushin(_first_kind(geom, exps)),
        "rho_power", _GRUSHIN, lambda geom, exps: {"geom": geom, "exps": exps}),
    "magnetic_grushin": Statement(
        "((Q+a1-2)/2)^2 + b^2", "Q+a1-2 > 0, m+g*a2 > 0; real f", _MAGNETIC,
        lambda f, spec, geom, exps, flux: grushin.verify_magnetic_grushin(
            geom, exps, flux, f, spec),
        _magnetic("magnetic_grushin", _first_kind),
        "rho_power", _MAGNETIC,
        lambda geom, exps, flux: {"geom": geom, "exps": exps, "flux": flux}),
    "ab_hardy": Statement(
        "((a1+k(g+1))/2)^2 + b^2",
        "m = 2, a1+k(g+1) > 0, and a2+2g > 0 (thm2) or a2*g+2 > 0 (corollary)",
        (*_MAGNETIC, "admissibility"),
        lambda f, spec, geom, exps, flux, admissibility: grushin.verify_ab_hardy(
            geom, exps, flux, f, spec, admissibility=admissibility),
        _magnetic("ab_hardy", _rotated_kind)),
    "uncertainty_grushin": Statement(
        "(((Q+a1-2)/2)^2 + b^2)^(1/2)",
        "as magnetic_grushin; norms halve the weight exponents", _MAGNETIC,
        lambda f, spec, geom, exps, flux: grushin.verify_uncertainty_grushin(
            geom, exps, flux, f, spec, variant="uncer1"),
        _magnetic("uncertainty_grushin", _first_kind, root=True)),
    "uncertainty_ab": Statement(
        "(((a1+k(g+1))/2)^2 + b^2)^(1/2)", "m = 2, a1+k(g+1) > 0, a2*g+2 > 0", _MAGNETIC,
        lambda f, spec, geom, exps, flux: grushin.verify_uncertainty_grushin(
            geom, exps, flux, f, spec, variant="uncer21"),
        _magnetic("uncertainty_ab", lambda geom, exps: _rotated_kind(geom, exps, "corollary"),
                  root=True)),
    "landau_hardy_sobolev": Statement(
        "theta1^2", "theta1 != 0", (*_LANDAU, "theta1"), _landau("hardy_sobolev"),
        _power_weight, "inverse_power", ("theta1",), lambda theta1: {"theta1": theta1}),
    "landau_log": Statement(
        "1/4", "support inside the closed unit disc", _LANDAU, _landau("log"),
        lambda psi, radius, params=None: 0.25, "log_power"),
    "landau_poincare": Statement(
        "1/R^2", "bounded ball of radius R containing the support", _LANDAU,
        _landau("poincare"), _ball),
    "landau_superweight": Statement(
        "(t2*t3 - 2*t4)/2", "a, b > 0, t2*t3 < 0, 2*t4 <= t2*t3",
        (*_LANDAU, "superweight"), _landau("superweight"), _superweight,
        "power", ("superweight",), lambda superweight: superweight),
    "radial_p_weighted": Statement(
        "|p/(Q - theta*p)|", "p > 1, theta*p != Q; radial f", ("Q", "p", "theta"),
        _radial_p("weighted", lambda theta: {"theta": theta}), _weighted),
    "radial_p_log": Statement("p", "p > 1; radial f", ("Q", "p"), _radial_p("log"),
                              lambda Q, p: p),
    "radial_p_poincare": Statement(
        "R*p/Q", "p > 1, support inside [0, R]; radial f", ("Q", "p", "R"),
        _radial_p("poincare", lambda R: {"R": R}), lambda Q, p, R: R * p / Q),
    "radial_p_superweight": Statement(
        "(Q - p*t4 + t2*t3 - p)/p",
        "p > 1, a, b > 0, t2*t3 < 0, p*t4 - t2*t3 <= Q - p; radial f",
        ("Q", "p", "superweight"), _radial_p("superweight", lambda superweight: superweight),
        _composite),
    "real_landau_hardy": Statement(
        "(n-1)^2", "n >= 1; real f (radial for n >= 2)", ("n", "domain"),
        _real_landau("hardy"), lambda n, radius, R=None: float((n - 1) ** 2)),
    "real_landau_critical": Statement(
        "1/4", "n = 1, R >= e * sup|z| over the domain; real f",
        ("n", "domain", "R"), _real_landau("critical"), lambda n, radius, R: 0.25),
    "real_landau_uncertainty": Statement(
        "1 (norm product vs pointwise bound)",
        "n >= 1; real f; R as in real_landau_critical when n = 1",
        ("n", "domain", "R"), _real_landau("uncertainty"), lambda n, radius, R: 1.0),
    "constant_field": Statement(
        "(n(2+g)+a1-2)/2 as printed; squared reading also evaluated",
        "m = k = n, n(2+g)+a1-2 > 0, n+a2*g > 0; real radial f",
        (*_GRUSHIN, "potentials"),
        lambda f, spec, geom, exps, pots: grushin.verify_constant_field(geom, exps, pots, f, spec),
        _constant_field),
    "grushin_ibp": Statement(
        None, "shifted-gradient expansion of the anisotropic Dirichlet form",
        (*_GRUSHIN, "alpha"),
        lambda f, spec, geom, exps, alpha: grushin.check_grushin_ibp_identity(
            geom, exps, f, alpha, spec)),
    "twisted_polar": Statement(
        None, "polar split of the twisted Dirichlet integral over kappa", ("psi", "kappa"),
        lambda f, spec, psi, kappa: landau.check_twisted_polar_identity(psi, kappa, f, spec)),
    "real_landau_identity": Statement(
        None, "Dirichlet + harmonic-potential split on the plane", ("n",),
        _real_landau("identity")),
}

# theorem id -> the trial family its sharpness engine takes
FAMILY_FOR = {tid: check.family for tid, check in CHECKS.items() if check.family}


def list_theorems() -> str:
    """Stable text table of every checkable statement."""
    width = max(len(tid) for tid in CHECKS)
    lines = ["margin checks:"]
    for tid, check in CHECKS.items():
        if check.formula is not None:
            lines.append(f"  {tid:<{width}}  constant: {check.formula}")
            lines.append(f"  {'':<{width}}  requires: {check.text}")
    lines.append("identity checks:")
    for tid, check in CHECKS.items():
        if check.formula is None:
            lines.append(f"  {tid:<{width}}  {check.text}")
    return "\n".join(lines)
