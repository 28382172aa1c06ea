"""Rayleigh-quotient sharpness estimation for the Hardy-type constants.

Each supported constant admits a one-dimensional reduced quotient in a
logarithmic variable: substituting f = t^(-s/2) v(log t) into the radial
energy turns the weighted Dirichlet/norm pair into

    quotient = s^2/4 + integral(v'^2) / integral(v^2)

exactly (the cross term integrates to zero over compact supports), and the
analogous substitutions handle the logarithmic and composite weights.  The
sharp constant the quotients approach comes from the theorem's catalogue
record, never from the reduction, so a wrong constant shows as a gap.  The
engine evaluates these reduced functionals by panelled Gauss-Legendre
quadrature for a window family v and drives the window toward the
extremizing regime along a schedule of widths.  The panels come from
`quadrature.gauss_panels`, whose reference rule is built once per node count.

Two kernels evaluate the quotients, with w the panel weights:

  * _power_quotient, base + sum(w G (v' - c v)^2) / sum(w G v^2).  The power
    weights (radial_hardy, magnetic_grushin, landau_hardy_sobolev) take
    the s^2/4 (+ beta^2) of their reduction as base and G = 1, c = 0, with
    no array pass spent on either; landau_superweight takes base 0, its
    composite weight G and its shift c.
  * _log_quotient, sum(w (v' - v/2)^2) / sum(w v v e^(-2 e^u)), for the
    logarithmic weight; its norm side keeps its own order of products.

Two window shapes are available: "gauss" (a Gaussian of scale 1/eps under
a wide plateau; quotients exceed the constant by about eps^2/2) and
"plain" (e^(eps u) on the family's own cutoff window, matching make_trial
exactly so full tensor quadrature can cross-check the reduction).  Each
window is a closure both(u) -> (v, v') with its panel edges.

The schedule runs in chunks of _CHUNK points, the most whose
(points, 3 * _PANEL_N) node arrays hold at most quadrature.BLOCK_NODES
nodes, so memory stays bounded for a schedule of any length.  A chunk's
epsilons go to its window as one column, so a quotient calls both once on
the chunk's (points, nodes) array, evaluating the plateau's two smoothstep
edges once per chunk, value and derivative together.  Every node sees the
operations of a lone schedule point and each row is summed on its own, so a
point's quotient does not depend on the chunk it runs in.  A non-finite
epsilon is a DomainError and a non-finite quotient a NonFiniteError.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from functools import partial

import numpy as np

from ..errors import AdmissibilityError, DomainError, NonFiniteError, require_param
from ..functions import TrialFamily, _plateau, plateau_breaks
from ..quadrature import BLOCK_NODES, gauss_panels
from ..reports import SharpnessResult
from ._grids import require_args
from .catalogue import CHECKS, FAMILY_FOR
from .grushin import _first_kind, _geom_params
from .landau import _theta1

__all__ = ["estimate_sharpness", "DEFAULT_SCHEDULE", "FAMILY_FOR"]

DEFAULT_SCHEDULE = (0.5, 0.2, 0.1, 0.05, 0.02)

_PANEL_N = 240
_CHUNK = max(1, BLOCK_NODES // (3 * _PANEL_N))


def _gauss_window(eps, center):
    """Gaussian of scale 1/eps under a plateau of half-width 6/eps.

    eps and center are floats or columns of shape (n, 1), one window per row.
    """
    U = 6.0 / eps
    lo, hi = center - U, center + U
    b1, b2 = plateau_breaks(lo, hi)

    def both(u):
        g = np.exp(-0.5 * (eps * (u - center)) ** 2)
        p, dp = _plateau(u, lo, hi)
        return g * p, g * (dp - eps * eps * (u - center) * p)

    return both, (lo, b1, b2, hi)


def _plain_window(eps, u_lo: float, u_hi: float):
    """e^(eps u) on the plateau window [u_lo, u_hi] — the make_trial shape.

    eps is a float or a column of shape (n, 1), one window per row.
    """
    b1, b2 = plateau_breaks(u_lo, u_hi)

    def both(u):
        e = np.exp(eps * u)
        p, dp = _plateau(u, u_lo, u_hi)
        return e * p, e * (eps * p + dp)

    return both, (u_lo, b1, b2, u_hi)


def _row_sums(a) -> np.ndarray:
    """Each row of a summed on its own, the 1-D sum of a lone point.

    np.add.reduce is the reduction np.sum runs, without its wrapper.
    """
    return np.array([np.add.reduce(row) for row in a])


def _power_quotient(base: float, both, edges, G=None, c: float = 0.0) -> np.ndarray:
    """base + sum(w G (v' - c v)^2) / sum(w G v^2); G = 1 and c = 0 unless G is given."""
    u, w = gauss_panels(edges, _PANEL_N)
    v, d = both(u)
    if G is not None:
        w, d = w * G(u), d - c * v
    return base + _row_sums(w * d**2) / _row_sums(w * v**2)


def _log_quotient(both, edges) -> np.ndarray:
    # w is log(-log r); the plane measure contributes exp(-2 e^w) on the
    # norm side, which is what confines the sharp regime to the unit disc.
    u, w = gauss_panels(edges, _PANEL_N)
    v, d = both(u)
    num = _row_sums(w * (d - 0.5 * v) ** 2)
    den = _row_sums(w * v * v * np.exp(-2.0 * np.exp(u)))
    return num / den


def estimate_sharpness(theorem_id: str, params, family: TrialFamily,
                       schedule=None, window: str = "gauss") -> SharpnessResult:
    """Drive a trial-family quotient toward a constant; report the schedule.

    params carries the constant's data: {"geom", "exps"} (plus "flux" for
    the magnetic case), {"theta1": ...} for the power-weight twisted bound,
    nothing for the logarithmic one, a SuperweightParams for the composite
    weights.  Of the family it reads only base and cutoff; the schedule
    supplies the epsilons.  window="gauss" uses near-extremal windows;
    window="plain" evaluates the exact make_trial shape on family.cutoff so
    the reduced quotient can be checked against full quadrature.
    """
    want = FAMILY_FOR.get(theorem_id)
    if want is None:
        raise AdmissibilityError(f"no sharpness engine for {theorem_id!r}")
    if require_param(theorem_id, "family", family, TrialFamily).base != want:
        raise AdmissibilityError(
            f"{theorem_id} takes the {want} trial family, not {family.base}")
    if window not in ("gauss", "plain"):
        raise DomainError(f"unknown window {window!r}")
    schedule = DEFAULT_SCHEDULE if schedule is None else tuple(
        require_param(theorem_id, "schedule", e)
        for e in require_param(theorem_id, "schedule", schedule, Iterable))
    if not schedule or not all(e > 0.0 for e in schedule):
        raise DomainError("schedule must be finite positive epsilons")

    run_params: dict = {"window": window, "family": family.base}
    lo, hi = family.cutoff
    # each engine takes its constant from its record (the Landau constants
    # read no potential and no ball here) and sets its quotient, from its own
    # reduction, the centre of its gauss window and the tilt and bounds of
    # its plain window (in its own variable)
    constant = CHECKS[theorem_id].constant
    center = lambda eps: 0.0
    tilt = 1.0
    bounds = (math.log(lo), math.log(hi))
    given = params if isinstance(params, dict) else {}

    if theorem_id in ("radial_hardy", "magnetic_grushin"):
        geom, exps, flux = given.get("geom"), given.get("exps"), given.get("flux")
        require_args(theorem_id, geom=geom, exps=exps)
        run_params.update(_geom_params(geom, exps))
        if theorem_id == "magnetic_grushin":
            sharp = constant(geom, exps, flux)
            beta = run_params["beta"] = flux.beta
        else:
            sharp, beta = constant(geom, exps), 0.0
        # trials rho^(-s/2) v(log rho): (s/2)^2, plus beta^2 from the field
        quotient = partial(_power_quotient, (0.5 * _first_kind(geom, exps)) ** 2 + beta * beta)
    elif theorem_id == "landau_hardy_sobolev":
        t1 = _theta1(given.get("theta1"))
        sharp = constant(None, None, t1)
        run_params["theta1"] = t1
        quotient = partial(_power_quotient, t1 * t1)
        tilt = -1.0   # trials r^(theta1 - eps) tilt the reduced window by -eps
    elif theorem_id == "landau_log":
        sharp, quotient = constant(None, None), _log_quotient
        center = lambda eps: -(6.0 / eps + (2.0 + 0.08 / eps))
        if window == "plain":
            if not (0.0 < lo < hi < 1.0):
                raise AdmissibilityError(
                    "logarithmic trials live inside the unit disc")
            bounds = (math.log(-math.log(hi)), math.log(-math.log(lo)))
    else:   # landau_superweight
        # the record's constant is the c its verifier applies; the engine
        # reads c^2.  ROADMAP item 1 settles which reading holds, in one
        # change with perfbench/reference/margins.json, which pins c.
        c = constant(None, None, params)
        sharp = c * c
        run_params.update(weights=params.to_dict(), constant_reading="squared")
        log_a, log_b = math.log(params.a), math.log(params.b)
        t2, t3 = params.theta2, params.theta3
        # G = (a e^(-theta2 u) + b)^theta3 without overflowing the inner power
        G = lambda u: np.exp(t3 * np.logaddexp(log_a - t2 * u, log_b))
        shift = 0.5 * (t2 * t3 - 2.0 * params.theta4)
        quotient = partial(_power_quotient, 0.0, G=G, c=shift)
        if params.theta2 < 0.0:
            center = lambda eps: math.log(0.05) - 6.0 / eps   # push toward the origin
        else:
            center = lambda eps: math.log(20.0) + 6.0 / eps   # push toward infinity

    eps = np.array(schedule)[:, None]
    quotients = []
    with np.errstate(all="ignore"):   # a window that overflows is checked below
        for i in range(0, len(schedule), _CHUNK):
            e = eps[i:i + _CHUNK]
            win = (_gauss_window(e, center(e)) if window == "gauss"
                   else _plain_window(tilt * e, *bounds))
            quotients += quotient(*win).tolist()
    for e, q in zip(schedule, quotients):
        if not math.isfinite(q):
            raise NonFiniteError(f"{theorem_id}: the {window} window at "
                                 f"epsilon {e!r} gives the quotient {q!r}")
    return SharpnessResult(theorem_id, list(zip(schedule, quotients)), sharp,
                           run_params)
