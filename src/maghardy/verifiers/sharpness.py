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
extremizing regime along a schedule of widths.  Each window is evaluated
only on its own three Gauss panels, split at its plateau breaks, which
`functions.plateau_rule` gives with the plateau bump on them: the panels
from `quadrature.gauss_panels`, whose reference rule is built once per node
count, and the bump from one table per node count, so no smoothstep runs
in a schedule.

Two kernels evaluate the quotients, with w the panel weights:

  * _power_quotient, base + sum(w G (v' - c v)^2) / sum(w G v^2).  The power
    weights (radial_hardy, magnetic_grushin, landau_hardy_sobolev) take
    the s^2/4 (+ beta^2) of their reduction as base and G = 1, c = 0, with
    no array pass spent on either; landau_superweight takes base 0, its
    composite weight G and its shift c.
  * _log_quotient, sum(w (v' - v/2)^2) / sum(w v v e^(-2 e^u)), for the
    logarithmic weight; its norm side keeps its own order of products.

A gauss window reads no cutoff and nothing of the run but its epsilon and
its centre: 0 for the power weights, and a function of epsilon for the
logarithmic weight and of epsilon and the sign of theta2 for the
superweight.  So on a one-chunk schedule _shared_gauss_window keeps it,
read-only, keyed by the epsilons and the centres, one entry per distinct
centre list, and each run evaluates its own kernel on it.  A
longer schedule computes its windows and keeps none, so memory stays
bounded, and a plain window's bounds read the cutoff, so the plain runs
compute every chunk.

Two window shapes are available: "gauss" (a Gaussian of scale 1/eps under
a wide plateau; quotients exceed the constant by about eps^2/2) and
"plain" (e^(eps u) on the family's own cutoff window, matching make_trial
exactly so full tensor quadrature can cross-check the reduction).  A
window returns the nodes u and weights w of its own panels with (v, v') on
them, and a quotient takes those four together.

The schedule runs in chunks of _CHUNK points, so memory stays bounded for
a schedule of any length.  A chunk's epsilons go to its window as one
column, so the window is evaluated once on the chunk's (points, nodes)
array, the plateau's derivative divided by each row's quarter width.
Every node sees the operations of a lone schedule point, and one reduction
along the last axis sums each contiguous row with the pairwise summation of
a lone row, so a point's quotient does not depend on the chunk it runs in.
A non-finite epsilon is a DomainError and a non-finite quotient a
NonFiniteError.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from functools import lru_cache, partial

import numpy as np

from ..errors import AdmissibilityError, DomainError, NonFiniteError, require_param
from ..functions import TrialFamily, plateau_rule
from ..reports import SharpnessResult
from ._grids import require_args
from .catalogue import CHECKS, FAMILY_FOR
from .grushin import _geom_params
from .landau import _theta1

__all__ = ["estimate_sharpness", "DEFAULT_SCHEDULE", "FAMILY_FOR"]

DEFAULT_SCHEDULE = (0.5, 0.2, 0.1, 0.05, 0.02)

_PANEL_N = 240
# Schedule points per chunk: a chunk's (points, 3 * _PANEL_N) node arrays
# hold 15,840 nodes, 124 KB per real array, so a quotient's temporaries stay
# in a 2 MB L2 cache however long the schedule.
_CHUNK = 22


def _gauss_window(eps, center):
    """Gaussian of scale 1/eps under a plateau of half-width 6/eps.

    eps and center are floats or columns of shape (n_rows, 1), one window per
    row, on panels of _PANEL_N nodes.  Returns the nodes u and weights w of
    the window's own panels and (v, v') on them.
    """
    U = 6.0 / eps
    u, w, p, dp = plateau_rule(center - U, center + U, _PANEL_N)
    g = np.exp(-0.5 * (eps * (u - center)) ** 2)
    return u, w, g * p, g * (dp - eps * eps * (u - center) * p)


def _plain_window(eps, u_lo: float, u_hi: float):
    """e^(eps u) on the plateau window [u_lo, u_hi] — the make_trial shape.

    eps is a float or a column of shape (n, 1), one window per row.  Returns
    the nodes u and weights w of the window's own panels and (v, v') on them.
    """
    u, w, p, dp = plateau_rule(u_lo, u_hi, _PANEL_N)
    e = np.exp(eps * u)
    return u, w, e * p, e * (eps * p + dp)


def _power_quotient(base: float, window, G=None, c: float = 0.0) -> np.ndarray:
    """base + sum(w G (v' - c v)^2) / sum(w G v^2); G = 1 and c = 0 unless G is given."""
    u, w, v, d = window
    if G is not None:
        w, d = w * G(u), d - c * v
    return base + np.add.reduce(w * d**2, axis=-1) / np.add.reduce(w * v**2, axis=-1)


def _log_quotient(window) -> np.ndarray:
    # w is log(-log r); the plane measure contributes exp(-2 e^w) on the
    # norm side, which is what confines the sharp regime to the unit disc.
    u, w, v, d = window
    num = np.add.reduce(w * (d - 0.5 * v) ** 2, axis=-1)
    den = np.add.reduce(w * v * v * np.exp(-2.0 * np.exp(u)), axis=-1)
    return num / den


# a pass over the five engines on one schedule has at most four centre
# lists: 0, the logarithmic weight's, and the superweight's at each sign
@lru_cache(maxsize=4)
def _shared_gauss_window(eps: tuple, centers: tuple) -> tuple:
    """The gauss window of a one-chunk schedule, read-only.

    It reads nothing but the epsilons and the centres, so every run on the
    schedule with those centres shares it.  A longer
    schedule would evict its own chunks before it came back to them, so it
    computes its windows and keeps none.
    """
    win = _gauss_window(np.array(eps)[:, None], np.array(centers)[:, None])
    for a in win:
        a.flags.writeable = False
    return win


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
    schedule = DEFAULT_SCHEDULE if schedule is None else tuple([
        require_param(theorem_id, "schedule", e)
        for e in require_param(theorem_id, "schedule", schedule, Iterable)])
    if not (schedule and min(schedule) > 0.0):   # every epsilon is finite here
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
        geom, exps = given.get("geom"), given.get("exps")
        require_args(theorem_id, geom=geom, exps=exps)
        run_params.update(_geom_params(geom, exps))
        if theorem_id == "magnetic_grushin":
            flux = given.get("flux")
            require_args(theorem_id, flux=flux)
            sharp = constant(geom, exps, flux)
            beta = run_params["beta"] = flux.beta
        else:
            sharp, beta = constant(geom, exps), 0.0
        # trials rho^(-s/2) v(log rho), s = Q + a1 - 2, whose admissibility
        # the record's constant has checked: (s/2)^2, plus beta^2 from the field
        s_hom = geom.hom_dim + exps.alpha1 - 2.0
        quotient = partial(_power_quotient, (0.5 * s_hom) ** 2 + beta * beta)
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
            if window == "plain":
                win = _plain_window(tilt * e, *bounds)
            elif len(schedule) > _CHUNK:
                win = _gauss_window(e, center(e))
            else:
                win = _shared_gauss_window(schedule, tuple(map(center, schedule)))
            quotients += quotient(win).tolist()
    for e, q in zip(schedule, quotients):
        if not math.isfinite(q):
            raise NonFiniteError(f"{theorem_id}: the {window} window at "
                                 f"epsilon {e!r} gives the quotient {q!r}")
    return SharpnessResult(theorem_id, list(zip(schedule, quotients)), sharp,
                           run_params)
