"""Deterministic tensor quadrature over annulus x y-box domains, plus an oracle.

Main engine
-----------
All 2+k dimensional integrals use polar-cylindrical coordinates (r, phi, y)
with Jacobian r dr dphi dy:

  * r: Gauss-Legendre after the substitution u = log r, so wide power-law
    supports are resolved with uniform effort per decade;
  * phi: uniform trapezoid on [0, 2pi) — exact for trigonometric polynomials
    of degree < n_phi/2;
  * y: tensor Gauss-Legendre per dimension on the support box.

Each reference Gauss-Legendre rule on [-1, 1] is built once per node count
and cached read-only; every panel rule here and in the sharpness engine is an
affine image of it (`gauss_legendre`, `gauss_panels`).

General m >= 2 never needs angular quadrature in x here: every integrand the
verifiers produce for that case is radial in x, and the sphere factor is the
closed-form area of S^(m-1).

Oracle
------
`oracle_integrate` / `oracle_integrate_radial` are a deliberately separate
code path (uniform nodes, composite Simpson or midpoint, no substitutions, no
shared helpers) used to certify values produced by the main engine.

Densities are callables density(r, phi, y) -> array, evaluated with
broadcastable arrays: r of shape (n_r, 1), phi a float, y of shape
(1, n_y_flat, k) whose trailing axis indexes the y components.  Radial
densities take a bare r array.  Evaluation order is fixed, so results are
bit-stable across runs.

A density runs once per phi slice, on the same r and y arrays every time.
Factors that do not depend on phi (profile factors, the weights B, w, rho)
are computed once per grid through `GridMemo` and reused across the slices
and across the integrals of a check, which build equal grids.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NonFiniteError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution knobs for the main engine.

    n_r radial nodes (per panel) under the log map, n_phi uniform angular
    nodes, n_y Gauss-Legendre nodes per y dimension.  `oracle` marks specs
    constructed for oracle cross-checks.
    """

    n_r: int = 256
    r_map: str = "log"
    n_phi: int = 32
    n_y: int = 64
    oracle: bool = False

    def __post_init__(self):
        if self.n_r < 2 or self.n_phi < 1 or self.n_y < 1:
            raise DomainError("quadrature resolutions must be positive (n_r >= 2)")
        if self.r_map != "log":
            raise DomainError(f"unsupported r_map {self.r_map!r}")


@dataclass(frozen=True)
class Domain:
    """Integration region: an annulus [r_lo, r_hi] times a y-box.

    kind "support" integrates over the test function's own support;
    kind "ball" additionally clips the radius at R_Omega (bounded domains of
    Poincare-type statements, where R = sup |z| over the domain is recorded).
    `r_breaks` lists interior radii where the integrand is only piecewise
    smooth (e.g. plateau-bump edges); panels split there.
    """

    r_lo: float
    r_hi: float
    y_box: tuple = ()
    kind: str = "support"
    R_Omega: float | None = None
    r_breaks: tuple = field(default=())

    def __post_init__(self):
        if not (0.0 < self.r_lo < self.r_hi) or not math.isfinite(self.r_hi):
            raise DomainError(f"need 0 < r_lo < r_hi, got [{self.r_lo}, {self.r_hi}]")
        if self.kind not in ("support", "ball"):
            raise DomainError(f"unknown domain kind {self.kind!r}")
        if self.kind == "ball":
            if self.R_Omega is None or self.R_Omega <= 0.0:
                raise DomainError("ball domain needs a positive R_Omega")
        for lo, hi in self.y_box:
            if not (lo < hi):
                raise DomainError(f"bad y-box interval ({lo}, {hi})")
        object.__setattr__(self, "y_box", tuple((float(a), float(b)) for a, b in self.y_box))
        object.__setattr__(self, "r_breaks", tuple(float(b) for b in self.r_breaks))

    @property
    def k(self) -> int:
        return len(self.y_box)

    def radial_interval(self) -> tuple:
        hi = self.r_hi if self.kind == "support" else min(self.r_hi, float(self.R_Omega))
        if hi <= self.r_lo:
            raise DomainError("domain clips to an empty radial interval")
        return self.r_lo, hi


@functools.lru_cache(maxsize=64)
def _reference_rule(n: int):
    """Read-only Gauss-Legendre nodes/weights on [-1, 1], built once per n."""
    t, w = np.polynomial.legendre.leggauss(n)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def gauss_legendre(a: float, b: float, n: int):
    """Gauss-Legendre nodes/weights on [a, b]."""
    t, w = _reference_rule(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * t, half * w


def gauss_panels(edges: Sequence[float], n: int):
    """n-node Gauss-Legendre nodes/weights over panels [e0,e1], [e1,e2], ..."""
    ts, ws = zip(*(gauss_legendre(a, b, n) for a, b in zip(edges[:-1], edges[1:])))
    return np.concatenate(ts), np.concatenate(ws)


def log_radial_rule(r_lo: float, r_hi: float, n_r: int, breaks: Sequence[float] = ()):
    """Nodes/weights for integral dr on [r_lo, r_hi] via u = log r panels.

    Returns (r_nodes, weights) with the Jacobian of the substitution folded in,
    so sum(w * f(r)) approximates the plain dr integral.  Interior breakpoints
    split the log interval into separate Gauss panels.
    """
    us = [math.log(r_lo)] + sorted(
        math.log(b) for b in breaks if r_lo < b < r_hi
    ) + [math.log(r_hi)]
    u, w = gauss_panels(us, n_r)
    r = np.exp(u)
    return r, w * r  # dr = r du


def phi_rule(n_phi: int):
    """Uniform trapezoid nodes/weight on the periodic circle [0, 2pi)."""
    return np.arange(n_phi) * (TWO_PI / n_phi), TWO_PI / n_phi


def y_box_rule(y_box, n_y: int):
    """Tensor Gauss-Legendre nodes on the y-box, panelled like the radial rule.

    Every y factor rolls off over the outer quarter-widths of its box, so each
    component is split into [lo, lo+q], [lo+q, hi-q], [hi-q, hi] panels
    (q = width/4) with n_y nodes per panel.  Returns (Y, w_y): Y of shape
    (n_flat, k) and flat weights of shape (n_flat,).  For k = 0 this is a
    single node with weight 1.
    """
    if not y_box:
        return np.zeros((1, 0)), np.ones(1)
    axes, weights = [], []
    for lo, hi in y_box:
        q = 0.25 * (hi - lo)
        t, w = gauss_panels((lo, lo + q, hi - q, hi), n_y)
        axes.append(t)
        weights.append(w)
    grids = np.meshgrid(*axes, indexing="ij")
    Y = np.stack([g.reshape(-1) for g in grids], axis=-1)
    W = weights[0]
    for w in weights[1:]:
        W = np.multiply.outer(W, w)
    return Y, W.reshape(-1)


class GridMemo:
    """compute(r, y) for the last (r, y) grid seen, keyed by the grid's values.

    The key holds copies of r and y, so a grid changed in place after a call
    is a miss, never a stale hit.  The entry is one tuple, replaced whole.
    """

    __slots__ = ("_entry",)

    def __init__(self):
        self._entry = None

    def __call__(self, r, y, compute):
        entry = self._entry
        if (entry is not None and np.array_equal(entry[0], r)
                and np.array_equal(entry[1], y)):
            return entry[2]
        out = compute(r, y)
        self._entry = (np.array(r), np.array(y), out)
        return out


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise NonFiniteError("integrand evaluated to NaN or infinity at a quadrature node")


def integrate_polar(density: Callable, spec: QuadratureSpec, domain: Domain) -> complex:
    """Integrate density(r, phi, y) * r dr dphi dy over the domain.

    The angular sum runs as an explicit loop over the n_phi trapezoid nodes so
    memory stays at O(n_r * n_y_flat) however many modes the density carries.
    """
    r_lo, r_hi = domain.radial_interval()
    r, w_r = log_radial_rule(r_lo, r_hi, spec.n_r, domain.r_breaks)
    phis, w_phi = phi_rule(spec.n_phi)
    Y, w_y = y_box_rule(domain.y_box, spec.n_y)

    r_col = r[:, None]
    y_arg = Y[None, :, :]
    base = (w_r * r)[:, None] * w_y[None, :]  # Jacobian r folded in

    total = 0.0 + 0.0j
    for phi in phis:
        vals = np.asarray(density(r_col, float(phi), y_arg))
        vals = np.broadcast_to(vals, base.shape)
        _check_finite(vals)
        total += np.sum(base * vals)
    out = total * w_phi
    return complex(out)


def integrate_radial(
    density: Callable,
    Q: float,
    w: float,
    spec: QuadratureSpec,
    r_lo: float,
    r_hi: float,
    breaks: Sequence[float] = (),
) -> float:
    """Integral of density(r) * r^(Q-1-w) dr on [r_lo, r_hi], log-substituted.

    This is the radial reduction with homogeneous dimension Q and weight power
    w; density carries everything else.
    """
    if not (0.0 < r_lo < r_hi):
        raise DomainError(f"need 0 < r_lo < r_hi, got [{r_lo}, {r_hi}]")
    r, w_r = log_radial_rule(r_lo, r_hi, spec.n_r, breaks)
    vals = np.asarray(density(r)) * r ** (Q - 1.0 - w)
    _check_finite(vals)
    return float(np.sum(w_r * vals))


# ---------------------------------------------------------------------------
# Oracle: uniform grids, composite Simpson (default) or midpoint.  No code
# above this line is reused, on purpose.
# ---------------------------------------------------------------------------

def _simpson_rule(a, b, n):
    # n panels -> n+1 nodes, n forced even
    n = int(n)
    if n % 2:
        n += 1
    x = np.linspace(a, b, n + 1)
    h = (b - a) / n
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return x, w * (h / 3.0)


def _midpoint_rule(a, b, n):
    n = int(n)
    h = (b - a) / n
    x = a + (np.arange(n) + 0.5) * h
    return x, np.full(n, h)


_ORACLE_RULES = {"simpson": _simpson_rule, "midpoint": _midpoint_rule}


def oracle_integrate(
    density: Callable,
    domain: Domain,
    resolution: tuple,
    rule: str = "simpson",
) -> complex:
    """Brute-force check value for integrate_polar on the same domain.

    resolution = (n_r, n_phi, n_y): uniform nodes in plain r and in each y
    dimension with the chosen composite rule, uniform midpoint in phi (exact
    for the trigonometric content).  Shares no code with the main engine.
    """
    if rule not in _ORACLE_RULES:
        raise DomainError(f"unknown oracle rule {rule!r}")
    rule_1d = _ORACLE_RULES[rule]
    n_r, n_phi, n_y = resolution
    r_lo, r_hi = domain.radial_interval()

    r, w_r = rule_1d(r_lo, r_hi, n_r)
    phis = (np.arange(int(n_phi)) + 0.5) * (TWO_PI / int(n_phi))
    w_phi = TWO_PI / int(n_phi)

    y_axes = [rule_1d(lo, hi, n_y) for (lo, hi) in domain.y_box]
    if y_axes:
        grids = np.meshgrid(*[ax for ax, _ in y_axes], indexing="ij")
        Y = np.stack([g.reshape(-1) for g in grids], axis=-1)
        W = y_axes[0][1]
        for _, w in y_axes[1:]:
            W = np.multiply.outer(W, w)
        w_y = W.reshape(-1)
    else:
        Y = np.zeros((1, 0))
        w_y = np.ones(1)

    r_col = r[:, None]
    y_arg = Y[None, :, :]
    base = (w_r * r)[:, None] * w_y[None, :]

    total = 0.0 + 0.0j
    for phi in phis:
        vals = np.asarray(density(r_col, float(phi), y_arg))
        vals = np.broadcast_to(vals, base.shape)
        if not np.all(np.isfinite(vals)):
            raise NonFiniteError("oracle integrand evaluated to NaN or infinity")
        total += np.sum(base * vals)
    return complex(total * w_phi)


def oracle_integrate_radial(
    density: Callable,
    Q: float,
    w: float,
    r_lo: float,
    r_hi: float,
    n: int = 4001,
    rule: str = "simpson",
) -> float:
    """Uniform-grid check value for integrate_radial (plain r, no substitution)."""
    if rule not in _ORACLE_RULES:
        raise DomainError(f"unknown oracle rule {rule!r}")
    r, w_r = _ORACLE_RULES[rule](r_lo, r_hi, n)
    vals = np.asarray(density(r)) * r ** (Q - 1.0 - w)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteError("oracle integrand evaluated to NaN or infinity")
    return float(np.sum(w_r * vals))

