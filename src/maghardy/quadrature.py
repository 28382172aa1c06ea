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
code path (uniform nodes, composite Simpson, no substitutions, no shared
integration helpers) used to certify values produced by the main engine.

Density protocol
----------------
A polar density is a callable density(r, y) -> at, called once per
integration with broadcastable grid arrays: r of shape (n_r, 1) and y of
shape (1, n_y_flat, k), whose trailing axis indexes the y components.  It
does the phi-independent work of its check there, once.  at(phi) then
yields, for one angular node phi (a float), every integrand of the check in
a fixed order, one array at a time; the engine reduces each as it arrives
and returns one integral per integrand.  Each integral is accumulated slice
by slice in phi order, so results are bit-stable across runs and do not
depend on how many integrands share the pass.  Radial densities
(integrate_radial) take a bare r array and return one array.

No (r, y) slice holds more than MAX_SLICE_NODES nodes: both engines refuse a
larger grid with a DomainError before building it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NonFiniteError

TWO_PI = 2.0 * math.pi

# Ceiling on the (r, y) nodes of one angular slice, checked before a grid is
# built: about 8.4 million nodes, 134 MB per complex grid array.  It admits
# the largest grids in use (a k = 2 identity check at n_r = 128, n_y = 40:
# 384 x 120^2 = 5.5 million nodes; the oracle k = 1 grid, 2403 x 163) and
# turns a request far past them (k = 4 at n_y = 64: 10^12 nodes) into a
# DomainError instead of a failed allocation.
MAX_SLICE_NODES = 1 << 23

# Simpson nodes of the radial oracle (oracle_integrate_radial).
ORACLE_N_RADIAL = 8001


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution knobs for the main engine.

    n_r radial nodes (per panel) under the log map, n_phi uniform angular
    nodes, n_y Gauss-Legendre nodes per y dimension.  `oracle` marks specs
    constructed for oracle cross-checks.
    """

    n_r: int = 256
    n_phi: int = 32
    n_y: int = 64
    oracle: bool = False

    def __post_init__(self):
        if self.n_r < 2 or self.n_phi < 1 or self.n_y < 1:
            raise DomainError("quadrature resolutions must be positive (n_r >= 2)")


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


def _require_slice_nodes(n_r: int, n_flat: int) -> None:
    """Refuse a slice of more than MAX_SLICE_NODES (r, y) nodes, before it is built."""
    nodes = n_r * n_flat
    if nodes > MAX_SLICE_NODES:
        raise DomainError(
            f"a slice of {n_r} radial x {n_flat} y nodes ({nodes}) exceeds the "
            f"ceiling of {MAX_SLICE_NODES} nodes; lower n_r, n_y or k")


def tensor_grid(spec: QuadratureSpec, domain: Domain):
    """(r, w_r, Y, w_y): the log-radial and y-box rules of the main engine.

    The slice size is checked against MAX_SLICE_NODES between the radial
    rule, which fixes the panel count, and the y tensor, the large one.
    """
    r_lo, r_hi = domain.radial_interval()
    r, w_r = log_radial_rule(r_lo, r_hi, spec.n_r, domain.r_breaks)
    _require_slice_nodes(r.size, (3 * spec.n_y) ** domain.k)  # 3 panels per y axis
    Y, w_y = y_box_rule(domain.y_box, spec.n_y)
    return r, w_r, Y, w_y


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise NonFiniteError("integrand evaluated to NaN or infinity at a quadrature node")


def integrate_polar(density: Callable, spec: QuadratureSpec, domain: Domain) -> list:
    """Integrals of every integrand of density over r dr dphi dy on the domain.

    density(r, y) runs once; the angular sum is an explicit loop over the
    n_phi trapezoid nodes, and each integrand is reduced as soon as it is
    yielded, so memory stays at O(n_r * n_y_flat) however many modes and
    integrands the check carries.  Returns one complex value per integrand.
    """
    r, w_r, Y, w_y = tensor_grid(spec, domain)
    phis, w_phi = phi_rule(spec.n_phi)

    base = (w_r * r)[:, None] * w_y[None, :]  # Jacobian r folded in
    at = density(r[:, None], Y[None, :, :])

    totals = []
    for phi in phis:
        for i, vals in enumerate(at(float(phi))):
            vals = np.broadcast_to(np.asarray(vals), base.shape)
            _check_finite(vals)
            if i == len(totals):
                totals.append(0.0 + 0.0j)
            totals[i] += np.sum(base * vals)
    return [complex(total * w_phi) for total in totals]


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
# Oracle: uniform grids, composite Simpson.  No integration code above this
# line is reused, on purpose; only the slice ceiling is shared.
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


def oracle_integrate(density: Callable, domain: Domain, resolution: tuple) -> list:
    """Brute-force check values for integrate_polar on the same domain.

    resolution = (n_r, n_phi, n_y): uniform composite Simpson nodes in plain
    r and in each y dimension, uniform midpoint in phi (exact for the
    trigonometric content).  density follows the integrate_polar protocol;
    returns one complex value per integrand.  Shares no code with the main
    engine.
    """
    n_r, n_phi, n_y = resolution
    r_lo, r_hi = domain.radial_interval()

    r, w_r = _simpson_rule(r_lo, r_hi, n_r)
    phis = (np.arange(int(n_phi)) + 0.5) * (TWO_PI / int(n_phi))
    w_phi = TWO_PI / int(n_phi)

    y_axes = [_simpson_rule(lo, hi, n_y) for (lo, hi) in domain.y_box]
    _require_slice_nodes(r.size, math.prod(ax.size for ax, _ in y_axes))
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

    base = (w_r * r)[:, None] * w_y[None, :]
    at = density(r[:, None], Y[None, :, :])

    totals = []
    for phi in phis:
        for i, vals in enumerate(at(float(phi))):
            vals = np.broadcast_to(np.asarray(vals), base.shape)
            if not np.all(np.isfinite(vals)):
                raise NonFiniteError("oracle integrand evaluated to NaN or infinity")
            if i == len(totals):
                totals.append(0.0 + 0.0j)
            totals[i] += np.sum(base * vals)
    return [complex(total * w_phi) for total in totals]


def oracle_integrate_radial(
    density: Callable,
    Q: float,
    w: float,
    r_lo: float,
    r_hi: float,
) -> float:
    """Uniform-grid check value for integrate_radial (plain r, no substitution)."""
    r, w_r = _simpson_rule(r_lo, r_hi, ORACLE_N_RADIAL)
    vals = np.asarray(density(r)) * r ** (Q - 1.0 - w)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteError("oracle integrand evaluated to NaN or infinity")
    return float(np.sum(w_r * vals))
