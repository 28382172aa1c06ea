"""Deterministic tensor quadrature over annulus x y-box domains, plus an oracle.

Main engine
-----------
All 2+k dimensional integrals run over their domain as given, never clipped,
in polar-cylindrical coordinates (r, phi, y) with Jacobian r dr dphi dy:

  * r: Gauss-Legendre after the substitution u = log r, so wide power-law
    supports are resolved with uniform effort per decade;
  * phi: uniform trapezoid on [0, 2pi) — exact for trigonometric polynomials
    of degree < n_phi/2;
  * y: tensor Gauss-Legendre per dimension on the support box.

Each reference Gauss-Legendre rule on [-1, 1] is built once per node count
and cached read-only; every panel rule here and in the sharpness engine is an
affine image of it (`gauss_legendre`, `gauss_panels`).

integrate_radial is the phi = 0 case of integrate_polar: one angular node of
weight 1 over r^power dr dy (on k = 0 a plain radial integral); both run one
tensor pass (_tensor_sums).  General m >= 2 never needs angular quadrature
in x here: every integrand the verifiers produce for that case is radial in
x, and the sphere factor is the closed-form area of S^(m-1).

Oracle
------
`oracle_integrate` is a deliberately separate code path (uniform nodes,
composite Simpson, no substitutions, no shared integration helpers) used to
certify values produced by the main engine.

Density protocol
----------------
integrate_polar, integrate_radial and the oracle take one kind of density: a
callable density(r, y) -> at, called once per row block of the grid with
broadcastable arrays: r of shape (n_rows, 1), a run of consecutive radial
nodes, and y of shape (1, n_y_flat, k), whose trailing axis indexes the y
components.  It does the phi-independent work of its check there, once per
block.  at(phi) then yields every integrand of the check on that block in a
fixed order, one array at a time, for phi either a float (one angular node,
as the oracle passes it) or a column of angular nodes of shape (n_c, 1, 1),
as the main engine passes it; on a column each integrand carries that
leading axis (or broadcasts against it).  A grid of at most BLOCK_NODES
nodes is one block; a larger one is cut into blocks of at most BLOCK_NODES
nodes (or one radial row), and each integrand is gathered into one
full-grid array per slice (row_blocks).  The angular nodes go to at in
tiles of at most BLOCK_NODES (phi, r, y) nodes (reduce_slices), so a
single-block grid runs several nodes per call and a grid of several blocks
one.  Every density must be elementwise per node, so a node's value depends
neither on the block nor on the tile it sits in.  The engine reduces each
integrand over the full grid, slice by slice in phi order, and returns one
integral per integrand, so results are bit-stable across runs and do not
depend on how many integrands share the pass or how the grid is blocked and
tiled.

No (r, y) slice holds more than MAX_SLICE_NODES nodes: the main engine and
the oracle refuse a larger grid with a DomainError before building it.
That ceiling bounds the full-grid arrays (the reduction weights and one
array per integrand); the temporaries a density forms on each block and
tile are bounded by BLOCK_NODES.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import AdmissibilityError, DomainError, NonFiniteError, require_param

TWO_PI = 2.0 * math.pi

# Ceiling on the (r, y) nodes of one angular slice, checked before a grid is
# built: about 8.4 million nodes, 134 MB per complex grid array.  It admits
# the largest grids in use (a k = 2 identity check at n_r = 128, n_y = 40:
# 384 x 120^2 = 5.5 million nodes; the oracle k = 1 grid, 2403 x 163) and
# turns a request far past them (k = 4 at n_y = 64: 10^12 nodes) into a
# DomainError instead of a failed allocation.
MAX_SLICE_NODES = 1 << 23

# Nodes of one row block (row_blocks) and of one tile of angular nodes on it
# (reduce_slices): the temporaries of a block or tile, 128 KB per real
# array, stay in a 2 MB L2 cache and are reused from the heap instead of
# streaming full-grid arrays through the allocator.  2^13 and 2^14 measured
# fastest of 2^12 to 2^16 on a k = 2 ab_hardy check (144 x 1296 nodes) on a
# 2-core Xeon.
BLOCK_NODES = 1 << 14

# Ceiling on n_r, n_phi and n_y, checked on construction: leggauss builds an
# n x n companion matrix for an n-node rule (20 GB at n = 50000).
MAX_AXIS_NODES = 4096


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
        for name, least in (("n_r", 2), ("n_phi", 1), ("n_y", 1)):
            n = require_param("the quadrature", name, getattr(self, name), numbers.Integral)
            if not least <= n <= MAX_AXIS_NODES:
                raise DomainError(f"{name} must be {least} to {MAX_AXIS_NODES}, got {n}")
        if not isinstance(self.oracle, bool):   # a truthy string would run the oracle
            raise AdmissibilityError(f"the quadrature needs oracle true or false, "
                                     f"got {self.oracle!r}")


@dataclass(frozen=True)
class Domain:
    """Integration region: an annulus [r_lo, r_hi] times a y-box.

    Both engines cover [r_lo, r_hi] as given, normally the support hull of the
    integrand.  `r_breaks` lists interior radii where the integrand is only
    piecewise smooth (e.g. plateau-bump edges); panels split there.
    """

    r_lo: float
    r_hi: float
    y_box: tuple = ()
    r_breaks: tuple = field(default=())

    def __post_init__(self):
        if not (0.0 < self.r_lo < self.r_hi) or not math.isfinite(self.r_hi):
            raise DomainError(f"need 0 < r_lo < r_hi, got [{self.r_lo}, {self.r_hi}]")
        for lo, hi in self.y_box:
            if not (lo < hi):
                raise DomainError(f"bad y-box interval ({lo}, {hi})")
        object.__setattr__(self, "y_box", tuple((float(a), float(b)) for a, b in self.y_box))
        object.__setattr__(self, "r_breaks", tuple(float(b) for b in self.r_breaks))

    @property
    def k(self) -> int:
        return len(self.y_box)


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


def gauss_panels(edges: Sequence, n: int):
    """n-node Gauss-Legendre nodes/weights over panels [e0,e1], [e1,e2], ...

    Edges are floats, giving nodes and weights of shape (panels*n,), or
    columns of shape (n_rows, 1), one panel set per row, giving shape
    (n_rows, panels*n); each row is bitwise the rule of its own float edges.
    """
    ts, ws = zip(*(gauss_legendre(a, b, n) for a, b in zip(edges[:-1], edges[1:])))
    return np.concatenate(ts, axis=-1), np.concatenate(ws, axis=-1)


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
    r, w_r = log_radial_rule(domain.r_lo, domain.r_hi, spec.n_r, domain.r_breaks)
    _require_slice_nodes(r.size, (3 * spec.n_y) ** domain.k)  # 3 panels per y axis
    Y, w_y = y_box_rule(domain.y_box, spec.n_y)
    return r, w_r, Y, w_y


def _check_finite(values) -> None:
    """Raise NonFiniteError unless every entry of values is finite."""
    if not np.isfinite(values).all():
        raise NonFiniteError("an integrand or its weighted sum is NaN or infinite")


def reduce_slices(at: Callable, base: np.ndarray, phis) -> list:
    """Per integrand that at yields, the sum of base * integrand over phis.

    The angular nodes reach at in tiles: columns of shape (n_c, 1, 1) with
    n_c = max(1, BLOCK_NODES // base.size), so one call serves n_c slices
    of a small grid, and a grid of more than BLOCK_NODES nodes (several row
    blocks) gets one node per call.  Each integrand is weighted by base once
    per tile, and each slice of the product is summed on its own with
    np.add.reduce(..., axis=None), in phi order: the same full-grid sums as
    one slice at a time.

    Finiteness is checked on each slice's weighted sum, not node by node.
    base is finite and positive, so a NaN or infinite node, in either part,
    makes its weighted term non-finite, and a sum over a non-finite term is
    non-finite (+inf and -inf together give NaN).  A sum that overflows
    although every node is finite raises too.  The NonFiniteError stands in
    for numpy's floating-point warnings, which _tensor_sums silences.
    """
    phis = np.asarray(phis, dtype=float)
    n_c = max(1, BLOCK_NODES // base.size)
    totals = []
    for a in range(0, phis.size, n_c):
        col = phis[a:a + n_c, None, None]
        for i, vals in enumerate(at(col)):
            vals = np.broadcast_to(np.asarray(vals), col.shape[:1] + base.shape)
            sums = [np.add.reduce(one, axis=None) for one in base * vals]
            _check_finite(sums)
            if i == len(totals):
                totals.append(0.0 + 0.0j)
            for total in sums:
                totals[i] += total
    return totals


def row_blocks(density: Callable, r: np.ndarray, Y: np.ndarray) -> Callable:
    """at(phi) of density on the grid r x Y, evaluated in row blocks.

    A grid of at most BLOCK_NODES nodes is one block: density runs on it as
    it is and its own at is returned.  A larger grid runs
    density(r[a:b, None], Y[None, :, :]) once per block of consecutive
    radial rows: as few blocks as hold at most BLOCK_NODES nodes each (one
    row if a row is larger), their sizes differing by at most one row, so
    a k = 0 grid has no block of one node (for BLOCK_NODES >= 3).  The
    returned at(phi), for a column phi of n_c angular nodes,
    writes every integrand that the blocks yield into that integrand's full
    (n_c, n_r, n_y_flat) array, of the dtype the first block yields, and
    returns those arrays in order.  They are allocated on the first call and
    overwritten on the next, so each must be consumed before at is called
    again, as reduce_slices does; it passes such a grid one node per call.
    """
    n_r, n_flat = r.size, len(Y)
    rows = max(1, BLOCK_NODES // n_flat)
    if rows >= n_r:
        return density(r[:, None], Y[None, :, :])
    n_blocks = -(-n_r // rows)
    edges = [-(-i * n_r // n_blocks) for i in range(n_blocks + 1)]  # ceil(i n_r / n_blocks)
    blocks = [(slice(a, b), density(r[a:b, None], Y[None, :, :]))
              for a, b in zip(edges, edges[1:])]
    full = []

    def at(phi):
        for rows_of, block_at in blocks:
            for i, vals in enumerate(block_at(phi)):
                vals = np.asarray(vals)
                if i == len(full):
                    full.append(np.empty((len(phi), n_r, n_flat), vals.dtype))
                full[i][:, rows_of] = vals
        return full

    return at


def _tensor_sums(density: Callable, spec: QuadratureSpec, domain: Domain,
                 power, phis) -> list:
    """Per integrand of density, its sum over phis on the (r, y) grid of the
    domain, weighted by w_r * r^power * w_y: the one tensor pass, shared by
    integrate_polar and integrate_radial.  numpy's floating-point warnings,
    the density's included, are off: reduce_slices checks every sum."""
    r, w_r, Y, w_y = tensor_grid(spec, domain)
    base = (w_r * r ** power)[:, None] * w_y[None, :]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return reduce_slices(row_blocks(density, r, Y), base, phis)


def integrate_polar(density: Callable, spec: QuadratureSpec, domain: Domain) -> list:
    """Integrals of every integrand of density over r dr dphi dy on the domain.

    density(r, y) runs once per row block (row_blocks); the angular sum is
    an explicit loop over tiles of the n_phi trapezoid nodes, each slice
    reduced on its own (reduce_slices), so memory stays at
    O(n_r * n_y_flat + BLOCK_NODES) however many modes and integrands the
    check carries.  Returns one complex value per integrand.
    """
    phis, w_phi = phi_rule(spec.n_phi)
    return [complex(total * w_phi)
            for total in _tensor_sums(density, spec, domain, 1, phis)]  # Jacobian r


def integrate_radial(density: Callable, spec: QuadratureSpec, domain: Domain,
                     power) -> list:
    """Real parts of the integrals of every integrand of density, taken at
    phi = 0.0, over r^power dr dy on the domain.

    The phi = 0 case of the tensor engine: the same row blocks and slice
    reduction as integrate_polar, on one angular node with weight 1.  On
    k = 0 it is a plain radial integral (the y rule is one node of weight 1).
    """
    return [float(np.real(total))
            for total in _tensor_sums(density, spec, domain, power, (0.0,))]


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
    r, w_r = _simpson_rule(domain.r_lo, domain.r_hi, n_r)
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
    totals = []
    # numpy's warnings off, the density's included: base is positive, so a
    # non-finite node, or a sum that overflows, makes its slice's sum non-finite
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        at = density(r[:, None], Y[None, :, :])
        for phi in phis:
            for i, vals in enumerate(at(float(phi))):
                total = np.sum(base * np.asarray(vals))
                if not np.isfinite(total):
                    raise NonFiniteError(
                        "an oracle integrand or its weighted sum is NaN or infinite")
                if i == len(totals):
                    totals.append(0.0 + 0.0j)
                totals[i] += total
    return [complex(total * w_phi) for total in totals]
