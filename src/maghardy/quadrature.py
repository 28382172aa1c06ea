"""Deterministic tensor quadrature over annulus x y-box domains, plus an oracle.

Main engine
-----------
All 2+k dimensional integrals run over their domain as given, never clipped,
in polar-cylindrical coordinates (r, phi, y) with Jacobian r dr dphi dy:

  * r: Gauss-Legendre after the substitution u = log r, so wide power-law
    supports are resolved with uniform effort per decade;
  * phi: per angular mode.  Every weight and field factor of the polar
    checks is independent of phi, so each integrand is a Hermitian form in
    the modes g_k of f = sum_k g_k e^(ik phi), and by Parseval
    int dphi |sum_k a_k e^(ik phi)|^2 = 2 pi sum_k |a_k|^2.  The engine
    takes each integrand on each mode's parts at phase 1, adds the modes
    node by node and multiplies by 2 pi: no angular node is spent;
  * y: tensor Gauss-Legendre per dimension on the support box.  On a domain
    marked y_even (a box symmetric about 0, an integrand even in every
    y_j) it keeps the nonnegative nodes of the same rule and doubles the
    weight of each node off 0, so it sums the same rule over the half box
    y >= 0 in another order, on 2^-k of the nodes (y_box_rule).

Each reference Gauss-Legendre rule on [-1, 1] is built once per node count
and cached read-only; every panel rule here and in the sharpness engine is an
affine image of it (`gauss_legendre`, `gauss_panels`).

integrate_radial runs the same per-mode tensor pass (_tensor_sums) over
r^power dr dy (on k = 0 a plain radial integral); an f radial in x has the
one mode 0.  General m >= 2 never needs angular quadrature in x here: every
integrand the verifiers produce for that case is radial in x, and the
sphere factor is the closed-form area of S^(m-1).

Oracle
------
`oracle_integrate` is a deliberately separate code path (uniform nodes,
composite Simpson, no substitutions, no shared integration helpers) used to
certify values produced by the main engine.  It takes the density at
uniform angular nodes, so it also checks the main engine's per-mode sum.

Density protocol
----------------
integrate_polar, integrate_radial and the oracle take one kind of density: a
callable density(r, y) -> at, called once per row block of the grid with
broadcastable arrays: r of shape (n_rows, 1), a run of consecutive radial
nodes, and y of shape (1, n_y_flat, k), whose trailing axis indexes the y
components.  It does the phi-independent work of its check there, once per
block.  at(x) then yields every integrand of the check on that block in a
fixed order, one array at a time.  The main engine calls it on each of the
modes it is given (the verifiers pass their test function's AngularModes),
never at an angle; the oracle calls it at each of its angles, a float.
The main engine also takes an optional prepare(r, Y), which it calls once
per integration on its whole radial rule and flat y nodes before the first
block, so what depends on one axis only is evaluated once, not per block
(verifiers._grids evaluates f's 1-D factors there).
Every integrand is a real float array broadcastable to the block: each
quantity the checks integrate is a real quadratic form (a squared modulus,
a weighted |f|^2 or |f|^p), and each integral is returned as a float; both
engines refuse a complex integrand with a RealnessError that names its
index.  Every density must be elementwise per node, so a node's value
depends neither on the block it sits in nor on the other modes.  On a
y_even domain every integrand must be even in every y_j, since the main
engine takes it at y_j >= 0 only (the verifiers' are whenever their test
function is; see verifiers._grids).  The oracle ignores the mark and covers
the whole box.

The main engine runs the grid in blocks of whole consecutive rows
(_tensor_sums), each row once.  On each block it adds every integrand over
the modes node by node, in the order given, weights it and reduces it once,
and it adds the block sums in row order.  So results are bit-stable across
runs and do not depend on how many integrands share the pass; another
blocking moves a sum only by the roundoff of a pairwise sum.

No (r, y) slice holds more than MAX_SLICE_NODES nodes: the main engine and
the oracle refuse a larger grid with a DomainError before building it.  The
main engine forms no full-grid array: a pass holds the 1-D rules, the y
nodes, one block's density state and the per-mode integrands of one block,
at most max(BLOCK_NODES, one row) nodes each, so on it the ceiling bounds
work, and memory grows with the width of a row, not with n_r.  The oracle
runs its own loop over row blocks of at most ORACLE_BLOCK_NODES nodes (or
one row), so its memory too grows with the width of a row.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import AdmissibilityError, DomainError, NonFiniteError, RealnessError, require_param

TWO_PI = 2.0 * math.pi

# Ceiling on the (r, y) nodes of one angular slice, checked before a grid is
# built: about 8.4 million nodes.  Each engine holds one row block at a time:
# at most max(BLOCK_NODES, one row) nodes on the main engine (a row of the
# widest grid in use, 14,400 nodes, is 115 KB per real array) and
# max(ORACLE_BLOCK_NODES, one row) on the oracle.  It admits the largest
# grids in use (a k = 2 identity check at n_r = 128, n_y = 40: 384 x 120^2
# = 5.5 million nodes; the oracle k = 1 grid, 2403 x 163) and turns a
# request far past them (k = 4 at n_y = 64: 10^12 nodes) into a DomainError
# instead of a failed allocation.
MAX_SLICE_NODES = 1 << 23

# Most nodes of one row block of more than one row (_tensor_sums): the
# temporaries of a block, 96 KB per real array, stay in a 2 MB L2 cache and
# are reused from the heap.  It cuts a k = 2 margins grid on the whole box
# (1296 nodes a row) into blocks of 9 rows, as numpy's pairwise tree did
# before blocks were whole rows, and on the half box y >= 0 of a y-even f
# (324 nodes a row) into blocks of 37.  Against those tree blocks, in 10
# alternating 20 s margins runs on a 2-core Xeon, 2^14 gave 627 cases/s for
# 602 but a peak RSS of 46.8 MB for 45.2, and 2^13 43.5 MB but 580 cases/s;
# 3 * 2^12 gave 622 cases/s at 45.3 MB.
BLOCK_NODES = 3 << 12

# Most (r, y) nodes of one row block of the oracle, or one row if a row holds
# more: 128 KB per complex array.  A k = 1 three-mode ab_hardy check holds
# modes x (3 + k) such arrays in its density's state; on the whole oracle
# grid (2403 x 163 nodes) it peaked at 152.5 MB under tracemalloc, and at
# 3.5 MB in these blocks, in half the time (2^12 to 2^17 measured on a
# 2-core Xeon).  The oracle's own constant, apart from BLOCK_NODES.
ORACLE_BLOCK_NODES = 1 << 13

# Ceiling on n_r, n_phi and n_y, checked on construction: leggauss builds an
# n x n companion matrix for an n-node rule (20 GB at n = 50000).
MAX_AXIS_NODES = 4096

# glibc hands the free top of its heap back to the OS once it exceeds a trim
# threshold: 128 KB at start, then twice the largest mmapped block freed so
# far.  The temporaries of a row block (a few MB) would then be faulted in
# afresh on every block: 20 margins passes take about 1.5 s instead of
# 1.15 s on a 2-core Xeon.  Freeing one 4 MB block here raises the
# threshold to 8 MB.
np.empty(1 << 22, np.uint8)


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution knobs for the main engine.

    n_r radial nodes (per panel) under the log map, n_y Gauss-Legendre
    nodes per y dimension.  n_phi, the uniform angular nodes, sets the
    oracle's angular rule and the aliasing check of the polar path
    (_grids.require_phi_resolution); the main engine runs per mode and
    spends none.  `oracle` marks specs constructed for oracle cross-checks.
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
    `y_even` marks every integrand even in every y_j on a box symmetric
    about 0, so the main engine runs the half box y >= 0 (y_box_rule).
    """

    r_lo: float
    r_hi: float
    y_box: tuple = ()
    r_breaks: tuple = field(default=())
    y_even: bool = False

    def __post_init__(self):
        if not (0.0 < self.r_lo < self.r_hi) or not math.isfinite(self.r_hi):
            raise DomainError(f"need 0 < r_lo < r_hi, got [{self.r_lo}, {self.r_hi}]")
        for lo, hi in self.y_box:
            if not (lo < hi):
                raise DomainError(f"bad y-box interval ({lo}, {hi})")
            if self.y_even and lo != -hi:
                raise DomainError(f"a y-even domain needs a y box symmetric about 0, "
                                  f"got ({lo}, {hi})")
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


def gauss_legendre(a, b, n: int):
    """Gauss-Legendre nodes/weights on [a, b]: the affine image of the cached
    reference rule.  On float edges it is the one-panel rule; a and b may
    also be arrays, which broadcast against the trailing node axis, so one
    call maps the rule onto many panels (gauss_panels)."""
    t, w = _reference_rule(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * t, half * w


def gauss_panels(edges: Sequence, n: int):
    """n-node Gauss-Legendre nodes/weights over panels [e0,e1], [e1,e2], ...

    Edges are floats, giving nodes and weights of shape (panels*n,), or
    columns of shape (n_rows, 1), one panel set per row, giving shape
    (n_rows, panels*n).  All panels go through one gauss_legendre call on
    the stacked edges, whose every node takes the operations of its own
    one-panel rule, so each row is bitwise the rule of its own float edges.
    """
    e = np.array(edges, dtype=float)  # (panels + 1,) or (panels + 1, n_rows, 1)
    e = e.reshape(e.shape[:1] + e.shape[1:-1]).T  # (panels + 1,) or (n_rows, panels + 1)
    t, w = gauss_legendre(e[..., :-1, None], e[..., 1:, None], n)
    shape = t.shape[:-2] + (-1,)
    return t.reshape(shape), w.reshape(shape)


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


def y_box_rule(y_box, n_y: int, even: bool = False):
    """Tensor Gauss-Legendre nodes on the y-box, panelled like the radial rule.

    Every y factor rolls off over the outer quarter-widths of its box, so each
    component is split into [lo, lo+q], [lo+q, hi-q], [hi-q, hi] panels
    (q = width/4) with n_y nodes per panel.  Returns (Y, w_y): Y of shape
    (n_flat, k) and flat weights of shape (n_flat,).  For k = 0 this is a
    single node with weight 1.

    even folds the rule for integrands even in every y_j on a box symmetric
    about 0, whose nodes are then antisymmetric bit for bit (leggauss
    symmetrizes its reference rule, and the panel edges mirror exactly):
    each axis keeps its nodes t >= 0, and a node t > 0 takes twice its
    weight, for itself and its mirror -t.  A node at t = 0 (odd n_y) keeps
    its weight.
    """
    if not y_box:
        return np.zeros((1, 0)), np.ones(1)
    axes, weights = [], []
    for lo, hi in y_box:
        q = 0.25 * (hi - lo)
        t, w = gauss_panels((lo, lo + q, hi - q, hi), n_y)
        if even:
            half = t >= 0.0
            t, w = t[half], np.where(t[half] > 0.0, 2.0 * w[half], w[half])
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
    """(r, w_r, Y, w_y): the log-radial and y-box rules of the main engine,
    the y rule folded onto y >= 0 on a y_even domain.

    The slice size is checked against MAX_SLICE_NODES between the radial
    rule, which fixes the panel count, and the y tensor, the large one, on
    the whole box, so a grid is refused or admitted whatever its parity.
    """
    r, w_r = log_radial_rule(domain.r_lo, domain.r_hi, spec.n_r, domain.r_breaks)
    _require_slice_nodes(r.size, (3 * spec.n_y) ** domain.k)  # 3 panels per y axis
    Y, w_y = y_box_rule(domain.y_box, spec.n_y, domain.y_even)
    return r, w_r, Y, w_y


def _require_real(i: int, values) -> None:
    """Raise RealnessError, naming integrand i, if values are complex."""
    if values.dtype.kind == "c":
        raise RealnessError(f"integrand {i} is complex; every integrand must be "
                            "a real float array")


def _check_finite(values) -> None:
    """Raise NonFiniteError unless every entry of values is finite."""
    if not np.isfinite(values).all():
        raise NonFiniteError("an integrand or its weighted sum is NaN or infinite")


def _tensor_sums(density: Callable, spec: QuadratureSpec, domain: Domain,
                 power, modes, prepare: Callable | None = None) -> list:
    """Per integrand of density: its values on the modes added node by node,
    weighted by w_r * r^power * w_y and summed over the (r, y) grid of the
    domain.  The one tensor pass of integrate_polar and integrate_radial.
    prepare, if given, is called as prepare(r, Y) on the whole radial rule
    and flat y nodes before the first block (see Density protocol).

    The grid runs in blocks of max(1, BLOCK_NODES // n_flat) consecutive
    whole rows, one block at a time.  A block runs density once and calls at
    once per mode; each integrand is added over the modes node by node,
    in their order, weighted (base) and reduced once, and the block sums
    are added in row order.  So each row runs once, and a sum's roundoff is
    that of its blocks' pairwise sums plus that of adding the block sums in
    turn (Higham, SIAM J. Sci. Comput. 14, 1993).

    numpy's floating-point warnings, the density's included, are off: base
    is finite and positive, so a NaN or infinite node makes its block's sum
    non-finite, and that, or a running total that overflows, raises
    NonFiniteError at its block.
    """
    r, w_r, Y, w_y = tensor_grid(spec, domain)
    if prepare is not None:
        prepare(r, Y)
    radial = w_r * r ** power
    rows = max(1, BLOCK_NODES // len(Y))

    def block(a):  # rows a to a + rows; its state is freed on return
        at = density(r[a:a + rows, None], Y[None, :, :])
        base = radial[a:a + rows, None] * w_y[None, :]
        sums = []
        for vals in zip(*[at(mode) for mode in modes]):  # one integrand's values at a time
            total = vals[0]
            for v in vals[1:]:
                total = total + v
            sums.append(np.add.reduce((base * total).reshape(base.size)))
        return sums

    sums = None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for a in range(0, r.size, rows):
            sums = block(a) if sums is None else [s + b for s, b in zip(sums, block(a))]
            for s in sums:
                _check_finite(s)
    for i, s in enumerate(sums):
        _require_real(i, s)
    return [0.0 + s.item() for s in sums]


def integrate_polar(density: Callable, spec: QuadratureSpec, domain: Domain,
                    modes: Sequence, prepare: Callable | None = None) -> list:
    """Integrals of every integrand of density over r dr dphi dy on the
    domain: 2 pi times the sum over modes of at(mode), Parseval's form of
    the phi integral.

    density(r, y) runs once per row block, one block at a time
    (_tensor_sums), so memory stays at about max(BLOCK_NODES, one row)
    nodes per integrand and mode plus the 1-D rules, however many rows the
    grid has.  prepare is _tensor_sums's.  Returns one float per integrand.
    """
    return [TWO_PI * total   # Jacobian r
            for total in _tensor_sums(density, spec, domain, 1, modes, prepare)]


def integrate_radial(density: Callable, spec: QuadratureSpec, domain: Domain,
                     modes: Sequence, power, prepare: Callable | None = None) -> list:
    """Integrals of every integrand of density, added over the modes, over
    r^power dr dy on the domain: the tensor pass of integrate_polar at
    another power, without the factor 2 pi.  On k = 0 a plain radial
    integral (the y rule is one node of weight 1).
    """
    return _tensor_sums(density, spec, domain, power, modes, prepare)


# ---------------------------------------------------------------------------
# Oracle: uniform grids, composite Simpson.  No integration code above this
# line is reused, on purpose; only the slice ceiling and the refusal of a
# complex integrand are shared.
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
    r and in each y dimension, on the whole y box whatever domain.y_even
    says, uniform midpoint in phi (exact for the trigonometric content).
    density follows the integrate_polar protocol, called once per block of
    at most ORACLE_BLOCK_NODES nodes (or one row), so a density's state on
    its block bounds the memory a check takes; returns one float per
    integrand.  Shares no code with the main engine.
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

    rows = max(1, ORACLE_BLOCK_NODES // w_y.size)
    totals = []
    # numpy's warnings off, the density's included: the weights are
    # positive, so a non-finite node, or a sum that overflows, makes its
    # block's sum or the running total non-finite
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo in range(0, r.size, rows):
            r_block = r[lo:lo + rows, None]
            base = (w_r[lo:lo + rows, None] * r_block) * w_y[None, :]
            at = density(r_block, Y[None, :, :])
            for phi in phis:
                for i, vals in enumerate(at(float(phi))):
                    if i == len(totals):
                        totals.append(0.0)
                    block_sum = np.sum(base * np.asarray(vals))
                    _require_real(i, block_sum)
                    totals[i] += float(block_sum)
                    if not math.isfinite(totals[i]):
                        raise NonFiniteError(
                            "an oracle integrand or its weighted sum is NaN or infinite")
            del at   # the density's state on this block
    return [total * w_phi for total in totals]
