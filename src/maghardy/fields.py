"""Magnetic vector potentials and magnetic/twisted gradients.

Potentials come from the closed forms of the gauge-distance gradient — never
from numerical differentiation — so the pointwise identities they satisfy
(norm formulas, real-function splits) hold to machine precision.

Each magnetic gradient is written once, vectorised on grid arrays in the
quadrature convention (r (n_r, 1), y (1, n_flat, k), plus the gauge power
X = rho^(2 gamma + 2) on that grid, geometry.rho_power_rs) from the values
and polar partials of the test function at one angle or on one angular mode
at phase 1 (TestFunction.on_grid), in which each component is linear with
phi-independent factors.  All three, grushin_components,
tilde_components and twisted_components, work in one polar frame and in
two steps, like the densities that call them: given the grid they form the
phi-independent field factors once and return a closure that maps the test
function's parts at those nodes to the polar-frame components (c_r, c_phi,
then the y blocks): the x part of every field is radial or angular, so no
component reads the angle.  The verifiers integrate their squared moduli.
The arithmetic is complex except where an imaginary part is exactly zero:
the parts of a radial f on real profiles are float arrays, which give the
real parts of the complex ones bit for bit, and the division of a part by r
is a product with 1 / r, which is how numpy divides a complex array by a
real one.  The pointwise API is a one-node call into the same functions
that rotates the polar frame to Cartesian (_cartesian_x), so the
finite-difference tests check the code the integrals run.
Its outputs are complex vectors:
    grushin gradient    (d/dx_1..d/dx_m, |x|^g d/dy_1..d/dy_k)   length m+k
    tilde gradient      (d/dx_1, d/dx_2, |x|^g/sqrt2 * grad_y twice)  2+2k
    twisted (Landau)    two components on R^2 (z = (x, y))
    constant field      (i d/dx_j + slope*y_j, i|x|^g d/dy_j + slope*x_j)   2n
The sqrt2-duplicated y blocks are kept literal (not collapsed) so that every
component can be compared against its defining formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NonFiniteError, OriginError, require_param, require_reals
from .functions import TestFunction, _polar_of_point
from .geometry import (
    GrushinGeometry,
    Point,
    _check_dims,
    drho_dr_over_rho,
    grad_rho,
    grad_y_rho_over_rho,
    rho,
    rho_power_rs,
)

__all__ = [
    "FluxParam",
    "RadialPotential",
    "ConstantFieldPotentials",
    "grushin_potential",
    "ab_potential",
    "grushin_components",
    "tilde_components",
    "twisted_components",
    "magnetic_grad",
    "twisted_grad_psi",
    "constant_field_grad",
]


@dataclass(frozen=True)
class FluxParam:
    """Magnetic flux strength; any finite real value is admitted."""

    beta: float

    def __post_init__(self):
        require_param("the flux", "beta", self.beta)


@dataclass(frozen=True)
class RadialPotential:
    """Radial potential r -> psi(r), tagged by construction kind."""

    psi: object
    kind: str = "user"
    params: tuple = field(default=())

    @staticmethod
    def constant(c: float) -> "RadialPotential":
        c = require_param("the constant potential", "c", c)
        return RadialPotential(psi=lambda r: np.full_like(np.asarray(r, float), c),
                               kind="constant", params=(c,))

    @staticmethod
    def power(c: float, s: float) -> "RadialPotential":
        c, s = require_reals("the power potential", c=c, s=s)
        return RadialPotential(psi=lambda r: c * np.asarray(r, float) ** s,
                               kind="power", params=(c, s))

    def __call__(self, r):
        out = np.asarray(self.psi(r))
        if not np.all(np.isfinite(out)):
            radii, bad = np.broadcast_arrays(np.asarray(r, float), ~np.isfinite(out))
            raise NonFiniteError(f"potential (kind={self.kind}) non-finite at {bad.sum()} "
                                 f"of {bad.size} radii, first at r={float(radii[bad][0])!r}")
        return out


@dataclass(frozen=True)
class ConstantFieldPotentials:
    """The constant-field potentials on m = k = n: psi(t) = slope * t in every slot.

    They enter as slope * y_j beside d/dx_j and slope * x_j beside d/dy_j;
    the geometry gives the slot count n = m = k.
    """

    slope: float = 0.5

    def __post_init__(self):
        require_param("the constant field", "slope", self.slope)


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------

def grushin_potential(geom: GrushinGeometry, p: Point) -> np.ndarray:
    """A = grad_rho / rho, length m+k; norm |x|^gamma / rho^(gamma+1)."""
    return grad_rho(geom, p) / rho(geom, p)


def ab_potential(geom: GrushinGeometry, p: Point) -> np.ndarray:
    """Rotated potential (-d_x2 rho, d_x1 rho, -|x|^g/sqrt2 grad_y, +...)/rho.

    Defined for m = 2; the y block of grad_rho/rho is split into two copies
    scaled by 1/sqrt2, so the norm matches grushin_potential pointwise.
    """
    if geom.m != 2:
        raise DomainError("ab_potential needs m = 2")
    a = grushin_potential(geom, p)
    ax, ay = a[:2], a[2:]
    s = 1.0 / math.sqrt(2.0)
    return np.concatenate(([-ax[1], ax[0]], -s * ay, s * ay))


# ---------------------------------------------------------------------------
# Magnetic gradients on grid arrays
# ---------------------------------------------------------------------------

def grushin_components(beta: float, gamma: float, r, y, X):
    """Closure parts -> polar-frame (c_r, c_phi, c_y) of (grad_g + i beta grad(rho)/rho) f.

    The real field factors d(rho)/dr / rho, r^gamma and r^gamma grad_y(rho)/rho
    are formed here, once for the grid (r, y), on its gauge power
    X = rho^(2 gamma + 2) (geometry.rho_power_rs), with no power of X.
    parts is (f, df/dr, df/dphi, grad_y f) on that grid at an angle or on
    one mode, as TestFunction.on_grid gives them; c_y carries the trailing
    y axis.
    """
    ar = drho_dr_over_rho(gamma, r, X)
    rg = r[..., None] ** gamma
    ay = rg * grad_y_rho_over_rho(gamma, y, X[..., None])

    def components(parts):
        val, fr, fphi, fy = parts
        cy = 1j * beta * ay * val[..., None]
        cy += rg * fy  # in place: one y-block array fewer
        return fr + 1j * beta * ar * val, fphi * (1.0 / r), cy

    return components


def tilde_components(beta: float, gamma: float, r, y, X):
    """Closure parts -> polar-frame (c_r, c_phi, c_y-, c_y+) of (tilde grad + i beta Atilde) f.

    Lives on m = 2.  The rotated potential is purely angular in x; its y part
    enters the two 1/sqrt2 blocks with opposite signs.  Its real factors are
    formed here, once for the grid, as for grushin_components, and parts is
    as there.  The factors are kept real, so the grid holds half the bytes
    of their complex products, and i beta A val is formed once per node for
    both y blocks.
    """
    aphi = drho_dr_over_rho(gamma, r, X)
    rg = r[..., None] ** gamma
    ay = rg * grad_y_rho_over_rho(gamma, y, X[..., None]) * math.sqrt(0.5)

    def components(parts):
        val, fr, fphi, fy = parts
        cphi = fphi * (1.0 / r) + 1j * beta * aphi * val
        uy = rg * fy * math.sqrt(0.5)
        a = 1j * beta * ay * val[..., None]
        minus = uy - a
        a += uy  # in place: one y-block array fewer
        return fr, cphi, minus, a

    return components


def twisted_components(psi_r, r):
    """Closure parts -> polar-frame (c_r, c_phi) of (d_x - i psi y, d_y + i psi x) f.

    On the plane.  The field psi(|z|) (-y, x) = psi r e_phi is purely
    angular, so c_phi = df/dphi / r + i psi r f; 1 / r and i psi r are formed
    here, once for the grid, from psi on the radii r (psi_r).
    """
    inv_r = 1.0 / r
    ipr = 1j * psi_r * r

    def components(parts):
        val, fr, fphi, _ = parts
        return fr, fphi * inv_r + ipr * val

    return components


# ---------------------------------------------------------------------------
# Pointwise API: one-node calls into the grid functions
# ---------------------------------------------------------------------------

def _node(f: TestFunction, p: Point):
    """p as a one-node grid (r (1,1), phi, y (1,1,k)); refuses |x| = 0."""
    r, phi, _ = _polar_of_point(f, p)
    if r == 0.0:
        raise OriginError("gradient components undefined at |x| = 0")
    return np.full((1, 1), r), phi, p.y[None, None, :]


def _cartesian_x(p: Point, r, phi: float, cr, cphi) -> np.ndarray:
    """x block at p of a polar-frame gradient (c_phi is zero unless m = 2)."""
    cr, cphi = complex(cr.item()), complex(cphi.item())
    if p.x.shape[0] == 2:
        c, s = math.cos(phi), math.sin(phi)
        return np.array([c * cr - s * cphi, s * cr + c * cphi])
    return (p.x / r.item()) * cr


def magnetic_grad(grad_kind: str, flux: FluxParam, geom: GrushinGeometry,
                  f: TestFunction, p: Point) -> np.ndarray:
    """(grad + i*beta*potential) f with gradient and potential matched by kind.

    grushin: length m+k; tilde (m = 2): length 2+2k, see the module docstring.
    """
    if grad_kind == "grushin":
        components = grushin_components
    elif grad_kind == "tilde":
        if geom.m != 2:
            raise DomainError("tilde gradient needs m = 2")
        components = tilde_components
    else:
        raise DomainError(f"unknown grad_kind {grad_kind!r}")
    _check_dims(geom, p)
    r, phi, y = _node(f, p)
    parts = f.on_grid(r, y)(phi)
    X = rho_power_rs(geom.gamma, r, np.linalg.norm(y, axis=-1))
    cr, cphi, *yblocks = components(flux.beta, geom.gamma, r, y, X)(parts)
    blocks = [_cartesian_x(p, r, phi, cr, cphi)] + [b.reshape(-1) for b in yblocks]
    return np.concatenate(blocks).astype(complex)


def twisted_grad_psi(psi: RadialPotential, f: TestFunction, p: Point) -> np.ndarray:
    """Twisted gradient on R^2: (d_x f - i psi(|z|) y f, d_y f + i psi(|z|) x f).

    Like magnetic_grad it refuses the origin z = 0 with an OriginError: the
    polar frame that its components are formed in has no angle there.
    """
    if p.x.shape[0] != 2 or p.y.shape[0] != 0:
        raise DomainError("twisted gradient lives on R^2 points (m=2, k=0)")
    r, phi, y = _node(f, p)
    cr, cphi = twisted_components(np.asarray(psi(r)), r)(f.on_grid(r, y)(phi))
    return _cartesian_x(p, r, phi, cr, cphi)


def constant_field_grad(pots: ConstantFieldPotentials, geom: GrushinGeometry,
                        f: TestFunction, p: Point) -> np.ndarray:
    """(i d/dx_j f + slope*y_j f, i |x|^g d/dy_j f + slope*x_j f), length 2n."""
    if geom.m != geom.k:
        raise DomainError("constant-field gradient needs m = k = n")
    grad = 1j * magnetic_grad("grushin", FluxParam(0.0), geom, f, p)
    val = complex(f.value_polar(*_node(f, p)).item())
    return grad + pots.slope * np.concatenate((p.y, p.x)) * val
