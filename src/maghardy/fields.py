"""Magnetic vector potentials and magnetic/twisted gradients.

Potentials come from the closed forms of the gauge-distance gradient — never
from numerical differentiation — so the pointwise identities they satisfy
(norm formulas, real-function splits) hold to machine precision.

Each magnetic gradient is written once, vectorised on grid arrays in the
quadrature convention (r (n_r, 1), y (1, n_flat, k), plus rho on that grid)
from the values and polar partials of the test function at one angular node
(TestFunction.on_grid): grushin_components and tilde_components return
polar-frame components, twisted_components Cartesian ones.  The verifiers
integrate sums of their squared moduli.  The pointwise API is a one-node
call into the same functions that rotates the polar frame to Cartesian, so
the finite-difference tests check the code the integrals run.
Its outputs are complex vectors:
    grushin gradient    (d/dx_1..d/dx_m, |x|^g d/dy_1..d/dy_k)   length m+k
    tilde gradient      (d/dx_1, d/dx_2, |x|^g/sqrt2 * grad_y twice)  2+2k
    twisted (Landau)    two components on R^2 (z = (x, y))
    constant field      (i d/dx_j + psi1_j(y_j), i|x|^g d/dy_j + psi2_j(x_j))
The sqrt2-duplicated y blocks are kept literal (not collapsed) so that every
component can be compared against its defining formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NonFiniteError, OriginError
from .functions import TestFunction, _polar_of_point
from .geometry import (
    GrushinGeometry,
    Point,
    drho_dr_over_rho,
    grad_rho,
    grad_y_rho_over_rho,
    rho,
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
    "tilde_grad",
    "magnetic_grad",
    "twisted_grad_psi",
    "constant_field_grad",
]


@dataclass(frozen=True)
class FluxParam:
    """Magnetic flux strength; any real value is admitted."""

    beta: float


@dataclass(frozen=True)
class RadialPotential:
    """Radial potential r -> psi(r), tagged by construction kind."""

    psi: object
    kind: str = "user"
    params: tuple = field(default=())

    @staticmethod
    def constant(c: float) -> "RadialPotential":
        c = float(c)
        return RadialPotential(psi=lambda r: np.full_like(np.asarray(r, float), c),
                               kind="constant", params=(c,))

    @staticmethod
    def power(c: float, s: float) -> "RadialPotential":
        c, s = float(c), float(s)
        return RadialPotential(psi=lambda r: c * np.asarray(r, float) ** s,
                               kind="power", params=(c, s))

    def __call__(self, r):
        out = np.asarray(self.psi(r))
        if not np.all(np.isfinite(out)):
            raise NonFiniteError(f"potential (kind={self.kind}) non-finite at r={r}")
        return out


@dataclass(frozen=True)
class ConstantFieldPotentials:
    """Separable potentials psi1_j(y_j), psi2_j(x_j) for the constant-field case.

    `slope` is set when every slot is the same linear map t -> slope*t (the
    constant-field choice); the x-radial verifier path for n >= 2 requires it.
    """

    psi1: tuple
    psi2: tuple
    slope: float | None = None

    def __post_init__(self):
        if len(self.psi1) != len(self.psi2) or not self.psi1:
            raise DomainError("need equal nonempty psi1/psi2 lists")

    @property
    def n(self) -> int:
        return len(self.psi1)

    @staticmethod
    def linear(n: int, slope: float = 0.5) -> "ConstantFieldPotentials":
        """The constant-magnetic-field choice psi(t) = slope * t in every slot."""
        mk = lambda: (lambda t: slope * np.asarray(t, float))
        return ConstantFieldPotentials(tuple(mk() for _ in range(n)),
                                       tuple(mk() for _ in range(n)), slope=slope)


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

def grushin_components(beta: float, gamma: float, r, y, rho_val, parts):
    """Polar-frame (c_r, c_phi, c_y) of (grad_g + i beta grad(rho)/rho) f on a grid.

    parts is (f, df/dr, df/dphi, grad_y f) on the grid (r, y), as
    TestFunction.on_grid gives them; c_y carries the trailing y axis.
    """
    val, fr, fphi, fy = parts
    cr = fr + 1j * beta * drho_dr_over_rho(gamma, r, rho_val) * val
    cphi = fphi / r
    ay = r[..., None] ** gamma * grad_y_rho_over_rho(gamma, y, rho_val[..., None])
    cy = r[..., None] ** gamma * fy + 1j * beta * ay * val[..., None]
    return cr, cphi, cy


def tilde_components(beta: float, gamma: float, r, y, rho_val, parts):
    """Polar-frame (c_r, c_phi, c_y-, c_y+) of (tilde_grad + i beta Atilde) f, m = 2.

    The rotated potential is purely angular in x; its y part enters the two
    1/sqrt2 blocks with opposite signs.
    """
    val, fr, fphi, fy = parts
    aphi = r ** (2.0 * gamma + 1.0) / rho_val ** (2.0 * gamma + 2.0)
    cphi = fphi / r + 1j * beta * aphi * val
    ay = (r[..., None] ** gamma * (1.0 + gamma) * y
          / rho_val[..., None] ** (2.0 * gamma + 2.0)) * math.sqrt(0.5)
    uy = r[..., None] ** gamma * fy * math.sqrt(0.5)
    minus = uy - 1j * beta * ay * val[..., None]
    plus = uy + 1j * beta * ay * val[..., None]
    return fr, cphi, minus, plus


def twisted_components(psi_r, r, phi: float, parts):
    """Cartesian (t_x, t_y) of (d_x - i psi y, d_y + i psi x) f on a plane grid.

    psi_r holds psi on the radii r; parts is f and its polar partials there
    at the angular node phi.
    """
    val, fr, fphi, _ = parts
    c, s = math.cos(phi), math.sin(phi)
    fx = c * fr - s * fphi / r
    fy = s * fr + c * fphi / r
    return fx - 1j * psi_r * (r * s) * val, fy + 1j * psi_r * (r * c) * val


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
    rho_val = np.full((1, 1), rho(geom, p))  # also checks the point's dimensions
    r, phi, y = _node(f, p)
    parts = f.on_grid(r, y)(phi)
    cr, cphi, *yblocks = components(flux.beta, geom.gamma, r, y, rho_val, parts)
    blocks = [_cartesian_x(p, r, phi, cr, cphi)] + [b.reshape(-1) for b in yblocks]
    return np.concatenate(blocks).astype(complex)


def tilde_grad(geom: GrushinGeometry, f: TestFunction, p: Point) -> np.ndarray:
    """(d_x1 f, d_x2 f, |x|^g/sqrt2 grad_y f, |x|^g/sqrt2 grad_y f), length 2+2k."""
    return magnetic_grad("tilde", FluxParam(0.0), geom, f, p)


def twisted_grad_psi(psi: RadialPotential, f: TestFunction, p: Point) -> np.ndarray:
    """Twisted gradient on R^2: (d_x f - i psi(|z|) y f, d_y f + i psi(|z|) x f)."""
    if p.x.shape[0] != 2 or p.y.shape[0] != 0:
        raise DomainError("twisted gradient lives on R^2 points (m=2, k=0)")
    if p.is_origin():
        try:
            pval = float(np.asarray(psi(np.asarray(0.0))))
        except Exception as exc:
            raise OriginError("potential undefined at the origin") from exc
        if not math.isfinite(pval):
            raise OriginError("potential singular at the origin")
        return np.zeros(2, complex)
    r, phi, y = _node(f, p)
    tx, ty = twisted_components(np.asarray(psi(r)), r, phi, f.on_grid(r, y)(phi))
    return np.array([tx.item(), ty.item()], dtype=complex)


def constant_field_grad(pots: ConstantFieldPotentials, geom: GrushinGeometry,
                        f: TestFunction, p: Point) -> np.ndarray:
    """(i d/dx_j f + psi1_j(y_j) f, i |x|^g d/dy_j f + psi2_j(x_j) f), length 2n."""
    n = pots.n
    if geom.m != n or geom.k != n:
        raise DomainError("constant-field gradient needs m = k = n")
    grad = 1j * magnetic_grad("grushin", FluxParam(0.0), geom, f, p)
    val = complex(f.value_polar(*_node(f, p)).item())
    pot = [float(pots.psi1[j](p.y[j])) for j in range(n)] \
        + [float(pots.psi2[j](p.x[j])) for j in range(n)]
    return grad + np.array(pot) * val
