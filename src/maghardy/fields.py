"""Magnetic vector potentials and magnetic/twisted gradients, pointwise.

Potentials come from the closed forms of the gauge-distance gradient — never
from numerical differentiation — so the pointwise identities they satisfy
(norm formulas, real-function splits) hold to machine precision.  Gradients
of test functions are assembled from the functions' analytic polar partials
via the chain rule; all outputs are complex vectors.

Component layout conventions:
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
from .geometry import GrushinGeometry, Point, grad_rho, rho

__all__ = [
    "FluxParam",
    "RadialPotential",
    "ConstantFieldPotentials",
    "grushin_potential",
    "ab_potential",
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
# Gradients of test functions
# ---------------------------------------------------------------------------

def _cartesian_partials(f: TestFunction, p: Point):
    """(grad_x f, grad_y f, f) at p from the polar analytic partials."""
    r, phi, _ = _polar_of_point(f, p)
    if r == 0.0:
        raise OriginError("gradient components undefined at |x| = 0")
    y = p.y[None, :]
    fr, fphi, fy = f.partials_polar(np.asarray(r), phi, y)
    fr, fphi = complex(np.asarray(fr).item()), complex(np.asarray(fphi).item())
    fy = np.asarray(fy).reshape(-1)
    if p.x.shape[0] == 2:
        c, s = math.cos(phi), math.sin(phi)
        gx = np.array([c * fr - s * fphi / r, s * fr + c * fphi / r])
    else:
        gx = (p.x / r) * fr
    val = complex(np.asarray(f.value_polar(np.asarray(r), phi, y)).item())
    return gx, fy, val


def _grushin_grad(geom: GrushinGeometry, f: TestFunction, p: Point) -> np.ndarray:
    gx, gy, _ = _cartesian_partials(f, p)
    return np.concatenate((gx, p.r**geom.gamma * gy)).astype(complex)


def tilde_grad(geom: GrushinGeometry, f: TestFunction, p: Point) -> np.ndarray:
    """(d_x1 f, d_x2 f, |x|^g/sqrt2 grad_y f, |x|^g/sqrt2 grad_y f), length 2+2k."""
    if geom.m != 2:
        raise DomainError("tilde_grad needs m = 2")
    gx, gy, _ = _cartesian_partials(f, p)
    yblock = (p.r**geom.gamma / math.sqrt(2.0)) * gy
    return np.concatenate((gx, yblock, yblock)).astype(complex)


def magnetic_grad(grad_kind: str, flux: FluxParam, geom: GrushinGeometry,
                  f: TestFunction, p: Point) -> np.ndarray:
    """(grad + i*beta*potential) f with gradient and potential matched by kind."""
    if grad_kind == "grushin":
        g = _grushin_grad(geom, f, p)
        pot = grushin_potential(geom, p)
    elif grad_kind == "tilde":
        g = tilde_grad(geom, f, p)
        pot = ab_potential(geom, p)
    else:
        raise DomainError(f"unknown grad_kind {grad_kind!r}")
    r, phi, _ = _polar_of_point(f, p)
    val = complex(np.asarray(f.value_polar(np.asarray(r), phi, p.y[None, :])).item())
    return g + 1j * flux.beta * pot * val


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
    gx, _, val = _cartesian_partials(f, p) if p.r > 0 else (np.zeros(2, complex), None, 0j)
    pv = float(np.asarray(psi(np.asarray(p.r))))
    x1, x2 = p.x
    return np.array([gx[0] - 1j * pv * x2 * val, gx[1] + 1j * pv * x1 * val])


def constant_field_grad(pots: ConstantFieldPotentials, geom: GrushinGeometry,
                        f: TestFunction, p: Point) -> np.ndarray:
    """(i d/dx_j f + psi1_j(y_j) f, i |x|^g d/dy_j f + psi2_j(x_j) f), length 2n."""
    n = pots.n
    if geom.m != n or geom.k != n:
        raise DomainError("constant-field gradient needs m = k = n")
    if p.is_origin():
        raise OriginError("constant-field gradient undefined at the origin")
    gx, gy, val = _cartesian_partials(f, p)
    rg = p.r**geom.gamma
    xs = [1j * gx[j] + float(pots.psi1[j](p.y[j])) * val for j in range(n)]
    ys = [1j * rg * gy[j] + float(pots.psi2[j](p.x[j])) * val for j in range(n)]
    return np.array(xs + ys, dtype=complex)
