"""Grushin-plane geometry: anisotropic dilations, gauge distance, and weights.

The ambient space is R^m x R^k with coordinates z = (x, y).  The sub-elliptic
gradient is

    grad_g = (d/dx_1, ..., d/dx_m, |x|^g d/dy_1, ..., |x|^g d/dy_k),

with anisotropy g >= 0, and the natural dilation is

    dil_lam(x, y) = (lam * x, lam^(1+g) * y),

under which Lebesgue measure scales with the homogeneous dimension
Q = m + (1+g) k.  The gauge distance from the origin,

    rho(x, y) = (|x|^(2(1+g)) + (1+g)^2 |y|^2)^(1/(2(1+g))),

is 1-homogeneous under dil_lam and satisfies |grad_g rho| = |x|^g / rho^g.
All quantities below are closed forms in r = |x| and y; the module is the
single source of truth for them, shared by the pointwise API and the
vectorized grid evaluations used in quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OriginError, SingularWeightError


@dataclass(frozen=True)
class GrushinGeometry:
    """Dimensions (m, k) and anisotropy gamma of a Grushin space."""

    m: int
    k: int
    gamma: float

    def __post_init__(self):
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 1):
            raise DomainError(f"m must be a positive integer, got {self.m!r}")
        if not (isinstance(self.k, (int, np.integer)) and self.k >= 1):
            raise DomainError(f"k must be a positive integer, got {self.k!r}")
        g = float(self.gamma)
        if not np.isfinite(g) or g < 0.0:
            raise DomainError(f"gamma must be a finite nonnegative real, got {self.gamma!r}")
        object.__setattr__(self, "gamma", g)

    @property
    def hom_dim(self) -> float:
        """Homogeneous dimension Q = m + (1+gamma)*k (a real; gamma may be fractional)."""
        return self.m + (1.0 + self.gamma) * self.k


@dataclass(frozen=True)
class WeightExponents:
    """Exponents (alpha1 on rho, alpha2 on |grad_g rho|) of the weight B."""

    alpha1: float
    alpha2: float

    def __post_init__(self):
        a1, a2 = float(self.alpha1), float(self.alpha2)
        if not (np.isfinite(a1) and np.isfinite(a2)):
            raise DomainError("weight exponents must be finite reals")
        object.__setattr__(self, "alpha1", a1)
        object.__setattr__(self, "alpha2", a2)


@dataclass(frozen=True)
class Point:
    """A point z = (x, y) in R^m x R^k, stored as two real vectors."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if x.ndim != 1 or y.ndim != 1:
            raise DomainError("Point coordinates must be one-dimensional vectors")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise DomainError("Point coordinates must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def r(self) -> float:
        return float(np.linalg.norm(self.x))

    def is_origin(self) -> bool:
        return not (np.any(self.x != 0.0) or np.any(self.y != 0.0))


# ---------------------------------------------------------------------------
# Vectorized closed forms in (r, y).  These accept numpy arrays of any
# broadcastable shape; `s` always denotes |y|.  The pointwise API below is a
# thin wrapper.  Verifier grid code calls these directly.
# ---------------------------------------------------------------------------

def rho_rs(gamma, r, s):
    """Gauge distance from r = |x|, s = |y|."""
    q = 2.0 * (1.0 + gamma)
    return (r ** q + (1.0 + gamma) ** 2 * s * s) ** (1.0 / q)


def drho_dr_over_rho(gamma, r, rho_val):
    """d(rho)/dr / rho = r^(2g+1) / rho^(2g+2) (radial-in-x derivative)."""
    return r ** (2.0 * gamma + 1.0) / rho_val ** (2.0 * gamma + 2.0)


def grad_y_rho_over_rho(gamma, y, rho_val):
    """Plain y-gradient of rho over rho: (1+g) y / rho^(2g+2), componentwise."""
    return (1.0 + gamma) * y / rho_val ** (2.0 * gamma + 2.0)


def hardy_density_rs(gamma, r, rho_val):
    """w = |grad_g rho|^2 / rho^2 = r^(2g) / rho^(2g+2), the Hardy weight."""
    return r ** (2.0 * gamma) / rho_val ** (2.0 * gamma + 2.0)


def weight_B_rs(gamma, alpha1, alpha2, r, rho_val):
    """B = rho^a1 |grad_g rho|^a2 = r^(a2 g) rho^(a1 - a2 g)."""
    p = alpha2 * gamma
    if p == 0.0:
        return rho_val ** alpha1
    return r ** p * rho_val ** (alpha1 - p)


# ---------------------------------------------------------------------------
# Pointwise API
# ---------------------------------------------------------------------------

def rho(geom: GrushinGeometry, p: Point) -> float:
    """Gauge distance of p from the origin (0 at the origin itself)."""
    _check_dims(geom, p)
    return float(rho_rs(geom.gamma, p.r, float(np.linalg.norm(p.y))))


def grad_rho(geom: GrushinGeometry, p: Point) -> np.ndarray:
    """Sub-elliptic gradient grad_g rho as a length-(m+k) real vector.

    Components: d(rho)/dx_i = x_i |x|^(2g) / rho^(2g+1) and, in the y block,
    |x|^g d(rho)/dy_j = |x|^g (1+g) y_j / rho^(2g+1).
    """
    _check_dims(geom, p)
    if p.is_origin():
        raise OriginError("grad_rho is undefined at the origin")
    g = geom.gamma
    r = p.r
    rv = rho_rs(g, r, float(np.linalg.norm(p.y)))
    gx = p.x * r ** (2.0 * g) / rv ** (2.0 * g + 1.0)
    gy = r ** g * (1.0 + g) * p.y / rv ** (2.0 * g + 1.0)
    return np.concatenate([gx, gy])


def dilate(geom: GrushinGeometry, lam: float, p: Point) -> Point:
    """Anisotropic dilation (x, y) -> (lam x, lam^(1+g) y)."""
    lam = float(lam)
    if not np.isfinite(lam) or lam <= 0.0:
        raise DomainError(f"dilation parameter must be positive, got {lam!r}")
    return Point(lam * p.x, lam ** (1.0 + geom.gamma) * p.y)


def weight_B(geom: GrushinGeometry, exps: WeightExponents, p: Point) -> float:
    """Weight B = rho^a1 |grad_g rho|^a2 = r^(a2 g) (r^(2(1+g)) + (1+g)^2|y|^2)^((a1-a2 g)/(2(1+g)))."""
    _check_dims(geom, p)
    if p.is_origin():
        raise OriginError("weight_B is undefined at the origin")
    g = geom.gamma
    r = p.r
    if r == 0.0 and exps.alpha2 * g < 0.0:
        raise SingularWeightError(
            "weight_B has a negative power of |x| and blows up on {x = 0}"
        )
    rv = rho_rs(g, r, float(np.linalg.norm(p.y)))
    return float(weight_B_rs(g, exps.alpha1, exps.alpha2, r, rv))


def _check_dims(geom: GrushinGeometry, p: Point) -> None:
    if p.x.shape[0] != geom.m or p.y.shape[0] != geom.k:
        raise DomainError(
            f"point has dims ({p.x.shape[0]}, {p.y.shape[0]}), geometry wants ({geom.m}, {geom.k})"
        )


def sphere_area(m: int) -> float:
    """Surface measure of the unit sphere S^(m-1) in R^m (2 for m=1)."""
    from math import gamma as gamma_fn, pi
    return 2.0 * pi ** (m / 2.0) / gamma_fn(m / 2.0)
