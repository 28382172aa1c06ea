"""Shared grid plumbing for the verifiers.

Two integration paths, both dispatchable to the independent oracle when
spec.oracle is set:

  * polar path (m = 2): full (r, phi, y) quadrature through integrate_polar,
    used whenever the function carries angular modes;
  * radial-x path (any m): functions radial in x reduce to an (r, y) tensor
    integral times the closed-form sphere area; no angular nodes are spent.

Densities on both paths follow the integrate_polar convention (r of shape
(n_r,1), phi float, y of shape (1,n_flat,k)); the radial-x path calls them
with phi = 0.0.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError, NonFiniteError
from ..functions import TestFunction, angular_average
from ..geometry import sphere_area
from ..quadrature import (
    Domain,
    QuadratureSpec,
    integrate_polar,
    log_radial_rule,
    oracle_integrate,
    y_box_rule,
)

# Oracle resolutions: uniform Simpson needs enough nodes to beat 1e-7 against
# the Gauss panels; these are deliberate overkill at desk scale.
ORACLE_N_R = 2401
ORACLE_N_Y = 161


def support_domain(f: TestFunction, kind: str = "support",
                   R_Omega: float | None = None) -> Domain:
    """Integration domain covering the support hull of f."""
    r_lo, r_hi, y_box, breaks = f.support()
    return Domain(r_lo=r_lo, r_hi=r_hi, y_box=y_box, kind=kind,
                  R_Omega=R_Omega, r_breaks=breaks)


def require_phi_resolution(f: TestFunction, spec: QuadratureSpec) -> None:
    """Angular trapezoid is exact only below the aliasing threshold; refuse above."""
    need = 4 * (f.max_abs_mode + 1)
    if spec.n_phi < need:
        raise DomainError(
            f"n_phi={spec.n_phi} cannot resolve modes up to {f.max_abs_mode}; "
            f"need n_phi >= {need}"
        )


def polar_integral(density, spec: QuadratureSpec, domain: Domain) -> float:
    """Real part of the (r, phi, y) integral, oracle-dispatched."""
    if spec.oracle:
        val = oracle_integrate(
            density, domain, resolution=(ORACLE_N_R, max(spec.n_phi, 4), ORACLE_N_Y)
        )
    else:
        val = integrate_polar(density, spec, domain)
    return float(np.real(val))


def rx_integral(density, spec: QuadratureSpec, domain: Domain, m: int) -> float:
    """sphere_area(m) * integral of density(r, 0.0, y) r^(m-1) dr dy, oracle-dispatched.

    density takes (r, phi, y) like a polar density and is evaluated at phi = 0.0.
    """
    if spec.oracle:
        fold = sphere_area(m) / (2.0 * np.pi)

        def wrapped(r, phi, y):
            return density(r, 0.0, y) * r ** (m - 2) * fold

        val = oracle_integrate(wrapped, domain, resolution=(ORACLE_N_R, 1, ORACLE_N_Y))
        return float(np.real(val))

    r_lo, r_hi = domain.radial_interval()
    r, w_r = log_radial_rule(r_lo, r_hi, spec.n_r, domain.r_breaks)
    Y, w_y = y_box_rule(domain.y_box, spec.n_y)
    vals = np.asarray(density(r[:, None], 0.0, Y[None, :, :]))
    vals = np.broadcast_to(vals, (r.size, w_y.size))
    if not np.all(np.isfinite(vals)):
        raise NonFiniteError("integrand evaluated to NaN or infinity at a quadrature node")
    base = (w_r * r ** (m - 1))[:, None] * w_y[None, :]
    return sphere_area(m) * float(np.real(np.sum(base * vals)))


def s_of(y: np.ndarray) -> np.ndarray:
    """|y| along the trailing component axis (shape-preserving otherwise)."""
    if y.shape[-1] == 0:
        return np.zeros(y.shape[:-1])
    return np.sqrt(np.sum(y * y, axis=-1))


def abs2(z: np.ndarray) -> np.ndarray:
    return (z * np.conj(z)).real


def grad_y_sq(dy: np.ndarray) -> np.ndarray:
    """Squared norm of the y-gradient block (sum over trailing axis)."""
    if dy.shape[-1] == 0:
        return np.zeros(dy.shape[:-1])
    return np.sum(abs2(dy), axis=-1)


def mode_zero_sq(f: TestFunction):
    """Density (r, y) -> |f0|^2 for the zeroth angular mode of f."""
    f0 = angular_average(f)

    def density(r, y):
        if not f0.modes:
            return np.zeros(np.broadcast_shapes(np.shape(r), y.shape[:-1]))
        return abs2(f0.value_polar(r, 0.0, y))

    return density
