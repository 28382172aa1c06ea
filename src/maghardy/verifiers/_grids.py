"""Shared grid plumbing for the verifiers.

Two integration paths, both dispatchable to the independent oracle when
spec.oracle is set:

  * polar path (m = 2): full (r, phi, y) quadrature through integrate_polar,
    used whenever the function carries angular modes;
  * radial-x path (any m): functions radial in x reduce to an (r, y) tensor
    integral times the closed-form sphere area; no angular nodes are spent.

Both paths take a density in the quadrature protocol: density(r, y) runs
once per check on the grid (r of shape (n_r, 1), y of shape (1, n_flat, k))
and returns at(phi), which yields every integrand of the check in order.
polar_integral and rx_integral return one integral per integrand; the
radial-x path takes the integrands at phi = 0.0 only.  So each check makes
one integration call: its weights are formed once, and its test function
once per angular node, for all its integrals.
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
    oracle_integrate,
    tensor_grid,
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


def polar_integral(density, spec: QuadratureSpec, domain: Domain) -> list:
    """Real parts of the (r, phi, y) integrals of density, oracle-dispatched."""
    if spec.oracle:
        vals = oracle_integrate(
            density, domain, resolution=(ORACLE_N_R, max(spec.n_phi, 4), ORACLE_N_Y)
        )
    else:
        vals = integrate_polar(density, spec, domain)
    return [float(np.real(v)) for v in vals]


def rx_integral(density, spec: QuadratureSpec, domain: Domain, m: int) -> list:
    """sphere_area(m) * integral of each integrand at phi = 0.0 times r^(m-1) dr dy.

    density follows the polar protocol; its integrands are taken at
    phi = 0.0 only.  Oracle-dispatched.
    """
    if spec.oracle:
        fold = sphere_area(m) / (2.0 * np.pi)

        def wrapped(r, y):
            at = density(r, y)
            return lambda phi: (vals * r ** (m - 2) * fold for vals in at(0.0))

        return [float(np.real(v)) for v in oracle_integrate(
            wrapped, domain, resolution=(ORACLE_N_R, 1, ORACLE_N_Y))]

    r, w_r, Y, w_y = tensor_grid(spec, domain)
    base = (w_r * r ** (m - 1))[:, None] * w_y[None, :]
    out = []
    for vals in density(r[:, None], Y[None, :, :])(0.0):
        vals = np.broadcast_to(np.asarray(vals), base.shape)
        if not np.all(np.isfinite(vals)):
            raise NonFiniteError("integrand evaluated to NaN or infinity at a quadrature node")
        out.append(sphere_area(m) * float(np.real(np.sum(base * vals))))
    return out


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


def mode_zero_sq(f: TestFunction, r, y) -> np.ndarray:
    """|f0|^2 on the grid (r, y), for the zeroth angular mode f0 of f."""
    f0 = angular_average(f)
    if not f0.modes:
        return np.zeros(np.broadcast_shapes(np.shape(r), y.shape[:-1]))
    return abs2(f0.value_polar(r, 0.0, y))
