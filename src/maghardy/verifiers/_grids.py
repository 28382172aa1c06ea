"""Shared grid plumbing for the verifiers.

Two integration paths, both dispatchable to the independent oracle when
spec.oracle is set:

  * polar path (m = 2): full (r, phi, y) quadrature through integrate_polar,
    used whenever the function carries angular modes;
  * radial-x path (radial_integral): the integrands at phi = 0.0 over
    r^power dr dy, no angular nodes spent; functions radial in x take power
    m - 1 times the sphere area (rx_integral), the 1-D Lp checks power 0.

integrate(density, f, spec, m) holds the one rule for a check that admits
both: the polar path on m = 2, the radial-x path otherwise.  Checks stated
for x-radial functions only call rx_integral directly, on m = 2 too.

Both paths take a density in the quadrature protocol: density(r, y) runs
once per row block of the grid (r of shape (n_rows, 1), y of shape
(1, n_flat, k); a grid of at most quadrature.BLOCK_NODES nodes is one block)
and returns at(phi), which yields every integrand of the check on that block
in order, for phi a float or a column of angular nodes (n_c, 1, 1).
polar_integral and radial_integral return one integral per integrand over
the support of the test function f, through the same tensor pass of the
main engine, or through the oracle.  So each check makes one integration
call: its weights are formed once per block, and its test function once per
block and tile of angular nodes, for all its integrals.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..errors import DomainError, require_param
from ..fields import ConstantFieldPotentials, FluxParam
from ..functions import TestFunction
from ..geometry import GrushinGeometry, WeightExponents, sphere_area
from ..quadrature import (
    TWO_PI,
    Domain,
    QuadratureSpec,
    integrate_polar,
    integrate_radial,
    oracle_integrate,
)

# Oracle resolutions: uniform Simpson needs enough nodes to beat 1e-7 against
# the Gauss panels; these are deliberate overkill at desk scale.
ORACLE_N_R = 2401
ORACLE_N_Y = 161


_KINDS = {"geom": GrushinGeometry, "exps": WeightExponents, "flux": FluxParam,
          "pots": ConstantFieldPotentials, "psi": Callable, "kappa": Callable,
          "f": TestFunction, "spec": QuadratureSpec}


def require_args(what: str, **args) -> None:
    """require_param on each argument, with the kind _KINDS gives its name."""
    for name, value in args.items():
        require_param(what, name, value, _KINDS[name])


def sharp_constant(theorem_id: str, *values) -> float:
    """The sharp constant of theorem_id on values, from its catalogue record."""
    from .catalogue import CHECKS   # which imports the verifiers, so not at load
    return CHECKS[theorem_id].constant(*values)


def support_domain(f: TestFunction) -> Domain:
    """Integration domain covering the support hull of f."""
    r_lo, r_hi, y_box, breaks = f.support()
    return Domain(r_lo=r_lo, r_hi=r_hi, y_box=y_box, r_breaks=breaks)


def require_phi_resolution(f: TestFunction, spec: QuadratureSpec) -> None:
    """Angular trapezoid is exact only below the aliasing threshold; refuse above."""
    need = 4 * (f.max_abs_mode + 1)
    if spec.n_phi < need:
        raise DomainError(
            f"n_phi={spec.n_phi} cannot resolve modes up to {f.max_abs_mode}; "
            f"need n_phi >= {need}"
        )


def polar_integral(density, f: TestFunction, spec: QuadratureSpec) -> list:
    """Real parts of the (r, phi, y) integrals of density over the support of f.

    n_phi must resolve the modes of f.  Oracle-dispatched.
    """
    require_phi_resolution(f, spec)
    domain = support_domain(f)
    if spec.oracle:
        vals = oracle_integrate(
            density, domain, resolution=(ORACLE_N_R, max(spec.n_phi, 4), ORACLE_N_Y)
        )
    else:
        vals = integrate_polar(density, spec, domain)
    return [float(np.real(v)) for v in vals]


def radial_integral(density, f: TestFunction, spec: QuadratureSpec, power) -> list:
    """Real parts of the integrals of each integrand at phi = 0.0 times r^power dr dy.

    density follows the polar protocol; its integrands are taken at
    phi = 0.0 only, over the support of f.  The one oracle dispatch of the
    x-radial path: the oracle integrates over r dr dphi on one angular node,
    so each integrand is folded by r^(power-1) / (2 pi).
    """
    domain = support_domain(f)
    if not spec.oracle:
        return integrate_radial(density, spec, domain, power)

    def folded(r, y):
        at = density(r, y)
        return lambda phi: (vals * r ** (power - 1) / TWO_PI for vals in at(0.0))

    return [float(np.real(v)) for v in oracle_integrate(
        folded, domain, resolution=(ORACLE_N_R, 1, ORACLE_N_Y))]


def rx_integral(density, f: TestFunction, spec: QuadratureSpec, m: int) -> list:
    """sphere_area(m) times the radial_integral of density at power m - 1."""
    return [sphere_area(m) * v for v in radial_integral(density, f, spec, m - 1)]


def integrate(density, f: TestFunction, spec: QuadratureSpec, m: int) -> list:
    """The integrals of density on the polar path (m = 2) or the radial-x path."""
    if m == 2:
        return polar_integral(density, f, spec)
    return rx_integral(density, f, spec, m)


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
    # component by component, not a ufunc reduce over the short trailing
    # axis; bitwise equal to np.sum(abs2(dy), axis=-1) for k < 8 (numpy's
    # unrolled pairwise sum adds in another order from k = 8)
    out = abs2(dy[..., 0])
    for j in range(1, dy.shape[-1]):
        out = out + abs2(dy[..., j])
    return out


def components_sq(components) -> np.ndarray:
    """Sum of |component|^2 of a magnetic or twisted gradient from fields."""
    cr, cphi, *yblocks = components
    out = abs2(cr) + abs2(cphi)
    for block in yblocks:
        out = out + grad_y_sq(block)
    return out
