"""Shared grid plumbing for the verifiers.

Two integration paths, both dispatchable to the independent oracle when
spec.oracle is set:

  * polar path (m = 2): (r, phi, y) integrals through integrate_polar,
    used whenever the function carries angular modes; the main engine
    takes each integrand once per angular mode of f and adds them
    (Parseval), the oracle at its uniform angular nodes;
  * radial-x path (radial_integral): the integrands on f's one mode, mode
    0, over r^power dr dy, no angular nodes spent; functions radial in x
    take power m - 1 times the sphere area (rx_integral), the 1-D Lp checks
    power 0; the oracle takes them at one angle.

integrate(density, f, spec, m) holds the one rule for a check that admits
both: the polar path on m = 2, the radial-x path otherwise.  Checks stated
for x-radial functions only call rx_integral directly, on m = 2 too.

Both paths take a verifier density: density(r, y) runs once per row block
of the grid (r (n_rows, 1), y (1, n_flat, k); blocks of whole rows, at most
quadrature.BLOCK_NODES nodes on the main engine and ORACLE_BLOCK_NODES on
the oracle, or one row), forms the check's weights and field factors there
and returns at(parts, f0), which yields every integrand of the check in
order from f's parts (f, df/dr, df/dphi, grad_y f) and f0, the part of f
that mode 0 carries.  _on_f makes it a density of the quadrature protocol:
one TestFunction.on_grid closure per block hands at the parts and mode_zero
on each of f's modes (the main engine) or angles (the oracle), so a
density reads neither a mode nor an angle and serves both engines.  On the
main engine each 1-D factor of f runs once per integration, not once per
block: _on_f's prepare hook, which the tensor pass calls once on its whole
rules, evaluates them there (TestFunction.factors_on_rule; functions._on_rule
applies a plateau factor's shape to the table functions.plateau_panels where
the rule's panels are the factor's own, and runs its smoothstep elsewhere),
and each block's closure takes its rows of them.  Every integrand is a real
float array, built from abs2, components_sq, grad_y_sq or |.|^p, and a
Hermitian form in f's parts, whose phi integral is 2 pi times its sum over
the modes; f0 is 0 on every mode but mode 0, so the mode defect
|f|^2 - |f0|^2 integrates sum_(k != 0) |g_k|^2 on the main engine.  Each
check makes one integration call.

y parity: when f is even in every y_j (TestFunction.y_even, declared by its
profiles), support_domain marks the domain y_even and the main engine takes
the y rule's nodes y_j >= 0 only, each node off 0 at twice its weight.  So
every density must be even in every y_j whenever f is.  The Grushin
densities are: B, the Hardy weight and X depend on y through |y|, and
the field factors grad_y(rho)/rho and Atilde's y block, odd in y_j, enter
only beside the odd grad_y f, inside a squared modulus.  The oracle
integrates the whole box.
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
    """Integration domain covering the support hull of f, marked y_even when
    f is, so the main engine runs the half box y >= 0."""
    r_lo, r_hi, y_box, breaks = f.support()
    return Domain(r_lo=r_lo, r_hi=r_hi, y_box=y_box, r_breaks=breaks, y_even=f.y_even)


def require_phi_resolution(f: TestFunction, spec: QuadratureSpec) -> None:
    """Angular trapezoid is exact only below the aliasing threshold; refuse above."""
    need = 4 * (f.max_abs_mode + 1)
    if spec.n_phi < need:
        raise DomainError(
            f"n_phi={spec.n_phi} cannot resolve modes up to {f.max_abs_mode}; "
            f"need n_phi >= {need}"
        )


def _on_f(density, f: TestFunction, spec: QuadratureSpec, domain: Domain):
    """(block, prepare): density in the quadrature protocol, at(x) on f's
    parts at x, and the main engine's prepare hook, which evaluates f's
    1-D factors once per integration for every block's on_grid
    (TestFunction.factors_on_rule).  The oracle takes block alone."""
    factors = None

    def prepare(r, Y):
        nonlocal factors
        factors = f.factors_on_rule(r, Y, domain, spec)

    def block(r, y):
        on = f.on_grid(r, y, None if factors is None else factors(r))
        at = density(r, y)
        return lambda x: at(on(x), on.mode_zero(x))

    return block, prepare


def polar_integral(density, f: TestFunction, spec: QuadratureSpec) -> list:
    """The (r, phi, y) integrals of density over the support of f.

    The main engine runs once per mode of f; the oracle at max(n_phi, 4)
    angular nodes.  n_phi must resolve the modes of f on both, so a run
    the oracle would refuse is refused on the main engine too.
    """
    require_phi_resolution(f, spec)
    domain = support_domain(f)
    density, prepare = _on_f(density, f, spec, domain)
    if spec.oracle:
        return oracle_integrate(
            density, domain, resolution=(ORACLE_N_R, max(spec.n_phi, 4), ORACLE_N_Y)
        )
    return integrate_polar(density, spec, domain, f.modes, prepare)


def radial_integral(density, f: TestFunction, spec: QuadratureSpec, power) -> list:
    """The integrals of each integrand times r^power dr dy.

    density is a verifier density; the main engine takes its integrands
    on the modes of f (an f radial in x has the one mode 0) over the support
    of f.  The one oracle dispatch of the x-radial path: the oracle
    integrates over r dr dphi on one angular node, so each integrand is
    folded by r^(power-1) / (2 pi).
    """
    domain = support_domain(f)
    density, prepare = _on_f(density, f, spec, domain)
    if not spec.oracle:
        return integrate_radial(density, spec, domain, f.modes, power, prepare)

    def folded(r, y):
        at = density(r, y)
        return lambda phi: (vals * r ** (power - 1) / TWO_PI for vals in at(0.0))

    return oracle_integrate(folded, domain, resolution=(ORACLE_N_R, 1, ORACLE_N_Y))


def rx_integral(density, f: TestFunction, spec: QuadratureSpec, m: int) -> list:
    """sphere_area(m) times the radial_integral of density at power m - 1."""
    return [sphere_area(m) * v for v in radial_integral(density, f, spec, m - 1)]


def integrate(density, f: TestFunction, spec: QuadratureSpec, m: int) -> list:
    """The integrals of density on the polar path (m = 2) or the radial-x path."""
    if m == 2:
        return polar_integral(density, f, spec)
    return rx_integral(density, f, spec, m)


def abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2: z * z for a float array; re^2 + im^2 for a complex one.

    The two squares are rounded apart, never fused, so |i z|^2 equals
    |z|^2 bit for bit (i z is (-im, re) exactly), whatever numpy's SIMD
    dispatch, and a complex array of imaginary part 0 gives the float
    form's bits."""
    if z.dtype.kind == "c":
        re, im = z.real, z.imag
        out = re * re
        out += im * im
        return out
    return z * z


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
