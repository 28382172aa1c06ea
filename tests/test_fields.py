"""Vector potentials and assembled gradients vs central finite differences."""

import math

import numpy as np
import pytest

from maghardy import GrushinGeometry, Point, WeightExponents
from maghardy.errors import DomainError, NonFiniteError, OriginError
from maghardy.fields import (
    ConstantFieldPotentials,
    FluxParam,
    RadialPotential,
    ab_potential,
    constant_field_grad,
    grushin_potential,
    magnetic_grad,
    twisted_grad_psi,
)
from maghardy.functions import evaluate, random_test_function
from maghardy.geometry import grad_rho, rho, weight_B
from maghardy.quadrature import QuadratureSpec
from maghardy.verifiers import _grids, grushin, landau, verify_ab_hardy, verify_landau
from maghardy.verifiers import verify_constant_field, verify_magnetic_grushin

from _closed_forms import power_gaussian


def draw_point(rng, f, m=2):
    """Point in the middle band of f's support, clear of the cutoff corners."""
    r_lo, r_hi, box, _ = f.support()
    u = rng.uniform(0.35, 0.65)
    r = math.exp((1 - u) * math.log(r_lo) + u * math.log(r_hi))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    if m == 2:
        x = np.array([r * math.cos(phi), r * math.sin(phi)])
    else:
        x = rng.normal(size=m)
        x *= r / np.linalg.norm(x)
    y = np.array([rng.uniform(lo + 0.35 * (hi - lo), hi - 0.35 * (hi - lo))
                  for lo, hi in box])
    return Point(x, y)


def fd_plain_gradient(f, p, h_x, h_y):
    m, k = len(p.x), len(p.y)
    gx = np.zeros(m, complex)
    for j in range(m):
        e = np.zeros(m)
        e[j] = h_x
        gx[j] = (evaluate(f, Point(p.x + e, p.y)) - evaluate(f, Point(p.x - e, p.y))) / (2 * h_x)
    gy = np.zeros(k, complex)
    for j in range(k):
        e = np.zeros(k)
        e[j] = h_y
        gy[j] = (evaluate(f, Point(p.x, p.y + e)) - evaluate(f, Point(p.x, p.y - e))) / (2 * h_y)
    return gx, gy


def rel_vec_err(analytic, expected):
    scale = max(float(np.linalg.norm(analytic)), 1e-30)
    return float(np.linalg.norm(np.asarray(analytic) - np.asarray(expected))) / scale


# --- potentials -------------------------------------------------------------

def test_grushin_potential_norm_closed_form():
    rng = np.random.default_rng(31)
    for _ in range(30):
        geom = GrushinGeometry(2, int(rng.integers(1, 3)), float(rng.uniform(0.0, 2.0)))
        x = rng.normal(size=2)
        x *= rng.uniform(0.2, 3.0) / np.linalg.norm(x)
        p = Point(x, rng.uniform(-2.0, 2.0, size=geom.k))
        a = grushin_potential(geom, p)
        rv = rho(geom, p)
        want = p.r ** geom.gamma / rv ** (geom.gamma + 1.0)
        assert abs(np.linalg.norm(a) - want) <= 1e-12 * want


def test_ab_potential_rotation_structure():
    rng = np.random.default_rng(32)
    geom = GrushinGeometry(2, 1, 1.3)
    for _ in range(20):
        x = rng.normal(size=2)
        x *= rng.uniform(0.2, 3.0) / np.linalg.norm(x)
        p = Point(x, rng.uniform(-2.0, 2.0, size=1))
        a = ab_potential(geom, p)
        g = grushin_potential(geom, p)
        # x-block is the rotated x-block of the unrotated potential
        assert abs(a[0] + g[1]) <= 1e-14 * np.linalg.norm(g)
        assert abs(a[1] - g[0]) <= 1e-14 * np.linalg.norm(g)
        # the duplicated y blocks carry 1/sqrt2 each, so norms match
        assert abs(np.linalg.norm(a) - np.linalg.norm(g)) <= 1e-12 * np.linalg.norm(g)
        # and the x-block is orthogonal to x
        assert abs(a[0] * x[0] + a[1] * x[1]) <= 1e-13 * np.linalg.norm(g) * p.r


def test_ab_potential_needs_m2():
    with pytest.raises(DomainError):
        ab_potential(GrushinGeometry(3, 1, 1.0), Point(np.ones(3), np.ones(1)))


def test_radial_potential_constructors():
    c = RadialPotential.constant(0.5)
    assert c.kind == "constant" and c.params == (0.5,)
    np.testing.assert_allclose(c(np.array([0.1, 2.0])), [0.5, 0.5])
    pw = RadialPotential.power(2.0, 3.0)
    np.testing.assert_allclose(pw(np.array([2.0])), [16.0])
    sing = RadialPotential.power(1.0, -1.0)
    with np.errstate(divide="ignore"), pytest.raises(NonFiniteError):
        sing(np.array([0.0]))


def test_constant_field_potentials_validation():
    with pytest.raises(DomainError):
        ConstantFieldPotentials(math.nan)
    assert ConstantFieldPotentials(0.7).slope == 0.7
    assert ConstantFieldPotentials().slope == 0.5


# --- gradient assemblies vs finite differences ------------------------------

def test_grad_rho_matches_fd():
    rng = np.random.default_rng(40)
    worst = 0.0
    for _ in range(30):
        geom = GrushinGeometry(int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                               float(rng.uniform(0.0, 2.0)))
        x = rng.normal(size=geom.m)
        x *= rng.uniform(0.3, 3.0) / np.linalg.norm(x)
        p = Point(x, rng.uniform(-2.0, 2.0, size=geom.k))
        h = 1e-6 * max(p.r, 1.0)
        fd_x = np.zeros(geom.m)
        for j in range(geom.m):
            e = np.zeros(geom.m)
            e[j] = h
            fd_x[j] = (rho(geom, Point(x + e, p.y)) - rho(geom, Point(x - e, p.y))) / (2 * h)
        fd_y = np.zeros(geom.k)
        for j in range(geom.k):
            e = np.zeros(geom.k)
            e[j] = h
            fd_y[j] = (rho(geom, Point(x, p.y + e)) - rho(geom, Point(x, p.y - e))) / (2 * h)
        expected = np.concatenate([fd_x, p.r ** geom.gamma * fd_y])
        worst = max(worst, rel_vec_err(grad_rho(geom, p), expected))
    assert worst <= 1e-6


def test_magnetic_grushin_gradient_matches_fd():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(25):
        geom = GrushinGeometry(2, int(rng.integers(1, 3)), float(rng.uniform(0.0, 2.0)))
        flux = FluxParam(float(rng.uniform(-1.0, 1.0)))
        f = random_test_function(rng, k=geom.k, modes=(-1, 0, 1))
        p = draw_point(rng, f)
        gx, gy = fd_plain_gradient(f, p, 1e-5 * p.r, 1e-5)
        val = evaluate(f, p)
        expected = (np.concatenate([gx, p.r ** geom.gamma * gy])
                    + 1j * flux.beta * grushin_potential(geom, p) * val)
        worst = max(worst, rel_vec_err(magnetic_grad("grushin", flux, geom, f, p), expected))
    assert worst <= 1e-6


def test_magnetic_tilde_gradient_matches_fd():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(25):
        geom = GrushinGeometry(2, 1, float(rng.uniform(0.0, 2.0)))
        flux = FluxParam(float(rng.uniform(-1.0, 1.0)))
        f = random_test_function(rng, k=1, modes=(0, 1, 2))
        p = draw_point(rng, f)
        gx, gy = fd_plain_gradient(f, p, 1e-5 * p.r, 1e-5)
        val = evaluate(f, p)
        yblock = (p.r ** geom.gamma / math.sqrt(2.0)) * gy
        expected = (np.concatenate([gx, yblock, yblock])
                    + 1j * flux.beta * ab_potential(geom, p) * val)
        worst = max(worst, rel_vec_err(magnetic_grad("tilde", flux, geom, f, p), expected))
    assert worst <= 1e-6


def test_twisted_gradient_matches_fd():
    rng = np.random.default_rng(43)
    worst = 0.0
    psi = RadialPotential.power(0.5, 1.0)
    for _ in range(25):
        f = random_test_function(rng, k=0, modes=(-1, 0, 2))
        p = draw_point(rng, f)
        gx, _ = fd_plain_gradient(f, p, 1e-5 * p.r, 1e-5)
        val = evaluate(f, p)
        pv = float(psi(np.asarray(p.r)))
        expected = np.array([gx[0] - 1j * pv * p.x[1] * val,
                             gx[1] + 1j * pv * p.x[0] * val])
        worst = max(worst, rel_vec_err(twisted_grad_psi(psi, f, p), expected))
    assert worst <= 1e-6


def test_twisted_gradient_refuses_the_origin():
    # f = (x + iy) e^(-|z|^2 / 2) has gradient (1, i) at z = 0, and next to
    # it psi's term is |z|^2 / 2 small: the origin is refused, not read as 0
    f = power_gaussian(1, 0.5, (1,))
    psi = RadialPotential.constant(0.5)
    near = twisted_grad_psi(psi, f, Point(np.array([1e-7, 0.0]), np.zeros(0)))
    assert rel_vec_err(near, np.array([1.0, 1j])) <= 1e-12
    with pytest.raises(OriginError):
        twisted_grad_psi(psi, f, Point(np.zeros(2), np.zeros(0)))


@pytest.mark.parametrize("real", [False, True], ids=["complex amplitude", "real amplitude"])
def test_pointwise_gradients_match_fd_on_mode_zero_functions(real):
    # mode 0 alone: the closure adds its kept arrays without a phase, and a
    # real amplitude keeps them float
    rng = np.random.default_rng(47)
    psi = RadialPotential.power(0.5, 1.0)
    worst = 0.0
    for _ in range(10):
        geom = GrushinGeometry(2, 1, float(rng.uniform(0.0, 2.0)))
        flux = FluxParam(float(rng.uniform(-1.0, 1.0)))
        f = random_test_function(rng, k=1, modes=(0,), real=real)
        p = draw_point(rng, f)
        gx, gy = fd_plain_gradient(f, p, 1e-5 * p.r, 1e-5)
        val = evaluate(f, p)
        grushin_want = (np.concatenate([gx, p.r ** geom.gamma * gy])
                        + 1j * flux.beta * grushin_potential(geom, p) * val)
        yblock = (p.r ** geom.gamma / math.sqrt(2.0)) * gy
        tilde_want = (np.concatenate([gx, yblock, yblock])
                      + 1j * flux.beta * ab_potential(geom, p) * val)
        f0 = random_test_function(rng, k=0, modes=(0,), real=real)
        p0 = draw_point(rng, f0)
        gx0, _ = fd_plain_gradient(f0, p0, 1e-5 * p0.r, 1e-5)
        val0, pv = evaluate(f0, p0), float(psi(np.asarray(p0.r)))
        twisted_want = np.array([gx0[0] - 1j * pv * p0.x[1] * val0,
                                 gx0[1] + 1j * pv * p0.x[0] * val0])
        worst = max(worst,
                    rel_vec_err(magnetic_grad("grushin", flux, geom, f, p), grushin_want),
                    rel_vec_err(magnetic_grad("tilde", flux, geom, f, p), tilde_want),
                    rel_vec_err(twisted_grad_psi(psi, f0, p0), twisted_want))
    assert worst <= 1e-6


def test_constant_field_gradient_matches_fd():
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(15):
        geom = GrushinGeometry(1, 1, float(rng.uniform(0.0, 2.0)))
        pots = ConstantFieldPotentials(float(rng.uniform(0.1, 1.0)))
        f = random_test_function(rng, k=1, modes=(0,), real=True)
        p = draw_point(rng, f, m=1)
        gx, gy = fd_plain_gradient(f, p, 1e-5 * p.r, 1e-5)
        val = evaluate(f, p)
        expected = np.array([1j * gx[0] + pots.slope * p.y[0] * val,
                             1j * p.r ** geom.gamma * gy[0] + pots.slope * p.x[0] * val])
        worst = max(worst, rel_vec_err(constant_field_grad(pots, geom, f, p), expected))
    assert worst <= 1e-6


def test_real_function_magnetic_split_pointwise():
    # |(grad + i b A) f|^2 = |grad f|^2 + b^2 |A|^2 f^2 whenever f is real:
    # the cross term is purely imaginary and drops out of the square
    rng = np.random.default_rng(45)
    geom = GrushinGeometry(2, 1, 1.0)
    flux = FluxParam(0.8)
    f = random_test_function(rng, k=1, modes=(0, 1), real=True)
    for _ in range(10):
        p = draw_point(rng, f)
        total = float(np.sum(np.abs(magnetic_grad("grushin", flux, geom, f, p)) ** 2))
        g = magnetic_grad("grushin", FluxParam(0.0), geom, f, p)
        plain = float(np.sum(np.abs(g) ** 2))
        val = abs(evaluate(f, p)) ** 2
        pot = float(np.sum(grushin_potential(geom, p) ** 2))
        split = plain + flux.beta ** 2 * pot * val
        assert abs(total - split) <= 1e-12 * max(total, 1e-30)


# --- the verifiers integrate the pointwise gradients -------------------------

_TINY = QuadratureSpec(n_r=4, n_phi=12, n_y=2)


def _node(p):
    """p as the one-node grid (r, y) and its angle phi."""
    phi = math.atan2(p.x[1], p.x[0]) if len(p.x) == 2 else 0.0
    return np.full((1, 1), p.r), p.y[None, None, :], phi


def _first_integrand(monkeypatch, module, integral, run, p):
    """The first integrand (the gradient side) of the density a check
    integrates, at p: on the parts of its f at p's angle and their mode-0 part."""
    calls = []
    original = getattr(module, integral)

    def capture(density, f, *args):
        calls.append((density, f))
        return original(density, f, *args)

    with monkeypatch.context() as patch:
        patch.setattr(module, integral, capture)
        run()
    [(density, f)] = calls  # one integration call per check
    r, y, phi = _node(p)
    on = f.on_grid(r, y)
    return float(next(iter(density(r, y)(on(phi), on.mode_zero(phi)))).item())


# ids name the fields function each check's gradient side runs
@pytest.mark.parametrize("kind,m", [
    ("grushin", 2),
    ("grushin", 3),   # x-radial path
    ("tilde", 2),
], ids=["grushin-grushin_components-2", "grushin-grushin_components-3",
        "tilde-tilde_components-2"])
def test_magnetic_integrand_is_weighted_pointwise_gradient(monkeypatch, kind, m):
    rng = np.random.default_rng(46 + m)
    for _ in range(20):
        geom = GrushinGeometry(m, int(rng.integers(1, 3)), float(rng.uniform(0.0, 2.0)))
        exps = WeightExponents(float(rng.uniform(-0.5, 1.0)),
                               float(rng.uniform(-0.5, 0.5)))
        flux = FluxParam(float(rng.uniform(-1.0, 1.0)))
        modes = (-1, 0, 2) if m == 2 else (0,)
        if kind == "grushin":
            # the gradient-field bound is stated for real functions
            # through _grids.integrate, which picks the path by m
            f = random_test_function(rng, k=geom.k, modes=modes, real=True)
            module, integral = _grids, "polar_integral" if m == 2 else "rx_integral"
            run = lambda: verify_magnetic_grushin(geom, exps, flux, f, _TINY)
        else:
            f = random_test_function(rng, k=geom.k, modes=modes)
            module, integral = grushin, "polar_integral"
            run = lambda: verify_ab_hardy(geom, exps, flux, f, _TINY,
                                          admissibility="corollary")
        p = draw_point(rng, f, m=m)
        got = _first_integrand(monkeypatch, module, integral, run, p)
        grad = magnetic_grad(kind, flux, geom, f, p)
        want = weight_B(geom, exps, p) * float(np.sum(np.abs(grad) ** 2))
        assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("n", [1, 2], ids=["constant_field_grad-1", "constant_field_grad-2"])
def test_constant_field_integrand_is_weighted_pointwise_gradient(monkeypatch, n):
    # real x-radial f on m = k = n through the x-radial path: the verifier's
    # sphere reduction drops only cross terms that vanish for real f
    rng = np.random.default_rng(50 + n)
    for _ in range(20):
        gamma = float(rng.uniform(0.0, 2.0))
        geom = GrushinGeometry(n, n, gamma)
        exps = WeightExponents(2.0 - geom.hom_dim + float(rng.uniform(0.3, 2.0)),
                               float(rng.uniform(-0.4, 0.5)))
        pots = ConstantFieldPotentials(float(rng.uniform(0.1, 1.0)))
        f = random_test_function(rng, k=n, modes=(0,), real=True)
        p = draw_point(rng, f, m=n)
        run = lambda: verify_constant_field(geom, exps, pots, f, _TINY)
        got = _first_integrand(monkeypatch, grushin, "rx_integral", run, p)
        grad = constant_field_grad(pots, geom, f, p)
        want = weight_B(geom, exps, p) * float(np.sum(np.abs(grad) ** 2))
        assert abs(got - want) <= 1e-12 * want


def test_twisted_integrand_is_pointwise_gradient(monkeypatch):
    rng = np.random.default_rng(49)
    for _ in range(20):
        psi = RadialPotential.power(float(rng.uniform(-1.0, 1.0)),
                                    float(rng.uniform(0.5, 1.5)))
        f = random_test_function(rng, k=0, modes=(-1, 0, 2))
        p = draw_point(rng, f)
        # the bounded-ball variant weights the gradient side by exactly 1
        run = lambda: verify_landau("poincare", psi, None, f, _TINY, radius=10.0)
        got = _first_integrand(monkeypatch, landau, "polar_integral", run, p)
        want = float(np.sum(np.abs(twisted_grad_psi(psi, f, p)) ** 2))
        assert abs(got - want) <= 1e-12 * want


def test_gradient_error_paths():
    geom = GrushinGeometry(2, 1, 1.0)
    f = random_test_function(np.random.default_rng(1), k=1, modes=(0,))
    p = Point(np.array([1.0, 0.0]), np.array([0.0]))
    with pytest.raises(DomainError):
        magnetic_grad("unknown", FluxParam(0.0), geom, f, p)
    with pytest.raises(DomainError):
        magnetic_grad("tilde", FluxParam(0.0), GrushinGeometry(3, 1, 1.0), f,
                      Point(np.ones(3), np.zeros(1)))
    with pytest.raises(OriginError):
        magnetic_grad("grushin", FluxParam(0.0), geom, f, Point(np.zeros(2), np.ones(1)))
    fp = random_test_function(np.random.default_rng(2), k=0, modes=(0,))
    with pytest.raises(DomainError):
        twisted_grad_psi(RadialPotential.constant(1.0), fp, p)  # k must be 0
    with pytest.raises(DomainError):
        constant_field_grad(ConstantFieldPotentials(0.5), geom, f, p)
