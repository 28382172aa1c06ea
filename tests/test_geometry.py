"""Closed-form identities of the anisotropic gauge distance and its weights."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maghardy import GrushinGeometry, Point, WeightExponents
from maghardy.errors import DomainError, OriginError
from maghardy.geometry import (
    dilate,
    drho_dr_over_rho,
    grad_rho,
    grad_y_rho_over_rho,
    hardy_density_rs,
    rho,
    rho_power_rs,
    rho_rs,
    sphere_area,
    weight_B,
    weight_B_rs,
)


def rand_geom(rng):
    return GrushinGeometry(int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                           float(rng.uniform(0.0, 2.0)))


def rand_point(rng, geom, r_lo=0.05, r_hi=20.0):
    x = rng.normal(size=geom.m)
    x *= rng.uniform(r_lo, r_hi) / np.linalg.norm(x)
    return Point(x, rng.uniform(-20.0, 20.0, size=geom.k))


def grad_rho_norm(g, r, s, rng):
    """|grad_g rho| of the pointwise gradient at |x| = r, |y| = s, random directions."""
    geom = GrushinGeometry(2, 2, g)
    out = np.empty(len(r))
    for i, (ri, si) in enumerate(zip(r, s)):
        x, y = rng.normal(size=2), rng.normal(size=2)
        p = Point(x * (ri / np.linalg.norm(x)), y * (si / np.linalg.norm(y)))
        out[i] = np.linalg.norm(grad_rho(geom, p))
    return out


def test_derivative_split_identity_bulk():
    # (d_r rho / rho)^2 + r^(2g) |grad_y rho / rho|^2 must equal
    # |grad_g rho|^2 / rho^2 pointwise; this is the pivot every radial
    # integration-by-parts argument turns on.
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for _ in range(10):
        g = float(rng.uniform(0.0, 2.0))
        r = rng.uniform(0.05, 20.0, size=1000)
        s = rng.uniform(0.0, 20.0, size=1000)
        rv = rho_rs(g, r, s)
        X = rho_power_rs(g, r, s)
        lhs = drho_dr_over_rho(g, r, X) ** 2 + r ** (2 * g) * grad_y_rho_over_rho(g, s, X) ** 2
        rhs = (grad_rho_norm(g, r, s, rng) / rv) ** 2
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / rhs)))
    assert worst <= 1e-12


def test_hardy_density_matches_split():
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = float(rng.uniform(0.0, 2.0))
        r = rng.uniform(0.01, 30.0, size=200)
        s = rng.uniform(0.0, 30.0, size=200)
        rv = rho_rs(g, r, s)
        w = hardy_density_rs(g, r, rho_power_rs(g, r, s))
        expect = (grad_rho_norm(g, r, s, rng) / rv) ** 2
        np.testing.assert_allclose(w, expect, rtol=1e-13)


def test_homogeneity_and_gradient_norm():
    rng = np.random.default_rng(7011)
    worst_h = worst_n = 0.0
    for _ in range(10):
        geom = rand_geom(rng)
        for _ in range(100):
            p = rand_point(rng, geom)
            lam = float(rng.uniform(0.1, 10.0))
            r0 = rho(geom, p)
            worst_h = max(worst_h, abs(rho(geom, dilate(geom, lam, p)) - lam * r0) / (lam * r0))
            nrm = float(np.linalg.norm(grad_rho(geom, p)))
            expect = (p.r / r0) ** geom.gamma
            worst_n = max(worst_n, abs(nrm - expect) / expect)
    assert worst_h <= 1e-12
    assert worst_n <= 1e-12


@given(
    g=st.floats(0.0, 2.0),
    r=st.floats(1e-3, 1e3),
    s=st.floats(0.0, 1e3),
    lam=st.floats(0.01, 100.0),
)
@settings(max_examples=200, deadline=None)
def test_rho_one_homogeneous(g, r, s, lam):
    left = rho_rs(g, lam * r, lam ** (1.0 + g) * s)
    right = lam * rho_rs(g, r, s)
    assert abs(left - right) <= 1e-11 * right


@given(g=st.floats(0.0, 2.0), r=st.floats(1e-3, 1e3), s=st.floats(0.0, 1e3))
@settings(max_examples=200, deadline=None)
def test_rho_dominates_r(g, r, s):
    # the gauge distance is never smaller than |x|
    assert rho_rs(g, r, s) >= r * (1.0 - 1e-12)


def test_hom_dim_values():
    assert GrushinGeometry(2, 1, 1.0).hom_dim == 4.0
    assert GrushinGeometry(2, 1, 0.0).hom_dim == 3.0
    assert math.isclose(GrushinGeometry(3, 2, 0.5).hom_dim, 6.0)


def test_sphere_area_frozen():
    assert math.isclose(sphere_area(1), 2.0, rel_tol=1e-15)
    assert math.isclose(sphere_area(2), 2.0 * math.pi, rel_tol=1e-15)
    assert math.isclose(sphere_area(3), 4.0 * math.pi, rel_tol=1e-15)


def test_weight_closed_form():
    rng = np.random.default_rng(99)
    geom = GrushinGeometry(2, 1, 0.7)
    exps = WeightExponents(1.3, -0.4)
    for _ in range(50):
        p = rand_point(rng, geom)
        rv = rho(geom, p)
        direct = p.r ** (exps.alpha2 * geom.gamma) * rv ** (exps.alpha1 - exps.alpha2 * geom.gamma)
        assert math.isclose(weight_B(geom, exps, p), direct, rel_tol=1e-13)
        assert math.isclose(
            weight_B_rs(geom.gamma, exps.alpha1, exps.alpha2, p.r,
                        rho_power_rs(geom.gamma, p.r, abs(p.y[0]))),
            direct, rel_tol=1e-13)


def test_weight_reduces_to_pure_rho_power():
    # alpha2 = 0 must not touch r at all, even at r = 0: one power of X
    X = rho_power_rs(1.0, 0.0, 2.0)
    assert X == 16.0  # (1 + gamma)^2 s^2 at r = 0, so rho = 2
    assert weight_B_rs(1.0, 3.0, 0.0, 0.0, X) == X ** 0.75 == 8.0


def test_bad_parameters_rejected():
    with pytest.raises(DomainError):
        GrushinGeometry(0, 1, 1.0)
    with pytest.raises(DomainError):
        GrushinGeometry(2, 0, 1.0)
    with pytest.raises(DomainError):
        GrushinGeometry(2, 1, -0.5)
    with pytest.raises(DomainError):
        WeightExponents(float("nan"), 0.0)


def test_origin_and_dimension_guards():
    geom = GrushinGeometry(2, 1, 1.0)
    with pytest.raises(OriginError):
        grad_rho(geom, Point(np.zeros(2), np.zeros(1)))
    with pytest.raises(OriginError):
        weight_B(geom, WeightExponents(1.0, 0.0), Point(np.zeros(2), np.zeros(1)))
    with pytest.raises(DomainError):
        rho(geom, Point(np.zeros(3), np.zeros(1)))
    with pytest.raises(DomainError):
        dilate(geom, 0.0, Point(np.ones(2), np.ones(1)))


def test_rho_at_origin_is_zero():
    geom = GrushinGeometry(2, 1, 1.0)
    assert rho(geom, Point(np.zeros(2), np.zeros(1))) == 0.0
