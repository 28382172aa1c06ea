"""Quadrature rules against closed forms, plus main-engine/oracle agreement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maghardy import quadrature
from maghardy.errors import AdmissibilityError, DomainError, NonFiniteError
from maghardy.functions import make_bump
from maghardy.quadrature import (
    MAX_SLICE_NODES,
    Domain,
    _reference_rule,
    QuadratureSpec,
    gauss_legendre,
    integrate_polar,
    integrate_radial,
    log_radial_rule,
    oracle_integrate,
    phi_rule,
    tensor_grid,
    y_box_rule,
)
from maghardy.verifiers._grids import rx_integral, support_domain


def test_gauss_legendre_exact_on_polynomials():
    x, w = gauss_legendre(-1.5, 2.5, 8)
    for j in range(16):  # exact through degree 2n-1
        got = float(np.sum(w * x ** j))
        want = (2.5 ** (j + 1) - (-1.5) ** (j + 1)) / (j + 1)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_log_radial_rule_power_law():
    # integral of r^p dr over [a, b] has the elementary closed form
    a, b = 0.01, 50.0
    r, w = log_radial_rule(a, b, 40)
    for p in (-1.7, -1.0, 0.0, 2.3):
        got = float(np.sum(w * r ** p))
        if p == -1.0:
            want = math.log(b / a)
        else:
            want = (b ** (p + 1) - a ** (p + 1)) / (p + 1)
        assert abs(got - want) <= 1e-10 * abs(want)


def test_log_radial_rule_breaks_are_panel_edges():
    r, w = log_radial_rule(1.0, 4.0, 16, breaks=(2.0,))
    assert len(r) == 32
    assert np.all((r > 1.0) & (r < 4.0))
    assert np.all(w > 0.0)
    # breaks outside the interval are ignored
    r2, _ = log_radial_rule(1.0, 4.0, 16, breaks=(0.5, 9.0))
    assert len(r2) == 16


def test_phi_rule_trig_exactness():
    phis, w = phi_rule(16)
    assert math.isclose(w * len(phis), 2.0 * math.pi, rel_tol=1e-15)
    for j in range(1, 16):
        s = np.sum(np.exp(1j * j * phis)) * w
        assert abs(s) <= 1e-12
    assert abs(np.sum(np.exp(0j * phis)) * w - 2.0 * math.pi) <= 1e-12


def test_y_box_rule_shapes_and_polynomial_exactness():
    Y, W = y_box_rule(((-1.0, 2.0),), 6)
    assert Y.shape == (18, 1) and W.shape == (18,)  # 3 panels x 6 nodes
    got = float(np.sum(W * Y[:, 0] ** 5))
    want = (2.0 ** 6 - 1.0) / 6.0
    assert abs(got - want) <= 1e-12 * abs(want)

    Y2, W2 = y_box_rule(((-1.0, 1.0), (0.0, 3.0)), 4)
    assert Y2.shape == (144, 2)
    got = float(np.sum(W2 * Y2[:, 0] ** 2 * Y2[:, 1]))
    want = (2.0 / 3.0) * (9.0 / 2.0)
    assert abs(got - want) <= 1e-12 * abs(want)

    Y0, W0 = y_box_rule((), 8)
    assert Y0.shape == (1, 0) and W0.tolist() == [1.0]


# ---------------------------------------------------------------------------
# cached reference rule against the per-call build it replaces
# ---------------------------------------------------------------------------

def _fresh_gauss_legendre(a, b, n):
    t, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * t, half * w


def _fresh_y_box_rule(y_box, n_y):
    if not y_box:
        return np.zeros((1, 0)), np.ones(1)
    axes, weights = [], []
    for lo, hi in y_box:
        q = 0.25 * (hi - lo)
        ts, ws = [], []
        for a, b in ((lo, lo + q), (lo + q, hi - q), (hi - q, hi)):
            t, w = _fresh_gauss_legendre(a, b, n_y)
            ts.append(t)
            ws.append(w)
        axes.append(np.concatenate(ts))
        weights.append(np.concatenate(ws))
    grids = np.meshgrid(*axes, indexing="ij")
    Y = np.stack([g.reshape(-1) for g in grids], axis=-1)
    W = weights[0]
    for w in weights[1:]:
        W = np.multiply.outer(W, w)
    return Y, W.reshape(-1)


def _ones_density(r, y):
    return lambda phi: (np.ones(r.shape),)


def test_rules_of_one_n_build_leggauss_once(monkeypatch):
    calls = []
    real = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda n: calls.append(n) or real(n))
    _reference_rule.cache_clear()
    for _ in range(3):
        gauss_legendre(-1.5, 2.5, 11)
        log_radial_rule(0.1, 3.0, 11, breaks=(0.5, 1.0))
        y_box_rule(((-1.0, 2.0), (0.0, 1.0)), 11)
        integrate_radial(_ones_density, QuadratureSpec(n_r=11), Domain(0.5, 2.0), 2)
    assert calls == [11]
    y_box_rule(((-1.0, 2.0),), 7)
    assert calls == [11, 7]


def test_cached_reference_rule_rejects_writes():
    t, w = _reference_rule(9)
    assert _reference_rule(9)[0] is t
    with pytest.raises(ValueError):
        t[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


@pytest.mark.parametrize("a, b, n", [(-1.5, 2.5, 8), (0.0, 1e-3, 64), (-7.25, -3.0, 240)])
def test_gauss_legendre_matches_fresh_rule_bitwise(a, b, n):
    x, w = gauss_legendre(a, b, n)
    x0, w0 = _fresh_gauss_legendre(a, b, n)
    assert np.array_equal(x, x0) and np.array_equal(w, w0)


def test_log_radial_rule_matches_fresh_panels_bitwise():
    r_lo, r_hi, n = 0.03, 12.0, 24
    us = [math.log(r_lo), math.log(0.1), math.log(2.0), math.log(r_hi)]
    rs, ws = [], []
    for a, b in zip(us[:-1], us[1:]):
        u, w = _fresh_gauss_legendre(a, b, n)
        r = np.exp(u)
        rs.append(r)
        ws.append(w * r)
    r, w = log_radial_rule(r_lo, r_hi, n, breaks=(2.0, 0.1, 50.0))
    assert np.array_equal(r, np.concatenate(rs))
    assert np.array_equal(w, np.concatenate(ws))


@pytest.mark.parametrize("y_box", [(), ((-1.0, 2.0),), ((-1.0, 1.0), (0.25, 3.5))])
def test_y_box_rule_matches_fresh_panels_bitwise(y_box):
    Y, W = y_box_rule(y_box, 12)
    Y0, W0 = _fresh_y_box_rule(y_box, 12)
    assert np.array_equal(Y, Y0) and np.array_equal(W, W0)


def _gauss_integrand(r, phi, y):
    return np.exp(-r * r) * (1.0 + np.cos(phi)) * np.exp(-y[..., 0] ** 2)


def _gauss_density(r, y):
    """One integrand, in the density(r, y) -> at(phi) protocol."""
    return lambda phi: (_gauss_integrand(r, phi, y),)


def _gauss_closed_form(r_lo, r_hi, L):
    radial = 0.5 * (math.exp(-r_lo ** 2) - math.exp(-r_hi ** 2))
    return radial * (2.0 * math.pi) * math.sqrt(math.pi) * math.erf(L)


def test_integrate_polar_against_closed_form():
    dom = Domain(0.05, 4.0, ((-2.0, 2.0),))
    spec = QuadratureSpec(n_r=64, n_phi=8, n_y=24)
    [got] = integrate_polar(_gauss_density, spec, dom)
    want = _gauss_closed_form(0.05, 4.0, 2.0)
    assert abs(got.imag) <= 1e-14 * abs(want)
    assert abs(got.real - want) <= 1e-10 * abs(want)


def test_oracle_agrees_with_main_engine():
    dom = Domain(0.05, 4.0, ((-2.0, 2.0),))
    [main] = integrate_polar(_gauss_density, QuadratureSpec(n_r=64, n_phi=8, n_y=24), dom)
    [check] = oracle_integrate(_gauss_density, dom, (2401, 16, 161))
    assert abs(main - check) <= 1e-7 * abs(check)


def test_every_integrand_of_a_pass_equals_its_own_integral():
    # several integrands in one phi pass give, bit for bit, what each gives alone
    dom = Domain(0.05, 4.0, ((-2.0, 2.0),))
    spec = QuadratureSpec(n_r=32, n_phi=8, n_y=16)
    integrands = (
        _gauss_integrand,
        lambda r, phi, y: np.sin(phi) * r * (1.0 + 0.0 * y[..., 0]),
        lambda r, phi, y: np.exp(1j * phi) * np.exp(-r) * (1.0 + y[..., 0] ** 2),
    )

    def together(r, y):
        return lambda phi: (h(r, phi, y) for h in integrands)

    for engine in (lambda d: integrate_polar(d, spec, dom),
                   lambda d: oracle_integrate(d, dom, (101, 8, 41))):
        alone = [engine(lambda r, y, h=h: lambda phi: (h(r, phi, y),))[0]
                 for h in integrands]
        assert engine(together) == alone


def test_density_runs_once_per_integration():
    calls = []

    def density(r, y):
        calls.append((r.shape, y.shape))
        return _gauss_density(r, y)

    dom = Domain(0.05, 4.0, ((-2.0, 2.0),))
    integrate_polar(density, QuadratureSpec(n_r=16, n_phi=12, n_y=4), dom)
    oracle_integrate(density, dom, (101, 12, 41))
    assert len(calls) == 2


# --- row blocks: a large grid is evaluated in blocks of radial rows ----------

# 3 radial panels of 40 nodes x 18 y nodes; a block of 200 nodes holds 11
# rows, so the 120 rows make 10 full blocks and a ragged block of 10
BLOCKED_F = make_bump(0.5, 2.0, ((-1.0, 1.0),))
BLOCKED_SPEC = QuadratureSpec(n_r=40, n_phi=8, n_y=6)
SMALL_BLOCK = 200


def _mixed_shape_density(r, y):
    """Integrands of shape (n_r, n_flat), (n_r, 1) and one per phi, real and complex."""
    def at(phi):
        yield _gauss_integrand(r, phi, y)
        yield np.exp(1j * phi) * np.exp(-r) * np.sqrt(r)
        yield np.cos(phi) + 2.0

    return at


def _both_engines(density):
    return (integrate_polar(density, BLOCKED_SPEC, support_domain(BLOCKED_F)),
            rx_integral(density, BLOCKED_F, BLOCKED_SPEC, 3))


def test_blocked_grid_is_bitwise_one_block(monkeypatch):
    r, _, Y, _ = tensor_grid(BLOCKED_SPEC, support_domain(BLOCKED_F))
    assert (r.size, len(Y)) == (120, 18)
    monkeypatch.setattr(quadrature, "BLOCK_NODES", SMALL_BLOCK)
    blocked = _both_engines(_mixed_shape_density)
    monkeypatch.setattr(quadrature, "BLOCK_NODES", MAX_SLICE_NODES)
    assert _both_engines(_mixed_shape_density) == blocked


def test_density_runs_once_per_row_block(monkeypatch):
    calls = []

    def density(r, y):
        calls.append((r.shape, y.shape))
        return _mixed_shape_density(r, y)

    monkeypatch.setattr(quadrature, "BLOCK_NODES", SMALL_BLOCK)
    _both_engines(density)
    blocks = [((11, 1), (1, 18, 1))] * 10 + [((10, 1), (1, 18, 1))]
    assert calls == blocks * 2  # polar, then x-radial; not once per phi slice


def test_integrate_radial_weighted_power():
    # integrand r^2 at power 2 integrates r^4; the oracle folds r^(2-1) / 2pi
    # into its r dr dphi rule on one angular node
    dom = Domain(0.5, 2.0)
    [got] = integrate_radial(lambda r, y: lambda phi: (r ** 2,),
                             QuadratureSpec(n_r=48), dom, 2)
    want = (2.0 ** 5 - 0.5 ** 5) / 5.0
    assert abs(got - want) <= 1e-11 * want
    [check] = oracle_integrate(lambda r, y: lambda phi: (r ** 3 / (2.0 * math.pi),),
                               dom, (2401, 1, 161))
    assert abs(got - check.real) <= 1e-7 * want


def test_integrate_radial_rejects_bad_interval():
    with pytest.raises(DomainError):
        integrate_radial(_ones_density, QuadratureSpec(), Domain(2.0, 1.0), 0)


# values of the bad nodes, on r > 1: each makes the weighted sum of its slice
# non-finite, since the weights are finite and positive
NONFINITE_NODES = {
    "nan": lambda r: np.nan,
    "+inf": lambda r: np.inf,
    "-inf": lambda r: -np.inf,
    "+inf and -inf in one slice": lambda r: np.where(r > 1.5, np.inf, -np.inf),
    "nan imaginary part": lambda r: complex(1.0, np.nan),
    "infinite imaginary part": lambda r: complex(1.0, np.inf),
}


def _bad_density(bad, phi_from):
    """A finite integrand, then one with bad nodes on r > 1 at phi >= phi_from."""
    def density(r, y):
        def at(phi):
            yield np.ones_like(r)
            yield np.where((r > 1.0) & (np.asarray(phi) >= phi_from), bad(r), 1.0)

        return at

    return density


def test_nonfinite_integrand_raises():
    f = make_bump(0.5, 2.0)
    dom, spec = support_domain(f), QuadratureSpec(n_r=16, n_phi=4, n_y=4)
    # polar: the 4 angular nodes are one tile, bad only on its last two
    engines = ((lambda d: integrate_polar(d, spec, dom), math.pi),
               (lambda d: rx_integral(d, f, spec, 3), 0.0),
               (lambda d: integrate_radial(d, spec, dom, 0), 0.0),
               (lambda d: oracle_integrate(d, dom, (101, 4, 11)), math.pi))
    for name, bad in NONFINITE_NODES.items():
        for integrate, phi_from in engines:
            with pytest.raises(NonFiniteError):
                integrate(_bad_density(bad, phi_from))
                pytest.fail(name)


def test_overflowing_slice_sum_raises():
    # every node finite, but the weights sum to more than 1 on r > 1
    f = make_bump(0.5, 2.0)
    dom, spec = support_domain(f), QuadratureSpec(n_r=16, n_phi=4, n_y=4)
    huge = _bad_density(lambda r: np.finfo(float).max, 0.0)
    with pytest.raises(NonFiniteError):
        integrate_polar(huge, spec, dom)
    with pytest.raises(NonFiniteError):
        rx_integral(huge, f, spec, 3)


def test_slice_ceiling_refuses_oversized_grids_before_building_them():
    def never(r, y):
        raise AssertionError("density called on a refused grid")

    box4 = ((-1.0, 1.0),) * 4
    with pytest.raises(DomainError, match="ceiling"):
        integrate_polar(never, QuadratureSpec(n_r=256, n_phi=4, n_y=64), Domain(0.5, 2.0, box4))
    with pytest.raises(DomainError, match="ceiling"):
        tensor_grid(QuadratureSpec(n_r=256, n_y=64), Domain(0.5, 2.0, ((-1.0, 1.0),) * 8))
    # the oracle's k = 2 grid (2403 x 163^2 nodes) is far past it
    with pytest.raises(DomainError, match="ceiling"):
        oracle_integrate(never, Domain(0.5, 2.0, box4[:2]), (2401, 4, 161))


def test_slice_ceiling_admits_the_largest_grids_in_use():
    # the heavy k = 2 benchmark draw: 48 nodes on 3 radial panels, 36^2 y nodes
    dom = Domain(0.5, 2.0, ((-1.0, 1.0),) * 2, r_breaks=(0.8, 1.4))
    r, _, Y, _ = tensor_grid(QuadratureSpec(n_r=48, n_y=12), dom)
    assert (r.size, len(Y)) == (144, 1296)
    # a k = 2 identity check at n_r = 128, n_y = 40: 384 x 120^2 nodes
    r, _, Y, _ = tensor_grid(QuadratureSpec(n_r=128, n_y=40), dom)
    assert r.size * len(Y) == 5_529_600 <= MAX_SLICE_NODES
    # the oracle's k = 1 grid: 2403 x 163 nodes
    assert 2403 * 163 <= MAX_SLICE_NODES
    [val] = oracle_integrate(lambda r, y: lambda phi: (np.ones(r.shape),),
                             Domain(0.5, 2.0, ((-1.0, 1.0),)), (2401, 1, 161))
    assert abs(val - 2.0 * math.pi * 1.875 * 2.0) <= 1e-9  # int r dr dphi dy


def test_domain_validation():
    with pytest.raises(DomainError):
        Domain(2.0, 1.0)
    with pytest.raises(DomainError):
        Domain(0.0, 1.0)
    with pytest.raises(DomainError):
        Domain(0.5, 1.0, ((1.0, 0.0),))


def test_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(n_r=1)
    # a truthy string would silently run every integral on the oracle
    for oracle in ("no", 0, None):
        with pytest.raises(AdmissibilityError, match=r"\boracle\b"):
            QuadratureSpec(oracle=oracle)


def test_determinism_bitwise():
    dom = Domain(0.05, 4.0, ((-2.0, 2.0),))
    spec = QuadratureSpec(n_r=32, n_phi=8, n_y=16)
    a = integrate_polar(_gauss_density, spec, dom)
    b = integrate_polar(_gauss_density, spec, dom)
    assert a == b and len(a) == 1


@given(p=st.floats(-1.8, 2.5), n=st.integers(16, 48))
@settings(max_examples=40, deadline=None)
def test_log_rule_power_law_property(p, n):
    r, w = log_radial_rule(0.1, 3.0, n)
    got = float(np.sum(w * r ** p))
    if abs(p + 1.0) < 1e-9:
        want = math.log(30.0)
    else:
        want = (3.0 ** (p + 1) - 0.1 ** (p + 1)) / (p + 1)
    assert abs(got - want) <= 1e-8 * abs(want)


@given(lo=st.floats(-3.0, 0.0), width=st.floats(0.5, 4.0), n=st.integers(3, 10))
@settings(max_examples=40, deadline=None)
def test_y_rule_total_weight_is_length(lo, width, n):
    Y, W = y_box_rule(((lo, lo + width),), n)
    assert abs(float(np.sum(W)) - width) <= 1e-12 * width
    assert np.all(Y[:, 0] >= lo - 1e-12) and np.all(Y[:, 0] <= lo + width + 1e-12)
