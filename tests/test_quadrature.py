"""Quadrature rules against closed forms, plus main-engine/oracle agreement."""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maghardy import quadrature
from maghardy.errors import AdmissibilityError, DomainError, NonFiniteError, RealnessError
from maghardy.functions import AngularMode, make_bump
from maghardy.quadrature import (
    MAX_SLICE_NODES,
    Domain,
    _reference_rule,
    QuadratureSpec,
    gauss_legendre,
    gauss_panels,
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


# the modes of an f radial in x, the one mode 0, as integrate_radial hands
# them to at
RADIAL_MODES = make_bump(0.5, 2.0).modes


def _number(x):
    """The number a test density reads off the point x: the mode of an
    AngularMode, which integrate_radial hands to at, or x itself, an int
    mode of these tests or an oracle angle."""
    return x.mode if isinstance(x, AngularMode) else x


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
        integrate_radial(_ones_density, QuadratureSpec(n_r=11), Domain(0.5, 2.0),
                         RADIAL_MODES, 2)
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


def test_gauss_panels_is_bitwise_the_one_panel_rules_side_by_side():
    # one affine map over all panels, float edges or column edges
    edges = (-7.25, -3.0, 0.0, 1e-3, 2.5)
    for n in (1, 8, 240):
        x, w = gauss_panels(edges, n)
        parts = [_fresh_gauss_legendre(a, b, n) for a, b in zip(edges[:-1], edges[1:])]
        assert np.array_equal(x, np.concatenate([p[0] for p in parts]))
        assert np.array_equal(w, np.concatenate([p[1] for p in parts]))
    shift = np.array([[0.0], [0.3], [-11.0]])
    x, w = gauss_panels(tuple(e + shift for e in edges), 8)
    assert x.shape == w.shape == (3, 4 * 8)
    for i, s in enumerate(shift[:, 0]):
        xi, wi = gauss_panels(tuple(e + s for e in edges), 8)
        assert np.array_equal(x[i], xi) and np.array_equal(w[i], wi)


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


# the modes of f = e^(-(r^2 + y^2)/2) (1 + e^(i phi)) / sqrt(2), whose |f|^2
# is _gauss_integrand; the engine hands each of them to at as given
GAUSS_MODES = (0, 1)


def _gauss_density(r, y):
    """|f|^2 in the density(r, y) -> at(x) protocol: at an angle x (a float),
    or its share e^(-(r^2 + y^2)) / 2 on either mode (an int) at phase 1."""
    def at(x):
        if isinstance(x, int):
            return (0.5 * np.exp(-r * r) * np.exp(-y[..., 0] ** 2),)
        return (_gauss_integrand(r, x, y),)

    return at


def _gauss_closed_form(r_lo, r_hi, L):
    radial = 0.5 * (math.exp(-r_lo ** 2) - math.exp(-r_hi ** 2))
    return radial * (2.0 * math.pi) * math.sqrt(math.pi) * math.erf(L)


def test_integrate_polar_against_closed_form():
    dom = Domain(0.05, 4.0, ((-2.0, 2.0),))
    spec = QuadratureSpec(n_r=64, n_phi=8, n_y=24)
    [got] = integrate_polar(_gauss_density, spec, dom, GAUSS_MODES)
    want = _gauss_closed_form(0.05, 4.0, 2.0)
    assert type(got) is float
    assert abs(got - want) <= 1e-10 * abs(want)


def test_oracle_agrees_with_main_engine():
    # the per-mode sum against the oracle's angular nodes on the same density
    dom = Domain(0.05, 4.0, ((-2.0, 2.0),))
    [main] = integrate_polar(_gauss_density, QuadratureSpec(n_r=64, n_phi=8, n_y=24), dom,
                             GAUSS_MODES)
    [check] = oracle_integrate(_gauss_density, dom, (2401, 16, 161))
    assert abs(main - check) <= 1e-7 * abs(check)


def test_the_oracle_runs_its_density_in_row_blocks():
    # 2403 x 163 nodes: blocks of 50 rows, at most ORACLE_BLOCK_NODES nodes,
    # cover the grid once in order; the value is the one-block value up to
    # the roundoff of summing by blocks
    dom = Domain(0.05, 4.0, ((-2.0, 2.0),))
    rows = []

    def density(r, y):
        rows.append(r[:, 0])
        return _gauss_density(r, y)

    [blocked] = oracle_integrate(density, dom, (2401, 16, 161))
    assert len(rows) == 49
    assert max(r.size for r in rows) * 163 <= quadrature.ORACLE_BLOCK_NODES
    np.testing.assert_array_equal(np.concatenate(rows),
                                  np.linspace(0.05, 4.0, 2403))
    quadrature.ORACLE_BLOCK_NODES, saved = 2403 * 163, quadrature.ORACLE_BLOCK_NODES
    try:
        [one_block] = oracle_integrate(_gauss_density, dom, (2401, 16, 161))
    finally:
        quadrature.ORACLE_BLOCK_NODES = saved
    assert abs(blocked - one_block) <= 1e-13 * abs(one_block)


def test_every_integrand_of_a_pass_equals_its_own_integral():
    # several integrands in one pass give, bit for bit, what each gives
    # alone: on the main engine over three points (at takes each as given),
    # on the oracle over its angular nodes
    dom = Domain(0.05, 4.0, ((-2.0, 2.0),))
    spec = QuadratureSpec(n_r=32, n_phi=8, n_y=16)
    integrands = (
        _gauss_integrand,
        lambda r, phi, y: np.sin(phi) * r * (1.0 + 0.0 * y[..., 0]),
        lambda r, phi, y: np.cos(phi + 0.3) * np.exp(-r) * (1.0 + y[..., 0] ** 2),
    )

    def together(r, y):
        return lambda phi: (h(r, phi, y) for h in integrands)

    for engine in (lambda d: integrate_polar(d, spec, dom, (0, 1, 2)),
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
    integrate_polar(density, QuadratureSpec(n_r=16, n_phi=12, n_y=4), dom, GAUSS_MODES)
    oracle_integrate(density, dom, (101, 12, 41))
    assert len(calls) == 2


# --- row blocks: a large grid is evaluated in blocks of whole radial rows ----

# 3 radial panels of 40 nodes x 18 y nodes = 2160 nodes: the y box is off
# centre, so the whole y rule runs.  At a block of 10 nodes, less than a
# row, each of the 120 rows is a block; at 200 nodes the pass runs ten
# blocks of 11 rows and one of 10; at 1080, two of 60 rows
BLOCKED_F = make_bump(0.5, 2.0, ((-1.0, 1.5),))
BLOCKED_SPEC = QuadratureSpec(n_r=40, n_phi=8, n_y=6)
SMALL_BLOCK = 200
BLOCKS = {10: 120, SMALL_BLOCK: 11, 1080: 2}


# the points the main engine hands to at in these tests
MODES = (-1, 0, 2)


def _mixed_shape_density(r, y):
    """Integrands of shape (n_r, n_flat), (n_r, 1) and () at each point,
    read as a number (_number): on the x-radial path 0 (_on_mode_zero)."""
    def at(x):
        phi = _number(x)
        yield _gauss_integrand(r, phi, y)
        yield np.cos(phi + 0.3) * np.exp(-r) * np.sqrt(r)
        yield np.cos(phi) + 2.0

    return at


def _on_mode_zero(density):
    """density(r, y) -> at(x) as a verifier density of rx_integral, whose
    at(parts, f0) takes f's parts on its one mode 0: at(0), that mode's
    number.  On mode 0 f0 is the mode's own value array."""
    def verifier(r, y):
        at = density(r, y)

        def at_parts(parts, f0):
            assert f0 is parts[0]
            return at(0)

        return at_parts

    return verifier


def _both_engines(density):
    return (integrate_polar(density, BLOCKED_SPEC, support_domain(BLOCKED_F), MODES),
            rx_integral(_on_mode_zero(density), BLOCKED_F, BLOCKED_SPEC, 3))


def _fsum_close(got, values):
    """got is math.fsum of values within 1e-13 of the sum of their
    magnitudes, the scale of any summation's roundoff (Higham, SIAM J. Sci.
    Comput. 14, 1993)."""
    values = np.ravel(values)
    return abs(got - math.fsum(values)) <= 1e-13 * math.fsum(np.abs(values))


def test_blocked_grid_matches_one_block(monkeypatch):
    r, _, Y, _ = tensor_grid(BLOCKED_SPEC, support_domain(BLOCKED_F))
    assert (r.size, len(Y)) == (120, 18)
    monkeypatch.setattr(quadrature, "BLOCK_NODES", SMALL_BLOCK)
    blocked = _both_engines(_mixed_shape_density)
    monkeypatch.setattr(quadrature, "BLOCK_NODES", MAX_SLICE_NODES)
    for got, want in zip(blocked, _both_engines(_mixed_shape_density)):
        assert len(got) == len(want) == 3
        assert all(abs(a - b) <= 1e-13 * abs(b) for a, b in zip(got, want)), (got, want)


@pytest.mark.parametrize("block", sorted(BLOCKS))
def test_density_runs_once_per_row_block(monkeypatch, block):
    grid, _, Y, _ = tensor_grid(BLOCKED_SPEC, support_domain(BLOCKED_F))
    calls = []

    def density(r, y):
        assert y.shape == (1, len(Y), 1)
        rows = np.searchsorted(grid, r[:, 0])
        assert np.array_equal(grid[rows], r[:, 0])
        calls.append(rows)
        return _mixed_shape_density(r, y)

    monkeypatch.setattr(quadrature, "BLOCK_NODES", block)
    _both_engines(density)
    # polar, then x-radial, on the same blocks; once per block, not per mode
    polar, radial = calls[:BLOCKS[block]], calls[BLOCKS[block]:]
    assert len(radial) == BLOCKS[block]
    assert all(np.array_equal(p, x) for p, x in zip(polar, radial))
    for rows in polar:  # consecutive rows, at most max(BLOCK_NODES, one row) nodes
        assert np.array_equal(rows, np.arange(rows[0], rows[-1] + 1))
        assert rows.size * len(Y) <= max(block, len(Y))
    # the blocks follow the row order, and every row runs exactly once
    assert np.array_equal(np.concatenate(polar), np.arange(grid.size))


def _weighted_grid(at, base, points):
    """Each integrand added over the points node by node on the whole grid
    and weighted, as one flat array."""
    grids = []
    for vals in zip(*[at(p) for p in points]):
        total = vals[0]
        for v in vals[1:]:
            total = total + v
        grids.append(np.ravel(base * total))
    return grids


def _four_shape_density(r, y):
    """_mixed_shape_density's integrands, then a full-grid one of either sign."""
    mixed = _mixed_shape_density(r, y)

    def at(x):
        yield from mixed(x)
        yield np.sin(2.0 * x + 0.3) * _gauss_integrand(r, x, y)

    return at


@pytest.mark.parametrize("points, block", [((0,), "one"), (MODES, "one"),
                                           (MODES, SMALL_BLOCK), (MODES, 1080)],
                         ids=["one point", "three points", "three points, 11 blocks",
                              "three points, 2 blocks"])
def test_one_reduction_per_block_matches_the_grid_sum(monkeypatch, points, block):
    # each integrand, added over the points node by node and weighted, on
    # every integrand shape: on one block of the grid the pass's sum has the
    # bits of one np.add.reduce of the whole grid as a Python float, over
    # one point and three; on 11 blocks and on two it is math.fsum of the
    # grid within roundoff
    domain = support_domain(BLOCKED_F)
    r, w_r, Y, w_y = tensor_grid(BLOCKED_SPEC, domain)
    base = (w_r * r)[:, None] * w_y[None, :]
    monkeypatch.setattr(quadrature, "BLOCK_NODES", base.size if block == "one" else block)
    calls = []

    def density(r, y):
        at = _four_shape_density(r, y)
        calls.append([])
        return lambda x: (calls[-1].append(x), at(x))[1]

    got = quadrature._tensor_sums(density, BLOCKED_SPEC, domain, 1, points)
    grids = _weighted_grid(_four_shape_density(r[:, None], Y[None, :, :]), base, points)
    assert len(got) == 4 and all(type(total) is float for total in got)
    if block == "one":
        assert got == [0.0 + float(np.add.reduce(values)) for values in grids]
    else:
        assert all(_fsum_close(total, values) for total, values in zip(got, grids))
    # every block calls at once per point, in their order
    assert calls == [list(points)] * {"one": 1, **BLOCKS}[block]


# --- the tensor pass sums each slice to roundoff -----------------------------

def _unit_grid(n_rows, n_flat):
    """A stand-in for tensor_grid: radial rows 0, 1, ..., n_rows - 1 and
    n_flat y nodes, every weight 1, so the pass sums the integrands as given."""
    r, Y = np.arange(n_rows, dtype=float), np.zeros((n_flat, 1))
    return lambda spec, domain: (r, np.ones(n_rows), Y, np.ones(n_flat))


def _sliced(x):
    """A density over x of shape (n_points, n_rows, n_flat): its integrand j
    is x[j] at point j and zero at the others, so added over the points it
    is x[j] node by node."""
    def density(r, y):
        rows = x[:, int(r[0, 0]):int(r[-1, 0]) + 1]

        def at(col):
            nodes = col.astype(int)
            for j in range(len(x)):
                yield np.where(nodes == j, rows[j], 0.0)

        return at

    return density


def _finite_sum(values):
    """Whether values are all finite and their exact sum is a finite float."""
    if not np.isfinite(values).all():
        return False
    try:
        return math.isfinite(math.fsum(np.ravel(values)))
    except OverflowError:
        return False


def _check_slice_sums(x, block):
    """Each integrand's sum of the tensor pass over x at BLOCK_NODES = block
    is math.fsum of its slice of x within roundoff (_fsum_close), or the
    pass raises NonFiniteError exactly when a slice holds a NaN or infinite
    node or its sum overflows."""
    n_phi, n_rows, n_flat = x.shape
    phis = np.arange(n_phi, dtype=float)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "tensor_grid", _unit_grid(n_rows, n_flat))
        mp.setattr(quadrature, "BLOCK_NODES", block)
        if not all(_finite_sum(one) for one in x):
            with pytest.raises(NonFiniteError):
                quadrature._tensor_sums(_sliced(x), None, None, 0, phis)
        else:
            got = quadrature._tensor_sums(_sliced(x), None, None, 0, phis)
            assert all(type(total) is float for total in got)
            assert all(_fsum_close(total, one) for total, one in zip(got, x))


@st.composite
def _slices(draw):
    n_flat = draw(st.integers(1, 2000))
    n_rows = draw(st.integers(1, 200_000 // n_flat))
    if n_rows > 1 and draw(st.booleans()):
        n_rows -= 1 - n_rows % 2  # an odd row count
    n_phi = draw(st.sampled_from([1, 2, 3]))
    block = draw(st.one_of(st.integers(64, 1024), st.integers(1025, 2**14)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n_phi, n_rows, n_flat)
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
    for _ in range(draw(st.integers(0, 3))):
        special = draw(st.sampled_from([np.nan, np.inf, -np.inf, 1e308]))
        x[draw(st.integers(0, n_phi - 1)), draw(st.integers(0, n_rows - 1)),
          draw(st.integers(0, n_flat - 1))] = special
    return x, block


@given(_slices())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_each_slice_sum_matches_fsum(case):
    # any grid up to 2e5 nodes a slice, odd row counts among them, blocks of
    # 64 to 2^14 nodes, with NaN, +-inf and sums that overflow: math.fsum of
    # each whole slice within roundoff, or NonFiniteError exactly when a
    # slice has a non-finite node or sum
    _check_slice_sums(*case)


@pytest.mark.parametrize("kind", ["float", "spread"])
@pytest.mark.parametrize("grid, block", [((141, 1296), quadrature.BLOCK_NODES),
                                         ((765, 192), quadrature.BLOCK_NODES),
                                         ((48, 14400), quadrature.BLOCK_NODES),
                                         ((256, 1), 64)])
def test_grids_in_use_keep_each_slice_sum(grid, block, kind):
    # the k = 2 ab_hardy grid at n_r = 47, a k = 1 grid at n_r = 255, an
    # eighth of the k = 2 identity's 384 x 14,400 grid, whose rows are wider
    # than a block, and single-node rows 64 to a block; standard normal
    # values, or values spread over 16 decades, whose sum takes other bits
    # in any other order of additions
    rng = np.random.default_rng(sum(grid))
    x = rng.standard_normal((1, *grid))
    if kind == "spread":
        x = x * 10.0 ** rng.uniform(-8.0, 8.0, x.shape)
    _check_slice_sums(x, block)


def test_a_row_wider_than_a_block_is_a_block_alone(monkeypatch):
    # 48 rows of 14,400 nodes, each more than BLOCK_NODES: one block per
    # row, in order, each row once
    blocks = []

    def density(r, y):
        blocks.append((int(r[0, 0]), int(r[-1, 0]) + 1))
        return lambda x: (np.ones(r.shape),)

    monkeypatch.setattr(quadrature, "tensor_grid", _unit_grid(48, 14400))
    assert quadrature._tensor_sums(density, None, None, 0, (0.0,)) == [48 * 14400]
    assert blocks == [(a, a + 1) for a in range(48)]


# (n_rows, n_flat) of the multi-block grids in use, and (blocks, rows per
# block) at BLOCK_NODES; the last block takes the rows left over.  A y-even
# f runs the y nodes of y >= 0, 2^-k of the whole box's
_IN_USE = {
    (144, 324): (4, 37),      # k = 2 margins checks (n_r = 48, n_y = 12)
    (144, 1296): (16, 9),     # the same on the whole box, for an f not y-even
    (192, 240): (4, 51),      # grushin_ibp at n_y = 160
    (768, 96): (6, 128),      # hires (n_r = 256, n_y = 64)
    (192, 96): (2, 128),      # the shipped grushin_ibp (n_r = n_y = 64)
    (384, 3600): (128, 3),    # a k = 2 identity check at n_r = 128, n_y = 40
    (384, 14400): (384, 1),   # the same on the whole box
}


class _ReduceSpy:
    """quadrature's numpy, with add.reduce recording the shape it sums."""

    def __init__(self, shapes):
        self.add = types.SimpleNamespace(
            reduce=lambda a, *args, **kw: (shapes.append(a.shape),
                                           np.add.reduce(a, *args, **kw))[1])

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("grid", sorted(_IN_USE))
def test_grids_in_use_run_in_blocks_of_whole_rows(monkeypatch, grid):
    n_rows, n_flat = grid
    count, rows = _IN_USE[grid]
    blocks, reduced = [], []

    def density(r, y):
        blocks.append((int(r[0, 0]), int(r[-1, 0]) + 1))
        return lambda x: (np.ones(r.shape), np.full(r.shape, 2.0))

    monkeypatch.setattr(quadrature, "tensor_grid", _unit_grid(n_rows, n_flat))
    monkeypatch.setattr(quadrature, "np", _ReduceSpy(reduced))
    got = quadrature._tensor_sums(density, None, None, 0, (0, 1))
    # consecutive blocks of whole rows, each row once; one reduction of the
    # whole block per integrand, after its two points are added
    assert blocks == [(a, min(a + rows, n_rows)) for a in range(0, n_rows, rows)]
    assert len(blocks) == count
    assert reduced == [((b - a) * n_flat,) for a, b in blocks for _ in range(2)]
    assert got == [2.0 * n_rows * n_flat, 4.0 * n_rows * n_flat]


def test_integrate_radial_weighted_power():
    # integrand r^2 at power 2 integrates r^4; the oracle folds r^(2-1) / 2pi
    # into its r dr dphi rule on one angular node
    dom = Domain(0.5, 2.0)
    [got] = integrate_radial(lambda r, y: lambda x: (r ** 2,),
                             QuadratureSpec(n_r=48), dom, RADIAL_MODES, 2)
    want = (2.0 ** 5 - 0.5 ** 5) / 5.0
    assert abs(got - want) <= 1e-11 * want
    [check] = oracle_integrate(lambda r, y: lambda phi: (r ** 3 / (2.0 * math.pi),),
                               dom, (2401, 1, 161))
    assert abs(got - check.real) <= 1e-7 * want


def test_integrate_radial_rejects_bad_interval():
    with pytest.raises(DomainError):
        integrate_radial(_ones_density, QuadratureSpec(), Domain(2.0, 1.0), RADIAL_MODES, 0)


# values of the bad nodes, on r > 1: each makes the weighted sum of its slice
# non-finite, since the weights are finite and positive
NONFINITE_NODES = {
    "nan": lambda r: np.nan,
    "+inf": lambda r: np.inf,
    "-inf": lambda r: -np.inf,
    "+inf and -inf in one slice": lambda r: np.where(r > 1.5, np.inf, -np.inf),
}


def _bad_density(bad, x_from):
    """A finite integrand, then one with bad nodes on r > 1 at points x
    whose number (_number) is at least x_from."""
    def density(r, y):
        def at(x):
            yield np.ones_like(r)
            yield np.where((r > 1.0) & (_number(x) >= x_from), bad(r), 1.0)

        return at

    return density


def test_nonfinite_integrand_raises():
    f = make_bump(0.5, 2.0)
    dom, spec = support_domain(f), QuadratureSpec(n_r=16, n_phi=4, n_y=4)
    # polar: bad only on the last two of 4 modes; x-radial: on f's one mode
    # 0; oracle: on its last two of 4 angular nodes
    engines = ((lambda d: integrate_polar(d, spec, dom, (0, 1, 2, 3)), 2),
               (lambda d: rx_integral(_on_mode_zero(d), f, spec, 3), 0),
               (lambda d: integrate_radial(d, spec, dom, f.modes, 0), 0),
               (lambda d: oracle_integrate(d, dom, (101, 4, 11)), math.pi))
    for name, bad in NONFINITE_NODES.items():
        for integrate, x_from in engines:
            with pytest.raises(NonFiniteError):
                integrate(_bad_density(bad, x_from))
                pytest.fail(name)


def _complex_density(r, y):
    """A real integrand, then exp(i x) * r, x read as a number (_number):
    complex on every node."""
    def at(x):
        yield np.ones_like(r)
        yield np.exp(1j * _number(x)) * r

    return at


def test_both_engines_refuse_a_complex_integrand_by_index():
    f = make_bump(0.5, 2.0)
    dom, spec = support_domain(f), QuadratureSpec(n_r=16, n_phi=4, n_y=4)
    engines = (lambda d: integrate_polar(d, spec, dom, (0, 1)),
               lambda d: integrate_radial(d, spec, dom, f.modes, 1),
               lambda d: oracle_integrate(d, dom, (101, 4, 11)))
    for integrate in engines:
        with pytest.raises(RealnessError, match="integrand 1 is complex"):
            integrate(_complex_density)


def test_overflowing_slice_sum_raises():
    # every node finite, but the weights sum to more than 1 on r > 1
    f = make_bump(0.5, 2.0)
    dom, spec = support_domain(f), QuadratureSpec(n_r=16, n_phi=4, n_y=4)
    huge = _bad_density(lambda r: np.finfo(float).max, 0.0)
    with pytest.raises(NonFiniteError):
        integrate_polar(huge, spec, dom, (0,))
    with pytest.raises(NonFiniteError):
        rx_integral(_on_mode_zero(huge), f, spec, 3)


def test_slice_ceiling_refuses_oversized_grids_before_building_them():
    def never(r, y):
        raise AssertionError("density called on a refused grid")

    box4 = ((-1.0, 1.0),) * 4
    with pytest.raises(DomainError, match="ceiling"):
        integrate_polar(never, QuadratureSpec(n_r=256, n_phi=4, n_y=64), Domain(0.5, 2.0, box4),
                        (0,))
    with pytest.raises(DomainError, match="ceiling"):
        tensor_grid(QuadratureSpec(n_r=256, n_y=64), Domain(0.5, 2.0, ((-1.0, 1.0),) * 8))
    # the whole box counts on a y-even domain too: 768 x 192^2 nodes, though
    # its half box y >= 0 holds 768 x 96^2
    with pytest.raises(DomainError, match="ceiling"):
        tensor_grid(QuadratureSpec(n_r=256, n_y=64), Domain(0.5, 2.0, box4[:2], y_even=True))
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
    a = integrate_polar(_gauss_density, spec, dom, GAUSS_MODES)
    b = integrate_polar(_gauss_density, spec, dom, GAUSS_MODES)
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
