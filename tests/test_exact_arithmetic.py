"""The exact rewrites of the tensor path, pinned bit for bit.

  * A complex array divided by a positive real r is the array times 1 / r:
    numpy's complex division (Smith's algorithm) computes (a + b*0) * (1/r)
    for a real divisor.
  * A profile of real amplitude runs in float arithmetic: in
    (a + 0i)(c + 0i) the term 0*0 is exactly 0, so the real part rounds a*c
    once, and every report on an f declared real equals the one computed
    from the same f's complex arrays.
  * Mode 0 at an angle is its parts at phase 1: (a + bi)(1 + 0i) is exactly
    a + bi, so an f radial in x at any angle, as the oracle and the radial
    Lp reference (tests/test_radial_p.py) take it, has the values of its
    mode 0's parts, which the main engine takes on the x-radial path.
  * |i a|^2 is |a|^2: i (a + bi) is exactly -b + ai, and abs2 adds the two
    rounded squares, so verify_constant_field squares its parts without
    the i of the printed gradient, float or complex.
  * X = rho^(2 gamma + 2), formed once per block in closed form and divided
    by in the Hardy weight and in grad(rho)/rho, is the closed form each of
    them formed apart, and rho and B are powers of that X: the same IEEE
    operations on the same operands.

Each holds in IEEE arithmetic whatever numpy's SIMD dispatch or its use of
fused multiply-add; only the sign of an exact zero may differ, which no
squared modulus can see.  So these tests must pass under every dispatch,
with or without AVX-512 and FMA.
"""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from maghardy import cli
from maghardy.cli import _run_one
from maghardy.functions import (
    AngularMode,
    GaussBumpY,
    PlateauLogBump,
    ProductProfile,
    RhoShellProfile,
    TestFunction,
)
from maghardy.geometry import (
    GrushinGeometry,
    drho_dr_over_rho,
    grad_y_rho_over_rho,
    hardy_density_rs,
    rho_power_rs,
    rho_rs,
    s_of,
    weight_B_rs,
)
from maghardy.reports import jsonable
from maghardy.verifiers._grids import abs2, grad_y_sq

REPO = Path(__file__).resolve().parents[1]
_VERIFY_RUNS = [run for run in json.loads(
    (REPO / "scripts" / "default_suite.json").read_text())["runs"] if "family" not in run]


def _equal_up_to_zero_signs(a, b):
    """a == b node by node, and bitwise wherever a part is not zero."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape or not np.array_equal(a, b):
        return False
    pa = np.ascontiguousarray(a).reshape(-1).view(np.float64)   # complex: re, im pairs
    pb = np.ascontiguousarray(b).reshape(-1).view(np.float64)
    nonzero = pa != 0.0
    return np.array_equal(pa[nonzero].view(np.int64), pb[nonzero].view(np.int64))


def _spread_complex(rng, n):
    """n complex numbers whose parts span every binade, subnormals included,
    with exact zeros, signed zeros and parts near overflow among them."""
    parts = np.ldexp(rng.uniform(-1.0, 1.0, (n, 2)), rng.integers(-1074, 1024, (n, 2)))
    z = parts[:, 0] + 1j * parts[:, 1]
    z[:8] = [0.0, complex(-0.0, 0.0), complex(0.0, -0.0), 5e-324, complex(-5e-324, 3e-310),
             complex(1.7e308, -1.7e308), complex(-1.7e308, 1e-300), complex(2.2e-308, 1.0)]
    return z


def test_complex_division_by_a_real_is_a_product_with_its_reciprocal():
    rng = np.random.default_rng(30)
    z = _spread_complex(rng, 100_000)
    r = np.exp(rng.uniform(np.log(1e-8), np.log(1e8), z.size))
    r[:4] = [1e-8, 1e8, 1.0, 3.0]
    with np.errstate(all="ignore"):
        assert _equal_up_to_zero_signs(z / r, z * (1.0 / r))
        # on the broadcast shapes of the fields: a block over a column of radii
        block, radii = z[:1200].reshape(12, 100), r[:12, None]
        assert _equal_up_to_zero_signs(block / radii, block * (1.0 / radii))


def test_the_square_of_i_times_a_part_is_the_square_of_the_part():
    # on float and complex parts spanning every binade: the constant-field
    # density's abs2(fr) and grad_y_sq(fy) for |i fr|^2 and |i r^g fy|^2
    z = _spread_complex(np.random.default_rng(31), 99_999)
    with np.errstate(all="ignore"):
        for part in (z.real, z):
            assert abs2(1j * part).tobytes() == abs2(part).tobytes()
            dy = part.reshape(-1, 3)
            assert grad_y_sq(1j * dy).tobytes() == grad_y_sq(dy).tobytes()
        assert abs2(z.real).tobytes() == abs2(z.real + 0j).tobytes()


def _grid():
    r = np.geomspace(0.3, 3.0, 11)[:, None]
    y = np.stack([np.linspace(-1.9, 1.7, 9)], axis=-1)[None, :, :]
    return r, y


def _complex_form(profile):
    """A copy of profile that does not declare itself real, so its on_grid
    multiplies by the amplitude a + 0i in complex arithmetic."""
    undeclared = copy.copy(profile)
    undeclared.real_valued = False
    return undeclared


def test_a_real_amplitude_profile_is_the_real_part_of_its_complex_form():
    r, y = _grid()
    geom = GrushinGeometry(2, 1, 0.8)
    for amp in (1.0, -0.7, 0.0, complex(2.0, 0.0)):
        for prof in (ProductProfile(PlateauLogBump(0.5, 2.0), (GaussBumpY(-2.0, 2.0, 0.3),), amp),
                     RhoShellProfile(geom, -0.9, 0.4, 2.5, amp)):
            assert prof.real_valued
            real, cplx = prof.on_grid(r, y), _complex_form(prof).on_grid(r, y)
            for u, v in zip(real, cplx, strict=True):
                assert u.dtype == np.float64 and v.dtype == np.complex128
                assert _equal_up_to_zero_signs(u, v.real) and not v.imag.any()


def test_a_real_amplitude_is_the_imaginary_part_of_the_same_amplitude_times_i():
    # (0 + a i)(c + 0i) = 0 + (a c) i: the complex form, amplitude a i, carries
    # the float form of amplitude a in its imaginary part, for both profiles
    r, y = _grid()
    geom = GrushinGeometry(2, 1, 0.8)
    for make in (lambda a: ProductProfile(PlateauLogBump(0.5, 2.0),
                                          (GaussBumpY(-2.0, 2.0, 0.3),), a),
                 lambda a: RhoShellProfile(geom, -0.9, 0.4, 2.5, a)):
        real, cplx = make(1.3).on_grid(r, y), make(1.3j).on_grid(r, y)
        for u, v in zip(real, cplx, strict=True):
            assert u.dtype == np.float64 and v.dtype == np.complex128
            assert _equal_up_to_zero_signs(u, v.imag) and not v.real.any()


@pytest.mark.parametrize("modes", [(0,), (0, 1), (-2, 0, 1)])
def test_mode_zero_adds_what_its_phase_product_would(modes):
    amps = {-2: 0.4 - 0.9j, 0: 1.1 + 0.6j, 1: -0.5j}
    f = TestFunction([AngularMode(m, ProductProfile(
        PlateauLogBump(0.5, 2.0), (GaussBumpY(-2.0, 2.0, 0.3),), amps[m])) for m in modes])
    r, y = _grid()
    at = f.on_grid(r, y)
    for phi in np.linspace(0.0, 2.0 * np.pi, 6, endpoint=False).tolist() + [0.9]:
        # every mode times its phase, added in sorted mode order
        want = None
        for m in f.modes:
            g, gr, gy = m.profile.on_grid(r, y)
            e = np.exp(1j * m.mode * np.asarray(phi))
            terms = [g * e, gr * e, 1j * m.mode * g * e, gy * e]
            want = terms if want is None else [w + t for w, t in zip(want, terms)]
        got = at(phi)
        for u, v in zip(got, want, strict=True):
            assert _equal_up_to_zero_signs(np.broadcast_to(u, v.shape), v)


def _gauge_power(gamma, r, s):
    """rho^(2 gamma + 2) written out: r^(2 + 2 gamma) + (1 + gamma)^2 s^2."""
    return r ** (2.0 + 2.0 * gamma) + (1.0 + gamma) ** 2 * s * s


@pytest.mark.parametrize("gamma", [0.0, 0.37, 1.0, 2.5])
def test_one_gauge_power_gives_the_bits_of_its_closed_form_per_factor(gamma):
    # a k = 2 row block of 9 rows x 1296 y nodes, rho over 6 decades
    rng = np.random.default_rng(32)
    r = np.geomspace(1e-3, 30.0, 9)[:, None]
    y = rng.uniform(-40.0, 40.0, (1, 1296, 2)) * 10.0 ** rng.uniform(-3.0, 0.0, (1, 1296, 1))
    s = s_of(y)
    q = 2.0 * gamma + 2.0
    X = rho_power_rs(gamma, r, s)
    assert X.tobytes() == _gauge_power(gamma, r, s).tobytes()
    assert X[..., None].tobytes() == _gauge_power(gamma, r[..., None], s[..., None]).tobytes()
    a1, a2 = 0.7, -0.3
    pairs = [(hardy_density_rs(gamma, r, X), r ** (2.0 * gamma) / _gauge_power(gamma, r, s)),
             (drho_dr_over_rho(gamma, r, X),
              r ** (2.0 * gamma + 1.0) / _gauge_power(gamma, r, s)),
             (grad_y_rho_over_rho(gamma, y, X[..., None]),
              (1.0 + gamma) * y / _gauge_power(gamma, r[..., None], s[..., None])),
             # rho and B read X by one power each, never through a root of it
             (rho_rs(gamma, r, s), _gauge_power(gamma, r, s) ** (1.0 / q)),
             (weight_B_rs(gamma, a1, a2, r, X),
              r ** (a2 * gamma) * _gauge_power(gamma, r, s) ** ((a1 - a2 * gamma) / q))]
    for got, want in pairs:
        assert got.tobytes() == want.tobytes()
    # X rounds its closed form once; rho ** q rounds it through a root too
    rho = rho_rs(gamma, r, s)
    assert np.all(np.abs(rho ** q - X) <= 8 * q * np.finfo(float).eps * X)


class _AsComplex:
    """A test-only profile: the wrapped profile's arrays cast to complex,
    declared real (or not) as the wrapped profile is."""

    def __init__(self, profile):
        self.inner = profile
        for name in ("r_lo", "r_hi", "y_box", "r_breaks", "reaches_origin", "y_even",
                     "real_valued", "k"):
            setattr(self, name, getattr(profile, name))
        # the 1-D factors too, so the main engine evaluates them once per
        # integration for the wrapped profile as for the profile itself
        if hasattr(profile, "factors"):
            self.factors = profile.factors

    def on_grid(self, r, y, memo=None):
        return tuple(np.asarray(a, complex) for a in self.inner.on_grid(r, y, memo))


def _as_complex(f):
    """f with each distinct profile wrapped once, so modes +l and -l still
    share one profile object."""
    wrapped = {}
    for m in f.modes:
        wrapped.setdefault(id(m.profile), _AsComplex(m.profile))
    return TestFunction([AngularMode(m.mode, wrapped[id(m.profile)]) for m in f.modes])


_QUICK = {"n_r": 16, "n_phi": 12, "n_y": 4}


def _quick(run):
    """run at a quick resolution."""
    return {**run, "quadrature": {key: _QUICK[key] for key in run["quadrature"]}}


def _radial(run):
    """run on a real radial f of its own kind, at a quick resolution."""
    fn = run["function"]
    if fn["kind"] == "random":
        fn = {**fn, "modes": [0], "real": True}
    return _quick({**run, "function": fn})


_RHO_TRIAL = {"theorem_id": "radial_hardy", "geometry": {"m": 3, "k": 1, "gamma": 0.6},
              "weights": {"alpha1": 0.4, "alpha2": 0.2},
              "function": {"kind": "trial", "base": "rho_power", "epsilon": 0.3,
                           "cutoff": [0.5, 2.0]},
              "quadrature": {"n_r": 16, "n_phi": 4, "n_y": 4}}
_RADIAL_RUNS = [_radial(run) for run in _VERIFY_RUNS] + [_RHO_TRIAL]
# the suite's real draws with modes +-l, each pair on one float profile
_PAIR_RUNS = [_quick(run) for run in _VERIFY_RUNS
              if run["function"].get("real") and run["function"]["modes"] != [0]]


def _report_text(run):
    return json.dumps(_run_one(run, 0, 0), default=jsonable, sort_keys=True)


@pytest.mark.parametrize("run", _RADIAL_RUNS + _PAIR_RUNS,
                         ids=[run["theorem_id"] for run in _VERIFY_RUNS] + ["rho_power trial"]
                         + [f"{run['theorem_id']}, real pairs" for run in _PAIR_RUNS])
def test_every_check_reports_the_same_bytes_on_real_and_complex_parts(monkeypatch, run):
    real = _report_text(run)
    parse = cli._parse_function

    def complex_parts(*args):
        f = parse(*args)
        assert f.real_valued and f.is_radial == (run in _RADIAL_RUNS)
        return _as_complex(f)

    monkeypatch.setattr(cli, "_parse_function", complex_parts)
    assert _report_text(run) == real
