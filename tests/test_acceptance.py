"""Acceptance gate: one test per advertised guarantee, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every test draws its own seeded random cases, so the suite is deterministic.
"""

import json
import math

import numpy as np

from maghardy import GrushinGeometry, Point, WeightExponents
from maghardy.cli import main as cli_main
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
from maghardy.functions import (
    AngularMode,
    GaussTail,
    ProductProfile,
    TestFunction,
    TrialFamily,
    evaluate,
    make_bump,
    random_test_function,
)
from maghardy.geometry import (
    dilate,
    drho_dr_over_rho,
    grad_rho,
    grad_y_rho_over_rho,
    rho,
    rho_rs,
)
from maghardy.quadrature import Domain, QuadratureSpec
from maghardy.reports import SuperweightParams
from maghardy.verifiers import (
    check_grushin_ibp_identity,
    check_twisted_polar_identity,
    estimate_sharpness,
    fourier_defect_terms,
    verify_ab_hardy,
    verify_constant_field,
    verify_landau,
    verify_magnetic_grushin,
    verify_radial_hardy,
    verify_radial_p,
    verify_real_landau,
    verify_uncertainty_grushin,
)

FIVE_PI_OVER_4 = 5.0 * math.pi / 4.0
POLAR = QuadratureSpec(n_r=48, n_phi=12, n_y=12)
RADIAL = QuadratureSpec(n_r=128, n_phi=4, n_y=12)


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _sample_geometry(rng):
    m = int(rng.integers(1, 5))
    k = int(rng.integers(1, 4))
    gamma = float(rng.uniform(0.05, 2.5))
    return GrushinGeometry(m, k, gamma)


def _sample_points(rng, geom, n):
    radii = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), size=n))
    heights = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), size=n))
    pts = []
    for r, s in zip(radii, heights):
        x = rng.normal(size=geom.m)
        x *= r / np.linalg.norm(x)
        y = rng.normal(size=geom.k)
        y *= s / np.linalg.norm(y)
        pts.append(Point(x, y))
    return pts


# --- 1: pointwise splitting of the gauge-gradient square ---------------------

def test_01_pointwise_split_identity():
    rng = np.random.default_rng(9001)
    worst = 0.0
    for _ in range(10):
        geom = _sample_geometry(rng)
        g = geom.gamma
        for p in _sample_points(rng, geom, 1000):
            r = p.r
            s = float(np.linalg.norm(p.y))
            rv = rho_rs(g, r, s)
            radial_part = drho_dr_over_rho(g, r, rv) ** 2
            # the y-block is linear in y, so its norm only needs s = |y|
            trans_part = r ** (2 * g) * grad_y_rho_over_rho(g, s, rv) ** 2
            lhs = radial_part + trans_part
            rhs = (np.linalg.norm(grad_rho(geom, p)) / rv) ** 2
            worst = max(worst, abs(lhs - rhs) / rhs)
    _verdict("01 pointwise gradient split", worst <= 1e-12,
             f"10 geometries x 1000 points, max rel err {worst:.2e}")


# --- 2: homogeneity and the gauge-gradient norm ------------------------------

def test_02_homogeneity_and_gradient_norm():
    rng = np.random.default_rng(9002)
    worst_h = worst_n = 0.0
    for _ in range(10):
        geom = _sample_geometry(rng)
        g = geom.gamma
        for p in _sample_points(rng, geom, 100):
            lam = float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))
            scaled = rho(geom, dilate(geom, lam, p))
            base = rho(geom, p)
            worst_h = max(worst_h, abs(scaled - lam * base) / (lam * base))
            norm = float(np.linalg.norm(grad_rho(geom, p)))
            want = (p.r / base) ** g
            worst_n = max(worst_n, abs(norm - want) / want)
    ok = worst_h <= 1e-12 and worst_n <= 1e-12
    _verdict("02 dilation homogeneity + gradient norm", ok,
             f"homogeneity {worst_h:.2e}, norm {worst_n:.2e}")


# --- 3: integration-by-parts identity under radial refinement ----------------

def test_03_ibp_identity_and_refinement():
    rng = np.random.default_rng(9003)
    worst1 = worst_pair = 0.0
    for _ in range(20):
        m = int(rng.integers(1, 4))
        gamma = float(rng.uniform(0.2, 2.0))
        geom = GrushinGeometry(m, 1, gamma)
        exps = WeightExponents(float(rng.uniform(-1.0, 1.5)),
                               float(rng.uniform(-1.0, 1.0)))
        alpha = float(rng.uniform(-1.0, 1.5))
        f = random_test_function(rng, k=1, modes=(0,), real=True)
        # the y rule is saturated so the radial axis carries the error
        rep1 = check_grushin_ibp_identity(
            geom, exps, f, alpha, QuadratureSpec(n_r=32, n_phi=4, n_y=160))
        rep2 = check_grushin_ibp_identity(
            geom, exps, f, alpha, QuadratureSpec(n_r=64, n_phi=4, n_y=160))
        worst1 = max(worst1, rep1.rel_err)
        allowed = max(0.5 * rep1.rel_err, 1e-12)
        worst_pair = max(worst_pair, rep2.rel_err / allowed)
    ok = worst1 <= 1e-8 and worst_pair <= 1.0
    _verdict("03 ibp identity + halving under n_r doubling", ok,
             f"20 cases, max rel err {worst1:.2e}, "
             f"max refined/allowed {worst_pair:.2f}")


# --- 4: twisted polar identity and the real-field energy split ---------------

def test_04_twisted_identity_and_magnetic_split():
    rng = np.random.default_rng(9004)
    spec = QuadratureSpec(n_r=96, n_phi=16, n_y=16)
    worst_tw = 0.0
    for _ in range(6):
        psi = RadialPotential.power(float(rng.uniform(-1.0, 1.0)),
                                    float(rng.uniform(0.3, 1.5)))
        kappa = RadialPotential.power(float(rng.uniform(-1.0, 1.0)),
                                      float(rng.uniform(0.3, 1.5)))
        f = random_test_function(rng, k=0, modes=(0, 1, 2), real=True)
        rep = check_twisted_polar_identity(psi, kappa, f, spec)
        worst_tw = max(worst_tw, rep.rel_err)

    worst_sp = 0.0
    for _ in range(6):
        gamma = float(rng.uniform(0.2, 2.0))
        geom = GrushinGeometry(2, 1, gamma)
        exps = WeightExponents(float(rng.uniform(0.3, 3.0)) + 2.0 - geom.hom_dim,
                               float(rng.uniform(0.0, 1.0)))
        flux = FluxParam(float(rng.uniform(-1.0, 1.0)))
        f = random_test_function(rng, k=1, modes=(0, 1), real=True)
        rep = verify_magnetic_grushin(geom, exps, flux, f, spec)
        worst_sp = max(worst_sp, rep.params["split_rel_err"])
    ok = worst_tw <= 1e-8 and worst_sp <= 1e-8
    _verdict("04 twisted polar identity + real-field split", ok,
             f"identity {worst_tw:.2e}, split {worst_sp:.2e}")


# --- 5: closed-form Gaussian energy ------------------------------------------

def test_05_gaussian_landau_energy():
    f = TestFunction([AngularMode(0, ProductProfile(GaussTail()))])
    rep = verify_real_landau("identity", 1, f,
                             QuadratureSpec(n_r=192, n_phi=4))
    check = verify_real_landau("identity", 1, f,
                               QuadratureSpec(n_r=192, n_phi=4, oracle=True))
    err_main = abs(rep.lhs - FIVE_PI_OVER_4) / FIVE_PI_OVER_4
    err_oracle = abs(check.lhs - FIVE_PI_OVER_4) / FIVE_PI_OVER_4
    err_cross = abs(rep.lhs - check.lhs) / abs(check.lhs)
    ok = (err_main <= 1e-6 and err_oracle <= 1e-6 and err_cross <= 1e-7
          and rep.rel_err <= 1e-8)
    _verdict("05 gaussian energy = 5*pi/4", ok,
             f"main {err_main:.2e}, oracle {err_oracle:.2e}, "
             f"cross {err_cross:.2e}")


# --- 6: randomized margin sweep over every stated inequality -----------------

def _mode_subset(rng, max_abs=2, real=False):
    pool = [v for v in range(-max_abs, max_abs + 1)]
    size = int(rng.integers(1, 4))
    modes = tuple(int(v) for v in rng.choice(pool, size=size, replace=False))
    return modes if not real else tuple(sorted({abs(v) for v in modes}))


def _first_kind_exps(rng, geom):
    # Q + alpha1 - 2 > 0 and m + alpha2 * gamma > 0
    a1 = float(rng.uniform(0.3, 5.0)) + 2.0 - geom.hom_dim
    lo = -geom.m / geom.gamma if geom.gamma > 0 else -3.0
    a2 = float(rng.uniform(max(lo, -3.0) + 0.1, 2.0))
    return WeightExponents(a1, a2)


def _rotated_exps(rng, geom):
    # alpha1 + k(gamma+1) > 0 and alpha2 + 2 gamma > 0
    g = geom.gamma
    a1 = float(rng.uniform(0.3, 4.0)) - geom.k * (g + 1.0)
    a2 = float(rng.uniform(-2.0 * g + 0.1, 2.0))
    return WeightExponents(a1, a2)


def _random_psi(rng):
    if rng.random() < 0.4:
        return RadialPotential.constant(float(rng.uniform(-1.0, 1.0)))
    return RadialPotential.power(float(rng.uniform(-1.0, 1.0)),
                                 float(rng.uniform(0.3, 1.5)))


def _landau_superweight(rng, p=2.0, Q=None):
    sign = 1.0 if rng.random() < 0.5 else -1.0
    t2 = sign * float(rng.uniform(0.5, 2.0))
    t3 = -sign * float(rng.uniform(0.5, 2.0))
    if Q is None:
        t4 = 0.5 * t2 * t3 - float(rng.uniform(0.0, 1.5))
    else:
        t4 = (Q + t2 * t3 - p) / p - float(rng.uniform(0.05, 2.0))
    return SuperweightParams(float(rng.uniform(0.3, 2.0)),
                             float(rng.uniform(0.3, 2.0)),
                             t2, t3, t4, p=p)


def _draw_radial_hardy(rng):
    k = 1 if rng.random() < 0.9 else 2
    geom = GrushinGeometry(int(rng.integers(1, 4)), k,
                           float(rng.uniform(0.1, 2.0)))
    f = random_test_function(rng, k=k, modes=(0,))
    return verify_radial_hardy(geom, _first_kind_exps(rng, geom), f, POLAR)


def _draw_magnetic(rng):
    geom = GrushinGeometry(2, 1, float(rng.uniform(0.1, 2.0)))
    f = random_test_function(rng, k=1, modes=_mode_subset(rng, real=True),
                             real=True)
    return verify_magnetic_grushin(geom, _first_kind_exps(rng, geom),
                                   FluxParam(float(rng.uniform(-1.0, 1.0))),
                                   f, POLAR)


def _draw_ab(rng):
    k = 1 if rng.random() < 0.9 else 2
    geom = GrushinGeometry(2, k, float(rng.uniform(0.1, 2.0)))
    f = random_test_function(rng, k=k, modes=_mode_subset(rng))
    return verify_ab_hardy(geom, _rotated_exps(rng, geom),
                           FluxParam(float(rng.uniform(-1.0, 1.0))), f, POLAR)


def _draw_uncertainty(rng):
    m = int(rng.choice((1, 2, 3)))
    geom = GrushinGeometry(m, 1, float(rng.uniform(0.1, 2.0)))
    modes = _mode_subset(rng, max_abs=1, real=True) if m == 2 else (0,)
    f = random_test_function(rng, k=1, modes=modes, real=True)
    return verify_uncertainty_grushin(geom, _first_kind_exps(rng, geom),
                                      FluxParam(float(rng.uniform(-1.0, 1.0))),
                                      f, POLAR, variant="uncer1")


def _draw_uncertainty_ab(rng):
    geom = GrushinGeometry(2, 1, float(rng.uniform(0.1, 2.0)))
    g = geom.gamma
    a1 = float(rng.uniform(0.3, 4.0)) - geom.k * (g + 1.0)
    lo = max(-2.0 / g if g > 0 else -3.0, -3.0)
    exps = WeightExponents(a1, float(rng.uniform(lo + 0.1, 2.0)))
    f = random_test_function(rng, k=1, modes=_mode_subset(rng))
    return verify_uncertainty_grushin(geom, exps,
                                      FluxParam(float(rng.uniform(-1.0, 1.0))),
                                      f, POLAR, variant="uncer21")


def _draw_landau_hs(rng):
    t1 = (1.0 if rng.random() < 0.5 else -1.0) * float(rng.uniform(0.3, 1.8))
    f = random_test_function(rng, k=0, modes=_mode_subset(rng))
    return verify_landau("hardy_sobolev", _random_psi(rng), t1, f, POLAR)


def _draw_landau_log(rng):
    f = random_test_function(rng, k=0, modes=_mode_subset(rng),
                             r_lo_range=(0.02, 0.12))
    return verify_landau("log", _random_psi(rng), None, f, POLAR)


def _draw_landau_poincare(rng):
    f = random_test_function(rng, k=0, modes=_mode_subset(rng, real=True),
                             real=True)
    R = f.support()[1] * float(rng.uniform(1.05, 2.0))
    ball = Domain(R * 1e-9, R, kind="ball", R_Omega=R)
    return verify_landau("poincare", _random_psi(rng), None, f, POLAR,
                         domain=ball)


def _draw_landau_superweight(rng):
    f = random_test_function(rng, k=0, modes=_mode_subset(rng))
    return verify_landau("superweight", _random_psi(rng),
                         _landau_superweight(rng), f, POLAR)


def _draw_radial_p(rng, variant):
    Q = float(rng.uniform(1.2, 6.0))
    p = float(rng.uniform(1.2, 3.5))
    f = random_test_function(rng, k=0, modes=(0,))
    if variant == "weighted":
        sign = 1.0 if rng.random() < 0.5 else -1.0
        params = {"theta": (Q + sign * float(rng.uniform(0.3, 3.0))) / p}
    elif variant == "poincare":
        if rng.random() < 0.6:
            params = {"R": f.support()[1] * float(rng.uniform(1.0, 2.0))}
        else:
            params = {}
    elif variant == "superweight":
        params = _landau_superweight(rng, p=p, Q=Q)
    else:
        params = {}
    return verify_radial_p(variant, Q, p, params, f, RADIAL)


def _draw_real_landau(rng, variant):
    if variant == "hardy":
        n = int(rng.choice((1, 2, 3), p=(0.2, 0.5, 0.3)))
    elif variant == "critical":
        n = 1
    else:
        n = int(rng.choice((1, 2), p=(0.7, 0.3)))
    if n == 1:
        f = random_test_function(rng, k=0,
                                 modes=_mode_subset(rng, max_abs=1, real=True),
                                 real=True)
    else:
        f = random_test_function(rng, k=0, modes=(0,), real=True)
    R = None
    if variant == "critical" and rng.random() < 0.5:
        R = math.e * f.support()[1] * float(rng.uniform(1.01, 1.6))
    return verify_real_landau(variant, n, f, POLAR, R=R)


def _draw_constant_field(rng):
    n = 1 if rng.random() < 0.8 else 2
    gamma = float(rng.uniform(0.3, 1.8))
    geom = GrushinGeometry(n, n, gamma)
    a1 = 2.0 - n * (2.0 + gamma) + float(rng.uniform(0.3, 4.0))
    a2_lo = max(-n / gamma + 0.1, -3.0)
    exps = WeightExponents(a1, float(rng.uniform(a2_lo, 2.0)))
    pots = ConstantFieldPotentials.linear(n, float(rng.uniform(0.2, 1.0)))
    f = random_test_function(rng, k=n, modes=(0,), real=True)
    return verify_constant_field(geom, exps, pots, f, POLAR)


_MARGIN_DRAWS = {
    "radial_hardy": _draw_radial_hardy,
    "magnetic_grushin": _draw_magnetic,
    "ab_hardy": _draw_ab,
    "uncertainty_grushin": _draw_uncertainty,
    "uncertainty_ab": _draw_uncertainty_ab,
    "landau_hardy_sobolev": _draw_landau_hs,
    "landau_log": _draw_landau_log,
    "landau_poincare": _draw_landau_poincare,
    "landau_superweight": _draw_landau_superweight,
    "radial_p_weighted": lambda rng: _draw_radial_p(rng, "weighted"),
    "radial_p_log": lambda rng: _draw_radial_p(rng, "log"),
    "radial_p_poincare": lambda rng: _draw_radial_p(rng, "poincare"),
    "radial_p_superweight": lambda rng: _draw_radial_p(rng, "superweight"),
    "real_landau_hardy": lambda rng: _draw_real_landau(rng, "hardy"),
    "real_landau_critical": lambda rng: _draw_real_landau(rng, "critical"),
    "real_landau_uncertainty": lambda rng: _draw_real_landau(rng, "uncertainty"),
    "constant_field": _draw_constant_field,
}


def test_06_randomized_margins_all_theorems():
    rng = np.random.default_rng(9006)
    cases_per_id = 100
    failures = []
    worst_scaled = float("inf")
    for tid, draw in _MARGIN_DRAWS.items():
        for i in range(cases_per_id):
            rep = draw(rng)
            tol = rep.tolerance()
            if tol > 0.0:
                worst_scaled = min(worst_scaled, rep.margin / tol)
            if not rep.passes(tol):
                failures.append((tid, i, rep.margin, tol))
    ok = not failures
    _verdict("06 randomized admissible margins", ok,
             f"{len(_MARGIN_DRAWS)} statements x {cases_per_id} cases, "
             f"min margin/tol {worst_scaled:.1f}"
             + (f", failures {failures[:3]}" if failures else ""))


# --- 7: angular remainder decomposition --------------------------------------

def test_07_fourier_remainder():
    rng = np.random.default_rng(9007)
    geom = GrushinGeometry(2, 1, 1.0)
    exps = WeightExponents(0.2, 0.3)
    spec = QuadratureSpec(n_r=64, n_phi=16, n_y=12)

    worst_sign = -float("inf")
    for _ in range(12):
        f = random_test_function(rng, k=1, modes=_mode_subset(rng))
        terms = fourier_defect_terms(geom, exps, f, spec)
        scale = max(abs(terms["angular"]), abs(terms["defect"]), 1e-300)
        worst_sign = max(worst_sign,
                         (terms["defect"] - terms["angular"]) / scale)
    nonneg_ok = worst_sign <= 1e-10

    f_rad = random_test_function(rng, k=1, modes=(0,))
    rep = verify_ab_hardy(geom, WeightExponents(0.0, 0.0), FluxParam(0.5),
                          f_rad, spec)
    rad_scale = abs(rep.lhs) + abs(rep.rhs_terms["main"])
    radial_ok = abs(rep.rhs_terms["mode_defect"]) <= 1e-12 * rad_scale

    worst_eq = 0.0
    for modes in [(0,), (-1, 1), (-1, 0, 1), (1,)]:
        f = random_test_function(rng, k=1, modes=modes)
        terms = fourier_defect_terms(geom, exps, f, spec)
        scale = max(abs(terms["angular"]), abs(terms["defect"]), 1e-300)
        worst_eq = max(worst_eq, abs(terms["angular"] - terms["defect"]) / scale)
    low_ok = worst_eq <= 1e-10

    ok = nonneg_ok and radial_ok and low_ok
    _verdict("07 fourier remainder decomposition", ok,
             f"sign slack {worst_sign:.1e}, radial defect "
             f"{abs(rep.rhs_terms['mode_defect']) / rad_scale:.1e}, "
             f"low-mode equality {worst_eq:.1e}")


# --- 8: sharpness of the stated constants ------------------------------------

def test_08_sharpness_gaps():
    geom = GrushinGeometry(2, 1, 1.0)
    flat = WeightExponents(0.0, 0.0)
    shell = TrialFamily("rho_power", 0.02, (0.5, 2.0))

    checks = []

    res = estimate_sharpness("radial_hardy", {"geom": geom, "exps": flat}, shell)
    checks.append(("radial", res, 1.0, 0.02))

    for beta in (0.5, -0.5):
        res = estimate_sharpness(
            "magnetic_grushin",
            {"geom": geom, "exps": flat, "flux": FluxParam(beta)}, shell)
        checks.append((f"magnetic b={beta}", res, 1.25, 0.03))

    res = estimate_sharpness("landau_log", None,
                             TrialFamily("log_power", 0.02, (0.05, 0.9)))
    checks.append(("log", res, 0.25, 0.05))

    res = estimate_sharpness("landau_superweight",
                             SuperweightParams(1.0, 1.0, -2.0, 1.0, -2.0),
                             TrialFamily("power", 0.02, (0.002, 0.04)))
    checks.append(("superweight", res, 1.0, 0.05))

    bad = []
    for name, res, target, gap_tol in checks:
        tol = 1e-9 * max(1.0, abs(res.sharp_constant))
        qs = [q for _, q in res.schedule]
        monotone = all(q2 <= q1 + tol for q1, q2 in zip(qs, qs[1:]))
        one_sided = res.best_quotient >= res.sharp_constant - tol
        if not (abs(res.sharp_constant - target) <= 1e-12 * target
                and res.gap <= gap_tol and monotone and one_sided):
            bad.append(name)
    gaps = ", ".join(f"{name} {res.gap:.1e}" for name, res, _, _ in checks)
    _verdict("08 sharpness gap targets", not bad, gaps)


# --- 9: analytic derivatives vs central differences --------------------------

def _fd_gradient(f, p, h_x, h_y):
    m, k = len(p.x), len(p.y)
    gx = np.zeros(m, complex)
    for j in range(m):
        e = np.zeros(m)
        e[j] = h_x
        gx[j] = (evaluate(f, Point(p.x + e, p.y))
                 - evaluate(f, Point(p.x - e, p.y))) / (2 * h_x)
    gy = np.zeros(k, complex)
    for j in range(k):
        e = np.zeros(k)
        e[j] = h_y
        gy[j] = (evaluate(f, Point(p.x, p.y + e))
                 - evaluate(f, Point(p.x, p.y - e))) / (2 * h_y)
    return gx, gy


def _mid_support_point(rng, f, m=2):
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


def test_09_analytic_derivatives_match_fd():
    rng = np.random.default_rng(9009)
    worst = 0.0

    def track(analytic, expected):
        nonlocal worst
        scale = max(float(np.linalg.norm(analytic)), 1e-30)
        err = float(np.linalg.norm(np.asarray(analytic)
                                   - np.asarray(expected))) / scale
        worst = max(worst, err)

    for _ in range(20):  # sub-elliptic gradient of the gauge norm
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
            fd_x[j] = (rho(geom, Point(x + e, p.y))
                       - rho(geom, Point(x - e, p.y))) / (2 * h)
        fd_y = np.zeros(geom.k)
        for j in range(geom.k):
            e = np.zeros(geom.k)
            e[j] = h
            fd_y[j] = (rho(geom, Point(x, p.y + e))
                       - rho(geom, Point(x, p.y - e))) / (2 * h)
        track(grad_rho(geom, p),
              np.concatenate([fd_x, p.r ** geom.gamma * fd_y]))

    for _ in range(20):  # gauge-potential magnetic gradient
        geom = GrushinGeometry(2, int(rng.integers(1, 3)),
                               float(rng.uniform(0.0, 2.0)))
        flux = FluxParam(float(rng.uniform(-1.0, 1.0)))
        f = random_test_function(rng, k=geom.k, modes=(-1, 0, 1))
        p = _mid_support_point(rng, f)
        gx, gy = _fd_gradient(f, p, 1e-5 * p.r, 1e-5)
        val = evaluate(f, p)
        expected = (np.concatenate([gx, p.r ** geom.gamma * gy])
                    + 1j * flux.beta * grushin_potential(geom, p) * val)
        track(magnetic_grad("grushin", flux, geom, f, p), expected)

    for _ in range(20):  # rotated-potential magnetic gradient
        geom = GrushinGeometry(2, 1, float(rng.uniform(0.0, 2.0)))
        flux = FluxParam(float(rng.uniform(-1.0, 1.0)))
        f = random_test_function(rng, k=1, modes=(0, 1, 2))
        p = _mid_support_point(rng, f)
        gx, gy = _fd_gradient(f, p, 1e-5 * p.r, 1e-5)
        val = evaluate(f, p)
        yblock = (p.r ** geom.gamma / math.sqrt(2.0)) * gy
        expected = (np.concatenate([gx, yblock, yblock])
                    + 1j * flux.beta * ab_potential(geom, p) * val)
        track(magnetic_grad("tilde", flux, geom, f, p), expected)

    for _ in range(20):  # twisted planar gradient
        psi = RadialPotential.power(float(rng.uniform(-1.0, 1.0)),
                                    float(rng.uniform(0.5, 1.5)))
        f = random_test_function(rng, k=0, modes=(-1, 0, 2))
        p = _mid_support_point(rng, f)
        gx, _ = _fd_gradient(f, p, 1e-5 * p.r, 1e-5)
        val = evaluate(f, p)
        pv = float(psi(np.asarray(p.r)))
        expected = np.array([gx[0] - 1j * pv * p.x[1] * val,
                             gx[1] + 1j * pv * p.x[0] * val])
        track(twisted_grad_psi(psi, f, p), expected)

    for _ in range(20):  # componentwise constant-field gradient
        geom = GrushinGeometry(1, 1, float(rng.uniform(0.0, 2.0)))
        pots = ConstantFieldPotentials.linear(1, float(rng.uniform(0.1, 1.0)))
        f = random_test_function(rng, k=1, modes=(0,), real=True)
        p = _mid_support_point(rng, f, m=1)
        gx, gy = _fd_gradient(f, p, 1e-5 * p.r, 1e-5)
        val = evaluate(f, p)
        expected = np.array([
            1j * gx[0] + pots.psi1[0](p.y[0]) * val,
            1j * p.r ** geom.gamma * gy[0] + pots.psi2[0](p.x[0]) * val])
        track(constant_field_grad(pots, geom, f, p), expected)

    _verdict("09 analytic derivatives vs central differences", worst <= 1e-6,
             f"100 draws across 5 gradient kinds, max rel err {worst:.2e}")


# --- 10: independent oracle quadrature agreement -----------------------------

def _term_agreement(a, b):
    worst = abs(a.lhs - b.lhs) / max(abs(b.lhs), 1e-300)
    for key in a.rhs_terms:
        scale = max(abs(b.rhs_terms[key]), 1e-12 * abs(b.lhs), 1e-300)
        worst = max(worst, abs(a.rhs_terms[key] - b.rhs_terms[key]) / scale)
    return worst


def test_10_main_engine_vs_oracle():
    rng = np.random.default_rng(9010)
    spec = QuadratureSpec(n_r=96, n_phi=16, n_y=24)
    oracle = QuadratureSpec(n_r=96, n_phi=16, n_y=24, oracle=True)
    plane = QuadratureSpec(n_r=128, n_phi=16)
    plane_oracle = QuadratureSpec(n_r=128, n_phi=16, oracle=True)
    worst = {}

    geom = GrushinGeometry(2, 1, 1.0)
    exps = WeightExponents(0.4, 0.2)
    f_rad = random_test_function(rng, k=1, modes=(0,))
    worst["radial"] = _term_agreement(
        verify_radial_hardy(geom, exps, f_rad, spec),
        verify_radial_hardy(geom, exps, f_rad, oracle))

    f_real = random_test_function(rng, k=1, modes=(0, 1), real=True)
    worst["magnetic"] = _term_agreement(
        verify_magnetic_grushin(geom, exps, FluxParam(0.5), f_real, spec),
        verify_magnetic_grushin(geom, exps, FluxParam(0.5), f_real, oracle))

    f_cx = random_test_function(rng, k=1, modes=(0, 1))
    worst["rotated"] = _term_agreement(
        verify_ab_hardy(geom, exps, FluxParam(0.4), f_cx, spec),
        verify_ab_hardy(geom, exps, FluxParam(0.4), f_cx, oracle))

    psi = RadialPotential.power(0.7, 1.0)
    f_pl = random_test_function(rng, k=0, modes=(0, 1))
    worst["power-weight"] = _term_agreement(
        verify_landau("hardy_sobolev", psi, 1.1, f_pl, plane),
        verify_landau("hardy_sobolev", psi, 1.1, f_pl, plane_oracle))

    sw = SuperweightParams(1.0, 1.0, -2.0, 1.0, -2.0)
    worst["composite-weight"] = _term_agreement(
        verify_landau("superweight", psi, sw, f_pl, plane),
        verify_landau("superweight", psi, sw, f_pl, plane_oracle))

    f_r2 = random_test_function(rng, k=0, modes=(0,), real=True)
    worst["field-hardy"] = _term_agreement(
        verify_real_landau("hardy", 2, f_r2, plane),
        verify_real_landau("hardy", 2, f_r2, plane_oracle))

    f_1d = make_bump(0.4, 1.6)
    worst["radial-p"] = _term_agreement(
        verify_radial_p("weighted", 3.0, 2.5, {"theta": 0.4}, f_1d, RADIAL),
        verify_radial_p("weighted", 3.0, 2.5, {"theta": 0.4}, f_1d,
                        QuadratureSpec(n_r=128, oracle=True)))

    cf_geom = GrushinGeometry(1, 1, 1.0)
    pots = ConstantFieldPotentials.linear(1, 0.5)
    f_cf = random_test_function(rng, k=1, modes=(0,), real=True)
    worst["constant-field"] = _term_agreement(
        verify_constant_field(cf_geom, WeightExponents(0.3, 0.1), pots, f_cf, spec),
        verify_constant_field(cf_geom, WeightExponents(0.3, 0.1), pots, f_cf, oracle))

    peak = max(worst.values())
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    _verdict("10 main engine vs oracle quadrature", peak <= 1e-7, detail)


# --- 11: bytewise reproducibility of suite reports ----------------------------

def test_11_report_bytes_reproducible(tmp_path):
    cfg = {
        "suite": "acceptance-repro",
        "seed": 20260819,
        "runs": [
            {"theorem_id": "radial_hardy",
             "geometry": {"m": 2, "k": 1, "gamma": 1.0},
             "weights": {"alpha1": 0.0, "alpha2": 0.0},
             "function": {"kind": "bump", "r_lo": 0.5, "r_hi": 2.0,
                          "y_box": [[-1.0, 1.0]]},
             "quadrature": {"n_r": 64, "n_phi": 8, "n_y": 12}},
            {"theorem_id": "magnetic_grushin",
             "geometry": {"m": 2, "k": 1, "gamma": 1.0},
             "weights": {"alpha1": 0.3, "alpha2": 0.1},
             "flux": {"beta": 0.5},
             "function": {"kind": "random", "k": 1, "modes": [0, 1],
                          "real": True},
             "quadrature": {"n_r": 64, "n_phi": 12, "n_y": 12}},
            {"theorem_id": "landau_log",
             "function": {"kind": "random", "k": 0, "modes": [0, 1],
                          "r_lo_range": [0.02, 0.1]},
             "quadrature": {"n_r": 64, "n_phi": 12}},
            {"theorem_id": "radial_hardy",
             "geometry": {"m": 2, "k": 1, "gamma": 1.0},
             "weights": {"alpha1": 0.0, "alpha2": 0.0},
             "family": {"base": "rho_power", "epsilon": 0.5,
                        "cutoff": [0.5, 2.0]},
             "schedule": [0.5, 0.2, 0.1]},
        ],
    }
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(cfg, indent=1))
    out1, out2 = tmp_path / "run1.json", tmp_path / "run2.json"
    rc1 = cli_main(["verify", "--config", str(cfg_path), "--out", str(out1)])
    rc2 = cli_main(["verify", "--config", str(cfg_path), "--out", str(out2)])
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    report = json.loads(b1)
    ok = (rc1 == 0 and rc2 == 0 and b1 == b2
          and report["summary"]["n_passed"] == len(cfg["runs"]))
    _verdict("11 bytewise reproducible reports", ok,
             f"{len(b1)} bytes, {report['summary']['n_passed']} runs passed")
