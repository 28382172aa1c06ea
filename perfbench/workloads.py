"""Seeded `verify` configs for the benchmark workloads.

Every generator takes an integer seed and returns a plain JSON-ready suite
config; maghardy sees nothing but that JSON.  The parameter regions mirror
the admissible draws of the acceptance tests, so a config always loads
without a ConfigError.  Test-function shapes are drawn by maghardy itself
from the per-run seed (suite seed + run index), as in any user config.

  margins    all 17 margin ids and the 3 identities at acceptance
             resolution (polar 48x12x12, radial-p n_r=128)
  hires      m=2 polar-path cases at the QuadratureSpec defaults
             (256x32x64) with three angular terms up to |mode| 3
  sharpness  `family` runs for all 5 sharpness engines, 6-step schedule,
             gauss and plain windows

Generators also take the pass's index within the run.  The rare heavy
draws of the acceptance regions (k=2 Grushin geometry, n=2 constant field)
come at their acceptance rate on fixed pass indices instead of by coin, so
every run holds the same number of them (stratified sampling); everything
else is drawn from the seed.  A run is a fixed number of passes, set by
`pass_count`, so a seed fixes the whole run's input.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("margins", "hires", "sharpness")

POLAR = {"n_r": 48, "n_phi": 12, "n_y": 12}
RADIAL = {"n_r": 128, "n_phi": 4, "n_y": 12}
HIRES = {"n_r": 256, "n_phi": 32, "n_y": 64}
SCHEDULE = [0.5, 0.3, 0.2, 0.1, 0.05, 0.02]

# One pass in HEAVY_PERIOD carries the k=2 margin draws (probability 0.1 in
# the acceptance draws).
HEAVY_PERIOD = 10
# Passes per second of --seconds, about the rate on a quiet 2-vCPU Xeon VM,
# and the block a run's pass count is a whole multiple of (so each stratum
# and, with --trace 1, traced and untraced passes come in equal numbers).
PASSES_PER_S = {"margins": 1.5, "hires": 0.1, "sharpness": 2.0}
PASS_BLOCK = {"margins": HEAVY_PERIOD, "hires": 2, "sharpness": 10}


def pass_count(workload: str, seconds: float) -> int:
    """Timed passes in a run of about `seconds` on a quiet machine."""
    block = PASS_BLOCK[workload]
    return block * max(1, round(seconds * PASSES_PER_S[workload] / block))


# Default support of maghardy's random test functions: r_lo in [0.3, 1.0],
# r_hi = r_lo * [1.8, 3.5].  Poincare-type draws pin the support so that the
# ball radius can be drawn relative to it, as the acceptance draws do.
_R_LO_RANGE = (0.3, 1.0)
_RATIO_RANGE = (1.8, 3.5)


def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def _coin(rng, p):
    return bool(rng.random() < p)


def _geometry(m, k, gamma):
    return {"m": int(m), "k": int(k), "gamma": gamma}


def _hom_dim(geom):
    return geom["m"] + (1.0 + geom["gamma"]) * geom["k"]


def _mode_subset(rng, max_abs=2, real=False, size=None):
    pool = list(range(-max_abs, max_abs + 1))
    if size is None:
        size = int(rng.integers(1, 4))
    modes = [int(v) for v in rng.choice(pool, size=size, replace=False)]
    return sorted({abs(v) for v in modes}) if real else modes


def _first_kind_exps(rng, geom):
    # Q + alpha1 - 2 > 0 and m + alpha2 * gamma > 0
    a1 = _u(rng, 0.3, 5.0) + 2.0 - _hom_dim(geom)
    lo = -geom["m"] / geom["gamma"] if geom["gamma"] > 0 else -3.0
    return {"alpha1": a1, "alpha2": _u(rng, max(lo, -3.0) + 0.1, 2.0)}


def _rotated_exps(rng, geom):
    # alpha1 + k(gamma+1) > 0 and alpha2 + 2 gamma > 0
    g = geom["gamma"]
    a1 = _u(rng, 0.3, 4.0) - geom["k"] * (g + 1.0)
    return {"alpha1": a1, "alpha2": _u(rng, -2.0 * g + 0.1, 2.0)}


def _uncertainty_ab_exps(rng, geom):
    g = geom["gamma"]
    a1 = _u(rng, 0.3, 4.0) - geom["k"] * (g + 1.0)
    lo = max(-2.0 / g if g > 0 else -3.0, -3.0)
    return {"alpha1": a1, "alpha2": _u(rng, lo + 0.1, 2.0)}


def _psi(rng):
    if _coin(rng, 0.4):
        return {"kind": "constant", "c": _u(rng, -1.0, 1.0)}
    return {"kind": "power", "c": _u(rng, -1.0, 1.0), "s": _u(rng, 0.3, 1.5)}


def _superweight(rng, p=2.0, Q=None):
    sign = 1.0 if _coin(rng, 0.5) else -1.0
    t2 = sign * _u(rng, 0.5, 2.0)
    t3 = -sign * _u(rng, 0.5, 2.0)
    if Q is None:
        t4 = 0.5 * t2 * t3 - _u(rng, 0.0, 1.5)
    else:
        t4 = (Q + t2 * t3 - p) / p - _u(rng, 0.05, 2.0)
    return {"a": _u(rng, 0.3, 2.0), "b": _u(rng, 0.3, 2.0),
            "theta2": t2, "theta3": t3, "theta4": t4, "p": p}


def _random_fn(k, modes, real=False, **extra):
    out = {"kind": "random", "k": int(k), "modes": [int(m) for m in modes],
           "real": bool(real)}
    out.update(extra)
    return out


def _pinned_support(rng, r_lo_range=_R_LO_RANGE):
    """Draw (r_lo, ratio) here; returns the function keys and the outer radius."""
    r_lo = _u(rng, *r_lo_range)
    ratio = _u(rng, *_RATIO_RANGE)
    keys = {"r_lo_range": [r_lo, r_lo], "ratio_range": [ratio, ratio]}
    return keys, r_lo * ratio


# --- margins ---------------------------------------------------------------

def _m_radial_hardy(rng, index):
    k = 2 if index % HEAVY_PERIOD == 0 else 1
    geom = _geometry(int(rng.integers(1, 4)), k, _u(rng, 0.1, 2.0))
    return {"geometry": geom, "weights": _first_kind_exps(rng, geom),
            "function": _random_fn(k, [0]), "quadrature": POLAR}


def _m_magnetic(rng, index):
    geom = _geometry(2, 1, _u(rng, 0.1, 2.0))
    modes = _mode_subset(rng, real=True)
    return {"geometry": geom, "weights": _first_kind_exps(rng, geom),
            "flux": {"beta": _u(rng, -1.0, 1.0)},
            "function": _random_fn(1, modes, real=True), "quadrature": POLAR}


def _m_ab(rng, index):
    # the heavy k=2 passes alternate between three and two angular terms
    heavy = index % HEAVY_PERIOD == 0
    k = 2 if heavy else 1
    geom = _geometry(2, k, _u(rng, 0.1, 2.0))
    modes = _mode_subset(rng, size=3 - (index // HEAVY_PERIOD) % 2 if heavy else None)
    return {"geometry": geom, "weights": _rotated_exps(rng, geom),
            "flux": {"beta": _u(rng, -1.0, 1.0)},
            "function": _random_fn(k, modes), "quadrature": POLAR}


def _m_uncertainty(rng, index):
    m = int(rng.choice((1, 2, 3)))
    geom = _geometry(m, 1, _u(rng, 0.1, 2.0))
    modes = _mode_subset(rng, max_abs=1, real=True) if m == 2 else [0]
    return {"geometry": geom, "weights": _first_kind_exps(rng, geom),
            "flux": {"beta": _u(rng, -1.0, 1.0)},
            "function": _random_fn(1, modes, real=True), "quadrature": POLAR}


def _m_uncertainty_ab(rng, index):
    geom = _geometry(2, 1, _u(rng, 0.1, 2.0))
    exps = _uncertainty_ab_exps(rng, geom)
    return {"geometry": geom, "weights": exps,
            "flux": {"beta": _u(rng, -1.0, 1.0)},
            "function": _random_fn(1, _mode_subset(rng)), "quadrature": POLAR}


def _m_landau_hs(rng, index):
    t1 = (1.0 if _coin(rng, 0.5) else -1.0) * _u(rng, 0.3, 1.8)
    return {"theta1": t1, "function": _random_fn(0, _mode_subset(rng)),
            "psi": _psi(rng), "quadrature": POLAR}


def _m_landau_log(rng, index):
    fn = _random_fn(0, _mode_subset(rng), r_lo_range=[0.02, 0.12])
    return {"function": fn, "psi": _psi(rng), "quadrature": POLAR}


def _m_landau_poincare(rng, index):
    support, r_hi = _pinned_support(rng)
    fn = _random_fn(0, _mode_subset(rng, real=True), real=True, **support)
    R = r_hi * _u(rng, 1.05, 2.0)
    return {"function": fn, "domain": {"kind": "ball", "R": R},
            "psi": _psi(rng), "quadrature": POLAR}


def _m_landau_superweight(rng, index):
    return {"function": _random_fn(0, _mode_subset(rng)), "psi": _psi(rng),
            "superweight": _superweight(rng), "quadrature": POLAR}


def _radial_p(variant):
    def draw(rng, index):
        Q = _u(rng, 1.2, 6.0)
        p = _u(rng, 1.2, 3.5)
        support, r_hi = _pinned_support(rng)
        run = {"Q": Q, "p": p, "function": _random_fn(0, [0], **support),
               "quadrature": RADIAL}
        if variant == "weighted":
            sign = 1.0 if _coin(rng, 0.5) else -1.0
            run["theta"] = (Q + sign * _u(rng, 0.3, 3.0)) / p
        elif variant == "poincare" and _coin(rng, 0.6):
            run["R"] = r_hi * _u(rng, 1.0, 2.0)
        elif variant == "superweight":
            run["superweight"] = _superweight(rng, p=p, Q=Q)
        return run
    return draw


def _real_landau(variant):
    def draw(rng, index):
        if variant == "hardy":
            n = int(rng.choice((1, 2, 3), p=(0.2, 0.5, 0.3)))
        elif variant == "critical":
            n = 1
        else:
            n = int(rng.choice((1, 2), p=(0.7, 0.3)))
        support, r_hi = _pinned_support(rng)
        if n == 1:
            fn = _random_fn(0, _mode_subset(rng, max_abs=1, real=True),
                            real=True, **support)
        else:
            fn = _random_fn(0, [0], real=True, **support)
        run = {"n": n, "function": fn, "quadrature": POLAR}
        if variant == "critical" and _coin(rng, 0.5):
            run["R"] = math.e * r_hi * _u(rng, 1.01, 1.6)
        return run
    return draw


def _m_constant_field(rng, index):
    n = 2 if index % 5 == 2 else 1
    gamma = _u(rng, 0.3, 1.8)
    a1 = 2.0 - n * (2.0 + gamma) + _u(rng, 0.3, 4.0)
    a2 = _u(rng, max(-n / gamma + 0.1, -3.0), 2.0)
    return {"geometry": _geometry(n, n, gamma),
            "weights": {"alpha1": a1, "alpha2": a2},
            "potentials": {"kind": "linear", "slope": _u(rng, 0.2, 1.0)},
            "function": _random_fn(n, [0], real=True), "quadrature": POLAR}


# Identities at the resolutions their acceptance tests use (an identity
# passes at rel_err <= 1e-8, which the coarse margin grid does not reach).
def _i_grushin_ibp(rng, index):
    # test_03's region, cut to the identity's own conditions
    # Q + alpha1 - 2 > 0 and m + gamma * alpha2 > 0
    geom = _geometry(int(rng.integers(1, 4)), 1, _u(rng, 0.2, 2.0))
    a1 = _u(rng, max(-1.0, 2.1 - _hom_dim(geom)), 1.5)
    a2 = _u(rng, max(-1.0, -geom["m"] / geom["gamma"] + 0.1), 1.0)
    return {"geometry": geom, "weights": {"alpha1": a1, "alpha2": a2},
            "alpha": _u(rng, -1.0, 1.5),
            "function": _random_fn(1, [0], real=True),
            "quadrature": {"n_r": 64, "n_phi": 4, "n_y": 160}}


def _i_twisted_polar(rng, index):
    return {"psi": {"kind": "power", "c": _u(rng, -1.0, 1.0), "s": _u(rng, 0.3, 1.5)},
            "kappa": {"kind": "power", "c": _u(rng, -1.0, 1.0), "s": _u(rng, 0.3, 1.5)},
            "function": _random_fn(0, [0, 1, 2], real=True),
            "quadrature": {"n_r": 96, "n_phi": 16, "n_y": 16}}


def _i_real_landau_identity(rng, index):
    return {"n": 1, "function": {"kind": "gauss_tail", "a": _u(rng, 0.3, 0.8)},
            "quadrature": {"n_r": 192, "n_phi": 4}}


MARGIN_DRAWS = {
    "radial_hardy": _m_radial_hardy,
    "magnetic_grushin": _m_magnetic,
    "ab_hardy": _m_ab,
    "uncertainty_grushin": _m_uncertainty,
    "uncertainty_ab": _m_uncertainty_ab,
    "landau_hardy_sobolev": _m_landau_hs,
    "landau_log": _m_landau_log,
    "landau_poincare": _m_landau_poincare,
    "landau_superweight": _m_landau_superweight,
    "radial_p_weighted": _radial_p("weighted"),
    "radial_p_log": _radial_p("log"),
    "radial_p_poincare": _radial_p("poincare"),
    "radial_p_superweight": _radial_p("superweight"),
    "real_landau_hardy": _real_landau("hardy"),
    "real_landau_critical": _real_landau("critical"),
    "real_landau_uncertainty": _real_landau("uncertainty"),
    "constant_field": _m_constant_field,
    "grushin_ibp": _i_grushin_ibp,
    "twisted_polar": _i_twisted_polar,
    "real_landau_identity": _i_real_landau_identity,
}


def margins_config(seed: int, index: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    runs = [{"theorem_id": tid, **draw(rng, index)} for tid, draw in MARGIN_DRAWS.items()]
    return {"suite": f"perfbench-margins-{seed}", "seed": seed, "runs": runs}


# --- hires -----------------------------------------------------------------
# Every case carries exactly three angular terms: three distinct modes in
# -3..3 (complex) or 0 and +-l with l in 1..3 (real), so each pass costs the
# same whatever the seed.

def _three_modes(rng):
    return sorted(int(v) for v in rng.choice(range(-3, 4), size=3, replace=False))


def _real_modes(rng):
    return [0, int(rng.integers(1, 4))]


def _h_magnetic(rng):
    geom = _geometry(2, 1, _u(rng, 0.1, 2.0))
    return {"geometry": geom, "weights": _first_kind_exps(rng, geom),
            "flux": {"beta": _u(rng, -1.0, 1.0)},
            "function": _random_fn(1, _real_modes(rng), real=True)}


def _h_ab(rng):
    geom = _geometry(2, 1, _u(rng, 0.1, 2.0))
    return {"geometry": geom, "weights": _rotated_exps(rng, geom),
            "flux": {"beta": _u(rng, -1.0, 1.0)},
            "function": _random_fn(1, _three_modes(rng))}


def _h_uncertainty_ab(rng):
    geom = _geometry(2, 1, _u(rng, 0.1, 2.0))
    exps = _uncertainty_ab_exps(rng, geom)
    return {"geometry": geom, "weights": exps,
            "flux": {"beta": _u(rng, -1.0, 1.0)},
            "function": _random_fn(1, _three_modes(rng))}


def _h_landau_hs(rng):
    t1 = (1.0 if _coin(rng, 0.5) else -1.0) * _u(rng, 0.3, 1.8)
    return {"theta1": t1, "psi": _psi(rng),
            "function": _random_fn(0, _three_modes(rng))}


def _h_landau_log(rng):
    return {"psi": _psi(rng),
            "function": _random_fn(0, _three_modes(rng), r_lo_range=[0.02, 0.12])}


def _h_landau_poincare(rng):
    support, r_hi = _pinned_support(rng)
    return {"psi": _psi(rng), "domain": {"kind": "ball", "R": r_hi * _u(rng, 1.05, 2.0)},
            "function": _random_fn(0, _real_modes(rng), real=True, **support)}


def _h_landau_superweight(rng):
    return {"psi": _psi(rng), "superweight": _superweight(rng),
            "function": _random_fn(0, _three_modes(rng))}


def _h_twisted_polar(rng):
    return {"psi": _psi(rng),
            "kappa": {"kind": "power", "c": _u(rng, -1.0, 1.0), "s": _u(rng, 0.3, 1.5)},
            "function": _random_fn(0, _real_modes(rng), real=True)}


# A pass holds the three heavy k=1 Grushin-type cases and two of the five
# light k=0 ones (Landau margins, twisted_polar), taken in turn by seed, so
# every light case recurs across passes.  With the light cases a minority,
# p50 and p90 both fall among the heavy cases, not on the edge between groups.
HIRES_HEAVY = (
    ("magnetic_grushin", _h_magnetic),
    ("ab_hardy", _h_ab),
    ("uncertainty_ab", _h_uncertainty_ab),
)
HIRES_LIGHT = (
    ("landau_hardy_sobolev", _h_landau_hs),
    ("landau_log", _h_landau_log),
    ("landau_poincare", _h_landau_poincare),
    ("landau_superweight", _h_landau_superweight),
    ("twisted_polar", _h_twisted_polar),
)


def hires_config(seed: int, index: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    light = [HIRES_LIGHT[(2 * seed + j) % len(HIRES_LIGHT)] for j in range(2)]
    runs = [{"theorem_id": tid, **draw(rng), "quadrature": HIRES}
            for tid, draw in (*HIRES_HEAVY, *light)]
    return {"suite": f"perfbench-hires-{seed}", "seed": seed, "runs": runs}


# --- sharpness ---------------------------------------------------------------

def _cutoff(rng, lo_range, span_range):
    lo = _u(rng, *lo_range)
    return [lo, lo * _u(rng, *span_range)]


def _s_radial(rng, index, magnetic):
    k = 2 if index % 5 == 1 else 1
    geom = _geometry(int(rng.integers(1, 4)), k, _u(rng, 0.1, 2.0))
    run = {"geometry": geom, "weights": _first_kind_exps(rng, geom),
           "family": {"base": "rho_power", "epsilon": 0.5,
                      "cutoff": _cutoff(rng, (0.3, 0.8), (2.0, 6.0))}}
    if magnetic:
        run["flux"] = {"beta": _u(rng, -1.0, 1.0)}
    return run


def _s_landau_hs(rng, index):
    t1 = (1.0 if _coin(rng, 0.5) else -1.0) * _u(rng, 0.3, 1.8)
    return {"theta1": t1,
            "family": {"base": "inverse_power", "epsilon": 0.5,
                       "cutoff": _cutoff(rng, (0.3, 0.8), (2.0, 6.0))}}


def _s_landau_log(rng, index):
    return {"family": {"base": "log_power", "epsilon": 0.5,
                       "cutoff": [_u(rng, 0.01, 0.1), _u(rng, 0.5, 0.95)]}}


def _s_landau_superweight(rng, index):
    sw = _superweight(rng)
    del sw["p"]
    return {"superweight": sw,
            "family": {"base": "power", "epsilon": 0.5,
                       "cutoff": _cutoff(rng, (0.001, 0.01), (5.0, 40.0))}}


SHARPNESS_DRAWS = {
    "radial_hardy": lambda rng, index: _s_radial(rng, index, magnetic=False),
    "magnetic_grushin": lambda rng, index: _s_radial(rng, index, magnetic=True),
    "landau_hardy_sobolev": _s_landau_hs,
    "landau_log": _s_landau_log,
    "landau_superweight": _s_landau_superweight,
}


def sharpness_config(seed: int, index: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    runs = []
    for window in ("gauss", "plain"):
        for tid, draw in SHARPNESS_DRAWS.items():
            runs.append({"theorem_id": tid, **draw(rng, index), "window": window,
                         "schedule": SCHEDULE})
    return {"suite": f"perfbench-sharpness-{seed}", "seed": seed, "runs": runs}


CONFIGS = {"margins": margins_config, "hires": hires_config,
           "sharpness": sharpness_config}
