"""The polar path's per-mode (Parseval) evaluation against the phi trapezoid.

The main engine takes each integrand of a polar check once per angular mode
of f, on the mode's parts at phase 1, and multiplies the sum by 2 pi.  The
trapezoid on n_phi uniform angles is exact for the trigonometric content
the aliasing check admits, so on every polar-path run both give the same
integrals up to roundoff.  The mode defect integrates sum_(k != 0) |g_k|^2,
so it is exactly 0 for a mode-0-only f, and per mode |i g|^2 is |g|^2 bit
for bit, so the Fourier terms agree bitwise when every nonzero mode has
|k| = 1.  None of this depends on numpy's SIMD dispatch.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from maghardy import quadrature
from maghardy.cli import _run_one, _run_seed
from maghardy.fields import FluxParam, RadialPotential
from maghardy.functions import TestFunction, random_test_function
from maghardy.geometry import GrushinGeometry, WeightExponents
from maghardy.quadrature import QuadratureSpec, phi_rule
from maghardy.reports import SuperweightParams
from maghardy.verifiers import _grids
from maghardy.verifiers.grushin import fourier_defect_terms, verify_ab_hardy
from maghardy.verifiers.landau import verify_landau

REPO = Path(__file__).resolve().parents[1]
if str(REPO / "perfbench") not in sys.path:
    sys.path.insert(0, str(REPO / "perfbench"))
import workloads  # noqa: E402

POLAR_IDS = {"ab_hardy", "magnetic_grushin", "uncertainty_grushin", "uncertainty_ab",
             "landau_hardy_sobolev", "landau_log", "landau_poincare",
             "landau_superweight", "twisted_polar", "real_landau_identity",
             "real_landau_critical", "real_landau_uncertainty"}


def _trapezoid(density, spec, domain, prepare):
    """The integrals of density by the trapezoid on n_phi uniform angles,
    f's factors evaluated once on the grid as on the main engine."""
    phis, w_phi = phi_rule(spec.n_phi)
    return [w_phi * total for total in quadrature._tensor_sums(
        density, spec, domain, 1, phis.tolist(), prepare)]


def _default_suite():
    cfg = json.loads((REPO / "scripts" / "default_suite.json").read_text())
    return [(run, _run_seed(run, i, cfg["seed"])) for i, run in enumerate(cfg["runs"])
            if "family" not in run]


def _configs(make, seeds, quad=None):
    runs = []
    for i, seed in enumerate(seeds):
        cfg = make(seed, i)
        for j, run in enumerate(cfg["runs"]):
            if quad is not None:
                run = {**run, "quadrature": quad}
            runs.append((run, _run_seed(run, j, cfg["seed"])))
    return runs


SOURCES = {
    "default suite": _default_suite,
    # 20 seeded margins draws: complex and real f, modes up to |k| = 2
    "margins": lambda: _configs(workloads.margins_config, range(9200, 9220)),
    # three modes up to |k| = 3 on every heavy case, at the margins resolution
    # with n_phi = 16, the least the aliasing check admits at |k| = 3
    "hires draws": lambda: _configs(workloads.hires_config, range(3100, 3106),
                                    {"n_r": 48, "n_phi": 16, "n_y": 12}),
}


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_per_mode_integrals_equal_the_phi_trapezoid(monkeypatch, source):
    per_mode, pairs = _grids.integrate_polar, []

    def both(density, spec, domain, modes, prepare):
        got = per_mode(density, spec, domain, modes, prepare)
        pairs.append((tid, modes, got, _trapezoid(density, spec, domain, prepare)))
        return got

    monkeypatch.setattr(_grids, "integrate_polar", both)
    for i, (run, seed) in enumerate(SOURCES[source]()):
        tid = run["theorem_id"]
        _run_one(run, i, seed)

    # real_landau_hardy runs on the plane at n = 1, which the suite never draws
    assert {tid for tid, *_ in pairs} <= POLAR_IDS | {"real_landau_hardy"}
    if source == "default suite":
        assert {tid for tid, *_ in pairs} == POLAR_IDS
    amplitudes = [m.profile.amplitude for _, modes, *_ in pairs for m in modes]
    assert any(a.imag != 0.0 for a in amplitudes)                    # complex f
    assert any(len(modes) > 1 and all(m.profile.amplitude.imag == 0.0 for m in modes)
               for _, modes, *_ in pairs)                            # real f
    assert max(abs(m.mode) for _, modes, *_ in pairs for m in modes) == (
        3 if source == "hires draws" else 2)
    for tid, modes, got, want in pairs:
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-13 * max(abs(a), abs(b)), (tid, [m.mode for m in modes])


# --- the mode defect ------------------------------------------------------------

_PSI = RadialPotential.power(0.7, 1.0)


def _defects(f, spec):
    """The mode defect of every check that reports one, and the Fourier
    terms: the Landau checks on the plane (k = 0), the others at k = 1."""
    out = {}
    if f.k == 0:
        for variant, params in (("hardy_sobolev", 1.1), ("log", None), ("poincare", None),
                                ("superweight", SuperweightParams(1.0, 1.0, -2.0, 1.0, -2.0))):
            radius = 2.0 * f.support()[1] if variant == "poincare" else None
            rep = verify_landau(variant, _PSI, params, f, spec, radius=radius)
            out[variant] = rep.rhs_terms["mode_defect"]
        return out
    geom, exps = GrushinGeometry(2, f.k, 1.0), WeightExponents(0.5, 0.2)
    out["ab_hardy"] = verify_ab_hardy(geom, exps, FluxParam(0.5), f, spec).rhs_terms[
        "mode_defect"]
    terms = fourier_defect_terms(geom, exps, f, spec)
    out["fourier angular"], out["fourier defect"] = terms["angular"], terms["defect"]
    return out


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("k", [0, 1])
def test_a_mode_zero_only_f_has_a_mode_defect_of_exactly_zero(k, real):
    # inside the unit disc, as the log variant needs
    f = random_test_function(np.random.default_rng(31 + k), k=k, modes=(0,), real=real,
                             r_lo_range=(0.2, 0.25))
    defects = _defects(f, QuadratureSpec(n_r=32, n_phi=4, n_y=8))
    assert len(defects) == (4 if k == 0 else 3)
    assert all(v == 0.0 for v in defects.values()), defects
    # the oracle too: at every angle f is its mode 0, so |f|^2 - |f0|^2 is 0
    assert _defects(f, QuadratureSpec(n_r=32, n_phi=4, n_y=8, oracle=True)) == defects


_UNIT_MODES = {"(-1, 1) real": ((-1, 1), True), "(-1, 0, 1) real": ((-1, 0, 1), True),
               "(-1, 0, 1)": ((-1, 0, 1), False), "(0, 1)": ((0, 1), False),
               "(-1,)": ((-1,), False)}


@pytest.mark.parametrize("case", sorted(_UNIT_MODES))
def test_fourier_terms_agree_bitwise_when_every_nonzero_mode_has_size_one(case):
    modes, real = _UNIT_MODES[case]
    f = random_test_function(np.random.default_rng(7), k=1, modes=modes, real=real)
    geom, exps = GrushinGeometry(2, 1, 0.8), WeightExponents(0.5, 0.2)
    terms = fourier_defect_terms(geom, exps, f, QuadratureSpec(n_r=32, n_phi=8, n_y=8))
    assert terms["defect"] > 0.0
    assert terms["angular"] == terms["defect"]


def test_fourier_angular_term_weighs_each_mode_by_its_square():
    # modes 1 and 2 apart: the angular term of mode k is k^2 times its defect
    geom, exps = GrushinGeometry(2, 1, 0.8), WeightExponents(0.5, 0.2)
    spec = QuadratureSpec(n_r=32, n_phi=12, n_y=8)
    f = random_test_function(np.random.default_rng(8), k=1, modes=(1, 2))
    one, two = (TestFunction([m]) for m in f.modes)
    terms = [fourier_defect_terms(geom, exps, g, spec) for g in (one, two, f)]
    assert terms[0]["angular"] == terms[0]["defect"]
    assert abs(terms[1]["angular"] - 4.0 * terms[1]["defect"]) <= 1e-14 * terms[1]["angular"]
    for key in ("angular", "defect"):
        assert abs(terms[2][key] - terms[0][key] - terms[1][key]) <= 1e-14 * terms[2][key]
