"""Dilation symmetry of the Grushin checks (ROADMAP item 6).

Under the dilation (x, y) -> (lam x, lam^(1+gamma) y), the weight B is
homogeneous of degree alpha1, the Hardy weight of degree -2 and each
gradient block of degree 1, while dx dy scales as lam^(-Q).  So every term
of a check on f(lam x, lam^(1+gamma) y) is lam^(2 - Q - alpha1) times the
term on f, and the ratio does not move.  A wrong weight exponent breaks
this whatever the constant.
"""

import numpy as np
import pytest

from maghardy import GrushinGeometry, QuadratureSpec, WeightExponents
from maghardy.fields import FluxParam
from maghardy.functions import AngularMode, TestFunction, random_test_function
from maghardy.verifiers import verify_ab_hardy, verify_magnetic_grushin, verify_radial_hardy


class Dilated:
    """The profile g(lam r, lam^(1+gamma) y), with its partials by the chain rule."""

    def __init__(self, profile, lam, gamma):
        self.inner, self.lam, self.mu = profile, lam, lam ** (1.0 + gamma)
        self.r_lo, self.r_hi = profile.r_lo / lam, profile.r_hi / lam
        self.y_box = tuple((lo / self.mu, hi / self.mu) for lo, hi in profile.y_box)
        self.r_breaks = tuple(b / lam for b in profile.r_breaks)
        self.reaches_origin, self.k = profile.reaches_origin, profile.k

    def on_grid(self, r, y):
        parts = self.inner.on_grid(self.lam * r, self.mu * y)

        def dilated():
            g, gr, gy = parts()
            return g, self.lam * gr, self.mu * gy

        return dilated


GEOM = GrushinGeometry(2, 1, 1.0)
EXPS = WeightExponents(0.7, 0.3)
SPEC = QuadratureSpec(n_r=48, n_phi=12, n_y=12)
DEGREE = GEOM.hom_dim + EXPS.alpha1 - 2.0


def _f(modes, real, seed):
    return random_test_function(np.random.default_rng(seed), k=1, modes=modes, real=real)


_CASES = {
    "radial_hardy": (lambda f: verify_radial_hardy(GEOM, EXPS, f, SPEC), _f((0,), True, 61)),
    "magnetic_grushin": (lambda f: verify_magnetic_grushin(GEOM, EXPS, FluxParam(0.4), f, SPEC),
                         _f((0, 1), True, 62)),
    "ab_hardy": (lambda f: verify_ab_hardy(GEOM, EXPS, FluxParam(0.4), f, SPEC),
                 _f((0, 1, -2), False, 63)),
}


@pytest.mark.parametrize("lam", [0.5, 3.0])
@pytest.mark.parametrize("tid", sorted(_CASES))
def test_every_term_scales_with_the_homogeneous_degree(tid, lam):
    check, f = _CASES[tid]
    dilated = TestFunction([AngularMode(m.mode, Dilated(m.profile, lam, GEOM.gamma))
                            for m in f.modes])
    base, moved = check(f), check(dilated)
    scale = lam ** DEGREE
    assert moved.lhs * scale == pytest.approx(base.lhs, rel=1e-12)
    assert list(moved.rhs_terms) == list(base.rhs_terms)
    for name, value in base.rhs_terms.items():
        assert moved.rhs_terms[name] * scale == pytest.approx(value, rel=1e-12)
    assert moved.ratio == pytest.approx(base.ratio, rel=1e-12)
