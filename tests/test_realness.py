"""Realness is declared, never sampled.

A profile declares real_valued when its amplitude is real, and then its
on_grid arrays are float.  A TestFunction is real_valued when every mode's
profile is and each mode m carries the profile object of mode -m, so that
f = g_0 + sum_l 2 g_l cos(l phi) is exactly real.  The real-only checks
(magnetic_grushin, uncertainty_grushin, constant_field and the four
real_landau ids) refuse every other f with a RealnessError, including two
complex f that a sample of f on a few radii and angles takes for real.
"""

import math

import numpy as np
import pytest

from maghardy.errors import RealnessError
from maghardy.fields import FluxParam
from maghardy.functions import (
    AngularMode,
    GaussBumpY,
    PlateauLogBump,
    ProductProfile,
    TestFunction,
    random_test_function,
)
from maghardy.geometry import GrushinGeometry, WeightExponents
from maghardy.quadrature import QuadratureSpec
from maghardy.verifiers import (
    verify_magnetic_grushin,
    verify_real_landau,
    verify_uncertainty_grushin,
)

SPEC = QuadratureSpec(n_r=32, n_phi=32, n_y=8)


def _profile(amplitude, k, r_lo=0.5, r_hi=2.0):
    return ProductProfile(PlateauLogBump(r_lo, r_hi),
                          tuple(GaussBumpY(-1.0, 1.0, 0.5) for _ in range(k)), amplitude)


def _sin5(k):
    """g + g e^(5i phi) / 2 - g e^(-5i phi) / 2: every amplitude is real, but
    Im f = g sin(5 phi), which vanishes at 5 equally spaced angles from 0."""
    return TestFunction([AngularMode(0, _profile(1.0, k)), AngularMode(5, _profile(0.5, k)),
                         AngularMode(-5, _profile(-0.5, k))])


def _thin(k):
    """A real bump on [0.5, 2] plus a mode-1 profile of amplitude i on the
    thin annulus [1.30, 1.36], between the 7 log-spaced radii of the bump."""
    return TestFunction([AngularMode(0, _profile(1.0, k)),
                         AngularMode(1, _profile(1j, k, 1.30, 1.36))])


def _at(f, r, phi, k):
    return complex(f.value_polar(np.array([[r]]), phi, np.zeros((1, 1, k)))[0, 0])


@pytest.mark.parametrize("k", [0, 1])
def test_the_probes_are_complex_and_not_declared_real(k):
    sin5, thin = _sin5(k), _thin(k)
    assert all(m.profile.real_valued for m in sin5.modes)
    assert _at(sin5, 1.0, math.pi / 10, k) == pytest.approx(1.0 + 1.0j, abs=1e-15)
    assert abs(_at(thin, 1.33, 0.0, k).imag) > 0.5
    assert not sin5.real_valued and not thin.real_valued


# Grushin geometries need k >= 1, and the real Landau statements run on the
# plane (k = 0), so the probes meet the Grushin checks at k = 1 and the
# Landau checks at k = 0
_GEOM, _EXPS, _FLUX = GrushinGeometry(2, 1, 1.0), WeightExponents(0.4, 0.2), FluxParam(0.5)
_REAL_ONLY = {
    "magnetic_grushin": (1, lambda f: verify_magnetic_grushin(_GEOM, _EXPS, _FLUX, f, SPEC)),
    "uncertainty_grushin": (1, lambda f: verify_uncertainty_grushin(
        _GEOM, _EXPS, _FLUX, f, SPEC, variant="uncer1")),
    **{f"real_landau_{variant}": (0, lambda f, variant=variant: verify_real_landau(
        variant, 1, f, SPEC)) for variant in ("identity", "hardy", "critical", "uncertainty")},
}


@pytest.mark.parametrize("probe", [_sin5, _thin], ids=["sin5", "thin"])
@pytest.mark.parametrize("tid", sorted(_REAL_ONLY))
def test_every_real_only_check_refuses_the_probes(tid, probe):
    k, check = _REAL_ONLY[tid]
    with pytest.raises(RealnessError, match="not declared real"):
        check(probe(k))


def test_a_real_cosine_pair_shares_one_profile():
    prof = _profile(0.5, 0)
    assert TestFunction([AngularMode(-1, prof), AngularMode(1, prof)]).real_valued
    assert not TestFunction([AngularMode(1, prof)]).real_valued
    # equal but distinct profiles on -1 and +1 are not a declaration
    twin = _profile(0.5, 0)
    assert not TestFunction([AngularMode(-1, prof), AngularMode(1, twin)]).real_valued
    imag = _profile(0.5j, 0)
    assert not TestFunction([AngularMode(-1, imag), AngularMode(1, imag)]).real_valued
    assert not TestFunction([AngularMode(0, _profile(1j, 0))]).real_valued
    assert TestFunction([AngularMode(0, _profile(complex(2.0, 0.0), 0))]).real_valued


def test_a_profile_that_declares_nothing_is_not_real():
    class Undeclared:
        def __init__(self, profile):
            self.inner = profile
            for name in ("r_lo", "r_hi", "y_box", "r_breaks", "reaches_origin", "k"):
                setattr(self, name, getattr(profile, name))

        def on_grid(self, r, y, memo=None):
            return self.inner.on_grid(r, y, memo)

    assert not TestFunction([AngularMode(0, Undeclared(_profile(1.0, 1)))]).real_valued


@pytest.mark.parametrize("seed", range(8))
def test_a_declared_real_draw_is_real_at_every_angle(seed):
    rng = np.random.default_rng(400 + seed)
    modes = (-2, 0, 1, 3)[: 2 + seed % 3]
    real = random_test_function(rng, k=1, modes=modes, real=True)
    cplx = random_test_function(rng, k=1, modes=modes)
    assert real.real_valued and not cplx.real_valued
    for f, imaginary in ((real, False), (cplx, True)):
        r_lo, r_hi, box, _ = f.support()
        r = np.geomspace(r_lo, r_hi, 41)[:, None]
        y = np.linspace(*box[0], 17)[None, :, None]
        at = f.on_grid(r, y)
        values = np.array([at(phi)[0] for phi in np.linspace(0.0, 2 * math.pi, 64)])
        imag, scale = float(np.max(np.abs(values.imag))), float(np.max(np.abs(values)))
        assert imag > 1e-3 * scale if imaginary else imag <= 1e-15 * scale
