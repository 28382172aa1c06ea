"""Closed-form references on the Gaussian e^(-a r^2), mode 0.

Every term whose weight is a power of r is a sum of the moments
M(p) = int_0^inf r^p e^(-2 a r^2) dr, so a test pins it against
math.gamma instead of another engine of this code.
"""

import math

from maghardy import QuadratureSpec
from maghardy.functions import AngularMode, GaussTail, ProductProfile, TestFunction

# the rolloff past r = 6 and the cutoff below 1e-8 sit far below 1e-12 here
GAUSS_SPEC = QuadratureSpec(n_r=192, n_phi=16)


def gauss_moment(a, p):
    """M(p) = int_0^inf r^p e^(-2 a r^2) dr = Gamma((p+1)/2) / (2 (2a)^((p+1)/2))."""
    return math.gamma(0.5 * (p + 1.0)) / (2.0 * (2.0 * a) ** (0.5 * (p + 1.0)))


def gaussian(a):
    """e^(-a r^2) on mode 0."""
    return TestFunction([AngularMode(0, ProductProfile(GaussTail(a=a)))])
