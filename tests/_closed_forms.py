"""Closed-form references on the Gaussian e^(-a r^2) and on r^j e^(-a r^2).

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


class PowerGauss:
    """Radial factor r^j e^(-a r^2), j >= 1, with a GaussTail rolloff on [8, 10].

    It vanishes at 0 to order j, so it does not declare reaches_origin and
    any angular mode may carry it; r_lo = 1e-8 is its inner edge, below
    which a moment M(p) loses r_lo^(p + 1) / (p + 1).  The rolloff starts
    at 8, not at GaussTail's 6, where e^(-2 a r^2) r^p of the tests' largest
    p, about 11, still leaves 4e-13 of its moment at a = 0.5.
    """

    def __init__(self, j: int, a: float):
        self.j, self.tail = j, GaussTail(a=a, fall=8.0, r_hi=10.0, r_lo=1e-8)
        self.r_lo, self.r_hi, self.breaks = self.tail.r_lo, self.tail.r_hi, self.tail.breaks

    def both(self, r):
        g, dg = self.tail.both(r)
        return r**self.j * g, r ** (self.j - 1) * (self.j * g + r * dg)


def power_gaussian(j, a, modes):
    """r^j e^(-a r^2) on each of modes, one shared profile of amplitude 1:
    on a +-k pair a real f, 2 r^j e^(-a r^2) cos(k phi)."""
    profile = ProductProfile(PowerGauss(j, a))
    return TestFunction([AngularMode(k, profile) for k in modes])
