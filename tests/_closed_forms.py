"""Closed-form references on the Gaussian e^(-a r^2) and on r^j e^(-a r^2).

Every term whose weight is a power of r is a sum of the moments
M(p) = int_0^inf r^p e^(-2 a r^2) dr, so a test pins it against
math.gamma instead of another engine of this code.  A weight that is not a
power of r is pinned against log_integral, a 1-D Gauss-Legendre rule in
log r of its own; a Grushin term on a rho-radial f against the
gauge-polar Beta factor times such a 1-D integral in rho, of a smooth
profile (GaugeGauss) or of a plateau shell written out here (PlateauShell).
"""

import math

import numpy as np

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

    def __init__(self, j: int, a: float, fall: float = 8.0, r_hi: float = 10.0):
        self.j, self.tail = j, GaussTail(a=a, fall=fall, r_hi=r_hi, r_lo=1e-8)
        self.r_lo, self.r_hi, self.breaks = self.tail.r_lo, self.tail.r_hi, self.tail.breaks

    def both(self, r):
        g, dg = self.tail.both(r)
        return r**self.j * g, r ** (self.j - 1) * (self.j * g + r * dg)


def power_gaussian(j, a, modes, **tail):
    """r^j e^(-a r^2) on each of modes, one shared profile of amplitude 1:
    on a +-k pair a real f, 2 r^j e^(-a r^2) cos(k phi).  tail sets the
    rolloff (fall, r_hi) of PowerGauss."""
    profile = ProductProfile(PowerGauss(j, a, **tail))
    return TestFunction([AngularMode(k, profile) for k in modes])


# --- gauge-polar references for the Grushin family ------------------------------
#
# With u = |x|^(1+g) = R cos t and v = (1+g)|y| = R sin t, R = rho^(1+g) and
# t in [0, pi/2], dx dy = |S^(m-1)| |S^(k-1)| (1+g)^(-k) rho^(Q-1) drho
# cos^(m/(1+g)-1)(t) sin^(k-1)(t) dt and |x| / rho = cos^(1/(1+g))(t)
# (Garofalo, J. Differential Equations 104, 1993).  On f = F(rho) every
# Grushin term is a power of rho times (|x|/rho)^c, so its integral is the
# Beta factor below times a 1-D rho integral.

def gauge_polar_factor(m, k, gamma, c):
    """|S^(m-1)| |S^(k-1)| (1+g)^(-k) times
    int_0^(pi/2) cos^((m+c)/(1+g)-1) sin^(k-1) = (1/2) B((m+c)/(2(1+g)), k/2)."""
    a, b = (m + c) / (2.0 * (1.0 + gamma)), 0.5 * k
    beta = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    return _sphere(m) * _sphere(k) * (1.0 + gamma) ** -k * 0.5 * beta


def _sphere(n):
    return 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)


def log_integral(fn, lo, hi, panels=200, n=32):
    """int_lo^hi fn(r) dr by n-node Gauss-Legendre in log r on `panels`
    equal panels: a 1-D rule of its own, no code of the engine."""
    x, w = np.polynomial.legendre.leggauss(n)
    edges = np.linspace(math.log(lo), math.log(hi), panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    t = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half * x
    r = np.exp(t)
    return math.fsum((half * w * r * fn(r)).ravel())


class GaugeGauss:
    """f = F(rho) = X^p e^(-a X) with X = rho^(2+2g), on mode 0: smooth in
    (|x|, y), since X = |x|^(2+2g) + (1+g)^2 |y|^2 is, and vanishing to
    order p (2 + 2g) at the gauge origin, so the engine's tensor rule
    converges fast on it.  Its box holds a X <= 50; the inner cutoff
    r_lo = 1e-7 and a break at r = 1 split the log-radial rule."""

    reaches_origin = True
    y_even = True
    real_valued = True

    def __init__(self, geom, p, a=1.0):
        self.geom, self.p, self.a = geom, p, a
        g = geom.gamma
        top = 50.0 / a
        self.r_lo, self.r_hi = 1e-7, top ** (1.0 / (2.0 + 2.0 * g))
        self.r_breaks = (1.0,)
        self.y_box = ((-math.sqrt(top) / (1.0 + g), math.sqrt(top) / (1.0 + g)),) * geom.k

    @property
    def k(self):
        return self.geom.k

    def _of_X(self, X):
        """(F, dF/dX) at X."""
        e = np.exp(-self.a * X)
        return X ** self.p * e, (self.p * X ** (self.p - 1) - self.a * X ** self.p) * e

    def F(self, rho):
        """(F, dF/drho) at rho."""
        q = 2.0 + 2.0 * self.geom.gamma
        F, dF = self._of_X(rho ** q)
        return F, dF * q * rho ** (q - 1.0)

    def on_grid(self, r, y, memo=None):
        """(g, dg/dr, grad_y g) on the grid (r, y), through X in (r, y)."""
        g = self.geom.gamma
        F, dF = self._of_X(r ** (2.0 + 2.0 * g) + (1.0 + g) ** 2 * np.sum(y * y, axis=-1))
        return (F, dF * (2.0 + 2.0 * g) * r ** (1.0 + 2.0 * g),
                (dF * 2.0 * (1.0 + g) ** 2)[..., None] * y)


class PlateauShell:
    """F(rho) = rho^sigma p(log rho) on [lo, hi], written out here and not
    read from maghardy.functions: p is 1 on the middle half of
    [log lo, log hi] and, on each outer quarter, S(t) of the distance t to
    its edge in quarters, S(t) = e^(-1/t) / (e^(-1/t) + e^(-1/(1-t))) with
    S' = S (1 - S) (1/t^2 + 1/(1-t)^2).  panels are lo, the two quarter
    points and hi, between which F is smooth."""

    def __init__(self, sigma, lo, hi):
        self.sigma = sigma
        self.a, self.b = math.log(lo), math.log(hi)
        self.q = 0.25 * (self.b - self.a)
        self.panels = (lo, math.exp(self.a + self.q), math.exp(self.b - self.q), hi)

    def F(self, rho):
        """(F, dF/drho) at rho, every node inside one panel."""
        u = np.log(rho)
        rise, fall = (u - self.a) / self.q, (self.b - u) / self.q
        t = np.minimum(rise, fall)
        p, dp = np.ones(t.shape), np.zeros(t.shape)
        ramp = t < 1.0
        tr = t[ramp]
        e0, e1 = np.exp(-1.0 / tr), np.exp(-1.0 / (1.0 - tr))
        S = e0 / (e0 + e1)
        p[ramp] = S
        slope = S * (1.0 - S) * (1.0 / tr**2 + 1.0 / (1.0 - tr) ** 2) / self.q
        dp[ramp] = np.where(rise[ramp] < fall[ramp], slope, -slope)
        return rho**self.sigma * p, rho ** (self.sigma - 1.0) * (self.sigma * p + dp)
