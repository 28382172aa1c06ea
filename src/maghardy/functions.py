"""Smooth compactly-supported test functions with analytic derivatives.

A test function lives on an annulus-times-box region of R^m x R^k and is
stored in polar-separated form

    f(r, phi, y) = sum_k  g_k(r, y) * exp(i k phi),

a finite, nonempty sum of angular modes with smooth profiles g_k.  Profiles
are built from closed-form factors (plateau bumps, powers, Gaussians), so
radial and y partial derivatives are exact — finite differences appear only
in tests.  The zero function is one mode of amplitude 0 on a fixed support,
so it is evaluated and integrated like any other f.

The plateau bump rises from 0 to 1 over the first quarter of its interval
(in log r for the radial direction), is identically 1 on the middle half,
and falls back to 0 on the last quarter.  Edges use the standard smoothstep
built from exp(-1/t), which is C-infinity with all derivatives vanishing at
the junctions, keeping every profile in the compactly-supported smooth class
required by the inequalities.  Every consumer wants an edge's value and its
derivative at the same nodes, so _step gives both from one pair of
exponentials, taken only on the nodes of its ramp, _plateau gives the bump
and its derivative from its two edges, and each factor's both(t) returns
(value, derivative) together.  On its own three Gauss panels the bump is
one cached table per node count (plateau_panels), which plateau_rule hands
out with those panels only to the sharpness engine, and which a plateau
factor's on_rule reads on the main engine's rule when the rule's panels are
the factor's own.

Evaluation on a quadrature grid goes through TestFunction.on_grid(r, y),
whose closure gives f and its polar partials on one angular mode at phase
1, the mode's own parts (g_k, dg_k/dr, i k g_k, grad_y g_k), or at an
angle.  Its first call evaluates each distinct profile on the grid once
(modes +l and -l of a real f share one), each ProductProfile computing
each distinct 1-D factor R(r), R'(r), Y_j(y_j), Y_j'(y_j) once however many
modes carry it, and keeps the products.  A call on a mode returns them; a
call at an angle multiplies every mode's by e^(i mode phi), mode 0's too,
and adds the modes.  verifiers._grids makes one closure per row block and
hands its parts to a check's density once per mode on the main engine,
never at an angle, and once per angular node on the oracle; the pointwise
value_polar, partials_polar and evaluate call it once.  On the main engine
the 1-D factors run even less often: TestFunction.factors_on_rule
evaluates each once per integration on the engine's whole rules, and each
row block's closure takes its rows of them from a pre-filled memo.

Parity in y and realness are declared, never sampled.  A profile's y_even
says it is even in every y_j, and a TestFunction is y_even when every mode's
profile is; the main quadrature engine then integrates over the half box
y >= 0.  A profile's real_valued says its amplitude is real, and then its
on_grid arrays are float; a TestFunction is real_valued when every mode's
profile is and modes +l and -l carry one profile object, so that f is
g_0 + sum_l 2 g_l cos(l phi).  The real-only checks refuse any other f.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, DomainError, require_param, require_reals
from .geometry import GrushinGeometry, Point, WeightExponents, _first_kind_exponent, rho_rs, s_of
from .quadrature import _reference_rule, gauss_panels

__all__ = [
    "AngularMode",
    "TestFunction",
    "TrialFamily",
    "ProductProfile",
    "RhoShellProfile",
    "PlateauLogBump",
    "PowerLogWindow",
    "AbsLogPowerWindow",
    "GaussTail",
    "PlateauBumpY",
    "GaussBumpY",
    "evaluate",
    "make_bump",
    "make_trial",
    "random_test_function",
]


# ---------------------------------------------------------------------------
# Smoothstep edge
# ---------------------------------------------------------------------------

_EDGE_EPS = 1e-9


def _step(t):
    """C-infinity step and its derivative, (s, ds/dt).

    s is 0 for t <= 0, 1 for t >= 1 and exp(-1/t)-smooth between; ds/dt is
    zero outside (0, 1).  Both come from one pair of exponentials, taken
    only on the ramp _EDGE_EPS < t < 1 - _EDGE_EPS: s is 0.0 at or below it
    and 1.0 at or above it, with ds/dt 0.0 on both sides.  A panel of the
    plateau bump lies wholly on one side of each edge or on its ramp, so on
    a grid split at the plateau breaks each edge's exponentials run on one
    panel in three.  A NaN t is on neither side and gives NaN.
    """
    t = np.asarray(t, dtype=float)
    low, high = t <= _EDGE_EPS, t >= 1.0 - _EDGE_EPS
    s = np.array(high, dtype=float)
    d = np.zeros(t.shape)
    ramp = ~(low | high)
    tc = t[ramp]
    tm = 1.0 - tc
    a = np.exp(-1.0 / tc)
    b = np.exp(-1.0 / tm)
    ab = a + b
    s[ramp] = a / ab
    d[ramp] = a * b * (1.0 / tc**2 + 1.0 / tm**2) / ab**2
    return s, d


def _plateau(u, lo, hi):
    """Plateau bump in coordinate u on [lo, hi] (1 on the middle half) and its u-derivative."""
    q = 0.25 * (hi - lo)
    up, dup = _step((u - lo) / q)
    dn, ddn = _step((hi - u) / q)
    return up * dn, (dup * dn - up * ddn) / q


def plateau_breaks(lo, hi):
    """Junction points of the plateau bump on [lo, hi] (quadrature panels)."""
    q = 0.25 * (hi - lo)
    return (lo + q, hi - q)


@functools.lru_cache(maxsize=64)
def plateau_panels(n: int):
    """The plateau bump on its own three n-node Gauss panels, built once per n.

    On the nodes of gauss_panels((lo, *plateau_breaks(lo, hi), hi), n) the
    rising edge's t = (u - lo) / q is (1 + xi) / 2 on the first panel, xi
    the reference nodes, whatever lo < hi, so the bump there is one table:
    returns read-only (p, q dp/du), each of shape (3 n,); divide the second
    by q = (hi - lo) / 4 for dp/du.  The middle panel is exactly 1 and 0, and
    the last is the first mirrored, since the reference nodes are symmetric
    about 0.  It agrees with _plateau on those nodes up to the roundoff of t.
    The sharpness windows read it through plateau_rule, and the plateau
    factors of the verifier grid through _plateau_read, whole or, on a
    folded y axis, its tail of nodes u >= 0.
    """
    xi, _ = _reference_rule(n)
    s, ds = _step(0.5 * (1.0 + xi))
    p = np.concatenate((s, np.ones(n), s[::-1]))
    dp = np.concatenate((ds, np.zeros(n), -ds[::-1]))
    p.flags.writeable = dp.flags.writeable = False
    return p, dp


def plateau_rule(lo, hi, n: int):
    """The plateau bump on [lo, hi] with the rule it is read on, (u, w, p, dp/du).

    u and w are gauss_panels((lo, *plateau_breaks(lo, hi), hi), n), and p
    and dp/du come from plateau_panels(n), so the table only ever meets its
    own panels.  lo and hi are floats, giving shape (3 n,), or columns of
    shape (n_rows, 1), one panel set per row; p is then shared by every row
    and dp/du has shape (n_rows, 3 n).
    """
    u, w = gauss_panels((lo, *plateau_breaks(lo, hi), hi), n)
    p, dp = plateau_panels(n)
    return u, w, p, dp / (0.25 * (hi - lo))


def _plateau_read(lo, hi, n: int, size: int):
    """The plateau bump on [lo, hi] and its u-derivative on the last size
    nodes of its own three n-node panels, read from plateau_panels(n): all
    3 n of them, or the nodes u >= 0 that a folded y axis keeps.  dp/du is
    scaled by q = (hi - lo) / 4 as in plateau_rule."""
    p, dp = plateau_panels(n)
    return p[p.size - size:], dp[dp.size - size:] / (0.25 * (hi - lo))


def _on_rule(factor, t, panels, n: int):
    """(value, derivative) of a 1-D factor on the nodes t of the main
    engine's n-node rule over panels: factor.on_rule where the factor has
    one, else factor.both(t)."""
    on_rule = getattr(factor, "on_rule", None)
    return factor.both(t) if on_rule is None else on_rule(t, panels, n)


# ---------------------------------------------------------------------------
# Radial factors: both(r) -> (value, d/dr), plus panel breakpoints
# ---------------------------------------------------------------------------

class PlateauLogBump:
    """Plateau bump in log r on [r_lo, r_hi]."""

    def __init__(self, r_lo: float, r_hi: float):
        r_lo, r_hi = require_reals("the log bump", r_lo=r_lo, r_hi=r_hi)
        if not (0.0 < r_lo < r_hi):
            raise DomainError(f"need 0 < r_lo < r_hi, got [{r_lo}, {r_hi}]")
        self.r_lo, self.r_hi = r_lo, r_hi
        self._a, self._b = math.log(r_lo), math.log(r_hi)

    def both(self, r):
        p, dp = _plateau(np.log(r), self._a, self._b)
        return p, dp / r

    def on_rule(self, r, panels, n: int):
        """both(r) on the whole n-node log-radial rule r over panels, a
        domain's (r_lo, r_hi, r_breaks): read from the plateau table when
        they are the bump's own, so r's panels are the bump's three."""
        if panels != (self.r_lo, self.r_hi, self.breaks):
            return self.both(r)
        p, dp = _plateau_read(self._a, self._b, n, r.size)
        return p, dp / r

    @property
    def breaks(self):
        return tuple(math.exp(u) for u in plateau_breaks(self._a, self._b))


class PowerLogWindow:
    """r^sigma times a plateau window in log r — power-law trial factor."""

    def __init__(self, sigma: float, r_lo: float, r_hi: float):
        self.sigma = require_param("the power window", "sigma", sigma)
        self.window = PlateauLogBump(r_lo, r_hi)
        self.r_lo, self.r_hi = self.window.r_lo, self.window.r_hi

    def both(self, r):
        return self._times(r, *self.window.both(r))

    def on_rule(self, r, panels, n: int):
        """both(r) on a rule, its window as PlateauLogBump.on_rule reads it."""
        return self._times(r, *self.window.on_rule(r, panels, n))

    def _times(self, r, wv, wd):
        return r**self.sigma * wv, r ** (self.sigma - 1.0) * (self.sigma * wv + r * wd)

    @property
    def breaks(self):
        return self.window.breaks


class GaussTail:
    """exp(-a r^2) with a smooth far rolloff and no inner cutoff.

    Equals exp(-a r^2) exactly for r <= fall, rolls to zero on [fall, r_hi].
    The declared lower edge r_lo is an integration cutoff only; with the
    defaults both the rolloff (e^{-36} tail) and the missing disc mass
    (~r_lo^2) sit far below 1e-6 relative accuracy.
    """

    reaches_origin = True

    def __init__(self, a: float = 0.5, fall: float = 6.0, r_hi: float = 8.0,
                 r_lo: float = 1e-8):
        self.a, self.fall, self.r_hi, self.r_lo = require_reals(
            "the Gaussian tail", a=a, fall=fall, r_hi=r_hi, r_lo=r_lo)
        if not (0.0 < self.r_lo < self.fall < self.r_hi):
            raise DomainError("need 0 < r_lo < fall < r_hi")

    def both(self, r):
        r = np.asarray(r, dtype=float)
        span = self.r_hi - self.fall
        cut, dcut = _step((self.r_hi - r) / span)
        g = np.exp(-self.a * r * r)
        return g * cut, g * (-2.0 * self.a * r * cut - dcut / span)

    @property
    def breaks(self):
        return (self.fall,)


class AbsLogPowerWindow:
    """|log r|^c times a plateau window in log|log r|, for supports inside (0,1).

    Writing t = -log r (positive on the support), the factor is t^c with a
    smooth window in w = log t; this is the natural shape for logarithmic
    Hardy trials.  Supports with r_hi >= 1 are rejected (t must stay positive).
    """

    def __init__(self, c: float, r_lo: float, r_hi: float):
        c, r_lo, r_hi = require_reals("the log-power window", c=c, r_lo=r_lo, r_hi=r_hi)
        if not (0.0 < r_lo < r_hi < 1.0):
            raise DomainError("log-power factor needs 0 < r_lo < r_hi < 1")
        self.c, self.r_lo, self.r_hi = c, r_lo, r_hi
        # window in w = log t, t = -log r: note r_lo gives the LARGER t
        self._w_lo = math.log(-math.log(r_hi))
        self._w_hi = math.log(-math.log(r_lo))
        if not (self._w_lo < self._w_hi):
            raise DomainError("degenerate log-log window")

    def both(self, r):
        t = -np.log(r)
        p, dp = _plateau(np.log(t), self._w_lo, self._w_hi)
        # d/dr = -(1/r) d/dt applied to t^c * window(log t)
        return t**self.c * p, -(t ** (self.c - 1.0)) * (self.c * p + dp) / r

    @property
    def breaks(self):
        return tuple(
            math.exp(-math.exp(w)) for w in plateau_breaks(self._w_lo, self._w_hi)
        )


# ---------------------------------------------------------------------------
# y-direction factors: both(t) -> (value, d/dt) in one y coordinate
# ---------------------------------------------------------------------------

class PlateauBumpY:
    """Plateau bump on [lo, hi] in one y coordinate (linear scale), even
    about the midpoint of [lo, hi]."""

    midpoint_even = True

    def __init__(self, lo: float, hi: float):
        self.lo, self.hi = require_reals("the y bump", lo=lo, hi=hi)
        if not (self.lo < self.hi):
            raise DomainError(f"bad y interval ({lo}, {hi})")

    def both(self, t):
        return _plateau(t, self.lo, self.hi)

    def on_rule(self, t, panels, n: int):
        """both(t) on the nodes t of an n-node y axis rule over the box
        panels = (lo, hi), whole or folded: read from the plateau table when
        the box is the bump's own, whose plateau panels the axis rule uses."""
        if panels != (self.lo, self.hi):
            return self.both(t)
        return _plateau_read(self.lo, self.hi, n, t.size)


class GaussBumpY:
    """Gaussian times plateau bump: exp(-a (t-c)^2) * plateau(t) on [lo, hi].

    The Gaussian is centred at the midpoint c = (lo + hi) / 2, so the
    factor is even about c.
    """

    midpoint_even = True

    def __init__(self, lo: float, hi: float, a: float = 1.0):
        lo, hi, self.a = require_reals("the Gaussian y bump", lo=lo, hi=hi, a=a)
        if not (lo < hi) or self.a < 0.0:
            raise DomainError("bad Gaussian-bump parameters")
        self.lo, self.hi = lo, hi
        self.c = 0.5 * (lo + hi)

    def both(self, t):
        return self._times(t, *_plateau(t, self.lo, self.hi))

    def on_rule(self, t, panels, n: int):
        """both(t) on a y axis rule, the plateau read as PlateauBumpY.on_rule
        reads it."""
        if panels != (self.lo, self.hi):
            return self.both(t)
        return self._times(t, *_plateau_read(self.lo, self.hi, n, t.size))

    def _times(self, t, p, dp):
        g = np.exp(-self.a * (t - self.c) ** 2)
        return g * p, g * (dp - 2.0 * self.a * (t - self.c) * p)


# ---------------------------------------------------------------------------
# Profiles g(r, y): product form and rho-shell form
# ---------------------------------------------------------------------------

def _amplitude(what: str, value) -> complex:
    """value, a number (not a bool or a string) with finite real and imaginary
    parts, as a complex; require_param's errors, naming amplitude."""
    value = require_param(what, "amplitude", value, numbers.Complex)
    return complex(require_param(what, "amplitude", value.real),
                   require_param(what, "amplitude", value.imag))


class ProductProfile:
    """g(r, y) = amplitude * R(r) * prod_j Y_j(y_j) with analytic partials.

    y_even: g is even in every y_j when every Y_j declares itself even
    about its midpoint (midpoint_even) and its box is symmetric about 0.
    real_valued: the amplitude's imaginary part is 0.
    """

    def __init__(self, radial, y_factors=(), amplitude=1.0):
        self.radial = radial
        self.y_factors = tuple(y_factors)
        self.amplitude = _amplitude("the product profile", amplitude)
        self.real_valued = self.amplitude.imag == 0.0
        self.r_lo, self.r_hi = radial.r_lo, radial.r_hi
        self.y_box = tuple((yf.lo, yf.hi) for yf in self.y_factors)
        self.r_breaks = tuple(getattr(radial, "breaks", ()))
        self.reaches_origin = getattr(radial, "reaches_origin", False)
        self.y_even = all(getattr(yf, "midpoint_even", False) and yf.lo == -yf.hi
                          for yf in self.y_factors)

    @property
    def k(self):
        return len(self.y_factors)

    @property
    def factors(self):
        """(factor, coordinate) of each 1-D factor: the radial one on "r",
        each y factor on its axis j."""
        return ((self.radial, "r"), *((yf, j) for j, yf in enumerate(self.y_factors)))

    def on_grid(self, r, y, memo=None):
        """(g, dg/dr, grad_y g) on the grid (r, y), grad_y g in one (..., k) array.

        The 1-D factors R(r), R'(r), Y_j(y_j) and Y_j'(y_j) are computed
        once and their products formed from them.  memo, a dict that
        TestFunction.on_grid keeps for one grid, holds each factor's
        (value, derivative) under the factor's identity and its coordinate
        ("r", or y axis j), so a factor that the profiles of several modes
        share runs once on that grid; one object placed on two y axes runs
        once per axis.  The arrays are float when real_valued, the real
        parts of the complex ones bit for bit ((a + 0i)(c + 0i) rounds a*c
        once), and complex otherwise.
        """
        memo = {} if memo is None else memo

        def both(factor, axis, t):
            key = (id(factor), axis)
            if key not in memo:
                memo[key] = factor.both(t)
            return memo[key]

        amp = self.amplitude.real if self.real_valued else self.amplitude
        rv, drv = both(self.radial, "r", r)
        ys = [both(yf, j, y[..., j]) for j, yf in enumerate(self.y_factors)]

        def times(out, skip=-1):
            for i, (v, _) in enumerate(ys):
                if i != skip:
                    out = out * v
            return out

        shape = np.broadcast_shapes(np.shape(r), np.shape(y)[:-1]) + (len(ys),)
        base = amp * rv
        gy = np.empty(shape, np.result_type(base))
        for j, (_, dv) in enumerate(ys):
            gy[..., j] = times(base * dv, j)
        return times(base), times(amp * drv), gy


class RhoShellProfile:
    """g(r, y) = rho^sigma * window(log rho) — a shell in the gauge distance.

    The support is the shell rho in [rho_lo, rho_hi]; its bounding box in
    (r, y) is r <= rho_hi, |y_j| <= rho_hi^(1+gamma)/(1+gamma).  The profile
    does not vanish as r -> 0 inside the shell, so the declared inner radius
    r_lo = 1e-8 * rho_lo is an integration cutoff far below any shell mass,
    not a support boundary.  It depends on y through |y| only, so it is
    even in every y_j (y_even).  real_valued: the amplitude's imaginary
    part is 0.
    """

    reaches_origin = True
    y_even = True

    def __init__(self, geom: GrushinGeometry, sigma: float, rho_lo: float, rho_hi: float,
                 amplitude=1.0):
        sigma, rho_lo, rho_hi = require_reals("the rho shell", sigma=sigma, rho_lo=rho_lo,
                                              rho_hi=rho_hi)
        if not (0.0 < rho_lo < rho_hi):
            raise DomainError("need 0 < rho_lo < rho_hi")
        self.geom = geom
        self.sigma, self.rho_lo, self.rho_hi = sigma, rho_lo, rho_hi
        self.amplitude = _amplitude("the rho shell", amplitude)
        self.real_valued = self.amplitude.imag == 0.0
        self._a, self._b = math.log(rho_lo), math.log(rho_hi)
        self.r_lo = rho_lo * 1e-8
        self.r_hi = rho_hi
        g = geom.gamma
        ymax = rho_hi ** (1.0 + g) / (1.0 + g)
        self.y_box = tuple((-ymax, ymax) for _ in range(geom.k))
        self.r_breaks = ()

    @property
    def k(self):
        return self.geom.k

    def on_grid(self, r, y, memo=None):
        """(g, dg/dr, grad_y g) on the grid (r, y); every factor depends on
        rho, a full-grid array, so memo, taken for the call of
        TestFunction.on_grid, is not used.  Float arrays when real_valued,
        complex ones otherwise; dg/dr multiplies by 1 / rho^(2 gamma + 1),
        as numpy's complex division by a real does."""
        g = self.geom.gamma
        amp = self.amplitude.real if self.real_valued else self.amplitude
        rho = rho_rs(g, r, s_of(y))
        win, dwin = _plateau(np.log(rho), self._a, self._b)
        h = rho**self.sigma * win
        dh = rho ** (self.sigma - 1.0) * (self.sigma * win + dwin)
        dr = amp * dh * r ** (2.0 * g + 1.0) * (1.0 / rho ** (2.0 * g + 1.0))
        grad = (1.0 + g) * y / rho[..., None] ** (2.0 * g + 1.0)
        return amp * h, dr, amp * dh[..., None] * grad


# ---------------------------------------------------------------------------
# Angular modes and test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AngularMode:
    """One Fourier mode: profile g(r, y) carried on angular frequency `mode`."""

    mode: int
    profile: object

    def __post_init__(self):
        require_param("an angular mode", "mode", self.mode, numbers.Integral)
        if not (0.0 < self.profile.r_lo < self.profile.r_hi):
            raise DomainError("mode profile needs 0 < r_lo < r_hi")


# mode_zero's value where mode 0 carries nothing: a float that abs2 squares
_ZERO = np.float64(0.0)


class TestFunction:
    """Finite angular-mode sum f(r, phi, y) = sum g_k(r, y) e^(i k phi).

    At least one mode is required; f = 0 is a mode whose profile has
    amplitude 0 (ProductProfile(..., amplitude=0.0)), with a support like
    any other.  A profile that does not vanish as r -> 0 (reaches_origin:
    RhoShellProfile, a ProductProfile over GaussTail) carries mode 0 only,
    since |df/dphi|^2 / r^2 of any other mode is not integrable there.

    y_even: f is even in every y_j, declared, not sampled: every mode's
    profile declares y_even (read as getattr(profile, "y_even", False), so
    a profile that does not declare it counts as not even).

    real_valued: f is real, declared, not sampled: every mode's profile
    declares real_valued (read the same way) and each mode m carries the
    profile object of mode -m, so f = g_0 + sum_l 2 g_l cos(l phi).  An f
    whose real modes +l and -l carry two distinct profiles counts as not
    real, even if they are equal.
    """

    __test__ = False  # calculus-of-variations naming; not a pytest class

    def __init__(self, modes):
        modes = tuple(modes)
        if not modes:
            raise DomainError("a test function needs at least one angular mode")
        tags = [m.mode for m in modes]
        if len(set(tags)) != len(tags):
            raise DomainError("angular modes must be distinct")
        if any(m.mode != 0 and m.profile.reaches_origin for m in modes):
            raise DomainError("a profile that does not vanish as r -> 0 carries "
                              "mode 0 only: |df/dphi|^2 / r^2 of another mode "
                              "is not integrable there")
        ks = {m.profile.k for m in modes}
        if len(ks) > 1:
            raise DomainError("all mode profiles must share the y dimension")
        self.modes = tuple(sorted(modes, key=lambda m: m.mode))
        self.y_even = all(getattr(m.profile, "y_even", False) for m in self.modes)
        profile_of = {m.mode: m.profile for m in self.modes}
        self.real_valued = all(getattr(m.profile, "real_valued", False)
                               and profile_of.get(-m.mode) is m.profile for m in self.modes)

    @property
    def k(self) -> int:
        return self.modes[0].profile.k

    @property
    def max_abs_mode(self) -> int:
        return max(abs(m.mode) for m in self.modes)

    @property
    def is_radial(self) -> bool:
        return all(m.mode == 0 for m in self.modes)

    def support(self):
        """Hull of the mode supports: (r_lo, r_hi, y_box, r_breaks)."""
        r_lo = min(m.profile.r_lo for m in self.modes)
        r_hi = max(m.profile.r_hi for m in self.modes)
        k = self.k
        box = []
        for j in range(k):
            los = [m.profile.y_box[j][0] for m in self.modes]
            his = [m.profile.y_box[j][1] for m in self.modes]
            box.append((min(los), max(his)))
        breaks = sorted({b for m in self.modes for b in m.profile.r_breaks})
        return r_lo, r_hi, tuple(box), tuple(breaks)

    # --- evaluation -------------------------------------------------------

    def factors_on_rule(self, r, Y, domain, spec):
        """Closure r_block -> memo for on_grid(r_block, y, memo) on a row
        block (consecutive rows of r, shape (rows, 1)) of the main engine's
        grid r (n,), Y (n_flat, k) (quadrature.tensor_grid: k axes of one
        length in meshgrid "ij" order).  Each distinct (factor, coordinate)
        of f's ProductProfiles runs once here, by _on_rule: a radial factor
        on all of r, a y factor on its own axis's nodes, then spread over
        the flat grid; each memo holds the block's rows of the former and
        the shared (1, n_flat) arrays of the latter."""
        radial, flat = {}, {}
        k = Y.shape[-1]
        side = round(len(Y) ** (1.0 / k)) if k else 1   # nodes per y axis
        for m in self.modes:
            for factor, axis in getattr(m.profile, "factors", ()):
                key = (id(factor), axis)
                if key in radial or key in flat:
                    continue
                if axis == "r":
                    radial[key] = _on_rule(factor, r, (domain.r_lo, domain.r_hi,
                                                       domain.r_breaks), spec.n_r)
                    continue
                stride = side ** (k - 1 - axis)
                parts = _on_rule(factor, Y[:stride * side:stride, axis], domain.y_box[axis],
                                 spec.n_y)
                if k > 1:   # each node of the axis at every node of the others
                    shape = [1] * k
                    shape[axis] = side
                    parts = [np.broadcast_to(a.reshape(shape), (side,) * k) for a in parts]
                flat[key] = tuple(a.reshape(1, -1) for a in parts)

        def memo(r_block):
            a = int(np.searchsorted(r, r_block[0, 0]))
            rows = slice(a, a + len(r_block))
            out = dict(flat)
            for key, (v, d) in radial.items():
                out[key] = (v[rows, None], d[rows, None])
            return out

        return memo

    def on_grid(self, r, y, memo=None):
        """Closure x -> (f, df/dr, df/dphi, grad_y f) on the grid (r, y).

        The first call of the closure, or of its mode_zero, evaluates each
        distinct profile on the grid once (modes +l and -l may share one),
        giving its g, dg/dr and grad_y g, and each mode's 1j * mode * g
        (zeros for mode 0); the closure keeps them for its lifetime: modes
        x (3 + k) arrays on the grid.  Every profile is called as
        on_grid(r, y, memo) with the one memo of that first call, so each
        distinct 1-D factor of a ProductProfile runs once on the grid
        however many profiles carry it; memo, if given, is that dict,
        filled beforehand (factors_on_rule), which the call may add to.  x
        is one of f's modes (an AngularMode of self.modes), on which the
        call returns the mode's kept arrays, its parts at phase 1, as the
        main quadrature engine takes them; or x is an angle, a float, at
        which it returns
        sum_k parts_k * e^(i k x) over the modes in sorted order, new
        complex arrays, as the oracle and the pointwise API take them.
        The caller writes to no array the closure returns.  A profile of
        real amplitude (real_valued) gives float g, dg/dr and grad_y g, the
        real parts of the complex ones bit for bit; i * mode * g is
        complex.
        mode_zero(x) gives the part of f at x that mode 0 carries: its kept
        g at an angle and on mode 0, and a scalar 0.0 on any other mode or
        when f has no mode 0.  r and y must not change while the closure is
        in use.
        """
        held = {}
        memo = {} if memo is None else memo

        def products():
            """mode -> (g, dg/dr, 1j * mode * g, grad_y g), in sorted mode
            order, formed on the first call and kept while the closure
            lives; nothing writes to them."""
            if not held:
                formed = {}
                for m in self.modes:
                    p = m.profile
                    if id(p) not in formed:
                        formed[id(p)] = p.on_grid(r, y, memo)
                    g, gr, gy = formed[id(p)]
                    gphi = 1j * m.mode * g if m.mode else np.zeros_like(g)
                    held[m.mode] = (g, gr, gphi, gy)
            return held

        def at(x):
            if isinstance(x, AngularMode):
                return products()[x.mode]
            out = None
            for mode, parts in products().items():
                e = np.exp(1j * mode * np.asarray(x))
                terms = [p * e for p in parts]
                out = terms if out is None else [o + t for o, t in zip(out, terms)]
            return tuple(out)

        def mode_zero(x):
            if isinstance(x, AngularMode) and x.mode:
                return _ZERO
            return products().get(0, (_ZERO,))[0]

        at.mode_zero = mode_zero
        return at

    def value_polar(self, r, phi, y):
        return self.on_grid(r, y)(phi)[0]

    def partials_polar(self, r, phi, y):
        """(df/dr, df/dphi, grad_y f) at polar coordinates."""
        return self.on_grid(r, y)(phi)[1:]


# ---------------------------------------------------------------------------
# Point-level plumbing (Cartesian m=2 or radial-in-x general m)
# ---------------------------------------------------------------------------

def _polar_of_point(f: TestFunction, p: Point):
    if p.x.shape[0] == 2:
        r = math.hypot(p.x[0], p.x[1])
        phi = math.atan2(p.x[1], p.x[0])
    else:
        if not f.is_radial:
            raise DomainError("mode functions need m = 2 points")
        r = float(np.linalg.norm(p.x))
        phi = 0.0
    return r, phi, p.y


def _holds(profile, r: float, y) -> bool:
    """Whether (r, y) lies in the support hull of profile: from r = 0 for a
    profile that reaches the origin (its r_lo is a cutoff, not an edge), and
    rho_lo <= rho <= rho_hi for a rho shell, which leaves out its gauge origin."""
    if isinstance(profile, RhoShellProfile):
        return profile.rho_lo <= rho_rs(profile.geom.gamma, r, math.hypot(*y)) <= profile.rho_hi
    lo = 0.0 if getattr(profile, "reaches_origin", False) else profile.r_lo
    return lo <= r <= profile.r_hi and all(a <= t <= b for t, (a, b) in zip(y, profile.y_box))


def evaluate(f: TestFunction, p) -> complex:
    """Value of f at a Point or an (r, phi, y) triple; 0 outside the support.
    Only the modes whose profile's hull holds the point are evaluated."""
    if isinstance(p, Point):
        r, phi, y = _polar_of_point(f, p)
    else:
        r, phi, y = p
        y = np.atleast_1d(np.asarray(y, dtype=float))
    modes = [m for m in f.modes if _holds(m.profile, r, y)]
    if not modes:
        return 0.0 + 0.0j
    value = TestFunction(modes).value_polar(np.asarray(r), phi, y[None, :])
    return complex(np.asarray(value).item())


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def make_bump(r_lo: float, r_hi: float, y_box=()) -> TestFunction:
    """Smooth radial plateau bump: 1 on the middle half (log scale) of the annulus."""
    radial = PlateauLogBump(r_lo, r_hi)
    try:
        pairs = [(lo, hi) for lo, hi in y_box]
    except (TypeError, ValueError):
        raise AdmissibilityError(
            f"make_bump needs y_box as (lo, hi) pairs, got {y_box!r}") from None
    profile = ProductProfile(radial, tuple(PlateauBumpY(lo, hi) for lo, hi in pairs))
    return TestFunction([AngularMode(0, profile)])


@dataclass(frozen=True)
class TrialFamily:
    """Near-extremizer family: base shape, regularization epsilon, radial cutoff.

    base:
      inverse_power  |x|^(-C) * window
      power          |x|^C * window
      log_power      |log r|^C * window-in-log|log r|   (support inside (0,1))
      rho_power      rho^(-(Q+a1-2)/2 + eps) * window-in-log-rho
    """

    base: str
    epsilon: float
    cutoff: tuple
    exponent: float | None = None

    def __post_init__(self):
        if self.base not in ("inverse_power", "power", "log_power", "rho_power"):
            raise DomainError(f"unknown trial base {self.base!r}")
        what = "the trial family"
        if not (require_param(what, "epsilon", self.epsilon) > 0.0):
            raise DomainError("epsilon must be positive")
        cut = [require_param(what, "cutoff", c)
               for c in require_param(what, "cutoff", self.cutoff, Sequence)]
        if not (len(cut) == 2 and 0.0 < cut[0] < cut[1]):
            raise DomainError("cutoff needs 0 < inner < outer")
        if self.exponent is not None:
            require_param(what, "exponent", self.exponent)


def make_trial(family: TrialFamily, geom: GrushinGeometry | None = None,
               exps: WeightExponents | None = None) -> TestFunction:
    """Single k=0 mode cutoff*base trial function for sharpness runs."""
    lo, hi = family.cutoff
    if family.base == "rho_power":
        if geom is None or exps is None:
            raise DomainError("rho_power trials need geometry and weight exponents")
        s = _first_kind_exponent(geom, exps)   # the check of the Grushin verifiers
        profile = RhoShellProfile(geom, -0.5 * s + family.epsilon, lo, hi)
    elif family.base == "log_power":
        c = -0.5 if family.exponent is None else family.exponent
        profile = ProductProfile(AbsLogPowerWindow(c, lo, hi))
    else:
        C = 1.0 if family.exponent is None else family.exponent
        sigma = -C if family.base == "inverse_power" else C
        profile = ProductProfile(PowerLogWindow(sigma, lo, hi))
    return TestFunction([AngularMode(0, profile)])


def random_test_function(
    rng: np.random.Generator,
    k: int = 0,
    modes=(0,),
    real: bool = False,
    r_lo_range=(0.3, 1.0),
    ratio_range=(1.8, 3.5),
    y_half_range=(0.5, 2.0),
    gaussian_y: bool = True,
) -> TestFunction:
    """Random bump-type test function for property sweeps (seeded, reproducible).

    With real=True the mode list is symmetrized (+l and -l share one profile
    of real amplitude), so f declares itself real (real_valued); otherwise
    amplitudes are complex.
    Every mode's profile carries one shared PlateauLogBump, and with
    gaussian_y=False one shared PlateauBumpY per y axis, so TestFunction.on_grid
    evaluates each once per grid; neither draws from rng.  A Gaussian y factor
    draws its own width per mode.
    """
    if require_param("the random function", "k", k, numbers.Integral) < 0:
        raise DomainError(f"k must be nonnegative, got {k!r}")
    modes = [int(require_param("the random function", "modes", m, numbers.Integral))
             for m in require_param("the random function", "modes", modes, Iterable)]
    r_lo = float(rng.uniform(*r_lo_range))
    r_hi = r_lo * float(rng.uniform(*ratio_range))
    box = []
    for _ in range(k):
        h = float(rng.uniform(*y_half_range))
        box.append((-h, h))
    radial = PlateauLogBump(r_lo, r_hi)
    plateaus = tuple(PlateauBumpY(lo, hi) for lo, hi in box)

    def y_factors():
        if not gaussian_y:
            return plateaus
        fs = []
        for lo, hi in box:
            a = float(rng.uniform(0.1, 1.0)) / max(hi - lo, 1e-12) ** 2
            fs.append(GaussBumpY(lo, hi, a=a))
        return tuple(fs)

    out = []
    if real:
        wanted = sorted({abs(m) for m in modes})
        for ell in wanted:
            amp = float(rng.uniform(0.5, 1.5)) * (1.0 if rng.random() < 0.8 else -1.0)
            if ell == 0:
                out.append(AngularMode(0, ProductProfile(
                    radial, y_factors(), amplitude=amp)))
            else:
                shared = ProductProfile(radial, y_factors(), amplitude=0.5 * amp)
                out.append(AngularMode(ell, shared))
                out.append(AngularMode(-ell, shared))
    else:
        for m in sorted(set(modes)):
            amp = float(rng.uniform(0.5, 1.5)) * np.exp(2j * math.pi * rng.random())
            out.append(AngularMode(m, ProductProfile(radial, y_factors(), amplitude=amp)))
    return TestFunction(out)
