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
(value, derivative) together.

Evaluation on a quadrature grid goes through TestFunction.on_grid(r, y): each
profile computes its phi-independent factors once per grid (for a
ProductProfile the 1-D factors R(r), R'(r), Y_j(y_j), Y_j'(y_j)), and the
returned closure gives f and its polar partials at an angular node or at a
column of them (shape (n_c, 1, 1)).  Each call forms every mode's full-grid
products once and spreads them over all the nodes of its column, so the
quadrature engine, which passes a column of nodes per call on small grids,
pays for the products once per column, not once per node.  The pointwise
value_polar and partials_polar are one call of that closure.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, DomainError, require_param, require_reals
from .geometry import GrushinGeometry, Point, WeightExponents, rho_rs

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
        wv, wd = self.window.both(r)
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
    """Plateau bump on [lo, hi] in one y coordinate (linear scale)."""

    def __init__(self, lo: float, hi: float):
        self.lo, self.hi = require_reals("the y bump", lo=lo, hi=hi)
        if not (self.lo < self.hi):
            raise DomainError(f"bad y interval ({lo}, {hi})")

    def both(self, t):
        return _plateau(t, self.lo, self.hi)


class GaussBumpY:
    """Gaussian times plateau bump: exp(-a (t-c)^2) * plateau(t) on [lo, hi].

    The Gaussian is centred at the midpoint c = (lo + hi) / 2.
    """

    def __init__(self, lo: float, hi: float, a: float = 1.0):
        lo, hi, self.a = require_reals("the Gaussian y bump", lo=lo, hi=hi, a=a)
        if not (lo < hi) or self.a < 0.0:
            raise DomainError("bad Gaussian-bump parameters")
        self.lo, self.hi = lo, hi
        self.c = 0.5 * (lo + hi)

    def both(self, t):
        g = np.exp(-self.a * (t - self.c) ** 2)
        p, dp = _plateau(t, self.lo, self.hi)
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
    """g(r, y) = amplitude * R(r) * prod_j Y_j(y_j) with analytic partials."""

    def __init__(self, radial, y_factors=(), amplitude=1.0):
        self.radial = radial
        self.y_factors = tuple(y_factors)
        self.amplitude = _amplitude("the product profile", amplitude)
        self.r_lo, self.r_hi = radial.r_lo, radial.r_hi
        self.y_box = tuple((yf.lo, yf.hi) for yf in self.y_factors)
        self.r_breaks = tuple(getattr(radial, "breaks", ()))
        self.reaches_origin = getattr(radial, "reaches_origin", False)

    @property
    def k(self):
        return len(self.y_factors)

    def on_grid(self, r, y):
        """Closure () -> (g, dg/dr, grad_y g) on the grid (r, y).

        The 1-D factors R(r), R'(r), Y_j(y_j) and Y_j'(y_j) are computed
        here, once; each call forms their products, grad_y g in one (..., k)
        array, so the full-grid arrays live only as long as the caller keeps
        them.  TestFunction.on_grid calls it once per column of angular
        nodes.
        """
        amp = self.amplitude
        rv, drv = self.radial.both(r)
        ys = [yf.both(y[..., j]) for j, yf in enumerate(self.y_factors)]

        def times(out, skip=-1):
            for i, (v, _) in enumerate(ys):
                if i != skip:
                    out = out * v
            return out

        shape = np.broadcast_shapes(np.shape(r), np.shape(y)[:-1]) + (len(ys),)

        def parts():
            base = amp * rv
            gy = np.empty(shape, complex)
            for j, (_, dv) in enumerate(ys):
                gy[..., j] = times(base * dv, j)
            return times(base), times(amp * drv), gy

        return parts


class RhoShellProfile:
    """g(r, y) = rho^sigma * window(log rho) — a shell in the gauge distance.

    The support is the shell rho in [rho_lo, rho_hi]; its bounding box in
    (r, y) is r <= rho_hi, |y_j| <= rho_hi^(1+gamma)/(1+gamma).  The profile
    does not vanish as r -> 0 inside the shell, so the declared inner radius
    r_lo = 1e-8 * rho_lo is an integration cutoff far below any shell mass,
    not a support boundary.
    """

    reaches_origin = True

    def __init__(self, geom: GrushinGeometry, sigma: float, rho_lo: float, rho_hi: float,
                 amplitude=1.0):
        sigma, rho_lo, rho_hi = require_reals("the rho shell", sigma=sigma, rho_lo=rho_lo,
                                              rho_hi=rho_hi)
        if not (0.0 < rho_lo < rho_hi):
            raise DomainError("need 0 < rho_lo < rho_hi")
        self.geom = geom
        self.sigma, self.rho_lo, self.rho_hi = sigma, rho_lo, rho_hi
        self.amplitude = _amplitude("the rho shell", amplitude)
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

    def _h_and_dh(self, rho):
        win, dwin = _plateau(np.log(rho), self._a, self._b)
        h = rho**self.sigma * win
        dh = rho ** (self.sigma - 1.0) * (self.sigma * win + dwin)
        return h, dh

    def _rho(self, r, y):
        s = np.sqrt(np.sum(y * y, axis=-1)) if self.geom.k else np.zeros(np.shape(r))
        return rho_rs(self.geom.gamma, r, s)

    def on_grid(self, r, y):
        """Closure () -> (g, dg/dr, grad_y g) on the grid (r, y).

        Every factor depends on rho, a full-grid array, so each call forms
        them all afresh.
        """
        g, amp = self.geom.gamma, self.amplitude

        def parts():
            rho = self._rho(r, y)
            h, dh = self._h_and_dh(rho)
            dr = amp * dh * r ** (2.0 * g + 1.0) / rho ** (2.0 * g + 1.0)
            grad = (1.0 + g) * y / rho[..., None] ** (2.0 * g + 1.0)
            return amp * h, dr, amp * dh[..., None] * grad

        return parts


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


class TestFunction:
    """Finite angular-mode sum f(r, phi, y) = sum g_k(r, y) e^(i k phi).

    At least one mode is required; f = 0 is a mode whose profile has
    amplitude 0 (ProductProfile(..., amplitude=0.0)), with a support like
    any other.  A profile that does not vanish as r -> 0 (reaches_origin:
    RhoShellProfile, a ProductProfile over GaussTail) carries mode 0 only,
    since |df/dphi|^2 / r^2 of any other mode is not integrable there.
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
        self._real = None

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

    def on_grid(self, r, y):
        """Closure phi -> (f, df/dr, df/dphi, grad_y f) on the grid (r, y).

        Each distinct profile computes its phi-independent factors here, once
        (modes +l and -l may share one); each call forms every mode's g,
        dg/dr and grad_y g in turn, once, and adds its terms at phi: a float
        (one angular node) or a column of nodes of shape (n_c, 1, 1), which
        gives every output that leading axis.
        The closure's mode_zero() gives f0, the zeroth angular mode of f, on
        the grid from the same factors (zeros if f has no mode 0).
        r and y must not change while the closure is in use.
        """
        parts_of, terms = {}, []
        for m in self.modes:
            if id(m.profile) not in parts_of:
                parts_of[id(m.profile)] = m.profile.on_grid(r, y)
            terms.append((m.mode, parts_of[id(m.profile)]))

        def at(phi):
            out = None
            for mode, parts in terms:
                g, gr, gy = parts()
                e = np.exp(1j * mode * np.asarray(phi))
                ey = e[..., None] if np.ndim(e) else e
                if out is None:
                    out = [g * e, gr * e, 1j * mode * g * e, gy * ey]
                else:  # in place, so no second full-grid sum is formed
                    out[0] += g * e
                    out[1] += gr * e
                    out[2] += 1j * mode * g * e
                    out[3] += gy * ey
                del g, gr, gy  # free this mode's products before the next
            return tuple(out)

        def mode_zero():
            for mode, parts in terms:
                if mode == 0:
                    return parts()[0]
            return np.zeros(np.broadcast_shapes(np.shape(r), np.shape(y)[:-1]))

        at.mode_zero = mode_zero
        return at

    def value_polar(self, r, phi, y):
        return self.on_grid(r, y)(phi)[0]

    def partials_polar(self, r, phi, y):
        """(df/dr, df/dphi, grad_y f) at polar coordinates."""
        return self.on_grid(r, y)(phi)[1:]

    def is_real_valued(self) -> bool:
        """Numerically checked realness on a deterministic sample grid."""
        if self._real is not None:
            return self._real
        samples = 7
        r_lo, r_hi, box, _ = self.support()
        rs = np.exp(np.linspace(math.log(r_lo), math.log(r_hi), samples))
        phis = np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False)
        if box:
            ys = np.stack(
                [np.linspace(lo, hi, samples) for lo, hi in box], axis=-1
            )
        else:
            ys = np.zeros((samples, 0))
        vmax, imax = 0.0, 0.0
        at = self.on_grid(rs[:, None], ys[None, :, :])
        for phi in phis:
            vals = at(phi)[0]
            vmax = max(vmax, float(np.max(np.abs(vals))))
            imax = max(imax, float(np.max(np.abs(vals.imag))))
        self._real = imax <= 1e-12 * max(vmax, 1e-300)
        return self._real


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


def evaluate(f: TestFunction, p) -> complex:
    """Value of f at a Point or an (r, phi, y) triple; 0 outside the support."""
    if isinstance(p, Point):
        r, phi, y = _polar_of_point(f, p)
    else:
        r, phi, y = p
        y = np.atleast_1d(np.asarray(y, dtype=float))
    r_lo, r_hi, box, _ = f.support()
    if not (r_lo <= r <= r_hi):
        return 0.0 + 0.0j
    for j, (lo, hi) in enumerate(box):
        if not (lo <= y[j] <= hi):
            return 0.0 + 0.0j
    return complex(np.asarray(f.value_polar(np.asarray(r), phi, y[None, :])).item())


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
        s = geom.hom_dim + exps.alpha1 - 2.0
        if s <= 0.0:
            raise DomainError("rho_power trials need Q + alpha1 - 2 > 0")
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

    With real=True the mode list is symmetrized (+l and -l share one real
    amplitude), which makes f real-valued; otherwise amplitudes are complex.
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

    def y_factors():
        fs = []
        for lo, hi in box:
            if gaussian_y:
                a = float(rng.uniform(0.1, 1.0)) / max(hi - lo, 1e-12) ** 2
                fs.append(GaussBumpY(lo, hi, a=a))
            else:
                fs.append(PlateauBumpY(lo, hi))
        return tuple(fs)

    out = []
    if real:
        wanted = sorted({abs(m) for m in modes})
        for ell in wanted:
            amp = float(rng.uniform(0.5, 1.5)) * (1.0 if rng.random() < 0.8 else -1.0)
            if ell == 0:
                out.append(AngularMode(0, ProductProfile(
                    PlateauLogBump(r_lo, r_hi), y_factors(), amplitude=amp)))
            else:
                shared = ProductProfile(
                    PlateauLogBump(r_lo, r_hi), y_factors(), amplitude=0.5 * amp)
                out.append(AngularMode(ell, shared))
                out.append(AngularMode(-ell, shared))
    else:
        for m in sorted(set(modes)):
            amp = float(rng.uniform(0.5, 1.5)) * np.exp(2j * math.pi * rng.random())
            out.append(AngularMode(m, ProductProfile(
                PlateauLogBump(r_lo, r_hi), y_factors(), amplitude=amp)))
    return TestFunction(out)
