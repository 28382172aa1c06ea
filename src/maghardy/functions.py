"""Smooth compactly-supported test functions with analytic derivatives.

A test function lives on an annulus-times-box region of R^m x R^k and is
stored in polar-separated form

    f(r, phi, y) = sum_k  g_k(r, y) * exp(i k phi),

a finite sum of angular modes with smooth profiles g_k.  Profiles are built
from closed-form factors (plateau bumps, powers, Gaussians), so radial and
y partial derivatives are exact — finite differences appear only in tests.

The plateau bump rises from 0 to 1 over the first quarter of its interval
(in log r for the radial direction), is identically 1 on the middle half,
and falls back to 0 on the last quarter.  Edges use the standard smoothstep
built from exp(-1/t), which is C-infinity with all derivatives vanishing at
the junctions, keeping every profile in the compactly-supported smooth class
required by the inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
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
    "angular_average",
    "make_bump",
    "make_trial",
    "random_test_function",
]


# ---------------------------------------------------------------------------
# Smoothstep edge
# ---------------------------------------------------------------------------

_EDGE_EPS = 1e-9


def _step(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, exp(-1/t)-smooth between."""
    t = np.asarray(t, dtype=float)
    tc = np.clip(t, _EDGE_EPS, 1.0 - _EDGE_EPS)
    a = np.exp(-1.0 / tc)
    b = np.exp(-1.0 / (1.0 - tc))
    s = a / (a + b)
    return np.where(t <= _EDGE_EPS, 0.0, np.where(t >= 1.0 - _EDGE_EPS, 1.0, s))


def _step_d(t):
    """Derivative of _step (zero outside (0, 1))."""
    t = np.asarray(t, dtype=float)
    tc = np.clip(t, _EDGE_EPS, 1.0 - _EDGE_EPS)
    a = np.exp(-1.0 / tc)
    b = np.exp(-1.0 / (1.0 - tc))
    d = a * b * (1.0 / tc**2 + 1.0 / (1.0 - tc) ** 2) / (a + b) ** 2
    inside = (t > _EDGE_EPS) & (t < 1.0 - _EDGE_EPS)
    return np.where(inside, d, 0.0)


def _plateau(u, lo, hi):
    """Plateau bump in coordinate u on [lo, hi]: 1 on the middle half."""
    q = 0.25 * (hi - lo)
    return _step((u - lo) / q) * _step((hi - u) / q)


def _plateau_d(u, lo, hi):
    q = 0.25 * (hi - lo)
    up = _step((u - lo) / q)
    dn = _step((hi - u) / q)
    return (_step_d((u - lo) / q) * dn - up * _step_d((hi - u) / q)) / q


def plateau_breaks(lo, hi):
    """Junction points of the plateau bump on [lo, hi] (quadrature panels)."""
    q = 0.25 * (hi - lo)
    return (lo + q, hi - q)


# ---------------------------------------------------------------------------
# Radial factors: value v(r) and derivative dv/dr, plus panel breakpoints
# ---------------------------------------------------------------------------

class PlateauLogBump:
    """Plateau bump in log r on [r_lo, r_hi]."""

    def __init__(self, r_lo: float, r_hi: float):
        if not (0.0 < r_lo < r_hi):
            raise DomainError(f"need 0 < r_lo < r_hi, got [{r_lo}, {r_hi}]")
        self.r_lo, self.r_hi = float(r_lo), float(r_hi)
        self._a, self._b = math.log(r_lo), math.log(r_hi)

    def v(self, r):
        return _plateau(np.log(r), self._a, self._b)

    def dv(self, r):
        return _plateau_d(np.log(r), self._a, self._b) / r

    @property
    def breaks(self):
        return tuple(math.exp(u) for u in plateau_breaks(self._a, self._b))


class PowerLogWindow:
    """r^sigma times a plateau window in log r — power-law trial factor."""

    def __init__(self, sigma: float, r_lo: float, r_hi: float):
        self.sigma = float(sigma)
        self.window = PlateauLogBump(r_lo, r_hi)
        self.r_lo, self.r_hi = self.window.r_lo, self.window.r_hi

    def v(self, r):
        return r**self.sigma * self.window.v(r)

    def dv(self, r):
        return r ** (self.sigma - 1.0) * (
            self.sigma * self.window.v(r) + r * self.window.dv(r)
        )

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

    def __init__(self, a: float = 0.5, fall: float = 6.0, r_hi: float = 8.0,
                 r_lo: float = 1e-8):
        if not (0.0 < r_lo < fall < r_hi):
            raise DomainError("need 0 < r_lo < fall < r_hi")
        self.a = float(a)
        self.fall, self.r_hi, self.r_lo = float(fall), float(r_hi), float(r_lo)

    def _cut(self, r):
        return _step((self.r_hi - r) / (self.r_hi - self.fall))

    def v(self, r):
        r = np.asarray(r, dtype=float)
        return np.exp(-self.a * r * r) * self._cut(r)

    def dv(self, r):
        r = np.asarray(r, dtype=float)
        span = self.r_hi - self.fall
        dcut = -_step_d((self.r_hi - r) / span) / span
        return np.exp(-self.a * r * r) * (-2.0 * self.a * r * self._cut(r) + dcut)

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
        if not (0.0 < r_lo < r_hi < 1.0):
            raise DomainError("log-power factor needs 0 < r_lo < r_hi < 1")
        self.c = float(c)
        self.r_lo, self.r_hi = float(r_lo), float(r_hi)
        # window in w = log t, t = -log r: note r_lo gives the LARGER t
        self._w_lo = math.log(-math.log(r_hi))
        self._w_hi = math.log(-math.log(r_lo))
        if not (self._w_lo < self._w_hi):
            raise DomainError("degenerate log-log window")

    def v(self, r):
        t = -np.log(r)
        return t**self.c * _plateau(np.log(t), self._w_lo, self._w_hi)

    def dv(self, r):
        t = -np.log(r)
        w = np.log(t)
        core = self.c * _plateau(w, self._w_lo, self._w_hi) + _plateau_d(
            w, self._w_lo, self._w_hi
        )
        # d/dr = -(1/r) d/dt applied to t^c * window(log t)
        return -(t ** (self.c - 1.0)) * core / r

    @property
    def breaks(self):
        return tuple(
            math.exp(-math.exp(w)) for w in plateau_breaks(self._w_lo, self._w_hi)
        )


# ---------------------------------------------------------------------------
# y-direction factors: value/derivative in one y coordinate
# ---------------------------------------------------------------------------

class PlateauBumpY:
    """Plateau bump on [lo, hi] in one y coordinate (linear scale)."""

    def __init__(self, lo: float, hi: float):
        if not (lo < hi):
            raise DomainError(f"bad y interval ({lo}, {hi})")
        self.lo, self.hi = float(lo), float(hi)

    def v(self, t):
        return _plateau(t, self.lo, self.hi)

    def dv(self, t):
        return _plateau_d(t, self.lo, self.hi)


class GaussBumpY:
    """Gaussian times plateau bump: exp(-a (t-c)^2) * plateau(t) on [lo, hi]."""

    def __init__(self, lo: float, hi: float, a: float = 1.0, center: float | None = None):
        if not (lo < hi) or a < 0.0:
            raise DomainError("bad Gaussian-bump parameters")
        self.lo, self.hi = float(lo), float(hi)
        self.a = float(a)
        self.c = 0.5 * (lo + hi) if center is None else float(center)

    def v(self, t):
        return np.exp(-self.a * (t - self.c) ** 2) * _plateau(t, self.lo, self.hi)

    def dv(self, t):
        g = np.exp(-self.a * (t - self.c) ** 2)
        return g * (
            _plateau_d(t, self.lo, self.hi)
            - 2.0 * self.a * (t - self.c) * _plateau(t, self.lo, self.hi)
        )


# ---------------------------------------------------------------------------
# Profiles g(r, y): product form and rho-shell form
# ---------------------------------------------------------------------------

class ProductProfile:
    """g(r, y) = amplitude * R(r) * prod_j Y_j(y_j) with analytic partials."""

    def __init__(self, radial, y_factors=(), amplitude=1.0):
        self.radial = radial
        self.y_factors = tuple(y_factors)
        self.amplitude = complex(amplitude)
        self.r_lo, self.r_hi = radial.r_lo, radial.r_hi
        self.y_box = tuple((yf.lo, yf.hi) for yf in self.y_factors)
        self.r_breaks = tuple(getattr(radial, "breaks", ()))

    @property
    def k(self):
        return len(self.y_factors)

    def _yvals(self, y):
        return [yf.v(y[..., j]) for j, yf in enumerate(self.y_factors)]

    def val(self, r, y):
        out = self.amplitude * self.radial.v(r)
        for v in self._yvals(y):
            out = out * v
        return out

    def dr(self, r, y):
        out = self.amplitude * self.radial.dv(r)
        for v in self._yvals(y):
            out = out * v
        return out

    def dy(self, r, y):
        vals = self._yvals(y)
        base = self.amplitude * self.radial.v(r)
        comps = []
        for j, yf in enumerate(self.y_factors):
            term = base * yf.dv(y[..., j])
            for i, v in enumerate(vals):
                if i != j:
                    term = term * v
            comps.append(term)
        if not comps:
            shape = np.broadcast(np.asarray(r), *(y[..., j] for j in range(0))).shape
            return np.zeros(shape + (0,), dtype=complex)
        return np.stack(comps, axis=-1)


class RhoShellProfile:
    """g(r, y) = rho^sigma * window(log rho) — a shell in the gauge distance.

    The support is the shell rho in [rho_lo, rho_hi]; its bounding box in
    (r, y) is r <= rho_hi, |y_j| <= rho_hi^(1+gamma)/(1+gamma).  The profile
    does not vanish as r -> 0 inside the shell, so the declared inner radius
    r_lo is an integration cutoff far below any shell mass, not a support
    boundary.
    """

    def __init__(self, geom: GrushinGeometry, sigma: float, rho_lo: float, rho_hi: float,
                 amplitude=1.0, r_cut_factor: float = 1e-8):
        if not (0.0 < rho_lo < rho_hi):
            raise DomainError("need 0 < rho_lo < rho_hi")
        self.geom = geom
        self.sigma = float(sigma)
        self.rho_lo, self.rho_hi = float(rho_lo), float(rho_hi)
        self.amplitude = complex(amplitude)
        self._a, self._b = math.log(rho_lo), math.log(rho_hi)
        self.r_lo = rho_lo * r_cut_factor
        self.r_hi = rho_hi
        g = geom.gamma
        ymax = rho_hi ** (1.0 + g) / (1.0 + g)
        self.y_box = tuple((-ymax, ymax) for _ in range(geom.k))
        self.r_breaks = ()

    @property
    def k(self):
        return self.geom.k

    def _h_and_dh(self, rho):
        lg = np.log(rho)
        win = _plateau(lg, self._a, self._b)
        dwin = _plateau_d(lg, self._a, self._b)
        h = rho**self.sigma * win
        dh = rho ** (self.sigma - 1.0) * (self.sigma * win + dwin)
        return h, dh

    def _rho(self, r, y):
        s = np.sqrt(np.sum(y * y, axis=-1)) if self.geom.k else np.zeros(np.shape(r))
        return rho_rs(self.geom.gamma, r, s)

    def val(self, r, y):
        h, _ = self._h_and_dh(self._rho(r, y))
        return self.amplitude * h

    def dr(self, r, y):
        g = self.geom.gamma
        rho = self._rho(r, y)
        _, dh = self._h_and_dh(rho)
        return self.amplitude * dh * r ** (2.0 * g + 1.0) / rho ** (2.0 * g + 1.0)

    def dy(self, r, y):
        g = self.geom.gamma
        rho = self._rho(r, y)
        _, dh = self._h_and_dh(rho)
        grad = (1.0 + g) * y / rho[..., None] ** (2.0 * g + 1.0)
        return self.amplitude * dh[..., None] * grad


# ---------------------------------------------------------------------------
# Angular modes and test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AngularMode:
    """One Fourier mode: profile g(r, y) carried on angular frequency `mode`."""

    mode: int
    profile: object

    def __post_init__(self):
        if not isinstance(self.mode, (int, np.integer)):
            raise DomainError("mode must be an integer")
        if not (0.0 < self.profile.r_lo < self.profile.r_hi):
            raise DomainError("mode profile needs 0 < r_lo < r_hi")


class TestFunction:
    """Finite angular-mode sum f(r, phi, y) = sum g_k(r, y) e^(i k phi)."""

    __test__ = False  # calculus-of-variations naming; not a pytest class

    def __init__(self, modes):
        modes = tuple(modes)
        tags = [m.mode for m in modes]
        if len(set(tags)) != len(tags):
            raise DomainError("angular modes must be distinct")
        ks = {m.profile.k for m in modes}
        if len(ks) > 1:
            raise DomainError("all mode profiles must share the y dimension")
        self.modes = tuple(sorted(modes, key=lambda m: m.mode))
        self._real = None

    @property
    def k(self) -> int:
        return self.modes[0].profile.k if self.modes else 0

    @property
    def max_abs_mode(self) -> int:
        return max((abs(m.mode) for m in self.modes), default=0)

    @property
    def is_radial(self) -> bool:
        return all(m.mode == 0 for m in self.modes)

    def support(self):
        """Hull of the mode supports: (r_lo, r_hi, y_box, r_breaks)."""
        if not self.modes:
            return 1.0, 2.0, (), ()
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

    def value_polar(self, r, phi, y):
        out = None
        for m in self.modes:
            term = m.profile.val(r, y) * np.exp(1j * m.mode * np.asarray(phi))
            out = term if out is None else out + term
        if out is None:
            return np.zeros(np.broadcast(np.asarray(r), np.asarray(phi)).shape, complex)
        return out

    def partials_polar(self, r, phi, y):
        """(df/dr, df/dphi, grad_y f) at polar coordinates."""
        dr = dphi = None
        dy = None
        for m in self.modes:
            e = np.exp(1j * m.mode * np.asarray(phi))
            g = m.profile.val(r, y)
            gr = m.profile.dr(r, y)
            gy = m.profile.dy(r, y)
            dr = gr * e if dr is None else dr + gr * e
            t = 1j * m.mode * g * e
            dphi = t if dphi is None else dphi + t
            t2 = gy * e[..., None] if np.ndim(e) else gy * e
            dy = t2 if dy is None else dy + t2
        if dr is None:
            shape = np.broadcast(np.asarray(r), np.asarray(phi)).shape
            return (np.zeros(shape, complex), np.zeros(shape, complex),
                    np.zeros(shape + (self.k,), complex))
        return dr, dphi, dy

    def is_real_valued(self, samples: int = 7) -> bool:
        """Numerically checked realness on a deterministic sample grid."""
        if self._real is not None:
            return self._real
        if not self.modes:
            self._real = True
            return True
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
        for phi in phis:
            vals = self.value_polar(rs[:, None], phi, ys[None, :, :])
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


def angular_average(f: TestFunction) -> TestFunction:
    """The zeroth Fourier mode of f, exactly (no quadrature)."""
    zero = [m for m in f.modes if m.mode == 0]
    return TestFunction(zero)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def make_bump(r_lo: float, r_hi: float, y_box=()) -> TestFunction:
    """Smooth radial plateau bump: 1 on the middle half (log scale) of the annulus."""
    radial = PlateauLogBump(r_lo, r_hi)
    profile = ProductProfile(radial, tuple(PlateauBumpY(lo, hi) for lo, hi in y_box))
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
        if not (self.epsilon > 0.0):
            raise DomainError("epsilon must be positive")
        lo, hi = self.cutoff
        if not (0.0 < lo < hi):
            raise DomainError("cutoff needs 0 < inner < outer")


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
        wanted = sorted({abs(int(m)) for m in modes})
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
        for m in sorted({int(m) for m in modes}):
            amp = float(rng.uniform(0.5, 1.5)) * np.exp(2j * math.pi * rng.random())
            out.append(AngularMode(m, ProductProfile(
                PlateauLogBump(r_lo, r_hi), y_factors(), amplitude=amp)))
    return TestFunction(out)
