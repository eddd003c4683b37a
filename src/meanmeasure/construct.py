"""Synthesis of the generating measure of a smooth two-argument mean.

Given a symmetric, strictly internal, continuously differentiable mean
``K(a, b)``, there is a measure whose weighted centroid of ``[a, b]``
reproduces ``K``.  Writing ``g(x) = K(1, x)``, its second primitive
satisfies ``(log F)'(x) = 1 / (x - g(x))``, so ``log F`` is tabulated by
cumulative integration, ``f = F / (x - g(x))`` is the increasing primitive,
and the density is ``w = g'(x) F / (x - g(x))^2``.

The integrand blows up like ``2 / (x - 1)`` at the pivot, so each branch
(left and right of 1) is tabulated on a grid half geometric and half uniform
in ``|log x|``, and ``log F`` is interpolated in log-log space, where its
singular part is linear, by cubic Hermite pieces with the ODE's exact
slopes.  The two branches are joined by a scale factor calibrated so the
one-sided density limits at 1 agree; measures are only determined up to a
positive factor, so the anchor normalization ``F(2) = 1`` is harmless.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DomainError,
    InvalidInterval,
    NotIncreasing,
    NotStrictlyInternal,
    QuadratureError,
    UnknownMeasure,
)
from .intervals import IntervalSet, normalize
from .means import mean
from .measures import MeasureSpec
from .quadrature import _WG, _XGK

# the 7-point Gauss rule embedded in quadrature's Kronrod table, used
# segment-wise on a grid that is already clustered toward the singular point
_GAUSS_X = np.array([-_XGK[1], -_XGK[3], -_XGK[5], 0.0, _XGK[5], _XGK[3], _XGK[1]])
_GAUSS_W = np.array([*_WG, *_WG[2::-1]])


@dataclass(frozen=True)
class OrdinaryMean:
    """A symmetric two-argument mean with an optional section derivative.

    ``section_deriv(b)`` is the partial derivative of ``K(1, b)`` in ``b``;
    when absent it is replaced by a central finite difference.
    """

    name: str
    func: Callable[[float, float], float]
    section_deriv: Optional[Callable[[float], float]] = None
    domain: tuple[float, float] = (0.0, math.inf)

    def __call__(self, a: float, b: float) -> float:
        return self.func(a, b)

    def section(self, x: float) -> float:
        return self.func(1.0, x)

    def section_slope(self, x: float) -> float:
        if self.section_deriv is not None:
            return self.section_deriv(x)
        h = 1e-6 * max(1.0, abs(x))
        return (self.func(1.0, x + h) - self.func(1.0, x - h)) / (2.0 * h)


def _log_mean_section_slope(x: float) -> float:
    u = x - 1.0
    if abs(u) < 1e-5:
        return 0.5 - u / 6.0 + u * u / 8.0
    lg = math.log1p(u)
    return (lg - u / (1.0 + u)) / (lg * lg)


def _power_mean(p: float) -> OrdinaryMean:
    def k(a: float, b: float) -> float:
        return ((a ** p + b ** p) / 2.0) ** (1.0 / p)

    def slope(x: float) -> float:
        return ((1.0 + x ** p) / 2.0) ** (1.0 / p - 1.0) * x ** (p - 1.0) / 2.0

    return OrdinaryMean(f"power:{p:g}", k, slope)


def ordinary_mean(name: str) -> OrdinaryMean:
    """Built-in two-argument means selectable by name.

    Supported: arithmetic, geometric, harmonic, logarithmic, and ``power:p``
    for a real exponent p (p = 0 maps to geometric).
    """
    if name == "arithmetic":
        return OrdinaryMean("arithmetic", lambda a, b: 0.5 * (a + b),
                            lambda x: 0.5)
    if name == "geometric":
        return OrdinaryMean("geometric", lambda a, b: math.sqrt(a * b),
                            lambda x: 0.5 / math.sqrt(x))
    if name == "harmonic":
        return OrdinaryMean("harmonic", lambda a, b: 2.0 * a * b / (a + b),
                            lambda x: 2.0 / (1.0 + x) ** 2)
    if name == "logarithmic":
        return OrdinaryMean(
            "logarithmic",
            lambda a, b: (a - b) / (math.log(a) - math.log(b)) if a != b else a,
            _log_mean_section_slope,
        )
    if name.startswith("power:"):
        try:
            p = float(name.split(":", 1)[1])
        except ValueError:
            raise UnknownMeasure(f"bad power mean exponent in {name!r}") from None
        if p == 0.0:
            return ordinary_mean("geometric")
        return _power_mean(p)
    raise UnknownMeasure(
        f"unknown ordinary mean {name!r}; choose arithmetic, geometric, "
        f"harmonic, logarithmic, or power:p"
    )


class _Branch:
    """One tabulated side of the pivot: grid, log F values, gaps, interpolant.

    ``log F`` is a piecewise cubic Hermite in ``v = log t``, ``t = |log x|``,
    matching the ODE's exact slope ``side * t * x / gap`` at every node
    (Fritsch & Carlson, SIAM J. Numer. Anal. 17(2), 1980).
    """

    def __init__(self, side: int, x: np.ndarray, logF_unit: np.ndarray,
                 gap: np.ndarray, anchor_x: float):
        self.side = side  # +1 for x > 1, -1 for x < 1
        self.x = x
        self.logF_unit = logF_unit
        self.gap = gap
        self.anchor_x = anchor_x
        t = np.abs(np.log(x))
        order = np.argsort(t)
        self._v = np.log(t[order]).tolist()
        self._y = logF_unit[order].tolist()
        self._dy = (side * t * x / gap)[order].tolist()
        self.v_min = self._v[0]
        self.v_max = self._v[-1]

    def eval_logF_unit(self, t_val: float) -> float:
        v = math.log(t_val)
        if v < self.v_min:
            v = self.v_min  # inside the excluded hole around 1; F ~ 0 there
        elif v > self.v_max:
            if v > self.v_max + 1e-9:
                raise DomainError("point outside the tabulated window")
            v = self.v_max
        i = min(bisect.bisect_right(self._v, v), len(self._v) - 1) - 1
        h = self._v[i + 1] - self._v[i]
        s = (v - self._v[i]) / h
        y0, dy = self._y[i], self._y[i + 1] - self._y[i]
        d0, d1 = h * self._dy[i], h * self._dy[i + 1]
        return y0 + s * (d0 + s * (3.0 * dy - 2.0 * d0 - d1
                                   + s * (d0 + d1 - 2.0 * dy)))


class ConstructedMeasure:
    """Tabulated primitives of a measure synthesized from a two-argument mean.

    ``grid`` excludes the pivot x = 1; ``F(1) = f(1) = 0`` are analytic
    limits.  The left branch carries the calibrated joining factor
    ``left_scale``; ``F(x0) = 1`` exactly at the right-branch anchor.
    """

    def __init__(self, name: str, window: tuple[float, float],
                 section: Callable[[float], float],
                 section_slope: Callable[[float], float],
                 right: Optional[_Branch], left: Optional[_Branch],
                 left_scale: float, t_min: float):
        self.name = name
        self.window = window
        self.section = section
        self.section_slope = section_slope
        self._right = right
        self._left = left
        self.left_scale = left_scale
        self.t_min = t_min
        self.x0 = right.anchor_x if right is not None else left.anchor_x
        branches = [b for b in (left, right) if b is not None]
        self.grid = np.concatenate([b.x for b in branches])
        self.logF = np.concatenate(
            [b.logF_unit + (math.log(left_scale) if b is left else 0.0)
             for b in branches])
        gap = np.concatenate([b.gap for b in branches])
        F = np.exp(self.logF)
        self.f_tab = F / gap
        self.w_tab = np.array([section_slope(x) for x in self.grid.tolist()]) \
            * F / (gap * gap)
        self.round_trip_max_rel_err = math.nan  # set by build()'s self-check

    # -- pointwise evaluation ------------------------------------------------

    def _gap(self, x: float) -> float:
        return x - self.section(x)

    def log_F(self, x: float) -> float:
        if x > 1.0:
            if self._right is None:
                raise DomainError("no branch above 1 was tabulated")
            t = max(math.log(x), self.t_min)
            return self._right.eval_logF_unit(t)
        if x < 1.0:
            if self._left is None:
                raise DomainError("no branch below 1 was tabulated")
            t = max(-math.log(x), self.t_min)
            return self._left.eval_logF_unit(t) + math.log(self.left_scale)
        return -math.inf  # F(1) = 0 limit

    def F(self, x: float) -> float:
        if x == 1.0:
            return 0.0
        return math.exp(self.log_F(x))

    def f(self, x: float) -> float:
        if x == 1.0:
            return 0.0
        return self.F(x) / self._gap(x)

    def w(self, x: float) -> float:
        if x == 1.0:
            # density limit at the pivot: evaluate just off it
            x = math.exp(self.t_min) if self._right is not None \
                else math.exp(-self.t_min)
        gap = self._gap(x)
        return self.section_slope(x) * self.F(x) / (gap * gap)

    def to_spec(self) -> MeasureSpec:
        return MeasureSpec(
            name=self.name,
            domain=self.window,
            density=self.w,
            cdf=self.f,
            antiderivative=self.F,
            density_shape="none",
            construction=self,
        )


def _probe_mean(k: OrdinaryMean, window: tuple[float, float]) -> None:
    """Symmetry and strict-internality probes on pairs across the window."""
    lo, hi = window
    pts = np.exp(np.linspace(math.log(lo), math.log(hi), 9))
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            a, b = float(pts[i]), float(pts[j])
            kab, kba = k(a, b), k(b, a)
            if abs(kab - kba) > 1e-12 * (1.0 + abs(kab)):
                raise ValueError(
                    f"mean {k.name!r} is not symmetric at ({a!r}, {b!r})"
                )
            if not (a < kab < b):
                raise NotStrictlyInternal(
                    f"mean {k.name!r} not strictly internal at ({a!r}, {b!r})"
                )


def _tabulate_branch(k: OrdinaryMean, side: int, t_end: float,
                     anchor_x: float, n: int, t_min: float,
                     exact_end: Optional[float]) -> _Branch:
    """Cumulative integral of 1/(x - K(1,x)) along one branch.

    ``side`` +1 tabulates (1, e^t_end], -1 tabulates [e^-t_end, 1);
    the anchor gets log F = 0.
    """
    # half the nodes geometric in t, clustered against the pivot, and half
    # uniform in t, so the far end of the window is resolved too
    t = np.concatenate([np.geomspace(t_min, t_end, n // 2),
                        np.linspace(t_min, t_end, n - n // 2)])
    t_anchor = abs(math.log(anchor_x))
    # keep the anchor as an exact node without near-duplicate neighbors
    t = t[np.abs(t - t_anchor) > 1e-9 * t_anchor]
    t = np.unique(np.concatenate([t, [t_anchor]]))
    x = np.exp(side * t)
    if exact_end is not None:
        x[-1] = exact_end  # force the window endpoint exactly
    x = np.sort(x)
    anchor_idx = int(np.argmin(np.abs(x - anchor_x)))
    x[anchor_idx] = anchor_x

    # the gap x - K(1, x) at every node and at each segment's Gauss points
    c = 0.5 * (x[1:] + x[:-1])
    r = 0.5 * (x[1:] - x[:-1])
    pts = np.concatenate([x, (c[:, None] + r[:, None] * _GAUSS_X).ravel()])
    gaps = pts - np.array([k.section(p) for p in pts.tolist()])
    bad = np.flatnonzero(side * gaps <= 0.0)
    if len(bad):
        p = float(pts[bad[0]])
        raise NotStrictlyInternal(
            f"K(1, {p!r}) leaves the open interval between 1 and {p!r}"
        )
    gap = gaps[:len(x)]
    seg = r * ((1.0 / gaps[len(x):]).reshape(-1, len(_GAUSS_X)) @ _GAUSS_W)
    logF = np.concatenate([[0.0], np.cumsum(seg)])
    logF -= logF[anchor_idx]
    return _Branch(side, x, logF, gap, anchor_x)


def _extrapolate_to_zero(hs: Sequence[float], ys: Sequence[float]) -> float:
    """Value at 0 of the polynomial through the points (h_i, y_i)."""
    tab = list(ys)
    n = len(tab)
    for span in range(1, n):
        for i in range(n - span):
            j = i + span
            tab[i] = (hs[j] * tab[i] - hs[i] * tab[i + 1]) / (hs[j] - hs[i])
    return tab[0]


def _solve_scale_by_probe(k: OrdinaryMean, right: _Branch, left: _Branch,
                          section: Callable[[float], float]) -> float:
    """Fallback joining factor: make the cross-pivot mean exact at the anchors."""
    a, b = left.anchor_x, right.anchor_x
    target = k(a, b)
    Fb = math.exp(right.eval_logF_unit(abs(math.log(b))))
    fb = Fb / (b - section(b))
    Fa_u = math.exp(left.eval_logF_unit(abs(math.log(a))))
    fa_u = Fa_u / (a - section(a))  # negative

    def mismatch(s: float) -> float:
        val = (b * fb - a * s * fa_u - (Fb - s * Fa_u)) / (fb - s * fa_u)
        return val - target

    lo_s, hi_s = 1e-12, 1e12
    f_lo, f_hi = mismatch(lo_s), mismatch(hi_s)
    if f_lo == 0.0:
        return lo_s
    if f_lo * f_hi > 0.0:
        raise NotStrictlyInternal(
            "cannot bracket the branch joining factor; mean is not "
            "representable on this window"
        )
    for _ in range(200):
        mid = math.sqrt(lo_s * hi_s)  # bisect in log space
        f_mid = mismatch(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi_s = mid
        else:
            lo_s, f_lo = mid, f_mid
        if hi_s / lo_s < 1.0 + 1e-15:
            break
    return math.sqrt(lo_s * hi_s)


def build(k: OrdinaryMean, window: tuple[float, float], tol: float = 1e-9,
          points_per_branch: int = 8192, t_min: float = 1e-9) -> MeasureSpec:
    """Tabulate the measure generating ``k`` on ``window``.

    The window must sit inside the mean's domain with positive lower end.
    Returns a :class:`MeasureSpec` whose primitives interpolate the
    tabulation; the underlying :class:`ConstructedMeasure` rides along in
    its ``construction`` field, with the worst relative error of the
    self-check against ``k`` on probe pairs in ``round_trip_max_rel_err``.
    Raises :class:`QuadratureError` when that check misses
    ``max(tol, 1e-6 |k|)``.
    """
    lo, hi = window
    if not (0.0 < lo < hi):
        raise DomainError(f"window must satisfy 0 < lo < hi, got {window!r}")
    if lo <= k.domain[0] or hi >= k.domain[1]:
        raise DomainError(f"window {window!r} exceeds the mean's domain {k.domain!r}")
    _probe_mean(k, window)

    right = None
    left = None
    if hi > 1.0:
        t_end = math.log(hi)
        anchor = 2.0 if (1.0 < 2.0 < hi and lo < 2.0) else math.exp(0.5 * t_end)
        if lo > 1.0:
            # one-sided window above 1: pick an interior anchor
            anchor = math.exp(0.5 * (math.log(lo) + math.log(hi)))
        right = _tabulate_branch(k, +1, t_end, anchor, points_per_branch,
                                 t_min, exact_end=hi)
    if lo < 1.0:
        t_end = -math.log(lo)
        anchor = 0.5 if lo < 0.5 else math.exp(-0.5 * t_end)
        if hi < 1.0:
            anchor = math.exp(0.5 * (math.log(lo) + math.log(hi)))
        left = _tabulate_branch(k, -1, t_end, anchor, points_per_branch,
                                t_min, exact_end=lo)

    left_scale = 1.0
    if right is not None and left is not None:
        # one-sided density limits at the pivot, extrapolated over shrinking
        # steps, must agree; steps shrink with the branch extents
        base = min(1e-2, 0.25 * (hi - 1.0), 0.25 * (1.0 - lo))
        steps = tuple(base * 0.1 ** i for i in range(4))
        w_right = w_left = math.nan
        if steps[-1] > 10.0 * t_min:

            def density_near_one(branch: _Branch, xs):
                vals = []
                for xv in xs:
                    F = math.exp(branch.eval_logF_unit(abs(math.log(xv))))
                    gap = xv - k.section(xv)
                    vals.append(k.section_slope(xv) * F / (gap * gap))
                return vals

            w_right = _extrapolate_to_zero(
                steps, density_near_one(right, [1.0 + h for h in steps]))
            w_left = _extrapolate_to_zero(
                steps, density_near_one(left, [1.0 - h for h in steps]))
        if math.isfinite(w_right) and math.isfinite(w_left) \
                and w_right > 0.0 and w_left > 0.0:
            left_scale = w_right / w_left
        else:
            left_scale = _solve_scale_by_probe(k, right, left, k.section)

    cm = ConstructedMeasure(
        name=f"built:{k.name}",
        window=window,
        section=k.section,
        section_slope=k.section_slope,
        right=right,
        left=left,
        left_scale=left_scale,
        t_min=t_min,
    )
    if not np.all(np.diff(cm.f_tab) > 0.0):
        raise NotIncreasing(
            f"constructed primitive for {k.name!r} is not strictly increasing"
        )
    if not np.all(cm.w_tab > 0.0):
        raise NotStrictlyInternal(
            f"constructed density for {k.name!r} is not strictly positive"
        )
    spec = cm.to_spec()

    # self-check: the tabulation must reproduce k on probe pairs; adjacent
    # pairs near the window top are the harshest (f may saturate there)
    spread = np.exp(np.linspace(math.log(lo), math.log(hi), 8))[1:-1]
    ladder = np.linspace(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo), 12)
    pairs = [(float(spread[i]), float(spread[j]))
             for i in range(len(spread)) for j in range(i + 1, len(spread))]
    pairs += [(float(ladder[i]), float(ladder[i + 1]))
              for i in range(len(ladder) - 1)]
    worst = 0.0
    for a, b in pairs:
        got = reconstruct(spec, a, b)
        want = k(a, b)
        worst = max(worst, abs(got - want) / abs(want))
        if abs(got - want) > max(tol, 1e-6 * abs(want)):
            raise QuadratureError(
                f"tabulation reproduces K({a:g},{b:g}) as {got!r}, want "
                f"{want!r}; either raise points_per_branch, or no measure "
                f"generates the mean {k.name!r} (its section only pins the "
                f"mean against 1)"
            )
    cm.round_trip_max_rel_err = worst
    return spec


def reconstruct(spec: MeasureSpec, a: float, b: float) -> float:
    """Two-argument mean of ``[a, b]`` from a measure's primitives."""
    if not (a < b):
        raise InvalidInterval(f"reconstruct needs a < b, got ({a!r}, {b!r})")
    spec.require_domain(normalize([(a, b)]))
    if spec.cdf is None or spec.antiderivative is None:
        raise ValueError(f"measure {spec.name!r} has no tabulated primitives")
    return mean_from_fF(spec.cdf, spec.antiderivative, a, b)


def from_section(g: Callable[[float], float], cm: ConstructedMeasure,
                 a: float, b: float) -> float:
    """Two-argument mean recovered from its section ``g(x) = K(1, x)`` alone.

    Uses the tabulated increasing primitive, with ``f(1) = 0``.
    """
    if not (a < b):
        raise InvalidInterval(f"from_section needs a < b, got ({a!r}, {b!r})")
    lo, hi = cm.window
    if not (lo < a and b < hi):
        raise DomainError(f"({a!r}, {b!r}) outside the tabulated window {cm.window!r}")
    fa, fb = cm.f(a), cm.f(b)
    return (fb * g(b) - fa * g(a)) / (fb - fa)


def mean_from_fF(f: Callable[[float], float], F: Callable[[float], float],
                 a: float, b: float) -> float:
    """The mean ``(b f(b) - a f(a) - (F(b) - F(a))) / (f(b) - f(a))``.

    For increasing ``f`` with primitive pair ``F`` this lands strictly
    inside ``(a, b)``.
    """
    if not (a < b):
        raise InvalidInterval(f"mean_from_fF needs a < b, got ({a!r}, {b!r})")
    fa, fb = f(a), f(b)
    if not (fb > fa):
        raise NotIncreasing(f"f({b!r}) = {fb!r} is not above f({a!r}) = {fa!r}")
    return (b * fb - a * fa - (F(b) - F(a))) / (fb - fa)


@dataclass(frozen=True)
class UniquenessResult:
    proportional: bool
    scale: Optional[float] = None
    witness: object = None


def uniqueness_check(spec_a: MeasureSpec, spec_b: MeasureSpec,
                     probes: Sequence[IntervalSet]) -> UniquenessResult:
    """Test whether two measures with equal means differ by a constant factor.

    If the means agree on every probe set, the mass ratios must be constant;
    returns that constant, or a witness of whichever comparison failed.
    """
    probes = list(probes)
    if not probes:
        raise ValueError("need at least one probe set")
    ratios = []
    for P in probes:
        ra = mean(spec_a, P)
        rb = mean(spec_b, P)
        if abs(ra.value - rb.value) > 1e-9 * (1.0 + abs(ra.value)):
            return UniquenessResult(
                False, witness={"set": P, "mean_a": ra.value, "mean_b": rb.value}
            )
        ratios.append(rb.mass / ra.mass)
    c = math.fsum(ratios) / len(ratios)
    spread = (max(ratios) - min(ratios)) / c
    if spread > 1e-6:
        return UniquenessResult(
            False,
            witness={"ratios": (min(ratios), max(ratios)), "rel_spread": spread},
        )
    return UniquenessResult(True, scale=c)
