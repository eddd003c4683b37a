"""Synthesis of the generating measure of a smooth two-argument mean.

Given a symmetric, strictly internal, continuously differentiable mean
``K(a, b)``, there is a measure whose weighted centroid of ``[a, b]``
reproduces ``K``.  Writing ``g(x) = K(1, x)``, its second primitive
satisfies ``(log F)'(x) = 1 / (x - g(x))``, ``f = F / (x - g(x))`` is the
increasing primitive, and the density is ``w = g'(x) F / (x - g(x))^2``.

Each branch (left and right of the pivot 1) is held in ``t = |log x|``,
where the slope of ``log F`` in ``log t`` is smooth and equals 2 at the pivot.
That slope is interpolated at Chebyshev points, doubling the degree until
the coefficients level off, and ``log F = 2 log t + int (slope - 2)/t`` is
integrated exactly in coefficient space.  Both series are summed directly
wherever ``F`` or ``f`` is asked for; at the points they were fitted on,
``f`` must rise and ``w`` be positive.  ``F = 1`` at an anchor ``b > 1``
and ``F = s`` at an anchor ``a < 1``.  As ``F(1) = f(1) = 0``, the first
moment ``int_a^b (x - K(a, b)) dmu`` vanishes exactly when
``(b - K) f(b) - F(b) = (a - K) f(a) - F(a)``: linear in ``s``, so the
joining factor comes from the gaps at the anchors alone.  Measures are only
determined up to a positive factor, so the normalization is harmless.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DomainError,
    EmptySet,
    InvalidInterval,
    NotIncreasing,
    NotStrictlyInternal,
    NotSymmetric,
    QuadratureError,
    UnknownMeasure,
)
from .intervals import IntervalSet
from .means import mean, ordinary
from .measures import MeasureSpec

# below this |log x| the gap x - K(1, x) loses digits to cancellation, so it
# is integrated from the section's slope when the mean supplies one, and
# pointwise it is taken from the series
_T_CANCEL = 0.5
_X_CANCEL_LO, _X_CANCEL_HI = math.exp(-_T_CANCEL), math.exp(_T_CANCEL)
# Chebyshev degrees per branch: the first tried, and the last before giving up
_DEG_MIN, _DEG_MAX = 32, 512


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
        # at most x / 2, so x - h stays inside a window that reaches below 1e-6
        h = min(1e-6 * max(1.0, abs(x)), 0.5 * abs(x))
        return (self.func(1.0, x + h) - self.func(1.0, x - h)) / (2.0 * h)


# (e^-L - 1 + L) / L^2 = sum over n >= 2 of (-L)^(n - 2) / n!, highest first
_LOG_SLOPE_SERIES = tuple(1.0 / math.factorial(n) for n in range(17, 1, -1))


def _log_mean_section_slope(x: float) -> float:
    # d/dx (x - 1)/log x, written in L = log x so that nothing cancels
    L = math.log(x)
    if abs(L) < 0.5:
        s = 0.0
        for c in _LOG_SLOPE_SERIES:
            s = s * -L + c
        return s
    return (math.expm1(-L) + L) / (L * L)


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


def _clenshaw(rev: list, u: float) -> float:
    """The Chebyshev series with coefficients ``rev``, highest first, at ``u``
    (Clenshaw's recurrence)."""
    b1 = b2 = 0.0
    u2 = u + u
    for a in rev:
        b1, b2 = a + u2 * b1 - b2, b1
    return b1 - u * b2


class _Branch:
    """One side of the pivot, ending at ``exact_end``.

    In ``t = |log x|`` and ``u = 2 t / t_end - 1``, ``log F = 2 log t + R(u)
    + const``, where ``R`` integrates ``(h - 2) / t`` in coefficient space
    from the series ``h`` of :func:`_slope_series`.  Both series are summed
    directly at any ``t > 0``, down to one ulp from the pivot, and ``const``
    puts ``log F = log_anchor`` at ``anchor_x``.  Raises
    :class:`NotIncreasing` unless, at every point the series was fitted on,
    ``f`` moves away from ``f(1) = 0`` and the density is positive.
    """

    def __init__(self, k: OrdinaryMean, exact_end: float, anchor_x: float,
                 log_anchor: float):
        from numpy.polynomial import chebyshev as cheb

        c, self.series, x, gap = _slope_series(k, exact_end)
        self.side = side = 1 if exact_end > 1.0 else -1  # side of the pivot
        self.anchor_x = anchor_x
        self.t_end = abs(math.log(exact_end))
        # with t = t_end (1 + u)/2, (h - 2)/t dt = (h - 2)/(1 + u) du
        R = cheb.chebint(cheb.chebdiv(cheb.chebsub(c, 2.0), [1.0, 1.0])[0])
        self._h, self._R = c[::-1].tolist(), R[::-1].tolist()
        t_anchor = abs(math.log(anchor_x))
        self._const = log_anchor - 2.0 * math.log(t_anchor) \
            - _clenshaw(self._R, self._u(t_anchor))
        F = np.exp([self.log_F(t) for t in np.abs(np.log(x)).tolist()])
        slope = np.array([k.section_slope(p) for p in x.tolist()])
        # w = g' F / gap^2 is f', so f = F / gap must move away from f(1) = 0,
        # which keeps the pair across the pivot, and g' F must be positive
        if not (np.all(side * np.diff(F / gap, prepend=0.0) > 0.0)
                and np.all(slope * F > 0.0)):
            raise NotIncreasing(
                f"constructed primitive for {k.name!r} is not strictly increasing"
            )

    def _u(self, t: float) -> float:
        if t > self.t_end * (1.0 + 1e-9):
            raise DomainError("point outside the tabulated window")
        return 2.0 * t / self.t_end - 1.0

    def log_F(self, t: float) -> float:
        return 2.0 * math.log(t) + _clenshaw(self._R, self._u(t)) + self._const

    def gap(self, t: float, x: float) -> float:
        """``x - K(1, x)`` from the series, with no cancellation near 1."""
        return self.side * t * x / _clenshaw(self._h, self._u(t))


class ConstructedMeasure:
    """Primitives of a measure synthesized from a two-argument mean.

    ``nodes`` counts the points both branches' series were fitted on, each
    including the pivot x = 1, where ``F(1) = f(1) = 0`` are analytic limits.
    ``F(x0) = 1`` at the right-branch anchor, and the left branch's anchor
    carries the joining factor ``left_scale``.
    """

    def __init__(self, name: str, window: tuple[float, float],
                 section: Callable[[float], float],
                 section_slope: Callable[[float], float],
                 right: Optional[_Branch], left: Optional[_Branch],
                 left_scale: float):
        self.name = name
        self.window = window
        self.section = section
        self.section_slope = section_slope
        self._right = right
        self._left = left
        self.left_scale = left_scale
        self.x0 = right.anchor_x if right is not None else left.anchor_x
        # each branch's Chebyshev degree and its coefficients past the plateau
        self.series = {name: b.series for name, b in (("left", left),
                       ("right", right)) if b is not None}
        self.nodes = sum(s["degree"] + 1 for s in self.series.values())
        self.round_trip_max_rel_err = math.nan  # these three are set by build()
        self.round_trip_worst_pair = None
        self.build_seconds = {}

    # -- pointwise evaluation ------------------------------------------------

    def _branch(self, x: float) -> _Branch:
        branch = self._right if x > 1.0 else self._left
        if branch is None:
            side = "above" if x > 1.0 else "below"
            raise DomainError(f"no branch {side} 1 was tabulated")
        return branch

    def _gap(self, x: float) -> float:
        if _X_CANCEL_LO < x < _X_CANCEL_HI:
            # x - K(1, x) loses digits to cancellation here
            return self._branch(x).gap(abs(math.log(x)), x)
        return x - self.section(x)

    def log_F(self, x: float) -> float:
        if x == 1.0:
            return -math.inf  # F(1) = 0 limit
        return self._branch(x).log_F(abs(math.log(x)))

    def F(self, x: float) -> float:
        if x == 1.0:
            return 0.0
        return math.exp(self.log_F(x))

    def _f_F(self, x: float) -> tuple[float, float]:
        """``(f(x), F(x))`` from one ``log F`` and one gap."""
        if x == 1.0:
            return 0.0, 0.0
        F = math.exp(self.log_F(x))
        return F / self._gap(x), F

    def f(self, x: float) -> float:
        return self._f_F(x)[0]

    def w(self, x: float) -> float:
        if x == 1.0:
            # density limit at the pivot: evaluate one ulp off it
            x = math.nextafter(1.0, 2.0 if self._right is not None else 0.0)
        F = self.F(x)
        gap = self._gap(x)
        return self.section_slope(x) * F / (gap * gap)

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
                raise NotSymmetric(
                    f"mean {k.name!r} is not symmetric at ({a!r}, {b!r})"
                )
            if not (a < kab < b):
                raise NotStrictlyInternal(
                    f"mean {k.name!r} not strictly internal at ({a!r}, {b!r})"
                )


def _plateau(c: np.ndarray) -> Optional[int]:
    """Where the Chebyshev coefficients ``c`` level off at their noise floor,
    or None while they still fall: the plateau test of ``standardChop``
    (Aurentz & Trefethen, ACM TOMS 43(4), 2017) at tolerance 2^-52.
    """
    env = np.maximum.accumulate(np.abs(c)[::-1])[::-1] / np.max(np.abs(c))
    for j in range(1, len(c)):
        j2 = int(1.25 * j + 5.75)  # the paper's round(1.25 j + 5), from 1
        if j2 >= len(c):
            return None
        if env[j] == 0.0 or env[j2] / env[j] > 3.0 * (1.0 - math.log2(env[j]) / -52):
            return j
    return None


def _slope_series(k: OrdinaryMean, exact_end: float
                  ) -> tuple[np.ndarray, dict, np.ndarray, np.ndarray]:
    """Chebyshev series, in ``u = 2 t / t_end - 1``, of the slope of log F in
    log t, ``h = side t x / (x - K(1, x))`` with ``x = e^(side t)``; its
    degree and the size of its coefficients past their plateau; and the
    points ``x`` it was fitted on past the pivot, with their gaps.

    The degree doubles until the coefficients level off; a section that is
    not smooth never gets there and raises :class:`QuadratureError`.
    """
    from numpy.polynomial import chebyshev as cheb, legendre

    side = 1 if exact_end > 1.0 else -1
    t_end = abs(math.log(exact_end))
    gl_x, gl_w = legendre.leggauss(12)
    deg = _DEG_MIN
    while True:
        x = np.exp(side * t_end * 0.5 * (1.0 - np.cos(np.pi * np.arange(deg + 1) / deg)))
        x[-1] = exact_end
        t = np.abs(np.log(x))  # from the rounded x, so t and x - 1 agree
        near = t < (_T_CANCEL if k.section_deriv is not None else 0.0)
        gap = x - np.array([0.0 if n else k.section(p)
                            for p, n in zip(x.tolist(), near.tolist())])
        if near.any():
            # x - K(1, x) cancels here: integrate 1 - g' from 1 to x instead
            r = 0.5 * (x[near] - 1.0)
            s = 1.0 + r[:, None] * (1.0 + gl_x)
            slope = np.array([k.section_deriv(p) for p in s.ravel().tolist()])
            gap[near] = r * ((1.0 - slope.reshape(s.shape)) @ gl_w)
        bad = x[1:][side * gap[1:] <= 0.0].tolist()
        if bad:
            raise NotStrictlyInternal(f"K(1, {bad[0]!r}) leaves the open "
                                      f"interval between 1 and {bad[0]!r}")
        # h = 2 at the pivot, where g' = 1/2 for any symmetric mean
        h = np.concatenate([[2.0], side * t[1:] * x[1:] / gap[1:]])
        c = np.linalg.solve(cheb.chebvander(2.0 * t / t_end - 1.0, deg), h)
        j = _plateau(c)
        if j is not None:
            return (c, {"degree": deg, "tail": float(np.max(np.abs(c[j:])))},
                    x[1:], gap[1:])
        if deg >= _DEG_MAX:
            raise QuadratureError(
                f"the slope of log F for {k.name!r} has no Chebyshev series of "
                f"degree {deg} on [1, {exact_end!r}]: K(1, x) is not smooth there")
        deg *= 2


def _left_scale(k: OrdinaryMean, a: float, b: float) -> float:
    """The factor on ``F`` below 1 that makes the measure's mean of
    ``[a, b]`` equal ``K(a, b)``, for ``F(a) / factor = F(b) = 1``.

    With ``f = F / (x - g(x))`` and ``F(1) = f(1) = 0`` the mean condition
    ``(b - K) f(b) - F(b) = (a - K) f(a) - F(a)`` is linear in the factor.
    """
    K, ga, gb = k(a, b), k.section(a), k.section(b)
    den = (b - gb) * (ga - K)
    scale = (gb - K) * (a - ga) / den if den != 0.0 else math.nan
    if not 0.0 < scale < math.inf:
        raise NotIncreasing(
            f"mean {k.name!r} does not increase in each argument across 1: "
            f"K({a!r}, {b!r}) = {K!r} is not between K({a!r}, 1) and K(1, {b!r})"
        )
    return scale


def build(k: OrdinaryMean, window: tuple[float, float]) -> MeasureSpec:
    """Synthesize the measure generating ``k`` on ``window``.

    The window must sit inside the mean's domain with positive lower end.
    Returns a :class:`MeasureSpec` whose primitives sum a Chebyshev series
    on each side of 1 that the window reaches; the underlying :class:`ConstructedMeasure` rides along in its
    ``construction`` field, with the worst relative error of the self-check
    against ``k`` on probe pairs in ``round_trip_max_rel_err`` (the pair in
    ``round_trip_worst_pair``) and the seconds of each phase in
    ``build_seconds``.  Raises :class:`QuadratureError` when that check misses
    ``max(1e-9, 1e-6 |k|)``.
    """
    start = time.perf_counter()
    lo, hi = window
    if not (0.0 < lo < hi):
        raise DomainError(f"window must satisfy 0 < lo < hi, got {window!r}")
    if lo <= k.domain[0] or hi >= k.domain[1]:
        raise DomainError(f"window {window!r} exceeds the mean's domain {k.domain!r}")
    _probe_mean(k, window)

    # anchors where F = 1 on the right and F = left_scale on the left; a
    # window on one side of 1 is anchored at its geometric midpoint
    mid = math.exp(0.5 * (math.log(lo) + math.log(hi)))
    b = mid if lo > 1.0 else 2.0 if hi > 2.0 else math.exp(0.5 * math.log(hi))
    a = mid if hi < 1.0 else 0.5 if lo < 0.5 else math.exp(0.5 * math.log(lo))
    left_scale = _left_scale(k, a, b) if lo < 1.0 < hi else 1.0
    right = left = None
    if hi > 1.0:
        right = _Branch(k, hi, b, 0.0)
    if lo < 1.0:
        left = _Branch(k, lo, a, math.log(left_scale))

    cm = ConstructedMeasure(
        name=f"built:{k.name}",
        window=window,
        section=k.section,
        section_slope=k.section_slope,
        right=right,
        left=left,
        left_scale=left_scale,
    )
    spec = cm.to_spec()
    tabulated = time.perf_counter()

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
        err = abs(got - want) / abs(want)
        if cm.round_trip_worst_pair is None or err > worst:
            worst, cm.round_trip_worst_pair = err, (a, b)
        if abs(got - want) > max(1e-9, 1e-6 * abs(want)):
            raise QuadratureError(
                f"tabulation reproduces K({a:g},{b:g}) as {got!r}, want "
                f"{want!r}; no measure generates the mean {k.name!r} (its "
                f"section only pins the mean against 1)"
            )
    cm.round_trip_max_rel_err = worst
    cm.build_seconds = {"tabulate_join": tabulated - start,
                        "self_check": time.perf_counter() - tabulated}
    return spec


def reconstruct(spec: MeasureSpec, a: float, b: float) -> float:
    """Two-argument mean of ``[a, b]`` from a measure's primitives."""
    if spec.cdf is None or spec.antiderivative is None:
        raise DomainError(f"measure {spec.name!r} has no tabulated primitives")
    return ordinary(spec, a, b)


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
        raise EmptySet("need at least one probe set")
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
