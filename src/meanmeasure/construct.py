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

import functools
import itertools
import math
import operator
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

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
from .measures import MeasureSpec, _linspace

# below this |log x| the gap x - K(1, x) loses digits to cancellation, so it
# is integrated from the section's slope when the mean supplies one, and
# pointwise it is taken from the series
_T_CANCEL = 0.5
_X_CANCEL_LO, _X_CANCEL_HI = math.exp(-_T_CANCEL), math.exp(_T_CANCEL)
# Chebyshev degrees per branch: the first tried, and the last before giving up
_DEG_MIN, _DEG_MAX = 32, 512
# 12-point Gauss-Legendre abscissae on [-1, 1] (positive half, mirrored
# below) and weights, as the eigenvalue method with one Newton step rounds
# them, the weights scaled to sum to 2 (so up to 1e-14 off their exact values)
_GL_X = (0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
         0.7699026741943047, 0.9041172563704748, 0.9815606342467192)
_GL_W = (0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
         0.16007832854334642, 0.10693932599531907, 0.04717533638651141)
_GL = tuple((s * x, w) for x, w in zip(_GL_X, _GL_W) for s in (-1.0, 1.0))


@dataclass(frozen=True)
class OrdinaryMean:
    """A symmetric two-argument mean with an optional section derivative.

    ``section_deriv(b)`` is the partial derivative of ``K(1, b)`` in ``b``;
    when absent it is replaced by a central finite difference.
    """

    name: str
    func: Callable[[float, float], float]
    section_deriv: Optional[Callable[[float], float]] = None

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


_NAMED_MEANS = {k.name: k for k in (
    OrdinaryMean("arithmetic", lambda a, b: 0.5 * (a + b),
                 lambda x: 0.5),
    OrdinaryMean("geometric", lambda a, b: math.sqrt(a * b),
                 lambda x: 0.5 / math.sqrt(x)),
    OrdinaryMean("harmonic", lambda a, b: 2.0 * a * b / (a + b),
                 lambda x: 2.0 / (1.0 + x) ** 2),
    OrdinaryMean(
        "logarithmic",
        lambda a, b: (a - b) / (math.log(a) - math.log(b)) if a != b else a,
        _log_mean_section_slope,
    ),
)}


def ordinary_mean(name: str) -> OrdinaryMean:
    """Built-in two-argument means selectable by name.

    Supported: arithmetic, geometric, harmonic, logarithmic, each one shared
    frozen value, and ``power:p`` for a real exponent p, built on each call
    (p = 0 maps to geometric).
    """
    if isinstance(name, str) and name in _NAMED_MEANS:
        return _NAMED_MEANS[name]
    if isinstance(name, str) and name.startswith("power:"):
        try:
            p = float(name.split(":", 1)[1])
        except ValueError:
            p = math.nan
        if not math.isfinite(p):
            raise UnknownMeasure(f"bad power mean exponent in {name!r}")
        if p == 0.0:
            return _NAMED_MEANS["geometric"]

        def k(a: float, b: float) -> float:
            return ((a ** p + b ** p) / 2.0) ** (1.0 / p)

        def slope(x: float) -> float:
            return ((1.0 + x ** p) / 2.0) ** (1.0 / p - 1.0) * x ** (p - 1.0) / 2.0

        return OrdinaryMean(f"power:{p:g}", k, slope)
    raise UnknownMeasure(
        f"unknown ordinary mean {name!r}; choose arithmetic, geometric, "
        f"harmonic, logarithmic, or power:p"
    )


def _clenshaw(rev: list, u: float) -> float:
    """The Chebyshev series with coefficients ``rev``, highest first, at ``u``
    (Clenshaw's recurrence): the reference that build() and the tests use,
    and that :meth:`ConstructedMeasure._eval` writes out."""
    b1 = b2 = 0.0
    u2 = u + u
    for a in rev:
        b1, b2 = a + u2 * b1 - b2, b1
    return b1 - u * b2


@functools.cache  # build() fits at degrees 32, 64, ..., 512 only
def _cos_rows(n: int) -> tuple:
    """Row ``m`` holds ``cos(pi m j / n)`` for ``j = 0, ..., n``."""
    cos = [math.cos(math.pi * i / n) for i in range(2 * n)]
    return tuple(tuple(cos[m * j % (2 * n)] for j in range(n + 1))
                 for m in range(n + 1))


def _vals2coeffs(v: list) -> list:
    """Chebyshev coefficients, lowest first, of the polynomial through the
    values ``v`` at ``u_j = -cos(pi j / n)``: a DCT-I, O(n^2) (chebfun's
    ``vals2coeffs``; Trefethen, *Approximation Theory and Approximation
    Practice*, 2013, ch. 3).  The cosine rows are cached per degree."""
    n = len(v) - 1
    v = [0.5 * v[0]] + v[1:-1] + [0.5 * v[-1]]
    c = [(-2.0 if m % 2 else 2.0) / n * sum(map(operator.mul, v, row))
         for m, row in enumerate(_cos_rows(n))]
    c[0] *= 0.5
    c[-1] *= 0.5
    return c


def _chebvander(u: float, n: int) -> list:
    """``T_0(u), ..., T_n(u)``."""
    T = [1.0, u]
    for _ in range(n - 1):
        T.append(2.0 * u * T[-1] - T[-2])
    return T


def _log_slope_integral(c: list) -> list:
    """Chebyshev coefficients, lowest first, of ``R`` with ``(1 + u) R' =
    h - 2`` and ``R_0 = 0``, for the series ``h`` with coefficients ``c`` and
    ``h(-1) = 2``.

    Dividing by ``1 + u`` and integrating fold into ``R_k = (c_k - 2 c_k+1
    + 2 c_k+2 - ...) / k`` for ``k >= 1``, each sum exactly rounded: the two
    steps apart lose digits to cancellation between large quotients.
    """
    return [0.0] + [
        math.fsum([c[k]] + [2.0 * v if i % 2 else -2.0 * v
                            for i, v in enumerate(c[k + 1:])]) / k
        for k in range(1, len(c))]


class _Branch:
    """One side of the pivot, ending at ``exact_end``.

    In ``t = |log x|`` and ``u = 2 t / t_end - 1``, ``log F = 2 log t + R(u)
    + const``, where ``R`` integrates ``(h - 2) / t`` in coefficient space
    from the series ``h`` of :func:`_slope_series`, and ``x - K(1, x) =
    x log x / h(u)``.  Both series are cut at the plateau the fit found, to
    its ``terms`` coefficients, and ``const`` puts ``log F = 0`` at
    ``anchor_x``; :meth:`ConstructedMeasure._eval` sums them at any ``t >
    0``, down to one ulp from the pivot, in one pass per point.  Raises
    :class:`NotIncreasing` unless, at every point the series was fitted on,
    ``f`` moves away from ``f(1) = 0`` and the density is positive.
    """

    def __init__(self, k: OrdinaryMean, exact_end: float, anchor_x: float):
        c, self.series, x, gap = _slope_series(k, exact_end)
        side = 1 if exact_end > 1.0 else -1  # side of the pivot
        self.anchor_x = anchor_x
        self.t_end = t_end = abs(math.log(exact_end))
        self.t_max = t_end * (1.0 + 1e-9)  # the last t a point may have
        # with t = t_end (1 + u)/2, (h - 2)/t dt = (h - 2)/(1 + u) du
        # R from the whole fit, then both cut at the plateau: past it the
        # coefficients are rounding noise
        R = _log_slope_integral(c)
        n = self.series["terms"]
        self._h, self._R = c[n - 1::-1], R[n - 1::-1]
        # |T_k| <= 1, so the cut moves log F by at most the dropped |R_k|
        self.series["tail"] = math.fsum(map(abs, R[n:]))

        def terms(t: float) -> tuple[float, float]:
            # log F less const, from the reference sum, as _eval takes it
            v = 2.0 * t / t_end
            return 2.0 * math.log(v), _clenshaw(self._R, v - 1.0)

        self._const = -math.fsum(terms(abs(math.log(anchor_x))))
        F = [math.exp(math.fsum((*terms(abs(math.log(p))), self._const)))
             for p in x]
        f = [0.0] + [Fp / g for Fp, g in zip(F, gap)]
        # w = g' F / gap^2 is f', so f = F / gap must move away from f(1) = 0,
        # which keeps the pair across the pivot, and g' F must be positive
        if not (all(side * (f1 - f0) > 0.0 for f0, f1 in zip(f, f[1:]))
                and all(k.section_slope(p) * Fp > 0.0 for p, Fp in zip(x, F))):
            raise NotIncreasing(
                f"constructed primitive for {k.name!r} is not strictly increasing"
            )


class ConstructedMeasure:
    """Primitives of a measure synthesized from a two-argument mean.

    ``f``, ``F``, ``w`` and ``log F`` come from one pass per point, in
    :meth:`_eval`.
    ``series`` records for each branch its Chebyshev degree, the ``terms``
    it sums (its coefficients up to their plateau) and, as ``tail``, the sum
    of the ``|R_k|`` the cut drops from the series of ``log F``: a bound on
    how far the cut moves ``log F``.  ``nodes`` counts the points both
    branches' series were fitted on, each including the pivot x = 1, where
    ``F(1) = f(1) = 0`` are analytic limits.
    ``F(x0) = 1`` at the right-branch anchor.  Below 1, ``F`` is the joining
    factor ``left_scale`` times the exponential of the left branch's series,
    so ``F = left_scale`` at that branch's anchor.
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
        self.series = {name: b.series for name, b in (("left", left),
                       ("right", right)) if b is not None}
        self.nodes = sum(s["degree"] + 1 for s in self.series.values())
        self.round_trip_max_rel_err = math.nan  # these three are set by build()
        self.round_trip_worst_pair = None
        self.build_seconds = {}

    # -- pointwise evaluation ------------------------------------------------

    def _eval(self, x: float) -> tuple[float, float, float, float]:
        """``(f, F, x - K(1, x), log F)`` at ``x`` in one pass, ``log F``
        less ``log(left_scale)`` below 1.

        ``log F = 2 log v + R(v - 1) + const``, ``v = 1 + u`` rounded once
        (``u = v - 1`` is then exact from 1/2 up): both terms read the same
        ``v``, so a relative error ``d`` in ``v`` moves their sum by ``h d``
        only.  Near the pivot the gap is ``x log x / h``, ``h`` summed in the
        same loop as ``R``.  The loops are :func:`_clenshaw` written out: the
        Python frames per endpoint are what a set mean on a built measure costs.
        """
        if x == 1.0:
            return 0.0, 0.0, 0.0, -math.inf  # the F(1) = f(1) = 0 limits
        if x > 1.0:
            b, scale = self._right, 1.0
        else:
            b, scale = self._left, self.left_scale
        if b is None:
            side = "above" if x > 1.0 else "below"
            raise DomainError(f"no branch {side} 1 was tabulated")
        L = math.log(x) if x > 0.0 else math.nan  # x <= 0, nan fail below
        t = abs(L)
        if not t <= b.t_max:
            raise DomainError(f"point {x!r} outside the tabulated window")
        v = 2.0 * t / b.t_end
        u = v - 1.0
        u2 = u + u
        r1 = r2 = 0.0
        if _X_CANCEL_LO < x < _X_CANCEL_HI:
            # x - K(1, x) loses digits to cancellation here
            h1 = h2 = 0.0
            for a, c in zip(b._R, b._h):
                r1, r2 = a + u2 * r1 - r2, r1
                h1, h2 = c + u2 * h1 - h2, h1
            gap = L * x / (h1 - u * h2)
        else:
            for a in b._R:
                r1, r2 = a + u2 * r1 - r2, r1
            gap = x - self.section(x)
        log_F = math.fsum((2.0 * math.log(v), r1 - u * r2, b._const))
        F = scale * math.exp(log_F)
        return F / gap, F, gap, log_F

    def log_F(self, x: float) -> float:
        """``log F(x)``, less ``log(left_scale)`` below 1: one branch's series."""
        return self._eval(x)[3]

    def F(self, x: float) -> float:
        return self._eval(x)[1]

    def f(self, x: float) -> float:
        return self._eval(x)[0]

    def w(self, x: float) -> float:
        if x == 1.0:
            # density limit at the pivot: evaluate one ulp off it
            x = math.nextafter(1.0, 2.0 if self._right is not None else 0.0)
        _, F, gap, _ = self._eval(x)
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
    pts = [math.exp(v) for v in _linspace(math.log(lo), math.log(hi), 9)]
    for a, b in itertools.combinations(pts, 2):
        try:
            kab, kba = k(a, b), k(b, a)
        except (OverflowError, ZeroDivisionError):
            raise DomainError(f"mean {k.name!r} overflows double precision at "
                              f"({a!r}, {b!r})") from None
        if abs(kab - kba) > 1e-12 * (1.0 + abs(kab)):
            raise NotSymmetric(
                f"mean {k.name!r} is not symmetric at ({a!r}, {b!r})"
            )
        if not (a < kab < b):
            raise NotStrictlyInternal(
                f"mean {k.name!r} not strictly internal at ({a!r}, {b!r})"
            )


def _plateau(c: list) -> Optional[int]:
    """Where the Chebyshev coefficients ``c`` level off at their noise floor,
    or None while they still fall: the plateau test of ``standardChop``
    (Aurentz & Trefethen, ACM TOMS 43(4), 2017) at tolerance 2^-52.
    """
    size = [abs(v) for v in c]
    top = max(size)
    env = [e / top for e in itertools.accumulate(reversed(size), max)][::-1]
    for j in range(1, len(c)):
        j2 = int(1.25 * j + 5.75)  # the paper's round(1.25 j + 5), from 1
        if j2 >= len(c):
            return None
        if env[j] == 0.0 or env[j2] / env[j] > 3.0 * (1.0 - math.log2(env[j]) / -52):
            return j
    return None


def _gap_by_slope(k: OrdinaryMean, x: float) -> float:
    """``x - K(1, x)`` as the integral of ``1 - g'`` from 1 to ``x``, by the
    12-point Gauss-Legendre rule, where the difference itself cancels."""
    r = 0.5 * (x - 1.0)
    return r * math.fsum(w * (1.0 - k.section_deriv(1.0 + r * (1.0 + g)))
                         for g, w in _GL)


def _slope_series(k: OrdinaryMean, exact_end: float
                  ) -> tuple[list, dict, list, list]:
    """Chebyshev series, lowest first in ``u = 2 t / t_end - 1``, of the slope
    of log F in log t, ``h = side t x / (x - K(1, x))`` with ``x = e^(side
    t)``; its degree and the number of terms up to their plateau; and the
    points ``x`` it was fitted on past the pivot, with their gaps.

    The degree doubles until the coefficients of the values' DCT level off;
    a section that is not smooth never gets there and raises
    :class:`QuadratureError`.  The points as rounded are Chebyshev points
    only up to that rounding, so the accepted DCT is then corrected by two
    steps of iterative refinement: the residual of ``h`` at those points,
    each exactly rounded, goes through the DCT and is added on.
    """
    side = 1 if exact_end > 1.0 else -1
    t_end = abs(math.log(exact_end))
    t_near = _T_CANCEL if k.section_deriv is not None else 0.0
    deg = _DEG_MIN
    while True:
        x = [math.exp(side * t_end * 0.5 * (1.0 - math.cos(math.pi * j / deg)))
             for j in range(1, deg)] + [exact_end]
        t = [abs(math.log(p)) for p in x]  # from the rounded x, so t and x - 1 agree
        gap = [_gap_by_slope(k, p) if tp < t_near else p - k.section(p)
               for p, tp in zip(x, t)]
        bad = [p for p, g in zip(x, gap) if side * g <= 0.0]
        if bad:
            raise NotStrictlyInternal(f"K(1, {bad[0]!r}) leaves the open "
                                      f"interval between 1 and {bad[0]!r}")
        # h = 2 at the pivot, where g' = 1/2 for any symmetric mean
        h = [2.0] + [side * tp * p / g for tp, p, g in zip(t, x, gap)]
        c = _vals2coeffs(h)
        j = _plateau(c)
        if j is not None:
            rows = [_chebvander(2.0 * tp / t_end - 1.0, deg) for tp in [0.0] + t]
            for _ in range(2):
                r = [math.fsum([hj] + [-T * ck for T, ck in zip(row, c)])
                     for row, hj in zip(rows, h)]
                c = [ck + dk for ck, dk in zip(c, _vals2coeffs(r))]
            return c, {"degree": deg, "terms": j + 1}, x, gap
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

    The window must satisfy ``0 < lo < hi < inf``.
    Returns a :class:`MeasureSpec` whose primitives sum a Chebyshev series
    on each side of 1 that the window reaches; the underlying :class:`ConstructedMeasure` rides along in its
    ``construction`` field, with the worst relative error of the self-check
    against ``k`` on probe pairs in ``round_trip_max_rel_err`` (the pair in
    ``round_trip_worst_pair``) and the seconds of each phase in
    ``build_seconds``.  Raises :class:`QuadratureError` when that check misses
    ``max(1e-9, 1e-6 |k|)``.
    """
    start = time.perf_counter()
    try:
        lo, hi = window = tuple(map(float, window))
    except (TypeError, ValueError):
        raise InvalidInterval(f"window must be two numbers, got {window!r}") from None
    if not (0.0 < lo < hi < math.inf):
        raise DomainError(f"window must satisfy 0 < lo < hi < inf, got {window!r}")
    _probe_mean(k, window)

    # anchors where F = 1 on the right and F = left_scale on the left; a
    # window on one side of 1 is anchored at its geometric midpoint
    mid = math.exp(0.5 * (math.log(lo) + math.log(hi)))
    b = mid if lo > 1.0 else 2.0 if hi > 2.0 else math.exp(0.5 * math.log(hi))
    a = mid if hi < 1.0 else 0.5 if lo < 0.5 else math.exp(0.5 * math.log(lo))
    left_scale = _left_scale(k, a, b) if lo < 1.0 < hi else 1.0
    right = left = None
    try:
        if hi > 1.0:
            right = _Branch(k, hi, b)
        if lo < 1.0:
            left = _Branch(k, lo, a)
    except OverflowError:
        raise DomainError(f"F of {k.name!r} overflows double precision on the "
                          f"window {window!r}") from None

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
    spread = [math.exp(v) for v in _linspace(math.log(lo), math.log(hi), 8)[1:-1]]
    ladder = _linspace(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo), 12)
    pairs = list(itertools.combinations(spread, 2)) + list(zip(ladder, ladder[1:]))
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
    [(a, b)] = cm.to_spec().require_window((a, b))
    fa, fb = cm.f(a), cm.f(b)
    return (fb * g(b) - fa * g(a)) / (fb - fa)


class UniquenessResult(NamedTuple):
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
