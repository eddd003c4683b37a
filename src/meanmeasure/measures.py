"""Borel measures on an interval of the real line, given by densities.

A :class:`MeasureSpec` bundles a strictly positive density ``w`` with an
optional increasing primitive ``f`` (so that the measure of ``[a, b]`` is
``f(b) - f(a)``) and an optional second primitive ``F`` with ``F' = f``.
When the primitives are present, set measures and first moments come from
closed forms; otherwise they fall back to adaptive quadrature of ``w``.

The catalog holds the measures generating the classical two-argument means
(arithmetic, geometric, harmonic, logarithmic, and the ``x^2`` / ``e^x``
examples).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import DomainError, InvalidInterval, UnknownMeasure
from .intervals import IntervalSet
from .quadrature import quad

_EPS = 2.0 ** -50  # a couple of ulps, for rounding-error propagation
_E2 = math.e ** 2

DEFAULT_ABS_TOL = 1e-10
DEFAULT_REL_TOL = 1e-9
DEFAULT_MAX_PANELS = 10_000


@dataclass(frozen=True)
class MeasureSpec:
    """A measure with density ``density`` on the open interval ``domain``.

    ``density_shape`` declares weak monotonicity of the density ("increasing",
    "decreasing", or "none" when unknown); a constant density counts as weakly
    increasing.  ``construction`` optionally carries the tabulation a measure
    was synthesized from.
    """

    name: str
    domain: tuple[float, float]
    density: Callable[[float], float]
    cdf: Optional[Callable[[float], float]] = None
    antiderivative: Optional[Callable[[float], float]] = None
    density_shape: str = "none"
    construction: object = field(default=None, compare=False, repr=False)

    # -- domain handling --------------------------------------------------

    def contains(self, H: IntervalSet) -> bool:
        if H.is_empty:
            return True
        lo, hi = self.domain
        return H.infimum() > lo and H.supremum() < hi

    def require_domain(self, H: IntervalSet) -> None:
        if not self.contains(H):
            raise DomainError(
                f"set within [{H.infimum()!r}, {H.supremum()!r}] exceeds the "
                f"domain {self.domain!r} of measure {self.name!r}"
            )

    # -- evaluation --------------------------------------------------------

    def mu(self, H: IntervalSet) -> float:
        """Measure of a finite interval union."""
        return self.mass_with_error(H)[0]

    def first_moment(self, H: IntervalSet) -> float:
        """Integral of the identity over ``H`` against this measure."""
        return self.moment_with_error(H)[0]

    def mass_with_error(self, H: IntervalSet) -> tuple[float, float]:
        self.require_domain(H)
        total = 0.0
        err = 0.0
        for lo, hi in H:
            if self.cdf is not None:
                try:
                    flo, fhi = self.cdf(lo), self.cdf(hi)
                except OverflowError:
                    raise self._overflow("measure") from None
                total += fhi - flo
                err += _EPS * (abs(fhi) + abs(flo))
            else:
                r = quad(self.density, lo, hi,
                         DEFAULT_ABS_TOL, DEFAULT_REL_TOL, DEFAULT_MAX_PANELS)
                total += r.value
                err += r.error_estimate
        if not math.isfinite(total):
            raise self._overflow("measure")
        return total, err

    def _overflow(self, what: str) -> DomainError:
        return DomainError(
            f"{what} of {self.name!r} overflows double precision on this set"
        )

    def moment_with_error(self, H: IntervalSet) -> tuple[float, float]:
        self.require_domain(H)
        total = 0.0
        err = 0.0
        use_closed = self.cdf is not None and self.antiderivative is not None
        for lo, hi in H:
            if use_closed:
                try:
                    flo, fhi = self.cdf(lo), self.cdf(hi)
                    Flo, Fhi = self.antiderivative(lo), self.antiderivative(hi)
                except OverflowError:
                    raise self._overflow("first moment") from None
                total += hi * fhi - lo * flo - (Fhi - Flo)
                err += _EPS * (abs(hi * fhi) + abs(lo * flo) + abs(Fhi) + abs(Flo))
            else:
                r = quad(lambda x: x * self.density(x), lo, hi,
                         DEFAULT_ABS_TOL, DEFAULT_REL_TOL, DEFAULT_MAX_PANELS)
                total += r.value
                err += r.error_estimate
        if not math.isfinite(total):
            raise self._overflow("first moment")
        return total, err

    def scaled(self, c: float) -> "MeasureSpec":
        """The same measure multiplied by a positive constant.

        The factor multiplies set masses and moments after the primitive
        differences are taken, so means are preserved to a couple of ulps
        even where the differences cancel heavily.
        """
        if not (c > 0.0 and math.isfinite(c)):
            raise DomainError(f"scale must be a positive finite number, got {c!r}")
        base = self.base if isinstance(self, _ScaledMeasure) else self
        factor = c * (self.factor if isinstance(self, _ScaledMeasure) else 1.0)
        w, f, F = base.density, base.cdf, base.antiderivative
        return _ScaledMeasure(
            name=f"{self.name}*{c:g}",
            domain=self.domain,
            density=lambda x, _w=w: factor * _w(x),
            cdf=None if f is None else (lambda x, _f=f: factor * _f(x)),
            antiderivative=None if F is None else (lambda x, _F=F: factor * _F(x)),
            density_shape=self.density_shape,
            base=base,
            factor=factor,
        )


@dataclass(frozen=True)
class _ScaledMeasure(MeasureSpec):
    """A measure times a constant; evaluation delegates to the base measure."""

    base: Optional[MeasureSpec] = None
    factor: float = 1.0

    def mass_with_error(self, H: IntervalSet) -> tuple[float, float]:
        mass, err = self.base.mass_with_error(H)
        return self.factor * mass, self.factor * err

    def moment_with_error(self, H: IntervalSet) -> tuple[float, float]:
        moment, err = self.base.moment_with_error(H)
        return self.factor * moment, self.factor * err


def consistency_errors(spec: MeasureSpec, window: tuple[float, float],
                       n: int = 33) -> tuple[float, float]:
    """Max relative deviation of F' from f and of f' from w on a probe grid.

    Derivatives are central differences with step ``1e-6 * max(1, |x|)``.
    Returns ``(0, 0)`` components for primitives that are absent.
    """
    a, b = window
    if not (a < b):
        raise InvalidInterval(f"window must satisfy lo < hi, got {window!r}")
    xs = [a + (b - a) * (i + 0.5) / n for i in range(n)]
    err_Ff = 0.0
    err_fw = 0.0
    for x in xs:
        h = 1e-6 * max(1.0, abs(x))
        if spec.cdf is not None and spec.antiderivative is not None:
            fd = (spec.antiderivative(x + h) - spec.antiderivative(x - h)) / (2 * h)
            f = spec.cdf(x)
            err_Ff = max(err_Ff, abs(fd - f) / max(abs(f), 1e-300))
        if spec.cdf is not None:
            fd = (spec.cdf(x + h) - spec.cdf(x - h)) / (2 * h)
            w = spec.density(x)
            err_fw = max(err_fw, abs(fd - w) / max(abs(w), 1e-300))
    return err_Ff, err_fw


# -- monotone density-ratio certificate -------------------------------------


@dataclass(frozen=True)
class RatioCertificate:
    status: str  # "certified" | "refuted" | "inconclusive"
    witness: Optional[tuple[float, float, float, float]] = None  # x1, x2, r1, r2

    @property
    def certified(self) -> bool:
        return self.status == "certified"


def density_ratio_increasing(numer: MeasureSpec, denom: MeasureSpec,
                             interval: tuple[float, float],
                             n_probe: int = 128) -> RatioCertificate:
    """Check that the density ratio numer/denom is nondecreasing on a grid.

    A finite grid cannot prove monotonicity on its own, so the verdict is
    "certified" only when the grid is nondecreasing and both measures declare
    a density shape; with undeclared shapes a clean grid is "inconclusive".
    A decrease on the grid refutes with the witness pair.
    """
    a, b = interval
    if not (a < b):
        raise InvalidInterval(f"interval must satisfy lo < hi, got {interval!r}")
    xs = [a + (b - a) * i / (n_probe - 1) for i in range(n_probe)]
    ratios = []
    for x in xs:
        wn = numer.density(x)
        wd = denom.density(x)
        if not (wn > 0.0 and wd > 0.0):
            raise DomainError(f"non-positive density sample at {x!r}")
        ratios.append(wn / wd)
    for i in range(len(xs) - 1):
        if ratios[i + 1] < ratios[i] * (1.0 - 1e-12):
            return RatioCertificate(
                "refuted", (xs[i], xs[i + 1], ratios[i], ratios[i + 1])
            )
    if numer.density_shape == "none" or denom.density_shape == "none":
        return RatioCertificate("inconclusive")
    return RatioCertificate("certified")


# -- catalog -----------------------------------------------------------------


def _lebesgue() -> MeasureSpec:
    return MeasureSpec(
        name="lebesgue",
        domain=(-math.inf, math.inf),
        density=lambda x: 1.0,
        cdf=lambda x: x,
        antiderivative=lambda x: 0.5 * x * x,
        density_shape="increasing",  # constant, weakly monotone
    )


def _geometric() -> MeasureSpec:
    return MeasureSpec(
        name="geometric",
        domain=(0.0, math.inf),
        density=lambda x: 1.0 / (2.0 * _E2 * x * math.sqrt(x)),
        cdf=lambda x: (1.0 - 1.0 / math.sqrt(x)) / _E2,
        antiderivative=lambda x: (math.sqrt(x) - 1.0) ** 2 / _E2,
        density_shape="decreasing",
    )


def _harmonic() -> MeasureSpec:
    return MeasureSpec(
        name="harmonic",
        domain=(0.0, math.inf),
        density=lambda x: 2.0 / x ** 3,
        cdf=lambda x: 1.0 - 1.0 / (x * x),
        antiderivative=lambda x: x - 2.0 + 1.0 / x,
        density_shape="decreasing",
    )


def _logarithmic() -> MeasureSpec:
    return MeasureSpec(
        name="logarithmic",
        domain=(0.0, math.inf),
        density=lambda x: 1.0 / x,
        cdf=math.log,
        antiderivative=lambda x: x * math.log(x) - x + 1.0,
        density_shape="decreasing",
    )


def _square() -> MeasureSpec:
    return MeasureSpec(
        name="square",
        domain=(0.0, math.inf),
        density=lambda x: 2.0 * x,
        cdf=lambda x: x * x,
        antiderivative=lambda x: x ** 3 / 3.0,
        density_shape="increasing",
    )


def _exponential() -> MeasureSpec:
    return MeasureSpec(
        name="exponential",
        domain=(-math.inf, math.inf),
        density=math.exp,
        cdf=math.exp,
        antiderivative=math.exp,
        density_shape="increasing",
    )


_CATALOG = {
    "lebesgue": _lebesgue,
    "geometric": _geometric,
    "harmonic": _harmonic,
    "logarithmic": _logarithmic,
    "square": _square,
    "exponential": _exponential,
}

CATALOG_NAMES = tuple(_CATALOG)


def catalog(name: str) -> MeasureSpec:
    """Look up a built-in measure by name."""
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise UnknownMeasure(
            f"unknown measure {name!r}; choose from {', '.join(CATALOG_NAMES)}"
        ) from None
    return builder()
