"""Borel measures on an interval of the real line, given by densities.

A :class:`MeasureSpec` bundles a strictly positive density ``w`` with an
optional increasing primitive ``f`` (so that the measure of ``[a, b]`` is
``f(b) - f(a)``) and an optional second primitive ``F`` with ``F' = f``.
:meth:`MeasureSpec.integrate` takes a set's mass and first moment in one
pass from the spec's own fields: from closed forms when both primitives are
present, evaluating each once per endpoint, and otherwise from adaptive
quadrature of ``w``, whose mass and moment passes share one evaluation of
``w`` per node.  While a built measure's primitives are its
``construction``'s own, one evaluation per endpoint gives both.
:meth:`MeasureSpec.mu` takes the same pass without the moment.

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
from .quadrature import PanelSums, quad

_EPS = 2.0 ** -50  # a couple of ulps, for rounding-error propagation
_E2 = math.e ** 2


@dataclass(frozen=True)
class MeasureSpec:
    """A measure with density ``density`` on the open interval ``domain``.

    ``density_shape`` declares weak monotonicity of the density ("increasing",
    "decreasing", or "none" when unknown); a constant density counts as weakly
    increasing.  ``construction`` carries the ``construct.ConstructedMeasure``
    a built measure came from, and nothing else; set integrals take its fused
    ``(f, F)`` while ``cdf`` and ``antiderivative`` are its own.
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
        pairs = H.intervals
        if not pairs:
            return True
        lo, hi = self.domain
        return pairs[0][0] > lo and pairs[-1][1] < hi

    def require_domain(self, H: IntervalSet) -> None:
        if not self.contains(H):
            raise DomainError(
                f"set within [{H.infimum()!r}, {H.supremum()!r}] exceeds the "
                f"domain {self.domain!r} of measure {self.name!r}"
            )

    # -- evaluation --------------------------------------------------------

    def mu(self, H: IntervalSet) -> float:
        """Measure of a finite interval union."""
        return self._integrate(H, False)[0]

    def first_moment(self, H: IntervalSet) -> float:
        """Integral of the identity over ``H`` against this measure."""
        return self.integrate(H)[2]

    def integrate(self, H: IntervalSet) -> tuple[float, float, float, float]:
        """Mass and first moment of ``H``, each with a propagated error bound.

        Returns ``(mass, mass_err, moment, moment_err)``.  With both
        primitives each endpoint's ``f`` and ``F`` are evaluated once;
        otherwise both sums come from quadrature of the density.
        """
        return self._integrate(H, True)

    def _integrate(self, H: IntervalSet,
                   with_moment: bool) -> tuple[float, float, float, float]:
        # the moment and its error stay 0 unless asked for; the path is
        # chosen once per set: quadrature, a construction's fused (f, F), or
        # the primitives
        self.require_domain(H)
        mass = mass_err = moment = moment_err = 0.0
        f, F = self.cdf, self.antiderivative
        cm = self.construction
        try:
            if f is None or F is None:
                # one panel table for the set: the passes of an interval share it
                table = PanelSums(self.density)
                for lo, hi in H.intervals:
                    r = quad(table.mass, lo, hi)
                    mass += r.value
                    mass_err += r.error_estimate
                    if with_moment:
                        m = quad(table.moment, lo, hi)
                        moment += m.value
                        # plus the rounding quad misses where x w(x) cancels
                        moment_err += (m.error_estimate
                                       + _EPS * max(abs(lo), abs(hi)) * r.value)
            elif cm is not None and f == cm.f and F == cm.F:
                # one log F and one gap per endpoint give the construction's f and F
                fF = cm._f_F
                for lo, hi in H.intervals:
                    (flo, Flo), (fhi, Fhi) = fF(lo), fF(hi)
                    mass += fhi - flo
                    mass_err += _EPS * (abs(fhi) + abs(flo))
                    if with_moment:
                        moment += hi * fhi - lo * flo - (Fhi - Flo)
                        moment_err += _EPS * (abs(hi * fhi) + abs(lo * flo)
                                              + abs(Fhi) + abs(Flo))
            else:
                for lo, hi in H.intervals:
                    flo, fhi = f(lo), f(hi)
                    mass += fhi - flo
                    mass_err += _EPS * (abs(fhi) + abs(flo))
                    if with_moment:
                        Flo, Fhi = F(lo), F(hi)
                        moment += hi * fhi - lo * flo - (Fhi - Flo)
                        moment_err += _EPS * (abs(hi * fhi) + abs(lo * flo)
                                              + abs(Fhi) + abs(Flo))
        except (OverflowError, ZeroDivisionError):
            # a primitive past double range: 1 / (x * x) divides by an
            # underflowed 0 where it would overflow
            mass = math.inf
        if not (math.isfinite(mass) and math.isfinite(moment)):
            raise DomainError(f"mass or first moment of {self.name!r} "
                              "overflows double precision on this set")
        return mass, mass_err, moment, moment_err

    def scaled(self, c: float) -> "MeasureSpec":
        """The same measure multiplied by a positive constant.

        The factor multiplies set masses and moments after the primitive
        differences are taken, and ``means.mean`` reports the base measure's
        value and error bound unchanged.  The name, domain, density shape,
        density and primitives derive from the base and the factor and cannot
        be replaced; to drop the primitives, replace them on the base, then
        scale.
        """
        if not (c > 0.0 and math.isfinite(c)):
            raise DomainError(f"scale must be a positive finite number, got {c!r}")
        base, factor = ((self.base, self.factor)
                        if isinstance(self, _ScaledMeasure) else (self, 1.0))
        return _ScaledMeasure(base=base, factor=c * factor)


@dataclass(frozen=True, kw_only=True)
class _ScaledMeasure(MeasureSpec):
    """A measure times a constant: its name, domain, density shape and
    callables derive from ``base`` and ``factor``, and evaluation delegates
    to the base measure."""

    name: str = field(init=False)
    domain: tuple[float, float] = field(init=False)
    density: Callable[[float], float] = field(init=False)
    cdf: Optional[Callable[[float], float]] = field(init=False)
    antiderivative: Optional[Callable[[float], float]] = field(init=False)
    density_shape: str = field(init=False)
    base: MeasureSpec
    factor: float

    def __post_init__(self) -> None:
        base, c = self.base, self.factor
        w, f, F = base.density, base.cdf, base.antiderivative
        object.__setattr__(self, "name", f"{base.name}*{c:g}")
        object.__setattr__(self, "domain", base.domain)
        object.__setattr__(self, "density_shape", base.density_shape)
        object.__setattr__(self, "density", lambda x: c * w(x))
        object.__setattr__(self, "cdf", None if f is None else lambda x: c * f(x))
        object.__setattr__(self, "antiderivative",
                           None if F is None else lambda x: c * F(x))

    def _integrate(self, H: IntervalSet,
                   with_moment: bool) -> tuple[float, float, float, float]:
        c = self.factor
        return tuple(c * v for v in self.base._integrate(H, with_moment))


def consistency_errors(spec: MeasureSpec, window: tuple[float, float],
                       n: int = 33) -> tuple[float, float]:
    """Max relative deviation of F' from f and of f' from w on a probe grid.

    Derivatives are central differences with step ``1e-6 * max(1, |x|)``.
    Returns ``(0, 0)`` components for primitives that are absent.
    """
    a, b = window
    if not (a < b):
        raise InvalidInterval(f"window must satisfy lo < hi, got {window!r}")
    if n < 1:
        raise InvalidInterval(f"need at least one probe point, got n={n!r}")
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
    if n_probe < 2:
        raise InvalidInterval(f"need at least two probe points, got {n_probe!r}")
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
