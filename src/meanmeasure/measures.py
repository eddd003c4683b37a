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
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from .errors import DomainError, InvalidInterval, UnknownMeasure
from .intervals import IntervalSet, normalize
from .quadrature import PanelSums, quad

_EPS = 2.0 ** -50  # a couple of ulps, for rounding-error propagation
_E2 = math.e ** 2


@dataclass(frozen=True)
class MeasureSpec:
    """A measure with density ``density`` on the open interval ``domain``.

    ``density_shape`` declares weak monotonicity of the density ("increasing",
    "decreasing", or "none" when unknown); a constant density counts as weakly
    increasing.  ``construction`` carries the ``construct.ConstructedMeasure``
    a built measure came from, and nothing else; set integrals take its one
    pass per endpoint while ``cdf`` and ``antiderivative`` are its own.
    """

    name: str
    domain: tuple[float, float]
    density: Callable[[float], float]
    cdf: Optional[Callable[[float], float]] = None
    antiderivative: Optional[Callable[[float], float]] = None
    density_shape: str = "none"
    construction: object = field(default=None, compare=False, repr=False)
    factor = 1.0  # multiplies set sums; a class constant, not a field

    # -- domain handling --------------------------------------------------

    def require_window(self, window) -> IntervalSet:
        """``window`` as a set: InvalidInterval unless it is a pair of finite
        numbers ``lo < hi``, DomainError unless it lies in the domain."""
        H = normalize([window])
        if H.is_empty:
            raise InvalidInterval(f"window must satisfy lo < hi, got {window!r}")
        self.require_domain(H)
        return H

    def require_domain(self, H: IntervalSet) -> None:
        pairs = H.intervals
        if pairs and not (pairs[0][0] > self.domain[0]
                          and pairs[-1][1] < self.domain[1]):
            raise DomainError(
                f"set within [{H.infimum()!r}, {H.supremum()!r}] exceeds the "
                f"domain {self.domain!r} of measure {self.name!r}"
            )

    # -- evaluation --------------------------------------------------------

    def mu(self, H: IntervalSet) -> float:
        """Measure of a finite interval union."""
        return self._scaled(self._integrate(H, False)[0])[0]

    def first_moment(self, H: IntervalSet) -> float:
        """Integral of the identity over ``H`` against this measure."""
        return self.integrate(H)[2]

    def integrate(self, H: IntervalSet) -> tuple[float, float, float, float]:
        """Mass and first moment of ``H``, each with a propagated error bound.

        Returns ``(mass, mass_err, moment, moment_err)``.  With both
        primitives each endpoint's ``f`` and ``F`` are evaluated once;
        otherwise both sums come from quadrature of the density.
        """
        return self._scaled(*self._integrate(H, True))

    def _integrate(self, H: IntervalSet,
                   with_moment: bool) -> tuple[float, float, float, float]:
        # the moment and its error stay 0 unless asked for; the path is
        # chosen once per set: quadrature, or closed forms that take each
        # endpoint's f and F from a construction's one pass or the primitives
        pairs = H.intervals
        if pairs and not (pairs[0][0] > self.domain[0]
                          and pairs[-1][1] < self.domain[1]):
            self.require_domain(H)  # raises
        mass = mass_err = moment = moment_err = 0.0
        f, F = self.cdf, self.antiderivative
        cm = self.construction
        try:
            if f is None or F is None:
                # one panel table for the set: the passes of an interval share it
                table = PanelSums(self.density)
                for lo, hi in pairs:
                    r = quad(table.mass, lo, hi)
                    mass += r.value
                    # plus the rounding quad misses, as in the moment pass
                    mass_err += r.error_estimate + _EPS * abs(r.value)
                    if with_moment:
                        m = quad(table.moment, lo, hi)
                        moment += m.value
                        # plus the rounding quad misses where x w(x) cancels
                        moment_err += (m.error_estimate
                                       + _EPS * max(abs(lo), abs(hi)) * r.value)
            else:
                # one pass per endpoint gives a construction's own f and F
                at = (cm._eval if cm is not None and f == cm.f and F == cm.F
                      else None)
                for lo, hi in pairs:
                    if at is not None:
                        (flo, Flo, _, _), (fhi, Fhi, _, _) = at(lo), at(hi)
                    else:
                        flo, fhi = f(lo), f(hi)
                    mass += fhi - flo
                    mass_err += _EPS * (abs(fhi) + abs(flo))
                    if with_moment:
                        if at is None:
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

    def _scaled(self, *sums: float) -> tuple[float, ...]:
        """Set sums times the factor, which is 1 here."""
        return sums

    def scaled(self, c: float) -> "MeasureSpec":
        """The same measure multiplied by a positive constant.

        The factor multiplies set masses and moments after the primitive
        differences are taken, by ``mu``, ``integrate`` and ``means.mean``
        alone, so a mean's value and error bound are the base measure's; a
        scaled sum past double range raises DomainError.  The name, domain, density shape, density and primitives derive from the
        base and the factor and cannot be replaced; to drop the primitives,
        replace them on the base, then scale.
        """
        if not (hasattr(c, "__float__") and c > 0.0 and math.isfinite(c)):
            raise DomainError(f"scale must be a positive finite number, got {c!r}")
        base = self.base if isinstance(self, _ScaledMeasure) else self
        return _ScaledMeasure(base=base, factor=c * self.factor)


@dataclass(frozen=True, kw_only=True)
class _ScaledMeasure(MeasureSpec):
    """A measure times a constant: its name, domain, density shape and
    callables derive from ``base`` and ``factor``, and set sums are the base
    measure's, unscaled."""

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
        return self.base._integrate(H, with_moment)

    def _scaled(self, *sums: float) -> tuple[float, ...]:
        out = tuple(self.factor * v for v in sums)
        if not all(map(math.isfinite, out)):
            raise DomainError(f"mass or first moment of {self.name!r} "
                              "overflows double precision on this set")
        return out


def _check_count(value, name: str, least: int = 0) -> int:
    """``value`` as an int, or :class:`InvalidInterval` unless it is an
    integer of at least ``least``."""
    try:
        n = operator.index(value)
    except TypeError:
        raise InvalidInterval(f"{name} must be an integer, got {value!r}") from None
    if n < least:
        bound = "non-negative" if least == 0 else f"at least {least}"
        raise InvalidInterval(f"{name} must be {bound}, got {value!r}")
    return n


# -- monotone density-ratio certificate -------------------------------------


class RatioCertificate(NamedTuple):
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
    [(a, b)] = box = numer.require_window(interval)
    denom.require_domain(box)
    n_probe = _check_count(n_probe, "n_probe", least=2)
    xs = [a + (b - a) * i / (n_probe - 1) for i in range(n_probe)]
    ratios = []
    try:
        for x in xs:
            wn = numer.density(x)
            wd = denom.density(x)
            if not (wn > 0.0 and wd > 0.0):
                raise DomainError(f"non-positive density sample at {x!r}")
            ratios.append(wn / wd)
    except (OverflowError, ZeroDivisionError):
        raise DomainError(f"density of {numer.name!r} or {denom.name!r} "
                          f"leaves double range on {interval!r}") from None
    for i in range(len(xs) - 1):
        if ratios[i + 1] < ratios[i] * (1.0 - 1e-12):
            return RatioCertificate(
                "refuted", (xs[i], xs[i + 1], ratios[i], ratios[i + 1])
            )
    if numer.density_shape == "none" or denom.density_shape == "none":
        return RatioCertificate("inconclusive")
    return RatioCertificate("certified")


# -- catalog -----------------------------------------------------------------


_CATALOG = {spec.name: spec for spec in (
    MeasureSpec(
        name="lebesgue",
        domain=(-math.inf, math.inf),
        density=lambda x: 1.0,
        cdf=lambda x: x,
        antiderivative=lambda x: 0.5 * x * x,
        density_shape="increasing",  # constant, weakly monotone
    ),
    MeasureSpec(
        name="geometric",
        domain=(0.0, math.inf),
        density=lambda x: 1.0 / (2.0 * _E2 * x * math.sqrt(x)),
        cdf=lambda x: (1.0 - 1.0 / math.sqrt(x)) / _E2,
        antiderivative=lambda x: (math.sqrt(x) - 1.0) ** 2 / _E2,
        density_shape="decreasing",
    ),
    MeasureSpec(
        name="harmonic",
        domain=(0.0, math.inf),
        density=lambda x: 2.0 / x ** 3,
        cdf=lambda x: 1.0 - 1.0 / (x * x),
        antiderivative=lambda x: x - 2.0 + 1.0 / x,
        density_shape="decreasing",
    ),
    MeasureSpec(
        name="logarithmic",
        domain=(0.0, math.inf),
        density=lambda x: 1.0 / x,
        cdf=math.log,
        antiderivative=lambda x: x * math.log(x) - x + 1.0,
        density_shape="decreasing",
    ),
    MeasureSpec(
        name="square",
        domain=(0.0, math.inf),
        density=lambda x: 2.0 * x,
        cdf=lambda x: x * x,
        antiderivative=lambda x: x ** 3 / 3.0,
        density_shape="increasing",
    ),
    MeasureSpec(
        name="exponential",
        domain=(-math.inf, math.inf),
        density=math.exp,
        cdf=math.exp,
        antiderivative=math.exp,
        density_shape="increasing",
    ),
)}

CATALOG_NAMES = tuple(_CATALOG)


def catalog(name: str) -> MeasureSpec:
    """The built-in measure of that name: one shared, frozen spec."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise UnknownMeasure(
            f"unknown measure {name!r}; choose from {', '.join(CATALOG_NAMES)}"
        ) from None
