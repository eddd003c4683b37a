"""Borel measures on an interval of the real line, given by densities.

A :class:`MeasureSpec` bundles a strictly positive density ``w`` with an
optional increasing primitive ``f`` (so that the measure of ``[a, b]`` is
``f(b) - f(a)``) and an optional second primitive ``F`` with ``F' = f``.
:meth:`MeasureSpec.integrate` takes a set's mass and first moment in one
pass, along a path each spec chooses once from its own fields when it is
made: a catalog entry whose primitives are its own sums the set in one call
of its kernel; without both primitives, adaptive quadrature of ``w`` takes
both sums, its mass and moment passes sharing one evaluation of ``w`` per
node; a built measure whose primitives are its ``construction``'s own takes
``f`` and ``F`` from one pass per endpoint; any other spec calls each
primitive once per endpoint.  :meth:`MeasureSpec.mu` takes the same pass
without the moment.

The catalog holds the measures generating the classical two-argument means
(arithmetic, geometric, harmonic, logarithmic, and the ``x^2`` / ``e^x``
examples).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from .errors import DomainError, InvalidInterval, UnknownMeasure, WidthOverflow
from .intervals import IntervalSet, normalize
from .quadrature import PanelSums, _meets, quad

_EPS = 2.0 ** -50  # a couple of ulps, for rounding-error propagation
_E2 = math.e ** 2
_SHAPES = ("increasing", "decreasing")  # the declared density shapes


@dataclass(frozen=True)
class MeasureSpec:
    """A measure with density ``density`` on the open interval ``domain``.

    ``density_shape`` declares a weakly monotone density only as "increasing"
    (a constant counts) or "decreasing"; any other value, "none" by default,
    declares nothing.  ``means.m_bound`` and :func:`density_ratio_increasing`
    sample one grid, :func:`_linspace`.  ``construction`` carries the
    ``construct.ConstructedMeasure`` a built measure came from: set integrals
    take its one pass per endpoint while ``cdf`` and ``antiderivative`` are
    its own, and call them for any other construction.

    ``__post_init__`` chooses the set-sum path once from these fields; a
    ``dataclasses.replace`` copy chooses its own.  A sum past double range
    raises DomainError, the OverflowError or ZeroDivisionError its cause.
    """

    name: str
    domain: tuple[float, float]
    density: Callable[[float], float]
    cdf: Optional[Callable[[float], float]] = None
    antiderivative: Optional[Callable[[float], float]] = None
    density_shape: str = "none"
    construction: object = field(default=None, compare=False, repr=False)
    factor = 1.0  # multiplies set sums; a class constant, not a field

    def __post_init__(self) -> None:
        f, F = self.cdf, self.antiderivative
        kernel = _KERNELS.get(id(f))
        if kernel is not None and kernel[0] is f and kernel[1] is F:
            sums = kernel[2]  # a catalog entry's own primitives
        elif f is None or F is None:
            sums = _quadrature_sums(self.density)
        else:  # the construction's pass while the primitives are its own
            cm = self.construction
            own = f == getattr(cm, "f", None) and F == getattr(cm, "F", None)
            sums = _closed_form_sums(f, F, cm if own else None)
        object.__setattr__(self, "_sums", sums)

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
        pairs = H.intervals
        if pairs and not (pairs[0][0] > self.domain[0]
                          and pairs[-1][1] < self.domain[1]):
            self.require_domain(H)  # raises
        try:
            sums = self._sums(pairs, with_moment)
        except WidthOverflow as exc:
            raise DomainError(f"mass or first moment of {self.name!r} overflows "
                              f"double precision on this set: {exc}") from exc
        except (OverflowError, ZeroDivisionError) as exc:
            # a primitive past double range: 1 / (x * x) divides by an
            # underflowed 0 where it would overflow
            raise _overflow(self.name) from exc
        if not (math.isfinite(sums[0]) and math.isfinite(sums[2])):
            raise _overflow(self.name)
        return sums

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
            raise _overflow(self.name)
        return out


def _overflow(name: str) -> DomainError:
    return DomainError(f"mass or first moment of {name!r} "
                       "overflows double precision on this set")


# -- set-sum paths -------------------------------------------------------------

# A spec's ``_sums(pairs, with_moment) -> (mass, mass_err, moment,
# moment_err)`` is one of these or a catalog kernel; the moment and its error
# stay 0 unless asked for.


def _quadrature_sums(density):
    """Adaptive quadrature of ``density``, one ``quad`` call per interval."""
    def sums(pairs, with_moment):
        mass = mass_err = moment = moment_err = 0.0
        # one panel table for the set: the passes of an interval share it
        table = PanelSums(density)
        mass_pass, moment_pass = table.mass, table.moment
        for lo, hi in pairs:
            value, err, _ = quad(mass_pass, lo, hi)
            mass += value
            # plus the rounding quad misses, as in the moment pass
            mass_err += err + _EPS * abs(value)
            if with_moment:
                # the mass pass built [lo, hi]'s row: a first panel of x w
                # that meets quad's default test is what quad returns, with
                # no evaluation
                m, m_err, _ = moment_pass.panel(lo, hi)
                if not _meets(m, m_err):
                    m, m_err, _ = quad(moment_pass, lo, hi)
                moment += m
                # plus the rounding quad misses where x w(x) cancels
                moment_err += m_err + _EPS * max(abs(lo), abs(hi)) * value
        return mass, mass_err, moment, moment_err
    return sums


def _closed_form_sums(f, F, cm):
    """Closed forms from the primitives, each called once per endpoint, or,
    while ``cm`` is the built measure they belong to, from its one pass per
    endpoint, which gives both."""
    def sums(pairs, with_moment):
        mass = mass_err = moment = moment_err = 0.0
        # read per set, so that a wrapper put on the instance later is seen
        at = None if cm is None else cm._eval
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
        return mass, mass_err, moment, moment_err
    return sums


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


def _linspace(a: float, b: float, n: int) -> list:
    """``n`` evenly spaced points from ``a`` to ``b``, both ends exact, all
    in ``[a, b]``: a width past double range is stepped on the halved ends."""
    step = (b - a) / (n - 1)
    if not math.isfinite(step):
        return [2.0 * x for x in _linspace(a / 2, b / 2, n)]
    return [a + i * step for i in range(n - 1)] + [b]


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
    a density shape, "increasing" or "decreasing"; otherwise a clean grid of
    ``_linspace(lo, hi, n_probe)`` is "inconclusive".  A decrease on the grid
    refutes with the witness pair.
    """
    [(a, b)] = box = numer.require_window(interval)
    denom.require_domain(box)
    xs = _linspace(a, b, _check_count(n_probe, "n_probe", least=2))
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
    if numer.density_shape in _SHAPES and denom.density_shape in _SHAPES:
        return RatioCertificate("certified")
    return RatioCertificate("inconclusive")


# -- catalog -----------------------------------------------------------------

# Set kernels: ``(pairs, with_moment) -> (mass, mass_err, moment, moment_err)``
# of one catalog entry, in one call per set.  Each repeats its entry's
# primitives and ``_integrate``'s sums operation for operation, in the same
# order, so its results and exceptions are the primitives' bit for bit.  It
# takes a shared value once (an endpoint's sqrt, log or exp, and x f(x)), and
# leaves ``abs`` off squares and exponentials, which are +0.0 or more.


def _lebesgue_sums(pairs, with_moment):
    mass = mass_err = moment = moment_err = 0.0
    for lo, hi in pairs:
        mass += hi - lo
        mass_err += _EPS * (abs(hi) + abs(lo))
        if with_moment:
            xlo, xhi = lo * lo, hi * hi
            Flo, Fhi = 0.5 * lo * lo, 0.5 * hi * hi
            moment += xhi - xlo - (Fhi - Flo)
            moment_err += _EPS * (xhi + xlo + Fhi + Flo)
    return mass, mass_err, moment, moment_err


def _geometric_sums(pairs, with_moment):
    mass = mass_err = moment = moment_err = 0.0
    sqrt = math.sqrt
    for lo, hi in pairs:
        rlo, rhi = sqrt(lo), sqrt(hi)
        flo = (1.0 - 1.0 / rlo) / _E2
        fhi = (1.0 - 1.0 / rhi) / _E2
        mass += fhi - flo
        mass_err += _EPS * (abs(fhi) + abs(flo))
        if with_moment:
            xlo, xhi = lo * flo, hi * fhi
            Flo = (rlo - 1.0) ** 2 / _E2
            Fhi = (rhi - 1.0) ** 2 / _E2
            moment += xhi - xlo - (Fhi - Flo)
            moment_err += _EPS * (abs(xhi) + abs(xlo) + Fhi + Flo)
    return mass, mass_err, moment, moment_err


def _harmonic_sums(pairs, with_moment):
    mass = mass_err = moment = moment_err = 0.0
    for lo, hi in pairs:
        flo = 1.0 - 1.0 / (lo * lo)
        fhi = 1.0 - 1.0 / (hi * hi)
        mass += fhi - flo
        mass_err += _EPS * (abs(fhi) + abs(flo))
        if with_moment:
            xlo, xhi = lo * flo, hi * fhi
            Flo = lo - 2.0 + 1.0 / lo
            Fhi = hi - 2.0 + 1.0 / hi
            moment += xhi - xlo - (Fhi - Flo)
            moment_err += _EPS * (abs(xhi) + abs(xlo) + abs(Fhi) + abs(Flo))
    return mass, mass_err, moment, moment_err


def _logarithmic_sums(pairs, with_moment):
    mass = mass_err = moment = moment_err = 0.0
    log = math.log
    for lo, hi in pairs:
        flo, fhi = log(lo), log(hi)
        mass += fhi - flo
        mass_err += _EPS * (abs(fhi) + abs(flo))
        if with_moment:
            xlo, xhi = lo * flo, hi * fhi
            Flo, Fhi = xlo - lo + 1.0, xhi - hi + 1.0
            moment += xhi - xlo - (Fhi - Flo)
            moment_err += _EPS * (abs(xhi) + abs(xlo) + abs(Fhi) + abs(Flo))
    return mass, mass_err, moment, moment_err


def _square_sums(pairs, with_moment):
    mass = mass_err = moment = moment_err = 0.0
    for lo, hi in pairs:
        flo, fhi = lo * lo, hi * hi
        mass += fhi - flo
        mass_err += _EPS * (fhi + flo)
        if with_moment:
            xlo, xhi = lo * flo, hi * fhi
            Flo = lo ** 3 / 3.0  # ``**`` raises OverflowError where ``*`` gives inf
            Fhi = hi ** 3 / 3.0
            moment += xhi - xlo - (Fhi - Flo)
            moment_err += _EPS * (xhi + xlo + Fhi + Flo)
    return mass, mass_err, moment, moment_err


def _exponential_sums(pairs, with_moment):
    mass = mass_err = moment = moment_err = 0.0
    exp = math.exp
    for lo, hi in pairs:
        flo, fhi = exp(lo), exp(hi)
        df = fhi - flo
        mass += df
        mass_err += _EPS * (fhi + flo)
        if with_moment:
            xlo, xhi = lo * flo, hi * fhi
            moment += xhi - xlo - df
            moment_err += _EPS * (abs(xhi) + abs(xlo) + fhi + flo)
    return mass, mass_err, moment, moment_err


# id(cdf) -> (cdf, antiderivative, kernel): a spec takes the kernel while its
# cdf and antiderivative are both the entry's own objects
_KERNELS: dict = {}


def _entry(kernel, **fields) -> MeasureSpec:
    """A catalog spec, its kernel registered first so that the spec takes it."""
    _KERNELS[id(fields["cdf"])] = (fields["cdf"], fields["antiderivative"], kernel)
    return MeasureSpec(**fields)


_CATALOG = {spec.name: spec for spec in (
    _entry(
        _lebesgue_sums,
        name="lebesgue",
        domain=(-math.inf, math.inf),
        density=lambda x: 1.0,
        cdf=lambda x: x,
        antiderivative=lambda x: 0.5 * x * x,
        density_shape="increasing",  # constant, weakly monotone
    ),
    _entry(
        _geometric_sums,
        name="geometric",
        domain=(0.0, math.inf),
        density=lambda x: 1.0 / (2.0 * _E2 * x * math.sqrt(x)),
        cdf=lambda x: (1.0 - 1.0 / math.sqrt(x)) / _E2,
        antiderivative=lambda x: (math.sqrt(x) - 1.0) ** 2 / _E2,
        density_shape="decreasing",
    ),
    _entry(
        _harmonic_sums,
        name="harmonic",
        domain=(0.0, math.inf),
        density=lambda x: 2.0 / x ** 3,
        cdf=lambda x: 1.0 - 1.0 / (x * x),
        antiderivative=lambda x: x - 2.0 + 1.0 / x,
        density_shape="decreasing",
    ),
    _entry(
        _logarithmic_sums,
        name="logarithmic",
        domain=(0.0, math.inf),
        density=lambda x: 1.0 / x,
        cdf=math.log,
        antiderivative=lambda x: x * math.log(x) - x + 1.0,
        density_shape="decreasing",
    ),
    _entry(
        _square_sums,
        name="square",
        domain=(0.0, math.inf),
        density=lambda x: 2.0 * x,
        cdf=lambda x: x * x,
        antiderivative=lambda x: x ** 3 / 3.0,
        density_shape="increasing",
    ),
    _entry(
        _exponential_sums,
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
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise UnknownMeasure(
            f"unknown measure {name!r}; choose from {', '.join(CATALOG_NAMES)}"
        ) from None
