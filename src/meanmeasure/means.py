"""Measure-weighted means of interval sets and their structural probes.

The central quantity is the measure-weighted centroid of a bounded set
(first moment over mass).  Around it this module provides the plain
Lebesgue centroid, the symmetric-difference pseudo-metric, decomposition
and continuity diagnostics, an inequality certifier between two measures,
the quasi-arithmetic comparator ``exp(Avg(log H))``, density-ratio bounds
on an interval, translation sweeps toward infinity, and the double-integral
form of the two-argument mean.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple, Optional, Sequence

from .errors import DomainError, EmptySet, InvalidInterval, NotDisjoint, NotNested
from .intervals import IntervalSet, normalize
from .measures import (
    _EPS,
    MeasureSpec,
    RatioCertificate,
    _check_count,
    density_ratio_increasing,
)
from .quadrature import PanelSums, quad


class MeanReport(NamedTuple):
    """Mean value with the mass, moment, and a propagated numeric error bound."""

    value: float
    mass: float
    moment: float
    err: float


class BoundPair(NamedTuple):
    """Infimum and supremum of mu(J)/lambda(J) over subintervals J of an interval.

    ``exact`` is True when the bounds come from density endpoint limits of a
    monotone density; grid estimates for unknown shapes bracket the true
    values from inside.
    """

    m: float
    M: float
    exact: bool


class SweepRow(NamedTuple):
    x: float
    mean: float
    avg: float
    abs_diff: float
    ratio_bound: float


def mean(spec: MeasureSpec, H: IntervalSet) -> MeanReport:
    """Measure-weighted centroid of ``H``: first moment over mass.

    A scaled measure reports its base measure's value and error bound, bit
    for bit, with the mass and moment multiplied by the factor.
    """
    if not H.intervals:
        raise EmptySet("mean of the empty set is undefined")
    mass, mass_err, moment, moment_err = spec._integrate(H, True)
    if not (mass > 0.0):
        raise DomainError(f"measure {spec.name!r} gave non-positive mass {mass!r}")
    value = moment / mass
    err = (moment_err + abs(value) * mass_err) / mass + 4.0 * _EPS * abs(value)
    return MeanReport(value, *spec._scaled(mass, moment), err)


def ordinary(spec: MeasureSpec, a: float, b: float) -> float:
    """The two-argument mean derived from the measure: mean of ``[a, b]``."""
    return mean(spec, spec.require_window((a, b))).value


def avg(H: IntervalSet) -> float:
    """Lebesgue-weighted centroid of ``H`` (closed form)."""
    if H.is_empty:
        raise EmptySet("avg of the empty set is undefined")
    # (hi - lo) (hi + lo) does not cancel far from the origin, as hi^2 - lo^2 does
    moment = math.fsum((hi - lo) * (hi + lo) for lo, hi in H) * 0.5
    return moment / H.lebesgue()


def pseudo_metric(spec: MeasureSpec, A: IntervalSet, B: IntervalSet) -> float:
    """Measure of the symmetric difference of two sets."""
    spec.require_domain(A)
    spec.require_domain(B)
    return spec.mu(A.symdiff(B))


def decompose_check(spec: MeasureSpec, parts: Sequence[IntervalSet]) -> float:
    """Residual of the weighted-decomposition identity over disjoint parts.

    Returns ``|mean(union) - sum(mu_i * mean_i) / sum(mu_i)|``.
    """
    parts = list(parts)
    if not parts:
        raise EmptySet("decompose_check needs at least one part")
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if not parts[i].is_disjoint_from(parts[j]):
                raise NotDisjoint(f"parts {i} and {j} overlap")
    whole = IntervalSet()
    for p in parts:
        whole = whole.union(p)
    reports = [mean(spec, p) for p in parts]
    weighted = math.fsum(r.mass * r.value for r in reports) / math.fsum(
        r.mass for r in reports
    )
    return abs(mean(spec, whole).value - weighted)


def cantor_probe(spec: MeasureSpec, chain: Sequence[IntervalSet]) -> list[float]:
    """Mean gaps along a descending chain, relative to the chain's last set."""
    chain = list(chain)
    if not chain:
        raise EmptySet("empty chain")
    for i in range(len(chain) - 1):
        if not chain[i + 1].is_subset_of(chain[i]):
            raise NotNested(f"chain element {i + 1} is not contained in element {i}")
    last = mean(spec, chain[-1]).value
    return [abs(mean(spec, H).value - last) for H in chain]


class MonotonicityReport(NamedTuple):
    values: dict  # means keyed "A", "B", "A|B", "A|C", "A|B|C"
    disjoint_pass: bool
    union_pass: bool
    union_vacuous: bool
    strict_pass: Optional[bool]  # None when no strict hypothesis applied

    @property
    def passed(self) -> bool:
        return self.disjoint_pass and self.union_pass and self.strict_pass is not False


def monotonicity_probe(spec: MeasureSpec, A: IntervalSet, B: IntervalSet,
                       C: IntervalSet) -> MonotonicityReport:
    """Check order compatibility of the mean under disjoint unions.

    Two implications are exercised: for disjoint ``A, B`` the mean of the
    union lies between the two means; and if adjoining ``B`` and adjoining
    ``C`` (disjoint from each other) both move the mean of ``A`` the same
    way, adjoining both moves it that way too, strictly so when one of the
    hypotheses is strict.
    """
    if not A.is_disjoint_from(B):
        raise NotDisjoint("A and B overlap")
    if not B.is_disjoint_from(C):
        raise NotDisjoint("B and C overlap")

    m_a = mean(spec, A).value
    m_b = mean(spec, B).value
    AB = A.union(B)
    m_ab = mean(spec, AB).value
    m_ac = mean(spec, A.union(C)).value
    m_abc = mean(spec, AB.union(C)).value
    values = {"A": m_a, "B": m_b, "A|B": m_ab, "A|C": m_ac, "A|B|C": m_abc}

    tol = 1e-12 * (1.0 + max(abs(v) for v in values.values()))
    lo_v, hi_v = sorted((m_a, m_b))
    disjoint_pass = (lo_v - tol) <= m_ab <= (hi_v + tol)

    up = m_a <= m_ab + tol and m_a <= m_ac + tol
    down = m_ab <= m_a + tol and m_ac <= m_a + tol
    union_vacuous = not (up or down)
    union_pass = True
    strict_pass: Optional[bool] = None
    strict_margin = 1e-9 * (1.0 + abs(m_a))
    if up:
        union_pass = m_a <= m_abc + tol
        if m_ab > m_a + strict_margin or m_ac > m_a + strict_margin:
            strict_pass = m_abc > m_a
    if down and union_pass:
        union_pass = m_abc <= m_a + tol
        if m_ab < m_a - strict_margin or m_ac < m_a - strict_margin:
            strict_pass = m_abc < m_a
    return MonotonicityReport(values, disjoint_pass, union_pass,
                              union_vacuous, strict_pass)


class LeqCertificate(NamedTuple):
    """Outcome of comparing two measures' means across a window."""

    status: str  # "certified" | "refuted" | "inconclusive"
    witness: object = None
    ratio: Optional[RatioCertificate] = None

    @property
    def certified(self) -> bool:
        return self.status == "certified"


def random_interval_union(rng: random.Random, window: tuple[float, float],
                          max_intervals: int = 5,
                          min_intervals: int = 1) -> IntervalSet:
    """Random disjoint union of min_intervals..max_intervals intervals inside
    the finite ``window``."""
    lo, hi = window
    # a finite width also makes both ends finite
    if not (lo < hi and math.isfinite(hi - lo)):
        raise InvalidInterval(
            f"window needs lo < hi and a finite width, got {window!r}")
    min_intervals = _check_count(min_intervals, "min_intervals", least=1)
    max_intervals = _check_count(max_intervals, "max_intervals",
                                 least=min_intervals)
    while True:
        k = rng.randint(min_intervals, max_intervals)
        pts = sorted(rng.uniform(lo, hi) for _ in range(2 * k))
        H = normalize([(pts[2 * i], pts[2 * i + 1]) for i in range(k)])
        if not H.is_empty:
            return H


def certify_leq(mu_spec: MeasureSpec, nu_spec: MeasureSpec,
                window: tuple[float, float], n_probe: int = 200,
                n_random: int = 500, rng=None) -> LeqCertificate:
    """Certify mean-by-mu <= mean-by-nu on every interval union in the window.

    Certification needs (a) the two-argument means ordered on random
    subintervals and (b) the density ratio nu/mu nondecreasing; the verdict
    is then validated on random interval unions.  Any violation beyond 1e-9
    refutes with a witness; a clean run with an inconclusive ratio check
    stays inconclusive.  ``rng`` is a ``random.Random``, a non-negative
    integer seed, or None for a fresh seed.
    """
    n_probe = _check_count(n_probe, "n_probe")
    n_random = _check_count(n_random, "n_random")
    if not isinstance(rng, random.Random):
        rng = random.Random(None if rng is None else _check_count(rng, "seed"))
    [(lo, hi)] = box = mu_spec.require_window(window)
    nu_spec.require_domain(box)

    for _ in range(n_probe):
        a, b = sorted((rng.uniform(lo, hi), rng.uniform(lo, hi)))
        if b - a < 1e-9 * (hi - lo):
            continue
        k_mu = ordinary(mu_spec, a, b)
        k_nu = ordinary(nu_spec, a, b)
        if k_mu > k_nu + 1e-9:
            return LeqCertificate(
                "refuted",
                witness={"interval": (a, b),
                         "mean_mu": k_mu, "mean_nu": k_nu},
            )

    ratio = density_ratio_increasing(nu_spec, mu_spec, (lo, hi),
                                     n_probe=max(n_probe, 128))

    for _ in range(n_random):
        H = random_interval_union(rng, (lo, hi))
        v_mu = mean(mu_spec, H).value
        v_nu = mean(nu_spec, H).value
        if v_mu > v_nu + 1e-9:
            return LeqCertificate(
                "refuted",
                witness={"set": H, "mean_mu": v_mu, "mean_nu": v_nu},
                ratio=ratio,
            )

    if ratio.certified:
        return LeqCertificate("certified", ratio=ratio)
    return LeqCertificate("inconclusive", witness=ratio.witness, ratio=ratio)


def exp_avg_log(H: IntervalSet) -> float:
    """exp of the Lebesgue centroid of the log image of ``H``."""
    if H.is_empty:
        raise EmptySet("exp_avg_log of the empty set is undefined")
    if H.infimum() <= 0.0:
        raise DomainError("exp_avg_log needs a set of positive numbers")
    mapped = normalize([(math.log(lo), math.log(hi)) for lo, hi in H])
    return math.exp(avg(mapped))


def m_bound(spec: MeasureSpec, interval: tuple[float, float]) -> BoundPair:
    """Bounds on mu(J)/lambda(J) over subintervals J of ``interval``.

    For a declared monotone density the infimum and supremum are the density
    limits at the interval's ends (exact).  Otherwise a refining family of
    uniform subintervals, 1 to 64 pieces, gives inner estimates.
    """
    [(lo, hi)] = spec.require_window(interval)
    try:
        if spec.density_shape == "decreasing":
            return BoundPair(m=spec.density(hi), M=spec.density(lo), exact=True)
        if spec.density_shape == "increasing":
            return BoundPair(m=spec.density(lo), M=spec.density(hi), exact=True)
    except (OverflowError, ZeroDivisionError):
        raise DomainError(f"density of {spec.name!r} leaves double range "
                          f"on {interval!r}") from None
    m_est = math.inf
    M_est = -math.inf
    for k in range(7):
        step = (hi - lo) / 2 ** k
        edges = [lo + j * step for j in range(2 ** k)] + [hi]
        for j in range(len(edges) - 1):
            piece = normalize([(edges[j], edges[j + 1])])
            r = spec.mu(piece) / piece.lebesgue()
            m_est = min(m_est, r)
            M_est = max(M_est, r)
    return BoundPair(m=m_est, M=M_est, exact=False)


def infinity_sweep(spec: MeasureSpec, H: IntervalSet,
                   shifts: Sequence[float]) -> list[SweepRow]:
    """Mean vs. Lebesgue centroid of ``H + x`` for each shift, with the
    density-ratio bound of the enclosing interval.  Rows are ordered by shift.
    """
    if H.is_empty:
        raise EmptySet("sweep of the empty set is undefined")
    lo, hi = H.infimum(), H.supremum()
    try:
        shifts = sorted(float(s) for s in shifts)
    except (TypeError, ValueError):
        raise InvalidInterval(f"shifts must be real numbers, got {shifts!r}") from None
    rows = []
    for x in shifts:
        Hx = H.translate(x)
        v = mean(spec, Hx).value
        a = avg(Hx)
        bounds = m_bound(spec, (lo + x, hi + x))
        rows.append(SweepRow(x=x, mean=v, avg=a, abs_diff=abs(v - a),
                             ratio_bound=bounds.M / bounds.m))
    return rows


_DIM_TOL = 1e-8  # the double integral's target; its passes take fixed fractions


def double_integral_mean(spec: MeasureSpec, a: float, b: float) -> float:
    """Two-argument mean via the symmetric double integral of (x+y)/2.

    Evaluates the double integral by iterated adaptive quadrature of the
    density (an independent route; no antiderivatives are consulted) and
    divides by the squared mass of ``[a, b]``.  The mass pass, every inner
    pass and the outer pass read one
    :class:`~meanmeasure.quadrature.PanelSums` table over ``[a, b]``: an
    inner panel at ``y`` is ``(K1 + y K0) / 2`` from the table's Kronrod sums
    of ``x w`` and ``w``, with the Gauss sums giving its error, and the outer
    pass takes ``w(y)`` at its nodes from the table.  Each inner integral is
    still refined on its own to its own tolerance; it is not replaced by the
    single-integral mean.
    """
    [(a, b)] = spec.require_window((a, b))
    table = PanelSums(spec.density)

    def inner(y: float) -> float:
        return quad(table.inner(y), a, b, abs_tol=_DIM_TOL * 1e-3,
                    rel_tol=1e-10).value

    try:
        mass = quad(table.mass, a, b, abs_tol=_DIM_TOL * 1e-3, rel_tol=1e-10).value
        outer = quad(table.outer(inner), a, b, abs_tol=_DIM_TOL * 1e-2,
                     rel_tol=1e-9)
        return outer.value / (mass * mass)
    except (OverflowError, ZeroDivisionError):
        # a density or a sum past double range, or a squared mass underflowed
        raise DomainError(f"double integral of {spec.name!r} on ({a!r}, {b!r}) "
                          "overflows double precision") from None
