"""Randomized property suites for the structural behavior of the means.

Each suite draws seeded random interval sets against the measure catalog and
checks one structural claim: internality, strict internality, monotonicity
under disjoint unions, the weighted decomposition identity, continuity along
descending chains, and continuity in the symmetric-difference pseudo-metric
on a bounded window (including the classic counterexample on an unbounded
one, which the ``dmu-continuity`` suite checks last).  ``run_suites`` is the
one harness and the one entry point: it checks the suite names, seeds the
generator of the suite at position ``i`` with ``seed + 101 i``, makes the
``SuiteResult`` and hands both to the suite's body in ``ALL_SUITES``, which
only draws and records.  The command-line ``verify`` subcommand and the
acceptance tests both run these.
"""

from __future__ import annotations

import random

from .errors import EmptySet, InvalidInterval, UnknownMeasure
from .intervals import IntervalSet, normalize
from .means import (
    avg,
    cantor_probe,
    certify_leq,
    decompose_check,
    mean,
    monotonicity_probe,
    pseudo_metric,
    random_interval_union,
)
from .measures import _check_count, catalog

_WINDOWS = {
    "lebesgue": (-50.0, 50.0),
    "exponential": (-5.0, 5.0),
    "geometric": (0.1, 100.0),
    "harmonic": (0.1, 100.0),
    "logarithmic": (0.1, 100.0),
    "square": (0.1, 100.0),
}

_POOL = tuple(_WINDOWS)


class SuiteResult:
    """One suite's name, case count and first few failure witnesses."""

    __slots__ = ("name", "cases", "failures")

    def __init__(self, name: str, cases: int):
        self.name = name
        self.cases = cases
        self.failures = []

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, witness) -> None:
        if len(self.failures) < 5:
            self.failures.append(witness)
        else:
            self.failures[-1] = "... more failures suppressed"


def _pick(rng: random.Random):
    name = rng.choice(_POOL)
    return catalog(name), _WINDOWS[name]


def _disjoint_sample(rng, window, exclude: IntervalSet,
                     max_intervals: int = 3) -> IntervalSet:
    for _ in range(50):
        H = random_interval_union(rng, window, max_intervals=max_intervals)
        H = H.subtract(exclude)
        if not H.is_empty:
            return H
    raise EmptySet("could not sample a disjoint set")


def _internality(out: SuiteResult, rng) -> None:
    for _ in range(out.cases):
        spec, window = _pick(rng)
        H = random_interval_union(rng, window, max_intervals=4)
        v = mean(spec, H).value
        tol = 1e-12 * (1.0 + abs(H.infimum()) + abs(H.supremum()))
        if not (H.infimum() - tol <= v <= H.supremum() + tol):
            out.record({"measure": spec.name, "set": H, "mean": v})


def _strict_internality(out: SuiteResult, rng) -> None:
    for _ in range(out.cases):
        spec, window = _pick(rng)
        H = random_interval_union(rng, window, max_intervals=4, min_intervals=2)
        v = mean(spec, H).value
        if not (H.infimum() < v < H.supremum()):
            out.record({"measure": spec.name, "set": H, "mean": v})


def _disjoint_monotone(out: SuiteResult, rng) -> None:
    for _ in range(out.cases):
        spec, window = _pick(rng)
        A = random_interval_union(rng, window, max_intervals=3)
        B = _disjoint_sample(rng, window, A)
        C = _disjoint_sample(rng, window, B)
        report = monotonicity_probe(spec, A, B, C)
        if not report.disjoint_pass:
            out.record({"measure": spec.name, "values": report.values})


def _union_monotone(out: SuiteResult, rng) -> None:
    for _ in range(out.cases):
        spec, window = _pick(rng)
        lo, hi = window
        third = (hi - lo) / 3.0
        flip = rng.random() < 0.5
        # put A on one side and B, C on the other so the hypothesis holds
        # strictly (both adjunctions move the mean the same way)
        a_win = (lo + 2.0 * third, hi) if flip else (lo, lo + third)
        bc_win = (lo, lo + third) if flip else (lo + 2.0 * third, hi)
        A = random_interval_union(rng, a_win, max_intervals=2)
        B = random_interval_union(rng, bc_win, max_intervals=2)
        C = _disjoint_sample(rng, bc_win, B, max_intervals=2)
        report = monotonicity_probe(spec, A, B, C)
        if report.union_vacuous or not report.union_pass \
                or report.strict_pass is not True:
            out.record({"measure": spec.name, "values": report.values,
                        "vacuous": report.union_vacuous,
                        "strict": report.strict_pass})


def _decomposition(out: SuiteResult, rng) -> None:
    for _ in range(out.cases):
        spec, window = _pick(rng)
        k = rng.randint(2, 4)
        H = random_interval_union(rng, window, max_intervals=2 * k, min_intervals=k)
        buckets = [[] for _ in range(k)]
        for idx, pair in enumerate(H.intervals):
            buckets[idx % k].append(pair)
        parts = [IntervalSet(tuple(b)) for b in buckets if b]
        residual = decompose_check(spec, parts)
        bound = 1e-9 * (1.0 + abs(mean(spec, H).value))
        if residual > bound:
            out.record({"measure": spec.name, "residual": residual, "set": H})


def _cantor(out: SuiteResult, rng) -> None:
    """The mean gap of ``base | J`` to ``base`` falls monotonically as the bump
    ``J`` halves, is exactly 0 at ``base``, and is at most ``mu(J) / mu(base)``
    times the hull's width, as a disjoint union weighs its parts' means by mass.
    """
    for _ in range(out.cases):
        spec, window = _pick(rng)
        lo, hi = window
        span = hi - lo
        base = random_interval_union(rng, (lo, lo + 0.6 * span), max_intervals=3)
        c = base.supremum() + 0.05 * span
        width = 0.2 * span
        bumps = [normalize([(c, c + width * 0.5 ** i)]) for i in range(15)]
        gaps = cantor_probe(spec, [base.union(J) for J in bumps] + [base])
        report = mean(spec, base)  # its mass is mu(base), bit for bit
        scale = 1.0 + abs(report.value)
        reach = (c + width - base.infimum()) / report.mass
        ok = gaps[-1] == 0.0
        for i, J in enumerate(bumps):
            if gaps[i] > spec.mu(J) * reach * (1.0 + 1e-9) + 1e-12 * scale:
                ok = False
            if gaps[i + 1] > gaps[i] + 1e-13 * scale:
                ok = False
        if not ok:
            out.record({"measure": spec.name, "gaps": gaps[:4] + gaps[-2:]})


def _dmu_continuity(out: SuiteResult, rng) -> None:
    """Shrinking the symmetric difference shrinks the mean gap, monotonically.

    On a bounded window the mean is Lipschitz in the pseudo-metric once the
    perturbation is smaller than half the base mass:
    ``|delta mean| <= 5 max|x| d / mu(base)``.  The suite checks that linear
    bound together with monotone decay of both the metric and the gap, then
    that the centroid still jumps on the unbounded-window counterexample.
    """
    depth = 18  # halvings of the bump
    for _ in range(out.cases):
        spec, window = _pick(rng)
        lo, hi = window
        span = hi - lo
        absmax = max(abs(lo), abs(hi))
        base = random_interval_union(rng, (lo, lo + 0.6 * span), max_intervals=3)
        c = lo + 0.75 * span
        report0 = mean(spec, base)
        m0, base_mass = report0.value, report0.mass
        scale = 1.0 + abs(m0)
        # start the ladder at a bump no heavier than the base, so the
        # halvings reach the Lipschitz regime of the bounded-window lemma
        width = 0.2 * span
        for _ in range(200):
            if spec.mu(normalize([(c, c + width)])) <= base_mass:
                break
            width *= 0.5
        deltas = []
        metrics = []
        for karg in range(depth):
            P = base.union(normalize([(c, c + width * 0.5 ** karg)]))
            deltas.append(abs(mean(spec, P).value - m0))
            metrics.append(pseudo_metric(spec, base, P))
        ok = metrics[-1] < 0.5 * base_mass  # the final step must be in regime
        for i in range(depth):
            if metrics[i] < 0.5 * base_mass:
                lipschitz = 5.0 * absmax * metrics[i] / base_mass
                if deltas[i] > lipschitz * (1.0 + 1e-9) + 1e-12 * scale:
                    ok = False
        for i in range(depth - 1):
            if deltas[i + 1] > deltas[i] + 1e-13 * scale:
                ok = False
            if metrics[i + 1] >= metrics[i]:
                ok = False
        if not ok:
            out.record({"measure": spec.name,
                        "deltas": deltas[:3] + deltas[-2:],
                        "metrics": metrics[:3] + metrics[-2:]})
    probe = counterexample_unbounded_window()
    if not probe["jumped"]:
        out.record({"counterexample": probe})


def counterexample_unbounded_window(delta: float = 0.01) -> dict:
    """Lebesgue centroid jump under a tiny far-away perturbation.

    With H1 = [0, 1] and H2 = H1 plus a delta-length interval at 1/delta,
    the pseudo-metric distance is delta but the centroid jumps above 0.75.
    """
    try:
        positive = delta > 0.0
    except TypeError:
        positive = False
    if not positive:
        raise InvalidInterval(f"delta must be a positive number, got {delta!r}")
    leb = catalog("lebesgue")
    H1 = normalize([(0.0, 1.0)])
    H2 = H1.union(normalize([(1.0 / delta, 1.0 / delta + delta)]))
    return {
        "distance": pseudo_metric(leb, H1, H2),
        "avg_before": avg(H1),
        "avg_after": avg(H2),
        "jumped": avg(H2) > 0.75,
    }


def _am_gm(out: SuiteResult, rng) -> None:
    window = (0.1, 100.0)
    geo = catalog("geometric")
    for _ in range(out.cases):
        H = random_interval_union(rng, window, max_intervals=5)
        g = mean(geo, H).value
        a = avg(H)
        if g > a + 1e-9:
            out.record({"set": H, "geometric": g, "avg": a})
    cert = certify_leq(geo, catalog("lebesgue"), window, rng=rng)
    if not cert.certified:
        out.record({"certificate": cert.status, "witness": cert.witness})


# each body draws from ``rng`` and records into ``out``
ALL_SUITES = {
    "internality": _internality,
    "strict-strong-internality": _strict_internality,
    "disjoint-monotone": _disjoint_monotone,
    "union-monotone": _union_monotone,
    "weighted-decomposition": _decomposition,
    "cantor-continuity": _cantor,
    "dmu-continuity": _dmu_continuity,
    "am-gm": _am_gm,
}


def run_suites(names=None, cases: int = 500, seed: int = 0) -> list[SuiteResult]:
    """Run the named suites (all by default), each on its own generator.

    The suite at position ``i`` of ``names`` draws from a generator seeded
    with ``seed + 101 i``, so one suite run alone reproduces its part of a
    larger run when given that seed.
    """
    try:
        chosen = list(ALL_SUITES) if names is None else list(names)
    except TypeError:  # not an iterable of names
        chosen = [names]
    if not chosen:
        raise UnknownMeasure(f"no suite named; choose from {', '.join(ALL_SUITES)}")
    for name in chosen:
        if not (isinstance(name, str) and name in ALL_SUITES):
            raise UnknownMeasure(
                f"unknown suite {name!r}; choose from {', '.join(ALL_SUITES)}"
            )
    cases = _check_count(cases, "cases", least=1)
    seed = _check_count(seed, "seed")
    results = []
    for i, name in enumerate(chosen):
        out = SuiteResult(name, cases)
        ALL_SUITES[name](out, random.Random(seed + 101 * i))
        results.append(out)
    return results
