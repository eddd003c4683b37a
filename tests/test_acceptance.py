"""Acceptance suite: the eight gate criteria, one test each.

Every criterion prints a single PASS/FAIL line (run pytest with ``-s`` or
check the captured output) and asserts at its stated tolerance.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from meanmeasure import (
    avg,
    build,
    catalog,
    certify_leq,
    double_integral_mean,
    exp_avg_log,
    infinity_sweep,
    m_bound,
    mean,
    normalize,
    ordinary,
    ordinary_mean,
    random_interval_union,
    reconstruct,
    uniqueness_check,
)
from meanmeasure.verify import counterexample_unbounded_window, run_suites

E = math.e
E2 = math.e ** 2

GRID = np.linspace(0.5, 63.5, 20)  # 20-point grid inside (0.25, 64)
PAIRS = [(float(GRID[i]), float(GRID[j]))
         for i in range(len(GRID)) for j in range(i + 1, len(GRID))]

CLOSED_FORMS = {
    "geometric": lambda a, b: math.sqrt(a * b),
    "harmonic": lambda a, b: 2.0 / (1.0 / a + 1.0 / b),
    "logarithmic": lambda a, b: (a - b) / (math.log(a) - math.log(b)),
    "square": lambda a, b: (2.0 / 3.0) * (a * a + a * b + b * b) / (a + b),
    "exponential": lambda a, b: (b * math.exp(b) - a * math.exp(a))
                                / (math.exp(b) - math.exp(a)) - 1.0,
}

CLOSED_FORM_DENSITIES = {
    "geometric": lambda x: 1.0 / (2.0 * E2 * x * math.sqrt(x)),
    "harmonic": lambda x: 2.0 / x ** 3,
    "logarithmic": lambda x: 1.0 / x,
}


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {label}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {label}")


def test_criterion_1_catalog_fidelity():
    with criterion(1, "catalog means match closed forms, rel 1e-9"):
        start = time.perf_counter()
        for name, closed in CLOSED_FORMS.items():
            spec = catalog(name)
            for a, b in PAIRS:
                want = closed(a, b)
                got = ordinary(spec, a, b)
                assert abs(got - want) <= 1e-9 * abs(want), (name, a, b)
        assert time.perf_counter() - start < 5.0


def test_criterion_2_construction_round_trip():
    with criterion(2, "build/reconstruct round trip, rel 1e-6; density rel "
                      "spread 1e-5"):
        for name in ("geometric", "harmonic", "logarithmic"):
            start = time.perf_counter()
            k = ordinary_mean(name)
            spec = build(k, (0.25, 64.0))
            for a, b in PAIRS:
                want = k(a, b)
                got = reconstruct(spec, a, b)
                assert abs(got - want) <= 1e-6 * abs(want), (name, a, b)
            wref = CLOSED_FORM_DENSITIES[name]
            ratios = [spec.density(x) / wref(x) for x in GRID]
            spread = (max(ratios) - min(ratios)) / (sum(ratios) / len(ratios))
            assert spread <= 1e-5, name
            assert time.perf_counter() - start < 30.0, name


def test_criterion_3_counterexample_reproduction():
    with criterion(3, "two-interval counterexample splits the two means by "
                      "more than 10"):
        H = normalize([(1.0, E ** 2), (E ** 4, E ** 8)])
        mean_want = (E - 1.0 + E ** 4 - E ** 2) / (1.0 - 1.0 / E + E ** -2
                                                   - E ** -4)
        mean_got = mean(catalog("geometric"), H).value
        assert abs(mean_got - mean_want) <= 1e-6 * mean_want
        eal_want = math.exp(13.0 / 3.0)
        eal_got = exp_avg_log(H)
        assert abs(eal_got - eal_want) <= 1e-6 * eal_want
        assert abs(eal_got - mean_got) > 10.0


def test_criterion_4_generalized_am_gm():
    with criterion(4, "geometric set mean never exceeds the centroid; "
                      "certificate holds"):
        start = time.perf_counter()
        rng = random.Random(2024)
        geo = catalog("geometric")
        for _ in range(1000):
            H = random_interval_union(rng, (0.1, 100.0), max_intervals=5)
            assert mean(geo, H).value <= avg(H) + 1e-9
        cert = certify_leq(geo, catalog("lebesgue"), (0.1, 100.0), rng=2024)
        assert cert.certified
        assert time.perf_counter() - start < 10.0


def test_criterion_5_structural_property_suites():
    with criterion(5, "structural suites: 500 random cases each, zero "
                      "failures"):
        results = run_suites(
            ["internality", "strict-strong-internality", "disjoint-monotone",
             "union-monotone", "weighted-decomposition", "cantor-continuity",
             "dmu-continuity"],
            cases=500, seed=7,
        )
        for r in results:
            assert r.passed, (r.name, r.failures[:1])
        probe = counterexample_unbounded_window(delta=0.01)
        assert probe["avg_before"] == 0.5
        assert probe["avg_after"] > 0.75
        assert probe["distance"] == pytest.approx(0.01, rel=1e-12)


def test_criterion_6_uniqueness_up_to_scale():
    with criterion(6, "scaling a density moves no mean value; the factor is "
                      "recovered"):
        windows = {
            "lebesgue": (-20.0, 20.0), "exponential": (-5.0, 5.0),
            "geometric": (0.25, 64.0), "harmonic": (0.25, 64.0),
            "logarithmic": (0.25, 64.0), "square": (0.25, 64.0),
        }
        rng = random.Random(99)
        for name, window in windows.items():
            spec = catalog(name)
            probes = [random_interval_union(rng, window, max_intervals=3)
                      for _ in range(8)]
            for c in (0.5, 3.0, 10.0):
                scaled = spec.scaled(c)
                for P in probes:
                    assert abs(mean(spec, P).value
                               - mean(scaled, P).value) <= 1e-12
                result = uniqueness_check(spec, scaled, probes)
                assert result.proportional, (name, c)
                assert abs(result.scale - c) <= 1e-6 * c


def test_criterion_7_asymptotics():
    with criterion(7, "density bounds follow the endpoint formulas; the "
                      "ratio and gap shrink toward infinity"):
        geo = catalog("geometric")
        for x in (0.0, 10.0, 100.0, 1000.0):
            bp = m_bound(geo, (1.0 + x, 2.0 + x))
            m_want = (2.0 + x) ** -1.5 / (2.0 * E2)
            M_want = (1.0 + x) ** -1.5 / (2.0 * E2)
            assert abs(bp.m - m_want) <= 1e-8 * m_want
            assert abs(bp.M - M_want) <= 1e-8 * M_want
        shifts = [1.0, 10.0, 100.0, 1000.0, 10000.0]
        rows = infinity_sweep(geo, normalize([(1.0, 2.0)]), shifts)
        ratios = [r.ratio_bound for r in rows]
        assert all(ratios[i + 1] < ratios[i] for i in range(len(ratios) - 1))
        assert ratios[-1] < 1.0 + 1e-3
        diffs = [r.abs_diff for r in rows]
        assert all(diffs[i + 1] < diffs[i] for i in range(len(diffs) - 1))
        at_100 = rows[2]
        # oracle: sqrt(101 * 102) vs 101.5
        assert at_100.abs_diff <= 1.3e-3
        assert at_100.abs_diff == pytest.approx(
            (100.0 + 1.5) - math.sqrt(101.0 * 102.0), rel=1e-4)


def test_criterion_8_double_integral_identity():
    with criterion(8, "double-integral mean agrees with the single-integral "
                      "mean, 1e-5"):
        probe_pairs = [(0.5, 2.0), (1.0, 4.0), (2.0, 6.0), (3.0, 10.0),
                       (5.0, 50.0)]
        built = build(ordinary_mean("geometric"), (0.25, 64.0))
        for spec in (catalog("geometric"), catalog("harmonic"), built):
            for a, b in probe_pairs:
                want = ordinary(spec, a, b)
                got = double_integral_mean(spec, a, b)
                assert abs(got - want) <= 1e-5, (spec.name, a, b)
