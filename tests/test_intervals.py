"""Interval-set algebra: canonical form, set operations, measure identities."""

import copy
import math
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanmeasure import EMPTY, EmptySet, IntervalSet, InvalidInterval, normalize


def test_normalize_merges_touching():
    assert normalize([(1, 2), (2, 3)]).intervals == ((1.0, 3.0),)


def test_normalize_sorts():
    assert normalize([(3, 4), (1, 2)]).intervals == ((1.0, 2.0), (3.0, 4.0))


def test_normalize_drops_degenerate_and_absorbs_nested():
    assert normalize([(1, 1), (2, 5), (3, 4)]).intervals == ((2.0, 5.0),)


@pytest.mark.parametrize("bad", [
    [(float("nan"), 1.0)],
    [(0.0, float("inf"))],
    [(2.0, 1.0)],
    [("a", 1)],
    [(1, 2, 3)],
    [(10 ** 400, 1)],
])
def test_normalize_rejects_bad_endpoints(bad):
    with pytest.raises(InvalidInterval, match=re.escape(repr(bad[0]))):
        normalize(bad)
    # read once: a generator's message names its bad pair too
    with pytest.raises(InvalidInterval, match=re.escape(repr(bad[0]))):
        normalize(pair for pair in [(1, 2)] + bad)


def test_set_operation_examples():
    a = normalize([(0, 2)])
    b = normalize([(1, 3)])
    assert a.symdiff(b).intervals == ((0.0, 1.0), (2.0, 3.0))
    assert normalize([(0, 2)]).intersect(normalize([(3, 4)])).is_empty
    assert normalize([(0, 3)]).subtract(normalize([(1, 2)])).intervals == \
        ((0.0, 1.0), (2.0, 3.0))


def test_translate_examples():
    assert normalize([(1, 2)]).translate(3).intervals == ((4.0, 5.0),)
    h = normalize([(1, 2), (3, 4)])
    assert h.translate(0) == h
    assert normalize([(1, 2)]).translate(-0.5).intervals == ((0.5, 1.5),)
    with pytest.raises(InvalidInterval):
        h.translate(float("inf"))


def test_slice_examples():
    assert normalize([(0, 3)]).slice_below(1).intervals == ((0.0, 1.0),)
    assert normalize([(0, 1), (2, 3)]).slice_above(2.5).intervals == ((2.5, 3.0),)
    assert normalize([(2, 3)]).slice_below(1).is_empty
    for cut in (normalize([(0, 1), (2, 3)]).slice_below,
                normalize([(0, 1), (2, 3)]).slice_above):
        with pytest.raises(InvalidInterval):
            cut(math.nan)


def test_union_keeps_a_lone_infinite_end():
    # slice_below's half-line is a raw set whose first pair starts at -inf
    half_line = IntervalSet(((-math.inf, 1.0),))
    merged = half_line.union(normalize([(0.5, 2), (3, 4)]))
    assert merged.intervals == ((-math.inf, 2.0), (3.0, 4.0))
    assert half_line.union(EMPTY) == half_line


def test_interval_sets_are_read_only_values():
    h = normalize([(0, 1), (2, 4)])
    with pytest.raises(AttributeError):
        h.intervals = ()
    with pytest.raises(AttributeError):
        del h.intervals
    with pytest.raises(AttributeError):
        h.extra = 1
    assert h.intervals == ((0.0, 1.0), (2.0, 4.0))
    same = normalize([(2, 4), (0, 1)])
    assert same == h and same is not h and hash(same) == hash(h)
    assert h != normalize([(0, 1)]) and h != h.intervals
    assert repr(h) == "IntervalSet(intervals=((0.0, 1.0), (2.0, 4.0)))"
    assert copy.deepcopy(h) == h and pickle.loads(pickle.dumps(h)) == h


def test_empty_stays_empty():
    with pytest.raises(AttributeError):
        EMPTY.intervals = ((0.0, 1.0),)
    assert EMPTY.union(normalize([(0, 1)])).intervals == ((0.0, 1.0),)
    assert EMPTY.is_empty and EMPTY.intervals == ()
    assert EMPTY == IntervalSet() == normalize([]) and hash(EMPTY) == hash(IntervalSet())


def test_scalar_queries():
    h = normalize([(0, 1), (2, 4)])
    assert h.lebesgue() == 3.0
    assert normalize([(1, 2), (3, 4)]).infimum() == 1.0
    assert normalize([(1, 2), (3, 4)]).supremum() == 4.0
    with pytest.raises(EmptySet):
        IntervalSet().infimum()
    with pytest.raises(EmptySet):
        IntervalSet().supremum()


def test_degenerate_point_is_dropped_exactly():
    with_point = normalize([(1.0, 1.0), (2.0, 5.0)])
    without = normalize([(2.0, 5.0)])
    assert with_point == without


# -- randomized properties ----------------------------------------------------

finite = st.floats(min_value=-100, max_value=100,
                   allow_nan=False, allow_infinity=False)
pair = st.tuples(finite, finite).map(lambda t: (min(t), max(t)))
raw_sets = st.lists(pair, max_size=6)


def _canonical(s: IntervalSet) -> bool:
    for lo, hi in s.intervals:
        if not lo < hi:
            return False
    for i in range(len(s.intervals) - 1):
        if not s.intervals[i][1] < s.intervals[i + 1][0]:
            return False
    return True


@given(raw_sets)
def test_normalize_idempotent_and_canonical(raw):
    once = normalize(raw)
    assert _canonical(once)
    assert normalize(once.intervals) == once


@given(raw_sets, raw_sets)
@settings(deadline=None)
def test_boolean_ops_match_membership_oracle(raw_a, raw_b):
    a = normalize(raw_a)
    b = normalize(raw_b)
    endpoints = {e for lo, hi in (a.intervals + b.intervals) for e in (lo, hi)}
    lo = min(endpoints, default=0.0) - 1.0
    hi = max(endpoints, default=0.0) + 1.0
    n = 200
    for i in range(n):
        x = lo + (hi - lo) * (i + 0.5) / n
        if x in endpoints:
            continue  # endpoint membership is null and intentionally loose
        assert a.union(b).contains(x) == (a.contains(x) or b.contains(x))
        assert a.intersect(b).contains(x) == (a.contains(x) and b.contains(x))
        assert a.subtract(b).contains(x) == (a.contains(x) and not b.contains(x))
        assert a.symdiff(b).contains(x) == (a.contains(x) != b.contains(x))


@given(raw_sets, raw_sets)
def test_lebesgue_inclusion_exclusion(raw_a, raw_b):
    a = normalize(raw_a)
    b = normalize(raw_b)
    lhs = a.union(b).lebesgue() + a.intersect(b).lebesgue()
    rhs = a.lebesgue() + b.lebesgue()
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + rhs)


@given(raw_sets, raw_sets)
def test_partition_identity_is_exact(raw_a, raw_b):
    # subtraction and intersection only copy endpoints, so this is exact
    a = normalize(raw_a)
    b = normalize(raw_b)
    assert a.subtract(b).union(a.intersect(b)) == a


def test_dense_membership_oracle():
    import numpy as np

    rng = np.random.default_rng(2)
    for _ in range(20):
        pts_a = np.sort(rng.uniform(-50, 50, size=6))
        pts_b = np.sort(rng.uniform(-50, 50, size=4))
        a = normalize([(pts_a[0], pts_a[1]), (pts_a[2], pts_a[3]),
                       (pts_a[4], pts_a[5])])
        b = normalize([(pts_b[0], pts_b[1]), (pts_b[2], pts_b[3])])
        endpoints = {e for lo, hi in (a.intervals + b.intervals)
                     for e in (lo, hi)}
        samples = rng.uniform(-51, 51, size=10_000)
        union, inter = a.union(b), a.intersect(b)
        diff, sym = a.subtract(b), a.symdiff(b)
        for x in samples:
            x = float(x)
            if x in endpoints:
                continue
            in_a, in_b = a.contains(x), b.contains(x)
            assert union.contains(x) == (in_a or in_b)
            assert inter.contains(x) == (in_a and in_b)
            assert diff.contains(x) == (in_a and not in_b)
            assert sym.contains(x) == (in_a != in_b)


@given(raw_sets, finite)
def test_translate_round_trip(raw, x):
    h = normalize(raw)
    moved = h.translate(x)
    assert _canonical(moved)
    back = moved.translate(-x)
    # an interval or gap within rounding of zero width may collapse or merge
    # on the way; every other one survives the round trip
    ends = [v for pair in h.intervals for v in pair]
    size = max((abs(v) for v in ends), default=0.0)
    margin = 8.0 * math.ulp(2.0 * size + abs(x) + 1.0)
    if any(b - a <= margin for a, b in zip(ends, ends[1:])):
        return
    assert len(back.intervals) == len(h.intervals)
    for (lo1, hi1), (lo2, hi2) in zip(h.intervals, back.intervals):
        tol = 4.0 * math.ulp(abs(lo1) + abs(hi1) + abs(x) + 1.0)
        assert abs(lo1 - lo2) <= tol and abs(hi1 - hi2) <= tol


def test_translate_keeps_canonical_form():
    # widths below the rounding step at 1e17 vanish instead of leaving
    # zero-length intervals; a gap that rounds away merges its neighbors
    assert normalize([(0, 1), (1.5, 2)]).translate(1e17).is_empty
    moved = normalize([(0, 1), (1.25, 3)]).translate(2.0 ** 52)
    assert moved.intervals == ((2.0 ** 52, 2.0 ** 52 + 3.0),)
