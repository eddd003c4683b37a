"""Canonical finite unions of bounded closed intervals.

An :class:`IntervalSet` is the carrier for every set a measure or mean is
evaluated on.  The canonical form is a sorted tuple of pairs ``(lo, hi)``
with ``lo < hi`` and a strictly positive gap between consecutive intervals;
degenerate points are dropped and touching intervals are merged (the
distinction is null for every measure in the catalog, all of which are
atomless).  Values are immutable, so all operations are pure.
"""

from __future__ import annotations

import math

from .errors import EmptySet, InvalidInterval

Pair = tuple[float, float]


class IntervalSet:
    """Finite union of disjoint closed intervals, in canonical form.

    Build instances through :func:`normalize`; the raw constructor does not
    re-canonicalize.  Instances are read-only: assigning to ``intervals``
    raises AttributeError.
    """

    __slots__ = ("intervals",)

    def __init__(self, intervals: tuple[Pair, ...] = ()):
        _set_intervals(self, intervals)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return IntervalSet, (self.intervals,)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.intervals == other.intervals
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.intervals,))

    def __repr__(self) -> str:
        return f"IntervalSet(intervals={self.intervals!r})"

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    def lebesgue(self) -> float:
        return math.fsum(hi - lo for lo, hi in self.intervals)

    def infimum(self) -> float:
        if self.is_empty:
            raise EmptySet("infimum of empty interval set")
        return self.intervals[0][0]

    def supremum(self) -> float:
        if self.is_empty:
            raise EmptySet("supremum of empty interval set")
        return self.intervals[-1][1]

    def contains(self, x: float) -> bool:
        return any(lo <= x <= hi for lo, hi in self.intervals)

    def translate(self, x: float) -> "IntervalSet":
        if not math.isfinite(x):
            raise InvalidInterval(f"non-finite translation {x!r}")
        return normalize([(lo + x, hi + x) for lo, hi in self.intervals])

    def slice_below(self, y: float) -> "IntervalSet":
        """Intersection with the half-line (-inf, y]."""
        return self.intersect(IntervalSet(((-math.inf, _cut(y)),)))

    def slice_above(self, y: float) -> "IntervalSet":
        """Intersection with the half-line [y, +inf)."""
        return self.intersect(IntervalSet(((_cut(y), math.inf),)))

    def union(self, other: "IntervalSet") -> "IntervalSet":
        # both are canonical already: their pairs need sorting and merging only
        return _merged(sorted(self.intervals + other.intervals))

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        i = j = 0
        a, b = self.intervals, other.intervals
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo < hi:
                out.append((lo, hi))
            # advance whichever interval ends first
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalSet(tuple(out))

    def subtract(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        for lo, hi in self.intervals:
            cursor = lo
            for blo, bhi in other.intervals:
                if bhi <= cursor:
                    continue
                if blo >= hi:
                    break
                if blo > cursor:
                    out.append((cursor, min(blo, hi)))
                cursor = max(cursor, bhi)
                if cursor >= hi:
                    break
            if cursor < hi:
                out.append((cursor, hi))
        return IntervalSet(tuple(p for p in out if p[0] < p[1]))

    def symdiff(self, other: "IntervalSet") -> "IntervalSet":
        return self.subtract(other).union(other.subtract(self))

    def is_subset_of(self, other: "IntervalSet") -> bool:
        return self.subtract(other).is_empty

    def is_disjoint_from(self, other: "IntervalSet") -> bool:
        return self.intersect(other).is_empty


# the slot's own setter, which the read-only __setattr__ does not reach
_set_intervals = IntervalSet.intervals.__set__


def _cut(y: float) -> float:
    y = float(y)
    if math.isnan(y):
        raise InvalidInterval("cannot slice at NaN")
    return y


def normalize(raw) -> IntervalSet:
    """Canonicalize a sequence of ``(lo, hi)`` pairs into an IntervalSet.

    Sorts, drops zero-length intervals, and merges overlapping or touching
    ones.  Each item must be a pair of real numbers, finite and ordered
    ``lo <= hi``; anything else raises :class:`InvalidInterval`.  Endpoints
    compare exactly as floats, there is no epsilon merging.
    """
    cleaned = []
    pair = raw  # named by the message until the loop reads an item
    try:
        for pair in raw:
            lo, hi = pair
            lo = float(lo)
            hi = float(hi)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise InvalidInterval(f"non-finite endpoint in ({lo!r}, {hi!r})")
            if lo > hi:
                raise InvalidInterval(f"reversed interval ({lo!r}, {hi!r})")
            if lo < hi:
                cleaned.append((lo, hi))
    except (TypeError, ValueError, OverflowError):
        raise InvalidInterval(f"expected a pair (lo, hi) of real numbers, "
                              f"got {pair!r}") from None
    cleaned.sort()
    return _merged(cleaned)


def _merged(pairs) -> IntervalSet:
    """The set of sorted pairs ``lo < hi`` of floats, overlapping or touching
    ones merged."""
    merged: list[Pair] = []
    # the upper end of the last merged pair; NaN compares false, so the first
    # pair opens one, even with a lone -inf lower end (``slice_below``)
    top = math.nan
    for pair in pairs:
        lo, hi = pair
        if lo <= top:
            if hi > top:
                top = hi
                merged[-1] = (merged[-1][0], hi)
        else:
            top = hi
            merged.append(pair)
    return IntervalSet(tuple(merged))


EMPTY = IntervalSet()
