"""Canonical finite unions of bounded closed intervals.

An :class:`IntervalSet` is the carrier for every set a measure or mean is
evaluated on.  The canonical form is a sorted tuple of pairs ``(lo, hi)``
with ``lo < hi`` and a strictly positive gap between consecutive intervals;
degenerate points are dropped and touching intervals are merged (the
distinction is null for every measure in the catalog, all of which are
atomless).  Values are immutable, so all operations are pure.

Difference scans both operands once, its cursor into the second moving only
forward; intersection is the double difference ``A - (A - B)``, and the
other operations are built on those two: all are O(n + m) but ``union``.
``union`` concatenates the two tuples when one operand's hull ends strictly
before the other's begins, or when one operand is empty; otherwise it sorts
the pairs and merges them.  Disjointness is one difference: ``A - B == A``.
"""

from __future__ import annotations

import math

from .errors import EmptySet, InvalidInterval

Pair = tuple[float, float]
_REAL = (int, float)  # the end types the raw constructor takes


class IntervalSet:
    """Finite union of disjoint closed intervals, in canonical form.

    Build instances through :func:`normalize`.  The raw constructor does not
    re-canonicalize: it raises InvalidInterval naming the first pair that is
    not a tuple ``(lo, hi)`` of ints or floats with ``lo < hi``, starting
    strictly after the one before ends.  Infinite ends are allowed, for the
    half-lines.  Instances are read-only: assigning to ``intervals`` raises
    AttributeError.
    """

    __slots__ = ("intervals",)

    def __init__(self, intervals: tuple[Pair, ...] = ()):
        if intervals.__class__ is not tuple:
            raise InvalidInterval(f"IntervalSet needs a tuple of pairs, got {intervals!r}")
        top = None  # the upper end of the pair before
        for pair in intervals:
            if not (pair.__class__ is tuple and len(pair) == 2
                    and isinstance(pair[0], _REAL) and isinstance(pair[1], _REAL)
                    and pair[0] < pair[1] and (top is None or top < pair[0])):
                raise InvalidInterval(
                    "IntervalSet needs pairs (lo, hi) of real numbers, lo < hi, each "
                    f"after the one before, got {pair!r} (normalize takes any pairs)")
            top = pair[1]
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
        try:
            if not math.isfinite(x):
                raise InvalidInterval(f"non-finite translation {x!r}")
        except (TypeError, OverflowError):
            raise InvalidInterval(f"translation must be a finite real number, "
                                  f"got {x!r}") from None
        return normalize([(lo + x, hi + x) for lo, hi in self.intervals])

    def slice_below(self, y: float) -> "IntervalSet":
        """Intersection with the half-line (-inf, y]."""
        return self.intersect(IntervalSet(((-math.inf, _cut(y)),)))

    def slice_above(self, y: float) -> "IntervalSet":
        """Intersection with the half-line [y, +inf)."""
        return self.intersect(IntervalSet(((_cut(y), math.inf),)))

    def union(self, other: "IntervalSet") -> "IntervalSet":
        a, b = self.intervals, other.intervals
        # both are canonical already: hulls apart, or an empty operand, need
        # no merging; a touching pair (-0.0 against 0.0 too) merges below
        if not a or not b or a[-1][1] < b[0][0]:
            pairs = a + b
        elif b[-1][1] < a[0][0]:
            pairs = b + a
        else:
            return _merged(sorted(a + b))
        out = _new(IntervalSet)
        _set_intervals(out, pairs)
        return out

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        return self.subtract(self.subtract(other))

    def subtract(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        cuts = other.intervals
        j = 0
        for lo, hi in self.intervals:
            while j < len(cuts) and cuts[j][0] < hi:
                blo, bhi = cuts[j]
                if bhi > lo:
                    if blo > lo:
                        out.append((lo, blo))
                    lo = bhi
                if bhi > hi:
                    break  # the cut may reach into the next interval too
                # it ends at or before ``hi``, so before every later interval
                j += 1
            if lo < hi:
                out.append((lo, hi))
        result = _new(IntervalSet)
        _set_intervals(result, tuple(out))
        return result

    def symdiff(self, other: "IntervalSet") -> "IntervalSet":
        return self.subtract(other).union(other.subtract(self))

    def is_subset_of(self, other: "IntervalSet") -> bool:
        return self.subtract(other).is_empty

    def is_disjoint_from(self, other: "IntervalSet") -> bool:
        # one scan: a difference that cuts nothing keeps every pair as it was
        return self.subtract(other).intervals == self.intervals


# results are built without the Python-level __init__: a bare instance, then
# the slot's own setter, which the read-only __setattr__ does not reach
_new = object.__new__
_set_intervals = IntervalSet.intervals.__set__


def _cut(y: float) -> float:
    try:
        y = float(y)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInterval(f"cannot slice at {y!r}: not a real number") from None
    if math.isnan(y):
        raise InvalidInterval("cannot slice at NaN")
    return y


def normalize(raw) -> IntervalSet:
    """Canonicalize a sequence of ``(lo, hi)`` pairs into an IntervalSet.

    Sorts, drops zero-length intervals, and merges overlapping or touching
    ones.  Each item must be a pair whose endpoints ``float()`` reads as
    finite numbers ordered ``lo <= hi``, so ``("1", "2")`` is read as
    ``(1.0, 2.0)``; anything else raises :class:`InvalidInterval`.
    Endpoints compare exactly as floats, there is no epsilon merging.
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
    out = _new(IntervalSet)
    _set_intervals(out, tuple(merged))
    return out


EMPTY = IntervalSet()
