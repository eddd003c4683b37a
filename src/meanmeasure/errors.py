"""Exception types shared across the package."""


class MeanMeasureError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInterval(MeanMeasureError):
    """Interval endpoints are non-finite, reversed, or degenerate where forbidden."""


class EmptySet(MeanMeasureError):
    """An operation that needs a nonempty set received an empty one."""


class DomainError(MeanMeasureError):
    """A set or point lies outside the domain of the measure involved."""


class UnknownMeasure(MeanMeasureError):
    """Requested catalog entry does not exist."""


class NotDisjoint(MeanMeasureError):
    """Arguments required to be pairwise disjoint overlap."""


class NotNested(MeanMeasureError):
    """A chain of sets is not descending by inclusion."""


class NotStrictlyInternal(MeanMeasureError):
    """A two-argument mean failed the strict internality requirement a < K(a,b) < b."""


class NotSymmetric(MeanMeasureError):
    """A two-argument mean required to be symmetric has K(a,b) != K(b,a)."""


class NotIncreasing(MeanMeasureError):
    """A function required to be increasing is not."""


class ParseError(MeanMeasureError):
    """Set-expression syntax error. Carries the byte offset of the offending token."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class QuadratureError(MeanMeasureError):
    """Adaptive integration stopped short of its tolerance. Carries the partial result."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result
