"""Measure-weighted means on interval sets, and measures built from means.

The package evaluates the weighted centroid ``M(H) = (integral of x dmu) /
mu(H)`` of finite interval unions against a catalog of measures, certifies
inequalities between such means, and synthesizes the generating measure of
any smooth symmetric two-argument mean.

It needs nothing beyond the standard library: the synthesis fits its
Chebyshev series with its own small kernels, and the random helpers draw
from ``random.Random``.

``import meanmeasure`` loads the interval, measure, quadrature and mean
modules.  The synthesis names (``build``, ``ordinary_mean`` and the rest of
``construct``) and ``parse_set`` load their modules on first use, so a
command that never builds a measure or parses a set never compiles them.
"""

import importlib

from .errors import (
    DomainError,
    EmptySet,
    InvalidInterval,
    MeanMeasureError,
    NotDisjoint,
    NotIncreasing,
    NotNested,
    NotStrictlyInternal,
    NotSymmetric,
    ParseError,
    QuadratureError,
    SumOverflow,
    UnknownMeasure,
    WidthOverflow,
)
from .intervals import EMPTY, IntervalSet, normalize
from .means import (
    BoundPair,
    LeqCertificate,
    MeanReport,
    MonotonicityReport,
    SweepRow,
    avg,
    cantor_probe,
    certify_leq,
    decompose_check,
    double_integral_mean,
    exp_avg_log,
    infinity_sweep,
    m_bound,
    mean,
    monotonicity_probe,
    ordinary,
    pseudo_metric,
    random_interval_union,
)
from .measures import (
    CATALOG_NAMES,
    MeasureSpec,
    RatioCertificate,
    catalog,
    density_ratio_increasing,
)
from .quadrature import QuadratureResult, quad

__version__ = "0.1.0"

# public names resolved from their module on first access (PEP 562)
_LAZY = {
    **dict.fromkeys(("ConstructedMeasure", "OrdinaryMean", "UniquenessResult",
                     "build", "from_section", "ordinary_mean", "reconstruct",
                     "uniqueness_check"), "construct"),
    "parse_set": "setparse",
}


def __getattr__(name):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "BoundPair",
    "CATALOG_NAMES",
    "ConstructedMeasure",
    "DomainError",
    "EMPTY",
    "EmptySet",
    "IntervalSet",
    "InvalidInterval",
    "LeqCertificate",
    "MeanMeasureError",
    "MeanReport",
    "MeasureSpec",
    "MonotonicityReport",
    "NotDisjoint",
    "NotIncreasing",
    "NotNested",
    "NotStrictlyInternal",
    "NotSymmetric",
    "OrdinaryMean",
    "ParseError",
    "QuadratureError",
    "QuadratureResult",
    "RatioCertificate",
    "SumOverflow",
    "SweepRow",
    "UniquenessResult",
    "UnknownMeasure",
    "WidthOverflow",
    "avg",
    "build",
    "cantor_probe",
    "catalog",
    "certify_leq",
    "decompose_check",
    "density_ratio_increasing",
    "double_integral_mean",
    "exp_avg_log",
    "from_section",
    "infinity_sweep",
    "m_bound",
    "mean",
    "monotonicity_probe",
    "normalize",
    "ordinary",
    "ordinary_mean",
    "parse_set",
    "pseudo_metric",
    "quad",
    "random_interval_union",
    "reconstruct",
    "uniqueness_check",
]
