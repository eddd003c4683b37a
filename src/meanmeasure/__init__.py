"""Measure-weighted means on interval sets, and measures built from means.

The package evaluates the weighted centroid ``M(H) = (integral of x dmu) /
mu(H)`` of finite interval unions against a catalog of measures, certifies
inequalities between such means, and synthesizes the generating measure of
any smooth symmetric two-argument mean.

The synthesis names (``build``, ``reconstruct``, ``ConstructedMeasure`` and
the rest of :mod:`meanmeasure.construct`) load on first use, so importing the
package loads neither numpy nor the construction module.
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
    UnknownMeasure,
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
    consistency_errors,
    density_ratio_increasing,
)
from .quadrature import QuadratureResult, quad
from .setparse import parse_set

__version__ = "0.1.0"

_CONSTRUCT_NAMES = frozenset({
    "ConstructedMeasure",
    "OrdinaryMean",
    "UniquenessResult",
    "build",
    "from_section",
    "ordinary_mean",
    "reconstruct",
    "uniqueness_check",
})


def __getattr__(name):
    """Import :mod:`meanmeasure.construct` when one of its names is first read."""
    if name != "construct" and name not in _CONSTRUCT_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    construct = importlib.import_module(".construct", __name__)
    globals().update((n, getattr(construct, n)) for n in _CONSTRUCT_NAMES)
    return globals()[name]


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
    "SweepRow",
    "UniquenessResult",
    "UnknownMeasure",
    "avg",
    "build",
    "cantor_probe",
    "catalog",
    "certify_leq",
    "consistency_errors",
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
