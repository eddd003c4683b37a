"""High-precision reference values for the benchmark, independent of meanmeasure.

Every catalog measure is restated here from its density, and the mass and
first moment of an interval come from closed forms evaluated in mpmath at
50 significant digits.  Float endpoints convert to mpmath exactly, so the
only rounding left is in the final conversion back to float.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 50

_E2 = mp.e ** 2

# density -> (mass on [a, b], first moment on [a, b]); constant factors of
# the catalog densities are kept so masses are comparable too
_INTERVAL = {
    "lebesgue": (lambda a, b: b - a, lambda a, b: (b * b - a * a) / 2),
    "geometric": (lambda a, b: (1 / mp.sqrt(a) - 1 / mp.sqrt(b)) / _E2,
                  lambda a, b: (mp.sqrt(b) - mp.sqrt(a)) / _E2),
    "harmonic": (lambda a, b: 1 / (a * a) - 1 / (b * b),
                 lambda a, b: 2 * (1 / a - 1 / b)),
    "logarithmic": (lambda a, b: mp.log(b / a), lambda a, b: b - a),
    "square": (lambda a, b: b * b - a * a,
               lambda a, b: 2 * (b ** 3 - a ** 3) / 3),
    "exponential": (lambda a, b: mp.exp(b) - mp.exp(a),
                    lambda a, b: (b - 1) * mp.exp(b) - (a - 1) * mp.exp(a)),
}

# the two-argument mean each catalog measure generates, up to scale
PROPORTIONAL = {
    "arithmetic": "lebesgue",
    "geometric": "geometric",
    "harmonic": "harmonic",
    "logarithmic": "logarithmic",
}


def canonical(pairs) -> tuple:
    """Sorted union of float pairs: empty pairs dropped, touching ones merged."""
    merged = []
    for lo, hi in sorted((float(lo), float(hi)) for lo, hi in pairs if lo < hi):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return tuple(merged)


def set_mean(measure: str, intervals) -> float:
    """Exact weighted centroid of a union of disjoint intervals."""
    mass_of, moment_of = _INTERVAL[measure]
    mass = mp.mpf(0)
    moment = mp.mpf(0)
    for lo, hi in intervals:
        a, b = mp.mpf(lo), mp.mpf(hi)
        mass += mass_of(a, b)
        moment += moment_of(a, b)
    return float(moment / mass)


def pair_mean(mean_name: str, a: float, b: float) -> float:
    """The classical two-argument mean K(a, b), evaluated exactly."""
    a, b = mp.mpf(a), mp.mpf(b)
    if mean_name == "arithmetic":
        k = (a + b) / 2
    elif mean_name == "geometric":
        k = mp.sqrt(a * b)
    elif mean_name == "harmonic":
        k = 2 * a * b / (a + b)
    elif mean_name == "logarithmic":
        k = (b - a) / mp.log(b / a)
    else:
        raise ValueError(f"no reference for the mean {mean_name!r}")
    return float(k)
