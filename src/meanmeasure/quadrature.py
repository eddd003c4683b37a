"""Adaptive Gauss-Kronrod integration on a bounded interval.

One panel is a 15-point Kronrod rule with the embedded 7-point Gauss rule;
the difference of the two estimates is used as a (conservative) per-panel
error bound.  The panel with the worst bound is bisected until the summed
bound meets the requested tolerance or the panel budget runs out.  The sums
are kept as running totals, as QUADPACK's QAG does (Piessens et al., 1983),
and recomputed exactly with ``fsum`` before either exit.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .errors import InvalidInterval, QuadratureError

# 15-point Kronrod abscissae on [-1, 1] (non-negative half) and weights,
# with the embedded 7-point Gauss weights on the odd-indexed abscissae.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


def _panel(fn, a, b):
    """Kronrod value and |Kronrod - Gauss| error bound for one panel."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = fn(center)
    if not math.isfinite(fc):
        raise QuadratureError(f"integrand not finite at {center!r}")
    kron = _WGK[7] * fc
    gauss = _WG[3] * fc
    for i in range(7):
        dx = half * _XGK[i]
        f1 = fn(center - dx)
        f2 = fn(center + dx)
        if not (math.isfinite(f1) and math.isfinite(f2)):
            raise QuadratureError(f"integrand not finite inside ({a!r}, {b!r})")
        kron += _WGK[i] * (f1 + f2)
        if i % 2 == 1:
            gauss += _WG[i // 2] * (f1 + f2)
    kron *= half
    gauss *= half
    return kron, abs(kron - gauss)


def quad(fn, a, b, abs_tol: float = 1e-10, rel_tol: float = 1e-9,
         max_panels: int = 10_000) -> QuadratureResult:
    """Integrate ``fn`` over ``[a, b]`` to the requested tolerance.

    The target is ``|value - integral| <= max(abs_tol, rel_tol * |value|)``.
    Raises :class:`QuadratureError` carrying the best partial result when the
    panel budget is exhausted first.
    """
    if not (a < b):
        raise InvalidInterval(f"quad needs a < b, got ({a!r}, {b!r})")
    value, err = _panel(fn, a, b)
    evals = 15
    # heap entries: (-error, tiebreak, lo, hi, value, error); the evaluation
    # count at a push breaks ties between equal errors in push order
    heap = [(-err, 0, a, b, value, err)]
    done = []  # panels too narrow to bisect further
    # running totals over all panels, re-summed exactly before either exit
    total_val, total_err = value, err
    while True:
        spent = len(heap) + len(done) >= max_panels or not heap
        if spent or total_err <= max(abs_tol, rel_tol * abs(total_val)):
            kept = heap + done
            total_val = math.fsum(p[4] for p in kept)
            total_err = math.fsum(p[5] for p in kept)
            if total_err <= max(abs_tol, rel_tol * abs(total_val)):
                return QuadratureResult(total_val, total_err, evals)
            if spent:
                raise QuadratureError(
                    f"panel budget {max_panels} exhausted (err={total_err:.3e})",
                    result=QuadratureResult(total_val, total_err, evals),
                )
            # the running totals had drifted: go on from the exact sums
        _, _, lo, hi, v, e = item = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            done.append(item)
            continue
        v1, e1 = _panel(fn, lo, mid)
        v2, e2 = _panel(fn, mid, hi)
        evals += 30
        total_val += v1 + v2 - v
        total_err += e1 + e2 - e
        heapq.heappush(heap, (-e1, evals, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, evals + 1, mid, hi, v2, e2))
