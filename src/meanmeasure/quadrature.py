"""Adaptive Gauss-Kronrod integration on a bounded interval.

One panel is a 15-point Kronrod rule with the embedded 7-point Gauss rule;
the difference of the two estimates is used as a (conservative) per-panel
error bound.  The panel with the worst bound is bisected until the summed
bound meets the requested tolerance, the panel budget runs out, or every
panel left is too narrow to bisect.  The sums are kept as running totals,
as QUADPACK's QAG does (Piessens et al., 1983), and recomputed exactly with
``fsum`` before either exit.  A first panel that already meets the
tolerance is returned at once: one panel's totals are exact, and most
passes of a set mean stop there.

Passes over one density on one interval bisect it the same way, so they meet
the same panels.  A :class:`PanelSums` table evaluates the density once at
each panel's nodes, and each row holds the Kronrod sum and the
Kronrod-minus-Gauss difference of ``w``, and of ``x w`` once a pass has
asked for them, so a pass reads a panel with one lookup.  ``quad`` takes one
of its passes (``mass``, ``moment``, ``inner(y)`` or ``outer(g)``) in place
of an integrand and reads each panel from the table.  Every pass still keeps
its own partition, error estimate, stopping rule and panel budget: only the
density evaluations behind the panels are shared.

A double integral runs an inner pass per outer node, each over the same few
rows, so ``quad`` runs an inner pass through a loop of its own that reads
each panel from the table's rows in place, as ``(K1 + y K0) / 2`` from the
sums of ``x w`` and ``w``, with no call per panel.  Each inner integral is
still refined on its own to its own tolerance.

A set mean's moment pass over an interval reads its first panel from the
row that the mass pass built there, and calls ``quad`` only when that panel
misses ``quad``'s first-panel test at the default tolerances (``_meets``):
a panel that meets it is what ``quad`` would return, with no evaluation.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
import sys
from typing import NamedTuple

from .errors import InvalidInterval, QuadratureError, WidthOverflow

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


_ABS_TOL = 1e-10  # quad's default tolerances
_REL_TOL = 1e-9
_MAX = sys.float_info.max


class QuadratureResult(NamedTuple):
    value: float
    error_estimate: float
    evaluations: int


# the 15 nodes as offsets in half widths from the centre: centre first, then
# each pair about it; a node is centre + half * t, the same float as
# centre - half * _XGK[i] for a negative offset
_T = (0.0,) + tuple(t for x in _XGK[:7] for t in (-x, x))


def _sums(f, half, a, b):
    """Kronrod sum, and Kronrod minus Gauss, of node values in ``_T`` order.

    The sums run in the order of QUADPACK's QK15.  Every Kronrod weight is
    positive, so the Kronrod sum is finite only when every value is.
    """
    fc, a0, b0, a1, b1, a2, b2, a3, b3, a4, b4, a5, b5, a6, b6 = f
    s1 = a1 + b1
    s3 = a3 + b3
    s5 = a5 + b5
    k0, k1, k2, k3, k4, k5, k6, k7 = _WGK
    kron = (k7 * fc + k0 * (a0 + b0) + k1 * s1 + k2 * (a2 + b2) + k3 * s3
            + k4 * (a4 + b4) + k5 * s5 + k6 * (a6 + b6))
    if not math.isfinite(kron):
        if not math.isfinite(fc):
            raise QuadratureError(f"integrand not finite at {0.5 * (a + b)!r}")
        if not all(map(math.isfinite, f)):
            raise QuadratureError(f"integrand not finite inside ({a!r}, {b!r})")
    g0, g1, g2, g3 = _WG
    gauss = g3 * fc + g0 * s1 + g1 * s3 + g2 * s5
    kron *= half
    return kron, kron - gauss * half


def _panel(fn, a, b):
    """Kronrod value, |Kronrod - Gauss| error bound and evaluations made."""
    kron, diff = _new_row(fn, a, b)[3]
    return kron, abs(diff), 15


class _Pass:
    """One integrand over a :class:`PanelSums` table, for ``quad``."""

    __slots__ = ("panel",)

    def __init__(self, panel):
        self.panel = panel  # (lo, hi) -> (value, error, evaluations made)


class _Inner:
    """An inner pass of a double integral, ``(x + y) w(x) / 2`` over a
    :class:`PanelSums` table: ``quad`` reads its panels from the rows."""

    __slots__ = ("rows", "density", "y")

    def __init__(self, rows, density, y):
        self.rows = rows
        self.density = density
        self.y = y


def _new_row(density, lo, hi):
    """A table row for ``[lo, hi]``: nodes, ``w`` there, half width, the
    ``(K, K - G)`` sums of ``w``, and a slot for those of ``x w``."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    # written out: a comprehension over _T takes twice as long
    t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14 = _T
    xs = [center + half * t0, center + half * t1, center + half * t2,
          center + half * t3, center + half * t4, center + half * t5,
          center + half * t6, center + half * t7, center + half * t8,
          center + half * t9, center + half * t10, center + half * t11,
          center + half * t12, center + half * t13, center + half * t14]
    ws = list(map(density, xs))
    return [xs, ws, half, _sums(ws, half, lo, hi), None]


def _moment_sums(row, lo, hi):
    """Form, keep and return the ``(K, K - G)`` sums of ``x w`` of a row."""
    pair = row[4] = _sums(list(map(operator.mul, row[0], row[1])),
                          row[2], lo, hi)
    return pair


class PanelSums:
    """A density's Kronrod and Gauss panel sums, shared by several passes.

    The density ``w`` is evaluated once at a panel's 15 nodes, whichever pass
    reaches the panel first, and that pass counts the 15 evaluations.  The
    sums of ``w`` are formed with the row; those of ``x w`` only when a pass
    asks for them, so a mass-only pass never forms ``x w``.  Each pass reads
    a panel with one lookup.  A table lives for one computation: it keeps
    every panel met.
    """

    def __init__(self, density):
        # (lo, hi) -> [nodes, w there, half width, (K, K - G) of w,
        # (K, K - G) of x w or None]
        self._rows = rows = {}
        self._density = density

        # the passes hold the rows, not the table, so no reference cycle
        # outlives a call
        def mass(lo, hi):
            row = rows.get((lo, hi))
            made = 0
            if row is None:
                row = rows[lo, hi] = _new_row(density, lo, hi)
                made = 15
            kron, diff = row[3]
            return kron, abs(diff), made

        def moment(lo, hi):
            row = rows.get((lo, hi))
            made = 0
            if row is None:
                row = rows[lo, hi] = _new_row(density, lo, hi)
                made = 15
            kron, diff = row[4] or _moment_sums(row, lo, hi)
            return kron, abs(diff), made

        self.mass = _Pass(mass)  # integrates w
        self.moment = _Pass(moment)  # integrates x w, formed as x * w(x)

    def inner(self, y: float) -> _Inner:
        """Pass integrating ``(x + y) w(x) / 2``, affine in the table's sums.

        ``quad`` reads its panels from the table's rows in place: a panel
        is ``(K1 + y K0) / 2`` from the Kronrod sums of ``x w`` and ``w``,
        with error ``|D1 + y D0| / 2`` from their Kronrod-minus-Gauss
        differences.  Each inner integral is still refined on its own to its
        own tolerance.
        """
        return _Inner(self._rows, self._density, y)

    def outer(self, g) -> _Pass:
        """Pass integrating ``g(y) w(y)``, with ``w`` read from the table."""
        rows, density = self._rows, self._density

        def panel(lo, hi):
            row = rows.get((lo, hi))
            made = 0
            if row is None:
                row = rows[lo, hi] = _new_row(density, lo, hi)
                made = 15
            kron, diff = _sums([g(y) * w for y, w in zip(row[0], row[1])],
                               row[2], lo, hi)
            return kron, abs(diff), made
        return _Pass(panel)


def _meets(value, err, abs_tol=_ABS_TOL, rel_tol=_REL_TOL) -> bool:
    """``quad``'s stopping test: ``err <= max(abs_tol, rel_tol * |value|)``."""
    return err <= abs_tol or err <= rel_tol * abs(value)


def _checked_budget(a, b, abs_tol, rel_tol, max_panels) -> int:
    """Check ``quad``'s arguments one by one and return the panel budget as
    an int; the first argument at fault raises InvalidInterval."""
    try:
        if not (a < b):
            raise InvalidInterval(f"quad needs a < b, got ({a!r}, {b!r})")
        if not (math.isfinite(a) and math.isfinite(b)):
            raise InvalidInterval(f"quad needs finite endpoints, got ({a!r}, {b!r})")
        if not (abs_tol >= 0.0 and rel_tol >= 0.0):
            raise InvalidInterval("quad needs non-negative tolerances, got "
                                  f"abs_tol={abs_tol!r}, rel_tol={rel_tol!r}")
    except (TypeError, OverflowError):
        raise InvalidInterval(
            f"quad needs real numbers in double range, got a={a!r}, b={b!r}, "
            f"abs_tol={abs_tol!r}, rel_tol={rel_tol!r}, max_panels={max_panels!r}"
        ) from None
    # the half width 0.5 * (b - a) places every node
    if b - a > _MAX:
        raise WidthOverflow(f"quad needs a width b - a in double range, got "
                            f"{b - a!r} on ({a!r}, {b!r})")
    try:
        budget = operator.index(max_panels)
    except TypeError:
        budget = 0
    if budget < 1:
        raise InvalidInterval("quad needs an integer panel budget of at least 1, "
                              f"got {max_panels!r}")
    return budget


def quad(fn, a, b, abs_tol: float = _ABS_TOL, rel_tol: float = _REL_TOL,
         max_panels: int = 10_000) -> QuadratureResult:
    """Integrate ``fn`` over ``[a, b]`` to the requested tolerance.

    The target is ``|value - integral| <= max(abs_tol, rel_tol * |value|)``.
    ``fn`` is a callable or a pass of a :class:`PanelSums` table; the result's
    ``evaluations`` counts the integrand (or density) evaluations made.
    Raises :class:`InvalidInterval` before any evaluation unless ``a < b``
    are real numbers whose width ``b - a`` is in double range
    (:class:`WidthOverflow` when only the width is not), the tolerances are
    non-negative and ``max_panels`` is an integer of at least 1.  Raises
    :class:`QuadratureError` carrying the best partial result when the panel
    budget is exhausted first, or when every panel left is too narrow to
    bisect.
    """
    try:
        # valid arguments pass this one test; anything else, a string or
        # None included, meets the checks one by one
        valid = (-_MAX <= a < b <= _MAX and b - a <= _MAX and abs_tol >= 0.0
                 and rel_tol >= 0.0 and type(max_panels) is int
                 and max_panels >= 1)
    except TypeError:
        valid = False
    if not valid:
        max_panels = _checked_budget(a, b, abs_tol, rel_tol, max_panels)
    if type(fn) is _Inner:
        return _quad_inner(fn, a, b, abs_tol, rel_tol, max_panels)
    panel = fn.panel if isinstance(fn, _Pass) else functools.partial(_panel, fn)
    value, err, evals = panel(a, b)
    # one panel's totals are exact: most passes stop here
    if _meets(value, err, abs_tol, rel_tol):
        # tuple.__new__ skips the named tuple's Python-level __new__
        return tuple.__new__(QuadratureResult, (value, err, evals))
    pushes = 0  # breaks ties between equal errors in push order
    # heap entries: (-error, push, lo, hi, value, error)
    heap = [(-err, pushes, a, b, value, err)]
    done = []  # panels too narrow to bisect further
    count = 1  # panels kept, in the heap and in done
    # running totals over all panels, re-summed exactly before either exit
    total_val, total_err = value, err
    while True:
        spent = count >= max_panels or not heap
        # _meets written out: a call per bisection costs a double integral 4%
        if (spent or total_err <= abs_tol
                or total_err <= rel_tol * abs(total_val)):
            kept = heap + done
            if count > 1:  # one panel's totals are exact already
                total_val = math.fsum([p[4] for p in kept])
                total_err = math.fsum([p[5] for p in kept])
            if total_err <= abs_tol or total_err <= rel_tol * abs(total_val):
                return tuple.__new__(QuadratureResult, (total_val, total_err, evals))
            if spent:
                cause = (f"panel budget {max_panels} exhausted"
                         if count >= max_panels
                         else "every panel left is too narrow to bisect")
                raise QuadratureError(
                    f"{cause} (err={total_err:.3e})",
                    result=QuadratureResult(total_val, total_err, evals),
                )
            # the running totals had drifted: go on from the exact sums
        # the worst panel is replaced by its left half, at no extra sift:
        # keys (-error, push) are unique, so the pop order is the same
        _, _, lo, hi, v, e = heap[0]
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            done.append(heapq.heappop(heap))
            continue
        v1, e1, n1 = panel(lo, mid)
        v2, e2, n2 = panel(mid, hi)
        evals += n1 + n2
        count += 1
        total_val += v1 + v2 - v
        total_err += e1 + e2 - e
        heapq.heapreplace(heap, (-e1, pushes + 1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, pushes + 2, mid, hi, v2, e2))
        pushes += 2


def _quad_inner(inner, a, b, abs_tol, rel_tol, max_panels) -> QuadratureResult:
    """``quad``'s loop for an inner pass: the same steps, values, counts,
    errors and density calls, with each panel read from its row in place and
    a row built (15 evaluations) only for a panel the table lacks.  A call
    per panel read made the bench's double integrals 12% slower (Python
    3.11, 2-core VM)."""
    rows, density, y = inner.rows, inner.density, inner.y
    get = rows.get
    row = get((a, b))
    evals = 0
    if row is None:
        row = rows[a, b] = _new_row(density, a, b)
        evals = 15
    k0, d0 = row[3]
    k1, d1 = row[4] or _moment_sums(row, a, b)
    value = 0.5 * (k1 + y * k0)
    err = 0.5 * abs(d1 + y * d0)
    if err <= abs_tol or err <= rel_tol * abs(value):
        return tuple.__new__(QuadratureResult, (value, err, evals))
    pushes = 0
    heap = [(-err, pushes, a, b, value, err)]
    done = []
    count = 1
    total_val, total_err = value, err
    while True:
        spent = count >= max_panels or not heap
        if (spent or total_err <= abs_tol
                or total_err <= rel_tol * abs(total_val)):
            kept = heap + done
            if count > 1:
                total_val = math.fsum([p[4] for p in kept])
                total_err = math.fsum([p[5] for p in kept])
            if total_err <= abs_tol or total_err <= rel_tol * abs(total_val):
                return tuple.__new__(QuadratureResult, (total_val, total_err, evals))
            if spent:
                cause = (f"panel budget {max_panels} exhausted"
                         if count >= max_panels
                         else "every panel left is too narrow to bisect")
                raise QuadratureError(
                    f"{cause} (err={total_err:.3e})",
                    result=QuadratureResult(total_val, total_err, evals),
                )
        _, _, lo, hi, v, e = heap[0]
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            done.append(heapq.heappop(heap))
            continue
        row = get((lo, mid))
        if row is None:
            row = rows[lo, mid] = _new_row(density, lo, mid)
            evals += 15
        k0, d0 = row[3]
        k1, d1 = row[4] or _moment_sums(row, lo, mid)
        v1 = 0.5 * (k1 + y * k0)
        e1 = 0.5 * abs(d1 + y * d0)
        row = get((mid, hi))
        if row is None:
            row = rows[mid, hi] = _new_row(density, mid, hi)
            evals += 15
        k0, d0 = row[3]
        k1, d1 = row[4] or _moment_sums(row, mid, hi)
        v2 = 0.5 * (k1 + y * k0)
        e2 = 0.5 * abs(d1 + y * d0)
        count += 1
        total_val += v1 + v2 - v
        total_err += e1 + e2 - e
        heapq.heapreplace(heap, (-e1, pushes + 1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, pushes + 2, mid, hi, v2, e2))
        pushes += 2
