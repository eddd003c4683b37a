"""Adaptive Gauss-Kronrod integration."""

import dataclasses
import math
import random
import time

import numpy as np
import pytest

from meanmeasure import (CATALOG_NAMES, DomainError, InvalidInterval,
                         QuadratureError, QuadratureResult, WidthOverflow,
                         catalog, double_integral_mean, mean, normalize, quad)
from meanmeasure import means
from meanmeasure.quadrature import (_T, PanelSums, _moment_sums, _new_row,
                                    _Pass)


def test_constant_is_exact():
    r = quad(lambda x: 1.0, 0.0, 1.0)
    assert abs(r.value - 1.0) <= 1e-12
    assert r.evaluations >= 15
    assert r.error_estimate >= 0.0


def test_polynomial_exact_for_rule():
    r = quad(lambda x: x * x, 0.0, 1.0)
    assert abs(r.value - 1.0 / 3.0) <= 1e-15


def test_inverse_power_integral():
    # oracle: antiderivative of 1/(2 x sqrt x) is -1/sqrt(x), so the
    # integral over [1, 4] is 1 - 1/2 = 1/2
    r = quad(lambda x: 0.5 / (x * math.sqrt(x)), 1.0, 4.0)
    assert abs(r.value - 0.5) <= 1e-9


def test_needs_ordered_interval():
    with pytest.raises(InvalidInterval):
        quad(lambda x: x, 1.0, 1.0)


def test_non_finite_integrand_rejected():
    with pytest.raises(QuadratureError):
        quad(lambda x: float("nan"), 0.0, 1.0)
    # finite at the panel's centre, infinite at its outer nodes
    with pytest.raises(QuadratureError, match=r"not finite inside \(0.0, 1.0\)"):
        quad(lambda x: math.inf if x > 0.9 else 1.0, 0.0, 1.0)


def test_budget_exhaustion_carries_partial_result():
    f = lambda x: math.sin(1.0 / (x + 1e-12)) / math.sqrt(x + 1e-12)
    with pytest.raises(QuadratureError) as exc_info:
        quad(f, 0.0, 1.0, abs_tol=1e-15, rel_tol=1e-15, max_panels=4)
    partial = exc_info.value.result
    assert partial is not None
    assert partial.error_estimate > 0.0
    assert partial.evaluations >= 15


def test_tolerance_honored_on_smooth_integrand():
    # oracle: integral of exp over [0, 2] is e^2 - 1
    want = math.e ** 2 - 1.0
    r = quad(math.exp, 0.0, 2.0, abs_tol=1e-12, rel_tol=1e-12)
    assert abs(r.value - want) <= max(1e-12, 1e-11 * want)


def test_default_budget_exhaustion_is_quick():
    # 10,000 panels: the first one plus 9,999 bisections of two panels each
    start = time.perf_counter()
    with pytest.raises(QuadratureError, match="panel budget 10000 exhausted") as exc_info:
        quad(lambda x: math.sin(1.0 / x), 1e-6, 1.0, abs_tol=1e-15, rel_tol=1e-15)
    assert time.perf_counter() - start < 2.0
    assert exc_info.value.result.evaluations == 299_985


@pytest.mark.parametrize("a, b, abs_tol, rel_tol", [
    (0.0, math.inf, 1e-10, 1e-9),
    (-math.inf, 0.0, 1e-10, 1e-9),
    (0.0, 1.0, math.nan, 1e-9),
    (0.0, 1.0, 1e-10, math.nan),
    (0.0, 1.0, -1e-10, 1e-9),
    (0.0, 1.0, 1e-10, -1e-9),
    ("0", "1", 1e-10, 1e-9),
    (0.0, 1.0, None, 1e-9),
    pytest.param(0.0, 10 ** 400, 1e-10, 1e-9, id="past-double-range"),
    pytest.param(10 ** 400, 10 ** 400 + 1, 1e-10, 1e-9,
                 id="narrow-past-double-range"),
])
def test_invalid_input_rejected_before_evaluation(a, b, abs_tol, rel_tol):
    calls = []
    with pytest.raises(InvalidInterval):
        quad(lambda x: calls.append(x) or 1.0, a, b, abs_tol=abs_tol, rel_tol=rel_tol)
    assert calls == []


@pytest.mark.parametrize("max_panels", [0, -5, "5"])
def test_non_positive_panel_budget_rejected_before_evaluation(max_panels):
    calls = []
    with pytest.raises(InvalidInterval):
        quad(lambda x: calls.append(x) or 1.0, 0.0, 1.0, max_panels=max_panels)
    assert calls == []


@pytest.mark.parametrize("max_panels", [math.inf, 1.5, math.nan, None])
def test_panel_budget_that_is_not_an_integer_is_rejected_before_evaluation(
        max_panels):
    # a budget of inf once let this pass bisect until the integrand stopped it
    calls = []

    def f(x):
        calls.append(x)
        if len(calls) > 300:
            raise RuntimeError("quad went on bisecting")
        return math.sin(1.0 / x)

    with pytest.raises(InvalidInterval, match="integer panel budget"):
        quad(f, 1e-6, 1.0, abs_tol=0, rel_tol=0, max_panels=max_panels)
    assert calls == []


def test_integer_like_panel_budget_is_taken_as_its_integer():
    f = lambda x: math.sin(1.0 / x)
    with pytest.raises(QuadratureError) as want:
        quad(f, 1e-3, 1.0, max_panels=4)
    with pytest.raises(QuadratureError, match="panel budget 4 exhausted") as got:
        quad(f, 1e-3, 1.0, max_panels=np.int64(4))
    assert got.value.result == want.value.result


def test_width_past_double_range_is_named_before_evaluation():
    calls = []
    with pytest.raises(WidthOverflow, match="width b - a") as exc_info:
        quad(lambda x: calls.append(x) or 1.0, -1e308, 1e308)
    assert isinstance(exc_info.value, InvalidInterval) and calls == []
    # a set mean or a double integral on such a window stays a DomainError,
    # which names the width and chains the WidthOverflow
    lebesgue = dataclasses.replace(catalog("lebesgue"), cdf=None,
                                   antiderivative=None)
    H = normalize([(-1e308, 1e308)])
    for call in (lambda: mean(lebesgue, H), lambda: lebesgue.mu(H),
                 lambda: lebesgue.integrate(H),
                 lambda: double_integral_mean(lebesgue, -1e308, 1e308)):
        with pytest.raises(DomainError, match=r"overflows.*width b - a in "
                           r"double range, got inf") as exc_info:
            call()
        assert isinstance(exc_info.value.__cause__, WidthOverflow)


def test_converged_first_panel_runs_the_panel_once():
    table = PanelSums(lambda x: x * x)
    mass = table.mass
    panels = []
    panel = mass.panel
    mass.panel = lambda lo, hi: panels.append((lo, hi)) or panel(lo, hi)
    r = quad(mass, 1.0, 2.0)
    assert panels == [(1.0, 2.0)]
    assert r.evaluations == 15
    assert abs(r.value - 7.0 / 3.0) <= 1e-15


def test_one_panel_budget_missed_raises_with_the_panel():
    f = lambda x: math.sin(1.0 / x)
    first = quad(f, 1e-3, 1.0, abs_tol=1e300, rel_tol=0.0)
    assert first.evaluations == 15
    assert first.error_estimate > max(1e-10, 1e-9 * abs(first.value))
    with pytest.raises(QuadratureError) as exc_info:
        quad(f, 1e-3, 1.0, max_panels=1)
    assert isinstance(exc_info.value.result, QuadratureResult)
    assert exc_info.value.result == first


def test_panels_too_narrow_to_bisect_end_the_pass():
    # a jump at 0.5 on two ulps: the first bisection leaves two one-ulp
    # panels, whose midpoints round to an end, so nothing is left to refine
    with pytest.raises(QuadratureError,
                       match="every panel left is too narrow to bisect") as exc_info:
        quad(lambda x: math.copysign(1.0, x - 0.5), math.nextafter(0.5, 0.0),
             math.nextafter(0.5, 1.0), abs_tol=0, rel_tol=0)
    partial = exc_info.value.result
    assert partial.evaluations == 45 and partial.error_estimate > 0.0
    # a jump on a panel that bisects exactly at it: both halves are exact
    r = quad(lambda x: math.copysign(1.0, x - 0.5), 0.5 - 2 ** -40,
             0.5 + 2 ** -40, abs_tol=0, rel_tol=0)
    assert (r.value, r.error_estimate, r.evaluations) == (0.0, 0.0, 45)


def test_result_is_an_immutable_record():
    r = quad(math.exp, 0.0, 1.0)
    assert abs(r.value - (math.e - 1.0)) <= 1e-15
    assert 0.0 <= r.error_estimate <= 1e-10 and r.evaluations == 15
    with pytest.raises(AttributeError):
        r.value = 0.0


def test_panel_table_passes_share_density_evaluations(monkeypatch):
    calls = []
    table = PanelSums(lambda x: calls.append(x) or math.exp(x))
    mass = quad(table.mass, 0.0, 2.0)
    assert mass == quad(math.exp, 0.0, 2.0)
    moment = quad(table.moment, 0.0, 2.0)
    assert moment.value == quad(lambda x: x * math.exp(x), 0.0, 2.0).value
    # every density evaluation is counted by exactly one pass
    assert len(calls) == mass.evaluations + moment.evaluations
    assert len(calls) == len(set(calls))

    # the same over a double integral's mass, inner and outer passes
    results = []

    def counted_quad(*args, **kwargs):
        results.append(quad(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(means, "quad", counted_quad)
    g = catalog("geometric")
    spec = dataclasses.replace(g, cdf=None, antiderivative=None,
                               density=lambda x: calls.append(x) or g.density(x))
    calls.clear()
    assert double_integral_mean(spec, 0.1002, 5.09) == pytest.approx(
        0.7141554452638444, abs=1e-7)
    assert len(results) > 2
    assert len(calls) == sum(r.evaluations for r in results)
    assert len(calls) == len(set(calls))

    # the outer pass is the plain pass of g(y) w(y) to the bit, and each
    # inner pass is the plain pass of (x + y) w(x) / 2 up to rounding
    w, a, b = g.density, 0.1002, 5.09
    table = PanelSums(w)
    outer = lambda y: math.sin(y) + 2.0
    assert quad(table.outer(outer), a, b) == quad(lambda y: outer(y) * w(y), a, b)
    rng = random.Random(0)
    for _ in range(40):
        y = rng.uniform(a, b)
        plain = quad(lambda x: 0.5 * (x + y) * w(x), a, b).value
        assert quad(table.inner(y), a, b).value == pytest.approx(plain, rel=1e-14)


def _inner_through_a_call(table, y):
    """The inner pass read through ``quad``'s generic loop, one call per
    panel: the reference for ``quad``'s own loop over ``table.inner(y)``."""
    rows, density = table._rows, table._density

    def panel(lo, hi):
        row = rows.get((lo, hi))
        made = 0
        if row is None:
            row = rows[lo, hi] = _new_row(density, lo, hi)
            made = 15
        k0, d0 = row[3]
        k1, d1 = row[4] or _moment_sums(row, lo, hi)
        return 0.5 * (k1 + y * k0), 0.5 * abs(d1 + y * d0), made
    return _Pass(panel)


def _outcome(call):
    """``repr`` of a result, or of an error and its partial result."""
    try:
        return repr(call())
    except QuadratureError as exc:
        return f"{exc!r} {exc.result!r}"


# windows across 0 give negative ys, and a symmetric one y = 0.0 at its
# centre node; a window two ulps wide has panels too narrow to bisect (its
# start chosen so that some passes there miss the zero tolerance)
_INNER_WINDOWS = {"lebesgue": [(-3.0, 5.0), (-3.0, 3.0)],
                  "exponential": [(-3.0, 2.0), (-2.0, 2.0)]}
_NARROW_AT = {"geometric": 2.3}


@pytest.mark.parametrize("name", CATALOG_NAMES)
@pytest.mark.parametrize("fresh", [False, True])
def test_inner_pass_read_in_place_matches_a_call_per_panel(name, fresh):
    density = catalog(name).density
    c = _NARROW_AT.get(name, 3.7)
    windows = _INNER_WINDOWS.get(name, [(1.0, 4.0), (0.5, 50.0)])
    tolerances = [{}, {"abs_tol": 1e-11, "rel_tol": 1e-10},
                  {"abs_tol": 0.0, "rel_tol": 0.0, "max_panels": 7}]
    rng = random.Random(5)
    seen = ""
    for a, b in windows + [(c, c + 2 * math.ulp(c))]:
        # the outer pass's first nodes, and some more
        center, half = 0.5 * (a + b), 0.5 * (b - a)
        ys = [center + half * t for t in _T] + [rng.uniform(a, b) for _ in range(8)]
        outcomes, calls = [], []
        for inner in (PanelSums.inner, _inner_through_a_call):
            out, evaluated = [], []
            table = PanelSums(lambda x: evaluated.append(x) or density(x))
            if not fresh:  # as in a double integral: rows without x w sums
                quad(table.mass, a, b)
            for kw in tolerances:
                for y in ys:
                    out.append(_outcome(lambda: quad(inner(table, y), a, b, **kw)))
            outcomes.append(out)
            calls.append(evaluated)
        assert outcomes[0] == outcomes[1], (a, b)
        assert calls[0] == calls[1] and calls[0], (a, b)
        seen += "".join(outcomes[0])
    assert "every panel left is too narrow to bisect" in seen
    if name != "lebesgue":  # there (x + y) / 2 is exact on one panel
        assert "panel budget 7 exhausted" in seen
