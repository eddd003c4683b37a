"""Measure catalog: closed forms, quadrature fallback, ratio certificates."""

import dataclasses
import math
import random

import numpy as np
import pytest

from meanmeasure import (
    CATALOG_NAMES,
    EMPTY,
    DomainError,
    InvalidInterval,
    MeasureSpec,
    QuadratureError,
    UnknownMeasure,
    catalog,
    certify_leq,
    density_ratio_increasing,
    double_integral_mean,
    m_bound,
    mean,
    normalize,
    ordinary,
    quad,
    random_interval_union,
)
from meanmeasure import measures
from meanmeasure.errors import WidthOverflow
from meanmeasure.quadrature import PanelSums, _meets
from meanmeasure.construct import build, ordinary_mean
from meanmeasure.verify import _WINDOWS as VERIFY_WINDOWS
from meanmeasure.verify import run_suites

E2 = math.e ** 2

# closed-form set measures used as oracles throughout
mu_geometric = lambda a, b: (1.0 / math.sqrt(a) - 1.0 / math.sqrt(b)) / E2
mu_harmonic = lambda a, b: 1.0 / a ** 2 - 1.0 / b ** 2

# sampling windows that stay inside each catalog domain
WINDOWS = {
    "lebesgue": (-20.0, 20.0),
    "exponential": (-5.0, 5.0),
    "geometric": (0.1, 50.0),
    "harmonic": (0.1, 50.0),
    "logarithmic": (0.1, 50.0),
    "square": (0.1, 50.0),
}


def test_catalog_names_and_unknown():
    assert set(CATALOG_NAMES) == {
        "lebesgue", "geometric", "harmonic", "logarithmic", "square",
        "exponential",
    }
    with pytest.raises(UnknownMeasure):
        catalog("cauchy")


@pytest.mark.parametrize("call", [
    lambda: catalog(["x"]),
    lambda: catalog(3),
    lambda: run_suites([["x"]]),
    lambda: run_suites(5),
    lambda: ordinary_mean(3),
    lambda: ordinary_mean(["power:2"]),
], ids=["catalog-list", "catalog-int", "run_suites-list", "run_suites-int",
        "ordinary_mean-int", "ordinary_mean-list"])
def test_a_name_that_is_not_a_string_is_unknown(call):
    with pytest.raises(UnknownMeasure, match="choose"):
        call()


def test_catalog_returns_one_shared_value_per_name():
    specs = [catalog(name) for name in CATALOG_NAMES]
    assert [s.name for s in specs] == list(CATALOG_NAMES)
    for name, spec in zip(CATALOG_NAMES, specs):
        assert catalog(name) is spec
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.name = "other"


def test_geometric_closed_forms():
    g = catalog("geometric")
    for x in (0.5, 1.0, 2.0, 10.0):
        assert g.density(x) == pytest.approx(1.0 / (2.0 * E2 * x * math.sqrt(x)),
                                             rel=1e-15)
        assert g.cdf(x) == pytest.approx((1.0 - 1.0 / math.sqrt(x)) / E2,
                                         rel=1e-14, abs=1e-18)
        assert g.antiderivative(x) == pytest.approx(
            (math.sqrt(x) - 1.0) ** 2 / E2, rel=1e-14, abs=1e-18)
    assert g.density_shape == "decreasing"


def test_harmonic_and_logarithmic_closed_forms():
    h = catalog("harmonic")
    assert h.density(2.0) == pytest.approx(2.0 / 8.0, rel=1e-15)
    assert h.cdf(2.0) == pytest.approx(1.0 - 0.25, rel=1e-15)
    assert h.antiderivative(2.0) == pytest.approx(0.5, rel=1e-15)
    lg = catalog("logarithmic")
    assert lg.density(4.0) == pytest.approx(0.25, rel=1e-15)
    assert lg.cdf(4.0) == pytest.approx(math.log(4.0), rel=1e-15)
    assert lg.antiderivative(4.0) == pytest.approx(4.0 * math.log(4.0) - 3.0,
                                                   rel=1e-15)


def test_mu_examples():
    # oracle: paper-style closed form for the geometric measure of [1, 4]
    assert catalog("geometric").mu(normalize([(1, 4)])) == pytest.approx(
        0.06766764161830635, rel=1e-13)
    assert catalog("lebesgue").mu(normalize([(0, 1), (2, 4)])) == 3.0
    assert catalog("harmonic").mu(normalize([(1, 2)])) == pytest.approx(
        0.75, rel=1e-13)


def test_mu_takes_no_moment(monkeypatch):
    g = catalog("geometric")
    H = normalize([(1.0, 2.0), (3.0, 5.0), (6.0, 7.0)])
    calls = {"cdf": 0, "antiderivative": 0, "quad": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    spec = dataclasses.replace(
        g, cdf=counted("cdf", g.cdf),
        antiderivative=counted("antiderivative", g.antiderivative))
    assert spec.mu(H) == g.integrate(H)[0]
    assert calls == {"cdf": 6, "antiderivative": 0, "quad": 0}
    monkeypatch.setattr(measures, "quad", counted("quad", quad))
    density_only = dataclasses.replace(g, cdf=None, antiderivative=None)
    mass = density_only.mu(H)
    assert calls["quad"] == 3  # one per interval
    assert mass == density_only.integrate(H)[0]


def test_first_moment_examples():
    assert catalog("lebesgue").first_moment(normalize([(0, 2)])) == \
        pytest.approx(2.0, rel=1e-13)
    # oracle: integral of x w(x) over [1, 4] is (sqrt(4) - sqrt(1)) / e^2
    assert catalog("geometric").first_moment(normalize([(1, 4)])) == \
        pytest.approx(0.1353352832366127, rel=1e-13)
    # oracle: 2 (b - a) / (a b) at (1, 2)
    assert catalog("harmonic").first_moment(normalize([(1, 2)])) == \
        pytest.approx(1.0, rel=1e-13)


def test_quadrature_fallback_matches_closed_form():
    g = catalog("geometric")
    density_only = MeasureSpec(name="geometric-density-only",
                               domain=g.domain, density=g.density)
    H = normalize([(1, 4), (9, 16)])
    want = mu_geometric(1, 4) + mu_geometric(9, 16)
    assert density_only.mu(H) == pytest.approx(want, rel=1e-9)
    moment_want = (math.sqrt(4) - 1 + math.sqrt(16) - math.sqrt(9)) / E2
    assert density_only.first_moment(H) == pytest.approx(moment_want, rel=1e-9)


# sets drawn for the quadrature err test: the windows meanmeasure's verify
# suites draw from, two of them across 0
ERR_WINDOWS = {"lebesgue": (-50.0, 50.0), "exponential": (-5.0, 5.0)}
# median err over actual error per measure.  Where the rounding of the
# moment sets err (lebesgue, square) it stays within 100, the usefulness aim.
# Elsewhere other terms set it, 139 for exponential (mean's own 4 eps |value|)
# and 6e4 to 1e6 for geometric, harmonic and logarithmic (quad's
# |Kronrod - Gauss| estimate); these bounds keep it from growing further.
ERR_MEDIAN_BOUND = {"lebesgue": 100.0, "square": 100.0, "exponential": 200.0,
                    "geometric": 1e7, "harmonic": 1e7, "logarithmic": 1e7}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_quadrature_err_bounds_the_error(name):
    # a moment that cancels across 0 must carry its own rounding in err
    mp = pytest.importorskip("mpmath")
    spec = dataclasses.replace(catalog(name), cdf=None, antiderivative=None)
    # the catalog's primitives, evaluated in mpmath
    f = {"lebesgue": lambda x: x, "square": lambda x: x * x,
         "exponential": mp.exp, "logarithmic": mp.log,
         "geometric": lambda x: (1 - 1 / mp.sqrt(x)) / mp.e ** 2,
         "harmonic": lambda x: 1 - 1 / (x * x)}[name]
    F = {"lebesgue": lambda x: x * x / 2, "square": lambda x: x ** 3 / 3,
         "exponential": mp.exp, "logarithmic": lambda x: x * mp.log(x) - x,
         "geometric": lambda x: (mp.sqrt(x) - 1) ** 2 / mp.e ** 2,
         "harmonic": lambda x: x - 2 + 1 / x}[name]
    rng = random.Random(0)
    ratios = []
    with mp.workdps(40):
        for _ in range(1000):
            H = random_interval_union(rng, ERR_WINDOWS.get(name, (0.1, 100.0)), 8)
            r = mean(spec, H)
            mass = moment = mp.mpf(0)
            for lo, hi in H:
                a, b = mp.mpf(lo), mp.mpf(hi)
                mass += f(b) - f(a)
                moment += b * f(b) - a * f(a) - (F(b) - F(a))
            actual = float(abs(r.value - moment / mass))
            assert actual <= r.err, (H, actual, r.err)
            ratios.append(r.err / actual if actual else math.inf)
    assert np.median(ratios) <= ERR_MEDIAN_BOUND[name]


def _two_quad_passes(density, H, with_moment=True):
    """Mass, mass error, moment and moment error of ``H`` from one panel table
    and two ``quad`` passes per interval (one without the moment): the loop
    mean's quadrature path ran before its moment read the first panel from
    the mass pass's row."""
    table = PanelSums(density)
    mass = mass_err = moment = moment_err = 0.0
    for lo, hi in H:
        r = quad(table.mass, lo, hi)
        mass += r.value
        mass_err += r.error_estimate + measures._EPS * abs(r.value)
        if with_moment:
            m = quad(table.moment, lo, hi)
            moment += m.value
            moment_err += (m.error_estimate
                           + measures._EPS * max(abs(lo), abs(hi)) * r.value)
    return mass, mass_err, moment, moment_err


def _value_and_err(mass, mass_err, moment, moment_err):
    """``mean``'s value and error bound from a set's sums."""
    value = moment / mass
    return value, ((moment_err + abs(value) * mass_err) / mass
                   + 4.0 * measures._EPS * abs(value))


# unions on which both the mass and the moment pass bisect
BISECTING = {
    "harmonic": [[(0.1, 0.3), (0.4, 5.0), (6.0, 90.0)], [(0.1, 100.0)]],
    "geometric": [[(0.1, 0.2), (0.3, 5.0), (6.0, 99.0)], [(0.1, 100.0)]],
    "exponential": [[(690.0, 699.5), (699.8, 700.5)]],
}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_shared_panels_match_two_quad_passes(name):
    # mean's mass and moment passes read one panel table; each must give
    # what its own quad pass over a plain integrand gives, bit for bit, and
    # mean, integrate and mu must give what two quad passes over one table
    # give, with the density called at the same points in the same order
    base = catalog(name)
    w = base.density
    calls = []
    spec = dataclasses.replace(base, cdf=None, antiderivative=None,
                               density=lambda x: calls.append(x) or w(x))
    rng = random.Random(3)
    unions = [random_interval_union(rng, ERR_WINDOWS.get(name, (0.1, 100.0)), 8)
              for _ in range(50)]
    for pairs in BISECTING.get(name, []):
        H = normalize(pairs)
        assert any(quad(w, lo, hi).evaluations > 15 for lo, hi in H), pairs
        assert any(quad(lambda x: x * w(x), lo, hi).evaluations > 15
                   for lo, hi in H), pairs
        unions.append(H)
    for H in unions:
        mass = mass_err = moment = moment_err = 0.0
        for lo, hi in H:
            r = quad(w, lo, hi)
            m = quad(lambda x: x * w(x), lo, hi)
            mass += r.value
            mass_err += r.error_estimate + measures._EPS * r.value
            moment += m.value
            moment_err += (m.error_estimate
                           + measures._EPS * max(abs(lo), abs(hi)) * r.value)
        got = mean(spec, H)
        assert (got.value, got.err) == _value_and_err(
            mass, mass_err, moment, moment_err), H

        calls.clear()
        mass_only = _two_quad_passes(spec.density, H, with_moment=False)[0]
        mass_calls = calls[:]
        calls.clear()
        sums = _two_quad_passes(spec.density, H)
        want_calls = calls[:]
        value, err = _value_and_err(*sums)
        mass, mass_err, moment, moment_err = sums
        for c, s in ((1.0, spec), (3.0, spec.scaled(3.0))):
            calls.clear()
            assert tuple(mean(s, H)) == (value, c * mass, c * moment, err), (c, H)
            assert calls == want_calls, (c, H)
            calls.clear()
            assert s.integrate(H) == (c * mass, c * mass_err,
                                      c * moment, c * moment_err), (c, H)
            assert calls == want_calls, (c, H)
            calls.clear()
            assert s.mu(H) == c * mass_only, (c, H)
            assert calls == mass_calls, (c, H)


def test_moment_missing_its_first_panel_goes_through_quad(monkeypatch):
    # on [-15, -7] the first panel of e^x meets quad's default tolerance and
    # that of x e^x misses it: the moment pass there is a quad call, and
    # mean gives the bits of two quad passes over one table
    calls = []
    monkeypatch.setattr(measures, "quad",
                        lambda fn, lo, hi: calls.append((lo, hi)) or quad(fn, lo, hi))
    spec = dataclasses.replace(catalog("exponential"), cdf=None,
                               antiderivative=None)
    H = normalize([(-15.0, -7.0), (1.0, 2.0)])
    table = PanelSums(spec.density)
    assert quad(table.mass, -15.0, -7.0).evaluations == 15
    assert quad(table.moment, -15.0, -7.0).evaluations > 0
    sums = _two_quad_passes(spec.density, H)
    value, err = _value_and_err(*sums)
    assert tuple(mean(spec, H)) == (value, sums[0], sums[2], err)
    # a mass pass per interval, and a moment pass where the first panel missed
    assert calls == [(-15.0, -7.0), (-15.0, -7.0), (1.0, 2.0)]


def test_mean_evaluates_the_density_once_per_node():
    g = catalog("geometric")
    calls = [0]

    def w(x):
        calls[0] += 1
        return g.density(x)

    spec = dataclasses.replace(g, cdf=None, antiderivative=None, density=w)
    H = normalize([(1.0, 2.0), (3.0, 5.0), (6.0, 7.0)])
    spec.mu(H)
    assert calls[0] == 45
    calls[0] = 0
    mean(spec, H)
    assert calls[0] == 45


def test_mu_never_forms_the_moment():
    # x e^x overflows on [700, 709] where e^x itself does not
    spec = dataclasses.replace(catalog("exponential"), cdf=None,
                               antiderivative=None)
    H = normalize([(700.0, 709.0)])
    assert spec.mu(H) == pytest.approx(math.exp(709.0) - math.exp(700.0),
                                       rel=1e-9)
    with pytest.raises(QuadratureError):
        mean(spec, H)


# the three tests below seed their generators from (test, catalog position):
# a str hash is salted per process, so a failure seeded by it never replays
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_density_integrates_to_cdf_difference(name):
    spec = catalog(name)
    lo, hi = WINDOWS[name]
    rng = np.random.default_rng([0, CATALOG_NAMES.index(name)])
    for _ in range(200):
        a, b = np.sort(rng.uniform(lo, hi, size=2))
        if b - a < 1e-6:
            continue
        want = spec.cdf(b) - spec.cdf(a)
        got = quad(spec.density, float(a), float(b)).value
        assert abs(got - want) <= max(1e-9, 1e-8 * abs(want))


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_moment_closed_form_matches_quadrature(name):
    spec = catalog(name)
    lo, hi = WINDOWS[name]
    rng = np.random.default_rng([1, CATALOG_NAMES.index(name)])
    for _ in range(200):
        a, b = np.sort(rng.uniform(lo, hi, size=2))
        if b - a < 1e-6:
            continue
        H = normalize([(a, b)])
        want = spec.first_moment(H)
        got = quad(lambda x: x * spec.density(x), float(a), float(b)).value
        assert abs(got - want) <= max(1e-9, 1e-8 * abs(want))


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_mu_additive_and_positive(name):
    spec = catalog(name)
    lo, hi = WINDOWS[name]
    rng = np.random.default_rng([2, CATALOG_NAMES.index(name)])
    for _ in range(100):
        pts = np.sort(rng.uniform(lo, hi, size=4))
        A = normalize([(pts[0], pts[1])])
        B = normalize([(pts[2], pts[3])])
        if A.is_empty or B.is_empty or not A.is_disjoint_from(B):
            continue
        whole = spec.mu(A.union(B))
        assert whole > 0.0
        assert abs(whole - spec.mu(A) - spec.mu(B)) <= 1e-12 * (1.0 + abs(whole))


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_primitive_consistency(name, two_route_misses):
    # closed forms and quadrature of the density agree within their bounds
    assert two_route_misses(catalog(name), VERIFY_WINDOWS[name]) == []


def test_two_routes_catch_a_density_off_by_one_part_in_a_billion(
        two_route_misses):
    # a constant factor moves the masses, though it moves no mean
    g = catalog("geometric")
    off = dataclasses.replace(g, density=lambda x: (1.0 + 1e-9) * g.density(x))
    assert len(two_route_misses(off, VERIFY_WINDOWS["geometric"], sets=100)) >= 90


def test_domain_is_enforced():
    g = catalog("geometric")
    with pytest.raises(DomainError):
        g.mu(normalize([(-1.0, 2.0)]))
    with pytest.raises(DomainError):
        g.mu(normalize([(0.0, 1.0)]))  # touches the open boundary


def test_float_overflow_is_reported():
    # e^710 exceeds the double range; the catalog domain is all of R, so
    # this must surface as an explicit error rather than a NaN mean
    with pytest.raises(DomainError):
        catalog("exponential").mu(normalize([(700.0, 710.0)]))


def test_primitive_dividing_by_an_underflow_is_reported():
    # harmonic's cdf 1 - 1 / (x * x): x * x underflows to 0 here
    harmonic, H = catalog("harmonic"), normalize([(1e-200, 1e-100)])
    with pytest.raises(DomainError, match="overflows"):
        harmonic.mu(H)
    with pytest.raises(DomainError, match="overflows"):
        harmonic.integrate(H)


@pytest.mark.parametrize("name, pairs, cause", [
    ("exponential", [(1000.0, 1001.0)], OverflowError),  # e^1000
    ("harmonic", [(1e-200, 2e-200)], ZeroDivisionError),  # 1 / (x * x)
    ("square", [(1e103, 2e103)], OverflowError),  # x ** 3
])
def test_overflow_names_its_cause(name, pairs, cause):
    with pytest.raises(DomainError) as info:
        mean(catalog(name), normalize(pairs))
    assert str(info.value) == (f"mass or first moment of {name!r} overflows "
                               "double precision on this set")
    assert type(info.value.__cause__) is cause


# each window below once raised a bare ValueError, ZeroDivisionError or
# OverflowError from a density or a primitive


def test_ratio_window_outside_the_domain_is_a_domain_error():
    with pytest.raises(DomainError, match="domain"):
        density_ratio_increasing(catalog("geometric"), catalog("lebesgue"),
                                 (-1.0, 1.0))


def test_ratio_window_touching_the_domain_edge_is_a_domain_error():
    with pytest.raises(DomainError, match="domain"):
        density_ratio_increasing(catalog("harmonic"), catalog("lebesgue"),
                                 (0.0, 1.0))


def test_ratio_density_past_double_range_is_a_domain_error():
    with pytest.raises(DomainError, match="double range"):
        density_ratio_increasing(catalog("exponential"), catalog("lebesgue"),
                                 (700.0, 800.0))


_G, _LEB = catalog("geometric"), catalog("lebesgue")
# each function that takes a window, called on a window ``w``
_WINDOW_TAKERS = {
    "density_ratio_increasing": lambda w: density_ratio_increasing(_G, _LEB, w),
    "m_bound": lambda w: m_bound(_G, w),
    "certify_leq": lambda w: certify_leq(_G, _LEB, w, rng=0),
    "ordinary": lambda w: ordinary(_G, *w),
    "double_integral_mean": lambda w: double_integral_mean(_G, *w),
}


_BAD_WINDOWS = {"reversed": (4, 1), "empty": (2, 2), "nan": (math.nan, 1),
                "non-number": ("x", 2), "three-ends": (1, 2, 3)}


# the last two take the ends as two arguments, so no 3-tuple reaches them;
# a non-number end once escaped as a bare TypeError, a 3-tuple as a ValueError
@pytest.mark.parametrize("name, bad", [
    (name, bad) for name in _WINDOW_TAKERS for bad in _BAD_WINDOWS
    if bad != "three-ends" or name not in ("ordinary", "double_integral_mean")
])
def test_bad_windows_are_invalid_intervals(name, bad):
    with pytest.raises(InvalidInterval):
        _WINDOW_TAKERS[name](_BAD_WINDOWS[bad])


# once a bare TypeError from range or a bare ValueError from randrange
@pytest.mark.parametrize("call", [
    lambda n: certify_leq(_G, _LEB, (0.1, 100.0), n_probe=n, rng=0),
    lambda n: certify_leq(_G, _LEB, (0.1, 100.0), n_random=n, rng=0),
    lambda n: certify_leq(_G, _LEB, (0.1, 100.0), rng=n),
    lambda n: density_ratio_increasing(_G, _LEB, (0.1, 100.0), n_probe=n),
    lambda n: random_interval_union(random.Random(0), (0.1, 100.0),
                                    min_intervals=n),
    lambda n: random_interval_union(random.Random(0), (0.1, 100.0),
                                    max_intervals=n),
], ids=["certify_leq-n_probe", "certify_leq-n_random", "certify_leq-seed",
        "density_ratio_increasing-n_probe", "random_interval_union-min",
        "random_interval_union-max"])
@pytest.mark.parametrize("count", [2.5, "3", -1])
def test_bad_counts_are_invalid_intervals(call, count):
    with pytest.raises(InvalidInterval):
        call(count)


def test_scaled_measure():
    g = catalog("geometric")
    g3 = g.scaled(3.0)
    H = normalize([(1, 4)])
    assert g3.mu(H) == pytest.approx(3.0 * g.mu(H), rel=1e-15)
    assert g3.first_moment(H) == pytest.approx(3.0 * g.first_moment(H), rel=1e-15)
    for c in (-1.0, "2", None):  # a string or None was once a bare TypeError
        with pytest.raises(DomainError, match="scale"):
            g.scaled(c)


def test_scaled_sums_past_double_range_are_domain_errors():
    # the base measure's sums are finite here; times 1e308 they are not
    spec, H = catalog("geometric").scaled(1e308), normalize([(1e-10, 2.0)])
    for call in (spec.mu, spec.integrate, lambda H: mean(spec, H)):
        with pytest.raises(DomainError, match="overflows"):
            call(H)


@pytest.mark.parametrize("name, window", [
    ("geometric", (1e-3, 1e308)),    # the squared mass underflows to 0
    ("harmonic", (1e-3, 1e308)),     # x ** 3 overflows
    ("logarithmic", (1e-3, 1e308)),  # an fsum overflows
    ("lebesgue", (-1e308, 1e308)),
])
def test_double_integral_past_double_range_is_a_domain_error(name, window):
    with pytest.raises(DomainError, match="overflows"):
        double_integral_mean(catalog(name), *window)


@pytest.mark.parametrize("name, window", [
    ("lebesgue", (1.1, 7.3)), ("square", (1.1, 7.3)), ("geometric", (3.3, 3.7)),
])
def test_quadrature_mass_err_covers_its_rounding(name, window):
    # Kronrod and Gauss agree here, so quad's own estimate is 0; the mass
    # pass adds the rounding of each interval's sum, as the moment pass does
    mp = pytest.importorskip("mpmath")
    spec = dataclasses.replace(catalog(name), cdf=None, antiderivative=None)
    f = {"lebesgue": lambda x: x, "square": lambda x: x * x,
         "geometric": lambda x: (1 - 1 / mp.sqrt(x)) / mp.e ** 2}[name]
    mass, mass_err, _, _ = spec.integrate(normalize([window]))
    with mp.workdps(40):
        a, b = mp.mpf(window[0]), mp.mpf(window[1])
        actual = float(abs(mass - (f(b) - f(a))))
    assert 0.0 < actual <= mass_err


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_scaled_measure_derives_its_callables(name):
    spec = catalog(name)
    H = random_interval_union(random.Random(5),
                              ERR_WINDOWS.get(name, (0.1, 100.0)), 4)
    with pytest.raises(ValueError):
        dataclasses.replace(spec.scaled(3.0), cdf=None, antiderivative=None)
    for derived in ({"name": "x"}, {"domain": (0.0, 1.0)},
                    {"density_shape": "none"}):
        with pytest.raises(ValueError):
            dataclasses.replace(spec.scaled(3.0), **derived)
    replaced = dataclasses.replace(spec.scaled(3.0), factor=2.0)
    twice = spec.scaled(2.0)
    assert mean(replaced, H) == mean(twice, H)
    assert replaced.name == twice.name == f"{name}*2"
    assert spec.scaled(3.0).scaled(2.0).name == f"{name}*6"
    assert (replaced.domain, replaced.density_shape) == \
        (spec.domain, spec.density_shape)
    x = H.supremum()
    assert (replaced.density(x), replaced.cdf(x), replaced.antiderivative(x)) == \
        (twice.density(x), twice.cdf(x), twice.antiderivative(x))
    # to drop the primitives, replace them on the base, then scale
    bare = dataclasses.replace(spec, cdf=None, antiderivative=None)
    got, want = mean(bare.scaled(3.0), H), mean(bare, H)
    assert (got.value, got.err) == (want.value, want.err)


def _outcome(call, *args):
    """``repr`` of a call's result, or the type and message of its error:
    two outcomes are equal when they agree bit for bit."""
    try:
        return repr(call(*args))
    except Exception as exc:
        return type(exc), str(exc)


def _kernel_sets(name, seed, n):
    """Seeded unions in the measure's window shifted by 0 to 1e300, sets near
    0 where the domain allows, and sets whose sums leave double range."""
    rng, floor = random.Random(seed), catalog(name).domain[0]
    sets = []
    for k in range(n):
        H = random_interval_union(rng, WINDOWS[name], 8)
        shift = 0.0 if k % 4 == 0 else 10.0 ** rng.uniform(0, 300)
        sets.append(H.translate(shift))
        if floor == 0.0:
            scale = 10.0 ** -rng.uniform(1, 320)
            sets.append(normalize([(lo * scale, hi * scale) for lo, hi in H]))
    sets += [normalize([(1000.0, 1001.0)]), normalize([(1e-200, 1e-100)]),
             normalize([(1e200, 2e200), (3e200, 4e200)]),
             normalize([(2.0, 3.0), (1e160, 1e161)]),
             normalize([(1e17, 1e17 + 16.0)])]
    return [H for H in sets if H.intervals and H.intervals[0][0] > floor]


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_kernel_matches_its_primitives_bit_for_bit(name):
    # a catalog spec sums a set in one kernel call; a copy whose primitives
    # are new callables over the same ones sums it endpoint by endpoint
    spec = catalog(name)
    f, F = spec.cdf, spec.antiderivative
    wrapped = dataclasses.replace(spec, cdf=lambda x: f(x),
                                  antiderivative=lambda x: F(x))
    calls = (lambda s, H: mean(s, H), lambda s, H: s.mu(H),
             lambda s, H: s.integrate(H), lambda s, H: s.scaled(3.0).integrate(H),
             lambda s, H: s.scaled(1e300).mu(H))
    errors = 0
    for H in _kernel_sets(name, CATALOG_NAMES.index(name), 120):
        for call in calls:
            got, want = _outcome(call, spec, H), _outcome(call, wrapped, H)
            assert got == want, (H, got, want)
            errors += isinstance(got, tuple)
    assert errors > 0  # the error cases were reached


def _per_call_integrate(self, H, with_moment):
    """``MeasureSpec._integrate`` choosing its path on every call, as it did
    before each spec chose one when made: the reference for that choice."""
    pairs = H.intervals
    if pairs and not (pairs[0][0] > self.domain[0]
                      and pairs[-1][1] < self.domain[1]):
        self.require_domain(H)  # raises
    eps = measures._EPS
    mass = mass_err = moment = moment_err = 0.0
    f, F = self.cdf, self.antiderivative
    cm = self.construction
    kernel = measures._KERNELS.get(id(f))
    try:
        if kernel is not None and kernel[0] is f and kernel[1] is F:
            mass, mass_err, moment, moment_err = kernel[2](pairs, with_moment)
        elif f is None or F is None:
            table = PanelSums(self.density)
            mass_pass, moment_pass = table.mass, table.moment
            for lo, hi in pairs:
                value, err, _ = quad(mass_pass, lo, hi)
                mass += value
                mass_err += err + eps * abs(value)
                if with_moment:
                    m, m_err, _ = moment_pass.panel(lo, hi)
                    if not _meets(m, m_err):
                        m, m_err, _ = quad(moment_pass, lo, hi)
                    moment += m
                    moment_err += m_err + eps * max(abs(lo), abs(hi)) * value
        else:
            at = (cm._eval if f == getattr(cm, "f", None)
                  and F == getattr(cm, "F", None) else None)
            for lo, hi in pairs:
                if at is not None:
                    (flo, Flo, _, _), (fhi, Fhi, _, _) = at(lo), at(hi)
                else:
                    flo, fhi = f(lo), f(hi)
                mass += fhi - flo
                mass_err += eps * (abs(fhi) + abs(flo))
                if with_moment:
                    if at is None:
                        Flo, Fhi = F(lo), F(hi)
                    moment += hi * fhi - lo * flo - (Fhi - Flo)
                    moment_err += eps * (abs(hi * fhi) + abs(lo * flo)
                                         + abs(Fhi) + abs(Flo))
    except WidthOverflow as exc:
        raise DomainError(f"mass or first moment of {self.name!r} overflows "
                          f"double precision on this set: {exc}") from exc
    except (OverflowError, ZeroDivisionError):
        mass = math.inf
    if not (math.isfinite(mass) and math.isfinite(moment)):
        raise DomainError(f"mass or first moment of {self.name!r} "
                          "overflows double precision on this set")
    return mass, mass_err, moment, moment_err


def test_path_chosen_at_construction_matches_the_per_call_choice(monkeypatch):
    cases = []
    for name in CATALOG_NAMES:
        spec = catalog(name)
        sets = _kernel_sets(name, 40 + CATALOG_NAMES.index(name), 6) + [EMPTY]
        wrapped = dataclasses.replace(spec, cdf=lambda x, f=spec.cdf: f(x))
        cases += [(s, sets) for s in (spec, wrapped, spec.scaled(3.0))]
        # quadrature spends its panel budget (0.2 s) on sets at 1e160 and past
        near = [H for H in sets if H.is_empty or H.supremum() < 1e150]
        cases.append((dataclasses.replace(spec, cdf=None, antiderivative=None), near))
    geometric, harmonic = (build(ordinary_mean(m), (0.25, 64.0))
                           for m in ("geometric", "harmonic"))
    rng = random.Random(5)
    sets = [random_interval_union(rng, (0.3, 60.0), 6) for _ in range(20)]
    sets += [normalize([(0.7, 0.8), (1.0, 1.2)]), normalize([(0.1, 2.0)]), EMPTY]
    cases += [(s, sets) for s in (
        geometric, dataclasses.replace(geometric, construction=harmonic.construction))]
    calls = (mean, lambda s, H: s.mu(H), lambda s, H: s.integrate(H))

    def outcomes():
        return [_outcome(call, s, H) for s, sets in cases for H in sets
                for call in calls]

    got = outcomes()
    monkeypatch.setattr(MeasureSpec, "_integrate", _per_call_integrate)
    want = outcomes()
    assert got == want
    assert sum(isinstance(o, tuple) for o in got) > 50  # the error cases were reached


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_kernel_never_calls_the_density(name):
    # a copy with a new density keeps the entry's primitives, so its kernel
    spec = catalog(name)
    calls = []
    counted = dataclasses.replace(
        spec, density=lambda x: calls.append(x) or spec.density(x))
    for H in _kernel_sets(name, 7, 30):
        assert _outcome(mean, counted, H) == _outcome(mean, spec, H)
        assert _outcome(counted.integrate, H) == _outcome(spec.integrate, H)
    assert calls == []


@pytest.mark.parametrize("construction", ["built", object(), catalog("lebesgue")])
def test_a_construction_that_is_not_a_built_measure_is_absent(construction):
    # set sums call the primitives, as with no construction at all
    g = catalog("geometric")
    calls = []
    primitives = dict(cdf=lambda x: calls.append(x) or g.cdf(x),
                      antiderivative=lambda x: calls.append(x) or g.antiderivative(x))
    plain = MeasureSpec(name="g", domain=g.domain, density=g.density, **primitives)
    odd = dataclasses.replace(plain, construction=construction)
    H = normalize([(1.0, 2.0), (3.0, 5.0)])
    want = plain.integrate(H), mean(plain, H), plain.mu(H)
    calls.clear()
    assert (odd.integrate(H), mean(odd, H), odd.mu(H)) == want
    assert len(calls) == 8 + 8 + 4  # f and F at 4 endpoints twice, then f


@pytest.mark.parametrize("n_probe", [0, 1])
def test_ratio_needs_two_probe_points(n_probe):
    g, leb = catalog("geometric"), catalog("lebesgue")
    for numer, denom in [(g, leb), (leb, g)]:
        with pytest.raises(InvalidInterval):
            density_ratio_increasing(numer, denom, (0.1, 100.0), n_probe=n_probe)


# -- density-ratio certificates ------------------------------------------------


def test_ratio_lebesgue_over_geometric_certified():
    cert = density_ratio_increasing(catalog("lebesgue"), catalog("geometric"),
                                    (0.1, 100.0))
    assert cert.status == "certified"


def test_ratio_geometric_over_lebesgue_refuted():
    cert = density_ratio_increasing(catalog("geometric"), catalog("lebesgue"),
                                    (0.1, 100.0))
    assert cert.status == "refuted"
    x1, x2, r1, r2 = cert.witness
    assert x1 < x2 and r1 > r2


def test_ratio_geometric_over_harmonic_certified():
    # oracle: (1 / (2 e^2 x^1.5)) / (2 / x^3) = x^1.5 / (4 e^2), increasing
    cert = density_ratio_increasing(catalog("geometric"), catalog("harmonic"),
                                    (0.5, 50.0))
    assert cert.status == "certified"


def test_ratio_inconclusive_without_declared_shape():
    g = catalog("geometric")
    anon = MeasureSpec(name="anon", domain=g.domain, density=g.density,
                       cdf=g.cdf, antiderivative=g.antiderivative,
                       density_shape="none")
    cert = density_ratio_increasing(catalog("lebesgue"), anon, (0.1, 100.0))
    assert cert.status == "inconclusive"


def test_ratio_needs_a_declared_shape_not_any_string():
    # only "increasing" and "decreasing" declare a shape, as for m_bound
    leb = catalog("lebesgue")
    for shape in ("decreasnig", "whatever", "", None):
        typo = dataclasses.replace(catalog("geometric"), density_shape=shape)
        assert density_ratio_increasing(leb, typo, (0.1, 100.0)).status == \
            "inconclusive"
        assert density_ratio_increasing(typo, typo, (0.1, 100.0)).status == \
            "inconclusive"
        assert not m_bound(typo, (0.1, 100.0)).exact
    wavy = MeasureSpec(name="wavy", domain=(-math.inf, math.inf),
                       density=lambda x: 2.0 + math.sin(x),
                       density_shape="whatever")
    assert density_ratio_increasing(wavy, leb, (0.0, 1.0)).status == "inconclusive"


def test_ratio_probes_a_window_wider_than_double_range_inside_it():
    # the width 2e308 overflows; each probe must still be a finite point
    # of the window, for both densities
    seen = []
    numer, denom = (MeasureSpec(name=n, domain=(-math.inf, math.inf),
                                density=lambda x, c=c: seen.append(x) or c,
                                density_shape="increasing")
                    for n, c in (("two", 2.0), ("one", 1.0)))
    window = (-1e308, 1e308)
    for n_probe in (2, 3, 128, 1000):
        seen.clear()
        cert = density_ratio_increasing(numer, denom, window, n_probe=n_probe)
        assert cert.status == "certified"
        assert len(seen) == 2 * n_probe
        assert all(-1e308 <= x <= 1e308 for x in seen)
        assert seen[0] == -1e308 and seen[-1] == 1e308


def test_ratio_rejects_nonpositive_density():
    bad = MeasureSpec(name="signed", domain=(-10.0, 10.0),
                      density=lambda x: x, density_shape="increasing")
    with pytest.raises(DomainError):
        density_ratio_increasing(bad, catalog("lebesgue"), (-1.0, 1.0))
