"""Measure synthesis from a two-argument mean, and its inverse checks."""

import dataclasses
import itertools
import math
import random
import warnings

import numpy as np
import pytest

from meanmeasure import (
    DomainError,
    EmptySet,
    InvalidInterval,
    MeasureSpec,
    NotIncreasing,
    NotStrictlyInternal,
    NotSymmetric,
    OrdinaryMean,
    QuadratureError,
    UnknownMeasure,
    build,
    catalog,
    double_integral_mean,
    from_section,
    mean,
    normalize,
    ordinary_mean,
    quad,
    random_interval_union,
    reconstruct,
    uniqueness_check,
)
from meanmeasure import measures
from meanmeasure.construct import (
    _chebvander,
    _clenshaw,
    _log_slope_integral,
    _slope_series,
    _vals2coeffs,
)
from meanmeasure.measures import _linspace

E = math.e
WINDOW = (0.25, 64.0)

CLOSED_FORM_DENSITIES = {
    "geometric": lambda x: 1.0 / (2.0 * E ** 2 * x * math.sqrt(x)),
    "harmonic": lambda x: 2.0 / x ** 3,
    "logarithmic": lambda x: 1.0 / x,
}


@pytest.fixture(scope="module")
def built():
    return {name: build(ordinary_mean(name), WINDOW)
            for name in ("geometric", "harmonic", "logarithmic", "arithmetic")}


def test_ordinary_mean_factory():
    assert ordinary_mean("harmonic")(2.0, 6.0) == pytest.approx(3.0, rel=1e-15)
    assert ordinary_mean("power:2")(1.0, 7.0) == pytest.approx(5.0, rel=1e-15)
    assert ordinary_mean("power:0").name == "geometric"
    assert ordinary_mean("logarithmic")(1.0, E) == pytest.approx(E - 1.0,
                                                                 rel=1e-14)
    with pytest.raises(UnknownMeasure):
        ordinary_mean("median")
    for name in ("power:two", "power:nan", "power:inf", "power:-inf"):
        with pytest.raises(UnknownMeasure, match="exponent"):
            ordinary_mean(name)


def test_named_means_are_shared_values_and_power_means_are_built():
    for name in ("arithmetic", "geometric", "harmonic", "logarithmic"):
        k = ordinary_mean(name)
        assert k.name == name
        assert ordinary_mean(name) is k
    assert ordinary_mean("power:0") is ordinary_mean("geometric")
    assert ordinary_mean("power:2") is not ordinary_mean("power:2")


def test_round_trip_against_named_means(built):
    grid = np.linspace(0.5, 63.5, 12)
    for name in ("geometric", "harmonic", "logarithmic"):
        k = ordinary_mean(name)
        spec = built[name]
        for i in range(len(grid)):
            for j in range(i + 1, len(grid)):
                a, b = float(grid[i]), float(grid[j])
                assert reconstruct(spec, a, b) == pytest.approx(
                    k(a, b), rel=1e-6), (name, a, b)


def test_self_check_error_is_recorded(built):
    for name, spec in built.items():
        cm = spec.construction
        assert 0.0 <= cm.round_trip_max_rel_err <= 1e-6
        a, b = cm.round_trip_worst_pair
        want = ordinary_mean(name)(a, b)
        assert abs(reconstruct(spec, a, b) - want) / abs(want) == \
            cm.round_trip_max_rel_err
        assert set(cm.build_seconds) == {"tabulate_join", "self_check"}
        assert all(0.0 < t < 10.0 for t in cm.build_seconds.values())
        assert set(cm.series) == {"left", "right"}
        for series in cm.series.values():
            assert series["degree"] == 32 and 0.0 < series["tail"] < 1e-14
            # 11 to 20 terms sum the series of these four means
            assert 8 <= series["terms"] <= 24, (name, series)


# build()'s round_trip_max_rel_err for arithmetic, geometric, harmonic and
# logarithmic when log F was summed by Gauss rules on an 8192-node grid,
# rounded up in the third digit; windows left out stayed below 1e-14
GRID_ROUND_TRIP = {
    (0.25, 64.0): (1.05e-13, 3.70e-12, 3.28e-10, 7.39e-13),
    (0.01, 100.0): (1.30e-13, 1.76e-12, 1.02e-9, 5.27e-13),
    (0.001, 1000.0): (1.05e-13, 1.40e-11, 7.56e-8, 1.03e-12),
    (0.9, 1.005): (0.0,) * 4,
    (0.98, 1.02): (0.0,) * 4,
    (0.99999, 4.0): (9.10e-14, 4.71e-13, 2.07e-12, 2.24e-13),
    (0.5, 1.00003): (0.0,) * 4,
    (0.99999, 1.00001): (0.0,) * 4,
}


def test_round_trip_no_worse_than_grid():
    for window, before in GRID_ROUND_TRIP.items():
        for name, bound in zip(
                ("arithmetic", "geometric", "harmonic", "logarithmic"), before):
            err = build(ordinary_mean(name), window).construction \
                .round_trip_max_rel_err
            assert err <= max(bound, 1e-14), (window, name, err)


def test_slope_series_reproduces_h_at_its_nodes():
    # the fit's contract: at the points as rounded, each residual exactly
    # rounded over the T_k rows, within one ulp of the largest value
    for name in ("arithmetic", "geometric", "harmonic", "logarithmic"):
        k = ordinary_mean(name)
        for end in (64.0, 0.25, 1000.0, 0.001, 1e12):
            c, series, x, gap = _slope_series(k, end)
            side, t_end = (1 if end > 1.0 else -1), abs(math.log(end))
            t = [abs(math.log(p)) for p in x]
            h = [2.0] + [side * tp * p / g for tp, p, g in zip(t, x, gap)]
            r = [math.fsum([hj] + [-T * ck for T, ck in zip(
                     _chebvander(2.0 * tp / t_end - 1.0, series["degree"]), c)])
                 for tp, hj in zip([0.0] + t, h)]
            assert max(map(abs, r)) <= math.ulp(max(map(abs, h))), (name, end)


def test_branches_sum_their_series_up_to_the_plateau():
    # each branch sums fewer terms than it fitted, and what it drops moves
    # log F by no more than its recorded tail, the dropped |R_k|, plus the
    # rounding of the sums
    for name, window in itertools.product(
            ["arithmetic", "geometric", "harmonic", "logarithmic"],
            [WINDOW, (0.001, 1000.0), (0.9, 1.005)]):
        k = ordinary_mean(name)
        cm = build(k, window).construction
        for branch, end in ((cm._left, window[0]), (cm._right, window[1])):
            c, series, _, _ = _slope_series(k, end)
            n = series["terms"]
            assert n < series["degree"] + 1, (name, end, series)
            assert len(branch._h) == len(branch._R) == n
            R = _log_slope_integral(c)
            dropped = branch.series["tail"]
            assert dropped == math.fsum(map(abs, R[n:])), (name, end)
            scale = max(map(abs, R))
            full = R[::-1]
            for t in _linspace(0.0, branch.t_end, 201)[1:]:
                x = math.exp(t if end > 1.0 else -t)
                v = 2.0 * abs(math.log(x)) / branch.t_end
                want = math.fsum((2.0 * math.log(v), _clenshaw(full, v - 1.0),
                                  branch._const))
                assert abs(cm.log_F(x) - want) <= dropped + 4.0 * math.ulp(
                    max(abs(want), scale)), (name, end, t)


def test_F_matches_the_power_families():
    # the four means are generated by x^p, p = 0, -3/2, -3 and -1, whose
    # second primitives vanishing with their first at 1 are below
    mpmath = pytest.importorskip("mpmath")
    exact = {
        "arithmetic": lambda x: (x - 1) ** 2 / 2,
        "geometric": lambda x: 2 * (mpmath.sqrt(x) - 1) ** 2,
        "harmonic": lambda x: (x - 1) ** 2 / (2 * x),
        "logarithmic": lambda x: x * mpmath.log(x) - x + 1,
    }
    with mpmath.workdps(40):
        for window in (WINDOW, (0.001, 1000.0)):
            lo, hi = window
            xs = [lo * (hi / lo) ** (i / 151) for i in range(1, 151)]
            for name, F in exact.items():
                cm = build(ordinary_mean(name), window).construction
                F2 = cm.F(2.0)
                for x in xs:
                    want = F(mpmath.mpf(x)) / F(mpmath.mpf(2))
                    assert abs(cm.F(x) / F2 - want) <= 4e-15 * want, (name, x)


def test_wide_window_builds():
    # degree 64 here, and the series' last coefficient rounds to exactly 0
    spec = build(ordinary_mean("geometric"), (1e-6, 1e6))
    assert spec.construction.series["left"]["degree"] == 64
    assert spec.construction.round_trip_max_rel_err <= 1e-9
    # h falls to about 5e-11 at the left end, so the series holds the gap
    # x - K(1, x) to absolute accuracy only; the checks take it from K
    spec = build(ordinary_mean("arithmetic"), (1e-12, 1e12))
    assert spec.construction.round_trip_max_rel_err <= 1e-5
    # without g', the finite difference must not step below 0
    geometric = OrdinaryMean("geometric", ordinary_mean("geometric").func)
    spec = build(geometric, (1e-7, 10.0))
    assert spec.construction.round_trip_max_rel_err <= 1e-9


def test_window_whose_F_overflows_is_a_domain_error():
    # F grows like x^2 / 2 for arithmetic, past double range at 1e300
    with pytest.raises(DomainError, match=r"1e\+300"):
        build(ordinary_mean("arithmetic"), (1e-300, 1e300))


def test_window_reaching_infinity_is_a_domain_error():
    with pytest.raises(DomainError, match="inf"):
        build(ordinary_mean("geometric"), (1.0, math.inf))


@pytest.mark.parametrize("window", [(1.0, "x"), 5, (1, 2, 3)], ids=str)
def test_window_that_is_not_two_numbers_is_an_invalid_interval(window):
    # each was once a bare TypeError or ValueError
    with pytest.raises(InvalidInterval, match="two numbers"):
        build(ordinary_mean("geometric"), window)


@pytest.mark.parametrize("window", [(3.999999, 3.9999999), (0.5000001, 0.500001)])
def test_two_routes_agree_near_the_window_ends(window, two_route_misses):
    spec = build(ordinary_mean("geometric"), (0.5, 4.0))
    assert two_route_misses(spec, window) == []


def test_build_calls_mean_a_few_hundred_times():
    k = ordinary_mean("harmonic")
    calls = {"K": 0, "slope": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    build(dataclasses.replace(k, func=counted("K", k.func),
                              section_deriv=counted("slope", k.section_deriv)),
          WINDOW)
    assert calls["K"] <= 400 and calls["slope"] <= 400, calls


def test_kinked_section_is_rejected():
    # K(1, x) has a kink at x = 3 + 2 sqrt(2), so the Chebyshev series of
    # log F's slope never levels off
    kinked = OrdinaryMean("kinked", lambda a, b:
                          max(math.sqrt(a * b), 0.5 * (a + b) - 1.0))
    with pytest.raises(QuadratureError, match="no Chebyshev series"):
        build(kinked, WINDOW)


def test_log_mean_section_slope_near_pivot():
    mpmath = pytest.importorskip("mpmath")
    slope = ordinary_mean("logarithmic").section_deriv
    rng = np.random.default_rng(43)
    xs = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 1000)).tolist()
    d = np.geomspace(1e-12, 0.5, 100).tolist()
    xs += [1.0 + e for e in d] + [1.0 - e for e in d]
    with mpmath.workdps(50):
        for x in xs:
            L = mpmath.log(x)
            want = (L - (x - 1) / mpmath.mpf(x)) / L ** 2
            assert abs(slope(x) - want) <= 1e-15 * want, x


def test_narrow_pairs_at_window_top():
    # pairs at least 1% of the window wide inside its top 2%
    rng = np.random.default_rng(41)
    for (lo, hi), name in itertools.product(
            [WINDOW, (2.0, 50.0)],
            ["geometric", "harmonic", "logarithmic", "arithmetic"]):
        width = hi - lo
        k = ordinary_mean(name)
        spec = build(k, (lo, hi))
        for _ in range(40):
            a = rng.uniform(hi - 0.02 * width, hi - 0.01 * width)
            b = rng.uniform(a + 0.01 * width, hi)
            want = k(a, b)
            assert abs(reconstruct(spec, a, b) - want) <= max(
                1e-9, 1e-6 * abs(want)), (name, a, b)


def test_wide_harmonic_window_at_default_points():
    k = ordinary_mean("harmonic")
    spec = build(k, (0.05, 400.0))
    assert reconstruct(spec, 363.3, 399.6) == pytest.approx(k(363.3, 399.6),
                                                            rel=1e-6)


def test_density_recovered_up_to_scale(built):
    xs = np.linspace(0.3, 60.0, 40)
    for name, wref in CLOSED_FORM_DENSITIES.items():
        spec = built[name]
        ratios = [spec.density(float(x)) / wref(float(x)) for x in xs]
        spread = (max(ratios) - min(ratios)) / (sum(ratios) / len(ratios))
        assert spread <= 1e-5, name


def test_arithmetic_build_gives_constant_density(built):
    spec = built["arithmetic"]
    xs = np.linspace(0.3, 60.0, 20)
    ratios = [spec.density(float(x)) for x in xs]
    assert (max(ratios) - min(ratios)) / ratios[0] <= 1e-6


def test_constructed_primitives_structure(built):
    cm = built["geometric"].construction
    assert cm.x0 == 2.0
    assert cm.F(2.0) == pytest.approx(1.0, rel=1e-12)
    assert cm.F(1.0) == 0.0 and cm.f(1.0) == 0.0
    # increasing primitive, negative below the pivot, positive above
    assert cm.f(0.5) < 0.0 < cm.f(3.0)
    # the joining factor for the geometric mean is exactly 1/2
    assert cm.left_scale == pytest.approx(0.5, rel=1e-9)


def test_left_scale_is_exact(built):
    # the joining factor of F = c (x - 1)^2, c / sqrt(x) and c / x against
    # F(2) = 1 and F(1/2) = left_scale
    for name, want in [("arithmetic", 0.25), ("geometric", 0.5),
                       ("harmonic", 1.0)]:
        assert built[name].construction.left_scale == pytest.approx(
            want, rel=1e-14), name


def test_reconstruct_one_ulp_from_pivot(built):
    # pairs ending one ulp from the pivot, where x - K(1, x) rounds to nothing
    above, below = math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)
    for name in ("arithmetic", "geometric", "harmonic", "logarithmic"):
        k = ordinary_mean(name)
        wide = build(k, (0.01, 100.0))
        for spec, a, b in [(built[name], 0.5, above), (built[name], below, 2.0),
                           (wide, 0.5, 1.0000000000000009), (wide, below, 2.0)]:
            assert reconstruct(spec, a, b) == pytest.approx(
                k(a, b), rel=1e-15), (name, a, b)


def test_f_near_pivot(built):
    # f = 2 (1 - 1/x^2) s for the built harmonic measure, with the joining
    # factor s below 1, written so that nothing cancels
    cm = built["harmonic"].construction
    for d in (1e-8, 1e-6, 1e-4):
        for x, s in ((1.0 + d, 1.0), (1.0 - d, cm.left_scale)):
            want = 2.0 * s * (x - 1.0) * (x + 1.0) / (x * x)
            assert abs(cm.f(x) - want) <= 1e-13 * abs(want), x


def test_branch_density_limits_agree(built):
    # compare close enough to the pivot that the density's own slope
    # contributes less than the 1e-4 joint tolerance
    for name in ("geometric", "harmonic", "logarithmic"):
        cm = built[name].construction
        for h in (1e-5, 1e-6):
            assert cm.w(1.0 - h) == pytest.approx(cm.w(1.0 + h), rel=1e-4), name


def test_constructed_measure_is_consistent(built, two_route_misses):
    # the built primitives against quadrature of the built density
    for name in ("geometric", "harmonic"):
        assert two_route_misses(built[name], (0.3, 60.0)) == [], name


def test_reconstruct_is_scale_invariant(built):
    spec = built["harmonic"]
    scaled = spec.scaled(7.5)
    # (50, 50.2) and (60, 60.5) sit near the window top, where differences
    # of the primitives cancel most
    for a, b in [(0.5, 2.0), (2.0, 8.0), (0.3, 50.0), (50.0, 50.2), (60.0, 60.5)]:
        assert reconstruct(scaled, a, b) == reconstruct(spec, a, b)


def test_built_mean_takes_one_pass_per_endpoint(built):
    # one pass per endpoint gives both f and F, in any MeasureSpec whose
    # primitives are its construction's own; it calls K(1, x) for the gap
    # only away from the pivot, |log x| >= 1/2
    spec = built["harmonic"]
    assert type(spec) is MeasureSpec
    by_hand = MeasureSpec(**{f.name: getattr(spec, f.name)
                             for f in dataclasses.fields(MeasureSpec)})
    cm = spec.construction

    def counted(name, fn):
        def wrapper(x):
            calls[name] += 1
            return fn(x)
        return wrapper

    section = cm.section
    cm._eval = counted("pass", cm._eval)
    cm.section = counted("K", section)
    try:
        for s in (spec, by_hand):
            calls = {"pass": 0, "K": 0}
            mean(s, normalize([(2.0, 3.0), (4.0, 5.0), (6.0, 7.0)]))
            assert calls == {"pass": 2 * 3, "K": 2 * 3}
            calls = {"pass": 0, "K": 0}
            mean(s, normalize([(0.7, 0.8), (1.2, 1.4)]))
            assert calls == {"pass": 2 * 2, "K": 0}
    finally:
        del cm._eval
        cm.section = section


def test_one_pass_matches_the_reference_sums():
    # each branch at 200 points, crowded toward the pivot so that many fall
    # within |log x| < 1/2: the pass must give, bit for bit, log F and F from
    # _clenshaw, the gap from the series h there and from K(1, x) elsewhere
    cancel_lo, cancel_hi = math.exp(-0.5), math.exp(0.5)
    for name, window in itertools.product(
            ["arithmetic", "geometric", "harmonic", "logarithmic"],
            [WINDOW, (0.01, 0.9), (0.9, 1.005)]):
        k = ordinary_mean(name)
        cm = build(k, window).construction
        for branch, side, scale in ((cm._right, 1, 1.0),
                                    (cm._left, -1, cm.left_scale)):
            if branch is None:
                continue
            for i in range(1, 201):
                x = math.exp(side * branch.t_end * (i / 200) ** 2)
                L = math.log(x)
                v = 2.0 * abs(L) / branch.t_end
                log_F = math.fsum((2.0 * math.log(v), _clenshaw(branch._R, v - 1.0),
                                   branch._const))
                F = scale * math.exp(log_F)
                gap = (L * x / _clenshaw(branch._h, v - 1.0)
                       if cancel_lo < x < cancel_hi else x - k.section(x))
                assert cm._eval(x) == (F / gap, F, gap, log_F), (name, window, x)
                assert (cm.f(x), cm.F(x), cm.log_F(x)) == (F / gap, F, log_F)
                assert cm.w(x) == k.section_slope(x) * F / (gap * gap)


def test_vals2coeffs_is_the_direct_double_sum():
    # the cached cosine rows change neither the products nor their order
    rng = random.Random(3)
    for n in (32, 64):
        v = [rng.uniform(-1.0, 1.0) for _ in range(n + 1)]
        vh = [0.5 * v[0]] + v[1:-1] + [0.5 * v[-1]]
        want = [(-2.0 if m % 2 else 2.0) / n
                * sum(vj * math.cos(math.pi * (m * j % (2 * n)) / n)
                      for j, vj in enumerate(vh))
                for m in range(n + 1)]
        want[0] *= 0.5
        want[-1] *= 0.5
        assert _vals2coeffs(v) == want


def test_built_primitives_refuse_points_off_the_positive_axis():
    # x <= 0 and nan are outside every window: the log of x is never taken
    spec = build(ordinary_mean("geometric"), WINDOW)
    for fn in (spec.cdf, spec.antiderivative, spec.density):
        for x in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError, match="outside the tabulated window"):
                fn(x)


def test_one_sided_build_has_no_branch_on_the_other_side():
    cm = build(ordinary_mean("geometric"), (2.0, 8.0)).construction
    with pytest.raises(DomainError, match="no branch below 1 was tabulated"):
        cm.f(0.5)


def test_built_mean_is_bit_identical_to_primitive_calls():
    # without its construction the same spec calls cdf and antiderivative apart
    rng = random.Random(47)
    for name, window in itertools.product(
            ["arithmetic", "geometric", "harmonic", "logarithmic"],
            [WINDOW, (2.0, 50.0), (0.01, 0.9)]):
        spec = build(ordinary_mean(name), window)
        plain = dataclasses.replace(spec, construction=None)
        lo, hi = window
        for _ in range(100):
            H = random_interval_union(rng, (lo + 1e-3 * (hi - lo),
                                            hi - 1e-3 * (hi - lo)), 8)
            assert mean(spec, H) == mean(plain, H), (name, window, H)


def test_built_measure_without_primitives_uses_quadrature(built, monkeypatch):
    calls = []
    monkeypatch.setattr(measures, "quad", lambda *a: calls.append(a) or quad(*a))
    spec = dataclasses.replace(built["geometric"], cdf=None, antiderivative=None)
    H = normalize([(2.0, 3.0), (4.0, 5.0)])
    assert mean(spec, H).value == pytest.approx(mean(built["geometric"], H).value,
                                                rel=1e-9)
    assert len(calls) == 2 * 2


def test_replaced_primitive_is_called(built):
    spec = built["geometric"]
    calls = []
    replaced = dataclasses.replace(
        spec, cdf=lambda x: calls.append(x) or spec.construction.f(x))
    H = normalize([(2.0, 3.0), (4.0, 5.0)])
    assert mean(replaced, H) == mean(spec, H)
    assert calls == [2.0, 3.0, 4.0, 5.0]
    # a catalog spec sums a set in its kernel only while both primitives are
    # its own: a replaced cdf or antiderivative is called, a dropped one
    # leaves quadrature of the density
    g = catalog("geometric")
    for attr in ("cdf", "antiderivative"):
        calls = []
        own = getattr(g, attr)
        replaced = dataclasses.replace(
            g, **{attr: lambda x: calls.append(x) or own(x)})
        assert mean(replaced, H) == mean(g, H)
        assert calls == [2.0, 3.0, 4.0, 5.0]
    calls = []
    dropped = dataclasses.replace(
        g, cdf=None, density=lambda x: calls.append(x) or g.density(x))
    assert mean(dropped, H).value == pytest.approx(mean(g, H).value, rel=1e-12)
    assert len(calls) > 4


def test_reconstruct_on_catalog_measures():
    # the same formula evaluated from catalog closed forms
    assert reconstruct(catalog("geometric"), 2.0, 8.0) == pytest.approx(
        4.0, rel=1e-12)
    assert reconstruct(catalog("harmonic"), 2.0, 6.0) == pytest.approx(
        3.0, rel=1e-12)
    with pytest.raises(DomainError):
        reconstruct(build(ordinary_mean("geometric"), (0.5, 4.0)), 0.1, 2.0)


def test_reconstruct_example_values(built):
    # oracle: sqrt(2 * 8) and the harmonic mean of (2, 6)
    assert reconstruct(built["geometric"], 2.0, 8.0) == pytest.approx(
        4.0, rel=1e-6)
    assert reconstruct(built["harmonic"], 2.0, 6.0) == pytest.approx(
        3.0, rel=1e-6)


def test_reconstruct_near_pivot(built):
    k = ordinary_mean("logarithmic")
    got = reconstruct(built["logarithmic"], 1.0 + 1e-6, E)
    assert got == pytest.approx(k(1.0 + 1e-6, E), rel=1e-5)
    assert got == pytest.approx(E - 1.0, rel=1e-5)


def test_from_section(built):
    # oracle: sqrt(4 * 9) = 6
    got = from_section(lambda x: math.sqrt(x), built["geometric"].construction,
                       4.0, 9.0)
    assert got == pytest.approx(6.0, rel=1e-6)
    # oracle: harmonic mean of (2, 6)
    got = from_section(lambda x: 2.0 * x / (1.0 + x),
                       built["harmonic"].construction, 2.0, 6.0)
    assert got == pytest.approx(3.0, rel=1e-6)
    # degenerate pinch against the pivot
    got = from_section(lambda x: 0.5 * (1.0 + x),
                       built["arithmetic"].construction, 1.0, 1.0 + 1e-9)
    assert got == pytest.approx(1.0, rel=1e-6)
    cm = built["geometric"].construction
    for a, b in [("a", 2.0), (2.0, 2.0)]:  # the first was once a bare TypeError
        with pytest.raises(InvalidInterval):
            from_section(math.sqrt, cm, a, b)
    with pytest.raises(DomainError):
        from_section(math.sqrt, cm, 0.5, 2.0 * cm.window[1])


def test_from_section_agrees_with_reconstruct(built):
    k = ordinary_mean("geometric")
    spec = built["geometric"]
    for a, b in [(0.5, 2.0), (2.0, 32.0), (0.3, 0.9)]:
        assert from_section(k.section, spec.construction, a, b) == \
            pytest.approx(reconstruct(spec, a, b), rel=1e-6)


def test_reconstruct_is_strictly_internal():
    spec = catalog("logarithmic")
    rng = np.random.default_rng(31)
    for _ in range(200):
        a, b = np.sort(rng.uniform(0.2, 50.0, size=2))
        if b - a < 1e-6:
            continue
        v = reconstruct(spec, float(a), float(b))
        assert a < v < b


def test_reconstruct_rejects_decreasing_primitive():
    spec = MeasureSpec("falling", (-math.inf, math.inf), lambda x: -1.0,
                       cdf=lambda x: -x, antiderivative=lambda x: -0.5 * x * x)
    with pytest.raises(DomainError):
        reconstruct(spec, 0.0, 1.0)


def test_uniqueness_scaled_measure():
    g = catalog("geometric")
    probes = [normalize([(1, 2)]), normalize([(3, 7)]),
              normalize([(0.5, 0.8), (10, 20)])]
    result = uniqueness_check(g, g.scaled(3.0), probes)
    assert result.proportional
    assert result.scale == pytest.approx(3.0, rel=1e-12)
    for P in probes:
        assert abs(mean(g, P).value - mean(g.scaled(3.0), P).value) <= 1e-12


def test_uniqueness_rejects_different_means():
    probes = [normalize([(1, 2)]), normalize([(3, 7)])]
    result = uniqueness_check(catalog("geometric"), catalog("lebesgue"), probes)
    assert not result.proportional
    assert result.witness is not None


def test_uniqueness_witnesses_a_ratio_spread():
    # 1 + x^2 is even, so its means of intervals symmetric about 0 are 0, as
    # Lebesgue's are, but the mass ratio is 4/3 on one and 7/3 on the other,
    # a spread of 1 about their average 11/6
    even = MeasureSpec("even", (-math.inf, math.inf), lambda x: 1.0 + x * x)
    probes = [normalize([(-1.0, 1.0)]), normalize([(-2.0, 2.0)])]
    result = uniqueness_check(catalog("lebesgue"), even, probes)
    assert not result.proportional
    lo, hi = result.witness["ratios"]
    assert (lo, hi) == (pytest.approx(4 / 3), pytest.approx(7 / 3))
    assert result.witness["rel_spread"] == pytest.approx(6 / 11)


def test_uniqueness_recovers_built_measure_scale(built):
    g = catalog("geometric")
    probes = [normalize([(1, 2)]), normalize([(2.5, 7)]),
              normalize([(0.5, 0.9), (10, 20)]), normalize([(30, 60)])]
    result = uniqueness_check(g, built["geometric"], probes)
    assert result.proportional
    assert result.scale > 0.0


def test_double_integral_on_built_measure(built):
    spec = built["geometric"]
    for a, b in [(1.0, 4.0), (2.0, 8.0)]:
        assert double_integral_mean(spec, a, b) == pytest.approx(
            math.sqrt(a * b), abs=1e-5)


def test_built_spec_supports_set_means(built):
    spec = built["geometric"]
    rng = random.Random(37)
    g = catalog("geometric")
    for _ in range(50):
        H = random_interval_union(rng, (0.3, 60.0), max_intervals=3)
        assert mean(spec, H).value == pytest.approx(mean(g, H).value, rel=1e-8)


def test_narrow_window_around_pivot():
    # the branches join exactly however close to 1 the window ends
    k = ordinary_mean("geometric")
    for window in [(0.9, 1.005), (0.98, 1.02), (0.99999, 4.0),
                   (0.5, 1.00003), (0.99999, 1.00001)]:
        spec = build(k, window)
        lo, hi = window
        for a, b in [(lo + 0.1 * (1.0 - lo), 1.0 - 0.1 * (1.0 - lo)),
                     (lo + 0.25 * (hi - lo), lo + 0.9 * (hi - lo)),
                     (1.0 - 0.5 * (1.0 - lo), 1.0 + 0.5 * (hi - 1.0))]:
            assert reconstruct(spec, a, b) == pytest.approx(k(a, b), rel=1e-6)


def test_one_sided_window():
    k = ordinary_mean("geometric")
    spec = build(k, (2.0, 50.0))
    assert spec.construction.left_scale == 1.0
    for a, b in [(3.0, 10.0), (5.0, 45.0)]:
        assert reconstruct(spec, a, b) == pytest.approx(k(a, b), rel=1e-6)


def test_power_mean_is_not_measure_generated():
    # the section pins the mean against 1 only; for power:3 the resulting
    # measure mean disagrees with the power mean elsewhere, so the build
    # self-check must reject it
    with pytest.raises(QuadratureError):
        build(ordinary_mean("power:3"), WINDOW)


def test_build_rejects_bad_means():
    lopsided = OrdinaryMean("lopsided", lambda a, b: 0.25 * a + 0.75 * b)
    with pytest.raises(NotSymmetric):
        build(lopsided, WINDOW)
    edge = OrdinaryMean("edge", lambda a, b: max(a, b))
    with pytest.raises(NotStrictlyInternal):
        build(edge, WINDOW)

    def k(a, b):
        lo, hi = min(a, b), max(a, b)
        return hi if 1.55 < hi / lo < 1.9 else 0.5 * (lo + hi)

    # the probe pairs on (2, 50) stand at ratios 25^(j/8), 1.495 and 2.236
    # around the band where K leaves (lo, hi); the section's fit meets it
    banded = OrdinaryMean("banded", k)
    with pytest.raises(NotStrictlyInternal, match="leaves the open interval"):
        build(banded, (2.0, 50.0))
    with pytest.raises(DomainError):
        build(ordinary_mean("geometric"), (-1.0, 4.0))
    # a ** p overflows at the first probe pair
    with pytest.raises(DomainError, match="overflows"):
        build(ordinary_mean("power:-1e6"), (0.5, 4.0))


def test_lehmer_means_are_rejected_before_tabulating():
    # (a^p + b^p) / (a^(p-1) + b^(p-1)) falls in a when a << b, so its
    # joining factor is negative; p = 3 used to overflow tabulating first
    for p in (2, 3):
        lehmer = OrdinaryMean(f"lehmer:{p}", lambda a, b, p=p:
                              (a ** p + b ** p) / (a ** (p - 1) + b ** (p - 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotIncreasing):
                build(lehmer, WINDOW)


def test_table_checks_reject_a_falling_section():
    # symmetric, strictly internal and smooth, but K(1, x) falls in places,
    # so no increasing primitive generates it
    def k(a, b):
        lo, hi = min(a, b), max(a, b)
        return lo + (hi - lo) * (0.5 + 0.3 * math.sin(2.0 * math.log(hi / lo)))

    wavy = OrdinaryMean("wavy", k)
    for window in [(2.0, 50.0), (0.02, 0.5), (0.25, 64.0)]:
        with pytest.raises(NotIncreasing):
            build(wavy, window)


def test_density_at_the_pivot_is_its_limit():
    # w(1) is taken one ulp above the pivot, where the gap x - K(1, x) is 0
    cm = build(ordinary_mean("geometric"), WINDOW).construction
    assert cm.w(1.0) == cm.w(math.nextafter(1.0, 2.0))
    assert cm.w(1.0) == pytest.approx(0.5 * (cm.w(1.0 - 1e-6) + cm.w(1.0 + 1e-6)),
                                      rel=1e-9)


def test_density_check_rejects_a_falling_slope():
    # K is arithmetic, but the g' it reports turns negative above 10, where
    # the density w = g' F / gap^2 would be too
    liar = OrdinaryMean("liar", ordinary_mean("arithmetic").func,
                        section_deriv=lambda x: -0.5 if x > 10 else 0.5)
    with pytest.raises(NotIncreasing):
        build(liar, WINDOW)


def test_missing_primitives_and_probes_are_typed_errors():
    g = catalog("geometric")
    with pytest.raises(DomainError):
        reconstruct(dataclasses.replace(g, cdf=None), 1.0, 2.0)
    with pytest.raises(EmptySet):
        uniqueness_check(g, g, [])
