"""Measure synthesis from a two-argument mean, and its inverse checks."""

import itertools
import math

import numpy as np
import pytest

from meanmeasure import (
    DomainError,
    NotIncreasing,
    NotStrictlyInternal,
    OrdinaryMean,
    QuadratureError,
    UnknownMeasure,
    build,
    catalog,
    consistency_errors,
    double_integral_mean,
    from_section,
    mean,
    mean_from_fF,
    normalize,
    ordinary,
    ordinary_mean,
    random_interval_union,
    reconstruct,
    uniqueness_check,
)

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
    with pytest.raises(UnknownMeasure):
        ordinary_mean("power:two")


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
    for spec in built.values():
        assert 0.0 <= spec.construction.round_trip_max_rel_err <= 1e-6


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
    assert np.all(np.diff(cm.f_tab) > 0.0)
    assert np.all(cm.w_tab > 0.0)
    assert not np.any(cm.grid == 1.0)
    # the joining factor for the geometric mean is exactly 1/2
    assert cm.left_scale == pytest.approx(0.5, rel=1e-9)


def test_branch_density_limits_agree(built):
    # compare close enough to the pivot that the density's own slope
    # contributes less than the 1e-4 joint tolerance
    for name in ("geometric", "harmonic", "logarithmic"):
        cm = built[name].construction
        for h in (1e-5, 1e-6):
            assert cm.w(1.0 - h) == pytest.approx(cm.w(1.0 + h), rel=1e-4), name


def test_constructed_measure_is_consistent(built):
    spec = built["geometric"]
    err_Ff, err_fw = consistency_errors(spec, (0.3, 0.9))
    assert max(err_Ff, err_fw) <= 1e-6
    err_Ff, err_fw = consistency_errors(spec, (1.1, 60.0))
    assert max(err_Ff, err_fw) <= 1e-6


def test_reconstruct_is_scale_invariant(built):
    spec = built["harmonic"]
    scaled = spec.scaled(7.5)
    for a, b in [(0.5, 2.0), (2.0, 8.0), (0.3, 50.0)]:
        assert reconstruct(scaled, a, b) == pytest.approx(
            reconstruct(spec, a, b), rel=1e-12)


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


def test_from_section_agrees_with_reconstruct(built):
    k = ordinary_mean("geometric")
    spec = built["geometric"]
    for a, b in [(0.5, 2.0), (2.0, 32.0), (0.3, 0.9)]:
        assert from_section(k.section, spec.construction, a, b) == \
            pytest.approx(reconstruct(spec, a, b), rel=1e-6)


def test_mean_from_fF_examples():
    assert mean_from_fF(lambda x: x, lambda x: 0.5 * x * x, 0.0, 2.0) == \
        pytest.approx(1.0, rel=1e-15)
    # oracle: matches the logarithmic catalog mean of [1, e]
    got = mean_from_fF(math.log, lambda x: x * math.log(x) - x + 1.0, 1.0, E)
    assert got == pytest.approx(ordinary(catalog("logarithmic"), 1.0, E),
                                rel=1e-12)
    assert got == pytest.approx(E - 1.0, rel=1e-12)
    # oracle: constants cancel, sqrt(1 * 4) = 2
    got = mean_from_fF(lambda x: 1.0 - 1.0 / math.sqrt(x),
                       lambda x: (math.sqrt(x) - 1.0) ** 2, 1.0, 4.0)
    assert got == pytest.approx(2.0, rel=1e-12)


def test_mean_from_fF_is_strictly_internal():
    rng = np.random.default_rng(31)
    f = lambda x: math.log(x)
    F = lambda x: x * math.log(x) - x + 1.0
    for _ in range(200):
        a, b = np.sort(rng.uniform(0.2, 50.0, size=2))
        if b - a < 1e-6:
            continue
        v = mean_from_fF(f, F, float(a), float(b))
        assert a < v < b


def test_mean_from_fF_rejects_non_increasing():
    with pytest.raises(NotIncreasing):
        mean_from_fF(lambda x: -x, lambda x: -0.5 * x * x, 0.0, 1.0)


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
    rng = np.random.default_rng(37)
    g = catalog("geometric")
    for _ in range(50):
        H = random_interval_union(rng, (0.3, 60.0), max_intervals=3)
        assert mean(spec, H).value == pytest.approx(mean(g, H).value, rel=1e-8)


def test_narrow_window_around_pivot():
    # calibration steps must shrink with the branch extents
    k = ordinary_mean("geometric")
    for window in [(0.9, 1.005), (0.98, 1.02)]:
        spec = build(k, window)
        lo, hi = window
        for a, b in [(lo + 0.1 * (hi - lo), 1.0 - 0.1 * (1.0 - lo)),
                     (lo + 0.25 * (hi - lo), lo + 0.9 * (hi - lo))]:
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
    with pytest.raises(ValueError):
        build(lopsided, WINDOW)
    edge = OrdinaryMean("edge", lambda a, b: max(a, b))
    with pytest.raises(NotStrictlyInternal):
        build(edge, WINDOW)
    with pytest.raises(DomainError):
        build(ordinary_mean("geometric"), (-1.0, 4.0))
