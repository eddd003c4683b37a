"""Measure-weighted means: values, probes, certificates, asymptotics."""

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import meanmeasure.means as means_module
from meanmeasure import (
    DomainError,
    EmptySet,
    IntervalSet,
    InvalidInterval,
    MeanReport,
    MeasureSpec,
    NotDisjoint,
    NotNested,
    avg,
    cantor_probe,
    catalog,
    certify_leq,
    decompose_check,
    double_integral_mean,
    exp_avg_log,
    infinity_sweep,
    m_bound,
    mean,
    monotonicity_probe,
    normalize,
    ordinary,
    pseudo_metric,
    random_interval_union,
)

E = math.e
E2 = math.e ** 2

# the two-interval set from the quasi-arithmetic counterexample
COUNTEREXAMPLE = normalize([(1.0, E ** 2), (E ** 4, E ** 8)])
# oracle: (e - 1 + e^4 - e^2) / (1 - 1/e + 1/e^2 - 1/e^4)
COUNTEREXAMPLE_MEAN = 65.3113736990956
# oracle: exp(13/3)
COUNTEREXAMPLE_EXP_AVG_LOG = 76.19785657297057


def test_mean_geometric_single_interval():
    # oracle: sqrt(1 * 4)
    r = mean(catalog("geometric"), normalize([(1, 4)]))
    assert r.value == pytest.approx(2.0, rel=1e-12)
    assert r.mass == pytest.approx(0.06766764161830635, rel=1e-13)
    assert r.moment == pytest.approx(0.1353352832366127, rel=1e-13)
    assert abs(r.value - r.moment / r.mass) <= r.err


def test_mean_counterexample_set():
    r = mean(catalog("geometric"), COUNTEREXAMPLE)
    assert r.value == pytest.approx(COUNTEREXAMPLE_MEAN, rel=1e-12)


def test_mean_lebesgue_midpoint():
    assert mean(catalog("lebesgue"), normalize([(0, 2)])).value == \
        pytest.approx(1.0, rel=1e-15)


def test_mean_rejects_empty_and_out_of_domain():
    with pytest.raises(EmptySet):
        mean(catalog("lebesgue"), IntervalSet())
    with pytest.raises(DomainError):
        mean(catalog("geometric"), normalize([(-2, -1)]))


def test_mean_report_is_an_immutable_named_tuple():
    report = mean(catalog("geometric"), normalize([(1, 4)]))
    value, mass, moment, err = report
    assert MeanReport._fields == ("value", "mass", "moment", "err")
    assert (value, mass, moment, err) == (report.value, report.mass,
                                          report.moment, report.err)
    with pytest.raises(AttributeError):
        report.value = 0.0


def test_mean_evaluates_each_primitive_once_per_endpoint():
    g = catalog("geometric")
    calls = {"cdf": 0, "antiderivative": 0}

    def counted(name, fn):
        def wrapper(x):
            calls[name] += 1
            return fn(x)
        return wrapper

    spec = dataclasses.replace(
        g, cdf=counted("cdf", g.cdf),
        antiderivative=counted("antiderivative", g.antiderivative))
    H = normalize([(2.0, 3.0), (4.0, 5.0), (6.0, 7.0)])
    assert mean(spec, H) == mean(g, H)
    assert calls == {"cdf": 6, "antiderivative": 6}


def test_ordinary_examples():
    # oracle: (2/3)(a^2 + ab + b^2)/(a + b) at (1, 2) = 14/9
    assert ordinary(catalog("square"), 1, 2) == pytest.approx(14.0 / 9.0,
                                                              rel=1e-12)
    # oracle: (b e^b - a e^a)/(e^b - e^a) - 1 at (0, 1) = 1/(e - 1)
    assert ordinary(catalog("exponential"), 0, 1) == pytest.approx(
        0.5819767068693265, rel=1e-12)
    # oracle: harmonic mean 2/(1/2 + 1/6)
    assert ordinary(catalog("harmonic"), 2, 6) == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(InvalidInterval):
        ordinary(catalog("lebesgue"), 2, 2)


def test_avg_examples():
    assert avg(normalize([(0, 1)])) == 0.5
    assert avg(normalize([(0, 1), (2, 3)])) == pytest.approx(1.5, rel=1e-15)
    assert avg(normalize([(0, 2), (4, 8)])) == pytest.approx(13.0 / 3.0,
                                                             rel=1e-15)
    with pytest.raises(EmptySet):
        avg(IntervalSet())


def test_avg_translation_covariance():
    rng = random.Random(11)
    for _ in range(100):
        H = random_interval_union(rng, (-40.0, 40.0), max_intervals=4)
        x = rng.uniform(-100, 100)
        assert abs(avg(H.translate(x)) - (avg(H) + x)) <= 1e-12 * (1.0 + abs(x))


@pytest.mark.parametrize("shift", [0.0, 1e4, 1e8, 1e12])
def test_avg_does_not_cancel_far_from_the_origin(shift):
    H = normalize([(1.0 + shift, 2.0 + shift), (2.5 + shift, 2.7 + shift)])
    pairs = [(Fraction(lo), Fraction(hi)) for lo, hi in H]
    exact = float(sum((hi * hi - lo * lo) / 2 for lo, hi in pairs)
                  / sum(hi - lo for lo, hi in pairs))
    assert abs(avg(H) - exact) <= math.ulp(exact)


def test_pseudo_metric_examples():
    g = catalog("geometric")
    a = normalize([(1, 4)])
    b = normalize([(1, 9)])
    # oracle: geometric measure of [4, 9]
    assert pseudo_metric(g, a, b) == pytest.approx(0.022555880539435455,
                                                   rel=1e-12)
    assert pseudo_metric(g, a, a) == 0.0
    assert pseudo_metric(catalog("lebesgue"), normalize([(0, 2)]),
                         normalize([(1, 3)])) == pytest.approx(2.0, rel=1e-15)


def test_decompose_examples():
    assert decompose_check(catalog("lebesgue"),
                           [normalize([(0, 1)]), normalize([(1, 2)])]) <= 1e-12
    assert decompose_check(catalog("geometric"),
                           [normalize([(1, 2)]), normalize([(4, 8)])]) <= 1e-9
    assert decompose_check(
        catalog("harmonic"),
        [normalize([(1, 2)]), normalize([(3, 4)]), normalize([(5, 6)])],
    ) <= 1e-9
    with pytest.raises(NotDisjoint):
        decompose_check(catalog("lebesgue"),
                        [normalize([(0, 2)]), normalize([(1, 3)])])


def test_decompose_check_needs_a_part():
    with pytest.raises(EmptySet):
        decompose_check(catalog("lebesgue"), [])


def test_cantor_probe_geometric_chain():
    # oracle: mean of [1, b] under the geometric measure is sqrt(b), so the
    # gaps are sqrt(2 + 1/i) - sqrt(2)
    g = catalog("geometric")
    chain = [normalize([(1.0, 2.0 + 1.0 / i)]) for i in range(1, 101)]
    chain.append(normalize([(1.0, 2.0)]))
    gaps = cantor_probe(g, chain)
    oracle = [math.sqrt(2.0 + 1.0 / i) - math.sqrt(2.0) for i in range(1, 101)]
    for got, want in zip(gaps, oracle):
        assert got == pytest.approx(want, rel=1e-10, abs=1e-14)
    assert gaps[-1] == 0.0
    assert all(gaps[i + 1] <= gaps[i] for i in range(len(gaps) - 1))
    assert gaps[-2] <= 1.2e-2 * gaps[0]


def test_cantor_probe_constant_chain():
    h = normalize([(2, 3)])
    assert cantor_probe(catalog("lebesgue"), [h, h, h]) == [0.0, 0.0, 0.0]


def test_cantor_probe_vanishing_extra_piece():
    # oracle: centroids from the closed form
    leb = catalog("lebesgue")
    base = normalize([(0, 1)])
    chain = [base.union(normalize([(2.0, 2.0 + 1.0 / i)])) for i in range(1, 60)]
    chain.append(base)
    gaps = cantor_probe(leb, chain)
    assert gaps[-1] == 0.0
    assert gaps[-2] < 1e-1 * gaps[0]


def test_cantor_probe_computes_each_mean_once(monkeypatch):
    seen = []
    monkeypatch.setattr(means_module, "mean",
                        lambda spec, H: seen.append(H) or mean(spec, H))
    chain = [normalize([(1.0, 2.0 + 1.0 / i)]) for i in range(1, 5)]
    gaps = cantor_probe(catalog("geometric"), chain)
    assert seen == chain and gaps[-1] == 0.0


def test_cantor_probe_rejects_non_chain():
    with pytest.raises(NotNested):
        cantor_probe(catalog("lebesgue"),
                     [normalize([(0, 1)]), normalize([(0, 2)])])
    with pytest.raises(EmptySet):
        cantor_probe(catalog("lebesgue"), [])


def test_monotonicity_probe_lebesgue():
    report = monotonicity_probe(catalog("lebesgue"), normalize([(0, 1)]),
                                normalize([(2, 3)]), normalize([(4, 5)]))
    assert report.values["A"] == pytest.approx(0.5)
    assert report.values["B"] == pytest.approx(2.5)
    assert report.values["A|B"] == pytest.approx(1.5)
    assert report.disjoint_pass and report.union_pass
    assert report.strict_pass is True
    assert report.passed


def test_monotonicity_probe_geometric_strict():
    report = monotonicity_probe(catalog("geometric"), normalize([(1, 2)]),
                                normalize([(4, 8)]), normalize([(9, 16)]))
    assert report.passed and not report.union_vacuous
    assert report.strict_pass is True


def test_monotonicity_probe_rejects_overlap():
    b = normalize([(2, 3)])
    with pytest.raises(NotDisjoint, match="B and C"):
        monotonicity_probe(catalog("lebesgue"), normalize([(0, 1)]), b, b)
    with pytest.raises(NotDisjoint, match="A and B"):
        monotonicity_probe(catalog("lebesgue"), normalize([(0, 2.5)]), b,
                           normalize([(4, 5)]))


def test_certify_geometric_below_lebesgue():
    cert = certify_leq(catalog("geometric"), catalog("lebesgue"),
                       (0.1, 100.0), rng=5)
    assert cert.status == "certified"


def test_certify_reverse_is_refuted_with_interval_witness():
    cert = certify_leq(catalog("lebesgue"), catalog("geometric"),
                       (0.1, 100.0), rng=5)
    assert cert.status == "refuted"
    assert "interval" in cert.witness


def test_certify_refuted_on_a_union_after_the_interval_probes():
    # with no interval probes, the first random union refutes the reverse
    # of AM >= GM, and the ratio check is kept with its witness
    cert = certify_leq(catalog("lebesgue"), catalog("geometric"),
                       (0.1, 100.0), n_probe=0, n_random=5, rng=5)
    assert cert.status == "refuted"
    assert isinstance(cert.witness["set"], IntervalSet)
    assert cert.witness["mean_mu"] > cert.witness["mean_nu"] + 1e-9
    assert mean(catalog("lebesgue"), cert.witness["set"]).value == \
        cert.witness["mean_mu"]
    assert cert.ratio is not None and not cert.ratio.certified


def test_certify_harmonic_below_geometric():
    cert = certify_leq(catalog("harmonic"), catalog("geometric"),
                       (0.5, 50.0), rng=5)
    assert cert.status == "certified"


def test_certify_inconclusive_without_shape():
    g = catalog("geometric")
    anon = MeasureSpec(name="anon", domain=g.domain, density=g.density,
                       cdf=g.cdf, antiderivative=g.antiderivative,
                       density_shape="none")
    cert = certify_leq(anon, catalog("lebesgue"), (0.1, 100.0), rng=5)
    assert cert.status == "inconclusive"


def test_exp_avg_log_examples():
    assert exp_avg_log(COUNTEREXAMPLE) == pytest.approx(
        COUNTEREXAMPLE_EXP_AVG_LOG, rel=1e-12)
    # single interval (1, e^2): Avg of [0, 2] is 1
    assert exp_avg_log(normalize([(1.0, E ** 2)])) == pytest.approx(E, rel=1e-12)
    assert exp_avg_log(normalize([(2.0, 2.0 + 1e-9)])) == pytest.approx(
        2.0, rel=1e-6)
    with pytest.raises(DomainError):
        exp_avg_log(normalize([(-1.0, 2.0)]))
    with pytest.raises(EmptySet):
        exp_avg_log(IntervalSet())


def test_exp_avg_log_matches_geometric_mean_on_intervals():
    g = catalog("geometric")
    rng = np.random.default_rng(17)
    for _ in range(200):
        a, b = np.sort(rng.uniform(0.1, 100.0, size=2))
        if b - a < 1e-6:
            continue
        H = normalize([(a, b)])
        assert abs(exp_avg_log(H) - mean(g, H).value) <= 1e-9 * mean(g, H).value


def test_exp_avg_log_differs_on_counterexample():
    gap = abs(exp_avg_log(COUNTEREXAMPLE)
              - mean(catalog("geometric"), COUNTEREXAMPLE).value)
    assert gap > 10.0


def test_m_bound_examples():
    # oracle: density endpoints of w(x) = 1/(2 e^2 x sqrt x) on [1, 2]
    bp = m_bound(catalog("geometric"), (1.0, 2.0))
    assert bp.exact
    assert bp.m == pytest.approx(0.023924124127602732, rel=1e-14)
    assert bp.M == pytest.approx(0.06766764161830635, rel=1e-14)
    leb = m_bound(catalog("lebesgue"), (-3.0, 7.0))
    assert (leb.m, leb.M, leb.exact) == (1.0, 1.0, True)
    h = m_bound(catalog("harmonic"), (1.0, 2.0))
    assert h.m == pytest.approx(0.25, rel=1e-14)
    assert h.M == pytest.approx(2.0, rel=1e-14)


def test_m_bound_density_past_double_range_is_a_domain_error():
    # e^700 overflows in the density itself, before any set is integrated
    with pytest.raises(DomainError, match="double range"):
        m_bound(catalog("exponential"), (700.0, 800.0))


def test_m_bound_grid_estimate_brackets_from_inside():
    g = catalog("geometric")
    anon = MeasureSpec(name="anon", domain=g.domain, density=g.density,
                       cdf=g.cdf, antiderivative=g.antiderivative,
                       density_shape="none")
    bp = m_bound(anon, (1.0, 2.0))
    exact = m_bound(g, (1.0, 2.0))
    assert not bp.exact
    assert exact.m <= bp.m <= bp.M <= exact.M
    assert bp.m <= exact.m * 1.05
    assert bp.M >= exact.M * 0.95


def test_m_bound_grid_estimate_on_a_window_of_a_few_ulps():
    # the 65 grid points round to 6 distinct ones here; the primitives'
    # differences over one-ulp pieces would be rounding noise (mass 0 at 1)
    anon = dataclasses.replace(catalog("geometric"), density_shape="none")
    window = (1.0, 1.0 + 1e-15)
    bp = m_bound(anon, window)
    w_lo, w_hi = map(anon.density, window)
    assert not bp.exact
    assert w_hi <= bp.m <= bp.M <= w_lo
    # a window wider than double range is stepped on its halved ends, so
    # every one of the 65 points is finite and inside it
    seen = []
    flat = dataclasses.replace(catalog("lebesgue"), density_shape="none",
                               density=lambda x: seen.append(x) or 1.0)
    assert m_bound(flat, (-1e308, 1e308)) == (1.0, 1.0, False)
    assert len(seen) == 65 and all(-1e308 <= x <= 1e308 for x in seen)


def test_infinity_sweep_geometric():
    rows = infinity_sweep(catalog("geometric"), normalize([(1, 2)]),
                          [100, 0, 1e4])
    assert [r.x for r in rows] == [0.0, 100.0, 1e4]
    # oracle: closed forms sqrt((1+x)(2+x)) and x + 1.5
    assert rows[0].mean == pytest.approx(math.sqrt(2.0), rel=1e-9)
    assert rows[0].abs_diff == pytest.approx(0.08578643762690485, rel=1e-6)
    assert rows[1].abs_diff == pytest.approx(0.001231534564908543, rel=1e-4)
    # oracle: ((2 + x)/(1 + x))^1.5 at x = 1e4
    assert rows[2].ratio_bound == pytest.approx(1.0001499887506875, rel=1e-12)
    with pytest.raises(DomainError):
        infinity_sweep(catalog("geometric"), normalize([(1, 2)]), [-5.0])
    with pytest.raises(InvalidInterval, match="shifts"):  # once a bare ValueError
        infinity_sweep(catalog("geometric"), normalize([(1, 2)]), ["x"])
    with pytest.raises(EmptySet):
        infinity_sweep(catalog("geometric"), IntervalSet(), [0.0])


def test_infinity_sweep_refuses_a_shift_that_merges_or_drops_intervals():
    leb = catalog("lebesgue")
    H = normalize([(1.0, 2.0), (2.5, 2.7)])
    # at 1e16 the ulp is 2: [2.5, 2.7] + 1e16 rounds to a point inside [1, 2] + 1e16
    with pytest.raises(DomainError, match=r"shift 1e\+16 rounds the set to "
                       r"1 of its 2 intervals in double precision"):
        infinity_sweep(leb, H, [0.0, 1e16])
    # at 1e17 the ulp is 16: the pieces round to [1e17, 1e17] and vanish
    with pytest.raises(DomainError, match=r"shift 1e\+17 rounds the set to "
                       r"nothing in double precision"):
        infinity_sweep(leb, H, [1e17])
    rows = infinity_sweep(leb, H, [0.0, 1e4, 1e8])
    assert [r.x for r in rows] == [0.0, 1e4, 1e8]


def test_double_integral_examples():
    assert double_integral_mean(catalog("lebesgue"), 0.0, 1.0) == \
        pytest.approx(0.5, abs=1e-8)
    assert double_integral_mean(catalog("geometric"), 1.0, 4.0) == \
        pytest.approx(2.0, abs=1e-7)
    assert double_integral_mean(catalog("harmonic"), 2.0, 6.0) == \
        pytest.approx(3.0, abs=1e-7)


def test_double_integral_shares_density_evaluations():
    g = catalog("geometric")
    calls = [0]

    def w(x):
        calls[0] += 1
        return g.density(x)

    spec = dataclasses.replace(g, cdf=None, antiderivative=None, density=w)
    assert double_integral_mean(spec, 1.0, 4.0) == pytest.approx(2.0, abs=1e-7)
    # the outer pass reads w(y) from the inner passes' table
    assert calls[0] <= 75


def test_mean_unchanged_by_degenerate_points():
    # degenerate points are dropped by the representation, so the mean is
    # bit-for-bit identical
    g = catalog("geometric")
    with_point = normalize([(3.0, 3.0), (1.0, 2.0), (7.0, 7.0)])
    without = normalize([(1.0, 2.0)])
    assert mean(g, with_point) == mean(g, without)


def test_internality_on_random_unions():
    rng = random.Random(23)
    for name, window in [("geometric", (0.1, 100.0)), ("lebesgue", (-50.0, 50.0)),
                         ("exponential", (-5.0, 5.0))]:
        spec = catalog(name)
        for _ in range(200):
            H = random_interval_union(rng, window, max_intervals=4)
            v = mean(spec, H).value
            assert H.infimum() <= v <= H.supremum()


def test_ordered_interval_family_inequality():
    # oracle both sides in closed form: for increasing disjoint intervals,
    # sum(sqrt(b)-sqrt(a)) / sum(1/sqrt(a)-1/sqrt(b))
    #   <= (1/2) sum(b^2-a^2) / sum(b-a)
    rng = np.random.default_rng(29)
    for _ in range(300):
        pts = np.sort(rng.uniform(0.1, 100.0, size=2 * int(rng.integers(1, 6))))
        pairs = [(pts[2 * i], pts[2 * i + 1]) for i in range(len(pts) // 2)]
        pairs = [(a, b) for a, b in pairs if b - a > 1e-9]
        if not pairs:
            continue
        lhs = (sum(math.sqrt(b) - math.sqrt(a) for a, b in pairs)
               / sum(1 / math.sqrt(a) - 1 / math.sqrt(b) for a, b in pairs))
        rhs = 0.5 * (sum(b * b - a * a for a, b in pairs)
                     / sum(b - a for a, b in pairs))
        assert lhs <= rhs + 1e-9


class _CountingRng:
    """A generator that counts its draws and stops a draw loop after 100."""

    def __init__(self):
        self.draws = 0
        self._rng = random.Random(0)

    def _draw(self):
        self.draws += 1
        if self.draws > 100:
            raise AssertionError("random_interval_union keeps drawing")

    def randint(self, *args, **kwargs):
        self._draw()
        return self._rng.randint(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        self._draw()
        return self._rng.uniform(*args, **kwargs)


@pytest.mark.parametrize("window, min_intervals, max_intervals", [
    ((1.0, 1.0), 1, 5),
    ((4.0, 1.0), 1, 5),
    ((0.0, math.inf), 1, 5),
    ((math.nan, 1.0), 1, 5),
    ((0.0, 1.0), 0, 0),
    ((0.0, 1.0), -1, 2),
    ((0.0, 1.0), 3, 2),
    ((-1e308, 1e308), 1, 5),  # finite ends, but the width overflows
    ((1, 2, 3), 1, 5),  # not a pair
    ((1, None), 1, 5),
    (("1", "4"), 1, 5),
    (None, 1, 5),
])
def test_random_interval_union_rejects_bad_input_before_drawing(
        window, min_intervals, max_intervals):
    rng = _CountingRng()
    with pytest.raises(InvalidInterval):
        random_interval_union(rng, window, max_intervals=max_intervals,
                              min_intervals=min_intervals)
    assert rng.draws == 0


def test_certify_leq_rejects_a_window_too_wide_before_drawing():
    # finite ends whose width overflows: rng.uniform would draw inf
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(InvalidInterval, match=r"\(-1e\+308, 1e\+308\)"):
        certify_leq(catalog("lebesgue"), catalog("lebesgue"), (-1e308, 1e308),
                    rng=rng)
    assert rng.getstate() == state
