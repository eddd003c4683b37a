"""The property-suite harness: argument checks, seeding and the counterexample."""

import random

import numpy as np
import pytest

from meanmeasure import (
    InvalidInterval,
    UnknownMeasure,
    cantor_probe,
    catalog,
    certify_leq,
    normalize,
)
from meanmeasure import verify
from meanmeasure.verify import ALL_SUITES, run_suites


def test_negative_seed_raises_a_typed_error():
    for seed in (-1, 1.5, "3"):
        with pytest.raises(InvalidInterval, match="seed"):
            run_suites(["internality"], cases=1, seed=seed)
    geo, leb = catalog("geometric"), catalog("lebesgue")
    for seed in (-1, np.int64(-1), 1.5, "3"):
        with pytest.raises(InvalidInterval, match="seed"):
            certify_leq(geo, leb, (0.1, 100.0), rng=seed)
    cert = certify_leq(geo, leb, (0.1, 100.0), n_probe=5, n_random=5,
                       rng=random.Random(1))
    assert cert.certified


def test_a_run_that_checks_nothing_is_rejected():
    with pytest.raises(UnknownMeasure, match="no suite"):
        run_suites([])
    for cases in (0, -3, 2.5, "3"):
        with pytest.raises(InvalidInterval, match="cases"):
            run_suites(["internality"], cases=cases)


def test_dmu_continuity_checks_the_counterexample(monkeypatch):
    probe = {"distance": 0.01, "avg_before": 0.5, "avg_after": 0.5,
             "jumped": False}
    monkeypatch.setattr(verify, "counterexample_unbounded_window",
                        lambda: probe)
    (dmu,) = run_suites(["dmu-continuity"], cases=1)
    assert not dmu.passed and dmu.failures[-1] == {"counterexample": probe}
    (internality,) = run_suites(["internality"], cases=1)
    assert internality.passed


def test_counterexample_needs_a_positive_delta():
    # delta = 0 once raised a bare ZeroDivisionError
    for delta in (0.0, -0.01, "x", None):
        with pytest.raises(InvalidInterval, match="delta"):
            verify.counterexample_unbounded_window(delta)


def test_suite_at_position_i_is_seeded_with_seed_plus_101_i(monkeypatch):
    log = []
    real_mean, real_draw = verify.mean, verify.random_interval_union

    def logged_mean(spec, H, *args, **kwargs):
        log.append((spec.name, H.intervals))
        return real_mean(spec, H, *args, **kwargs)

    def logged_draw(*args, **kwargs):
        H = real_draw(*args, **kwargs)
        log.append(H.intervals)
        return H

    # the monotonicity suites pass their sets to a probe, not to mean
    monkeypatch.setattr(verify, "mean", logged_mean)
    monkeypatch.setattr(verify, "random_interval_union", logged_draw)
    run_suites(cases=5, seed=3)
    whole = list(log)
    parts = []
    for i, name in enumerate(ALL_SUITES):
        log.clear()
        run_suites([name], cases=5, seed=3 + 101 * i)
        assert log, name
        parts.extend(log)
    assert parts == whole


def test_cantor_continuity_allows_a_heavy_first_bump(monkeypatch):
    # the first bump of the square measure outweighs the base [0.1, 0.5] by
    # about 2600 to 1, so 14 halvings leave the last gap above 1% of the
    # first, and only the mass bound mu(J) / mu(base) tells continuity apart
    square, base = catalog("square"), normalize([(0.1, 0.5)])
    monkeypatch.setattr(verify, "_pick", lambda rng: (square, (0.1, 100.0)))
    monkeypatch.setattr(verify, "random_interval_union", lambda *a, **k: base)
    (cantor,) = run_suites(["cantor-continuity"], cases=1)
    assert cantor.passed, cantor.failures
    c, width = 0.5 + 0.05 * 99.9, 0.2 * 99.9
    gaps = cantor_probe(square, [base.union(normalize([(c, c + width * 0.5 ** i)]))
                                 for i in range(15)] + [base])
    assert gaps[-2] > 1e-2 * gaps[0]
