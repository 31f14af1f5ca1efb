"""Balanced regime: planner, count/m estimates, distinct counts.

The distinct-count estimator's headline property is unbiasedness over
without-replacement samples.  The oracle here is pure enumeration: for every
class-size profile of n <= 8 records and every sample size, average the
estimate over all C(n, m) subsets and compare to the true distinct count.
Unbiasedness is known to hold exactly when no class exceeds the sample size,
and to fail otherwise; both halves are asserted.
"""

import math
from itertools import combinations

import numpy as np
import pytest

from entity_sampler.balanced import (
    FingerprintStats,
    UnstableSumWarning,
    estimate_probs_balanced,
    goodman_estimate,
    plan_sample_size,
)
from entity_sampler.rejection import DegenerateMapWarning
from entity_sampler.synth import dataset_from_freqs


def partitions(n, maxpart=None):
    """Non-increasing positive tuples summing to n."""
    maxpart = n if maxpart is None else maxpart
    if n == 0:
        yield ()
        return
    for first in range(min(n, maxpart), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def subset_mean_estimate(profile, m):
    """Mean of the distinct-count estimate over all m-subsets."""
    labels = [ci for ci, size in enumerate(profile) for _ in range(size)]
    n = len(labels)
    total = []
    for subset in combinations(range(n), m):
        counts = {}
        for idx in subset:
            counts[labels[idx]] = counts.get(labels[idx], 0) + 1
        f = {}
        for c in counts.values():
            f[c] = f.get(c, 0) + 1
        stats = FingerprintStats(m=m, r=len(counts), f=f)
        total.append(goodman_estimate(stats, n))
    return math.fsum(total) / len(total)


def test_distinct_count_spec_case():
    # 6 records in classes of 3/2/1, sample size 3: max class size <= m
    assert subset_mean_estimate((3, 2, 1), 3) == pytest.approx(3.0, abs=1e-9)


def test_distinct_count_unbiased_exactly_on_validity_domain():
    valid = biased = 0
    worst = 0.0
    for n in range(2, 9):
        for profile in partitions(n):
            for m in range(1, n):
                mean = subset_mean_estimate(profile, m)
                err = abs(mean - len(profile))
                if max(profile) <= m:
                    valid += 1
                    worst = max(worst, err)
                    assert err <= 1e-9, (profile, m, mean)
                else:
                    biased += 1
                    assert err > 1e-9, (profile, m, mean)
    assert (valid, biased) == (199, 151)
    assert worst <= 1e-9


def test_distinct_count_counterexample_outside_domain():
    # two copies of one value, sample of one: estimate averages to 2, not 1
    assert subset_mean_estimate((2,), 1) == pytest.approx(2.0, abs=1e-9)


def test_goodman_validation_and_instability():
    stats = FingerprintStats(m=2, r=2, f={1: 2})
    with pytest.raises(ValueError):
        goodman_estimate(stats, 2)
    big = FingerprintStats(m=10, r=5, f={6: 1, 1: 4})
    with pytest.warns(UnstableSumWarning):
        goodman_estimate(big, 1000)


def test_planner_golden_values():
    plan = plan_sample_size(0.1, 0.1, 0.1, n_entities=10)
    assert plan.m_raw == pytest.approx(148268.11989452154, rel=1e-12)
    assert plan.m == 148269
    # unknown entity count falls back to ceil(1/eta), here the same
    fallback = plan_sample_size(0.1, 0.1, 0.1)
    assert fallback.n_entities == 10
    assert fallback.m == plan.m


def test_planner_scales():
    base = plan_sample_size(0.1, 0.1, 0.1, n_entities=10)
    assert plan_sample_size(0.05, 0.1, 0.1, n_entities=10).m > base.m
    assert plan_sample_size(0.1, 0.01, 0.1, n_entities=10).m > base.m
    assert plan_sample_size(0.1, 0.1, 0.05, n_entities=10).m > base.m
    assert plan_sample_size(0.1, 0.1, 0.1, n_entities=10, a=2.0).m_raw == (
        pytest.approx(2 * base.m_raw, rel=1e-12)
    )


def test_planner_validation():
    for bad in ((0.0, 0.1, 0.1), (0.1, 1.0, 0.1), (0.1, 0.1, 0.0)):
        with pytest.raises(ValueError):
            plan_sample_size(*bad)


def test_estimates_are_counts_over_m():
    d = dataset_from_freqs([5, 3, 2], seed=0)
    m, seed = 400, 42
    pmap = estimate_probs_balanced(d, m, seed=seed)
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(m, d.dedup_freqs / d.n)
    seen = counts > 0
    expect = counts / m
    expect[~seen] = expect[seen].min()
    assert np.array_equal(pmap.by_code, expect)
    assert pmap.floor == expect[seen].min()


def test_estimates_converge_to_true_probabilities():
    d = dataset_from_freqs([5, 3, 2], seed=0)
    pmap = estimate_probs_balanced(d, m=200_000, seed=1)
    dense = pmap.resolve(d)
    true = d.entity_freqs[d.entity_codes] / d.n
    assert np.max(np.abs(dense - true)) < 0.01


def test_estimator_cost_tracks_distinct_values_not_rows():
    # a million rows but three distinct contents: the map stays tiny
    d = dataset_from_freqs([500_000, 300_000, 200_000], seed=0)
    pmap = estimate_probs_balanced(d, m=1000, seed=2)
    assert len(pmap.by_code) <= 3


@pytest.mark.parametrize("m", [2.9, 2.5, np.float64(3.0), "3", 0, -1])
def test_sample_size_must_be_a_positive_integer(m):
    d = dataset_from_freqs([5, 3, 2], seed=0)
    with pytest.raises(ValueError, match="sample size m"):
        estimate_probs_balanced(d, m, seed=0)
    assert np.array_equal(estimate_probs_balanced(d, np.int64(3), seed=0).by_code,
                          estimate_probs_balanced(d, 3, seed=0).by_code)


def test_single_value_sample_warns():
    d = dataset_from_freqs([3], seed=0)
    with pytest.warns(DegenerateMapWarning):
        estimate_probs_balanced(d, m=5, seed=0)


def test_fingerprint_stats_validation():
    with pytest.raises(Exception):
        FingerprintStats(m=3, r=2, f={1: 1})  # weighted sum 1 != 3
    with pytest.raises(Exception):
        FingerprintStats(m=3, r=1, f={1: 1, 2: 1})  # count sum 2 != 1

