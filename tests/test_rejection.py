"""Rejection sampler: induced distribution, acceptance law, probability maps.

Induced-mass oracle, worked by hand for the two fixed cases below: entity
mass is proportional to the sum over its records of floor / phat(record),
with floor the smallest estimate.  Exact estimates cancel frequency exactly.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entity_sampler.balanced import estimate_probs_balanced
from entity_sampler.dataset import Dataset, tv_distance, uniform_distribution
from entity_sampler.rejection import (
    CoverageError,
    DegenerateMapWarning,
    InvalidMapError,
    ProbabilityMap,
    SampleBudgetError,
    exact_induced_distribution,
    expected_trials_per_accept,
    sample_clean,
)
from entity_sampler.synth import dataset_from_freqs, dispersed_dataset


def two_entity_data():
    # entity 0 has 3 records, entity 1 has 2
    return dataset_from_freqs([3, 2], seed=0)


def test_exact_probabilities_induce_uniform():
    d = two_entity_data()
    pmap = ProbabilityMap(dense=np.array([0.6, 0.6, 0.6, 0.4, 0.4]))
    induced = exact_induced_distribution(d, pmap)
    u = uniform_distribution(induced.support)
    assert tv_distance(induced, u) <= 1e-15


def test_distorted_probabilities_hand_case():
    # floor = 0.25; entity 0 mass 3 * 0.25/0.5 = 1.5, entity 1 mass 2 * 1 = 2
    d = two_entity_data()
    pmap = ProbabilityMap(dense=np.array([0.5, 0.5, 0.5, 0.25, 0.25]))
    induced = exact_induced_distribution(d, pmap)
    assert induced.support == d.entity_names
    assert induced.p.tolist() == pytest.approx([1.5 / 3.5, 2.0 / 3.5])


def test_induced_mass_is_a_read_only_view_by_name():
    d = Dataset(ids=tuple(range(5)), features=np.arange(5.0).reshape(-1, 1),
                entity_labels=["u", "u", "u", "v", "v"])
    induced = exact_induced_distribution(
        d, ProbabilityMap(dense=np.array([0.5, 0.5, 0.5, 0.25, 0.25])))
    assert induced.support == ("u", "v")
    assert dict(induced.mass) == dict(zip(induced.support, induced.p.tolist()))
    assert induced.mass["v"] == pytest.approx(2.0 / 3.5)
    assert "w" not in induced.mass
    with pytest.raises(TypeError):
        induced.mass["u"] = 1.0


def test_induced_is_scale_invariant():
    d = two_entity_data()
    base = np.array([0.5, 0.5, 0.5, 0.25, 0.25])
    ref = exact_induced_distribution(d, ProbabilityMap(dense=base))
    for c in (0.1, 2.0, 10.0):
        scaled = exact_induced_distribution(d, ProbabilityMap(dense=c * base))
        assert tv_distance(ref, scaled) <= 1e-12


@settings(deadline=None, max_examples=25)
@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5),
    st.integers(min_value=0, max_value=10**6),
)
def test_exact_estimates_always_uniform(freqs, seed):
    d = dataset_from_freqs(freqs, seed=seed)
    n = d.n
    phat = d.entity_freqs[d.entity_codes] / n
    induced = exact_induced_distribution(d, ProbabilityMap(dense=phat))
    u = uniform_distribution(induced.support)
    assert tv_distance(induced, u) <= 1e-12


def test_expected_trials_closed_form():
    # ratios floor/phat = (0.5, 1.0); mean 0.75; expectation 4/3
    d = dataset_from_freqs([1, 1], seed=0)
    pmap = ProbabilityMap(dense=np.array([0.5, 0.25]))
    assert expected_trials_per_accept(d, pmap) == pytest.approx(4 / 3)


def test_measured_trials_match_expectation():
    d = dataset_from_freqs([6, 2], seed=1)
    phat = d.entity_freqs[d.entity_codes] / d.n
    pmap = ProbabilityMap(dense=phat)
    expected = expected_trials_per_accept(d, pmap)
    res = sample_clean(d, pmap, p=20_000, seed=7)
    # trials to the p-th accept is negative-binomial; 4 sigma on the mean
    q = 1.0 / expected
    sigma = np.sqrt((1 - q) / q**2 / res.size) * expected**0
    assert res.trials_per_accept == pytest.approx(expected, abs=4 * sigma / expected)


def test_uniform_estimates_accept_everything():
    d = two_entity_data()
    pmap = ProbabilityMap(dense=np.full(5, 0.2))
    with pytest.warns(DegenerateMapWarning):
        res = sample_clean(d, pmap, p=50, seed=3)
    assert res.trials == 50
    assert res.size == 50


def test_sample_result_bookkeeping():
    d = two_entity_data()
    phat = d.entity_freqs[d.entity_codes] / d.n
    res = sample_clean(d, ProbabilityMap(dense=phat), p=200, seed=11)
    assert res.size == 200
    assert len(res.record_indices) == 200
    assert res.per_entity_counts.shape == (len(d.entity_names),)
    assert res.per_entity_counts.sum() == 200
    assert res.per_entity_counts.tolist() == np.bincount(
        d.entity_codes[res.record_indices], minlength=2).tolist()
    assert res.trials >= 200
    assert res.trials_per_accept == pytest.approx(res.trials / 200)


def test_sample_counts_are_near_uniform_with_exact_probs():
    d = dataset_from_freqs([8, 1, 1], seed=2)
    phat = d.entity_freqs[d.entity_codes] / d.n
    res = sample_clean(d, ProbabilityMap(dense=phat), p=3000, seed=5)
    counts = res.per_entity_counts
    # binomial(3000, 1/3) gives sigma ~ 25.8; allow 4 sigma
    assert np.all(np.abs(counts - 1000) < 4 * np.sqrt(3000 * (1 / 3) * (2 / 3)))


@pytest.mark.parametrize(
    "kwargs, match",
    [({"p": 2.5}, "sample size p"), ({"p": 0}, "sample size p"),
     ({"p": -3}, "sample size p"), ({"p": np.float64(4.0)}, "sample size p"),
     ({"p": "4"}, "sample size p"), ({"max_trials_factor": 0.5}, "max_trials_factor"),
     ({"max_trials_factor": 0}, "max_trials_factor"),
     ({"max_trials_factor": -2}, "max_trials_factor")],
)
def test_sample_size_and_trial_factor_must_be_positive_integers(kwargs, match):
    d = two_entity_data()
    pmap = ProbabilityMap(dense=d.entity_freqs[d.entity_codes] / d.n)
    with pytest.raises(ValueError, match=match):
        sample_clean(d, pmap, **{"p": 4, "seed": 0, **kwargs})
    assert sample_clean(d, pmap, p=np.int64(4), seed=0,
                        max_trials_factor=np.int32(3)).size == 4


def test_budget_error_when_acceptance_is_rare():
    # floor 1e-9 makes four of five records near-impossible to accept
    d = two_entity_data()
    pmap = ProbabilityMap(dense=np.array([1.0, 1.0, 1.0, 1.0, 1e-9]))
    with pytest.raises(SampleBudgetError):
        sample_clean(d, pmap, p=1000, seed=0, max_trials_factor=1)


def test_coverage_error_for_missing_code():
    d = two_entity_data()
    pmap = ProbabilityMap(by_code=np.array([0.5]))
    with pytest.raises(CoverageError):
        pmap.resolve(d)


def test_per_code_map_resolves():
    d = two_entity_data()
    code_of_first = int(d.dedup_codes[0])
    table = np.full(d.dedup_freqs.size, 0.4)
    table[code_of_first] = 0.6
    pmap = ProbabilityMap(by_code=table)
    dense = pmap.resolve(d)
    assert dense[0] == pytest.approx(0.6)
    assert dense[-1] == pytest.approx(0.4)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_backing_does_not_change_the_sample(seed):
    # 70,000 accepts need many 8,192-trial chunks; 150 end inside the
    # first
    d = dataset_from_freqs([40, 17, 9, 5, 3, 2, 1, 1], seed=seed)
    by_code = estimate_probs_balanced(d, m=30, seed=seed)
    dense = ProbabilityMap(dense=by_code.resolve(d))
    for p in (150, 70_000):
        a = sample_clean(d, by_code, p=p, seed=seed + 10)
        b = sample_clean(d, dense, p=p, seed=seed + 10)
        assert np.array_equal(a.record_indices, b.record_indices)
        assert a.trials == b.trials
        assert np.array_equal(a.per_entity_counts, b.per_entity_counts)
    assert a.trials > 1 << 16
    assert expected_trials_per_accept(d, by_code) == pytest.approx(
        expected_trials_per_accept(d, dense), rel=1e-12)


@pytest.mark.parametrize("labels", ["entities", "pairs of entities", "none"])
@pytest.mark.parametrize("seed", [0, 1])
def test_induced_distribution_is_the_same_for_either_backing(labels, seed):
    base = dataset_from_freqs([40, 17, 9, 5, 3, 2, 1, 1, 1], seed=seed)
    entity_labels = {"entities": base.entity_labels,
                     "pairs of entities": base.entity_labels // 2,
                     "none": None}[labels]
    d = Dataset(ids=base.ids, features=base.features, entity_labels=entity_labels)
    by_code = estimate_probs_balanced(d, m=30, seed=seed)
    dense = ProbabilityMap(dense=by_code.resolve(d))
    a = exact_induced_distribution(d, by_code)
    b = exact_induced_distribution(d, dense)
    assert a.support == b.support == d.entity_names
    assert np.allclose(a.p, b.p, rtol=1e-12, atol=0)


def test_sampling_memory_does_not_grow_with_the_table():
    d = dispersed_dataset(10_500, 40, 0.3, seed=4)
    assert d.n >= 400_000
    pmap = estimate_probs_balanced(d, m=4000, seed=5)
    d.dedup_codes, d.entity_codes, d.entity_names  # factorize outside the trace
    tracemalloc.start()
    try:
        res = sample_clean(d, pmap, p=1000, seed=6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.size == 1000
    assert peak < d.n * 8  # less than one float64 per record


def test_equal_per_code_estimates_warn():
    d = dataset_from_freqs([3, 2, 1], seed=0)
    pmap = ProbabilityMap(by_code=np.full(d.dedup_freqs.size, 0.25))
    with pytest.warns(DegenerateMapWarning):
        res = sample_clean(d, pmap, p=20, seed=1)
    assert res.trials == 20
    with pytest.warns(DegenerateMapWarning):
        assert expected_trials_per_accept(d, pmap) == 1.0


def test_invalid_maps_rejected():
    with pytest.raises(InvalidMapError):
        ProbabilityMap(dense=np.array([0.5, -0.1]))
    with pytest.raises(InvalidMapError):
        ProbabilityMap(dense=np.array([0.5, 0.0]))
    with pytest.raises(InvalidMapError):
        ProbabilityMap(dense=np.array([0.5, np.nan]))


def test_map_and_sample_result_compare_by_identity_and_hash():
    d = two_entity_data()
    phat = d.entity_freqs[d.entity_codes] / d.n
    pmap, twin = ProbabilityMap(dense=phat), ProbabilityMap(dense=phat.copy())
    res = sample_clean(d, pmap, p=5, seed=0)
    assert pmap == pmap and pmap != twin
    assert res == res and res != sample_clean(d, pmap, p=5, seed=0)
    assert len({pmap, twin, res}) == 3


def test_map_csv_round_trip(tmp_path):
    d = two_entity_data()
    phat = np.array([0.123456789012345678, 0.2, 0.3, 1 / 3, 0.4])
    pmap = ProbabilityMap(dense=phat)
    path = tmp_path / "map.csv"
    pmap.to_csv(str(path), d)
    back = ProbabilityMap.from_csv(str(path))
    assert np.array_equal(back.ids, d.ids.astype(str))
    assert np.array_equal(back.dense, phat)


def test_map_csv_by_code_writes_the_dense_views_bytes(tmp_path):
    d = dispersed_dataset(50, 8, 0.3, seed=2)
    assert d.dedup_freqs.size < d.n
    table = np.random.default_rng(3).random(d.dedup_freqs.size) + 1e-3
    by_code, dense = tmp_path / "by_code.csv", tmp_path / "dense.csv"
    ProbabilityMap(by_code=table).to_csv(str(by_code), d)
    ProbabilityMap(dense=table[d.dedup_codes]).to_csv(str(dense), d)
    assert by_code.read_bytes() == dense.read_bytes()


@pytest.mark.parametrize(
    "body, line",
    [("a,0.5\nb\n", 3), ("a,0.5\n\nb,0.5\n", 3), ("a,0.5\nb,half\n", 3)],
    ids=["short-row", "blank-line", "non-numeric"],
)
def test_map_csv_rejects_malformed_rows(tmp_path, body, line):
    path = tmp_path / "map.csv"
    path.write_text("record_id,phat\n" + body, encoding="utf-8")
    with pytest.raises(InvalidMapError, match=f"{path} line {line}"):
        ProbabilityMap.from_csv(str(path))
