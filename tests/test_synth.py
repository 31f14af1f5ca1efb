"""Synthetic dataset generators: frequency layouts, text corpora, mixtures."""

import numpy as np
import pytest

from entity_sampler.blocking import jaccard_distance
from entity_sampler.gmm import MixtureModel
from entity_sampler.synth import (
    balanced_dataset,
    dataset_from_freqs,
    dispersed_dataset,
    duplicate_text_corpus,
    mixture_tracking_dataset,
    planted_clusters,
    ratio_dataset,
    restaurants_standin,
    token_pair,
)


def test_dataset_from_freqs_layout():
    d = dataset_from_freqs([3, 1, 2], seed=0)
    assert d.n == 6
    assert d.entity_freqs.tolist() == [3, 1, 2]
    assert len(set(d.ids)) == 6
    # one distinct content per entity
    assert np.unique(d.dedup_codes).size == 3


def test_dataset_from_freqs_custom_values():
    d = dataset_from_freqs([2, 2], seed=0, values=np.array([5.0, 9.0]))
    assert d.entity_values().tolist() == [5.0, 9.0]
    assert sorted(d.values.tolist()) == [5.0, 5.0, 9.0, 9.0]


def test_balanced_dataset_hits_target_balance():
    d = balanced_dataset(n_entities=50, n_rows=10_000, eta=0.01, seed=1)
    assert d.n == 10_000
    assert len(d.entity_freqs) == 50
    assert d.entity_freqs.min() / d.n >= 0.01 - 1e-12
    assert d.entity_freqs.min() >= 100


def test_ratio_dataset_two_levels():
    d = ratio_dataset(ratio=5, n_entities=10, base_freq=4, seed=2)
    levels = sorted(set(d.entity_freqs.tolist()))
    assert levels == [4, 20]
    assert (d.entity_freqs == 4).sum() == 5
    assert (d.entity_freqs == 20).sum() == 5


def test_dispersed_dataset_shape_and_values():
    d = dispersed_dataset(2000, 40, dup=0.3, seed=1)
    assert len(d.entity_freqs) == 2000
    assert abs(d.n - 80_000) / 80_000 < 0.05
    assert d.values.min() >= 400.0 and d.values.max() <= 1e6
    # near-duplicate content variants: more distinct contents than entities
    assert np.unique(d.features[:, 0]).size > 2000
    # the value column is constant within an entity despite content variants
    for e in np.random.default_rng(0).integers(0, 2000, size=20):
        idx = np.flatnonzero(d.entity_codes == e)
        assert np.unique(d.values[idx]).size == 1


def test_dispersed_duplication_widens_frequencies():
    lo = dispersed_dataset(1000, 40, dup=0.05, seed=3)
    hi = dispersed_dataset(1000, 40, dup=0.3, seed=3)
    assert hi.entity_freqs.std() > lo.entity_freqs.std()


def test_duplicate_text_corpus_structure():
    c = duplicate_text_corpus(50, 0.4, seed=2)
    assert c.n == 70  # 50 entities plus 20 near-duplicate records
    assert len(c.entity_freqs) == 50
    assert int((c.entity_freqs == 2).sum()) == 20
    codes = c.entity_codes
    for e in np.flatnonzero(c.entity_freqs == 2):
        i, j = np.flatnonzero(codes == e)
        assert jaccard_distance(c.tokens[i], c.tokens[j]) <= 0.2
    assert c.features is not None
    bare = duplicate_text_corpus(10, 0.2, seed=2, with_features=False)
    assert bare.features is None


def test_token_pair_distance_is_exact():
    for shared, unique in ((30, 10), (40, 5), (8, 8)):
        a, b = token_pair(shared, unique, seed=7)
        want = 1 - shared / (shared + 2 * unique)
        assert jaccard_distance(a, b) == pytest.approx(want)
        assert len(a) == shared + unique and len(b) == shared + unique


def test_planted_clusters_geometry():
    d = planted_clusters(3, 20, separation=4.0, dim=2, seed=0, n_singletons=2)
    assert d.n == 62
    feats, codes = d.features, d.entity_codes
    for ci in range(3):
        member = feats[codes == ci]
        center = np.array([4.0 * ci, 0.0])
        assert np.linalg.norm(member - center, axis=1).max() <= 1.0 + 1e-9
    singles = feats[codes >= 3]
    assert (singles[:, 0] <= -10.0).all()


def test_mixture_tracking_dataset_obeys_xi():
    mm = MixtureModel(
        weights=np.array([0.5, 0.5]),
        means=np.array([[-3.0], [3.0]]),
        variances=np.array([1.0, 1.0]),
    )
    xi = 0.05
    mt = mixture_tracking_dataset(mm, xi=xi, n_rows=200_000, seed=3)
    counts = np.bincount(mt.dedup_codes)
    first = {}
    for i, code in enumerate(mt.dedup_codes):
        first.setdefault(int(code), i)
    xs = np.array([mt.features[first[c], 0] for c in range(counts.size)])
    ratio = (counts / mt.n) / mm.pdf(xs.reshape(-1, 1))
    assert ratio.max() / ratio.min() <= (1 + xi) / (1 - xi)


def test_standin_corpus_is_frozen():
    r = restaurants_standin(seed=0)
    assert len(r.entity_freqs) == 752
    assert int((r.entity_freqs == 2).sum()) == 112
    assert r.n == 864
    again = restaurants_standin(seed=0)
    assert np.array_equal(again.ids, r.ids)

