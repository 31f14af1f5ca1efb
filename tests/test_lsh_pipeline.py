"""Block-and-cluster probability estimation, end to end."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entity_sampler import balanced, cli, clustering, dataset, lsh_pipeline, rejection, ssc
from entity_sampler import blocking as blocking_module
from entity_sampler.blocking import Blocking, LshConfig, lsh_partition
from entity_sampler.clustering import Clustering, ClusteringError
from entity_sampler.dataset import Dataset, DatasetError, tv_distance, uniform_distribution
from entity_sampler.lsh_pipeline import estimate_probs_lsh
from entity_sampler.rejection import exact_induced_distribution
from entity_sampler.ssc import SameClusterOracle
from entity_sampler.synth import duplicate_text_corpus, planted_clusters


def blocking_of(slices, n):
    """Blocking of n records whose block b is the records of slices[b]."""
    labels = np.full(n, -1, dtype=np.int64)
    for b, (lo, hi) in enumerate(slices):
        labels[lo:hi] = b
    return Blocking(labels=labels)


def test_zero_duplicates_give_uniform_map():
    rng = np.random.default_rng(0)
    n = 40
    feats = rng.normal(0, 1, (n, 2)) + 50 * np.arange(n)[:, None]
    data = Dataset(ids=tuple(range(n)), features=feats,
                   entity_labels=list(range(n)))
    blocking = Blocking(labels=np.arange(n))
    est = estimate_probs_lsh(
        data, blocking, k_range=(1, 3), budget=100,
        oracle=SameClusterOracle(list(range(n))), seed=0,
    )
    assert np.allclose(est.pmap.resolve(data), 1.0 / n)
    induced = exact_induced_distribution(data, est.pmap)
    assert tv_distance(induced, uniform_distribution(induced.support)) <= 1e-12


def test_planted_three_blocks_recover_exact_probabilities():
    sizes = (8, 5, 3)
    parts, labels = [], []
    for bi, s in enumerate(sizes):
        d = planted_clusters(2, s, separation=4.0, dim=2, seed=bi)
        feats = d.features.copy()
        feats[:, 0] += 100.0 * bi  # keep blocks spatially apart
        parts.append(feats)
        labels.extend(f"b{bi}_{lab}" for lab in d.entity_labels)
    feats = np.vstack(parts)
    n = feats.shape[0]
    data = Dataset(ids=tuple(range(n)), features=feats, entity_labels=labels)
    bounds = np.cumsum([0] + [2 * s for s in sizes])
    blocking = blocking_of(list(zip(bounds[:-1], bounds[1:])), n)
    # radius 2 covers a whole unit ball, so no cluster member can be isolated
    est = estimate_probs_lsh(
        data, blocking, k_range=(1, 3), budget=600,
        oracle=SameClusterOracle(tuple(data.entity_codes)), seed=1,
        mu_radius=2.0,
    )
    true = data.entity_freqs[data.entity_codes] / n
    assert np.allclose(est.pmap.resolve(data), true)
    induced = exact_induced_distribution(data, est.pmap)
    assert tv_distance(induced, uniform_distribution(induced.support)) <= 1e-12


def test_group_numbering_runs_on_across_blocks():
    # blocks: {0}, {1..7}, {8}; in the middle block points 1, 4 and 3, 6
    # form two clusters and 2, 5, 7 are isolated garbage between them
    xs = [0.0, 0.0, 50.0, 10.0, 0.1, 80.0, 10.1, 30.0, 200.0]
    feats = np.array(xs)[:, None]
    entities = [0, 1, 2, 3, 1, 4, 3, 5, 6]
    data = Dataset(ids=tuple(range(9)), features=feats, entity_labels=entities)
    blocking = blocking_of([(0, 1), (1, 8), (8, 9)], 9)
    oracle = PairRecordingOracle(entities)
    est = estimate_probs_lsh(data, blocking, k_range=(2, 2), budget=100,
                             oracle=oracle, seed=0)
    # the middle block is decided by its forest's answers: the two forest
    # edges are asked, shortest first (10.1 - 10.0 rounds below 0.1), and
    # both are "same"
    assert oracle.asked == [(3, 6), (1, 4)]
    assert est.outcomes.tolist() == [(1, 2, 0, 2, 0)]
    # block 0: group 0; block 1: clusters 1, 2 in the order of their least
    # point, then garbage 3, 4, 5 in index order; block 2: group 6
    assert est.group_ids.tolist() == [0, 1, 3, 2, 1, 4, 2, 5, 6]
    assert est.group_sizes.tolist() == [1, 2, 2, 1, 1, 1, 1]


def test_group_sizes_partition_the_records():
    data = duplicate_text_corpus(60, 0.4, seed=3)
    blocking = lsh_partition(data, LshConfig.plan(0.2, 0.1), seed=4)
    est = estimate_probs_lsh(
        data, blocking, k_range=(1, 4), budget=500,
        oracle=SameClusterOracle(tuple(data.entity_codes)), seed=5,
    )
    # per-cluster masses |C|/n sum to one over the clusters
    assert est.group_sizes.sum() == data.n
    assert (est.group_ids >= 0).all()
    assert np.array_equal(np.bincount(est.group_ids), est.group_sizes)
    dense = est.pmap.resolve(data)
    assert np.allclose(dense, est.group_sizes[est.group_ids] / data.n)


def test_text_corpus_end_to_end_close_to_uniform():
    data = duplicate_text_corpus(120, 0.3, seed=6)
    blocking = lsh_partition(data, LshConfig.plan(0.2, 0.1), seed=7)
    est = estimate_probs_lsh(
        data, blocking, k_range=(1, 4), budget=1500,
        oracle=SameClusterOracle(tuple(data.entity_codes)), seed=8,
    )
    induced = exact_induced_distribution(data, est.pmap)
    assert tv_distance(induced, uniform_distribution(induced.support)) <= 0.05


def test_pure_duplicate_block_merges():
    feats = np.random.default_rng(0).normal(0, 0.05, (6, 2))
    data = Dataset(ids=tuple(range(6)), features=feats, entity_labels=[0] * 6)
    blocking = Blocking(labels=np.zeros(6, dtype=np.int64))
    est = estimate_probs_lsh(
        data, blocking, k_range=(1, 3), budget=40,
        oracle=SameClusterOracle([0] * 6), seed=1,
    )
    assert est.group_sizes.tolist() == [6]


def test_all_garbage_block_becomes_singletons():
    feats = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]])
    data = Dataset(ids=tuple(range(4)), features=feats,
                   entity_labels=[0, 1, 2, 3])
    blocking = Blocking(labels=np.zeros(4, dtype=np.int64))
    est = estimate_probs_lsh(
        data, blocking, k_range=(1, 4), budget=40,
        oracle=SameClusterOracle([0, 1, 2, 3]), seed=1,
    )
    assert est.group_sizes.tolist() == [1, 1, 1, 1]


def test_k_range_clamped_to_block_support():
    feats = np.array([[0.0, 0], [0.1, 0], [4.0, 0], [4.1, 0], [20.0, 20.0]])
    data = Dataset(ids=tuple(range(5)), features=feats,
                   entity_labels=[0, 0, 1, 1, 2])
    blocking = Blocking(labels=np.zeros(5, dtype=np.int64))
    est = estimate_probs_lsh(
        data, blocking, k_range=(1, 6), budget=60,
        oracle=SameClusterOracle([0, 0, 1, 1, 2]), seed=1,
    )
    assert sorted(est.group_sizes.tolist()) == [1, 2, 2]


def test_reports_expose_selection_outcomes():
    data = duplicate_text_corpus(40, 0.5, seed=9)
    blocking = lsh_partition(data, LshConfig.plan(0.2, 0.1), seed=10)
    est = estimate_probs_lsh(
        data, blocking, k_range=(1, 3), budget=400,
        oracle=SameClusterOracle(tuple(data.entity_codes)), seed=11,
    )
    out = est.outcomes
    assert out.dtype.names == ("block", "queries", "inferred", "n_pos", "n_neg")
    assert all(out.dtype[name] == np.int64 for name in out.dtype.names)
    # one row per decided block, in block order, each of two records or more
    assert out.size > 0 and (np.diff(out["block"]) > 0).all()
    sizes = np.array([block.size for block in blocking.blocks])
    assert (sizes[out["block"]] >= 2).all()


def test_estimate_reads_the_labels_not_the_block_tuple(monkeypatch):
    # the looser threshold leaves pair blocks and a few blocks of 3-4
    data = duplicate_text_corpus(300, 0.4, seed=21)
    cfg = LshConfig.plan(0.3, 0.1)
    blocking = lsh_partition(data, cfg, seed=22)
    sizes = np.array([block.size for block in blocking.blocks])
    assert (sizes > 2).any() and (sizes == 2).any()
    oracle = SameClusterOracle(tuple(data.entity_codes))
    want = estimate_probs_lsh(data, blocking, (1, 3), 300, oracle, seed=23)

    def refuse(self):
        raise AssertionError("the pipeline built Blocking.blocks")

    monkeypatch.setattr(Blocking, "blocks", property(refuse), raising=False)
    got = estimate_probs_lsh(data, lsh_partition(data, cfg, seed=22), (1, 3), 300,
                             oracle, seed=23)
    assert np.array_equal(got.group_ids, want.group_ids)
    assert got.outcomes.tolist() == want.outcomes.tolist()


def test_seed_determinism():
    data = duplicate_text_corpus(50, 0.4, seed=12)
    blocking = lsh_partition(data, LshConfig.plan(0.2, 0.1), seed=13)
    oracle = lambda i, j: data.entity_codes[i] == data.entity_codes[j]
    a = estimate_probs_lsh(data, blocking, (1, 3), 300, oracle, seed=14)
    b = estimate_probs_lsh(data, blocking, (1, 3), 300, oracle, seed=14)
    assert np.array_equal(a.group_ids, b.group_ids)


def test_validation_errors():
    data = duplicate_text_corpus(10, 0.2, seed=18, with_features=False)
    blocking = lsh_partition(data, LshConfig.plan(0.2, 0.1), seed=19)
    with pytest.raises(DatasetError):
        estimate_probs_lsh(data, blocking, (1, 3), 100,
                           SameClusterOracle(tuple(data.entity_codes)), seed=0)
    vec = Dataset(ids=(0, 1), features=np.zeros((2, 2)), entity_labels=[0, 1])
    wrong = Blocking(labels=np.zeros(3, dtype=np.int64))
    with pytest.raises(DatasetError):
        estimate_probs_lsh(vec, wrong, (1, 3), 100, lambda i, j: True, seed=0)
    ok_blocking = Blocking(labels=np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError):
        estimate_probs_lsh(vec, ok_blocking, (3, 1), 100, lambda i, j: True, seed=0)
    with pytest.raises(ValueError):
        estimate_probs_lsh(vec, ok_blocking, (1, 3), 0, lambda i, j: True, seed=0)
    # a count that is not an integer is refused, not rounded
    with pytest.raises(ValueError, match="budget must be an integer"):
        estimate_probs_lsh(vec, ok_blocking, (1, 3), 40.7, lambda i, j: True, seed=0)
    for k_range in ((1.5, 3), (1, 2.0)):
        with pytest.raises(ValueError, match="k_range must be an integer"):
            estimate_probs_lsh(vec, ok_blocking, k_range, 100, lambda i, j: True,
                               seed=0)


class PairRecordingOracle(SameClusterOracle):
    """Label oracle that also keeps the pairs it was asked: in order, and
    as a set of unordered pairs."""

    def __init__(self, labels):
        super().__init__(labels)
        self.asked = []
        self.pairs = set()

    def __call__(self, i, j):
        self.asked.append((i, j))
        self.pairs.add((min(i, j), max(i, j)))
        return super().__call__(i, j)


def test_two_record_blocks_ask_their_one_pair_once():
    # within the radius, so each block proposes both "merge" and "split"
    feats = np.array([[0.0, 0.0], [0.3, 0.0], [50.0, 0.0], [50.3, 0.0]])
    labels = ["a", "a", "b", "c"]
    data = Dataset(ids=tuple(range(4)), features=feats, entity_labels=labels)
    blocking = blocking_of([(0, 2), (2, 4)], 4)
    oracle = SameClusterOracle(labels)
    est = estimate_probs_lsh(data, blocking, (1, 2), budget=2,
                             oracle=oracle, seed=0)
    assert oracle.queries == 2
    assert est.group_ids[0] == est.group_ids[1]
    assert est.group_ids[2] != est.group_ids[3]
    # (block, queries, inferred, n_pos, n_neg): one question each, "same"
    # for the duplicate pair and "different" for the distinct one
    assert est.outcomes.tolist() == [(0, 1, 0, 1, 0), (1, 1, 0, 0, 1)]


def test_sampled_block_stops_once_every_pair_is_answered():
    # the forest's 3 edges exceed twice the per-side budget of 1, and
    # C(4, 2) = 6 pairs exceed the budget, so the block ranks its k-means
    # candidates by sampled selection; all-negative answers never fill the
    # positive side, and the draws stop once all six pairs are answered
    feats = np.array([[0.0, 0.0], [0.3, 0.0], [0.6, 0.0], [0.9, 0.0]])
    labels = [0, 1, 2, 3]
    data = Dataset(ids=(0, 1, 2, 3), features=feats, entity_labels=labels)
    oracle = PairRecordingOracle(labels)
    est = estimate_probs_lsh(data, blocking_of([(0, 4)], 4), (1, 4),
                             budget=1, oracle=oracle, seed=0)
    assert oracle.pairs == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
    assert oracle.queries == 6
    assert est.outcomes.tolist() == [(0, 6, 0, 0, 6)]
    assert est.group_sizes.tolist() == [1, 1, 1, 1]


def test_single_entity_block_merges_on_its_exact_pairs():
    # the forest's 7 edges exceed twice the per-side budget of 3, and
    # C(8, 2) = 28 pairs exceed the budget, so the block goes through
    # sampled selection; all-positive answers never fill the negative
    # side, and once all 28 pairs are drawn the candidates are ranked on
    # them, so the counts are counts of the block's pairs.  The oracle
    # hears the b - 1 = 7 pairs that join the components; the other 21
    # follow from those answers
    feats = np.random.default_rng(2).normal(0, 0.05, (8, 2))
    data = Dataset(ids=tuple(range(8)), features=feats, entity_labels=[0] * 8)
    oracle = SameClusterOracle([0] * 8)
    est = estimate_probs_lsh(data, blocking_of([(0, 8)], 8), (1, 3),
                             budget=3, oracle=oracle, seed=0)
    assert oracle.queries == 7
    # (block, queries, inferred, n_pos, n_neg)
    assert est.outcomes.tolist() == [(0, 7, 21, 28, 0)]
    assert est.group_sizes.tolist() == [8]


@pytest.mark.parametrize("seed", range(20))
def test_fitting_forest_decides_the_block_without_ranking(seed):
    # "a" at 0 and 0.3, "b" at 3 and 3.3, "c" at 9: the forest's 2 edges
    # fit twice the per-side budget of 1, and their two "same" answers
    # are the block's groups, whatever the seed.  Ranking them against
    # k = 1 on sampled pairs would merge "a" and "b" at some seeds
    feats = np.array([[0.0], [0.3], [3.0], [3.3], [9.0]])
    labels = ["a", "a", "b", "b", "c"]
    data = Dataset(ids=tuple(range(5)), features=feats, entity_labels=labels)
    oracle = PairRecordingOracle(labels)
    est = estimate_probs_lsh(data, blocking_of([(0, 5)], 5), (1, 4), 1, oracle,
                             seed=seed)
    # 3.3 - 3.0 rounds below 0.3, so the "b" edge is the shorter
    assert oracle.asked == [(2, 3), (0, 1)]
    assert est.group_ids.tolist() == [0, 0, 1, 1, 2]
    assert est.outcomes.tolist() == [(0, 2, 0, 2, 0)]


@settings(deadline=None, max_examples=60)
@given(st.lists(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8),
                                   st.integers(0, 3)), min_size=1, max_size=8),
                min_size=1, max_size=4))
def test_fitting_forests_ask_each_edge_once_and_merge_on_same(blocks):
    # points on a grid of step 0.25, exact copies included, each block
    # 100 apart; the budget fits every forest
    feats, labels, slices = [], [], []
    for b, block in enumerate(blocks):
        slices.append((len(labels), len(labels) + len(block)))
        for x, y, label in block:
            feats.append((100.0 * b + 0.25 * x, 0.25 * y))
            labels.append(label)
    n = len(labels)
    data = Dataset(ids=tuple(range(n)), features=np.array(feats), entity_labels=labels)
    oracle = PairRecordingOracle(labels)
    est = estimate_probs_lsh(data, blocking_of(slices, n), (1, 4), 100 * len(blocks),
                             oracle, seed=0)
    want_asked, want_rows = [], []
    for b, (lo, hi) in enumerate(slices):
        points = data.features[lo:hi]
        mask = clustering.neighbour_mask(points, 1.0)
        if not mask.any():
            continue
        forest = clustering._radius_forest(points, 1.0).tolist()
        want_asked += [(lo + i, lo + j) for i, j in forest]
        same = sum(labels[lo + i] == labels[lo + j] for i, j in forest)
        want_rows.append((b, len(forest), 0, same, len(forest) - same))
    assert oracle.asked == want_asked
    assert est.outcomes.tolist() == want_rows
    # no group holds two entities
    groups = set(zip(est.group_ids.tolist(), labels))
    assert len(groups) == est.group_sizes.size


def test_fifty_record_single_entity_block_asks_b_minus_one_pairs():
    # the forest's 49 edges fit twice the per-side budget of 100, so they
    # are the only questions, and their "same" answers join the block
    feats = np.random.default_rng(3).normal(0, 0.05, (50, 2))
    data = Dataset(ids=tuple(range(50)), features=feats, entity_labels=[0] * 50)
    oracle = SameClusterOracle([0] * 50)
    est = estimate_probs_lsh(data, blocking_of([(0, 50)], 50), (1, 3),
                             budget=100, oracle=oracle, seed=4)
    (block, queries, *_), = est.outcomes.tolist()
    assert block == 0
    assert queries == oracle.queries == 49
    assert est.group_sizes.tolist() == [50]


def lsh_vectors_input(seed=4100, n_per=50, dim=2):
    """The lsh-vectors benchmark's input at ``seed`` (VECTOR_SEEDS[0] =
    4100): 40 planted entities of ``n_per`` records and 5 singletons,
    hyperplane-blocked at seed + 1."""
    data = planted_clusters(40, n_per, 10.0, dim, seed=seed, n_singletons=5)
    return data, lsh_partition(data, LshConfig.plan(0.2, 0.1, family="hyperplane"),
                               seed=seed + 1)


def induced_tv(data, est):
    induced = exact_induced_distribution(data, est.pmap)
    return tv_distance(induced, uniform_distribution(induced.support))


def recorded_selects(monkeypatch):
    """The reports of every ``ssc_select`` call the pipeline makes."""
    reports = []

    def recording_select(*args, **kwargs):
        reports.append(ssc.ssc_select(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(lsh_pipeline, "ssc_select", recording_select)
    return reports


def recorded_lloyd_ks(monkeypatch):
    """The k of every ``lloyd_kmeans`` call."""
    ks = []
    lloyd = clustering.lloyd_kmeans

    def recording_lloyd(points, k, *args, **kwargs):
        ks.append(k)
        return lloyd(points, k, *args, **kwargs)

    monkeypatch.setattr(clustering, "lloyd_kmeans", recording_lloyd)
    return ks


def test_planted_block_asks_its_radius_forest_first(monkeypatch):
    # the benchmark's one 2,005-record block asks each of its 1,960 forest
    # edges once, in forest order, and their answers cluster it: nothing
    # is drawn or ranked
    data, blocking = lsh_vectors_input()
    assert blocking.q == 1 and blocking.sizes[0] == 2005
    reports = recorded_selects(monkeypatch)
    forest = clustering._radius_forest(data.features, 1.0)
    oracle = PairRecordingOracle(tuple(data.entity_codes))
    est = estimate_probs_lsh(data, blocking, (1, 4), 2000, oracle, seed=4102)
    assert oracle.asked == [tuple(edge) for edge in forest.tolist()]
    assert reports == []
    assert est.outcomes.tolist() == [(0, 1960, 0, 1960, 0)]
    assert est.group_sizes.size == 45


@pytest.mark.parametrize("seed", [4100, 4103])
def test_off_origin_block_with_more_entities_than_k_max_recovers_every_entity(
        monkeypatch, seed):
    # 45 entities in one block at k <= 4: the forest's answers recover
    # each one, with no Lloyd run
    data, blocking = lsh_vectors_input(seed)
    ks = recorded_lloyd_ks(monkeypatch)
    oracle = SameClusterOracle(tuple(data.entity_codes))
    est = estimate_probs_lsh(data, blocking, (1, 4), 2000, oracle, seed=seed + 2)
    assert oracle.queries == 1960
    assert est.group_sizes.size == 45
    # the groups are the entities: one-to-one codes
    pairs = set(zip(est.group_ids.tolist(), data.entity_codes.tolist()))
    assert len(pairs) == 45
    assert induced_tv(data, est) <= 1e-12
    assert ks == []


def test_budget_starved_block_keeps_the_kmeans_candidates(monkeypatch):
    # a per-block budget of 500 asks at most 1,000 forest edges, and the
    # block's forest has 1,960: the block ranks the k-means candidates
    # k = 1..4 by Lloyd, without a forest candidate
    data, blocking = lsh_vectors_input()
    forest = clustering._radius_forest(data.features, 1.0)
    assert len(forest) == 1960
    reports = recorded_selects(monkeypatch)
    ks = recorded_lloyd_ks(monkeypatch)
    est = estimate_probs_lsh(data, blocking, (1, 4), 500,
                             SameClusterOracle(tuple(data.entity_codes)), seed=4102)
    (report,) = reports
    assert len(report.losses) == 4
    assert sorted(set(ks)) == [1, 2, 3, 4]
    assert est.group_sizes.size == 9


def test_block_of_copies_clamps_k_to_its_distinct_points(monkeypatch):
    # 3 distinct points, 4 interleaved copies each, farther apart than the
    # radius: the forest's 9 edges exceed a per-side budget of 1, so the
    # block ranks k-means candidates, and k stops at the 3 distinct points
    # instead of splitting a copy off at k = 4
    content = np.tile(np.arange(3), 4)
    feats = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])[content]
    data = Dataset(ids=tuple(range(12)), features=feats, entity_labels=content)
    candidates = {}

    def recording_kmeans(points, k, *args, **kwargs):
        candidates[k] = clustering.regularized_kmeans(points, k, *args, **kwargs)
        return candidates[k]

    monkeypatch.setattr(lsh_pipeline, "regularized_kmeans", recording_kmeans)
    est = estimate_probs_lsh(data, Blocking(labels=np.zeros(12, dtype=np.int64)),
                             (1, 4), 1, SameClusterOracle(content), seed=0)
    assert sorted(candidates) == [1, 2, 3]
    # each content keeps one label in every candidate and one group
    for labels in (*(cl.labels for cl in candidates.values()), est.group_ids):
        assert len(set(zip(content.tolist(), labels.tolist()))) == 3
    assert est.group_sizes.tolist() == [4, 4, 4]


def test_k_range_of_one_asks_nothing():
    data, blocking = lsh_vectors_input()
    oracle = SameClusterOracle(tuple(data.entity_codes))
    est = estimate_probs_lsh(data, blocking, (1, 1), 2000, oracle, seed=4102)
    assert oracle.queries == 0 and est.outcomes.size == 0
    # one cluster of the records with a neighbour, the rest garbage
    assert est.group_sizes.max() >= 2000


def test_sparse_entities_over_split_along_their_forest():
    # 40 entities of 5 records in 4-d: an entity's records are often not
    # linked within mu_radius, so its forest's answers leave it in pieces:
    # 81 groups for 45 entities, an over-split that asking across nearby
    # components would close.  It still halves the TV of the k-means
    # candidates (0.45 at k <= 4)
    data, blocking = lsh_vectors_input(7, n_per=5, dim=4)
    oracle = SameClusterOracle(tuple(data.entity_codes))
    est = estimate_probs_lsh(data, blocking, (1, 4), 2000, oracle, seed=9)
    assert est.group_sizes.size == 81
    # every group holds one entity: the errors are splits, never merges
    assert len(set(zip(est.group_ids.tolist(), data.entity_codes.tolist()))) == 81
    assert induced_tv(data, est) < 0.2


def test_radius_past_the_float_square_keeps_every_pair():
    # mu**2 overflows a float at mu = 1e200, which is then read as an
    # infinite radius: every record has a neighbour, every pair block
    # merges on "same", and no record is garbage
    data = planted_clusters(3, 4, separation=4.0, dim=2, seed=0, n_singletons=1)
    blocking = blocking_of([(0, 8), (8, 10), (10, 13)], data.n)
    oracle = SameClusterOracle(tuple(data.entity_codes))
    want = estimate_probs_lsh(data, blocking, (1, 4), 60, oracle, seed=0,
                              mu_radius=float("inf"))
    got = estimate_probs_lsh(data, blocking, (1, 4), 60, oracle, seed=0,
                             mu_radius=1e200)
    assert np.array_equal(got.group_ids, want.group_ids)
    assert got.outcomes.tolist() == want.outcomes.tolist()
    # and at k_range (1, 1) two points forty apart merge unasked
    p0, p1 = data.features[:12:3], data.features[1:12:3] + [40.0, 0.0]
    assert merged_pairs(p0, p1, 1e200) == [True] * 4


def test_text_corpus_asks_each_distinct_pair_once():
    data = duplicate_text_corpus(300, 0.4, seed=21)
    # the looser threshold leaves a few blocks of 3-4 records, which the
    # budget of 1 pair per block sends through sampled selection
    blocking = lsh_partition(data, LshConfig.plan(0.3, 0.1), seed=21)
    assert max(block.size for block in blocking.blocks) > 2
    oracle = PairRecordingOracle(tuple(data.entity_codes))
    est = estimate_probs_lsh(data, blocking, (1, 4), budget=50,
                             oracle=oracle, seed=22)
    assert oracle.queries > 0
    assert oracle.queries == len(oracle.pairs)
    # the selectors drew some pairs more than once; the outcomes count only
    # the calls that reached the oracle
    assert est.outcomes["queries"].sum() == oracle.queries


def test_each_multi_record_block_builds_one_radius_graph(monkeypatch):
    data = planted_clusters(3, 8, separation=4.0, dim=2, seed=5, n_singletons=2)
    blocking = blocking_of([(0, 12), (12, 24), (24, 25), (25, 26)], data.n)
    sizes = []
    build = clustering._radius_graph

    def counted(points, mu_radius):
        sizes.append(len(points))
        return build(points, mu_radius)

    monkeypatch.setattr(clustering, "_radius_graph", counted)
    reports = recorded_selects(monkeypatch)
    # a budget of 20 fits each block's 10-edge forest; at 4 the blocks
    # rank k-means candidates, which take the forest's endpoints as their
    # garbage mask
    for budget, selects in ((20, 0), (4, 2)):
        sizes.clear()
        est = estimate_probs_lsh(data, blocking, (1, 4), budget=budget,
                                 oracle=SameClusterOracle(tuple(data.entity_codes)),
                                 seed=3, mu_radius=2.0)
        assert sizes == [12, 12]
        assert len(est.outcomes) == 2 and len(reports) == selects


def test_nan_radius_is_rejected():
    data = planted_clusters(2, 3, separation=4.0, dim=2, seed=0)
    for blocks in ([(0, 6)], [(i, i + 1) for i in range(6)]):
        with pytest.raises(ClusteringError):
            estimate_probs_lsh(data, blocking_of(blocks, data.n), (1, 2), 10,
                               SameClusterOracle(tuple(data.entity_codes)),
                               seed=0, mu_radius=float("nan"))


def _perfbench_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_estimate_records_every_layer_it_calls():
    # the benchmark's traced layer metrics wrap the pipeline's module
    # globals; a call that bypasses them would read as zero time silently
    spans = _perfbench_spans()
    feats = np.array([[0.0, 0.0], [0.3, 0.0],
                      [50.0, 0.0], [50.3, 0.0], [50.6, 0.0],
                      [50.0, 0.3], [50.3, 0.3], [50.6, 0.3]])
    labels = [0, 0, 1, 1, 1, 2, 2, 2]
    data = Dataset(ids=tuple(range(8)), features=feats, entity_labels=labels)
    tracer = spans.Tracer()
    tracer.active = True
    with spans.instrument(tracer):
        # a per-block budget of 2 pairs: C(2, 2) = 1 is scored exhaustively,
        # C(6, 2) = 15 by sampled selection
        est = lsh_pipeline.estimate_probs_lsh(
            data, blocking_of([(0, 2), (2, 8)], 8), (1, 3), budget=4,
            oracle=SameClusterOracle(labels), seed=0)
    assert est.outcomes["block"].tolist() == [0, 1]
    assert tracer.calls["ssc.select"] == 1  # the larger block only
    assert tracer.calls["clustering.kmeans"] >= 1
    # the block's one graph is built inside _radius_forest, which the
    # tracer does not wrap, so its time lands in lsh_pipeline.self_s
    assert tracer.calls["clustering.neighbour_mask"] == 0


def test_cli_estimate_under_the_tracer_records_every_layer(tmp_path, capsys):
    # the tracer swaps module attributes (among them cli.em_fit,
    # cli.estimate_probs_gmm, cli.lsh_partition) and reads each with
    # module.__dict__[name]; a refactor that drops or moves one of them
    # must fail here rather than in a traced benchmark run
    spans = _perfbench_spans()
    owners = (balanced, blocking_module, cli, clustering, dataset, lsh_pipeline,
              rejection, ssc, Dataset, rejection.ProbabilityMap)
    before = [dict(vars(owner)) for owner in owners]
    feats = np.array([[0.0, 0.0], [0.0, 0.0], [0.1, 0.0],
                      [9.0, 9.0], [9.0, 9.1], [-9.0, 4.0]])
    path = str(tmp_path / "tiny.csv")
    cli._write_dataset_csv(Dataset(ids=("a0", "a1", "a2", "b0", "b1", "c0"),
                                   features=feats, entity_labels=list("AAABBC")),
                           path)
    runs = {
        "gmm": ["--k", "2", "--iters", "20"],
        "lsh": ["--k-max", "3", "--mu-radius", "1.0", "--pair-budget", "50"],
        "balanced": ["--m", "30"],
    }
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        tracer.active = True
        swapped = sum(
            vars(owner)[name] is not value
            for owner, snap in zip(owners, before)
            for name, value in snap.items() if name in vars(owner)
        )
        for method, extra in runs.items():
            out = str(tmp_path / f"{method}.csv")
            assert cli.main(["estimate", "--data", path, "--schema",
                             path + ".schema.json", "--method", method,
                             "--seed", "1", *extra, "--out", out]) == 0
        tracer.active = False
    capsys.readouterr()
    assert swapped > 0
    for name in ("gmm.em_fit", "gmm.density", "blocking.partition",
                 "lsh_pipeline.estimate", "balanced.estimate"):
        assert tracer.calls[name] == 1, name
    assert tracer.calls["dataset.ingest_csv"] == 3
    assert tracer.calls["rejection.map_write"] == 3
    metrics = tracer.layer_metrics()
    assert metrics["gmm.em_iterations"] >= 1
    assert metrics["blocking.blocks"] >= 1
    for owner, snap in zip(owners, before):
        after = vars(owner)
        assert set(after) == set(snap), owner
        for name, value in snap.items():
            assert after[name] is value, f"{owner}.{name} not restored"


def pair_block_data():
    """Two-record blocks, each pair twice: once one entity, once two.

    Identical points, near duplicates and pairs beyond a unit radius sit at
    magnitudes 1, 1e6 and 1e9, plus random pairs at separations from
    1e-12 to 10 times their magnitude.
    """
    rng = np.random.default_rng(11)
    firsts, gaps = [], []
    for scale in (1.0, 1e6, 1e9):
        for gap in (0.0, 1e-12 * scale, 1e-3, 0.3, 5.0):
            firsts.append(scale * rng.standard_normal(3))
            gaps.append(gap * np.array([1.0, 0.0, 0.0]))
    for _ in range(60):
        scale = 10.0 ** rng.uniform(0, 9)
        firsts.append(scale * rng.standard_normal(3))
        gaps.append(scale * 10.0 ** rng.uniform(-12, 1) * rng.standard_normal(3))
    feats, labels = [], []
    for p, gap in zip(firsts, gaps):
        for same in (True, False):
            feats += [p, p + gap]
            labels += [len(labels)] * 2 if same else [len(labels), len(labels) + 1]
    n = len(labels)
    data = Dataset(ids=tuple(range(n)), features=np.array(feats), entity_labels=labels)
    return data, blocking_of([(i, i + 2) for i in range(0, n, 2)], n)


def block_rule_pairs(data, blocking, k_range, mu_radius, oracle):
    """Group ids and outcome rows (block, queries, inferred, n_pos, n_neg)
    from the rule of a larger block run on each pair block: its neighbour
    mask and, when ``k_range`` reaches past 1, its radius forest, whose
    edges are asked in order and whose "same" answers join their points."""
    group_ids = np.empty(data.n, dtype=np.int64)
    next_group, outcomes = 0, []
    for block_id, block in enumerate(blocking.blocks):
        points = data.features[block]
        has_neighbour = clustering.neighbour_mask(points, mu_radius)
        forest = (clustering._radius_forest(points, mu_radius)
                  if has_neighbour.any() and k_range[1] > 1 else ())
        if len(forest):
            comp = list(range(block.size))
            answers = [oracle(int(block[i]), int(block[j])) for i, j in forest.tolist()]
            for (i, j), same in zip(forest.tolist(), answers):
                if same:
                    comp = [comp[i] if c == comp[j] else c for c in comp]
            outcomes.append((block_id, len(forest), 0, sum(answers),
                             len(answers) - sum(answers)))
            # clusters in order of least point, then garbage in index order
            keys = [c if mark else block.size + p
                    for p, (c, mark) in enumerate(zip(comp, has_neighbour))]
            local = np.unique(keys, return_inverse=True)[1]
        else:
            winner = clustering.regularized_kmeans(points, int(has_neighbour.any()),
                                                   mu_radius, has_neighbour=has_neighbour)
            lab = winner.labels
            local = np.where(lab >= 0, lab, winner.k - 1 - lab)
        group_ids[block] = next_group + local
        next_group += int(local.max()) + 1
    return group_ids, outcomes


def merged_pairs(p0, p1, mu_radius):
    """Whether ``estimate_probs_lsh`` at ``k_range`` (1, 1) merges the
    two-record block of each row pair (p0[i], p1[i]); it asks nothing."""
    n = 2 * len(p0)
    feats = np.empty((n, p0.shape[1]))
    feats[0::2], feats[1::2] = p0, p1
    data = Dataset(ids=tuple(range(n)), features=feats)
    oracle = SameClusterOracle(range(n))
    est = estimate_probs_lsh(data, blocking_of([(i, i + 2) for i in range(0, n, 2)], n),
                             (1, 1), 1, oracle, seed=0, mu_radius=mu_radius)
    assert oracle.queries == 0 and est.outcomes.size == 0
    return (est.group_ids[0::2] == est.group_ids[1::2]).tolist()


def test_brute_force_splits_every_distinct_pair_of_the_pair_data():
    # centred before the cost expansion, brute force keeps the merge only
    # for identical points, at magnitudes up to 1e9 as well
    data, blocking = pair_block_data()
    for block in blocking.blocks:
        distinct = (data.features[block[0]] != data.features[block[1]]).any()
        labels = clustering.brute_force_kmeans(data.features[block], 2).tolist()
        assert labels == ([0, 1] if distinct else [0, 0])


@pytest.mark.parametrize("scale", [1.0, 1e6, 1e9])
@pytest.mark.parametrize("d", [1, 3, 8, 12, 17])
def test_pair_radius_test_is_the_neighbour_mask_float(d, scale):
    # gaps within an ulp of the radius as well as around it; from 8
    # coordinates on, numpy's pairwise row sum flips some of these
    rng = np.random.default_rng(d)
    p0 = scale * rng.standard_normal((300, d))
    u = rng.standard_normal((300, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    gaps = np.array([1 - 1e-6, 1 - 1e-12, np.nextafter(1.0, 0.0), 1.0,
                     np.nextafter(1.0, 2.0), 1 + 1e-12, 1 + 1e-6])
    p1 = p0 + np.resize(gaps, 300)[:, None] * u
    mask = [clustering.neighbour_mask(np.stack(pair), 1.0)[0] for pair in zip(p0, p1)]
    assert merged_pairs(p0, p1, 1.0) == mask
    assert any(mask) and not all(mask)


@pytest.mark.parametrize("mu_radius", [0.0, 1.0])
@pytest.mark.parametrize("k_range", [(0, 1), (1, 1), (1, 2), (2, 4), (1, 4)])
def test_pair_blocks_match_clustering_every_candidate(k_range, mu_radius):
    data, blocking = pair_block_data()
    oracle = PairRecordingOracle(tuple(data.entity_codes))
    est = estimate_probs_lsh(data, blocking, k_range, budget=blocking.q,
                             oracle=oracle, seed=0, mu_radius=mu_radius)
    reference = PairRecordingOracle(tuple(data.entity_codes))
    group_ids, outcomes = block_rule_pairs(data, blocking, k_range, mu_radius,
                                           reference)
    assert np.array_equal(est.group_ids, group_ids)
    sizes = np.bincount(group_ids)
    assert np.array_equal(est.group_sizes, sizes)
    assert np.array_equal(est.pmap.dense, sizes[group_ids] / data.n)
    assert est.outcomes.tolist() == outcomes
    assert oracle.asked == reference.asked
    if k_range[1] == 1:
        assert outcomes == []
        return
    # every near pair is asked at any k_range start, and its answer is
    # its one "same" or "different" count; two identical points that the
    # oracle tells apart split
    assert oracle.queries == len(outcomes) > 0
    assert {row[3:] for row in outcomes} == {(0, 1), (1, 0)}
    assert est.group_ids[2] != est.group_ids[3]


def test_oracle_questions_follow_block_order():
    # blocks, each about its own centre and with interleaved members: a
    # pair, three records, a pair beyond the radius, a singleton, a pair
    # and four records.  A larger block hears its radius forest's edges,
    # shortest first, and nothing more
    blocks = ([4, 11], [0, 7, 13], [2, 9], [5], [1, 12], [3, 6, 8, 10])
    offsets = ([0.0, 0.3], [0.0, 0.3, 0.6], [0.0, 5.0], [0.0], [0.0, 0.4],
               [0.0, 0.3, 0.6, 0.9])
    labels = ["a", "f", "g", "h", "a", "i", "h", "f", "j", "g", "j", "a", "k", "f"]
    feats = np.zeros((14, 2))
    for b, (block, offs) in enumerate(zip(blocks, offsets)):
        feats[block, 0] = 100.0 * b + np.array(offs)
    data = Dataset(ids=tuple(range(14)), features=feats, entity_labels=labels)
    block_of = np.empty(14, dtype=np.int64)
    for b, block in enumerate(blocks):
        block_of[block] = b
    blocking = Blocking(labels=block_of)
    oracle = PairRecordingOracle(labels)
    est = estimate_probs_lsh(data, blocking, (1, 4), budget=18, oracle=oracle,
                             seed=3)
    assert oracle.asked == [
        (4, 11),
        (0, 7), (7, 13),
        (1, 12),
        (8, 10), (3, 6), (6, 8),
    ]
    assert est.outcomes["block"].tolist() == [0, 1, 4, 5]
    assert (2, 9) not in oracle.asked
    # block 1 is clustered by its forest's answers: "a" apart from "f", "f"
    assert est.group_ids.tolist() == [1, 6, 3, 8, 0, 5, 8, 2, 9, 4, 9, 0, 7, 2]


def test_result_types_compare_by_identity_and_hash():
    data, blocking = pair_block_data()
    twin_blocking = Blocking(labels=blocking.labels.copy())
    oracle = SameClusterOracle(tuple(data.entity_codes))
    est, twin_est = (estimate_probs_lsh(data, b, (1, 2), data.n, oracle, seed=0)
                     for b in (blocking, twin_blocking))
    labels = np.array([0, 0, -1])
    part, twin_part = Clustering(labels), Clustering(labels.copy())
    for one, twin in ((part, twin_part), (blocking, twin_blocking), (est, twin_est)):
        assert one == one and one != twin
        assert len({one, twin}) == 2
