"""Block-and-cluster probability estimation, end to end."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from entity_sampler import balanced, cli, clustering, dataset, lsh_pipeline, rejection, ssc
from entity_sampler import blocking as blocking_module
from entity_sampler.blocking import Blocking, LshConfig, lsh_partition
from entity_sampler.clustering import Clustering, ClusteringError
from entity_sampler.dataset import Dataset, DatasetError, tv_distance, uniform_distribution
from entity_sampler.lsh_pipeline import estimate_probs_lsh
from entity_sampler.rejection import exact_induced_distribution
from entity_sampler.ssc import SameClusterOracle, SscReport, rank_candidates
from entity_sampler.synth import duplicate_text_corpus, planted_clusters


def blocking_of(slices, n):
    return Blocking(blocks=tuple(np.arange(a, b) for a, b in slices), n=n)


def test_zero_duplicates_give_uniform_map():
    rng = np.random.default_rng(0)
    n = 40
    feats = rng.normal(0, 1, (n, 2)) + 50 * np.arange(n)[:, None]
    data = Dataset(ids=tuple(range(n)), features=feats,
                   entity_labels=list(range(n)))
    blocking = Blocking(blocks=tuple(np.array([i]) for i in range(n)), n=n)
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
    est = estimate_probs_lsh(
        data, blocking, k_range=(2, 2), budget=100,
        oracle=SameClusterOracle(entities), seed=0,
    )
    # block 0: group 0; block 1: clusters 1, 2 in label order, then garbage
    # 3, 4, 5 in index order; block 2: group 6
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
    blocking = Blocking(blocks=(np.arange(6),), n=6)
    est = estimate_probs_lsh(
        data, blocking, k_range=(1, 3), budget=40,
        oracle=SameClusterOracle([0] * 6), seed=1,
    )
    assert est.group_sizes.tolist() == [6]


def test_all_garbage_block_becomes_singletons():
    feats = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]])
    data = Dataset(ids=tuple(range(4)), features=feats,
                   entity_labels=[0, 1, 2, 3])
    blocking = Blocking(blocks=(np.arange(4),), n=4)
    est = estimate_probs_lsh(
        data, blocking, k_range=(1, 4), budget=40,
        oracle=SameClusterOracle([0, 1, 2, 3]), seed=1,
    )
    assert est.group_sizes.tolist() == [1, 1, 1, 1]


def test_k_range_clamped_to_block_support():
    feats = np.array([[0.0, 0], [0.1, 0], [4.0, 0], [4.1, 0], [20.0, 20.0]])
    data = Dataset(ids=tuple(range(5)), features=feats,
                   entity_labels=[0, 0, 1, 1, 2])
    blocking = Blocking(blocks=(np.arange(5),), n=5)
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
    assert all(
        isinstance(bid, int) and isinstance(rep, SscReport)
        for bid, rep in est.reports
    )


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
    wrong = Blocking(blocks=(np.arange(3),), n=3)
    with pytest.raises(DatasetError):
        estimate_probs_lsh(vec, wrong, (1, 3), 100, lambda i, j: True, seed=0)
    ok_blocking = Blocking(blocks=(np.arange(2),), n=2)
    with pytest.raises(ValueError):
        estimate_probs_lsh(vec, ok_blocking, (3, 1), 100, lambda i, j: True, seed=0)
    with pytest.raises(ValueError):
        estimate_probs_lsh(vec, ok_blocking, (1, 3), 0, lambda i, j: True, seed=0)


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
    reports = dict(est.reports)
    dup, distinct = reports[0], reports[1]
    assert (dup.queries, dup.query_cap, dup.n_pos, dup.n_neg) == (1, 1, 1, 0)
    assert dup.gamma_hat == 0.0
    assert (distinct.queries, distinct.query_cap) == (1, 1)
    assert (distinct.n_pos, distinct.n_neg, distinct.gamma_hat) == (0, 1, 1.0)


def test_sampled_block_stops_once_every_pair_is_answered():
    # C(3, 2) = 3 pairs exceed the per-side budget of 1, so the block goes
    # through sampled selection; all-negative answers never fill the
    # positive side, and the draws stop once all three pairs are answered
    feats = np.array([[0.0, 0.0], [0.3, 0.0], [0.6, 0.0]])
    labels = [0, 1, 2]
    data = Dataset(ids=(0, 1, 2), features=feats, entity_labels=labels)
    oracle = PairRecordingOracle(labels)
    est = estimate_probs_lsh(data, blocking_of([(0, 3)], 3), (1, 3),
                             budget=1, oracle=oracle, seed=0)
    (_, report), = est.reports
    assert oracle.pairs == {(0, 1), (0, 2), (1, 2)}
    assert report.queries == report.query_cap == oracle.queries == 3
    assert (report.n_pos, report.n_neg, report.gamma_hat) == (0, 3, 1.0)
    assert est.group_sizes.tolist() == [1, 1, 1]


def test_single_entity_block_merges_on_its_exact_pairs():
    # C(8, 2) = 28 pairs exceed the per-side budget of 5, so the block goes
    # through sampled selection; all-positive answers never fill the
    # negative side, and once all 28 pairs are drawn the candidates are
    # ranked on them, so the counts are counts of the block's pairs.  The
    # oracle hears the b - 1 = 7 pairs that join the components; the other
    # 21 follow from those answers
    feats = np.random.default_rng(2).normal(0, 0.05, (8, 2))
    data = Dataset(ids=tuple(range(8)), features=feats, entity_labels=[0] * 8)
    oracle = SameClusterOracle([0] * 8)
    est = estimate_probs_lsh(data, blocking_of([(0, 8)], 8), (1, 3),
                             budget=5, oracle=oracle, seed=0)
    (_, report), = est.reports
    assert (report.n_pos, report.n_neg) == (28, 0)
    assert report.query_cap == 28
    assert report.queries == oracle.queries == 7
    assert report.inferred == 21
    assert est.group_sizes.tolist() == [8]


def test_fifty_record_single_entity_block_asks_b_minus_one_pairs():
    # C(50, 2) = 1225 pairs exceed the per-side budget of 100: every answer
    # is "same", so only the 49 pairs that join two components are asked
    feats = np.random.default_rng(3).normal(0, 0.05, (50, 2))
    data = Dataset(ids=tuple(range(50)), features=feats, entity_labels=[0] * 50)
    oracle = SameClusterOracle([0] * 50)
    est = estimate_probs_lsh(data, blocking_of([(0, 50)], 50), (1, 3),
                             budget=100, oracle=oracle, seed=4)
    (_, report), = est.reports
    assert report.winner == 0  # the k = 1 candidate
    assert report.queries == oracle.queries == 49
    assert est.group_sizes.tolist() == [50]


def test_planted_block_asks_its_radius_forest_first(monkeypatch):
    # the lsh-vectors benchmark's first input (VECTOR_SEEDS[0] = 4100): 40
    # planted entities of 50 records and 5 singletons hash into one block
    data = planted_clusters(40, 50, 10.0, 2, seed=4100, n_singletons=5)
    blocking = lsh_partition(data, LshConfig.plan(0.2, 0.1, family="hyperplane"),
                             seed=4101)
    assert max(block.size for block in blocking.blocks) == 2005

    def estimate():
        oracle = SameClusterOracle(tuple(data.entity_codes))
        est = estimate_probs_lsh(data, blocking, (1, 4), 2000, oracle, seed=4102)
        return est, oracle.queries

    est, queries = estimate()
    # without the forest the block asks about 52.7k questions
    monkeypatch.setattr(lsh_pipeline, "_radius_forest", lambda *args: ())
    bare, bare_queries = estimate()
    assert queries <= 3000 < bare_queries
    assert np.array_equal(est.group_ids, bare.group_ids)
    assert [replace(rep, queries=0, inferred=0) for _, rep in est.reports] == \
        [replace(rep, queries=0, inferred=0) for _, rep in bare.reports]


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
    # the selectors drew some pairs more than once; the reports count only
    # the calls that reached the oracle
    assert sum(rep.queries for _, rep in est.reports) == oracle.queries


def test_each_multi_record_block_builds_one_neighbour_mask(monkeypatch):
    data = planted_clusters(3, 8, separation=4.0, dim=2, seed=5, n_singletons=2)
    blocking = blocking_of([(0, 12), (12, 24), (24, 25), (25, 26)], data.n)
    sizes = []
    build = clustering.neighbour_mask

    def counted(points, mu_radius):
        sizes.append(len(points))
        return build(points, mu_radius)

    monkeypatch.setattr(lsh_pipeline, "neighbour_mask", counted)
    monkeypatch.setattr(clustering, "neighbour_mask", counted)
    est = estimate_probs_lsh(data, blocking, (1, 4), budget=20,
                             oracle=SameClusterOracle(tuple(data.entity_codes)),
                             seed=3, mu_radius=2.0)
    assert sizes == [12, 12]  # k = 1..4 each, from one mask per block
    assert len(est.reports) == 2


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
    assert [bid for bid, _ in est.reports] == [0, 1]
    assert tracer.calls["ssc.select"] == 1  # the larger block only
    assert tracer.calls["clustering.kmeans"] >= 1
    assert tracer.calls["clustering.neighbour_mask"] >= 1


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


def clustered_pairs(data, blocking, k_range, mu_radius):
    """Group ids and reports from clustering each pair block at every
    clamped k and ranking the candidates on the pair's one answer."""
    group_ids = np.empty(data.n, dtype=np.int64)
    next_group, reports = 0, []
    for block_id, block in enumerate(blocking.blocks):
        points = data.features[block]
        remaining = int(clustering.neighbour_mask(points, mu_radius).sum())
        ks = sorted({min(max(k, 1), remaining) for k in range(k_range[0], k_range[1] + 1)}
                    if remaining else {0})
        candidates = [clustering.regularized_kmeans(points, k, mu_radius) for k in ks]
        winner = candidates[0]
        if len(candidates) > 1:
            same = data.entity_codes[block[0]] == data.entity_codes[block[1]]
            pos, neg = ([(0, 1)], []) if same else ([], [(0, 1)])
            report = rank_candidates(candidates, pos, neg, query_cap=1,
                                     gamma_hat=float(len(neg)), queries=1)
            winner = candidates[report.winner]
            reports.append((block_id, report))
        lab = winner.labels
        group_ids[block] = next_group + np.where(lab >= 0, lab, winner.k - 1 - lab)
        next_group += winner.k + int(np.count_nonzero(lab < 0))
    return group_ids, tuple(reports)


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
    near, _ = lsh_pipeline._pair_geometry(p0, p1, 1.0)
    mask = [clustering.neighbour_mask(np.stack(pair), 1.0)[0] for pair in zip(p0, p1)]
    assert near.tolist() == mask
    assert near.any() and not near.all()


@pytest.mark.parametrize("mu_radius", [0.0, 1.0])
@pytest.mark.parametrize("k_range", [(0, 1), (1, 1), (1, 2), (2, 4), (1, 4)])
def test_pair_blocks_match_clustering_every_candidate(k_range, mu_radius):
    data, blocking = pair_block_data()
    oracle = SameClusterOracle(tuple(data.entity_codes))
    est = estimate_probs_lsh(data, blocking, k_range, budget=blocking.q,
                             oracle=oracle, seed=0, mu_radius=mu_radius)
    group_ids, reports = clustered_pairs(data, blocking, k_range, mu_radius)
    assert np.array_equal(est.group_ids, group_ids)
    sizes = np.bincount(group_ids)
    assert np.array_equal(est.group_sizes, sizes)
    assert np.array_equal(est.pmap.dense, sizes[group_ids] / data.n)
    assert repr(est.reports) == repr(reports)
    assert oracle.queries == len(reports)
    if k_range in ((1, 2), (1, 4)):  # both answers reach a report
        assert {rep.n_pos for _, rep in reports} == {0, 1}
    else:
        assert reports == ()


def test_oracle_questions_follow_block_order():
    # blocks, each about its own centre and with interleaved members: a
    # pair, three records, a pair beyond the radius, a singleton, a pair
    # and four records; the four go through sampled selection.  A larger
    # block hears its radius forest first, shortest edge first
    blocks = ([4, 11], [0, 7, 13], [2, 9], [5], [1, 12], [3, 6, 8, 10])
    offsets = ([0.0, 0.3], [0.0, 0.3, 0.6], [0.0, 5.0], [0.0], [0.0, 0.4],
               [0.0, 0.3, 0.6, 0.9])
    labels = ["a", "f", "g", "h", "a", "i", "h", "f", "j", "g", "j", "a", "k", "f"]
    feats = np.zeros((14, 2))
    for b, (block, offs) in enumerate(zip(blocks, offsets)):
        feats[block, 0] = 100.0 * b + np.array(offs)
    data = Dataset(ids=tuple(range(14)), features=feats, entity_labels=labels)
    blocking = Blocking(blocks=tuple(np.array(b) for b in blocks), n=14)
    oracle = PairRecordingOracle(labels)
    est = estimate_probs_lsh(data, blocking, (1, 4), budget=18, oracle=oracle,
                             seed=3)
    assert oracle.asked == [
        (4, 11),
        (0, 7), (7, 13),
        (1, 12),
        (8, 10), (3, 6), (6, 8),
    ]
    assert [bid for bid, _ in est.reports] == [0, 1, 4, 5]
    assert (2, 9) not in oracle.asked
    assert est.group_ids.tolist() == [1, 5, 2, 7, 0, 4, 7, 1, 8, 3, 8, 0, 6, 1]


def test_result_types_compare_by_identity_and_hash():
    data, blocking = pair_block_data()
    twin_blocking = Blocking(blocks=tuple(b.copy() for b in blocking.blocks), n=data.n)
    oracle = SameClusterOracle(tuple(data.entity_codes))
    est, twin_est = (estimate_probs_lsh(data, b, (1, 2), data.n, oracle, seed=0)
                     for b in (blocking, twin_blocking))
    labels = np.array([0, 0, -1])
    part, twin_part = Clustering(labels), Clustering(labels.copy())
    for one, twin in ((part, twin_part), (blocking, twin_blocking), (est, twin_est)):
        assert one == one and one != twin
        assert len({one, twin}) == 2
