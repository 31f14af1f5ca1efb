"""Same-cluster selection: hand-computed pair losses, budgets, the query cap.

Loss oracle for the fixed 6-point instance with true clusters {0,1,2} and
{3,4,5} (6 positive pairs, 9 negative):
  - merging everything splits nothing and joins all negatives: (0, 1, 1/2)
  - splitting off point 2 breaks pairs (0,2) and (1,2): (1/3, 0, 1/6)
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entity_sampler.clustering import Clustering
from entity_sampler.ssc import (
    OracleBudgetError,
    SameClusterOracle,
    exhaustive_losses,
    pair_losses,
    plan_pair_budget,
    ssc_select,
)


def clustering(*groups, n):
    labels = np.full(n, -1, dtype=np.int64)
    for label, members in enumerate(groups):
        labels[members] = label
    return Clustering(labels)


def six_point_instance():
    truth = clustering([0, 1, 2], [3, 4, 5], n=6)
    merged = clustering([0, 1, 2, 3, 4, 5], n=6)
    split_one = clustering([0, 1], [2], [3, 4, 5], n=6)
    labels = [0, 0, 0, 1, 1, 1]
    return truth, merged, split_one, labels


def all_pairs(labels):
    pos, neg = [], []
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            (pos if labels[i] == labels[j] else neg).append((i, j))
    return pos, neg


def test_pair_losses_hand_case():
    truth, merged, split_one, labels = six_point_instance()
    pos, neg = all_pairs(labels)
    assert pair_losses(truth, pos, neg) == (0.0, 0.0, 0.0)
    assert pair_losses(merged, pos, neg) == (0.0, 1.0, 0.5)
    pl, nl, loss = pair_losses(split_one, pos, neg)
    assert pl == pytest.approx(1 / 3)
    assert nl == 0.0
    assert loss == pytest.approx(1 / 6)


def test_loss_weight_reweights():
    truth, merged, _, labels = six_point_instance()
    pos, neg = all_pairs(labels)
    assert pair_losses(merged, pos, neg, mu_weight=1.0)[2] == 0.0
    assert pair_losses(merged, pos, neg, mu_weight=0.0)[2] == 1.0


def test_exhaustive_losses_match_hand_pairs():
    truth, merged, split_one, labels = six_point_instance()
    oracle = SameClusterOracle(labels)
    losses = exhaustive_losses([truth, merged, split_one], oracle, 6)
    assert losses[0] == (0.0, 0.0, 0.0)
    assert losses[1] == (0.0, 1.0, 0.5)
    assert losses[2][2] == pytest.approx(1 / 6)
    assert oracle.queries == 15


def test_truth_wins_exhaustively_on_random_instances():
    rng = np.random.default_rng(17)
    for t in range(30):
        n = int(rng.integers(4, 9))
        labels = rng.integers(0, 3, size=n).tolist()
        groups = [np.flatnonzero(np.array(labels) == g) for g in set(labels)]
        truth = clustering(*groups, n=n)
        merged = clustering(list(range(n)), n=n)
        cands = [merged, truth] if truth.k > 1 else [truth, merged]
        pos, neg = all_pairs(labels)
        losses = [pair_losses(c, pos, neg)[2] for c in cands]
        winner = min(range(len(cands)), key=lambda i: (losses[i], cands[i].k))
        assert cands[winner].labels.tolist() == truth.labels.tolist()


def test_select_fills_both_sides():
    truth, merged, split_one, labels = six_point_instance()
    oracle = SameClusterOracle(labels)
    rep = ssc_select(
        [truth, merged, split_one], n_points=6, oracle=oracle, m_pairs=25, seed=1
    )
    assert rep.winner == 0
    assert rep.n_pos >= 25 and rep.n_neg >= 25
    assert len(rep.losses) == 3
    assert rep.queries == oracle.queries
    assert rep.queries <= rep.query_cap


def test_ties_prefer_fewer_clusters():
    # seed chosen so the sampled pairs never separate the two candidates
    a = clustering([0, 1], [2, 3], n=4)
    b = clustering([0, 1], [2], [3], n=4)
    rep = ssc_select(
        [b, a], n_points=4, oracle=SameClusterOracle([0, 0, 1, 1]),
        m_pairs=2, seed=0,
    )
    assert rep.losses[0] == rep.losses[1]
    assert rep.winner == 1  # the k=2 candidate despite being listed second


def test_cap_error_carries_collected_evidence():
    # all-positive oracle: the negative side can never fill
    merged = clustering([0, 1, 2, 3], n=4)
    split = clustering([0, 1], [2, 3], n=4)
    with pytest.raises(OracleBudgetError) as excinfo:
        ssc_select(
            [merged, split], n_points=4, oracle=SameClusterOracle([7, 7, 7, 7]),
            m_pairs=3, seed=5,
        )
    exc = excinfo.value
    assert len(exc.neg_pairs) == 0
    assert len(exc.pos_pairs) == exc.queries
    assert exc.queries >= exc.query_cap
    assert "gamma_hat" in str(exc)
    # the collected positives still rank the candidates correctly
    losses = [pair_losses(c, exc.pos_pairs, exc.neg_pairs)[2] for c in (merged, split)]
    assert losses[0] < losses[1]


def test_relabeling_invariance():
    truth, merged, split_one, labels = six_point_instance()
    pos, neg = all_pairs(labels)
    reordered = clustering([3, 4, 5], [0, 1, 2], n=6)
    assert pair_losses(truth, pos, neg) == pair_losses(reordered, pos, neg)


def test_plan_pair_budget_golden():
    # ceil((log 4 + log 20) / 0.04) = 110
    assert plan_pair_budget(4, epsilon=0.2, delta=0.1) == 110
    assert plan_pair_budget(1, epsilon=0.5, delta=0.5) >= 1


def test_plan_validation():
    with pytest.raises(ValueError):
        plan_pair_budget(0, 0.1, 0.1)
    with pytest.raises(ValueError):
        plan_pair_budget(3, 1.5, 0.1)


def test_select_validation():
    c = clustering([0, 1], n=2)
    with pytest.raises(ValueError):
        ssc_select([], 2, SameClusterOracle([0, 0]), 1, seed=0)
    with pytest.raises(ValueError):
        ssc_select([c], 1, SameClusterOracle([0]), 1, seed=0)
    with pytest.raises(ValueError):
        ssc_select([c], 2, SameClusterOracle([0, 0]), 0, seed=0)


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=10**6))
def test_select_recovers_truth_on_balanced_instances(seed):
    rng = np.random.default_rng(seed)
    labels = np.repeat([0, 1], 5)
    rng.shuffle(labels)
    groups = [np.flatnonzero(labels == g) for g in (0, 1)]
    truth = clustering(*groups, n=10)
    merged = clustering(list(range(10)), n=10)
    rep = ssc_select(
        [merged, truth], n_points=10, oracle=SameClusterOracle(labels.tolist()),
        m_pairs=30, seed=seed,
    )
    assert rep.winner == 1



class RecordingOracle(SameClusterOracle):
    def __init__(self, labels):
        super().__init__(labels)
        self.asked = []

    def __call__(self, i, j):
        self.asked.append((i, j))
        return super().__call__(i, j)


def scalar_select(labels, m_pairs, seed, nu=1.0, gamma_probe=100):
    """The selector's draw loop with two scalar ``integers`` calls a pair.

    Returns the pairs asked in order, the positive and negative pairs,
    query_cap, gamma_hat and whether the cap stopped the loop.
    """
    rng = np.random.default_rng(seed)
    n = len(labels)
    asked, pos, neg = [], [], []
    probe_neg, cap = 0, None
    while len(pos) < m_pairs or len(neg) < m_pairs:
        if cap is not None and len(asked) >= cap:
            return asked, pos, neg, cap, gamma_hat, True
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        j += j >= i
        asked.append((i, j))
        same = labels[i] == labels[j]
        (pos if same else neg).append((i, j))
        if not same and len(asked) <= gamma_probe:
            probe_neg += 1
        if len(asked) == gamma_probe and cap is None:
            gamma_hat = min(max(probe_neg / gamma_probe, 1 / gamma_probe),
                            1 - 1 / gamma_probe)
            cap = math.ceil((1 + nu) * (m_pairs / gamma_hat + m_pairs / (1 - gamma_hat)))
    if cap is None:
        gamma_hat, cap = max(len(neg), 1) / len(asked), len(asked)
    return asked, pos, neg, cap, gamma_hat, False


@pytest.mark.parametrize("labels,m_pairs", [
    ([0, 0, 0, 1, 1, 1], 25),                  # fills both sides
    ([0, 1, 1, 2, 2, 2, 3, 4, 5, 5] * 5, 60),  # 50 points
    ([7, 7, 7, 7], 10),  # all positive: past one batch of draws, to the cap
    ([0, 1], 3),         # two points, all negative
    ([0, 0], 3),         # two points, all positive
])
def test_select_draws_the_scalar_pair_stream(labels, m_pairs):
    n = len(labels)
    cands = [clustering(list(range(n)), n=n),
             Clustering(-np.arange(1, n + 1))]
    for seed in range(12):
        asked, pos, neg, cap, gamma_hat, hit_cap = scalar_select(labels, m_pairs, seed)
        oracle = RecordingOracle(labels)
        if hit_cap:
            with pytest.raises(OracleBudgetError) as excinfo:
                ssc_select(cands, n, oracle, m_pairs, seed=seed)
            got = excinfo.value
            assert got.pos_pairs == tuple(pos) and got.neg_pairs == tuple(neg)
        else:
            got = ssc_select(cands, n, oracle, m_pairs, seed=seed)
            assert (got.n_pos, got.n_neg) == (len(pos), len(neg))
        assert oracle.asked == asked
        assert (got.queries, got.query_cap, got.gamma_hat) == (len(asked), cap, gamma_hat)
