"""Same-cluster selection: hand-computed pair losses, budgets, the query cap,
and the selector's pair bookkeeping.

Loss oracle for the fixed 6-point instance with true clusters {0,1,2} and
{3,4,5} (6 positive pairs, 9 negative):
  - merging everything splits nothing and joins all negatives: (0, 1, 1/2)
  - splitting off point 2 breaks pairs (0,2) and (1,2): (1/3, 0, 1/6)
"""

import math
from copy import deepcopy
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entity_sampler import ssc
from entity_sampler.clustering import Clustering
from entity_sampler.ssc import (
    SameClusterOracle,
    pair_losses,
    plan_pair_budget,
    rank_candidates,
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


def test_exhaustive_losses_match_hand_pairs():
    # all 15 pairs fit in the budget: ranked on exact losses
    truth, merged, split_one, labels = six_point_instance()
    oracle = SameClusterOracle(labels)
    rep = ssc_select([truth, merged, split_one], 6, oracle, m_pairs=15, seed=0)
    assert rep.losses[0] == 0.0
    assert rep.losses[1] == 0.5
    assert rep.losses[2] == pytest.approx(1 / 6)
    assert (rep.n_pos, rep.n_neg) == (6, 9)
    # every pair is answered: 7 asked, 8 settled by earlier answers
    assert rep.queries == oracle.queries == 7
    assert rep.inferred == 8


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
    # 5 draws a side over 15 pairs: sampled, not exhaustive
    truth, merged, split_one, labels = six_point_instance()
    oracle = SameClusterOracle(labels)
    rep = ssc_select(
        [truth, merged, split_one], n_points=6, oracle=oracle, m_pairs=5, seed=1
    )
    assert rep.winner == 0
    assert rep.n_pos >= 5 and rep.n_neg >= 5
    assert len(rep.losses) == 3
    assert rep.queries == oracle.queries < 15
    # both sides fill long before the cap
    assert rep.n_pos + rep.n_neg < ssc._cap(5)


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


def test_cap_report_ranks_collected_evidence():
    # all-positive oracle: the negative side can never fill, and the cap
    # of 607 draws comes before all C(60, 2) = 1770 pairs are answered
    n = 60
    merged = clustering(list(range(n)), n=n)
    split = clustering(list(range(30)), list(range(30, n)), n=n)
    oracle = SameClusterOracle([7] * n)
    rep = ssc_select([merged, split], n_points=n, oracle=oracle, m_pairs=3, seed=5)
    # every draw up to the cap, sized at a negative-pair rate of 1/100, is
    # a positive; the oracle heard each pair once
    assert (rep.n_pos, rep.n_neg) == (math.ceil(2 * (3 / 0.01 + 3 / 0.99)), 0)
    assert rep.queries == oracle.queries < rep.n_pos
    # the collected positives still rank the candidates correctly
    assert rep.winner == 0
    assert rep.losses[0] < rep.losses[1]


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
    # a pair budget that is not an integer is refused, not rounded
    for m_pairs in (1.5, 2.0):
        with pytest.raises(ValueError, match="m_pairs must be an integer"):
            ssc_select([c], 2, SameClusterOracle([0, 0]), m_pairs, seed=0)


def test_select_rejects_candidates_of_another_size():
    cands = [Clustering(np.zeros(8, dtype=np.int64)), Clustering(np.arange(8))]
    with pytest.raises(ValueError, match="4 points"):
        ssc_select(cands, 4, SameClusterOracle([0, 0, 1, 1]), m_pairs=10, seed=0)


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
    """Label oracle that records each pair it is asked, in order, and checks
    that no earlier answer already settled it."""

    def __init__(self, labels):
        super().__init__(labels)
        self.asked = []
        self.known = Settled(len(labels))

    def __call__(self, i, j):
        assert self.known.answer(i, j) is None, f"pair {(i, j)} was settled"
        self.asked.append((i, j))
        same = super().__call__(i, j)
        self.known.record(i, j, same)
        return same


class Settled:
    """What a consistent oracle's answers imply, kept the plain way: a
    component label per point, relabelled in full on each "same", and the
    list of "different" answers."""

    def __init__(self, n):
        self.comp = list(range(n))
        self.different = []

    def answer(self, i, j):
        """True or False when the answers so far settle (i, j), else None."""
        comp = self.comp
        if comp[i] == comp[j]:
            return True
        for a, b in self.different:
            if {comp[a], comp[b]} == {comp[i], comp[j]}:
                return False
        return None

    def record(self, i, j, same):
        if same:
            old, new = self.comp[j], self.comp[i]
            self.comp = [new if c == old else c for c in self.comp]
        else:
            self.different.append((i, j))


def exact_report(candidates, labels, queries=None):
    """The report of ranking the candidates on every pair of ``labels``;
    by default every pair was asked."""
    pos, neg = all_pairs(labels)
    n_pairs = len(pos) + len(neg)
    queries = n_pairs if queries is None else queries
    return rank_candidates(candidates, pos, neg, queries=queries,
                           inferred=n_pairs - queries)


def scalar_select(candidates, labels, m_pairs, seed, infer=True):
    """The selector's contract with two scalar ``integers`` calls a draw,
    stopping at the cap 2 (m/gamma + m/(1 - gamma)) at gamma = 1/100.

    Returns the pairs the oracle should be asked, in order, and the report
    the selector should give.  With ``infer`` a pair that earlier answers
    settle is not asked; without it every distinct drawn pair is.
    """
    n = len(labels)
    n_pairs = n * (n - 1) // 2
    known = Settled(n)
    asked = []

    def ask(i, j):
        if not infer or known.answer(i, j) is None:
            asked.append((i, j))
            known.record(i, j, labels[i] == labels[j])

    if n_pairs <= m_pairs:
        for i, j in combinations(range(n), 2):
            ask(i, j)
        return asked, exact_report(candidates, labels, len(asked))
    rng = np.random.default_rng(seed)
    seen, pos, neg = set(), [], []
    cap = math.ceil(2 * (m_pairs / 0.01 + m_pairs / 0.99))
    while ((len(pos) < m_pairs or len(neg) < m_pairs) and len(seen) < n_pairs
           and len(pos) + len(neg) < cap):
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        j += j >= i
        if (min(i, j), max(i, j)) not in seen:
            seen.add((min(i, j), max(i, j)))
            ask(i, j)
        (pos if labels[i] == labels[j] else neg).append((i, j))
    if len(seen) == n_pairs:
        return asked, exact_report(candidates, labels, len(asked))
    return asked, rank_candidates(candidates, pos, neg, len(asked),
                                  inferred=len(seen) - len(asked))


@pytest.mark.parametrize("labels,m_pairs", [
    ([0, 0, 0, 1, 1, 1], 25),                  # every pair fits: exhaustive
    ([0, 1, 1, 2, 2, 2, 3, 4, 5, 5] * 5, 60),  # 50 points, fills both sides
    ([7, 7, 7, 7], 10),  # every pair fits, all positive
    ([0, 1], 3),         # two points, all negative
    ([0, 0], 3),         # two points, all positive
    ([0, 0, 0, 1, 1, 1], 4),  # 15 pairs, sampled: fills both sides
    ([7] * 60, 3),       # all positive: to the cap
    ([0, 1, 2], 1),      # all negative: every pair answered, no cap
    ([5] * 12, 2),       # all positive: every pair answered, or the cap first
    # three classes: both sides fill among draws that earlier answers
    # settle
    ([0] * 40 + [1] * 40 + [2] * 40, 500),
    # a rare negative side: both sides fill far into the draws, before the
    # cap, with more pairs than the cap allows draws
    ([0] * 150 + [1] * 2, 50),
    # all distinct: the cap of 607 draws comes first, and no answer settles
    # another pair
    (list(range(60)), 3),
    # two classes of 6: both sides fill after 40 to 52 draws, before all 66
    # pairs are drawn
    ([0] * 6 + [1] * 6, 20),
])
def test_select_draws_the_scalar_pair_stream(labels, m_pairs):
    n = len(labels)
    cands = [clustering(list(range(n)), n=n),
             Clustering(-np.arange(1, n + 1))]
    for seed in range(12):
        asked, expected = scalar_select(cands, labels, m_pairs, seed)
        oracle = RecordingOracle(labels)
        assert ssc_select(cands, n, oracle, m_pairs, seed=seed) == expected
        assert oracle.asked == asked


class Asked(Exception):
    """Raised by an oracle that must not be asked."""


def refuse(i, j):
    raise Asked((i, j))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_store_settles_each_pair_as_its_answer_does(data):
    # after each of a random sequence of consistent answers, a pair that
    # the plain ``Settled`` leaves open goes to the oracle: one that refuses
    # raises and leaves the store as it was; every other pair, both ways
    # round, is settled with its true answer
    n = data.draw(st.integers(min_value=2, max_value=10), label="n")
    labels = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                       label="labels")
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    steps = data.draw(st.lists(pair, max_size=2 * n), label="answers")
    store = ssc._Answers(n)
    oracle = SameClusterOracle(labels)
    known = Settled(n)
    for step in [None, *steps]:
        if step is not None:
            i, j = step
            same, fresh = store.answer(oracle, i, j)
            assert fresh == (known.answer(i, j) is None)
            if fresh:
                known.record(i, j, same)
        state = deepcopy((store.root, store.members, store.apart))
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                truth = known.answer(i, j)
                if truth is None:
                    with pytest.raises(Asked):
                        store.answer(refuse, i, j)
                else:
                    assert truth == (labels[i] == labels[j])
                    assert store.answer(refuse, i, j) == (truth, False)
        assert (store.root, store.members, store.apart) == state


def is_subsequence(short, long):
    rest = iter(long)
    return all(item in rest for item in short)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_select_asks_each_pair_at_most_once(data):
    n = data.draw(st.integers(min_value=3, max_value=40), label="n")
    n_pairs = n * (n - 1) // 2
    labels = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n),
                       label="labels")
    m_pairs = data.draw(st.integers(1, n_pairs + 3), label="m_pairs")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    codes = np.unique(labels, return_inverse=True)[1]
    cands = [clustering(list(range(n)), n=n), Clustering(codes),
             Clustering(-np.arange(1, n + 1))]
    oracle = RecordingOracle(labels)
    rep = ssc_select(cands, n, oracle, m_pairs, seed=seed)
    unordered = {(min(i, j), max(i, j)) for i, j in oracle.asked}
    assert len(unordered) == len(oracle.asked) == rep.queries <= n_pairs
    if rep.queries + rep.inferred == n_pairs:
        assert rep == exact_report(cands, labels, rep.queries)


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_inference_only_drops_settled_questions(data):
    n = data.draw(st.integers(min_value=3, max_value=40), label="n")
    n_pairs = n * (n - 1) // 2
    labels = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n),
                       label="labels")
    m_pairs = data.draw(st.integers(1, n_pairs + 3), label="m_pairs")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    codes = np.unique(labels, return_inverse=True)[1]
    cands = [clustering(list(range(n)), n=n), Clustering(codes),
             Clustering(-np.arange(1, n + 1))]
    plain_asked, plain = scalar_select(cands, labels, m_pairs, seed, infer=False)
    # the oracle checks that each pair it hears was still open; its
    # answers are the labels' truth
    oracle = RecordingOracle(labels)
    rep = ssc_select(cands, n, oracle, m_pairs, seed=seed)
    assert is_subsequence(oracle.asked, plain_asked)
    assert rep.queries == len(oracle.asked)
    assert rep.queries + rep.inferred == plain.queries
    # every draw got its true answer: the report is the plain one
    assert replace(rep, queries=plain.queries, inferred=0) == plain


def test_all_distinct_block_asks_every_pair_it_draws():
    # no answer is "same", so no pair settles another
    n = 30
    cands = [clustering(list(range(n)), n=n), Clustering(-np.arange(1, n + 1))]
    labels = list(range(n))
    for seed in range(5):
        plain_asked, plain = scalar_select(cands, labels, 40, seed, infer=False)
        oracle = RecordingOracle(labels)
        rep = ssc_select(cands, n, oracle, 40, seed=seed)
        assert oracle.asked == plain_asked
        assert (rep.queries, rep.inferred) == (plain.queries, 0)
        assert rep.n_neg == plain.n_neg >= 40
