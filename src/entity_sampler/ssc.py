"""Choosing among candidate clusterings with a same-cluster oracle.

The quality of a candidate C against the target C* is the weighted pair
loss  L(C) = mu * P+[C splits the pair] + (1 - mu) * P-[C joins the pair],
where P+/P- are uniform over the target's positive and negative pairs, and
mu is the constant ``_MU`` = 0.5.  The selector estimates both terms by
sampling pairs, routing each through the oracle until both sides hold
enough, and returns the empirical minimizer (ties favour fewer clusters).
An instance whose pairs fit in the budget, or whose every pair has been
drawn, is ranked on exact losses.  A planner sizes the per-side budget, and
a fixed query cap stops the draws at (1 + nu) (m/gamma + m/(1-gamma)),
about 202 m, with the slack nu = ``_NU`` = 1 and the negative-pair rate
gamma = ``_GAMMA`` = 1/100; the candidates are then ranked on the pairs
drawn so far.

The oracle must answer consistently, so that "same" is an equivalence
relation.  It is asked only about pairs that its earlier answers leave
open: two points already joined by "same" answers are "same", and two
components already told apart are "different" (Wang et al., "Leveraging
Transitive Relations for Crowdsourced Joins", SIGMOD 2013).  Every draw
still counts with its true answer, so the losses do not change; only the
questions do.  A block's answers have one owner, the store ``_Answers``,
whose ``answer`` settles a pair from the answers so far or asks the oracle
and records its answer, for the exhaustive and the drawn pairs alike.
The candidate set is fixed before any pair is drawn (Ashtiani, Kushagra
and Ben-David, "Clustering with Same-Cluster Queries", NeurIPS 2016).  An
inconsistent (noisy) oracle is absorbed silently rather than contradicted;
such oracles are out of scope here (Mazumdar and Saha, "Clustering with
Noisy Queries", NeurIPS 2017).

A sampled run draws one pair at a time and passes it to the store, so
only the draws that the answers so far leave open are asked.  An instance
ranked on every pair counts each candidate's joined pairs from its table
of (component, label) cells, without forming the pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .clustering import Clustering
from .dataset import positive_count

__all__ = [
    "SscReport",
    "SameClusterOracle",
    "pair_losses",
    "plan_pair_budget",
    "rank_candidates",
    "ssc_select",
]

# the weight mu of the positive loss, and the slack nu and negative-pair
# rate gamma at which the query cap is sized
_MU = 0.5
_NU = 1.0
_GAMMA = 0.01
# the constant a of the pair budget
_PAIR_A = 1.0


class SameClusterOracle:
    """Answers same-cluster queries from ground-truth labels, counting calls."""

    def __init__(self, labels: Sequence) -> None:
        self._labels = list(labels)
        self.queries = 0

    def __call__(self, i: int, j: int) -> bool:
        self.queries += 1
        return self._labels[i] == self._labels[j]


def plan_pair_budget(n_candidates: int, epsilon: float, delta: float) -> int:
    """Per-side pair count for epsilon-accurate losses over the candidates.

    m = ceil(a (log s + log(2/delta)) / epsilon^2) with s candidates and
    a = 1.
    """
    if n_candidates < 1:
        raise ValueError("need at least one candidate")
    if not (0 < epsilon < 1) or not (0 < delta < 1):
        raise ValueError("epsilon and delta must lie in (0, 1)")
    m = _PAIR_A * (math.log(n_candidates) + math.log(2.0 / delta)) / epsilon**2
    return max(1, math.ceil(m))


def _joined(lab: np.ndarray, pairs: Sequence[tuple[int, int]]) -> int:
    """Number of pairs whose two points share a non-garbage cluster."""
    p = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    same = (lab[p[:, 0]] == lab[p[:, 1]]) & (lab[p[:, 0]] >= 0)
    return int(np.count_nonzero(same))


def pair_losses(
    candidate: Clustering,
    pos_pairs: Sequence[tuple[int, int]],
    neg_pairs: Sequence[tuple[int, int]],
) -> tuple[float, float, float]:
    """(positive loss, negative loss, weighted loss) of one candidate.

    Positive loss: fraction of target-positive pairs the candidate splits.
    Negative loss: fraction of target-negative pairs the candidate joins.
    The weighted loss gives them weights ``_MU`` and 1 - ``_MU``.
    """
    lab = candidate.labels
    n_pos, n_neg = len(pos_pairs), len(neg_pairs)
    return _losses(n_pos, n_pos - _joined(lab, pos_pairs), n_neg,
                   _joined(lab, neg_pairs))


def _losses(
    n_pos: int, split_pos: int, n_neg: int, joined_neg: int
) -> tuple[float, float, float]:
    """(positive loss, negative loss, weighted loss) from the pair counts."""
    pl = split_pos / max(n_pos, 1)
    nl = joined_neg / max(n_neg, 1)
    return pl, nl, _MU * pl + (1.0 - _MU) * nl


@dataclass(frozen=True)
class SscReport:
    """Outcome of one selection run.

    ``queries`` counts the pairs the oracle was asked and ``inferred`` the
    distinct pairs drawn, or scored exhaustively, that earlier answers
    settled without asking; ``n_pos`` and ``n_neg`` count the pairs ranked on.
    """

    winner: int
    losses: tuple[float, ...]
    queries: int
    n_pos: int
    n_neg: int
    inferred: int


def rank_candidates(
    candidates: Sequence[Clustering],
    pos: Sequence[tuple[int, int]],
    neg: Sequence[tuple[int, int]],
    queries: int,
    inferred: int = 0,
) -> SscReport:
    """Report whose winner has the smallest weighted loss on ``pos``/``neg``.

    Ties go to the candidate with fewer clusters, then to the earlier one.
    A side with no pairs has nothing to lose, so positives alone still
    separate "merge everything" from finer candidates.
    """
    pos_arr = np.asarray(pos, dtype=np.int64).reshape(-1, 2)
    neg_arr = np.asarray(neg, dtype=np.int64).reshape(-1, 2)
    losses = [pair_losses(c, pos_arr, neg_arr)[2] for c in candidates]
    return _ranked(candidates, losses, queries=queries, n_pos=len(pos_arr),
                   n_neg=len(neg_arr), inferred=inferred)


def _ranked(candidates: Sequence[Clustering], losses: list, **fields) -> SscReport:
    """Report naming the smallest of ``losses``, ties to fewer clusters."""
    return SscReport(
        winner=min(range(len(candidates)), key=lambda t: (losses[t], candidates[t].k)),
        losses=tuple(losses),
        **fields,
    )


class _Answers:
    """A block's answers: the components of its "same" answers and the
    pairs of components its "different" answers tell apart.

    ``root`` gives each point's component root, ``members`` each root's
    points and ``apart`` the roots each root is told apart from.
    """

    def __init__(self, n_points: int) -> None:
        self.root = list(range(n_points))
        self.members = [[p] for p in range(n_points)]
        self.apart = [set() for _ in range(n_points)]

    def answer(self, oracle: Callable[[int, int], bool], i: int, j: int
               ) -> tuple[bool, bool]:
        """The answer to the pair (i, j), and whether the oracle was asked.

        A pair inside one component is "same" and a pair across two
        components told apart is "different"; any other pair goes to the
        oracle, whose answer is recorded.  This is the selector's one
        oracle call.
        """
        root, apart = self.root, self.apart
        ri, rj = root[i], root[j]
        if ri == rj:
            return True, False
        if rj in apart[ri]:
            return False, False
        same = bool(oracle(i, j))
        if same:
            # the smaller component's points take the larger one's root,
            # and only its "different" edges are re-keyed to that root
            members = self.members
            if len(members[ri]) < len(members[rj]):
                ri, rj = rj, ri
            for p in members[rj]:
                root[p] = ri
            members[ri] += members[rj]
            for r in apart[rj]:
                apart[r].remove(rj)
                apart[r].add(ri)
            apart[ri] |= apart[rj]
            members[rj] = apart[rj] = None
        else:
            apart[ri].add(rj)
            apart[rj].add(ri)
        return same, True

    @property
    def roots(self) -> np.ndarray:
        """Each point's component root."""
        return np.array(self.root)


def ssc_select(
    candidates: Sequence[Clustering],
    n_points: int,
    oracle: Callable[[int, int], bool],
    m_pairs: int,
    seed: int,
) -> SscReport:
    """Pick the candidate with the smallest pair loss.

    ``m_pairs``, the per-side pair budget, is an integer of at least 1.
    When all C(n, 2) pairs fit in ``m_pairs`` they are taken in
    lexicographic order and the losses are exact.  Otherwise pairs (x, y),
    x != y, are drawn uniformly with replacement and routed into the
    positive or negative side until both hold ``m_pairs`` draws.  The draws
    stop at the cap (1 + nu) (m/gamma + m/(1-gamma)), nu = ``_NU`` and
    gamma = ``_GAMMA``, about 202 m draws; the candidates are then ranked
    on the draws so far.  A run that draws every pair first is ranked on
    the exact pairs.  Ties in the loss go to the candidate with fewer
    clusters.

    The oracle must answer consistently.  The selector keeps the components
    of its "same" answers and the "different" answers between components,
    and asks it only about pairs those leave open: a pair inside one
    component is "same", a pair across two components told apart is
    "different".  Every draw still gets its true answer, so the losses are
    those of asking every pair.  An inconsistent (noisy) oracle is absorbed
    silently: a pair whose answer would contradict earlier ones is never
    asked.

    The pairs are drawn one at a time, x and then y among the other n - 1
    points, and each draw is answered before the next: a draw the answers
    so far settle is not asked, and only the open ones are.

    A single candidate is not ranked: nothing is drawn or asked, and the
    report counts no pairs.
    """
    if not candidates:
        raise ValueError("no candidates to select from")
    if n_points < 2:
        raise ValueError("need at least two points to draw pairs")
    if any(c.n != n_points for c in candidates):
        raise ValueError(f"every candidate must label the {n_points} points")
    m_pairs = positive_count(m_pairs, "m_pairs")
    if len(candidates) == 1:
        return _ranked(candidates, [0.0], queries=0, n_pos=0, n_neg=0, inferred=0)
    n_pairs = n_points * (n_points - 1) // 2
    store = _Answers(n_points)
    if n_pairs <= m_pairs:
        asked = sum(store.answer(oracle, i, j)[1]
                    for i, j in combinations(range(n_points), 2))
        return _exact_report(candidates, store.roots, asked)
    rng = np.random.default_rng(seed)
    cap = _cap(m_pairs)
    seen = set()
    pos, neg = [], []
    asked = 0
    while ((len(pos) < m_pairs or len(neg) < m_pairs) and len(seen) < n_pairs
           and len(pos) + len(neg) < cap):
        i = int(rng.integers(n_points))
        j = int(rng.integers(n_points - 1))
        j += j >= i
        seen.add((i, j) if i < j else (j, i))
        same, fresh = store.answer(oracle, i, j)
        asked += fresh
        (pos if same else neg).append((i, j))
    if len(seen) == n_pairs:
        return _exact_report(candidates, store.roots, asked)
    return rank_candidates(candidates, pos, neg, asked, inferred=len(seen) - asked)


def _cap(m_pairs: int) -> int:
    """Draws allowed: (1 + nu) (m/gamma + m/(1-gamma)), rounded up, with
    nu = ``_NU`` and gamma = ``_GAMMA``."""
    return math.ceil((1.0 + _NU) * (m_pairs / _GAMMA + m_pairs / (1.0 - _GAMMA)))


def _exact_report(
    candidates: Sequence[Clustering], comp: np.ndarray, asked: int
) -> SscReport:
    """Rank on every pair once the answers settle all of them: a pair is
    positive exactly when its two points share a component root ``comp``.
    A candidate's joined positive pairs are counted from its table of
    (root, label) cells, its joined negative pairs as the rest of the
    pairs it joins."""
    n_points = comp.size
    n_pairs = n_points * (n_points - 1) // 2
    n_pos = _pairs_within(comp)
    n_neg = n_pairs - n_pos
    losses = []
    for c in candidates:
        kept = c.labels >= 0
        lab = c.labels[kept]
        joined_pos = _pairs_within(comp[kept] * c.k + lab)
        joined_neg = _pairs_within(lab) - joined_pos
        losses.append(_losses(n_pos, n_pos - joined_pos, n_neg, joined_neg)[2])
    return _ranked(candidates, losses, queries=asked, n_pos=n_pos, n_neg=n_neg,
                   inferred=n_pairs - asked)


def _pairs_within(codes: np.ndarray) -> int:
    """Number of unordered pairs of entries that share a code (codes >= 0)."""
    counts = np.bincount(codes)
    return int((counts * (counts - 1) // 2).sum())
