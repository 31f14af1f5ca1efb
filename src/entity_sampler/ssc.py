"""Choosing among candidate clusterings with a same-cluster oracle.

The quality of a candidate C against the target C* is the weighted pair
loss  L(C) = mu * P+[C splits the pair] + (1 - mu) * P-[C joins the pair],
where P+/P- are uniform over the target's positive and negative pairs.  The
selector estimates both terms by sampling pairs, routing each through the
oracle until both sides hold enough, and returns the empirical minimizer
(ties favour fewer clusters).  The oracle hears each unordered pair at most
once; an instance whose pairs fit in the budget, or whose every pair has
been answered, is ranked on exact losses.  A planner sizes the per-side
budget, and a query cap stops draws whose count exceeds its expectation by
more than the allowed factor; the candidates are then ranked on the pairs
drawn so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator, Sequence

import numpy as np

from .clustering import Clustering

__all__ = [
    "SscReport",
    "SameClusterOracle",
    "all_pairs",
    "exhaustive_losses",
    "pair_losses",
    "plan_pair_budget",
    "rank_candidates",
    "ssc_select",
]


class SameClusterOracle:
    """Answers same-cluster queries from ground-truth labels, counting calls."""

    def __init__(self, labels: Sequence) -> None:
        self._labels = list(labels)
        self.queries = 0

    def __call__(self, i: int, j: int) -> bool:
        self.queries += 1
        return self._labels[i] == self._labels[j]


def plan_pair_budget(
    n_candidates: int, epsilon: float, delta: float, a: float = 1.0
) -> int:
    """Per-side pair count for epsilon-accurate losses over the candidates.

    m = ceil(a (log s + log(2/delta)) / epsilon^2) with s candidates.
    """
    if n_candidates < 1:
        raise ValueError("need at least one candidate")
    if not (0 < epsilon < 1) or not (0 < delta < 1):
        raise ValueError("epsilon and delta must lie in (0, 1)")
    m = a * (math.log(n_candidates) + math.log(2.0 / delta)) / epsilon**2
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
    mu_weight: float = 0.5,
) -> tuple[float, float, float]:
    """(positive loss, negative loss, weighted loss) of one candidate.

    Positive loss: fraction of target-positive pairs the candidate splits.
    Negative loss: fraction of target-negative pairs the candidate joins.
    """
    lab = candidate.labels
    n_pos, n_neg = len(pos_pairs), len(neg_pairs)
    pl = (n_pos - _joined(lab, pos_pairs)) / max(n_pos, 1)
    nl = _joined(lab, neg_pairs) / max(n_neg, 1)
    return pl, nl, mu_weight * pl + (1.0 - mu_weight) * nl


def all_pairs(
    oracle: Callable[[int, int], bool], n_points: int
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Positive and negative lists of all unordered pairs i < j, each asked once."""
    pos, neg = [], []
    for i, j in combinations(range(n_points), 2):
        (pos if oracle(i, j) else neg).append((i, j))
    return pos, neg


def exhaustive_losses(
    candidates: Sequence[Clustering],
    oracle: Callable[[int, int], bool],
    n_points: int,
    mu_weight: float = 0.5,
) -> list[tuple[float, float, float]]:
    """Losses of every candidate over all unordered distinct pairs."""
    pos, neg = all_pairs(oracle, n_points)
    return [pair_losses(c, pos, neg, mu_weight) for c in candidates]


# pairs drawn per call to the generator; the pair stream does not depend on it
_PAIR_BATCH = 256


def _draw_pairs(n_points: int, seed: int) -> Iterator[tuple[int, int]]:
    """Endless uniform pairs (i, j), i != j, drawn a batch at a time.

    One ``integers`` call over bounds alternating n, n - 1 consumes the
    generator exactly as alternating scalar ``integers(n)`` and
    ``integers(n - 1)`` calls do, so every batch size gives the same pairs.
    """
    rng = np.random.default_rng(seed)
    bounds = np.tile([n_points, n_points - 1], _PAIR_BATCH)
    while True:
        ij = rng.integers(0, bounds)
        ij[1::2] += ij[1::2] >= ij[::2]
        # one flat list: a list per pair would feed the garbage collector
        flat = iter(ij.tolist())
        yield from zip(flat, flat)


@dataclass(frozen=True)
class SscReport:
    """Outcome of one selection run."""

    winner: int
    losses: tuple[float, ...]
    queries: int
    query_cap: int
    gamma_hat: float
    n_pos: int
    n_neg: int


def rank_candidates(
    candidates: Sequence[Clustering],
    pos: Sequence[tuple[int, int]],
    neg: Sequence[tuple[int, int]],
    query_cap: int,
    gamma_hat: float,
    queries: int,
    mu_weight: float = 0.5,
) -> SscReport:
    """Report whose winner has the smallest weighted loss on ``pos``/``neg``.

    Ties go to the candidate with fewer clusters, then to the earlier one.
    A side with no pairs has nothing to lose, so positives alone still
    separate "merge everything" from finer candidates.
    """
    pos_arr = np.asarray(pos, dtype=np.int64).reshape(-1, 2)
    neg_arr = np.asarray(neg, dtype=np.int64).reshape(-1, 2)
    losses = [pair_losses(c, pos_arr, neg_arr, mu_weight)[2] for c in candidates]
    return SscReport(
        winner=min(range(len(candidates)), key=lambda t: (losses[t], candidates[t].k)),
        losses=tuple(losses),
        queries=queries,
        query_cap=query_cap,
        gamma_hat=gamma_hat,
        n_pos=len(pos_arr),
        n_neg=len(neg_arr),
    )


def ssc_select(
    candidates: Sequence[Clustering],
    n_points: int,
    oracle: Callable[[int, int], bool],
    m_pairs: int,
    seed: int,
    mu_weight: float = 0.5,
    nu: float = 1.0,
    gamma_probe: int = 100,
) -> SscReport:
    """Pick the candidate with the smallest pair loss.

    When all C(n, 2) pairs fit in ``m_pairs`` they are asked in
    lexicographic order and the losses are exact.  Otherwise pairs (x, y),
    x != y, are drawn uniformly with replacement and routed by the oracle
    into the positive or negative side until both hold ``m_pairs`` draws.
    The oracle is asked each unordered pair once and its answer reused, and
    ``queries`` counts the pairs it was asked.  The draws stop at the cap
    (1 + nu) (m/gamma + m/(1-gamma)), with gamma, the negative-pair rate,
    estimated from the first ``gamma_probe`` draws; the candidates are then
    ranked on the draws so far.  A run that gets every pair answered first
    is ranked on the exact pairs.  Ties in the loss go to the candidate with
    fewer clusters.
    """
    if not candidates:
        raise ValueError("no candidates to select from")
    if n_points < 2:
        raise ValueError("need at least two points to draw pairs")
    if m_pairs < 1:
        raise ValueError("pair budget must be positive")
    if not (0 <= mu_weight <= 1):
        raise ValueError("mu_weight must lie in [0, 1]")
    n_pairs = n_points * (n_points - 1) // 2
    if n_pairs <= m_pairs:
        pos, neg = all_pairs(oracle, n_points)
    else:
        pairs = _draw_pairs(n_points, seed)
        # each answered pair under the key i * n + j, i < j
        answers: dict[int, bool] = {}
        pos, neg = [], []
        draws = 0
        probe_neg = 0
        cap = None
        while (len(pos) < m_pairs or len(neg) < m_pairs) and len(answers) < n_pairs:
            if cap is not None and draws >= cap:
                break
            i, j = next(pairs)
            key = i * n_points + j if i < j else j * n_points + i
            same = answers.get(key)
            if same is None:
                same = answers[key] = bool(oracle(i, j))
            draws += 1
            if same:
                pos.append((i, j))
            else:
                neg.append((i, j))
                if draws <= gamma_probe:
                    probe_neg += 1
            if draws == gamma_probe and cap is None:
                gamma_hat = min(max(probe_neg / gamma_probe, 1.0 / gamma_probe),
                                1.0 - 1.0 / gamma_probe)
                cap = math.ceil(
                    (1.0 + nu) * (m_pairs / gamma_hat + m_pairs / (1.0 - gamma_hat))
                )
        if len(answers) < n_pairs:
            if cap is None:
                gamma_hat = max(len(neg), 1) / draws
                cap = draws
            return rank_candidates(candidates, pos, neg, cap, gamma_hat,
                                   len(answers), mu_weight)
        pos, neg = all_pairs(lambda i, j: answers[i * n_points + j], n_points)
    return rank_candidates(candidates, pos, neg, n_pairs, len(neg) / n_pairs,
                           n_pairs, mu_weight)
