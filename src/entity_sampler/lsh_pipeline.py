"""Frequency estimation for blockable datasets.

Pipeline: block the records with locality-sensitive hashing, cluster every
block into duplicate groups (regularized k-means over a small range of k,
the winner chosen by sampled same-cluster selection against the oracle),
then union the per-block clusterings.  Garbage points become singleton
clusters.  The estimate of a record's probability is the size of its
duplicate cluster over the dataset size, so the induced sampler weights
every cluster, i.e. every entity, equally.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .blocking import Blocking
from .clustering import ClusteringError, neighbour_mask, regularized_kmeans
from .dataset import Dataset, DatasetError
from .rejection import ProbabilityMap
from .ssc import OracleBudgetError, all_pairs, rank_candidates, ssc_select

__all__ = ["LshEstimate", "estimate_probs_lsh"]


def _block_seed(seed: int, block_id: int) -> np.random.SeedSequence:
    """Deterministic per-block randomness derived from the global seed."""
    return np.random.SeedSequence(entropy=(seed, block_id))


def _memo_oracle(
    oracle: Callable[[int, int], bool], block: np.ndarray
) -> tuple[Callable[[int, int], bool], dict[int, bool]]:
    """Block-local oracle that passes each unordered pair to ``oracle`` once.

    Answers are kept under the integer key ``i * b + j`` (i < j, b the block
    size) and returned with the oracle, so a caller can count the positives.
    """
    b = block.size
    answers: dict[int, bool] = {}

    def ask(i: int, j: int) -> bool:
        key = i * b + j if i < j else j * b + i
        same = answers.get(key)
        if same is None:
            same = answers[key] = bool(oracle(int(block[i]), int(block[j])))
        return same

    return ask, answers


@dataclass(frozen=True)
class LshEstimate:
    """Probability map plus the assembled duplicate-group assignment."""

    pmap: ProbabilityMap
    group_ids: np.ndarray
    group_sizes: np.ndarray
    reports: tuple


def estimate_probs_lsh(
    data: Dataset,
    blocking: Blocking,
    k_range: tuple[int, int],
    budget: int,
    oracle: Callable[[int, int], bool],
    seed: int,
    mu_radius: float = 1.0,
) -> LshEstimate:
    """Estimate per-record probabilities block by block.

    ``budget`` is the total pair budget, split equally over blocks.
    ``k_range`` bounds the duplicate-group count tried per block; the range
    is clamped to what the block can support after its garbage points are
    removed.  ``oracle`` answers same-cluster queries on global record
    indices and must answer consistently: each unordered pair is passed to
    it at most once and the answer reused.  A block whose C(b, 2) pairs all
    fit in its per-side budget is scored exhaustively on exact losses;
    larger blocks are scored by sampled selection (``ssc_select``).
    """
    if data.features is None:
        raise DatasetError("clustering requires vector records")
    if blocking.n != data.n:
        raise DatasetError("blocking does not match the dataset")
    k_lo, k_hi = k_range
    if k_lo < 0 or k_hi < k_lo:
        raise ValueError(f"invalid k range [{k_lo}, {k_hi}]")
    if budget < 1:
        raise ValueError("pair budget must be positive")
    if not mu_radius >= 0:
        raise ClusteringError(f"mu_radius must be non-negative, got {mu_radius}")
    block_budget = max(1, budget // blocking.q)
    group_ids = np.full(data.n, -1, dtype=np.int64)
    next_group = 0
    reports = []
    for block_id, block in enumerate(blocking.blocks):
        if block.size == 1:
            group_ids[block[0]] = next_group
            next_group += 1
            continue
        points = data.features[block]
        child_seeds = _block_seed(seed, block_id).generate_state(2)
        has_neighbour = neighbour_mask(points, mu_radius)
        remaining = int(has_neighbour.sum())
        # every k is in [1, remaining], or 0 when the prefilter leaves
        # nothing: exactly the k that regularized_kmeans accepts
        if remaining == 0:
            ks = [0]
        else:
            ks = sorted({min(max(k, 1), remaining) for k in range(k_lo, k_hi + 1)})
        candidates = [
            regularized_kmeans(points, k, mu_radius, seed=int(child_seeds[0]),
                               has_neighbour=has_neighbour)
            for k in ks
        ]
        if len(candidates) == 1:
            winner = candidates[0]
        else:
            ask, answers = _memo_oracle(oracle, block)
            n_pairs = block.size * (block.size - 1) // 2
            if n_pairs <= block_budget:
                pos, neg = all_pairs(ask, block.size)
                report = rank_candidates(
                    candidates, pos, neg, query_cap=n_pairs,
                    gamma_hat=len(neg) / n_pairs, queries=n_pairs,
                )
            else:
                try:
                    report = ssc_select(candidates, block.size, ask,
                                        m_pairs=block_budget, seed=int(child_seeds[1]))
                except OracleBudgetError as exc:
                    # a block whose pairs lie (almost) all on one side runs
                    # out the cap; rank on the pairs it did collect
                    report = rank_candidates(
                        candidates, exc.pos_pairs, exc.neg_pairs,
                        query_cap=exc.query_cap, gamma_hat=exc.gamma_hat,
                        queries=exc.queries,
                    )
                # the selector's draws include memo hits; report oracle calls
                report = replace(report, queries=len(answers))
            winner = candidates[report.winner]
            reports.append((block_id, report))
        # groups in label order: clusters 0..k-1, then garbage -1, -2, ...
        lab = winner.labels
        group_ids[block] = next_group + np.where(lab >= 0, lab, winner.k - 1 - lab)
        next_group += winner.k + int(np.count_nonzero(lab < 0))
    sizes = np.bincount(group_ids, minlength=next_group)
    phat = sizes[group_ids] / data.n
    pmap = ProbabilityMap(dense=phat)
    return LshEstimate(
        pmap=pmap, group_ids=group_ids, group_sizes=sizes, reports=tuple(reports)
    )
