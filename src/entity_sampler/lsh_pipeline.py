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
from typing import Callable, Sequence

import numpy as np

from .blocking import Blocking
from .clustering import Clustering, ClusteringError, neighbour_mask, regularized_kmeans
from .dataset import Dataset, DatasetError
from .rejection import ProbabilityMap
from .ssc import (
    OracleBudgetError,
    SscReport,
    best_candidate,
    exhaustive_losses,
    pair_losses,
    ssc_select,
)

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
    mu_weight: float = 0.5,
    proportional_budget: bool = False,
    brute_force_cap: int = 9,
    restarts: int = 32,
) -> LshEstimate:
    """Estimate per-record probabilities block by block.

    ``budget`` is the total pair budget, split equally over blocks (or
    proportionally to block size with ``proportional_budget``).  ``k_range``
    bounds the duplicate-group count tried per block; the range is clamped
    to what the block can support after its garbage points are removed.
    ``oracle`` answers same-cluster queries on global record indices and
    must answer consistently: each unordered pair is passed to it at most
    once and the answer reused.  A block whose C(b, 2) pairs all fit in its
    per-side budget is scored exhaustively on exact losses; larger blocks
    are scored by sampled selection (``ssc_select``).
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
    q = blocking.q
    group_ids = np.full(data.n, -1, dtype=np.int64)
    next_group = 0
    reports = []
    for block_id, block in enumerate(blocking.blocks):
        if block.size == 1:
            group_ids[block[0]] = next_group
            next_group += 1
            continue
        if proportional_budget:
            block_budget = max(1, int(round(budget * block.size / data.n)))
        else:
            block_budget = max(1, budget // q)
        points = data.features[block]
        child_seeds = _block_seed(seed, block_id).generate_state(2)
        has_neighbour = neighbour_mask(points, mu_radius)
        remaining = int(has_neighbour.sum())
        if remaining == 0:
            ks = [0]
        else:
            ks = sorted({min(max(k, 1), remaining) for k in range(k_lo, k_hi + 1)})
        candidates: list[Clustering] = []
        for k in ks:
            try:
                cand = regularized_kmeans(
                    points,
                    k,
                    mu_radius,
                    seed=int(child_seeds[0]),
                    brute_force_cap=brute_force_cap,
                    restarts=restarts,
                    has_neighbour=has_neighbour,
                )
            except ClusteringError:
                continue
            candidates.append(cand)
        if not candidates:
            raise ClusteringError(
                f"block {block_id} admits no clustering for k in "
                f"[{k_lo}, {k_hi}] at radius {mu_radius}"
            )
        if len(candidates) == 1:
            winner = candidates[0]
        else:
            local_oracle, answers = _memo_oracle(oracle, block)
            if block.size * (block.size - 1) // 2 <= block_budget:
                report = _exhaustive_report(
                    candidates, block.size, local_oracle, answers, mu_weight
                )
            else:
                report = _sampled_report(
                    candidates, block.size, local_oracle, block_budget,
                    int(child_seeds[1]), mu_weight,
                )
                # the selector's draws include memo hits; report oracle calls
                report = replace(report, queries=len(answers))
            winner = candidates[report.winner]
            reports.append((block_id, report))
        for members in winner.clusters:
            group_ids[block[members]] = next_group
            next_group += 1
        for idx in winner.garbage:
            group_ids[block[idx]] = next_group
            next_group += 1
    sizes = np.bincount(group_ids, minlength=next_group)
    phat = sizes[group_ids] / data.n
    pmap = ProbabilityMap(dense=phat)
    return LshEstimate(
        pmap=pmap, group_ids=group_ids, group_sizes=sizes, reports=tuple(reports)
    )


def _exhaustive_report(
    candidates: Sequence[Clustering],
    n_points: int,
    oracle: Callable[[int, int], bool],
    answers: dict[int, bool],
    mu_weight: float,
) -> SscReport:
    """Exact losses over all C(b, 2) pairs, each asked once.

    ``answers`` is the memo ``oracle`` fills, read back for the positive
    count; gamma_hat is then the exact negative-pair rate.
    """
    losses = [
        loss[2] for loss in exhaustive_losses(candidates, oracle, n_points, mu_weight)
    ]
    n_pairs = n_points * (n_points - 1) // 2
    n_pos = sum(answers.values())
    return SscReport(
        winner=best_candidate(candidates, losses),
        losses=tuple(losses),
        queries=n_pairs,
        query_cap=n_pairs,
        gamma_hat=(n_pairs - n_pos) / n_pairs,
        n_pos=n_pos,
        n_neg=n_pairs - n_pos,
    )


def _sampled_report(
    candidates: Sequence[Clustering],
    n_points: int,
    oracle: Callable[[int, int], bool],
    m_pairs: int,
    seed: int,
    mu_weight: float,
) -> SscReport:
    """``ssc_select``, ranking on the collected pairs if the cap runs out."""
    try:
        return ssc_select(
            candidates,
            n_points=n_points,
            oracle=oracle,
            m_pairs=m_pairs,
            seed=seed,
            mu_weight=mu_weight,
        )
    except OracleBudgetError as exc:
        # A block whose pairs lie (almost) all on one side exhausts the cap;
        # rank candidates on the pairs it did collect.  A side with no pairs
        # has nothing to lose, so positives alone still separate "merge
        # everything" from finer candidates.
        losses = [
            pair_losses(c, exc.pos_pairs, exc.neg_pairs, mu_weight)[2]
            for c in candidates
        ]
        return SscReport(
            winner=best_candidate(candidates, losses),
            losses=tuple(losses),
            queries=exc.queries,
            query_cap=exc.query_cap,
            gamma_hat=exc.gamma_hat,
            n_pos=len(exc.pos_pairs),
            n_neg=len(exc.neg_pairs),
        )
