"""Frequency estimation for blockable datasets.

Pipeline: block the records with locality-sensitive hashing, cluster every
block into duplicate groups, then union the per-block clusterings.  A
block that asks the oracle anything first builds its radius forest, the
minimum spanning forest of its pairs within ``mu_radius``, shortest edge
first, ties by (i, j).  When the forest fits the block's budget, the
block asks each forest edge once, in that order, and its groups are the
components of the "same" answers (Vesdapunt, Bellare and Dalvi, PVLDB
2014): no k-means runs and nothing is ranked, and the answers set the
cluster count.  Otherwise the candidates are regularized k-means over
``k_range``, and sampled same-cluster selection against the oracle picks
the winner, over a candidate set fixed before the first draw.  A block's
distance work is one sparse radius graph, built from grid cells rather
than b^2 distances; its radius forest's endpoints are the points with a
neighbour.  A block whose graph keeps more than
``clustering._MAX_GRAPH_PAIRS`` pairs raises ``RadiusGraphError``.
Garbage points become singleton clusters.  A two-record block follows
the same rule, all pair blocks at once in array form: its forest is its
pair when the pair is within ``mu_radius``, so it is settled by one
radius test and at most one oracle question.  The estimate of a record's
probability is the size of its duplicate cluster over the dataset size,
so the induced sampler weights every cluster, i.e. every entity, equally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .blocking import Blocking, _components
from .clustering import (
    ClusteringError,
    _radius_forest,
    _sq_distance,
    _sq_radius,
    neighbour_mask,  # not called here; perfbench/spans.py wraps this name
    regularized_kmeans,
)
from .dataset import (Dataset, DatasetError, _factorize_features, integer,
                      positive_count)
from .rejection import ProbabilityMap
from .ssc import ssc_select

__all__ = ["LshEstimate", "estimate_probs_lsh"]


def _block_seed(seed: int, block_id: int) -> np.random.SeedSequence:
    """Deterministic per-block randomness derived from the global seed."""
    return np.random.SeedSequence(entropy=(seed, block_id))


_OUTCOME = np.dtype([(name, np.int64) for name in
                     ("block", "queries", "inferred", "n_pos", "n_neg")])


@dataclass(frozen=True, eq=False)
class LshEstimate:
    """Probability map plus the assembled duplicate-group assignment.

    ``outcomes`` has a row for each block whose outcome the oracle decided,
    in block order: the block id, ``queries``, ``inferred``, ``n_pos`` and
    ``n_neg``.  A block decided by its forest's answers, an asked pair
    block included, asks each forest edge once and infers nothing; its
    ``n_pos`` and ``n_neg`` are its "same" and "different" answers.  A
    block that ``ssc_select`` decides has that report's counts.
    """

    pmap: ProbabilityMap
    group_ids: np.ndarray
    group_sizes: np.ndarray
    outcomes: np.ndarray


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

    ``budget`` is the total pair budget, split equally over blocks.  It
    and the ends of ``k_range`` are integers; anything else raises
    ValueError.
    ``oracle`` answers same-cluster queries on global record indices and
    must answer consistently.

    A block builds its radius forest, the minimum spanning forest that
    joins its points within ``mu_radius``, edges (i, j), i < j, in
    (squared length, i, j) order; a point in no edge is garbage.  The
    forest fits when ``k_range`` reaches past 1 and it has one to twice
    the block's per-side budget of edges.  Then:

    * the forest fits: the block asks each edge once, in that order; a
      forest has no cycle, so no answer settles a later edge.  Its groups
      are the components of the "same" answers, numbered in order of
      their least point, and each point without a neighbour is garbage.
      ``k_range`` does not cap their count, no k-means runs, and nothing
      is ranked.
    * otherwise: the candidates are regularized k-means at each k in
      ``k_range``, clamped to the distinct points left after its garbage
      points are removed, so exact copies always share a cluster.  A
      block left with one candidate (for example k = 1 at ``k_range``
      (1, 1), or an all-garbage block) asks nothing.  Any other block
      makes one ``ssc_select`` call, which scores the block exhaustively
      when its C(b, 2) pairs fit in its per-side budget and by sampled
      selection otherwise.  The oracle is asked only about pairs that its
      earlier answers in the block do not settle by transitivity, so an
      inconsistent oracle is absorbed silently rather than contradicted.

    A two-record block follows this rule in array form: its forest is its
    pair when the two points are within ``mu_radius``.  Two points beyond
    it are two garbage groups.  A near pair merges unasked when
    ``k_range`` stops at 1, and otherwise is asked, and merges on "same"
    and splits on "different", at any ``k_range`` start.  Questions reach
    the oracle in block order.
    """
    if data.features is None:
        raise DatasetError("clustering requires vector records")
    if blocking.n != data.n:
        raise DatasetError("blocking does not match the dataset")
    k_lo, k_hi = (integer(k, "k_range") for k in k_range)
    if k_lo < 0 or k_hi < k_lo:
        raise ValueError(f"invalid k range [{k_lo}, {k_hi}]")
    budget = positive_count(budget, "budget")
    if not mu_radius >= 0:
        raise ClusteringError(f"mu_radius must be non-negative, got {mu_radius}")
    block_sizes = blocking.sizes
    q = block_sizes.size
    block_budget = max(1, budget // q)
    # each block's records, ascending, from `starts[b]` on
    members = np.argsort(blocking.labels, kind="stable")
    starts = np.cumsum(block_sizes) - block_sizes
    # group count of each block (a singleton is one group) and each
    # record's group within its block
    n_groups = np.ones(q, dtype=np.int64)
    local = np.zeros(data.n, dtype=np.int64)
    # a pair block's forest is its pair when the pair is within the
    # radius: a pair beyond it is two garbage groups, and a near pair is
    # asked when k_range reaches past 1 and merges unasked otherwise
    pairs = np.flatnonzero(block_sizes == 2)
    first = members[starts[pairs]]
    second = members[starts[pairs] + 1]
    near = (_sq_distance(data.features[first], data.features[second])
            <= _sq_radius(mu_radius))
    n_groups[pairs] = 2 - near
    asked = np.zeros(q, dtype=bool)
    asked[pairs[near]] = k_hi > 1
    outcomes = []
    # asked pairs and larger blocks in block order, so the oracle gets its
    # questions in the order of the blocks
    for block_id in np.flatnonzero(asked | (block_sizes > 2)).tolist():
        start = starts[block_id]
        block = members[start:start + block_sizes[block_id]]
        ids = block.tolist()
        if asked[block_id]:
            same = bool(oracle(ids[0], ids[1]))
            n_groups[block_id] = 2 - same
            outcomes.append((block_id, 1, 0, same, not same))
            continue
        points = data.features[block]
        # the block's one radius graph: garbage is every point in no edge
        forest = _radius_forest(points, mu_radius)
        has_neighbour = np.bincount(forest.ravel(), minlength=block.size) > 0
        # a block whose radius forest fits the budget is decided by the
        # forest's answers.  It fits at no more edges than the fewest draws
        # a sampled selection makes, block_budget on each side, so an
        # exhaustive block's always fits
        if k_hi > 1 and 0 < len(forest) <= 2 * block_budget:
            # a forest has no cycle, so no answer settles a later edge
            same = np.array([bool(oracle(ids[i], ids[j])) for i, j in forest.tolist()])
            root = _components(block.size, *forest[same].T)
            # clusters in order of least point, then garbage in index order
            keys, local[block] = np.unique(
                np.where(has_neighbour, root, block.size + root), return_inverse=True)
            n_groups[block_id] = keys.size
            n_same = int(np.count_nonzero(same))
            outcomes.append((block_id, len(forest), 0, n_same, len(forest) - n_same))
            continue
        # every k is in [1, distinct marked points], or 0 when the
        # prefilter leaves nothing: exactly the k that regularized_kmeans
        # accepts
        if len(forest) == 0:
            ks = [0]
        else:
            distinct = int(_factorize_features(points[has_neighbour]).max()) + 1
            ks = sorted({min(max(k, 1), distinct) for k in range(k_lo, k_hi + 1)})
        child_seeds = _block_seed(seed, block_id).generate_state(2)
        candidates = [
            regularized_kmeans(points, k, mu_radius, seed=int(child_seeds[0]),
                               has_neighbour=has_neighbour)
            for k in ks
        ]
        if len(candidates) == 1:
            winner = candidates[0]
        else:
            report = ssc_select(candidates, block.size,
                                lambda i, j: oracle(ids[i], ids[j]),
                                m_pairs=block_budget, seed=int(child_seeds[1]))
            winner = candidates[report.winner]
            outcomes.append((block_id, report.queries, report.inferred,
                             report.n_pos, report.n_neg))
        # groups in label order: clusters 0..k-1, then garbage -1, -2, ...
        lab = winner.labels
        local[block] = np.where(lab >= 0, lab, winner.k - 1 - lab)
        n_groups[block_id] = winner.k + int(np.count_nonzero(lab < 0))
    # a pair's second record has a group of its own unless the pair merged
    local[second] = n_groups[pairs] - 1
    offsets = np.cumsum(n_groups) - n_groups
    group_ids = offsets[blocking.labels] + local
    sizes = np.bincount(group_ids, minlength=int(n_groups.sum()))
    phat = sizes[group_ids] / data.n
    pmap = ProbabilityMap(dense=phat)
    return LshEstimate(pmap=pmap, group_ids=group_ids, group_sizes=sizes,
                       outcomes=np.array(outcomes, dtype=_OUTCOME))
