"""K-means with an explicit garbage cluster for isolated points.

A point with no neighbour within ``mu_radius`` cannot be a duplicate of
anything, so it is routed to the garbage set before clustering; the rest are
split into k clusters minimizing the usual within-cluster squared distance.
Tiny instances are solved exactly by enumerating assignments; larger ones use
Lloyd iterations from many k-means++ seedings, all restarts iterated together
on contiguous (restarts, n) arrays, one centre at a time, in buffers reused
across iterations.  Squared distances are summed in one kernel,
``_sq_distance``: direct differences, one coordinate at a time and in
order, into buffers the caller may reuse.  The radius graph, Lloyd and its
restart scoring, the pair-block radius test of ``lsh_pipeline`` and the EM
of ``gmm`` all call it; only the k-means++ seeding and the brute-force
references sum their own.

A block's pairs within ``mu_radius`` form one sparse radius graph: grid
cells of side about ``mu_radius`` over at most three coordinates propose
the candidate pairs, and the kernel keeps those within the radius, so no
b^2 distance pass runs.  Its pairs are (i, j) with i < j, and a graph of
more than ``_MAX_GRAPH_PAIRS`` pairs raises ``RadiusGraphError``.  The
neighbour mask is the graph's endpoints, and the radius forest is its
minimum spanning forest by Borůvka rounds, ties broken by (squared length,
i, j).  The result of clustering is one label array: clusters are 0..k-1
and each garbage point has its own negative label, so "same cluster" is
"same non-negative label".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .blocking import _components
from .dataset import _factorize_features, _factorize_objects

__all__ = [
    "Clustering",
    "ClusteringError",
    "RadiusGraphError",
    "brute_force_kmeans",
    "kmeans_cost",
    "lloyd_kmeans",
    "neighbour_mask",
    "regularized_kmeans",
]


# words of temporaries that one step of _radius_graph holds, and (restart,
# point, cluster or coordinate) entries that one chunk of lloyd_kmeans spans
_MASK_CHUNK = 1 << 20
# the most pairs a radius graph keeps (24 bytes each, about 100 MB): the
# 2.9M pairs of a 200k-record 2-d planted block fit
_MAX_GRAPH_PAIRS = 1 << 22
# a block with at most this many pairs takes all of them as candidates
_ALL_PAIRS_CAP = 2048
# the coordinates the radius graph's grid hashes, and its most cells per axis
_GRID_AXES = 3
_GRID_CELLS = 1 << 20
# the most points regularized_kmeans clusters by enumerating assignments
_BRUTE_FORCE_CAP = 9


def _sq_distance(
    x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None,
    diff: np.ndarray | None = None,
) -> np.ndarray:
    """Squared Euclidean distance between x and y over their last axis.

    The other axes broadcast.  The sum is accumulated one coordinate at a
    time, ``(x_j - y_j)**2`` in order, into one buffer, so no difference
    array with a coordinate axis is built and values around 1e6 do not
    cancel; for fewer than 8 coordinates these are the floats numpy's
    ``((x - y)**2).sum(axis=-1)`` gives.  ``out`` receives the sums and
    ``diff`` is scratch, both of the broadcast shape; each is allocated
    when omitted.  Every squared distance of the package is summed here,
    except in the k-means++ seeding and the brute-force references.
    """
    if out is None or diff is None:
        shape = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
        out = np.empty(shape) if out is None else out
        diff = np.empty(shape) if diff is None else diff
    if x.shape[-1] == 0:
        out[...] = 0.0
        return out
    np.square(np.subtract(x[..., 0], y[..., 0], out=out), out=out)
    for j in range(1, x.shape[-1]):
        out += np.square(np.subtract(x[..., j], y[..., j], out=diff), out=diff)
    return out


def _sq_radius(mu_radius: float) -> float:
    """``mu_radius**2``, or infinity when the square overflows, so that a
    radius past about 1.34e154 keeps every pair as ``inf`` does."""
    try:
        return mu_radius**2
    except OverflowError:
        return math.inf


def _radius_graph(
    points: np.ndarray, mu_radius: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair of points within ``mu_radius``: (u, v, d2) with u < v.

    ``d2`` holds each pair's ``_sq_distance``, and a pair is kept when it
    is at most ``mu_radius**2`` (infinite when that square overflows), the
    test the pair-block radius test makes.
    The pairs come in no particular order.

    A block of at most ``_ALL_PAIRS_CAP`` pairs takes all of them as
    candidates.  A larger one hashes each point to a grid cell over the
    (at most ``_GRID_AXES``) coordinates of widest span, and a candidate is
    a pair in one cell or in two neighbouring cells (Bentley, Stanat and
    Williams 1977).  The candidates are filtered in steps of about
    ``_MASK_CHUNK / (2d + 8)``, whole runs of one point's partners at a
    time, so a step holds about ``_MASK_CHUNK`` words of temporaries.

    No kept pair is missed.  The computed sum is at least each computed
    term ``fl(fl(x_j - y_j)**2)``, so a kept pair has, on every axis, a
    term at most ``mu**2`` as computed.  A difference
    ``|fl(x_j - y_j)| >= 2**-500`` has a normal square, so it is at most
    ``mu (1 + 2u)`` (u = 2**-53, the unit roundoff); a smaller one is below
    ``t = max(mu, 2**-500)``.  Either way ``|x_j - y_j| <= t (1 + 4u)``,
    which also covers squares that underflow to zero when ``mu`` is 0 or
    tiny.  A point's cell is
    ``floor(fl(fl(x_j - lo_j) / s_j))`` for the block's least coordinate
    ``lo_j``: monotone in x_j, so two points whose cells are two or more
    apart straddle a whole cell, whose width is at least
    ``s_j (1 - 7 c u)`` at cell index c.  The side is
    ``s_j = max(t, span_j / _GRID_CELLS) (1 + 2**-20)``, so c stays below
    ``_GRID_CELLS + 1`` = 2**20 + 1 and that width exceeds ``t (1 + 4u)``.
    Non-finite coordinates, spans or ``mu**2`` put every point in one
    cell.

    A graph keeping more than ``_MAX_GRAPH_PAIRS`` pairs raises
    ``RadiusGraphError``; up to then it holds at most the limit plus one
    chunk of kept pairs, 24 bytes each, besides the chunk's candidates.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ClusteringError("points must be an (n, d) array")
    if not mu_radius >= 0:
        raise ClusteringError(f"mu_radius must be non-negative, got {mu_radius}")
    n, d = points.shape
    r2 = _sq_radius(mu_radius)
    # a step's temporaries hold about 2d + 8 words per candidate
    chunk = max(1, _MASK_CHUNK // (2 * d + 8))
    if n * (n - 1) // 2 <= min(_ALL_PAIRS_CAP, chunk):
        graph = _near_pairs(points, *_all_pairs(n), r2)
        _check_graph_size(graph[0].size, n, mu_radius)
        return graph
    order, p, q0, q_len = _grid_rows(points, mu_radius)
    by_cell = points[order]
    kept = []
    count = 0
    # row r's candidates are (p[r], q0[r] + t) for t < q_len[r]; a step
    # takes whole rows, about `chunk` candidates
    ends = np.cumsum(q_len)
    lo = 0
    while lo < ends.size:
        before = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, before + chunk, side="right")))
        lengths = q_len[lo:hi]
        firsts = np.repeat(q0[lo:hi] - (ends[lo:hi] - lengths - before), lengths)
        a, b, d2 = _near_pairs(by_cell, np.repeat(p[lo:hi], lengths),
                               firsts + np.arange(firsts.size), r2)
        count += d2.size
        _check_graph_size(count, n, mu_radius)
        i, j = order[a], order[b]
        kept.append((np.minimum(i, j), np.maximum(i, j), d2))
        lo = hi
    return tuple(np.concatenate(parts) for parts in zip(*kept))


def _near_pairs(
    points: np.ndarray, p: np.ndarray, q: np.ndarray, r2: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The candidate pairs (p, q) whose ``_sq_distance`` is at most r2,
    with those distances."""
    d2 = _sq_distance(points[p], points[q])
    near = np.flatnonzero(d2 <= r2)
    return p[near], q[near], d2[near]


def _check_graph_size(count: int, n: int, mu_radius: float) -> None:
    if count > _MAX_GRAPH_PAIRS:
        raise RadiusGraphError(
            f"the radius graph of a {n}-point block at mu_radius={mu_radius} "
            f"keeps {count} pairs, more than the limit of {_MAX_GRAPH_PAIRS}")


@lru_cache(maxsize=64)
def _all_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i < j of n points, in lexicographic order, read-only."""
    pairs = np.triu_indices(n, 1)
    for half in pairs:
        half.flags.writeable = False
    return pairs


def _grid_rows(
    points: np.ndarray, mu_radius: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Candidate pairs of ``_radius_graph``'s grid, as rows.

    Returns the points in cell order (a stable sort, so index order within
    a cell) and, per row, a position p in that order and the run of
    positions q0, ..., q0 + len - 1 it is paired with: the later points of
    p's own cell, then all points of each neighbouring cell whose key is
    larger, so that each candidate pair appears once.
    """
    n = len(points)
    with np.errstate(invalid="ignore", over="ignore"):
        lo = points.min(axis=0)
        span = points.max(axis=0) - lo
    axes = np.argsort(-span, kind="stable")[:_GRID_AXES]
    side = (np.maximum(max(mu_radius, 2.0**-500), span[axes] / _GRID_CELLS)
            * (1 + 2.0**-20))
    # an infinite mu**2 keeps every pair, however far apart
    if (np.isfinite(_sq_radius(mu_radius)) and np.isfinite(points).all()
            and np.isfinite(side).all()):
        cells = np.floor((points[:, axes] - lo[axes]) / side).astype(np.int64)
        radix = cells.max(axis=0) + 3
    else:
        cells = np.zeros((n, 0), dtype=np.int64)
        radix = np.zeros(0, dtype=np.int64)
    # keys in mixed radix, each coordinate shifted by one so that a
    # neighbour one cell lower stays in range
    strides = np.cumprod(np.concatenate(([1], radix)))[:-1]
    key = (cells + 1) @ strides
    order = np.argsort(key, kind="stable")
    key = key[order]
    head = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    cell_keys = key[head]
    sizes = np.diff(np.append(head, n))
    # each cell with itself, then with its neighbours of larger key (half
    # of the 3^D - 1 offsets)
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=strides.size)),
                       dtype=np.int64) @ strides
    first, second = [np.arange(head.size)], [np.arange(head.size)]
    for delta in offsets[offsets > 0]:
        at = np.minimum(np.searchsorted(cell_keys, cell_keys + delta), head.size - 1)
        found = np.flatnonzero(cell_keys[at] == cell_keys + delta)
        first.append(found)
        second.append(at[found])
    first, second = np.concatenate(first), np.concatenate(second)
    # one row per point of each pair's first cell
    rows = sizes[first]
    pair = np.repeat(np.arange(first.size), rows)
    p = np.arange(pair.size) - np.repeat(np.cumsum(rows) - rows - head[first], rows)
    q0, q_len = head[second][pair], sizes[second][pair]
    own = np.flatnonzero(first[pair] == second[pair])
    q_len[own] -= p[own] + 1 - q0[own]
    q0[own] = p[own] + 1
    return order, p, q0, q_len


def neighbour_mask(points: np.ndarray, mu_radius: float) -> np.ndarray:
    """Boolean mask of points with another point within ``mu_radius``.

    The complement is the garbage set of ``regularized_kmeans``.  The mask
    is the set of endpoints of ``_radius_graph``: no b^2 distance pass, the
    same floats, and a block whose graph keeps more than
    ``_MAX_GRAPH_PAIRS`` pairs raises ``RadiusGraphError``.
    """
    u, v, _ = _radius_graph(points, mu_radius)
    has_neighbour = np.zeros(len(points), dtype=bool)
    has_neighbour[u] = True
    has_neighbour[v] = True
    return has_neighbour


def _radius_forest(
    points: np.ndarray, mu_radius: float, has_neighbour: np.ndarray
) -> np.ndarray:
    """Minimum spanning forest of the points ``has_neighbour`` marks, over
    their pairs within ``mu_radius``.

    Returns (f, 2) int64 point indices, one edge (i, j) with i < j a row,
    in increasing (squared length, i, j): the edges that Kruskal's
    algorithm takes over the pairs sorted that way, in that order.  The
    order is total, so the forest is unique.  Borůvka rounds over the
    ``_radius_graph`` of the marked points build it: each component takes
    its least edge, and the hook-and-jump ``_components`` of ``blocking``
    merges them.  With ``neighbour_mask``'s mask every marked point is in
    an edge.  It raises ``RadiusGraphError`` where that graph does.
    """
    idx = np.flatnonzero(has_neighbour)
    n = idx.size
    u, v, d2 = _radius_graph(np.asarray(points, dtype=np.float64)[idx], mu_radius)
    # the edges in the total order (a quick sort by length, then each run
    # of equal lengths by (i, j)), and the live edges' ranks in it
    order = np.argsort(d2)
    tie = np.flatnonzero(d2[order[1:]] == d2[order[:-1]])
    if tie.size:
        run = np.union1d(tie, tie + 1)
        order[run] = order[run][np.lexsort((v[order[run]], u[order[run]],
                                            d2[order[run]]))]
    u, v = u[order], v[order]
    rank = np.arange(u.size)
    # the live edges' components, each named by its least member
    cu, cv = u, v
    taken = []
    while rank.size:
        least = np.full(n, u.size)
        np.minimum.at(least, cu, rank)
        np.minimum.at(least, cv, rank)
        pick = np.flatnonzero((rank == least[cu]) | (rank == least[cv]))
        taken.append(rank[pick])
        merged = _components(n, cu[pick], cv[pick])
        cu, cv = merged[cu], merged[cv]
        live = np.flatnonzero(cu != cv)
        rank, cu, cv = rank[live], cu[live], cv[live]
    rank = np.sort(np.concatenate(taken)) if taken else rank
    return np.column_stack((idx[u[rank]], idx[v[rank]]))


class ClusteringError(ValueError):
    """Infeasible clustering request (e.g. more clusters than points)."""


class RadiusGraphError(ClusteringError):
    """A block's radius graph keeps more pairs than ``_MAX_GRAPH_PAIRS``."""


@dataclass(frozen=True, eq=False)
class Clustering:
    """One partition of the points 0..n-1 of an instance, as a label array.

    ``labels[i]`` is point i's cluster in 0..k-1, and no cluster is empty.
    A garbage point carries its own negative label: the g garbage points
    hold -1, -2, ..., -g, in index order when built by
    ``regularized_kmeans``.  Garbage points behave as singleton clusters, so
    two points are in the same cluster when they share a non-negative
    label.  ``k`` is the number of clusters.
    """

    labels: np.ndarray

    def __post_init__(self) -> None:
        lab = np.asarray(self.labels, dtype=np.int64)
        if lab.ndim != 1:
            raise ClusteringError("labels must be a one-dimensional array")
        n_garbage = int(np.count_nonzero(lab < 0))
        k = int(lab.max(initial=-1)) + 1
        bad = "labels must be clusters 0..k-1 and garbage -1..-g, none empty"
        if k + n_garbage > lab.size or lab.min(initial=0) < -n_garbage:
            raise ClusteringError(bad)
        # slot of each label among the k + g groups: clusters, then garbage
        seen = np.zeros(k + n_garbage, dtype=bool)
        seen[np.where(lab >= 0, lab, k - 1 - lab)] = True
        if not seen.all():
            raise ClusteringError(bad)
        object.__setattr__(self, "labels", lab)
        object.__setattr__(self, "k", k)

    @property
    def n(self) -> int:
        return self.labels.size


def kmeans_cost(points: np.ndarray, labels: np.ndarray) -> float:
    """Sum of squared distances to the assigned cluster centroids."""
    cost = 0.0
    for lab in np.unique(labels):
        sub = points[labels == lab]
        cost += float(((sub - sub.mean(axis=0)) ** 2).sum())
    return cost


@lru_cache(maxsize=64)
def _assignments(n: int, k: int) -> np.ndarray:
    """All canonical assignments of n points into at most k clusters.

    Rows are restricted growth strings: point 0 is in cluster 0 and each
    point may open at most one new cluster, so every set partition appears
    exactly once.
    """
    rows: list[list[int]] = []

    def grow(prefix: list[int], used: int) -> None:
        if len(prefix) == n:
            rows.append(prefix.copy())
            return
        for lab in range(min(used + 1, k)):
            prefix.append(lab)
            grow(prefix, max(used, lab + 1))
            prefix.pop()

    grow([], 0)
    return np.array(rows, dtype=np.int64)


def brute_force_kmeans(points: np.ndarray, k: int) -> np.ndarray:
    """Globally optimal labels by enumerating every partition into <= k sets."""
    n = len(points)
    if n == 0 or k < 1:
        raise ClusteringError("brute force needs points and k >= 1")
    assign = _assignments(n, k)
    # centred, so the expansion below does not cancel far from the origin
    points = points - points.mean(axis=0)
    onehot = np.eye(k)[assign]                       # (P, n, k)
    counts = onehot.sum(axis=1)                      # (P, k)
    sums = np.einsum("pnk,nd->pkd", onehot, points)  # (P, k, d)
    # an empty slot has zero sums and adds nothing to the cost
    sq = np.divide((sums**2).sum(axis=2), counts,
                   out=np.zeros_like(counts), where=counts > 0)
    total = float((points**2).sum())
    costs = total - sq.sum(axis=1)
    return assign[int(np.argmin(costs))]


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        probs = d2 / d2.sum() if d2.sum() > 0 else np.full(n, 1.0 / n)
        centers[j] = points[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def lloyd_kmeans(
    points: np.ndarray,
    k: int,
    seed: int,
    restarts: int = 32,
    max_iter: int = 100,
) -> np.ndarray:
    """Best labels over ``restarts`` k-means++ seeded Lloyd runs.

    Every restart is seeded first, in order, from one generator, and the
    restarts then iterate together, a chunk of about 2^20 (restart, point,
    cluster) distances at a time, until each one's labels settle or
    ``max_iter`` iterations pass.  The restart with the least within-cluster
    squared distance wins (the first on a tie), and its clusters are
    numbered 0..k'-1 in order of first occurrence, so restarts that reach
    the same partition return the same labels.  A ``k`` above the distinct
    points raises ``ClusteringError``, so identical points always share a
    cluster.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if k < 1 or restarts < 1 or max_iter < 1:
        raise ClusteringError(
            f"k, restarts and max_iter must be >= 1, got {k}, {restarts}, {max_iter}")
    if k > n:
        raise ClusteringError(f"k={k} exceeds point count {n}")
    if k == 1:
        return np.zeros(n, dtype=np.int64)
    # more clusters than distinct points would put a copy in a cluster of
    # its own
    distinct = int(_factorize_features(points).max()) + 1
    if k > distinct:
        raise ClusteringError(f"k={k} exceeds the {distinct} distinct points")
    rng = np.random.default_rng(seed)
    starts = np.stack([_kmeanspp_init(points, k, rng) for _ in range(restarts)])
    # the scoring gathers a (restarts, n, d) array of centroids
    chunk = max(1, _MASK_CHUNK // (n * max(k, points.shape[1])))
    best_labels, best_cost = None, np.inf
    for lo in range(0, restarts, chunk):
        labels = _lloyd_restarts(points, starts[lo:lo + chunk], max_iter)
        means, _ = _centroids(points, labels, k)
        rows = np.arange(len(labels))[:, None]
        costs = _sq_distance(points, means[rows, labels]).sum(axis=1)
        win = int(np.argmin(costs))
        if costs[win] < best_cost:
            best_cost, best_labels = costs[win], labels[win]
    # number the clusters by first occurrence
    return _factorize_objects(best_labels)[0]


def _centroids(
    points: np.ndarray, labels: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Mean point and size of each cluster of each (restarts, n) label row.

    Returns (restarts, k, d) means, zero for an empty cluster, and
    (restarts, k) counts.  Each sum runs over the points in index order.
    """
    r, n = labels.shape
    flat = (labels + k * np.arange(r)[:, None]).ravel()
    counts = np.bincount(flat, minlength=r * k).reshape(r, k)
    sums = np.empty((r * k, points.shape[1]))
    for j, x in enumerate(points.T):
        sums[:, j] = np.bincount(flat, weights=np.tile(x, r), minlength=r * k)
    return sums.reshape(r, k, -1) / np.maximum(counts, 1)[..., None], counts


def _lloyd_restarts(
    points: np.ndarray, centers: np.ndarray, max_iter: int
) -> np.ndarray:
    """Lloyd labels from each of the (restarts, k, d) starting ``centers``.

    A restart leaves the active set once its labels stop changing.  An empty
    cluster is re-seeded on the point farthest from every centre, one
    cluster after another as the per-restart loop always did.
    """
    r, k, _ = centers.shape
    n = len(points)
    centers = centers.copy()
    # the points with each coordinate's column contiguous, for the kernel
    by_column = np.asfortranarray(points)
    labels = np.zeros((r, n), dtype=np.int64)
    # (restart, point) buffers, reused by every iteration's active rows
    nearest_buf, d2_buf, diff_buf = np.empty((3, r, n))
    closer_buf = np.empty((r, n), dtype=bool)
    active = np.arange(r)
    for _ in range(max_iter):
        at = centers[active]
        live = active.size
        nearest, d2, diff, closer = (nearest_buf[:live], d2_buf[:live],
                                     diff_buf[:live], closer_buf[:live])
        new = np.zeros((live, n), dtype=np.int64)
        # each centre's squared distances, kept when strictly nearer than
        # every earlier centre's, so ties go to the first centre as with
        # argmin
        for c in range(k):
            _sq_distance(by_column, at[:, c, None, :], out=d2 if c else nearest,
                         diff=diff)
            if c:
                np.less(d2, nearest, out=closer)
                np.minimum(nearest, d2, out=nearest)
                # every label so far is below c
                np.maximum(new, closer * c, out=new)
        means, counts = _centroids(points, new, k)
        # a restart with an empty cluster takes the per-restart update, which
        # re-seeds each empty cluster on the farthest point
        for a in np.flatnonzero((counts == 0).any(axis=1)):
            for j in range(k):
                members = points[new[a] == j]
                if len(members):
                    means[a, j] = members.mean(axis=0)
                else:
                    far = int(nearest[a].argmax())
                    means[a, j] = points[far]
                    new[a, far] = j
        centers[active] = means
        moving = (new != labels[active]).any(axis=1)
        labels[active[moving]] = new[moving]
        active = active[moving]
        if active.size == 0:
            break
    return labels


def regularized_kmeans(
    points: np.ndarray,
    k: int,
    mu_radius: float,
    seed: int = 0,
    *,
    has_neighbour: np.ndarray | None = None,
) -> Clustering:
    """Cluster an instance into k groups plus a garbage set.

    Points whose nearest neighbour is farther than ``mu_radius`` go to
    garbage; the remaining points are k-clustered (exactly when at most
    ``_BRUTE_FORCE_CAP`` = 9 remain, by restarted Lloyd otherwise).  ``k`` may be
    zero only when the prefilter removes everything, and a ``k`` above the
    distinct remaining points raises ``ClusteringError``, so identical
    points always share a cluster.  ``has_neighbour`` is
    ``neighbour_mask(points, mu_radius)`` when a caller clustering the same
    points at several k has it already; it is computed when omitted.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if has_neighbour is None:
        has_neighbour = neighbour_mask(points, mu_radius)
    elif np.asarray(has_neighbour).dtype != bool or np.shape(has_neighbour) != (n,):
        raise ClusteringError(f"has_neighbour must be a bool array of length {n}")
    labels = np.empty(n, dtype=np.int64)
    keep = np.flatnonzero(has_neighbour)
    labels[~has_neighbour] = -np.arange(1, n - keep.size + 1)
    if keep.size == 0:
        if n and k != 0:
            raise ClusteringError(
                f"k={k} requested but the prefilter left no points to cluster"
            )
        return Clustering(labels)
    if k < 1:
        raise ClusteringError("k must be >= 1 when clusterable points remain")
    if k > keep.size:
        raise ClusteringError(f"k={k} exceeds remaining point count {keep.size}")
    sub = points[keep]
    # more clusters than distinct points would put a copy in a cluster of
    # its own; one cluster always fits
    if k > 1:
        distinct = int(_factorize_features(sub).max()) + 1
        if k > distinct:
            raise ClusteringError(
                f"k={k} exceeds the {distinct} distinct remaining points")
    if keep.size <= _BRUTE_FORCE_CAP:
        # restricted growth strings: already labelled 0..k'-1
        labels[keep] = brute_force_kmeans(sub, k)
    else:
        # numbered by first occurrence: already labelled 0..k'-1
        labels[keep] = lloyd_kmeans(sub, k, seed=seed)
    return Clustering(labels)
