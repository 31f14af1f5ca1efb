"""K-means with an explicit garbage cluster for isolated points.

A point with no neighbour within ``mu_radius`` cannot be a duplicate of
anything, so it is routed to the garbage set before clustering; the rest are
split into k clusters minimizing the usual within-cluster squared distance.
Tiny instances are solved exactly by enumerating assignments; larger ones use
Lloyd iterations from many k-means++ seedings, all restarts iterated together
on contiguous (restarts, n) arrays, one centre at a time, in buffers reused
across iterations.  Squared distances are summed in one kernel,
``_sq_distance``: direct differences, one coordinate at a time and in
order, into buffers the caller may reuse.  The neighbour mask, the radius
forest, Lloyd and its restart scoring, the pair-block radius test of
``lsh_pipeline`` and the EM of ``gmm`` all call it; only the k-means++
seeding and the brute-force references sum their own.  The result is one
label array: clusters are 0..k-1 and each garbage point has its own negative
label, so "same cluster" is "same non-negative label".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dataset import _factorize_objects

__all__ = [
    "Clustering",
    "ClusteringError",
    "brute_force_kmeans",
    "kmeans_cost",
    "lloyd_kmeans",
    "neighbour_mask",
    "regularized_kmeans",
]


# (row, point) distances that one step of neighbour_mask computes, and
# (restart, point, cluster or coordinate) entries that one chunk of
# lloyd_kmeans spans
_MASK_CHUNK = 1 << 20
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


def neighbour_mask(points: np.ndarray, mu_radius: float) -> np.ndarray:
    """Boolean mask of points with another point within ``mu_radius``.

    The complement is the garbage set of ``regularized_kmeans``.  Distances
    are computed a block of rows at a time, so a call holds about 2 x 2^20
    float64 temporaries however many points there are.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ClusteringError("points must be an (n, d) array")
    if not mu_radius >= 0:
        raise ClusteringError(f"mu_radius must be non-negative, got {mu_radius}")
    n = len(points)
    has_neighbour = np.empty(n, dtype=bool)
    rows = max(1, _MASK_CHUNK // max(n, 1))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        d2 = _sq_distance(points[lo:hi, None, :], points[None, :, :])
        d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        has_neighbour[lo:hi] = d2.min(axis=1) <= mu_radius**2
    return has_neighbour


def _radius_forest(
    points: np.ndarray, mu_radius: float, has_neighbour: np.ndarray
) -> np.ndarray:
    """Minimum spanning forest of the points ``has_neighbour`` marks, over
    the pairs within ``mu_radius``.

    Returns (f, 2) int64 point indices, one edge a row, shortest first;
    equal lengths keep the order in which Prim's algorithm adds them.  Each
    step takes one row of the floats ``neighbour_mask`` computes, so with
    its mask every marked point is in an edge, and memory stays O(n).
    """
    idx = np.flatnonzero(has_neighbour)
    columns = np.asarray(points, dtype=np.float64)[idx].T.copy()
    r2 = mu_radius**2
    # the first `left` entries are the points outside the forest, each with
    # its squared distance to the nearest forest point within the radius
    # (just above the radius while there is none) and that point's index
    left = idx.size
    best = np.full(left, np.nextafter(r2, np.inf))
    near = np.zeros(left, dtype=np.int64)
    d2_buf, diff_buf = np.empty((2, left))
    closer_buf = np.empty(left, dtype=bool)
    edges, lengths = [], []
    v = 0  # the entry that joins the forest next
    while left:
        left -= 1
        # entry v joins, and the last entry outside takes its place
        x = columns[:, v].copy()
        joined = idx[v]
        columns[:, v] = columns[:, left]
        best[v], near[v], idx[v] = best[left], near[left], idx[left]
        d2, closer, nearest = d2_buf[:left], closer_buf[:left], best[:left]
        _sq_distance(columns[:, :left].T, x, out=d2, diff=diff_buf[:left])
        np.less(d2, nearest, out=closer)
        np.minimum(nearest, d2, out=nearest)
        np.putmask(near[:left], closer, joined)
        if left:
            v = int(nearest.argmin())
            # a point beyond the radius of the forest starts a new tree
            if nearest[v] <= r2:
                edges.append((int(near[v]), int(idx[v])))
                lengths.append(float(nearest[v]))
    order = np.argsort(lengths, kind="stable")
    return np.array(edges, dtype=np.int64).reshape(-1, 2)[order]


class ClusteringError(ValueError):
    """Infeasible clustering request (e.g. more clusters than points)."""


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
    the same partition return the same labels.
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
    zero only when the prefilter removes everything.  ``has_neighbour`` is
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
    if keep.size <= _BRUTE_FORCE_CAP:
        # restricted growth strings: already labelled 0..k'-1
        labels[keep] = brute_force_kmeans(sub, k)
    else:
        # numbered by first occurrence: already labelled 0..k'-1
        labels[keep] = lloyd_kmeans(sub, k, seed=seed)
    return Clustering(labels)
