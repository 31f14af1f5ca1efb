"""Clustering core: brute-force oracle, Lloyd equivalence, garbage prefilter."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entity_sampler import clustering
from entity_sampler.clustering import (
    Clustering,
    ClusteringError,
    brute_force_kmeans,
    kmeans_cost,
    lloyd_kmeans,
    neighbour_mask,
    regularized_kmeans,
)
from entity_sampler.synth import planted_clusters


def line_points():
    return np.array([[0.0], [1.0], [10.0], [11.0]])


def test_brute_force_on_hand_instance():
    labels = brute_force_kmeans(line_points(), 2)
    assert labels[0] == labels[1] != labels[2]
    assert labels[2] == labels[3]
    assert kmeans_cost(line_points(), labels) == pytest.approx(1.0)


def test_brute_force_is_exact_far_from_the_origin():
    # the cost expansion runs on centred points, so it does not cancel
    # around 1e6: two points a thousandth apart split, and 4 points within
    # 0.05 of a centre of magnitude 1e6 get an optimal labelling
    pair = np.array([[1e6, 0.0], [1e6 + 1e-3, 0.0]])
    assert brute_force_kmeans(pair, 2).tolist() == [0, 1]
    rng = np.random.default_rng(3)
    labellings = [np.array(lab) for lab in itertools.product((0, 1), repeat=4)]
    for _ in range(300):
        pts = 1e6 * rng.standard_normal(2) + rng.uniform(-0.05, 0.05, (4, 2))
        best = min(kmeans_cost(pts, lab) for lab in labellings)
        assert kmeans_cost(pts, brute_force_kmeans(pts, 2)) <= best * (1 + 1e-6)


def test_kmeans_cost_hand_value():
    labels = np.array([0, 0, 1, 1])
    assert kmeans_cost(line_points(), labels) == pytest.approx(1.0)
    worse = np.array([0, 1, 0, 1])
    assert kmeans_cost(line_points(), worse) == pytest.approx(100.0)


def test_default_solver_is_exact_on_small_instances():
    # at or below the brute-force cap the solver enumerates, so equality
    # with the brute-force optimum is structural, not statistical
    rng = np.random.default_rng(99)
    for t in range(60):
        n = int(rng.integers(2, 10))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(n, 4) + 1))
        pts = rng.normal(0, 1, (n, d))
        c_brute = kmeans_cost(pts, brute_force_kmeans(pts, k))
        cl = regularized_kmeans(pts, k, mu_radius=1e9, seed=t)
        assert kmeans_cost(pts, cl.labels) == pytest.approx(c_brute, rel=1e-9)


def test_restarted_lloyd_usually_finds_the_optimum(monkeypatch):
    # the > cap solver path; restarts make misses rare but not impossible
    monkeypatch.setattr(clustering, "_BRUTE_FORCE_CAP", 0)
    rng = np.random.default_rng(99)
    hits = 0
    for t in range(60):
        n = int(rng.integers(2, 10))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(n, 4) + 1))
        pts = rng.normal(0, 1, (n, d))
        c_brute = kmeans_cost(pts, brute_force_kmeans(pts, k))
        cl = regularized_kmeans(pts, k, mu_radius=1e9, seed=t)
        hits += bool(np.isclose(kmeans_cost(pts, cl.labels), c_brute, rtol=1e-9))
    assert hits >= 57  # observed 59/60 on this fixed stream


def scalar_lloyd_run(points, centers, max_iter):
    """One restart's Lloyd loop from ``centers``, as it was, with argmin."""
    labels = np.zeros(len(points), dtype=np.int64)
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        for j in range(len(centers)):
            members = points[new_labels == j]
            if len(members):
                centers[j] = members.mean(axis=0)
            else:
                far = int(d2.min(axis=1).argmax())
                centers[j] = points[far]
                new_labels[far] = j
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels


def scalar_lloyd(points, k, seed, restarts=32, max_iter=100):
    """The per-restart Lloyd loop that ``lloyd_kmeans`` batches, as it was."""
    rng = np.random.default_rng(seed)
    best_labels = None
    best_cost = np.inf
    for _ in range(restarts):
        centers = clustering._kmeanspp_init(points, k, rng)
        labels = scalar_lloyd_run(points, centers, max_iter)
        cost = kmeans_cost(points, labels)
        if cost < best_cost:
            best_cost, best_labels = cost, labels.copy()
    return best_labels


def first_occurrence(labels):
    """Labels renumbered 0, 1, ... in order of first appearance."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse]


def lloyd_cases():
    for seed in (4100, 4101, 4102):
        pts = planted_clusters(40, 50, 10.0, 2, seed=seed, n_singletons=5).features
        for k in range(1, 5):
            yield pytest.param(pts, k, seed, id=f"planted{seed}-k{k}")
            yield pytest.param(pts + 1e6, k, seed, id=f"planted{seed}+1e6-k{k}")
    # exact copies at k = their distinct count; a k above it raises
    # (test_lloyd_keeps_copies_together), and the re-seeding of an empty
    # cluster is checked on duplicated starting centres
    # (test_lloyd_ties_go_to_the_first_centre)
    two = np.repeat(np.array([[0.0, 0.0], [3.0, 1.0]]), 10, axis=0)
    for seed in range(3):
        yield pytest.param(two, 2, seed, id=f"two-points-{seed}")


@pytest.mark.parametrize("pts,k,seed", list(lloyd_cases()))
def test_batched_lloyd_matches_the_per_restart_loop(pts, k, seed):
    got = lloyd_kmeans(pts, k, seed)
    assert got.dtype == np.int64
    assert got.tolist() == first_occurrence(scalar_lloyd(pts, k, seed)).tolist()


def test_lloyd_ties_go_to_the_first_centre():
    # equal starting centres tie on every point: the lower cluster index
    # takes them all, as argmin does, and the other is re-seeded
    pts = planted_clusters(3, 6, 4.0, 2, seed=2, n_singletons=2).features
    starts = np.stack([pts[[0, 0, 7]], pts[[7, 0, 0]], pts[[0, 7, 0]],
                       pts[[4, 4, 4]], pts[[3, 9, 3]]])
    for max_iter in (1, 2, 100):
        got = clustering._lloyd_restarts(pts, starts, max_iter)
        want = [scalar_lloyd_run(pts, c.copy(), max_iter) for c in starts]
        assert got.tolist() == np.array(want).tolist()


def test_lloyd_chunks_keep_the_restart_order(monkeypatch):
    # one restart per chunk picks the same winner as one chunk of all
    pts = planted_clusters(6, 5, 3.0, 2, seed=7).features
    whole = lloyd_kmeans(pts, 4, seed=11)
    monkeypatch.setattr(clustering, "_MASK_CHUNK", 1)
    assert lloyd_kmeans(pts, 4, seed=11).tolist() == whole.tolist()
    assert whole.tolist() == first_occurrence(scalar_lloyd(pts, 4, 11)).tolist()


def test_lloyd_memory_is_bounded():
    pts = np.random.default_rng(34).normal(0, 1, (20_000, 2))
    tracemalloc.start()
    try:
        lloyd_kmeans(pts, 4, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20  # all 32 restarts at once hold about 73 MB


@pytest.mark.parametrize("kwargs", [
    {"k": 0}, {"k": -1}, {"restarts": 0}, {"max_iter": 0}, {"k": 3, "max_iter": -2},
])
def test_lloyd_rejects_bad_arguments(kwargs):
    args = {"k": 2, "seed": 0, **kwargs}
    with pytest.raises(ClusteringError):
        lloyd_kmeans(line_points(), **args)


def test_lloyd_single_cluster_skips_seeding(monkeypatch):
    def no_seeding(*args):
        raise AssertionError("k = 1 needs no seeding")

    monkeypatch.setattr(clustering, "_kmeanspp_init", no_seeding)
    assert lloyd_kmeans(line_points(), 1, seed=0).tolist() == [0, 0, 0, 0]


def test_planted_two_cluster_recovery():
    for seed in range(5):
        data = planted_clusters(2, 50, separation=4.0, dim=2, seed=seed)
        cl = regularized_kmeans(data.features, 2, mu_radius=1.0, seed=seed)
        assert (cl.labels >= 0).all() and cl.k == 2
        got = cl.labels
        truth = data.entity_codes
        assert (got == truth).all() or (got == 1 - truth).all()


def test_singletons_routed_to_garbage():
    data = planted_clusters(2, 20, separation=4.0, dim=2, seed=3, n_singletons=3)
    cl = regularized_kmeans(data.features, 2, mu_radius=1.0, seed=0)
    garbage = np.flatnonzero(cl.labels < 0)
    assert garbage.size == 3
    assert set(garbage.tolist()) == {40, 41, 42}


def test_neighbour_mask_hand_case():
    pts = np.array([[0.0], [0.5], [5.0]])
    assert neighbour_mask(pts, 1.0).tolist() == [True, True, False]
    assert neighbour_mask(pts, 0.1).tolist() == [False, False, False]
    assert neighbour_mask(np.empty((0, 2)), 1.0).size == 0


def reference_graph(pts, mu_radius):
    """Every pair i < j whose squared distance, summed one coordinate at a
    time in order, is at most mu_radius**2 (infinite when the square
    overflows), in lexicographic order."""
    i, j = np.triu_indices(len(pts), 1)
    d2 = loop_sq_distance(pts[i], pts[j])
    try:
        r2 = mu_radius**2
    except OverflowError:
        r2 = np.inf
    near = d2 <= r2
    return i[near], j[near], d2[near]


def reference_mask(pts, mu_radius):
    i, j, _ = reference_graph(pts, mu_radius)
    return np.isin(np.arange(len(pts)), np.concatenate((i, j)))


def mask_cases():
    rng = np.random.default_rng(31)
    for d in range(1, 6):
        pts = rng.normal(0, 1, (40, d))
        pts[::7] = pts[1::7]  # exact duplicates
        yield pytest.param(pts, 0.3 * d, id=f"d{d}")
        yield pytest.param(pts, 0.0, id=f"d{d}-radius0")
    far = 1e6 + rng.normal(0, 1e-3, (30, 3))
    yield pytest.param(far, 1e-3, id="around-1e6")
    yield pytest.param(np.array([[2.0, 3.0]]), 5.0, id="single")
    # pairs exactly mu apart: along an axis, and on 3-4-5 and 2-3-6
    # diagonals that cross cell corners; at mu = 0.1 the steps round
    for d, mu in ((1, 5.0), (2, 5.0), (3, 7.0), (2, 0.1)):
        lattice = rng.integers(0, 12, (60, d)) * (mu / (5.0 if d < 3 else 7.0))
        yield pytest.param(lattice, mu, id=f"lattice-d{d}-mu{mu:g}")
    yield pytest.param(1e6 + rng.integers(0, 8, (50, 2)) * 0.25, 0.25,
                       id="lattice-around-1e6")
    yield pytest.param(1e9 + rng.normal(0, 1e-3, (40, 2)), 1e-3, id="around-1e9")
    yield pytest.param(1e9 + rng.integers(0, 8, (50, 3)) * 1.0, 1.0,
                       id="lattice-around-1e9")
    # most pairs are exact duplicates; squares of 1e-170 underflow to zero
    dups = rng.integers(0, 4, (40, 2)) * 1.0
    dups[:3, 0] = [1e-170, 2e-170, -1e-170]
    yield pytest.param(dups, 0.0, id="duplicates-radius0")
    yield pytest.param(np.array([[0.0], [1e-170], [3e-170], [5e-170]]), 0.0,
                       id="underflow-radius0")
    yield pytest.param(rng.normal(0, 1e3, (6, 2)), np.inf, id="radius-inf")
    # mu**2 overflows a float: every pair is within, as at mu = inf
    yield pytest.param(rng.normal(0, 1e3, (6, 2)), 1e200, id="radius-square-overflows")
    pts = rng.normal(0, 1, (60, 12))
    pts[::9] = pts[1::9]
    yield pytest.param(pts, 3.5, id="d12")
    # a span of 1e9 at mu = 1e-3 takes coarser cells than mu
    wide = np.concatenate((rng.uniform(0, 1e9, (20, 1)), np.arange(20)[:, None] * 1e-3))
    yield pytest.param(wide, 1e-3, id="wide-span")
    yield pytest.param(np.empty((0, 2)), 1.0, id="empty")


@pytest.mark.parametrize("pts,radius", list(mask_cases()))
@pytest.mark.parametrize("rows", [1, 7, None])
def test_neighbour_mask_matches_full_matrix(monkeypatch, pts, radius, rows):
    # steps of a few candidates (uneven last step) as well as the default
    if rows is not None:
        monkeypatch.setattr(clustering, "_MASK_CHUNK", rows * len(pts))
    got = neighbour_mask(pts, radius)
    assert got.dtype == bool
    assert got.tolist() == reference_mask(pts, radius).tolist()


@pytest.mark.parametrize("pts,radius", list(mask_cases()))
@pytest.mark.parametrize("rows", [1, 7, None])
def test_radius_graph_is_every_pair_within_the_radius(monkeypatch, pts, radius, rows):
    # the small steps take the grid path, the default all pairs of a small
    # block
    if rows is not None:
        monkeypatch.setattr(clustering, "_MASK_CHUNK", rows * len(pts))
    u, v, d2 = clustering._radius_graph(pts, radius)
    assert u.dtype == v.dtype == np.int64 and d2.dtype == np.float64
    assert (u < v).all()
    want_u, want_v, want_d2 = reference_graph(pts, radius)
    order = np.lexsort((v, u))
    assert u[order].tolist() == want_u.tolist()
    assert v[order].tolist() == want_v.tolist()
    assert d2[order].tobytes() == want_d2.tobytes()


def test_dense_radius_graph_raises_a_typed_error(monkeypatch):
    pts = np.random.default_rng(38).normal(0, 0.1, (30, 2))  # all 435 pairs
    for cap in (435, 0):  # all pairs at once, then grid cells
        monkeypatch.setattr(clustering, "_ALL_PAIRS_CAP", cap)
        monkeypatch.setattr(clustering, "_MAX_GRAPH_PAIRS", 435)
        assert clustering._radius_graph(pts, 1.0)[0].size == 435
        monkeypatch.setattr(clustering, "_MAX_GRAPH_PAIRS", 434)
        for build in (lambda: clustering._radius_graph(pts, 1.0),
                      lambda: neighbour_mask(pts, 1.0),
                      lambda: clustering._radius_forest(pts, 1.0, np.ones(30, bool))):
            with pytest.raises(clustering.RadiusGraphError) as err:
                build()
            assert isinstance(err.value, ClusteringError)
            assert "30-point" in str(err.value) and "mu_radius=1.0" in str(err.value)
            assert "keeps 435 pairs" in str(err.value)


def chunked_quadratic_mask(pts, mu_radius, rows=64):
    has_neighbour = np.empty(len(pts), dtype=bool)
    for lo in range(0, len(pts), rows):
        d2 = loop_sq_distance(pts[lo:lo + rows, None, :], pts[None, :, :])
        d2[np.arange(d2.shape[0]), np.arange(lo, lo + d2.shape[0])] = np.inf
        has_neighbour[lo:lo + rows] = d2.min(axis=1) <= mu_radius**2
    return has_neighbour


def test_radius_graph_scales_to_a_planted_block_of_20005_points():
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    # one block of 400 planted entities of 50 records and 5 singletons
    pts = planted_clusters(400, 50, 10.0, 2, seed=39, n_singletons=5).features
    n = len(pts)
    assert n == 20_005
    mask = neighbour_mask(pts, 1.0)
    assert mask.tolist() == chunked_quadratic_mask(pts, 1.0).tolist()
    u, v, _ = clustering._radius_graph(pts, 1.0)
    edges = clustering._radius_forest(pts, 1.0, mask)
    assert np.array_equal(np.isin(np.arange(n), edges), mask)

    def components(a, b):
        return connected_components(coo_matrix((np.ones(a.size), (a, b)), shape=(n, n)),
                                    directed=False)[0]

    # a forest over the marked points with one tree per graph component:
    # its edge count is the marked points less the graph's components
    graph_parts = components(u, v) - (n - int(mask.sum()))
    assert len(edges) == int(mask.sum()) - graph_parts
    assert components(edges[:, 0], edges[:, 1]) == n - len(edges)  # no cycle


def test_neighbour_mask_spans_steps_at_the_default_size():
    # a dense square whose candidate pairs fill several default steps, and
    # sparse points around it
    rng = np.random.default_rng(32)
    pts = np.vstack((rng.uniform(0, 1.5, (1400, 2)), rng.uniform(0, 1000, (100, 2))))
    candidates = clustering._grid_rows(pts, 0.3)[3].sum()
    assert candidates > 2 * (clustering._MASK_CHUNK // 12)  # a step at d = 2
    want = reference_mask(pts, 0.3)
    assert 0 < want.sum() < len(pts)
    assert neighbour_mask(pts, 0.3).tolist() == want.tolist()


def test_neighbour_mask_memory_is_bounded():
    pts = np.random.default_rng(33).normal(0, 1, (3000, 2))
    tracemalloc.start()
    try:
        neighbour_mask(pts, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20  # a 3000 x 3000 x 2 difference block is 144 MB


def test_neighbour_mask_rejects_a_nan_radius():
    pts = np.array([[0.0], [0.5]])
    with pytest.raises(ClusteringError):
        neighbour_mask(pts, float("nan"))
    with pytest.raises(ClusteringError):
        neighbour_mask(pts, -1.0)
    assert neighbour_mask(pts, float("inf")).tolist() == [True, True]


def test_given_neighbour_mask_is_used_and_validated():
    data = planted_clusters(2, 20, separation=4.0, dim=2, seed=3, n_singletons=3)
    mask = neighbour_mask(data.features, 1.0)
    passed = regularized_kmeans(data.features, 2, 1.0, seed=0, has_neighbour=mask)
    computed = regularized_kmeans(data.features, 2, 1.0, seed=0)
    assert passed.labels.tolist() == computed.labels.tolist()
    for bad in (mask[:-1], mask.astype(np.int64), mask.tolist()[:-1]):
        with pytest.raises(ClusteringError):
            regularized_kmeans(data.features, 2, 1.0, seed=0, has_neighbour=bad)


def loop_sq_distance(x, y):
    """The kernel's contract: (x_j - y_j)**2 summed over j in order."""
    d2 = np.zeros(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]))
    for j in range(x.shape[-1]):
        d2 = d2 + (x[..., j] - y[..., j]) ** 2
    return d2


def kernel_operands(pts, rng):
    """(x, y) of each shape the kernel's callers pass."""
    n, d = pts.shape
    by_column = np.asfortranarray(pts)
    centres = 1e6 + rng.normal(0.0, 5.0, (6, 3, d))
    means = 1e6 + rng.normal(0.0, 5.0, (4, d))
    yield "row block against all points", pts[5:17, None, :], pts[None, :, :]
    yield "all points against one point", by_column, pts[7]
    yield "restart centres against a column", by_column, centres[:, 1, None, :]
    yield "means against a column", pts, means[:, None, :]


@pytest.mark.parametrize("d", [1, 3, 8, 12])
def test_sq_distance_sums_each_coordinate_in_order(d):
    # around 1e6 a reordered or expanded sum moves the last bits; at d >= 8
    # numpy's .sum(axis=-1) adds pairwise, so the loop is the reference
    rng = np.random.default_rng(d)
    pts = 1e6 + rng.normal(0.0, 5.0, (40, d))
    for name, x, y in kernel_operands(pts, rng):
        want = loop_sq_distance(x, y)
        assert clustering._sq_distance(x, y).tobytes() == want.tobytes(), name
        out, diff = np.full((2,) + want.shape, np.nan)
        got = clustering._sq_distance(x, y, out=out, diff=diff)
        assert got is out, name
        assert out.tobytes() == want.tobytes(), name


def kruskal_forest(pts, mu_radius):
    """Minimum spanning forest of the pairs within ``mu_radius``, by Kruskal
    over every pair i < j in (squared length, i, j) order (a stable sort of
    the lexicographic pairs): its edges in the order taken, their squared
    lengths and each point's component."""
    n = len(pts)
    d2 = clustering._sq_distance(pts[:, None, :], pts[None, :, :])
    i, j = np.triu_indices(n, 1)
    w = d2[i, j]
    comp = list(range(n))
    edges, lengths = [], []
    for t in np.argsort(w, kind="stable"):
        a, b = comp[i[t]], comp[j[t]]
        if w[t] <= mu_radius**2 and a != b:
            comp = [a if c == b else c for c in comp]
            edges.append([int(i[t]), int(j[t])])
            lengths.append(w[t])
    return edges, lengths, comp


def forest_cases():
    rng = np.random.default_rng(36)
    for d in (1, 2, 3, 8):
        width = 40 / d
        centres = rng.uniform(0, width, (12, d))
        pts = np.repeat(centres, 5, axis=0) + rng.normal(0, 0.4 / np.sqrt(d), (60, d))
        pts = np.vstack([pts, rng.uniform(0, width, (6, d))])
        pts[::9] = pts[1::9]  # exact duplicates: zero-length edges
        for scale in (1.0, 1e6):
            yield pytest.param(pts + scale - 1.0, d, id=f"d{d}-at{scale:g}")


@pytest.mark.parametrize("pts,d", list(forest_cases()))
def test_radius_forest_is_a_minimum_spanning_forest(pts, d):
    mask = neighbour_mask(pts, 1.0)
    edges = clustering._radius_forest(pts, 1.0, mask)
    assert edges.dtype == np.int64 and edges.shape[1] == 2
    # its endpoints are exactly the points the mask keeps
    assert np.array_equal(np.isin(np.arange(len(pts)), edges), mask)
    assert 0 < mask.sum() < len(pts)
    want_edges, want_lengths, want_comp = kruskal_forest(pts, 1.0)
    lengths = clustering._sq_distance(pts[edges[:, 0]], pts[edges[:, 1]])
    # the mask's floats, shortest first, and Kruskal's edges
    assert lengths.tolist() == sorted(want_lengths)
    assert edges.tolist() == want_edges
    comp = list(range(len(pts)))
    for a, b in edges.tolist():
        ca, cb = comp[a], comp[b]
        assert ca != cb  # no cycle
        comp = [ca if c == cb else c for c in comp]
    assert first_occurrence(comp).tolist() == first_occurrence(want_comp).tolist()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_radius_forest_is_kruskals_in_length_then_index_order(d, scale):
    # on a grid most lengths tie, so which edges the forest reports, and
    # in which order, depends on the tie rule: (squared length, i, j)
    pts = np.random.default_rng(d).integers(0, 6, (80, d)) * scale
    mask = neighbour_mask(pts, scale)
    got = clustering._radius_forest(pts, scale, mask)
    assert got.tolist() == kruskal_forest(pts, scale)[0]


def test_radius_forest_hand_case():
    pts = np.array([[0.0], [0.5], [5.0], [5.2], [9.0]])
    mask = neighbour_mask(pts, 1.0)
    edges = clustering._radius_forest(pts, 1.0, mask)
    assert edges.tolist() == [[2, 3], [0, 1]]
    none = clustering._radius_forest(pts, 0.1, neighbour_mask(pts, 0.1))
    assert none.shape == (0, 2)


def test_radius_forest_memory_is_bounded():
    pts = np.random.default_rng(35).uniform(0, 50, (5000, 2))
    mask = neighbour_mask(pts, 0.5)
    tracemalloc.start()
    try:
        edges = clustering._radius_forest(pts, 0.5, mask)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(edges) > 2000
    assert peak < 4 * 2**20  # a 5000 x 5000 bool matrix alone is 24 MB


def test_prefilter_postcondition():
    # garbage members have no neighbour within the radius, by construction
    rng = np.random.default_rng(5)
    for t in range(20):
        pts = rng.normal(0, 3, (int(rng.integers(2, 12)), 2))
        mask = neighbour_mask(pts, 1.0)
        k = max(1, int(mask.sum()) and 1)
        if mask.sum() == 0:
            cl = regularized_kmeans(pts, 0, mu_radius=1.0, seed=t)
        else:
            cl = regularized_kmeans(pts, 1, mu_radius=1.0, seed=t)
        d2 = ((pts[:, None] - pts[None]) ** 2).sum(-1)
        np.fill_diagonal(d2, np.inf)
        for g in np.flatnonzero(cl.labels < 0):
            assert d2[g].min() > 1.0


def test_garbage_labels_are_unique_negatives():
    pts = np.array([[0.0], [0.2], [50.0], [90.0]])
    cl = regularized_kmeans(pts, 1, mu_radius=1.0, seed=0)
    lab = cl.labels
    assert lab[0] == lab[1] == 0
    assert lab[2] < 0 and lab[3] < 0 and lab[2] != lab[3]
    assert lab[0] == lab[1] >= 0
    assert not lab[2] == lab[3] >= 0
    assert not lab[0] == lab[2] >= 0


def test_infeasible_requests_raise():
    pts = np.array([[0.0], [0.1]])
    with pytest.raises(ClusteringError):
        regularized_kmeans(pts, 3, mu_radius=1.0, seed=0)  # k > points
    with pytest.raises(ClusteringError):
        regularized_kmeans(pts, 0, mu_radius=1.0, seed=0)  # points remain
    far = np.array([[0.0], [100.0]])
    with pytest.raises(ClusteringError):
        regularized_kmeans(far, 1, mu_radius=1.0, seed=0)  # nothing remains
    with pytest.raises(ClusteringError):  # no Lloyd restart
        lloyd_kmeans(pts, 2, seed=0, restarts=0)


def test_empty_instance():
    cl = regularized_kmeans(np.empty((0, 2)), 0, mu_radius=1.0, seed=0)
    assert cl.n == 0 and cl.k == 0


def test_clustering_partition_validation():
    with pytest.raises(ClusteringError):
        Clustering(np.array([0, 2]))  # skipped label: cluster 1 is empty
    with pytest.raises(ClusteringError):
        Clustering(np.array([-1, -1]))  # repeated garbage label
    with pytest.raises(ClusteringError):
        Clustering(np.array([1]))  # empty cluster 0
    with pytest.raises(ClusteringError):
        Clustering(np.array([0, -2]))  # garbage label past -g
    with pytest.raises(ClusteringError):
        Clustering(np.array([0, 10**15]))  # refused before sizing k
    with pytest.raises(ClusteringError):
        Clustering(np.zeros((2, 2), dtype=np.int64))
    cl = Clustering(np.array([0, -1, 1, -2, 0]))
    assert (cl.k, cl.n) == (2, 5)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=10**6))
def test_solver_never_beats_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    pts = rng.normal(0, 1, (n, 2))
    k = int(rng.integers(1, n + 1))
    c_brute = kmeans_cost(pts, brute_force_kmeans(pts, k))
    # the Lloyd path; a fixture-free patch, as hypothesis reruns the body
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clustering, "_BRUTE_FORCE_CAP", 0)
        cl = regularized_kmeans(pts, k, mu_radius=1e9, seed=seed)
    assert kmeans_cost(pts, cl.labels) >= c_brute - 1e-12


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
       st.integers(min_value=1, max_value=6), st.booleans(),
       st.integers(min_value=0, max_value=10**6))
def test_identical_points_always_share_a_cluster(copies, k, lloyd, seed):
    # distinct points at least 1 apart, each repeated and shuffled; a point
    # without a copy has no neighbour within 0.5 and goes to garbage
    content = np.random.default_rng(seed).permutation(
        np.repeat(np.arange(len(copies)), copies))
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 1.0]])[content]
    distinct = sum(c > 1 for c in copies)
    with pytest.MonkeyPatch.context() as patch:
        if lloyd:
            patch.setattr(clustering, "_BRUTE_FORCE_CAP", 0)
        if k > distinct:
            with pytest.raises(ClusteringError):
                regularized_kmeans(pts, k, mu_radius=0.5, seed=seed)
            return
        labels = regularized_kmeans(pts, k, mu_radius=0.5, seed=seed).labels
    assert len(set(zip(content.tolist(), labels.tolist()))) == len(copies)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lloyd_keeps_copies_together(seed):
    # 3 distinct points, 4 copies each: k = 4 would split a point's
    # copies, so it raises
    content = np.tile(np.arange(3), 4)
    pts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])[content]
    with pytest.raises(ClusteringError, match="3 distinct"):
        lloyd_kmeans(pts, 4, seed=seed)
    labels = lloyd_kmeans(pts, 3, seed=seed)
    assert len(set(zip(content.tolist(), labels.tolist()))) == 3
