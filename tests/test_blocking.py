"""LSH banding: plan arithmetic, hash collision rates, co-blocking guarantee,
and signatures and blocks against per-record reference computations.

The band/row plan places r as the smallest integer strictly inside
(1 / (2 lambda), 1 / (-log(1 - lambda))) and s = ceil(2.2 log(1 / delta));
the three golden cases below were worked by hand from that rule.
"""

import dataclasses
import hashlib
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entity_sampler.blocking import (
    BandWidthError,
    Blocking,
    _affine_mod_mersenne,
    _band_links,
    _components,
    _fold_mersenne,
    LshConfig,
    choose_bands_rows,
    hyperplane_signatures,
    jaccard_distance,
    lsh_partition,
    minhash_signatures,
)
from entity_sampler.dataset import Dataset, DatasetError, TokenTable
from entity_sampler.synth import duplicate_text_corpus, planted_clusters, token_pair


def test_plan_golden_cases():
    # lambda=0.2: interval (2.5, 4.48), smallest integer 3; s = ceil(5.07)
    assert choose_bands_rows(0.2, 0.1) == (3, 6)
    # lambda=0.1: interval (5.0, 9.49) is open, so 6 not 5
    assert choose_bands_rows(0.1, 0.05) == (6, 7)
    assert choose_bands_rows(0.05, 0.1) == (11, 6)


def test_plan_rejects_wide_lambda():
    # lambda=0.5: interval (1.0, 1.44) holds no integer
    with pytest.raises(BandWidthError):
        choose_bands_rows(0.5, 0.1)


def test_plan_validation():
    with pytest.raises(ValueError):
        choose_bands_rows(0.0, 0.1)
    with pytest.raises(ValueError):
        choose_bands_rows(0.2, 1.0)


def test_jaccard_distance_hand_cases():
    assert jaccard_distance(frozenset("abc"), frozenset("bcd")) == pytest.approx(0.5)
    assert jaccard_distance(frozenset("ab"), frozenset("ab")) == 0.0
    assert jaccard_distance(frozenset("ab"), frozenset("cd")) == 1.0


def test_token_pair_controls_jaccard_exactly():
    a, b = token_pair(shared=30, unique_each=10, seed=0)
    assert jaccard_distance(a, b) == pytest.approx(0.4)


def test_minhash_collision_rate_matches_similarity():
    # per-hash collision probability equals Jaccard similarity (0.6 here)
    a, b = token_pair(shared=30, unique_each=10, seed=1)
    sig = minhash_signatures((a, b), k=2000, seed=3)
    rate = float(np.mean(sig[0] == sig[1]))
    assert rate == pytest.approx(0.6, abs=0.04)


def test_identical_token_sets_share_signatures():
    a, _ = token_pair(shared=10, unique_each=5, seed=2)
    sig = minhash_signatures((a, frozenset(a)), k=64, seed=9)
    assert np.array_equal(sig[0], sig[1])


def test_minhash_is_seed_deterministic():
    a, b = token_pair(shared=10, unique_each=5, seed=4)
    s1 = minhash_signatures((a, b), k=32, seed=5)
    s2 = minhash_signatures((a, b), k=32, seed=5)
    s3 = minhash_signatures((a, b), k=32, seed=6)
    assert np.array_equal(s1, s2)
    assert not np.array_equal(s1, s3)


def test_hyperplane_rates():
    v = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    sig = hyperplane_signatures(v, k=2000, seed=0)
    assert np.array_equal(sig[0], sig[1])
    # orthogonal vectors collide on a signed projection half the time
    rate = float(np.mean(sig[0] == sig[2]))
    assert rate == pytest.approx(0.5, abs=0.04)


def test_blocking_must_partition():
    # block 1 is empty: the labels skip a block number
    with pytest.raises(DatasetError, match=r"0\.\.q-1"):
        Blocking(labels=np.array([0, 2, 2]))
    blocking = Blocking(labels=np.array([1, 0, 1, 2]))
    assert (blocking.n, blocking.q) == (4, 3)
    assert blocking.sizes.tolist() == [1, 2, 1]
    assert [b.tolist() for b in blocking.blocks] == [[1], [0, 2], [3]]


def test_blocking_rejects_a_negative_index():
    with pytest.raises(DatasetError, match="non-negative"):
        Blocking(labels=np.array([0, -1]))


def test_blocking_rejects_an_out_of_range_index():
    # q <= n, so a label of n or more always skips a block number; a huge
    # one is refused before any per-label table is allocated
    for big in (2, 5, 2**62):
        with pytest.raises(DatasetError, match=r"0\.\.q-1"):
            Blocking(labels=np.array([0, big]))
    with pytest.raises(DatasetError, match=r"0\.\.q-1"):
        Blocking(labels=np.array([0, 2**64 - 1], dtype=np.uint64))


def test_blocking_rejects_float_indices():
    with pytest.raises(DatasetError, match="integer"):
        Blocking(labels=np.array([0.0, 1.0]))
    with pytest.raises(DatasetError, match="integer"):
        Blocking(labels=np.array([True, False]))
    with pytest.raises(DatasetError, match="1-d"):
        Blocking(labels=np.zeros((2, 2), dtype=np.int64))


def test_blocking_keeps_one_int64_label_array():
    blocking = Blocking(labels=np.array([0, 0, 1], dtype=np.int32))
    assert blocking.labels.dtype == np.int64
    assert [f.name for f in dataclasses.fields(Blocking)] == ["labels"]
    # the blocks are views on one read-only array
    with pytest.raises(ValueError):
        blocking.blocks[0][0] = 2


def test_partition_covers_all_records():
    data = duplicate_text_corpus(40, 0.3, seed=0)
    cfg = LshConfig.plan(0.2, 0.1, family="minhash")
    blocking = lsh_partition(data, cfg, seed=1)
    assert blocking.n == data.n
    got = np.sort(np.concatenate([b for b in blocking.blocks]))
    assert np.array_equal(got, np.arange(data.n))
    assert blocking.q == len(blocking.blocks)


def test_near_duplicates_usually_co_blocked():
    # pairs at distance <= lambda must co-block with probability >= 1 - delta
    hits = 0
    trials = 200
    for seed in range(trials):
        a, b = token_pair(shared=40, unique_each=5, seed=seed)  # distance 0.2
        data = Dataset(ids=(0, 1), tokens=(a, b))
        blocking = lsh_partition(data, LshConfig.plan(0.2, 0.1), seed=seed)
        hits += blocking.q == 1
    assert hits / trials >= 0.9


def test_minhash_needs_tokens_and_hyperplane_needs_vectors():
    vec_data = Dataset(ids=(0, 1), features=np.array([[1.0], [2.0]]))
    with pytest.raises(DatasetError):
        lsh_partition(vec_data, LshConfig.plan(0.2, 0.1, family="minhash"), seed=0)
    a, b = token_pair(shared=5, unique_each=2, seed=0)
    tok_data = Dataset(ids=(0, 1), tokens=(a, b))
    with pytest.raises(DatasetError):
        lsh_partition(tok_data, LshConfig.plan(0.2, 0.1, family="hyperplane"), seed=0)


def test_config_validation():
    with pytest.raises(ValueError):
        LshConfig(lam=0.2, delta=0.1, rows=0, bands=3)
    # rows 1.5 used to build with k = 3.0 and fail inside numpy
    for rows, bands in ((1.5, 2), (3, 2.0), (3, -1), ("3", 2)):
        with pytest.raises(ValueError, match="rows|bands"):
            LshConfig(lam=0.2, delta=0.1, rows=rows, bands=bands)
    with pytest.raises(ValueError):
        LshConfig(lam=0.2, delta=0.1, rows=3, bands=6, family="simhash")


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=10**6))
def test_partition_property_random_corpora(seed):
    data = duplicate_text_corpus(15, 0.4, seed=seed)
    blocking = lsh_partition(data, LshConfig.plan(0.2, 0.1), seed=seed)
    sizes = [b.size for b in blocking.blocks]
    assert sum(sizes) == data.n
    assert min(sizes) >= 1


MERSENNE = (1 << 61) - 1


def _blake2b64(token):
    return int.from_bytes(
        hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "little"
    )


def test_minhash_matches_the_per_record_formula():
    # h_j(S) = min over t in S of (blake2b64(t) a_j + b_j) mod (2^61 - 1),
    # with a then b drawn from default_rng(seed)
    data = duplicate_text_corpus(20, 0.3, seed=7)
    k, seed = 12, 4
    rng = np.random.default_rng(seed)
    a = [int(x) for x in rng.integers(1, MERSENNE, size=k, dtype=np.uint64)]
    b = [int(x) for x in rng.integers(0, MERSENNE, size=k, dtype=np.uint64)]
    want = np.array(
        [
            [min((_blake2b64(t) * aj + bj) % MERSENNE for t in toks)
             for aj, bj in zip(a, b)]
            for toks in data.tokens
        ],
        dtype=np.uint64,
    )
    assert np.array_equal(minhash_signatures(data.tokens, k, seed), want)


def test_minhash_rejects_an_empty_token_set():
    a, _ = token_pair(shared=5, unique_each=2, seed=0)
    with pytest.raises(DatasetError):
        minhash_signatures(TokenTable.from_sets((a, frozenset())), k=8, seed=0)
    data = Dataset(ids=(0, 1), tokens=(frozenset(), a))
    with pytest.raises(DatasetError):
        lsh_partition(data, LshConfig.plan(0.2, 0.1), seed=0)


def _reference_blocks(sig, cfg):
    """Two records share a block iff a chain of band-equal pairs joins them;
    blocks listed by smallest member, members ascending."""
    n = sig.shape[0]
    bands = [
        [tuple(row) for row in sig[:, t * cfg.rows : (t + 1) * cfg.rows]]
        for t in range(cfg.bands)
    ]
    adj = [
        [j for j in range(n) if j != i and any(band[i] == band[j] for band in bands)]
        for i in range(n)
    ]
    seen = [False] * n
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack, members = [start], []
        while stack:
            i = stack.pop()
            members.append(i)
            for j in adj[i]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        blocks.append(sorted(members))
    return blocks


def _assert_ordered(blocks):
    firsts = [blk[0] for blk in blocks]
    assert firsts == sorted(firsts)
    assert all(np.all(np.diff(blk) > 0) for blk in blocks)


@pytest.mark.parametrize("seed", [0, 5])
def test_minhash_partition_matches_band_chain_reference(seed):
    data = duplicate_text_corpus(100, 0.3, seed=seed)
    cfg = LshConfig.plan(0.2, 0.1, family="minhash")
    got = lsh_partition(data, cfg, seed=seed).blocks
    sig = minhash_signatures(data.tokens, cfg.k, seed)
    want = _reference_blocks(sig, cfg)
    assert len(want) < data.n  # some records do share a block
    assert [blk.tolist() for blk in got] == want
    _assert_ordered(got)


def test_hyperplane_partition_matches_band_chain_reference():
    # centred clusters and wide bands, so the records fall into several blocks
    raw = planted_clusters(8, 5, 3.0, 10, seed=1, n_singletons=3)
    data = Dataset(ids=raw.ids, features=raw.features - raw.features.mean(axis=0))
    cfg = LshConfig(lam=0.2, delta=0.1, rows=8, bands=4, family="hyperplane")
    got = lsh_partition(data, cfg, seed=1).blocks
    want = _reference_blocks(hyperplane_signatures(data.features, cfg.k, 1), cfg)
    assert 1 < len(want) < data.n
    assert [blk.tolist() for blk in got] == want
    _assert_ordered(got)


def test_components_resolve_a_long_shuffled_chain_quickly():
    # a path through 200k nodes in random order: hooking roots and jumping
    # pointers takes a few rounds, where relabeling by neighbours alone would
    # need about one round per node along the path
    n = 200_000
    path = np.random.default_rng(0).permutation(n)
    start = time.perf_counter()
    root = _components(n, path[:-1], path[1:])
    assert time.perf_counter() - start < 10.0
    assert np.array_equal(root, np.zeros(n, dtype=root.dtype))


def test_components_label_each_component_by_its_smallest_member():
    u = np.array([5, 3, 7, 1])
    v = np.array([3, 9, 2, 1])
    assert _components(10, u, v).tolist() == [0, 1, 2, 3, 4, 3, 6, 2, 8, 3]


def test_affine_mod_mersenne_matches_python_ints():
    rng = np.random.default_rng(0)
    edges = [0, 1, MERSENNE - 1, MERSENNE, MERSENNE + 1, 2**64 - 1]
    xs = np.concatenate([
        np.array(edges, dtype=np.uint64),
        rng.integers(0, 2**64, size=10_000, dtype=np.uint64, endpoint=False),
    ])
    folded = _fold_mersenne(xs)
    assert [int(v) for v in folded] == [int(x) % MERSENNE for x in xs]
    coeffs = [1, MERSENNE - 1] + [
        int(v) for v in rng.integers(1, MERSENNE, size=4, dtype=np.uint64)
    ]
    for a in coeffs:
        for b in coeffs + [0]:
            got = _affine_mod_mersenne(folded, np.uint64(a), np.uint64(b))
            assert got.dtype == np.uint64
            assert [int(v) for v in got] == [(a * int(x) + b) % MERSENNE for x in xs]


def _unique_links(cols):
    _, first, inv = np.unique(cols, axis=0, return_index=True, return_inverse=True)
    return first[inv.reshape(-1)]


@pytest.mark.parametrize(
    "cols",
    [
        np.full((50, 3), 7, dtype=np.uint64),
        np.random.default_rng(1).integers(0, 2, size=(300, 8)).astype(np.uint64),
        np.random.default_rng(2).permutation(
            np.repeat(
                np.random.default_rng(3).integers(
                    0, 2**64, size=(40, 3), dtype=np.uint64, endpoint=False
                ),
                5,
                axis=0,
            )
        ),
        np.array([[2**64 - 1], [0], [2**64 - 1], [1], [0]], dtype=np.uint64),
    ],
    ids=["all-equal", "hyperplane-bits", "shuffled-duplicates", "one-column"],
)
def test_band_links_match_unique_first_index(cols):
    assert np.array_equal(_band_links(cols), _unique_links(cols))
