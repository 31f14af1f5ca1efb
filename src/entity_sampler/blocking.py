"""Locality-sensitive blocking of a dataset.

A family of hash functions is locality sensitive when the collision
probability of two records equals one minus their distance.  Band r of the
hash values into a signature; repeat over s bands; records sharing any band
signature land in the same block.  With r chosen inside
(1/(2 lambda), 1 / (-ln(1 - lambda))) and s = ceil(2.2 ln(1/delta)), records
within distance lambda are co-blocked with probability at least 1 - delta.

Two families are provided: min-hashing of token sets (collision probability
equals Jaccard similarity) and signed random projections for vectors
(collision probability 1 - angle/pi).  Min-hashing reads a ``TokenTable``:
each vocabulary string is hashed once, in exact ``uint64`` arithmetic modulo
2^61 - 1, one hash column at a time, and a record's value is the minimum
over its row of token ids, taken for all rows by one ``np.minimum.reduceat``;
no Python code runs per token.  Within a band, a stable sort of the band
signatures links every record to the first record sharing its signature,
and the bands are joined as the connected components of the graph of those
links.  A blocking is one label array: each record carries its block's
number.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import Dataset, DatasetError, TokenTable, positive_count

__all__ = [
    "BandWidthError",
    "Blocking",
    "LshConfig",
    "choose_bands_rows",
    "hyperplane_signatures",
    "jaccard_distance",
    "lsh_partition",
    "minhash_signatures",
]

_MERSENNE = (1 << 61) - 1
# numpy scalars, so uint64 arithmetic never promotes to float on numpy 1.x
_P = np.uint64(_MERSENNE)
_LOW29 = np.uint64((1 << 29) - 1)
_LOW32 = np.uint64((1 << 32) - 1)
_3, _29, _32, _61 = (np.uint64(v) for v in (3, 29, 32, 61))


class BandWidthError(ValueError):
    """No integer row count satisfies the distance threshold."""


def choose_bands_rows(lam: float, delta: float) -> tuple[int, int]:
    """Smallest admissible rows-per-band r and band count s.

    r is the smallest integer strictly inside the open interval
    (1/(2 lambda), 1/(-ln(1 - lambda))); the interval can be empty for
    large lambda, which is an error.  s = ceil(2.2 ln(1/delta)).
    """
    if not (0 < lam < 1):
        raise ValueError("lambda must lie in (0, 1)")
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    lo = 1.0 / (2.0 * lam)
    hi = 1.0 / (-math.log1p(-lam))
    r = math.floor(lo) + 1
    if not (lo < r < hi):
        raise BandWidthError(
            f"no integer rows-per-band in ({lo:.4g}, {hi:.4g}) for lambda={lam}"
        )
    s = math.ceil(2.2 * math.log(1.0 / delta))
    return r, s


@dataclass(frozen=True)
class LshConfig:
    """Banding configuration: k = rows * bands hash functions total.

    ``rows`` and ``bands`` are integers of at least 1; anything else raises
    ValueError when the config is built.
    """

    lam: float
    delta: float
    rows: int
    bands: int
    family: str = "minhash"

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", positive_count(self.rows, "rows"))
        object.__setattr__(self, "bands", positive_count(self.bands, "bands"))
        if self.family not in ("minhash", "hyperplane"):
            raise ValueError(f"unknown hash family {self.family!r}")

    @classmethod
    def plan(cls, lam: float, delta: float, family: str = "minhash") -> "LshConfig":
        rows, bands = choose_bands_rows(lam, delta)
        return cls(lam=lam, delta=delta, rows=rows, bands=bands, family=family)

    @property
    def k(self) -> int:
        return self.rows * self.bands


@dataclass(frozen=True, eq=False)
class Blocking:
    """Partition of the records into q disjoint, non-empty blocks, as a
    label array.

    ``labels[i]`` is record i's block in 0..q-1, and no block is empty.
    ``lsh_partition`` numbers the blocks in the order of their smallest
    record.  ``blocks`` lists each block's records, ascending, as read-only
    views; it is built on first use.
    """

    labels: np.ndarray

    def __post_init__(self) -> None:
        lab = np.asarray(self.labels)
        if lab.ndim != 1 or not np.issubdtype(lab.dtype, np.integer):
            raise DatasetError("block labels must be a 1-d integer array")
        if lab.size and lab.min() < 0:
            raise DatasetError("block labels must be non-negative")
        # q <= n, so a label of n or more skips a block number
        if lab.size and lab.max() >= lab.size:
            raise DatasetError("block labels must number the blocks 0..q-1")
        lab = lab.astype(np.int64, copy=False)
        if not np.bincount(lab).all():
            raise DatasetError("block labels must number the blocks 0..q-1")
        object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.labels.size

    @property
    def q(self) -> int:
        return int(self.labels.max(initial=-1)) + 1

    @property
    def sizes(self) -> np.ndarray:
        """Record count of each block, in block order."""
        return np.bincount(self.labels, minlength=self.q)

    @cached_property
    def blocks(self) -> tuple[np.ndarray, ...]:
        order = np.argsort(self.labels, kind="stable")
        order.setflags(write=False)
        return tuple(np.split(order, np.cumsum(self.sizes)[:-1]))


def jaccard_distance(a: frozenset, b: frozenset) -> float:
    union = len(a | b)
    if union == 0:
        return 0.0
    return 1.0 - len(a & b) / union


def _fold_mersenne(x: np.ndarray) -> np.ndarray:
    """x mod (2^61 - 1) for any uint64 array x."""
    # 2^61 = 1 (mod p): low 61 bits <= p plus high 3 bits <= 7, so < p + 8;
    # one subtraction of p then leaves [0, p)
    x = (x & _P) + (x >> _61)
    np.subtract(x, _P, out=x, where=x >= _P)
    return x


def _affine_mod_mersenne(x: np.ndarray, a: np.uint64, b: np.uint64) -> np.ndarray:
    """(a x + b) mod (2^61 - 1), exact in uint64, for x, a, b in [0, p).

    With a = ah 2^32 + al and x = xh 2^32 + xl (ah, xh < 2^29), a x is
    ah xh 2^64 + (ah xl + al xh) 2^32 + al xl, and 2^64 = 8, 2^61 = 1 (mod p).
    """
    ah, al = a >> _32, a & _LOW32
    xh, xl = x >> _32, x & _LOW32
    mid = ah * xl + al * xh  # two terms < 2^61, so < 2^62
    low = al * xl  # < 2^64
    s = (ah * xh) << _3  # ah xh 2^64 = 8 ah xh (mod p); ah xh < 2^58, so < 2^61
    # mid 2^32 = (mid >> 29) 2^61 + (mid mod 2^29) 2^32, and 2^61 = 1 (mod p)
    s += mid >> _29  # < 2^33
    s += (mid & _LOW29) << _32  # < 2^61
    s += low & _P  # < 2^61
    s += low >> _61  # <= 7
    s += b  # < 2^61, so s < 4 * 2^61 + 2^33 + 8 < 2^64
    return _fold_mersenne(s)


def minhash_signatures(table: TokenTable, k: int, seed: int) -> np.ndarray:
    """(n, k) min-hash matrix; column collision probability approximates
    the Jaccard similarity of the token rows.

    Hash j of a token t is (a_j blake2b64(t) + b_j) mod (2^61 - 1), computed
    in exact ``uint64`` arithmetic modulo 2^61 - 1, one hash column at a time
    over the vocabulary; each row takes its minimum over its token ids.  Any
    other sequence of token sets is converted by ``TokenTable.from_sets``.
    An empty row raises DatasetError.
    """
    if not isinstance(table, TokenTable):
        table = TokenTable.from_sets(table)
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=k, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE, size=k, dtype=np.uint64)
    starts = table.offsets[:-1]
    if (table.offsets[1:] == starts).any():
        raise DatasetError("record with an empty token set cannot be hashed")
    # stable 64-bit hash of every vocabulary token (process independent)
    digests = b"".join(
        hashlib.blake2b(t.encode(), digest_size=8).digest() for t in table.vocab
    )
    base = _fold_mersenne(np.frombuffer(digests, dtype="<u8"))
    ids = table.ids.astype(np.intp)  # numpy gathers by intp without a cast
    sig = np.empty((len(table), k), dtype=np.uint64)
    for j in range(k):
        h = _affine_mod_mersenne(base, a[j], b[j])
        sig[:, j] = np.minimum.reduceat(h[ids], starts)
    return sig


def hyperplane_signatures(features: np.ndarray, k: int, seed: int) -> np.ndarray:
    """(n, k) sign matrix of random projections; collision probability of a
    column is 1 - angle(x, y) / pi."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((features.shape[1], k))
    return (features @ w > 0).astype(np.uint64)


def _components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Smallest member index of each node's connected component.

    Each round hooks the larger of an edge's two roots onto the smaller,
    then jumps pointers until every node points at its root.
    """
    parent = np.arange(n)
    while True:
        ru, rv = parent[u], parent[v]
        live = ru != rv
        if not live.any():
            return parent
        ru, rv = ru[live], rv[live]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = parent[parent]
            if (jumped == parent).all():
                break
            parent = jumped


def _band_links(cols: np.ndarray) -> np.ndarray:
    """Smallest record index sharing each record's row of ``cols``.

    A stable sort keeps equal rows in index order, so each run of equal
    rows starts at its smallest index.
    """
    order = np.lexsort(cols.T)
    ranked = cols[order]
    head = np.empty(order.size, dtype=bool)
    head[:1] = True
    np.any(ranked[1:] != ranked[:-1], axis=1, out=head[1:])
    links = np.empty_like(order)
    links[order] = order[head][np.cumsum(head) - 1]
    return links


def lsh_partition(data: Dataset, cfg: LshConfig, seed: int) -> Blocking:
    """Block the dataset: records sharing any band signature are merged.

    Blocks are numbered in the order of their smallest record index.
    """
    if cfg.family == "minhash":
        if data.tokens is None:
            raise DatasetError("minhash blocking needs token records")
        sig = minhash_signatures(data.tokens, cfg.k, seed)
    else:
        if data.features is None:
            raise DatasetError("hyperplane blocking needs vector records")
        sig = hyperplane_signatures(data.features, cfg.k, seed)
    first_of = [
        _band_links(sig[:, band * cfg.rows : (band + 1) * cfg.rows])
        for band in range(cfg.bands)
    ]
    records = np.tile(np.arange(data.n), cfg.bands)
    firsts = np.concatenate(first_of)
    root = _components(data.n, records, firsts)
    # a block's number is its root's rank among the roots
    return Blocking(labels=(np.cumsum(root == np.arange(data.n)) - 1)[root])
