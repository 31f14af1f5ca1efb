"""Locality-sensitive blocking of a dataset.

A family of hash functions is locality sensitive when the collision
probability of two records equals one minus their distance.  Band r of the
hash values into a signature; repeat over s bands; records sharing any band
signature land in the same block.  With r chosen inside
(1/(2 lambda), 1 / (-ln(1 - lambda))) and s = ceil(2.2 ln(1/delta)), records
within distance lambda are co-blocked with probability at least 1 - delta.

Two families are provided: min-hashing of token sets (collision probability
equals Jaccard similarity) and signed random projections for vectors
(collision probability 1 - angle/pi).  Min-hash values are computed once
per distinct token, and the bands are joined as the connected components of
the graph linking records that share a band signature.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, DatasetError

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
    """Banding configuration: k = rows * bands hash functions total."""

    lam: float
    delta: float
    rows: int
    bands: int
    family: str = "minhash"

    def __post_init__(self) -> None:
        if self.rows < 1 or self.bands < 1:
            raise ValueError("rows and bands must be positive")
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
    """Partition of record indices into disjoint blocks covering the dataset."""

    blocks: tuple[np.ndarray, ...]
    n: int

    def __post_init__(self) -> None:
        seen = np.concatenate(self.blocks) if self.blocks else np.empty(0, dtype=int)
        if seen.size != self.n or np.unique(seen).size != self.n:
            raise DatasetError("blocks must partition the record indices")

    @property
    def q(self) -> int:
        return len(self.blocks)


def jaccard_distance(a: frozenset, b: frozenset) -> float:
    union = len(a | b)
    if union == 0:
        return 0.0
    return 1.0 - len(a & b) / union


def minhash_signatures(
    tokens: tuple[frozenset[str], ...], k: int, seed: int
) -> np.ndarray:
    """(n, k) min-hash matrix; column collision probability approximates
    the Jaccard similarity of the token sets."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=k, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE, size=k, dtype=np.uint64)
    sizes = np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens))
    if np.any(sizes == 0):
        raise DatasetError("record with an empty token set cannot be hashed")
    vocab: dict[str, int] = {}
    flat = np.fromiter(
        (vocab.setdefault(tok, len(vocab)) for toks in tokens for tok in toks),
        dtype=np.int64,
        count=int(sizes.sum()),
    )
    starts = np.cumsum(sizes) - sizes
    # stable 64-bit hash of every distinct token (process independent)
    digests = (hashlib.blake2b(t.encode(), digest_size=8).digest() for t in vocab)
    base = np.array([int.from_bytes(d, "little") for d in digests], dtype=object)
    sig = np.empty((len(tokens), k), dtype=np.uint64)
    for j in range(k):
        # exact modular arithmetic via object ints, one column at a time
        col = ((base * int(a[j]) + int(b[j])) % _MERSENNE).astype(np.uint64)
        sig[:, j] = np.minimum.reduceat(col[flat], starts)
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
            if np.array_equal(jumped, parent):
                break
            parent = jumped


def lsh_partition(data: Dataset, cfg: LshConfig, seed: int) -> Blocking:
    """Block the dataset: records sharing any band signature are merged.

    Blocks are ordered by their smallest record index; members ascend.
    """
    if cfg.family == "minhash":
        if data.tokens is None:
            raise DatasetError("minhash blocking needs token records")
        sig = minhash_signatures(data.tokens, cfg.k, seed)
    else:
        if data.features is None:
            raise DatasetError("hyperplane blocking needs vector records")
        sig = hyperplane_signatures(data.features, cfg.k, seed)
    # every record links to the first record with its band signature
    first_of = []
    for band in range(cfg.bands):
        cols = sig[:, band * cfg.rows : (band + 1) * cfg.rows]
        _, first, inv = np.unique(cols, axis=0, return_index=True, return_inverse=True)
        first_of.append(first[inv.reshape(-1)])
    records = np.tile(np.arange(data.n), cfg.bands)
    firsts = np.concatenate(first_of)
    root = _components(data.n, records, firsts)
    order = np.argsort(root, kind="stable")
    cuts = np.flatnonzero(np.diff(root[order])) + 1
    return Blocking(blocks=tuple(np.split(order, cuts)), n=data.n)
