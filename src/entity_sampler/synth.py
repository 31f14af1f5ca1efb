"""Seeded synthetic datasets for tests and benchmarks.

Real corpora used in published accuracy tables are not redistributable, so
the benchmarks run on synthetic stand-ins with the same shapes: a large
numeric table with controllable duplication, a labeled text corpus with
near-duplicate records, planted well-separated cluster instances, and
datasets whose per-entity frequencies track a Gaussian mixture density up
to a relative distortion.
"""

from __future__ import annotations

import math
import string

import numpy as np

from .blocking import jaccard_distance
from .dataset import Dataset, TokenTable, char_ngrams
from .gmm import MixtureModel

__all__ = [
    "balanced_dataset",
    "dataset_from_freqs",
    "dispersed_dataset",
    "duplicate_text_corpus",
    "mixture_tracking_dataset",
    "planted_clusters",
    "ratio_dataset",
    "restaurants_standin",
    "token_pair",
]

_VALUE_LO = 400.0
_VALUE_HI = 1_000_000.0


def dataset_from_freqs(
    freqs: np.ndarray,
    seed: int,
    values: np.ndarray | None = None,
) -> Dataset:
    """Expand per-entity frequencies into a labeled record table.

    Entity i contributes ``freqs[i]`` identical records; the single feature
    and the value column both carry the entity's numeric value (drawn
    uniformly from the benchmark value range when not supplied).
    """
    freqs = np.asarray(freqs, dtype=np.int64)
    if (freqs <= 0).any():
        raise ValueError("all frequencies must be positive")
    rng = np.random.default_rng(seed)
    n_ent = freqs.shape[0]
    if values is None:
        values = rng.uniform(_VALUE_LO, _VALUE_HI, size=n_ent)
    codes = np.repeat(np.arange(n_ent), freqs)
    vals = values[codes]
    return Dataset(
        ids=np.arange(codes.shape[0]),
        features=vals.reshape(-1, 1),
        entity_labels=codes,
        values=vals,
    )


def balanced_dataset(
    n_entities: int, n_rows: int, eta: float, seed: int
) -> Dataset:
    """Dataset with minimum entity probability exactly ``eta``.

    Entity 0 is pinned at the floor frequency ceil(eta * n_rows); the
    remainder is spread evenly (plus a seeded remainder shuffle) over the
    other entities, which therefore sit at or above the floor.
    """
    floor = math.ceil(eta * n_rows)
    if floor * n_entities > n_rows:
        raise ValueError("eta too large for the requested shape")
    freqs = np.full(n_entities, floor, dtype=np.int64)
    spare = n_rows - floor * n_entities
    if n_entities > 1 and spare:
        rng = np.random.default_rng(seed)
        extra = rng.multinomial(spare, np.full(n_entities - 1, 1.0 / (n_entities - 1)))
        freqs[1:] += extra
    elif spare:
        freqs[0] += spare
    return dataset_from_freqs(freqs, seed=seed + 1)


def ratio_dataset(ratio: int, n_entities: int, base_freq: int, seed: int) -> Dataset:
    """Half the entities at ``base_freq``, half at ``ratio * base_freq``."""
    if n_entities % 2 or ratio < 1:
        raise ValueError("need an even entity count and ratio >= 1")
    half = n_entities // 2
    freqs = np.concatenate(
        [np.full(half, base_freq), np.full(half, ratio * base_freq)]
    ).astype(np.int64)
    return dataset_from_freqs(freqs, seed=seed)


def dispersed_dataset(
    n_entities: int,
    mean_freq: int,
    dup: float,
    seed: int,
    spread_gain: float = 2.75,
    value_corr: float = 0.05,
    variant_gain: float = 0.07,
) -> Dataset:
    """Large numeric table whose duplication skew grows with ``dup``.

    Entity frequencies are drawn uniformly from
    [mean_freq (1 - g dup), mean_freq (1 + g dup)] clamped at 1, keeping
    the mean frequency (hence the row count) fixed while the duplication
    rate widens the skew.  Two couplings make the skew bite the way dirty
    data bites aggregates:

    * values correlate mildly with frequency (``value_corr`` blends a
      frequency-aligned component into an otherwise independent uniform
      draw), so heavily duplicated entities carry systematically larger
      values and the raw record mean is biased;
    * each record independently mutates into a near-duplicate content
      variant with probability ``variant_gain * dup``, so an entity's
      records split over several distinct contents that exact-match
      estimation can never merge.

    Perfect per-content cleaning removes the first bias but not the
    second; an estimator working from a small record sample removes the
    first only partially.  Both residuals grow with ``dup``.
    """
    if not (0 <= dup < 1):
        raise ValueError("dup must lie in [0, 1)")
    if not (0 <= value_corr <= 1):
        raise ValueError("value_corr must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    width = min(spread_gain * dup, 0.96)
    lo = max(1, int(round(mean_freq * (1.0 - width))))
    hi = 2 * mean_freq - lo
    freqs = rng.integers(lo, hi + 1, size=n_entities)
    aligned = (freqs - lo) / (hi - lo) if hi > lo else np.full(n_entities, 0.5)
    blend = value_corr * aligned + (1.0 - value_corr) * rng.random(n_entities)
    values = _VALUE_LO + (_VALUE_HI - _VALUE_LO) * blend

    theta = min(variant_gain * dup, 0.5)
    n_variants = 1 + rng.binomial(freqs - 1, theta)
    ent_of_variant = np.repeat(np.arange(n_entities), n_variants)
    starts = np.cumsum(n_variants) - n_variants
    variant_rank = np.arange(n_variants.sum()) - starts[ent_of_variant]
    base, rem = np.divmod(freqs, n_variants)
    variant_freq = base[ent_of_variant] + (variant_rank < rem[ent_of_variant])
    # variants carry the entity value plus a tiny content offset, so they
    # stay distinct under exact matching but identical in the value column
    content = values[ent_of_variant] + 1e-3 * variant_rank
    codes = np.repeat(np.arange(variant_freq.shape[0]), variant_freq)
    return Dataset(
        ids=np.arange(codes.shape[0]),
        features=content[codes].reshape(-1, 1),
        entity_labels=ent_of_variant[codes],
        values=values[ent_of_variant][codes],
    )


def planted_clusters(
    n_clusters: int,
    per_cluster: int,
    separation: float,
    dim: int,
    seed: int,
    n_singletons: int = 0,
) -> Dataset:
    """Entities blurred by a unit-ball distribution, centers ``separation``
    apart, plus optional isolated singleton records."""
    rng = np.random.default_rng(seed)
    centers = np.zeros((n_clusters, dim))
    for i in range(n_clusters):
        centers[i, 0] = i * separation
    feats = []
    labels = []
    for ci in range(n_clusters):
        radii = rng.random(per_cluster) ** (1.0 / dim)
        dirs = rng.standard_normal((per_cluster, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        feats.append(centers[ci] + radii[:, None] * dirs)
        labels.extend([f"c{ci}"] * per_cluster)
    for si in range(n_singletons):
        pos = np.zeros(dim)
        pos[0] = -10.0 - 5.0 * si
        feats.append(pos.reshape(1, -1))
        labels.append(f"s{si}")
    features = np.vstack(feats)
    values = np.random.default_rng(seed + 1).uniform(
        _VALUE_LO, _VALUE_HI, size=n_clusters + n_singletons
    )
    return Dataset(
        ids=np.arange(len(labels)),
        features=features,
        entity_labels=labels,
        values=np.repeat(values, [per_cluster] * n_clusters + [1] * n_singletons),
    )


def mixture_tracking_dataset(
    model: MixtureModel,
    xi: float,
    n_rows: int,
    seed: int,
    grid_per_component: int = 41,
    grid_halfwidth_sigmas: float = 1.2,
) -> Dataset:
    """Entities on a grid whose frequencies track the mixture density.

    Grid points within ``grid_halfwidth_sigmas`` standard deviations of each
    mean get relative mass density * (1 + u xi), u uniform in [-1, 1], then
    frequencies are rounded to roughly ``n_rows`` records.  The resulting
    record distribution is within relative xi (plus rounding) of the model
    density, which is the regime the density-based estimator assumes.
    """
    if model.dim != 1:
        raise ValueError("grid construction supports 1-d models")
    if not (0 <= xi < 1):
        raise ValueError("xi must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    grids = []
    for j in range(model.k):
        sig = math.sqrt(model.variances[j])
        half = grid_halfwidth_sigmas * sig
        grids.append(
            np.linspace(model.means[j, 0] - half, model.means[j, 0] + half,
                        grid_per_component)
        )
    points = np.unique(np.concatenate(grids))
    dens = model.pdf(points.reshape(-1, 1))
    mass = dens / dens.sum()
    mass = mass * (1.0 + xi * rng.uniform(-1.0, 1.0, size=mass.shape))
    mass = mass / mass.sum()
    freqs = np.maximum(1, np.round(mass * n_rows).astype(np.int64))
    vals = np.random.default_rng(seed + 1).uniform(_VALUE_LO, _VALUE_HI,
                                                   size=points.shape[0])
    codes = np.repeat(np.arange(points.shape[0]), freqs)
    return Dataset(
        ids=np.arange(codes.shape[0]),
        features=points[codes].reshape(-1, 1),
        entity_labels=codes,
        values=vals[codes],
    )


def _random_word(rng: np.random.Generator, length: int) -> str:
    letters = np.array(list(string.ascii_lowercase))
    return "".join(rng.choice(letters, size=length))


def _perturb_text(text: str, rng: np.random.Generator, max_edits: int = 2) -> str:
    chars = list(text)
    for _ in range(int(rng.integers(1, max_edits + 1))):
        pos = int(rng.integers(len(chars)))
        chars[pos] = str(rng.choice(list(string.ascii_lowercase)))
    return "".join(chars)


def token_pair(
    shared: int, unique_each: int, seed: int, ngram: int = 3
) -> tuple[frozenset, frozenset]:
    """Two token sets with Jaccard distance 2u / (s + 2u) by construction."""
    rng = np.random.default_rng(seed)
    mk = lambda cnt: {_random_word(rng, 8) for _ in range(cnt)}
    common = mk(shared)
    while True:
        a_extra, b_extra = mk(unique_each), mk(unique_each)
        a = frozenset(common | a_extra)
        b = frozenset(common | b_extra)
        # resample on the rare collision that breaks the exact overlap
        if len(a) == shared + unique_each and len(b) == shared + unique_each \
                and len(a & b) == shared:
            return a, b


def duplicate_text_corpus(
    n_entities: int,
    dup_fraction: float,
    seed: int,
    max_distance: float = 0.2,
    text_len: int = 30,
    with_features: bool = True,
) -> Dataset:
    """Labeled text records with near-duplicate variants.

    A ``dup_fraction`` share of entities get one perturbed copy whose
    3-gram Jaccard distance to the original is at most ``max_distance``
    (perturbations are redrawn until the bound holds).  With
    ``with_features`` each record also carries a 2-d embedding stand-in:
    entity centers 7 apart, variants jittered within radius 0.25, so
    blocking can run on the tokens and within-block clustering on the
    vectors.  The tokens are the texts' 3-grams, one ``TokenTable`` built
    from all texts at once.
    """
    rng = np.random.default_rng(seed)
    texts: list[str] = []
    labels: list[str] = []
    feats: list[np.ndarray] = []
    base_vals = rng.uniform(_VALUE_LO, _VALUE_HI, size=n_entities)
    values: list[float] = []
    n_dup = int(round(dup_fraction * n_entities))

    def embed(entity: int) -> np.ndarray:
        return np.array([7.0 * entity, 0.0]) + rng.uniform(-0.25, 0.25, size=2)

    for e in range(n_entities):
        text = _random_word(rng, text_len)
        texts.append(text)
        labels.append(f"e{e}")
        feats.append(embed(e))
        values.append(base_vals[e])
        if e < n_dup:
            toks = char_ngrams(text)
            for _ in range(100):
                variant = _perturb_text(text, rng)
                if jaccard_distance(toks, char_ngrams(variant)) <= max_distance:
                    break
            else:
                raise RuntimeError("could not build a near-duplicate variant")
            texts.append(variant)
            labels.append(f"e{e}")
            feats.append(embed(e))
            values.append(base_vals[e])
    return Dataset(
        ids=np.arange(len(labels)),
        features=np.vstack(feats) if with_features else None,
        tokens=TokenTable.from_texts(texts, 3),
        entity_labels=labels,
        values=np.array(values),
    )


def restaurants_standin(seed: int = 0) -> Dataset:
    """Small labeled stand-in shaped like a classic dedup benchmark:
    864 rows of which 112 are duplicate copies (752 distinct entities)."""
    n_entities = 752
    n_dup = 112
    freqs = np.ones(n_entities, dtype=np.int64)
    freqs[:n_dup] = 2
    return dataset_from_freqs(freqs, seed=seed)
