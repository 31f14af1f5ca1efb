"""Dataset model shared by every estimator and the sampler.

A dataset is a flat table of records.  Several records may describe the same
real-world entity; the multiset of records therefore induces a distribution
over entities (``prob(e) = freq(e) / n``) and the whole point of the package
is to sample entities almost uniformly even though the records are skewed.

Records are stored column-wise (numpy arrays) so that million-row synthetic
datasets stay cheap.  Entity-level results (frequencies, induced masses,
sample counts) are arrays aligned with ``Dataset.entity_names``: slot ``c``
belongs to entity code ``c``.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "AmbiguousEntityWarning",
    "CsvSchema",
    "Dataset",
    "DatasetError",
    "DiscreteDistribution",
    "char_ngrams",
    "ingest_csv",
    "relative_error",
    "tv_distance",
    "uniform_distribution",
]


class DatasetError(ValueError):
    """Malformed dataset, schema, or distribution input."""


class AmbiguousEntityWarning(UserWarning):
    """Identical record content carries more than one entity label."""


def char_ngrams(text: str, n: int = 3) -> frozenset[str]:
    """Character n-gram token set of ``text``; short strings hash whole."""
    if len(text) < n:
        return frozenset({text})
    return frozenset(text[i : i + n] for i in range(len(text) - n + 1))


def _factorize_features(features: np.ndarray) -> np.ndarray:
    """Integer codes for exact row equality of a 2-d float array.

    -0.0 and 0.0 are one value; rows are compared as bytes, so a copy with
    the negative zeros folded is made, only when there are any.
    """
    zeros = features == 0
    if zeros.any() and np.signbit(features[zeros]).any():
        features = features + 0.0  # -0.0 + 0.0 is 0.0
    view = np.ascontiguousarray(features).view(
        np.dtype((np.void, features.dtype.itemsize * features.shape[1]))
    ).ravel()
    _, codes = np.unique(view, return_inverse=True)
    return codes.astype(np.int64)


def _factorize_objects(items: Sequence) -> tuple[np.ndarray, list]:
    """Codes in first-appearance order plus the label list.

    Numeric and string label columns go through numpy; only genuinely mixed
    (object-dtype) columns fall back to the python loop.
    """
    arr = items if isinstance(items, np.ndarray) else np.asarray(items)
    if arr.ndim == 1 and arr.dtype != object:
        uniq, first, inv = np.unique(arr, return_index=True, return_inverse=True)
        order = np.argsort(first, kind="stable")
        rank = np.empty(order.size, dtype=np.int64)
        rank[order] = np.arange(order.size)
        return rank[inv], [x.item() for x in uniq[order]]
    codes = np.empty(len(items), dtype=np.int64)
    table: dict = {}
    labels: list = []
    for i, item in enumerate(items):
        code = table.get(item)
        if code is None:
            code = len(labels)
            table[item] = code
            labels.append(item)
        codes[i] = code
    return codes, labels


@dataclass(frozen=True)
class Dataset:
    """Immutable column-wise record table.

    Exactly one of ``features`` / ``tokens`` carries the record content;
    ``entity_labels`` (ground truth, a tuple or for large synthetic tables a
    1-d label array) and ``values`` are optional.  Mutating operations return
    new datasets; every randomized consumer takes an explicit seed, so
    instances can be shared freely across workers.
    """

    ids: tuple
    features: np.ndarray | None = None
    tokens: tuple[frozenset[str], ...] | None = None
    entity_labels: Sequence | None = None
    values: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = len(self.ids)
        if self.features is None and self.tokens is None:
            raise DatasetError("dataset needs feature vectors or token sets")
        if self.features is not None:
            feats = np.asarray(self.features, dtype=np.float64)
            if feats.ndim != 2 or feats.shape[0] != n:
                raise DatasetError("features must be an (n, d) array")
            if not np.all(np.isfinite(feats)):
                raise DatasetError("non-finite feature value")
            object.__setattr__(self, "features", feats)
        if self.tokens is not None and len(self.tokens) != n:
            raise DatasetError("token column length mismatch")
        if self.entity_labels is not None and len(self.entity_labels) != n:
            raise DatasetError("entity label column length mismatch")
        if self.values is not None:
            vals = np.asarray(self.values, dtype=np.float64)
            if vals.shape != (n,):
                raise DatasetError("value column length mismatch")
            object.__setattr__(self, "values", vals)
        if n == 0:
            raise DatasetError("empty dataset")

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int | None:
        return None if self.features is None else self.features.shape[1]

    @cached_property
    def dedup_codes(self) -> np.ndarray:
        """Codes under exact content equality (features or token sets)."""
        if self.features is not None:
            return _factorize_features(self.features)
        codes, _ = _factorize_objects(self.tokens)
        return codes

    @cached_property
    def dedup_freqs(self) -> np.ndarray:
        return np.bincount(self.dedup_codes)

    @cached_property
    def _entity_factorization(self) -> tuple[np.ndarray, tuple]:
        """Ground-truth codes and names: declared labels, else content equality."""
        if self.entity_labels is None:
            return self.dedup_codes, tuple(range(int(self.dedup_codes.max()) + 1))
        codes, labels = _factorize_objects(self.entity_labels)
        return codes, tuple(labels)

    @property
    def entity_codes(self) -> np.ndarray:
        return self._entity_factorization[0]

    @property
    def entity_names(self) -> tuple:
        return self._entity_factorization[1]

    @cached_property
    def entity_freqs(self) -> np.ndarray:
        return np.bincount(self.entity_codes)

    def check_label_consistency(self) -> None:
        """Warn when identical record content maps to several labels.

        Surfaces both candidate entity counts instead of silently picking
        one notion of identity.
        """
        if self.entity_labels is None:
            return
        pairs = np.stack([self.dedup_codes, self.entity_codes], axis=1)
        distinct_pairs = np.unique(pairs, axis=0)
        by_content = len(np.unique(self.dedup_codes))
        if len(distinct_pairs) != by_content:
            by_label = len(self.entity_names)
            warnings.warn(
                "identical record content carries different entity labels: "
                f"{by_content} distinct by content vs {by_label} by label",
                AmbiguousEntityWarning,
                stacklevel=2,
            )

    def entity_values(self) -> np.ndarray:
        """One value per entity (first occurrence), ordered by entity code."""
        if self.values is None:
            raise DatasetError("dataset has no value column")
        first = np.empty(len(self.entity_names), dtype=np.int64)
        # written in reverse, so each code keeps its first record
        rev = np.arange(self.n - 1, -1, -1)
        first[self.entity_codes[rev]] = rev
        return self.values[first]


@dataclass(frozen=True)
class CsvSchema:
    """Column roles for CSV ingestion.

    ``feature_cols`` are parsed as floats; ``text_cols`` are concatenated and
    tokenized into character n-grams.  A schema must declare at least one of
    the two.  All roles can also be loaded from a JSON config file.
    """

    feature_cols: tuple[str, ...] = ()
    text_cols: tuple[str, ...] = ()
    entity_col: str | None = None
    value_col: str | None = None
    id_col: str | None = None
    delimiter: str = ","
    ngram: int = 3

    def __post_init__(self) -> None:
        if not self.feature_cols and not self.text_cols:
            raise DatasetError("schema declares neither feature nor text columns")

    @classmethod
    def from_json(cls, path: str) -> "CsvSchema":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        known = {
            "feature_cols",
            "text_cols",
            "entity_col",
            "value_col",
            "id_col",
            "delimiter",
            "ngram",
        }
        unknown = set(raw) - known
        if unknown:
            raise DatasetError(f"unknown schema keys: {sorted(unknown)}")
        for key in ("feature_cols", "text_cols"):
            if key in raw:
                raw[key] = tuple(raw[key])
        return cls(**raw)


def ingest_csv(path: str, schema: CsvSchema) -> Dataset:
    """Load a CSV file under ``schema`` into a dataset.

    Raises DatasetError naming the row index for malformed cells and
    naming any declared column missing from the header.
    """
    ids: list = []
    feats: list = []
    toks: list = []
    ents: list = []
    vals: list = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh, delimiter=schema.delimiter)
        header = reader.fieldnames or []
        declared = [
            *schema.feature_cols,
            *schema.text_cols,
            *(c for c in (schema.entity_col, schema.value_col, schema.id_col) if c),
        ]
        missing = [c for c in declared if c not in header]
        if missing:
            raise DatasetError(f"declared columns missing from header: {missing}")
        for idx, row in enumerate(reader):
            try:
                if schema.feature_cols:
                    feats.append([float(row[c]) for c in schema.feature_cols])
                if schema.text_cols:
                    text = " ".join(row[c] for c in schema.text_cols)
                    toks.append(char_ngrams(text, schema.ngram))
                if schema.entity_col:
                    ents.append(row[schema.entity_col])
                if schema.value_col:
                    vals.append(float(row[schema.value_col]))
            except (TypeError, ValueError) as exc:
                raise DatasetError(f"malformed row {idx}: {exc}") from exc
            ids.append(row[schema.id_col] if schema.id_col else idx)
    if not ids:
        raise DatasetError(f"no data rows in {path}")
    # a row shorter than the header reads None in its missing cells
    for col, cells in ((schema.entity_col, ents), (schema.id_col, ids)):
        if col and None in cells:
            raise DatasetError(f"malformed row {cells.index(None)}: no {col!r} cell")
    ds = Dataset(
        ids=tuple(ids),
        features=np.array(feats) if feats else None,
        tokens=tuple(toks) if toks else None,
        entity_labels=tuple(ents) if ents else None,
        values=np.array(vals) if vals else None,
    )
    ds.check_label_consistency()
    return ds


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Finite distribution: mass ``p[i]`` on label ``support[i]``.

    Entity-level distributions take ``Dataset.entity_names`` as support, so
    two of them over one dataset line up slot by slot.
    """

    support: tuple
    p: np.ndarray

    def __post_init__(self) -> None:
        support = tuple(self.support)
        p = np.asarray(self.p, dtype=np.float64)
        if p.shape != (len(support),):
            raise DatasetError(f"{p.size} masses for {len(support)} labels")
        if len(set(support)) != len(support):
            raise DatasetError("duplicate label in distribution support")
        if not np.all(np.isfinite(p)) or np.any(p < 0):
            raise DatasetError("negative or non-finite mass")
        total = float(p.sum())
        if abs(total - 1.0) > 1e-9:
            raise DatasetError(f"masses sum to {total}, not 1")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "p", p)

    @cached_property
    def mass(self) -> Mapping[object, float]:
        """Read-only label -> mass view, built on first use."""
        return MappingProxyType(dict(zip(self.support, self.p.tolist())))

    def __getitem__(self, label) -> float:
        return self.mass.get(label, 0.0)


def tv_distance(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Total variation distance, half the L1 gap over one shared support."""
    if p.support != q.support:
        raise DatasetError("distributions have different supports")
    return 0.5 * float(np.abs(p.p - q.p).sum())


def uniform_distribution(labels: Sequence) -> DiscreteDistribution:
    labels = tuple(labels)
    return DiscreteDistribution(labels, np.full(len(labels), 1.0 / len(labels)))


def relative_error(real: float, estimate: float) -> float:
    """|real - estimate| / |real|; undefined (error) for real == 0."""
    if real == 0:
        raise DatasetError("relative error undefined for a zero reference value")
    return abs(real - estimate) / abs(real)
