"""Dataset model shared by every estimator and the sampler.

A dataset is a flat table of records.  Several records may describe the same
real-world entity; the multiset of records therefore induces a distribution
over entities (``prob(e) = freq(e) / n``) and the whole point of the package
is to sample entities almost uniformly even though the records are skewed.

Records are stored column-wise (numpy arrays) so that million-row synthetic
datasets stay cheap: record ids and entity labels are 1-d arrays too, made
from any sequence by ``np.asarray`` or, when that does not give a 1-d array,
as a 1-d object array; CSV text columns are object arrays of their cells.
Entity-level results (frequencies, induced masses, sample counts) are arrays
aligned with ``Dataset.entity_names``: slot ``c`` belongs to entity code
``c``.
"""

from __future__ import annotations

import csv
import json
import operator
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "AmbiguousEntityWarning",
    "CsvSchema",
    "Dataset",
    "DatasetError",
    "DiscreteDistribution",
    "TokenTable",
    "char_ngrams",
    "float_cells",
    "ingest_csv",
    "integer",
    "positive_count",
    "relative_error",
    "scalar_cells",
    "text_column",
    "tv_distance",
    "uniform_distribution",
    "write_csv_columns",
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


@dataclass(frozen=True, eq=False)
class TokenTable:
    """Token sets of n records as one integer table.

    Row i holds the vocabulary ids ``ids[offsets[i]:offsets[i + 1]]``,
    sorted and distinct (``int32``); ``offsets`` (``int64``, n + 1 of them)
    rise from 0 to ``ids.size``, and ``vocab`` is one sorted object array
    of distinct ``str`` tokens.  ``table[i]`` is row i as a frozenset of
    its tokens.  A malformed table raises DatasetError when it is built.
    """

    ids: np.ndarray
    offsets: np.ndarray
    vocab: np.ndarray

    def __post_init__(self) -> None:
        ids, offsets = np.asarray(self.ids), np.asarray(self.offsets)
        vocab = np.fromiter(self.vocab, dtype=object, count=len(self.vocab))
        if ids.ndim != 1 or offsets.ndim != 1 or offsets.size == 0 \
                or ids.dtype.kind not in "iu" or offsets.dtype.kind not in "iu":
            raise DatasetError("token ids and offsets must be 1-d integer arrays")
        if offsets[0] != 0 or offsets[-1] != ids.size or (offsets[1:] < offsets[:-1]).any():
            raise DatasetError("token offsets must rise from 0 to the id count")
        if ids.size and (ids.min() < 0 or ids.max() >= vocab.size):
            raise DatasetError("token id outside the vocabulary")
        rising = ids[1:] > ids[:-1]
        inner = offsets[1:-1]
        rising[inner[(inner > 0) & (inner < ids.size)] - 1] = True  # row starts
        if not rising.all():
            raise DatasetError("a token row is not sorted and distinct")
        if not all(issubclass(t, str) for t in set(map(type, vocab))):
            raise DatasetError("token vocabulary holds a non-str token")
        if not (vocab[1:] > vocab[:-1]).all():
            raise DatasetError("token vocabulary is not sorted and distinct")
        for name, arr in (("ids", ids.astype(np.int32, copy=False)),
                          ("offsets", offsets.astype(np.int64, copy=False)),
                          ("vocab", vocab)):
            arr = arr.view()  # read-only without touching the caller's array
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, i: int) -> frozenset[str]:
        i = range(len(self))[operator.index(i)]
        return frozenset(self.vocab[self.ids[self.offsets[i] : self.offsets[i + 1]]].tolist())

    def __iter__(self) -> Iterator[frozenset[str]]:
        return map(self.__getitem__, range(len(self)))

    def take(self, order) -> "TokenTable":
        """Rows ``order`` (record indices, repeats allowed), in that order,
        over the same vocabulary: one gather of the ids."""
        starts = self.offsets[:-1][order]
        lens = self.offsets[1:][order] - starts
        offsets = np.zeros(lens.size + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        src = np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], lens)
        return TokenTable(self.ids[src], offsets, self.vocab)

    @classmethod
    def from_sets(cls, sets) -> "TokenTable":
        """Table of a sequence of token rows, each taken as a set.

        A row may be any iterable of ``str`` except a ``str`` itself, which
        would read as the set of its characters; such a row, or a token that
        is not a ``str``, raises DatasetError.
        """
        rows = []
        for row in sets:
            if isinstance(row, str):
                raise DatasetError(f"token row {len(rows)} is a str, not a set of tokens")
            try:
                rows.append(row if isinstance(row, (set, frozenset)) else set(row))
            except TypeError as exc:
                raise DatasetError(f"token row {len(rows)}: {exc}") from None
        vocab = set().union(*rows)
        bad = next((t for t in vocab if not isinstance(t, str)), None)
        if bad is not None:
            raise DatasetError(f"token {bad!r} is not a str")
        vocab = sorted(vocab)
        index = {t: i for i, t in enumerate(vocab)}
        lens = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        row_of = np.repeat(np.arange(len(rows)), lens)
        # rows stay in place, so one sort orders the ids within each row
        keys = row_of * len(vocab)
        keys += np.fromiter((index[t] for row in rows for t in row),
                            dtype=np.int64, count=row_of.size)
        keys.sort()
        offsets = np.zeros(lens.size + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        return cls(keys - row_of * len(vocab), offsets, vocab)

    @classmethod
    def from_texts(cls, texts: Sequence[str], n: int) -> "TokenTable":
        """Row i is ``char_ngrams(texts[i], n)``, built in array steps.

        The joined texts are encoded to UTF-32 once.  Each n-gram window
        (a text shorter than n is one window, the whole text) becomes one
        integer key of its code points, each plus 1, so that 0 pads a short
        window and a NUL still counts as a character.  Three code points
        pack into a ``uint64``, so a window of n > 3 sorts as ceil(n / 3)
        such keys; positions past the longest text pad every window and are
        left out, so a large n on short texts costs no more.  Keys order windows as ``str`` compares them, so one sort
        of the keys gives the sorted vocabulary and one sort of the
        (row, id) pairs the sorted, distinct rows.
        """
        n = positive_count(n, "n")
        lens = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
        # window positions past the longest text are padding in every window
        m = min(n, int(lens.max(initial=1)))
        joined = "".join(texts)
        points = np.zeros(len(joined) + m, dtype=np.uint32)  # zeros pad the end
        points[: len(joined)] = np.frombuffer(
            joined.encode("utf-32-le", "surrogatepass"), dtype="<u4")
        points[: len(joined)] += 1
        counts = np.maximum(lens - n + 1, 1)
        row_of = np.repeat(np.arange(lens.size), counts)
        firsts = np.cumsum(counts) - counts
        start = np.arange(row_of.size) + np.repeat(np.cumsum(lens) - lens - firsts, counts)
        width = np.minimum(lens, n)
        short = width < n
        short_first, short_width = firsts[short], width[short]
        keys: list[np.ndarray] = []
        for j in range(m):
            col = points[start + j]
            col[short_first[short_width <= j]] = 0  # pad each short window
            if j % 3:  # a code point plus 1 fits in 21 bits, 3 in a uint64
                keys[-1] <<= np.uint64(21)
                keys[-1] |= col
            else:
                keys.append(col.astype(np.uint64))
        # the first key is the primary one
        order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
        head = np.zeros(order.size, dtype=bool)
        head[:1] = True
        for key in keys:
            key = key[order]
            head[1:] |= key[1:] != key[:-1]
        del keys
        token = np.empty(order.size, dtype=np.int64)
        token[order] = np.cumsum(head) - 1
        heads = order[head]
        vocab = [joined[a : a + w] for a, w in
                 zip(start[heads].tolist(), width[row_of[heads]].tolist())]
        pairs = row_of * len(vocab) + token
        pairs.sort()
        head = np.empty(pairs.size, dtype=bool)
        head[:1] = True
        np.not_equal(pairs[1:], pairs[:-1], out=head[1:])
        pairs = pairs[head]
        rows = pairs // max(len(vocab), 1)
        offsets = np.zeros(lens.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=lens.size), out=offsets[1:])
        return cls(pairs - rows * len(vocab), offsets, vocab)


def _factorize_features(features: np.ndarray) -> np.ndarray:
    """Integer codes for exact row equality of a 2-d float array.

    -0.0 and 0.0 are one value, so a copy with the negative zeros folded is
    made, only when there are any.  Codes number the distinct rows in the
    order of their bytes compared as unsigned, lowest address first (the
    order ``np.unique`` gives a void view of the rows).  Each float's bytes
    read as a big-endian ``uint64`` keep that order on any host, so a sort
    of those integer keys, one column after another, yields the same codes
    at a fraction of the cost of sorting void records.
    """
    zeros = features == 0
    if zeros.any() and np.signbit(features[zeros]).any():
        features = features + 0.0  # -0.0 + 0.0 is 0.0
    del zeros
    keys = np.ascontiguousarray(features).view(">u8").astype(np.uint64)
    if keys.shape[1] == 1:
        keys = keys[:, 0]
        order = np.argsort(keys)
        keys = keys[order]
        starts = keys[1:] != keys[:-1]
    else:
        order = np.lexsort(keys.T[::-1])  # first column is the primary key
        keys = keys[order]
        starts = (keys[1:] != keys[:-1]).any(axis=1)
    del keys
    ranks = np.zeros(order.size, dtype=np.int64)
    np.cumsum(starts, out=ranks[1:])
    del starts
    codes = np.empty(order.size, dtype=np.int64)
    codes[order] = ranks
    return codes


def _column(items: Sequence) -> np.ndarray:
    """``items`` as a 1-d array: ``np.asarray`` when that gives one, else a
    1-d object array holding the items themselves (tuples, ragged rows).

    A sequence that ``np.asarray`` turns into text or floats although not
    all of its items are text or floats (``[1, "1"]``, ``[2**60 + 1, 0.5]``)
    is kept item for item too: as text, the int 1 and the string "1" would
    be one label, and as floats, 2**60 + 1 and 2**60 would.
    """
    try:
        arr = np.asarray(items)
    except ValueError:  # ragged nested sequences
        arr = None
    if arr is not None and arr.dtype.kind in "SUf" and arr is not items:
        kind = {"U": str, "S": bytes, "f": (float, np.floating)}[arr.dtype.kind]
        if not all(isinstance(item, kind) for item in items):
            arr = None
    if arr is None or arr.ndim != 1:
        arr = np.fromiter(items, dtype=object, count=len(items))
    return arr


# widest value span, per record, that gets a first-position table
_SPAN_PER_RECORD = 4


def _first_records(codes: np.ndarray, n_codes: int) -> np.ndarray:
    """Index of each code's first record, -1 for a code with none.

    One scatter of the record indices, written in reverse, so each code
    keeps its first record.
    """
    first = np.full(n_codes, -1, dtype=np.int64)
    first[codes[::-1]] = np.arange(codes.size - 1, -1, -1)
    return first


def _factorize_objects(items: Sequence) -> tuple[np.ndarray, list]:
    """Codes in first-appearance order plus the label list.

    Integer columns whose value span (max - min + 1) is at most
    ``_SPAN_PER_RECORD`` times their length get a span-sized table of first
    positions, filled by ``_first_records``; the present values are ranked
    by first position, so only the distinct values are sorted, never the
    records.  The bound keeps that int64 table no larger than the four
    record-sized arrays (sorted copy, permutation, first index, inverse)
    of the ``np.unique`` path, which every other numeric or fixed-width
    string column and every wider span takes.  Object columns (CSV text,
    mixed items) go through a dict, which for text is also faster than
    sorting it.
    """
    arr = items if isinstance(items, np.ndarray) else np.asarray(items)
    if arr.ndim == 1 and arr.dtype.kind in "iu" and arr.size:
        lo = arr.min()
        n = arr.size
        span = int(arr.max()) - int(lo) + 1
        if span <= _SPAN_PER_RECORD * n:
            # wrapping int64 arithmetic gives the exact offset, below span
            offs = np.subtract(arr, lo, dtype=np.int64, casting="unsafe")
            table = _first_records(offs, span)
            firsts = np.sort(table[table >= 0])
            table[offs[firsts]] = np.arange(firsts.size)
            return table[offs], arr[firsts].tolist()
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

    ``features`` or ``tokens`` carries the record content, or both, as a
    text corpus with embeddings does: exact content equality
    (``dedup_codes``) then compares the features, and minhash blocking
    reads the tokens.  ``tokens`` is stored as a ``TokenTable``; any other
    sequence of token sets is converted once by ``TokenTable.from_sets``.
    ``entity_labels`` (ground truth) and ``values`` are optional.  ``ids``
    and ``entity_labels`` are stored as 1-d arrays: any sequence is taken
    through ``np.asarray``, or kept item for item in an object array when
    that does not give a 1-d array, so ``(0, 1)``, ``["a", "b"]`` and
    ``np.arange(n)`` all work.  Mutating operations return new datasets;
    every randomized consumer takes an explicit seed, so instances can be
    shared freely across workers.
    """

    ids: np.ndarray
    features: np.ndarray | None = None
    tokens: TokenTable | None = None
    entity_labels: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", _column(self.ids))
        n = self.ids.shape[0]
        if self.features is None and self.tokens is None:
            raise DatasetError("dataset needs feature vectors or token sets")
        if self.features is not None:
            feats = np.asarray(self.features, dtype=np.float64)
            if feats.ndim != 2 or feats.shape[0] != n:
                raise DatasetError("features must be an (n, d) array")
            if not np.all(np.isfinite(feats)):
                raise DatasetError("non-finite feature value")
            object.__setattr__(self, "features", feats)
        if self.tokens is not None:
            tokens = self.tokens
            if not isinstance(tokens, TokenTable):
                tokens = TokenTable.from_sets(tokens)
            if len(tokens) != n:
                raise DatasetError("token column length mismatch")
            object.__setattr__(self, "tokens", tokens)
        if self.entity_labels is not None:
            labels = _column(self.entity_labels)
            if labels.shape[0] != n:
                raise DatasetError("entity label column length mismatch")
            object.__setattr__(self, "entity_labels", labels)
        if self.values is not None:
            vals = np.asarray(self.values, dtype=np.float64)
            if vals.shape != (n,):
                raise DatasetError("value column length mismatch")
            object.__setattr__(self, "values", vals)
        if n == 0:
            raise DatasetError("empty dataset")

    @property
    def n(self) -> int:
        return self.ids.shape[0]

    @cached_property
    def dedup_codes(self) -> np.ndarray:
        """Codes under exact content equality (features or token rows)."""
        if self.features is not None:
            return _factorize_features(self.features)
        codes, _ = _factorize_objects(tuple(self.tokens))
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
        one notion of identity.  A content carries several labels exactly
        when one of its records differs from the label of its first record,
        so no (content, label) pairs are sorted.
        """
        if self.entity_labels is None:
            return
        by_label = len(self.entity_names)
        by_content = self.dedup_freqs.size
        codes = self.entity_codes
        first_label = codes[_first_records(self.dedup_codes, by_content)]
        if (codes != first_label[self.dedup_codes]).any():
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
        return self.values[_first_records(self.entity_codes, len(self.entity_names))]


@dataclass(frozen=True)
class CsvSchema:
    """Column roles for CSV ingestion.

    ``feature_cols`` are parsed as floats; ``text_cols`` are joined with a
    space and tokenized into character n-grams, ``ngram`` (an integer of at
    least 1) characters each, by ``TokenTable.from_texts``: the record's
    tokens are ``char_ngrams(text, ngram)``, so a text shorter than
    ``ngram`` is one token.  A schema must declare at least one of the two.
    All roles can also be loaded from a JSON config file.
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
        object.__setattr__(self, "ngram", positive_count(self.ngram, "ngram"))

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

    The file is read by columns: one list of cells per declared column,
    each number column then parsed straight into a float array.  Blank
    lines are skipped and not counted as rows; cells beyond the header are
    ignored.  Raises DatasetError naming the row index of a malformed or
    missing cell, and naming any declared column missing from the header.
    """
    singles = (schema.entity_col, schema.value_col, schema.id_col)
    declared = [*schema.feature_cols, *schema.text_cols, *(c for c in singles if c)]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        header = next(reader, [])
        missing = [c for c in declared if c not in header]
        if missing:
            raise DatasetError(f"declared columns missing from header: {missing}")
        # a repeated header name reads its last column, as a dict of the row would
        where = {name: i for i, name in enumerate(header)}
        cols: list = [[] for _ in declared]
        appends = [(col.append, where[c]) for col, c in zip(cols, declared)]
        try:
            for row in reader:
                if row:
                    for append, i in appends:
                        append(row[i])
        except IndexError:
            col = next(c for c in declared if where[c] >= len(row))
            raise DatasetError(
                f"malformed row {len(cols[-1])}: no {col!r} cell"
            ) from None
    n = len(cols[0])
    if n == 0:
        raise DatasetError(f"no data rows in {path}")
    nf, nt = len(schema.feature_cols), len(schema.text_cols)
    feats = np.empty((n, nf)) if nf else None
    for j in range(nf):
        feats[:, j] = _float_column(cols[j])
        cols[j] = None  # drop the cells as soon as they are parsed
    toks = None
    if nt:
        texts = list(map(" ".join, zip(*cols[nf : nf + nt])))
        toks = TokenTable.from_texts(texts, schema.ngram)
    rest = iter(cols[nf + nt :])
    ents, vals, ids = (next(rest) if c else None for c in singles)
    del cols, rest
    ds = Dataset(
        # id cells keep their exact text ("007" is not 7)
        ids=text_column(ids) if ids is not None else np.arange(n),
        features=feats,
        tokens=toks,
        entity_labels=text_column(ents) if ents is not None else None,
        values=_float_column(vals) if vals is not None else None,
    )
    ds.check_label_consistency()
    return ds


def text_column(cells: list[str]) -> np.ndarray:
    """Text cells (of a CSV column, say) as a 1-d object array of the ``str``s.

    An object array holds the cells themselves, so its memory follows the
    total text; a fixed-width ``U`` array would cost every row the width
    of the longest cell (one 2,000-character URL id among a million short
    ones would take 8 GB).
    """
    return np.fromiter(cells, dtype=object, count=len(cells))


def _float_column(cells: list[str]) -> np.ndarray:
    """Parse a column of CSV cells; a bad cell raises naming its row."""
    try:
        return np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        for i, cell in enumerate(cells):
            try:
                float(cell)
            except ValueError as exc:
                raise DatasetError(f"malformed row {i}: {exc}") from exc
        raise


def write_csv_columns(path: str, header: Sequence[str], columns: Sequence) -> None:
    """Write ``header``, then row i from item i of each column.

    Columns are iterables consumed lazily, side by side; see float_cells
    for the text of float columns.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


def scalar_cells(column: np.ndarray) -> Iterator:
    """Python scalars of a 1-d column, made lazily, a few thousand at a time."""
    return chain.from_iterable(
        column[i : i + 4096].tolist() for i in range(0, len(column), 4096)
    )


def float_cells(values: np.ndarray) -> Iterator[str]:
    """``.17g`` text of each float, which parses back to the same float.

    Made lazily, a few thousand floats at a time.
    """
    return map("{:.17g}".format, scalar_cells(values))


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


def integer(value, name: str) -> int:
    """``value`` as an int; ValueError naming ``name`` for a non-integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def positive_count(value, name: str) -> int:
    """``value`` as an int of at least 1; ValueError for anything else."""
    count = integer(value, name)
    if count < 1:
        raise ValueError(f"{name} must be at least 1, got {count}")
    return count


def relative_error(real: float, estimate: float) -> float:
    """|real - estimate| / |real|; undefined (error) for real == 0."""
    if real == 0:
        raise DatasetError("relative error undefined for a zero reference value")
    return abs(real - estimate) / abs(real)
