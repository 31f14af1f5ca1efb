"""Rejection sampling of records against an estimated probability map.

Stage two of the cleaning pipeline: given per-record probability estimates
``phat`` and their minimum (the floor), draw records uniformly and accept a
draw ``v`` when a fresh uniform variate falls below ``floor / phat(v)``.  The
induced entity distribution is proportional to ``prob(e) * floor / phat(e)``,
so exact estimates yield an exactly uniform distribution over entities.
A map backed per content (``ProbabilityMap.by_code``) is sampled per
content: its ratios are computed once per distinct content and each drawn
record is looked up through its content code, so a call costs
O(trials + distinct contents) once the dataset is factorized and allocates
no per-record array.  Entity-level outputs, the sample counts and that
induced distribution, are arrays in the order of ``data.entity_names``.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import (
    Dataset,
    DiscreteDistribution,
    float_cells,
    positive_count,
    scalar_cells,
    text_column,
    write_csv_columns,
)

__all__ = [
    "CoverageError",
    "DegenerateMapWarning",
    "InvalidMapError",
    "ProbabilityMap",
    "SampleBudgetError",
    "SampleResult",
    "exact_induced_distribution",
    "expected_trials_per_accept",
    "sample_clean",
]


class InvalidMapError(ValueError):
    """Probability map with non-positive, non-finite, or missing mass."""


class CoverageError(KeyError):
    """A drawn record has no probability estimate."""


class SampleBudgetError(RuntimeError):
    """Trial cap exhausted before the requested sample size was reached."""


class DegenerateMapWarning(UserWarning):
    """All estimates equal; rejection degenerates to uniform record draws."""


@dataclass(frozen=True, eq=False)
class ProbabilityMap:
    """Probability estimates with their floor.

    One of two arrays carries the estimates: ``dense`` holds one per record
    in a dataset's order, ``by_code`` one per content code of the dataset's
    ``dedup_codes`` (the balanced and mixture estimators emit this form,
    keeping their cost proportional to the distinct contents, not the
    records).  ``resolve`` gives the per-record view of either;
    ``sample_clean``, ``expected_trials_per_accept`` and ``to_csv`` read a
    ``by_code`` map per content and never build that view.
    """

    dense: np.ndarray | None = None
    by_code: np.ndarray | None = None
    ids: np.ndarray | None = None  # record id text, when read from an artifact

    def __post_init__(self) -> None:
        if (self.dense is None) == (self.by_code is None):
            raise InvalidMapError("exactly one backing (dense or by_code) required")
        name = "dense" if self.dense is not None else "by_code"
        arr = np.asarray(getattr(self, name), dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidMapError(f"{name} map must be a non-empty 1-d array")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
            raise InvalidMapError("probability estimates must be positive and finite")
        object.__setattr__(self, name, arr)

    @property
    def floor(self) -> float:
        """Smallest estimate in the map (the acceptance numerator)."""
        arr = self.dense if self.dense is not None else self.by_code
        return float(arr.min())

    def _backing(self, data: Dataset) -> tuple[np.ndarray, np.ndarray | None]:
        """The estimate array checked against ``data``, with its record codes.

        The codes are ``data.dedup_codes`` for a ``by_code`` map (record
        ``i``'s estimate is ``table[codes[i]]``) and None for a dense map.
        """
        if self.dense is not None:
            if self.dense.size != data.n:
                raise CoverageError(
                    f"map covers {self.dense.size} records, dataset has {data.n}"
                )
            return self.dense, None
        n_contents = data.dedup_freqs.size
        if self.by_code.size != n_contents:
            raise CoverageError(
                f"map covers {self.by_code.size} contents, dataset has {n_contents}"
            )
        return self.by_code, data.dedup_codes

    def resolve(self, data: Dataset) -> np.ndarray:
        """Dense per-record estimates aligned with ``data``."""
        table, codes = self._backing(data)
        return table if codes is None else table[codes]

    def to_csv(self, path: str, data: Dataset) -> None:
        """Write the two-column (record id, estimate) artifact, one row per
        record in dataset order.

        A ``by_code`` map formats each content's estimate once and gathers
        the text through the record codes.
        """
        table, codes = self._backing(data)
        cells = float_cells(table)
        if codes is not None:
            cells = scalar_cells(text_column(list(cells))[codes])
        write_csv_columns(path, ["record_id", "phat"], [scalar_cells(data.ids), cells])

    @classmethod
    def from_csv(cls, path: str) -> "ProbabilityMap":
        ids: list = []
        vals: list = []
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or header[:2] != ["record_id", "phat"]:
                raise InvalidMapError(f"{path} is not a probability map artifact")
            try:
                for row in reader:
                    ids.append(row[0])
                    vals.append(float(row[1]))
            except (IndexError, ValueError) as exc:
                raise InvalidMapError(
                    f"{path} line {reader.line_num}: a map row needs a record id "
                    f"and a numeric phat ({exc})"
                ) from exc
        return cls(dense=np.array(vals), ids=text_column(ids))


@dataclass(frozen=True, eq=False)
class SampleResult:
    """Accepted records plus the trial accounting of the run.

    ``per_entity_counts[c]`` is the number of accepted records of entity
    code ``c``, one slot per name in ``data.entity_names``.
    """

    record_indices: np.ndarray
    trials: int
    per_entity_counts: np.ndarray

    @property
    def size(self) -> int:
        return int(self.record_indices.shape[0])

    @property
    def trials_per_accept(self) -> float:
        return self.trials / max(self.size, 1)


def _acceptance_ratios(
    data: Dataset, pmap: ProbabilityMap
) -> tuple[np.ndarray, np.ndarray | None]:
    """``floor / estimate`` over the map's backing array, with its record codes.

    Every code occurs in some record, so the backing holds the same values
    as the per-record view and the degenerate-map test reads the same.
    """
    table, codes = pmap._backing(data)
    if np.allclose(table, table[0] if codes is None else table[codes[0]]):
        warnings.warn(
            "all probability estimates are equal; sampling is uniform over records",
            DegenerateMapWarning,
            stacklevel=3,
        )
    return pmap.floor / table, codes


# uniform draws made per step of sample_clean; the draws depend on it.
# Each step allocates three temporaries of this many 8-byte entries, so
# at 2^13 each is 64 KiB: under glibc's default 128 KiB mmap threshold,
# they are reused from the heap instead of mapped and page-faulted afresh
# on every call, and a small sample draws no more than it needs
_TRIAL_CHUNK = 1 << 13


def sample_clean(
    data: Dataset,
    pmap: ProbabilityMap,
    p: int,
    seed: int,
    max_trials_factor: int = 10_000,
) -> SampleResult:
    """Draw ``p`` records (with replacement) via rejection.

    Accepts a uniform draw ``v`` when ``u < floor / phat(v)`` for a fresh
    ``u ~ U[0, 1)``; a ratio of one always accepts.  Raises
    SampleBudgetError after ``max_trials_factor * p`` trials so a badly
    scaled map fails loudly instead of hanging, and ValueError when ``p``
    or ``max_trials_factor`` is not an integer of at least 1.  A ``by_code``
    map's ratios are computed once per content and looked up through the
    drawn records' content codes, so after factorization a call costs
    O(trials + distinct contents) and allocates no per-record array; the
    draws and the result are the same as for the map's dense view.
    """
    p = positive_count(p, "sample size p")
    max_trials = positive_count(max_trials_factor, "max_trials_factor") * p
    ratios, codes = _acceptance_ratios(data, pmap)
    rng = np.random.default_rng(seed)
    accepted: list[np.ndarray] = []
    n_acc = 0
    trials = 0
    while n_acc < p:
        if trials >= max_trials:
            raise SampleBudgetError(
                f"{trials} trials produced {n_acc} accepts; requested {p}"
            )
        take = min(_TRIAL_CHUNK, max_trials - trials)
        idx = rng.integers(0, data.n, size=take)
        u = rng.random(take)
        accept = u < ratios[idx if codes is None else codes[idx]]
        hits = idx[accept]
        if n_acc + hits.size >= p:
            need = p - n_acc
            # exact trial count up to and including the accepting draw of
            # the p-th record
            trials += int(np.flatnonzero(accept)[need - 1]) + 1
            hits = hits[:need]
        else:
            trials += take
        accepted.append(hits)
        n_acc += hits.size
    indices = np.concatenate(accepted) if accepted else np.empty(0, dtype=np.int64)
    counts = np.bincount(
        data.entity_codes[indices], minlength=len(data.entity_names)
    )
    return SampleResult(
        record_indices=indices, trials=trials, per_entity_counts=counts
    )


def exact_induced_distribution(
    data: Dataset, pmap: ProbabilityMap
) -> DiscreteDistribution:
    """Closed-form entity distribution the sampler converges to.

    Mass of entity ``e`` is proportional to the sum of ``floor / phat(v)``
    over the records ``v`` of ``e``; the support is ``data.entity_names``.
    Invariant under rescaling all estimates by a constant, since the floor
    rescales with them.  A ``by_code`` map's ratios are computed once per
    content and gathered through ``data.dedup_codes``; no per-record
    division is made.
    """
    table, codes = pmap._backing(data)
    ratios = pmap.floor / table
    masses = np.bincount(
        data.entity_codes,
        weights=ratios if codes is None else ratios[codes],
        minlength=len(data.entity_names),
    )
    return DiscreteDistribution(data.entity_names, masses / masses.sum())


def expected_trials_per_accept(data: Dataset, pmap: ProbabilityMap) -> float:
    """Mean number of uniform draws consumed per accepted record."""
    ratios, codes = _acceptance_ratios(data, pmap)
    mean = ratios.mean() if codes is None else ratios @ data.dedup_freqs / data.n
    return float(1.0 / mean)
