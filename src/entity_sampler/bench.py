"""Benchmark harness: duplication injection, error sweeps, report files.

An experiment is a grid over (duplication rate, sample fraction).  Each cell
builds a dirty dataset, estimates record probabilities with the configured
method, rejection-samples a cleaned subsample, and scores the relative error
of the subsample's value mean against the clean per-entity mean.  Cells are
averaged over seeded repeats; failures are recorded per cell and the run
continues.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import time
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import synth
from .balanced import plan_sample_size
from .cli import estimate
from .dataset import (
    CsvSchema,
    Dataset,
    DatasetError,
    _json_fields,
    _object_fields,
    ingest_csv,
    integer,
    positive_count,
    relative_error,
    text_column,
    tv_distance,
    uniform_distribution,
)
from .gmm import plan_gmm
from .rejection import exact_induced_distribution, sample_clean

__all__ = [
    "CellResult",
    "ExperimentSpec",
    "SampleReport",
    "balanced_error_bound",
    "emit_report",
    "gmm_error_bound",
    "inject_duplicates",
    "load_report",
    "run_experiment",
    "save_report",
    "ssc_error_bound",
    "uniform_baseline_error",
]

_PROFILES = ("tpch", "uniform", "arbitrary")
# the method_params keys that `estimate` or `_cell_bound` read, per method,
# and those that only `_cell_bound` reads
_METHOD_PARAMS = {
    "balanced": {"eta", "delta"},
    "lsh": {"lam", "delta", "k_min", "k_max", "mu_radius"},
    "gmm": {"k", "max_iter", "tol", "tau", "eta_min", "dim", "delta"},
}
_BOUND_ONLY = {"eta", "tau", "eta_min", "dim"}
# the method_params that count something, so must be integers
_COUNTS = {"k", "max_iter", "k_min", "k_max", "dim"}


def inject_duplicates(
    data: Dataset, rate: float, profile: str, seed: int
) -> Dataset:
    """Append exact copies of a ``rate`` fraction of the records.

    Profiles fix the copy-count distribution of a selected record:
    ``tpch`` gives 1/2/3 copies with probability 80/15/5 percent,
    ``uniform`` always one copy, ``arbitrary`` a seeded draw from 1..5.
    Copies keep content, label, and value, so the entity table of the
    dirty dataset equals the clean one and the clean mean stays exact.
    """
    if not (0 <= rate < 1):
        raise ValueError("duplication rate must lie in [0, 1)")
    if profile not in _PROFILES:
        raise ValueError(f"unknown profile {profile!r}; pick from {_PROFILES}")
    n_selected = int(round(rate * data.n))
    if n_selected == 0:
        return data
    rng = np.random.default_rng(seed)
    chosen = rng.choice(data.n, size=n_selected, replace=False)
    if profile == "tpch":
        copies = rng.choice([1, 2, 3], size=n_selected, p=[0.80, 0.15, 0.05])
    elif profile == "uniform":
        copies = np.ones(n_selected, dtype=np.int64)
    else:
        copies = rng.integers(1, 6, size=n_selected)
    dup_rows = np.repeat(chosen, copies)
    order = np.concatenate([np.arange(data.n), dup_rows])
    dup_ids = [f"{i}+dup{j}" for j, i in enumerate(data.ids[dup_rows].tolist())]
    # the copies' ids are text, so all ids join in an object column
    new_ids = np.concatenate(
        [data.ids.astype(object, copy=False), text_column(dup_ids)]
    )
    return Dataset(
        ids=new_ids,
        features=None if data.features is None else data.features[order],
        tokens=None if data.tokens is None else data.tokens.take(order),
        entity_labels=None if data.entity_labels is None else data.entity_labels[order],
        values=None if data.values is None else data.values[order],
    )


@dataclass(frozen=True)
class ExperimentSpec:
    """Grid definition for one benchmark run.

    ``dataset`` is either a CSV path (ingested via ``schema``) or a
    generator URI like ``dispersed:n_entities=25000,mean_freq=40``.  The
    ``dispersed`` generator bakes the cell's duplication rate into its
    skew; every other source gets exact-copy injection at that rate.
    ``method_params`` holds only keys the method reads, checked when the
    spec is built: counts are integers, ``eta`` and ``eta_min`` lie in
    (0, 1], ``tau`` is positive and ``dim`` at least 1.  An lsh cell's
    pair budget is its sample size m, so ``budget`` is not such a key.
    ``repeats`` is an integer of at least 1 and ``seed`` a non-negative
    integer, also checked when the spec is built.
    """

    dataset: str
    method: str
    sweep: tuple[float, ...]
    dup_rates: tuple[float, ...]
    repeats: int
    seed: int
    profile: str = "tpch"
    schema: str | None = None
    method_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.method, str) or self.method not in _METHOD_PARAMS:
            raise ValueError(f"unknown method {self.method!r}")
        params = self.method_params
        if not isinstance(params, dict):
            raise ValueError(f"method_params must be a JSON object, got {params!r}")
        unread = sorted(set(params) - _METHOD_PARAMS[self.method])
        if unread:
            raise ValueError(
                f"method_params {unread} are not read by method {self.method!r}")
        for key in sorted(_COUNTS & set(params)):
            integer(params[key], key)
        for key in ("eta", "eta_min"):
            if key in params and not 0 < params[key] <= 1:
                raise ValueError(f"{key} must lie in (0, 1], got {params[key]!r}")
        if "tau" in params and not params["tau"] > 0:
            raise ValueError(f"tau must be positive, got {params['tau']!r}")
        if "dim" in params and params["dim"] < 1:
            raise ValueError(f"dim must be at least 1, got {params['dim']!r}")
        object.__setattr__(self, "sweep", _numbers(self.sweep, "sweep"))
        object.__setattr__(self, "dup_rates", _numbers(self.dup_rates, "dup_rates"))
        # an empty sweep is a legal degenerate grid (header-only report)
        if not all(0 < f < 1 for f in self.sweep):
            raise ValueError("sample fractions must lie in (0, 1)")
        if not all(0 <= r < 1 for r in self.dup_rates):
            raise ValueError("duplication rates must lie in [0, 1)")
        object.__setattr__(self, "repeats", positive_count(self.repeats, "repeats"))
        object.__setattr__(self, "seed", integer(self.seed, "seed"))
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.profile not in _PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}")

    @classmethod
    def from_json(cls, path: str) -> "ExperimentSpec":
        return cls(**_json_fields(path, cls, "experiment", ValueError))


@dataclass(frozen=True)
class CellResult:
    """Aggregated outcome of one (duplication rate, fraction) cell."""

    dup_rate: float
    fraction: float
    repeats: int
    mean_error: float | None
    stderr_error: float | None
    mean_trials_per_accept: float | None
    tv_induced: float | None
    seconds: float
    status: str = "ok"
    message: str = ""


@dataclass(frozen=True)
class SampleReport:
    """All cells of a run plus the spec that produced them."""

    spec: ExperimentSpec
    cells: tuple[CellResult, ...]

    def __post_init__(self) -> None:
        expected = len(self.spec.sweep) * len(self.spec.dup_rates)
        if len(self.cells) != expected:
            raise ValueError(
                f"{len(self.cells)} cells for a {expected}-cell grid"
            )

    @property
    def failed_cells(self) -> tuple[CellResult, ...]:
        return tuple(c for c in self.cells if c.status != "ok")


def _numbers(values, key: str) -> tuple[float, ...]:
    """``values`` as a tuple of floats; ValueError naming ``key`` for
    anything that is not a sequence of real numbers (a JSON ``false`` is
    not 0)."""
    if not isinstance(values, str):
        with suppress(TypeError):
            values = tuple(values)
            if all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                   for v in values):
                return tuple(float(v) for v in values)
    raise ValueError(f"{key} must be a list of numbers, got {values!r}")


def _parse_generator(uri: str) -> tuple[str, dict]:
    name, _, tail = uri.partition(":")
    params: dict = {}
    if tail:
        for item in tail.split(","):
            key, _, val = item.partition("=")
            if not key or not val:
                raise ValueError(f"malformed generator parameter {item!r}")
            try:
                params[key] = int(val)
            except ValueError:
                params[key] = float(val)
    return name, params


def _build_dataset(spec: ExperimentSpec, dup: float, seed: int,
                   base_cache: dict) -> Dataset:
    """Dirty dataset for a cell: generated with the cell's skew, or an
    ingested/generated base plus exact-copy injection."""
    name, params = _parse_generator(spec.dataset)
    if name == "dispersed":
        return synth.dispersed_dataset(dup=dup, seed=seed, **params)
    if name == "balanced":
        base = synth.balanced_dataset(seed=seed, **params)
    elif name == "text":
        base = synth.duplicate_text_corpus(seed=seed, **params)
    elif name == "mixture":
        raise ValueError(
            "the mixture generator needs a model artifact; build the dataset "
            "directly with synth.mixture_tracking_dataset"
        )
    else:
        if spec.dataset not in base_cache:
            if spec.schema is None:
                raise DatasetError("CSV datasets need a schema file")
            base_cache[spec.dataset] = ingest_csv(
                spec.dataset, CsvSchema.from_json(spec.schema)
            )
        base = base_cache[spec.dataset]
    return inject_duplicates(base, dup, spec.profile, seed)


def _run_cell(spec: ExperimentSpec, dup: float, fraction: float,
              cell_index: int, base_cache: dict) -> CellResult:
    start = time.perf_counter()
    errors = []
    trials = []
    tv_induced = None
    params = {key: value for key, value in spec.method_params.items()
              if key not in _BOUND_ONLY}
    try:
        for rep in range(spec.repeats):
            ss = np.random.SeedSequence(entropy=(spec.seed, cell_index, rep))
            s_data, s_est, s_sample = (int(x) for x in ss.generate_state(3))
            data = _build_dataset(spec, dup, s_data, base_cache)
            if data.values is None:
                raise DatasetError("benchmark datasets need a value column")
            m = max(1, math.ceil(fraction * data.n))
            pmap = estimate(data, spec.method, s_est, m=m, budget=m, **params).pmap
            result = sample_clean(data, pmap, p=m, seed=s_sample)
            clean_mean = float(data.entity_values().mean())
            est_mean = float(data.values[result.record_indices].mean())
            errors.append(relative_error(clean_mean, est_mean))
            trials.append(result.trials_per_accept)
            if rep == 0:
                induced = exact_induced_distribution(data, pmap)
                tv_induced = tv_distance(
                    induced, uniform_distribution(data.entity_names)
                )
    except Exception as exc:  # noqa: BLE001 - per-cell isolation is the contract
        return CellResult(
            dup_rate=dup, fraction=fraction, repeats=spec.repeats,
            mean_error=None, stderr_error=None, mean_trials_per_accept=None,
            tv_induced=None, seconds=time.perf_counter() - start,
            status="error", message=f"{type(exc).__name__}: {exc}",
        )
    arr = np.asarray(errors)
    stderr = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return CellResult(
        dup_rate=dup, fraction=fraction, repeats=spec.repeats,
        mean_error=float(arr.mean()), stderr_error=stderr,
        mean_trials_per_accept=float(np.mean(trials)), tv_induced=tv_induced,
        seconds=time.perf_counter() - start,
    )


def run_experiment(spec: ExperimentSpec) -> SampleReport:
    """Run every grid cell; failures land in the report, not as raises."""
    base_cache: dict = {}
    cells = []
    cell_index = 0
    for dup in spec.dup_rates:
        for fraction in spec.sweep:
            cells.append(_run_cell(spec, dup, fraction, cell_index, base_cache))
            cell_index += 1
    return SampleReport(spec=spec, cells=tuple(cells))


def uniform_baseline_error(data: Dataset, p: int, seed: int) -> float:
    """Relative error of a direct uniform record subsample of size p.

    The oracle baseline for duplicate-free datasets: rejection sampling
    cannot beat drawing records uniformly when every record is its own
    entity.
    """
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, data.n, size=p)
    return relative_error(
        float(data.entity_values().mean()), float(data.values[rows].mean())
    )


def _invert_planner(m_raw: Callable[[float], float], m: int) -> float:
    """Accuracy, at most 1, at which a planner's un-rounded sample size
    ``m_raw(epsilon)`` is ``m``.

    Found by fixed-point iteration: epsilon appears inside a log term of
    the planners' formulas, so they have no closed-form inverse.
    """
    eps = 1.0
    for _ in range(100):
        at = min(eps, 0.999)
        prev, eps = eps, min(math.sqrt(m_raw(at) / m) * at, 1.0)
        if abs(eps - prev) < 1e-12:
            break
    return eps


def balanced_error_bound(m: int, eta: float, delta: float,
                         n_entities: int | None = None) -> float:
    """Accuracy the balanced planner promises for a given sample size."""
    return _invert_planner(
        lambda eps: plan_sample_size(eps, delta, eta, n_entities).m_raw, m)


def ssc_error_bound(m_pairs: int, n_candidates: int, delta: float) -> float:
    """Pair-loss accuracy a given pair budget buys in candidate selection."""
    if m_pairs < 1 or n_candidates < 1:
        raise ValueError("need a positive budget and candidate count")
    return math.sqrt((math.log(max(n_candidates, 2)) + math.log(2.0 / delta))
                     / m_pairs)


def gmm_error_bound(m: int, tau: float, eta_min: float, dim: int, k: int,
                    delta: float) -> float:
    """Accuracy the mixture planner promises for a given fit-sample size."""
    return _invert_planner(
        lambda eps: plan_gmm(eps, delta, tau, eta_min, dim, k).m_raw, m)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def emit_report(report: SampleReport, out_dir: str,
                bounds: bool = False,
                baseline_csv: str | None = None) -> dict:
    """Write cells.csv and summary.json under ``out_dir``.

    The CSV is byte-deterministic for a fixed spec and seed (timings live
    only in the JSON summary).  ``bounds`` adds a planner-derived accuracy
    column; ``baseline_csv`` merges an external comparison column by
    (dup_rate, fraction), for published baseline numbers.
    """
    import os

    os.makedirs(out_dir, exist_ok=True)
    baseline: dict[tuple[str, str], str] = {}
    if baseline_csv is not None:
        with open(baseline_csv, "r", encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                key = (_fmt(float(row["dup_rate"])), _fmt(float(row["fraction"])))
                baseline[key] = row["error"]
    header = ["method", "dup_rate", "fraction", "repeats", "mean_error",
              "stderr_error", "accuracy", "mean_trials_per_accept", "tv_induced",
              "status", "message"]
    if bounds:
        header.append("error_bound")
    if baseline:
        header.append("baseline_error")
    spec = report.spec
    cells_path = os.path.join(out_dir, "cells.csv")
    with open(cells_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for cell in report.cells:
            accuracy = None if cell.mean_error is None else 1.0 - cell.mean_error
            row = [spec.method, _fmt(cell.dup_rate), _fmt(cell.fraction),
                   cell.repeats, _fmt(cell.mean_error), _fmt(cell.stderr_error),
                   _fmt(accuracy), _fmt(cell.mean_trials_per_accept),
                   _fmt(cell.tv_induced), cell.status, cell.message]
            if bounds:
                row.append(_fmt(_cell_bound(spec, cell)))
            if baseline:
                row.append(baseline.get(
                    (_fmt(cell.dup_rate), _fmt(cell.fraction)), ""))
            writer.writerow(row)
    summary = {
        "spec": {k: v for k, v in vars(spec).items()
                 if k not in ("schema", "method_params")},
        "cells_csv": cells_path,
        "n_cells": len(report.cells),
        "n_failed": len(report.failed_cells),
        "seconds_per_cell": [round(c.seconds, 3) for c in report.cells],
        "total_seconds": round(sum(c.seconds for c in report.cells), 3),
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return summary


def save_report(report: SampleReport, path: str) -> None:
    """Persist a run so `emit_report` can re-render it with other options."""
    payload = {"spec": vars(report.spec),
               "cells": [vars(c) for c in report.cells]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_report(path: str) -> SampleReport:
    """The run that ``save_report`` wrote to ``path``; ValueError naming
    the file for a report, spec or cell that is not a JSON object with
    its dataclass's fields."""
    payload = _json_fields(path, SampleReport, "report", ValueError)
    spec = _object_fields(payload["spec"], ExperimentSpec,
                          f"the spec of report file {path}", ValueError)
    if not isinstance(payload["cells"], list):
        raise ValueError(f"the cells of report file {path} must be a JSON list")
    cells = tuple(
        CellResult(**_object_fields(c, CellResult,
                                    f"cell {i} of report file {path}", ValueError))
        for i, c in enumerate(payload["cells"]))
    return SampleReport(spec=ExperimentSpec(**spec), cells=cells)


def _cell_bound(spec: ExperimentSpec, cell: CellResult) -> float | None:
    """Planner accuracy for a cell's sample size, when parameters allow."""
    params = spec.method_params
    delta = float(params.get("delta", 0.1))
    name, gen_params = _parse_generator(spec.dataset)
    if name == "dispersed":
        n = int(gen_params.get("n_entities", 25000)) * int(
            gen_params.get("mean_freq", 40))
    elif name == "balanced":
        n = int(gen_params.get("n_rows", 0))
    else:
        return None
    if n <= 0:
        return None
    m = max(1, math.ceil(cell.fraction * n))
    if spec.method == "balanced":
        eta = params.get("eta")
        if eta is None:
            return None
        return balanced_error_bound(m, float(eta), delta)
    if spec.method == "lsh":
        return ssc_error_bound(m, int(params.get("k_max", 4)), delta)
    tau = params.get("tau")
    eta_min = params.get("eta_min")
    if tau is None or eta_min is None:
        return None
    return gmm_error_bound(m, float(tau), float(eta_min),
                           int(params.get("dim", 1)), int(params.get("k", 2)),
                           delta)
