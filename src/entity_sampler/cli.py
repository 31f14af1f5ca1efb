"""Command line front end.

Subcommands mirror the pipeline: ``ingest`` validates a CSV, ``inject``
adds duplicate copies, ``estimate`` writes a probability-map artifact with
one of the three estimators, ``sample`` rejection-samples against such an
artifact, ``bench`` runs an experiment grid from a JSON config, and
``report`` re-renders a saved run.  All artifacts are CSV or JSON.
The function ``estimate`` runs any of the three estimators in one call.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .balanced import estimate_probs_balanced, plan_sample_size
from .blocking import Blocking, LshConfig, lsh_partition
from .dataset import (
    CsvSchema,
    Dataset,
    DatasetError,
    float_cells,
    ingest_csv,
    integer,
    scalar_cells,
    write_csv_columns,
)
from .gmm import CollapseError, EmResult, MixtureModel, em_fit, estimate_probs_gmm
from .lsh_pipeline import LshEstimate, estimate_probs_lsh
from .rejection import ProbabilityMap, SampleBudgetError, sample_clean
from .ssc import SameClusterOracle

__all__ = ["Estimate", "estimate", "main"]


def _load_dataset(args) -> Dataset:
    schema = CsvSchema.from_json(args.schema)
    return ingest_csv(args.data, schema)


def _dataset_stats(data: Dataset) -> dict:
    stats = {
        "records": data.n,
        "distinct_contents": int(data.dedup_freqs.shape[0]),
        "has_features": data.features is not None,
        "has_tokens": data.tokens is not None,
        "has_values": data.values is not None,
    }
    if data.entity_labels is not None:
        stats["entities"] = len(data.entity_names)
        stats["eta"] = float(data.entity_freqs.min() / data.n)
    return stats


def _write_dataset_csv(data: Dataset, path: str) -> None:
    """Write a feature dataset back out with a generated header.

    Token datasets cannot round-trip (ingestion keeps n-gram sets, not the
    original text), so they are rejected.
    """
    if data.features is None:
        raise DatasetError("only feature datasets can be written back to CSV")
    header = ["id"] + [f"f{j}" for j in range(data.features.shape[1])]
    columns = [scalar_cells(data.ids), *map(float_cells, data.features.T)]
    if data.entity_labels is not None:
        header.append("entity")
        columns.append(scalar_cells(data.entity_labels))
    if data.values is not None:
        header.append("value")
        columns.append(float_cells(data.values))
    write_csv_columns(path, header, columns)
    schema = {
        "feature_cols": [f"f{j}" for j in range(data.features.shape[1])],
        "id_col": "id",
    }
    if data.entity_labels is not None:
        schema["entity_col"] = "entity"
    if data.values is not None:
        schema["value_col"] = "value"
    with open(path + ".schema.json", "w", encoding="utf-8") as fh:
        json.dump(schema, fh, indent=2)
        fh.write("\n")


def _cmd_ingest(args) -> int:
    data = _load_dataset(args)
    if args.out:
        _write_dataset_csv(data, args.out)
    json.dump(_dataset_stats(data), sys.stdout, indent=2)
    print()
    return 0


def _cmd_inject(args) -> int:
    from . import bench as bench_mod

    data = _load_dataset(args)
    dirty = bench_mod.inject_duplicates(data, args.rate, args.profile, args.seed)
    _write_dataset_csv(dirty, args.out)
    json.dump(
        {"records_in": data.n, "records_out": dirty.n,
         "added": dirty.n - data.n},
        sys.stdout, indent=2,
    )
    print()
    return 0


class _InteractiveOracle:
    """Asks the terminal whether two records are duplicates."""

    def __init__(self, data: Dataset) -> None:
        self._ids = data.ids

    def __call__(self, i: int, j: int) -> bool:
        a, b = self._ids[i], self._ids[j]
        while True:
            answer = input(f"same entity? [{a}] vs [{b}] (y/n): ").strip().lower()
            if answer in ("y", "yes"):
                return True
            if answer in ("n", "no"):
                return False


@dataclass(frozen=True, eq=False)
class Estimate:
    """A probability map plus what its method computed on the way."""

    pmap: ProbabilityMap
    fit: EmResult | None = None  # gmm, when it fits its model
    config: LshConfig | None = None  # lsh
    blocking: Blocking | None = None  # lsh
    lsh: LshEstimate | None = None  # lsh


def estimate(data: Dataset, method: str, seed: int, *, m: int | None = None,
             oracle: Callable[[int, int], bool] | None = None,
             model: MixtureModel | None = None, k: int = 2, max_iter: int = 200,
             tol: float = 1e-6, lam: float = 0.2, delta: float = 0.1,
             k_min: int = 1, k_max: int = 4, budget: int = 1000,
             mu_radius: float = 1.0) -> Estimate:
    """Estimate every record's probability with ``method``.

    balanced draws ``m`` records.  gmm scores with ``model``, or with the
    one EM fits (``k``, ``max_iter``, ``tol``) on ``m`` records drawn
    without replacement, or on all when ``m`` is None.  lsh blocks with
    minhash on tokens, else hyperplanes (``lam``, ``delta``), and clusters
    the vectors (``k_min``, ``k_max``, ``budget``, ``mu_radius``) against
    ``oracle``, by default the entity labels.  A block whose radius forest
    fits its budget is clustered by the oracle's answers on the forest's
    edges alone, and ``k_max`` does not cap its cluster count; a
    two-record block within ``mu_radius`` is such a block.
    ``k_min``..``k_max`` bound the k-means candidates of any other block,
    and ``k_max`` = 1 asks nothing.  A method ignores the other methods'
    keywords; a count it reads (``k``, ``max_iter``, ``k_min``, ``k_max``,
    ``budget``) that is not an integer raises ValueError.  The layers are
    looked up as this module's globals at call time.
    """
    if method == "balanced":
        if m is None:
            raise ValueError("balanced estimation needs a sample size m")
        return Estimate(estimate_probs_balanced(data, m, seed))
    if method == "gmm":
        fit = None
        if model is None:
            x = data
            if m is not None and data.features is not None:
                rng = np.random.default_rng(seed)
                x = data.features[rng.choice(data.n, min(m, data.n), replace=False)]
            fit = em_fit(x, integer(k, "k"), seed=seed,
                         max_iter=integer(max_iter, "max_iter"), tol=float(tol))
            model = fit.model
        return Estimate(estimate_probs_gmm(data, model), fit=fit)
    if method != "lsh":
        raise ValueError(f"unknown method {method!r}")
    if data.features is None:
        raise DatasetError("clustering requires vector records")
    k_range = (integer(k_min, "k_min"), integer(k_max, "k_max"))
    budget = integer(budget, "budget")
    if oracle is None:
        if data.entity_labels is None:
            raise DatasetError("lsh estimation needs an entity column as oracle")
        oracle = SameClusterOracle(labels=data.entity_codes.tolist())
    cfg = LshConfig.plan(float(lam), float(delta),
                         family="minhash" if data.tokens is not None else "hyperplane")
    blocking = lsh_partition(data, cfg, seed)
    est = estimate_probs_lsh(data, blocking, k_range, budget, oracle, seed,
                             mu_radius=float(mu_radius))
    return Estimate(est.pmap, config=cfg, blocking=blocking, lsh=est)


def _cmd_estimate(args) -> int:
    data = _load_dataset(args)
    report: dict = {"records": data.n}
    m = args.m
    if args.method == "balanced" and m is None:
        if args.eta is None:
            raise DatasetError("balanced planning needs --eta (or give --m)")
        m = plan_sample_size(args.epsilon, args.delta, args.eta, args.entities,
                             args.slack).m
    model = None
    if args.method == "gmm" and args.model_in:
        model = MixtureModel.from_json(args.model_in)
    est = estimate(
        data, args.method, args.seed, m=m if args.method == "balanced" else None,
        oracle=_InteractiveOracle(data) if args.oracle == "interactive" else None,
        model=model, k=args.k, max_iter=args.iters, tol=args.tol, lam=args.lam,
        delta=args.delta, k_min=args.k_min, k_max=args.k_max,
        budget=args.pair_budget, mu_radius=args.mu_radius,
    )
    if est.fit is not None:
        model = est.fit.model
        report.update(em_iterations=est.fit.iterations,
                      em_converged=est.fit.converged,
                      em_restarts=est.fit.restarts_used)
    if args.model_out and model is not None:
        model.to_json(args.model_out)
    if args.blocking_report and est.lsh is not None:
        q = est.blocking.q
        sizes, counts = np.unique(est.blocking.sizes, return_counts=True)
        with open(args.blocking_report, "w", encoding="utf-8") as fh:
            json.dump(
                {"q": q, "n_blocks": q,
                 "rows": est.config.rows, "bands": est.config.bands,
                 "block_size_histogram": dict(
                     zip(map(str, sizes.tolist()), counts.tolist())),
                 "oracle_queries": int(est.lsh.outcomes["queries"].sum()),
                 "oracle_inferred": int(est.lsh.outcomes["inferred"].sum())},
                fh, indent=2,
            )
            fh.write("\n")
    est.pmap.to_csv(args.out, data)
    report.update(floor=est.pmap.floor, artifact=args.out)
    json.dump(report, sys.stdout, indent=2)
    print()
    return 0


def _cmd_sample(args) -> int:
    data = _load_dataset(args)
    pmap = ProbabilityMap.from_csv(args.map)
    if pmap.ids is not None:
        # an id column is str text already; generated ids (np.arange) are
        # compared as the text the map artifact holds
        ids = data.ids if data.ids.dtype == object else data.ids.astype(str)
        if not np.array_equal(pmap.ids, ids):
            raise DatasetError("probability map was built for a different dataset")
    result = sample_clean(data, pmap, args.p, args.seed)
    picked = result.record_indices
    header = ["record_id"]
    columns = [data.ids[picked].tolist()]
    if data.entity_labels is not None:
        header.append("entity")
        columns.append(data.entity_labels[picked].tolist())
    if data.values is not None:
        header.append("value")
        columns.append(float_cells(data.values[picked]))
    write_csv_columns(args.out, header, columns)
    json.dump(
        {"requested": args.p, "accepted": result.size, "trials": result.trials,
         "acceptance_rate": result.size / result.trials,
         "trials_per_accept": result.trials_per_accept,
         "distinct_entities": int(np.count_nonzero(result.per_entity_counts))},
        sys.stdout, indent=2,
    )
    print()
    return 0


def _cmd_bench(args) -> int:
    import os

    from . import bench as bench_mod

    spec = bench_mod.ExperimentSpec.from_json(args.config)
    report = bench_mod.run_experiment(spec)
    os.makedirs(args.out, exist_ok=True)
    bench_mod.save_report(report, os.path.join(args.out, "report.json"))
    summary = bench_mod.emit_report(report, args.out, bounds=args.bounds,
                                    baseline_csv=args.baseline)
    json.dump(summary, sys.stdout, indent=2)
    print()
    if report.failed_cells:
        for cell in report.failed_cells:
            print(
                f"cell dup={cell.dup_rate} fraction={cell.fraction} failed: "
                f"{cell.message}",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_report(args) -> int:
    from . import bench as bench_mod

    report = bench_mod.load_report(args.report)
    summary = bench_mod.emit_report(report, args.out, bounds=args.bounds,
                                    baseline_csv=args.baseline)
    json.dump(summary, sys.stdout, indent=2)
    print()
    return 1 if report.failed_cells else 0


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="dataset CSV path")
    p.add_argument("--schema", required=True, help="schema JSON path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entity-sampler",
        description="Estimate duplicate-record frequencies and sample "
        "entities nearly uniformly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a CSV dataset")
    _add_data_args(p)
    p.add_argument("--out", help="write a normalized copy")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("inject", help="append duplicate copies")
    _add_data_args(p)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--profile", choices=("tpch", "uniform", "arbitrary"),
                   default="tpch")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_inject)

    p = sub.add_parser("estimate", help="write a probability-map artifact")
    _add_data_args(p)
    p.add_argument("--method", choices=("balanced", "lsh", "gmm"),
                   required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--m", type=int, help="balanced: sample size")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--eta", type=float, help="balanced: balance level")
    p.add_argument("--entities", type=int, help="balanced: known entity count")
    p.add_argument("--slack", type=float, default=1.0,
                   help="balanced: planner slack constant")
    p.add_argument("--lambda", dest="lam", type=float, default=0.2,
                   help="lsh: distance threshold")
    p.add_argument("--k-min", type=int, default=1,
                   help="lsh: the least k of the k-means candidates, used "
                        "where a block's radius forest does not fit the pair "
                        "budget")
    p.add_argument("--k-max", type=int, default=4,
                   help="lsh: the largest k of the k-means candidates, used "
                        "where a block's radius forest does not fit the pair "
                        "budget; the forest's answers are not capped by it, and "
                        "1 asks nothing")
    p.add_argument("--pair-budget", type=int, default=1000)
    p.add_argument("--oracle", choices=("labels", "interactive"),
                   default="labels",
                   help="lsh: who answers same-entity questions; a block "
                        "whose radius forest fits the pair budget is asked its "
                        "forest's edges, nearest first, and grouped by the "
                        "\"same\" answers; any other block is not asked a pair "
                        "that earlier answers settle by transitivity, so "
                        "answers must be consistent")
    p.add_argument("--mu-radius", type=float, default=1.0,
                   help="lsh: garbage prefilter radius")
    p.add_argument("--blocking-report", help="lsh: blocking stats JSON path")
    p.add_argument("--k", type=int, default=2, help="gmm: component count")
    p.add_argument("--iters", type=int, default=200, help="gmm: max iterations")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="gmm: stop once an EM iteration raises the mean "
                        "per-record log-likelihood by less than this")
    p.add_argument("--model-in", help="gmm: reuse a fitted model JSON")
    p.add_argument("--model-out", help="gmm: persist the fitted model")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("sample", help="rejection-sample records")
    _add_data_args(p)
    p.add_argument("--map", required=True, help="probability-map artifact")
    p.add_argument("--p", type=int, required=True, help="sample size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("bench", help="run an experiment grid")
    p.add_argument("--config", required=True, help="experiment JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--bounds", action="store_true",
                   help="add planner bound column")
    p.add_argument("--baseline", help="merge an external baseline CSV")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("report", help="re-render a saved run")
    p.add_argument("--report", required=True, help="report.json path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--bounds", action="store_true")
    p.add_argument("--baseline", help="merge an external baseline CSV")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DatasetError, ValueError, OSError, CollapseError,
            SampleBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
