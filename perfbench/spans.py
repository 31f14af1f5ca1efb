"""Spans and counters recorded around calls into entity_sampler's layers.

Nothing here changes the package: ``instrument`` swaps the module attributes
the pipeline looks up at call time (for example
``entity_sampler.lsh_pipeline.ssc_select``) for wrappers that time the call
and count what it returned, and puts the originals back on exit.  Every
wrapper records in ``finally`` so a call that raises (``ssc_select`` raising
``OracleBudgetError`` on a one-sided block) still contributes its time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from functools import cached_property

import numpy as np


class CountingOracle:
    """Same-cluster oracle over ground-truth label codes.

    Counts its calls itself, independent of the package's
    ``SameClusterOracle.queries``; with ``track_pairs`` it also keeps the
    distinct unordered pairs asked, which only the traced run needs.
    """

    def __init__(self, labels, track_pairs: bool = False) -> None:
        _, codes = np.unique(np.asarray(labels), return_inverse=True)
        self._codes = codes.tolist()
        self.queries = 0
        self.pairs = set() if track_pairs else None

    def __call__(self, i: int, j: int) -> bool:
        self.queries += 1
        if self.pairs is not None:
            self.pairs.add((i, j) if i < j else (j, i))
        return self._codes[i] == self._codes[j]


class Tracer:
    """Per-name totals of span time, self time, call counts and counters.

    Spans are aggregated in memory as they close: a span's self time is its
    duration minus the durations of the spans opened inside it.
    """

    def __init__(self) -> None:
        self.active = False
        self.oracle: CountingOracle | None = None
        self._stack: list[float] = []
        self.reset()

    def reset(self) -> None:
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counter = defaultdict(float)

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            children = self._stack.pop()
            self.total[name] += dt
            self.self_time[name] += dt - children
            self.calls[name] += 1
            if self._stack:
                self._stack[-1] += dt

    def add(self, name: str, value: float) -> None:
        if self.active:
            self.counter[name] += value

    def peak(self, name: str, value: float) -> None:
        if self.active:
            self.counter[name] = max(self.counter[name], value)

    def layer_metrics(self) -> dict:
        """The per-layer metrics of everything recorded since ``reset``."""
        t, c, n = self.total, self.counter, self.calls
        oracle = self.oracle
        queries = oracle.queries if oracle is not None else 0
        pairs = len(oracle.pairs) if oracle is not None and oracle.pairs is not None else 0
        return {
            "dataset.factorize_s": t["dataset.factorize"],
            "dataset.distinct_contents": c["dataset.distinct_contents"],
            "dataset.ingest_csv_s": t["dataset.ingest_csv"],
            "dataset.ingest_calls": n["dataset.ingest_csv"],
            "balanced.estimate_s": t["balanced.estimate"],
            "balanced.seen_contents": c["balanced.seen_contents"],
            "rejection.resolve_s": t["rejection.resolve"],
            "rejection.sample_clean_s": t["rejection.sample_clean"],
            "rejection.trials": c["rejection.trials"],
            "rejection.trials_per_accept": (
                c["rejection.trials"] / c["rejection.accepted"]
                if c["rejection.accepted"] else 0.0
            ),
            "rejection.map_write_s": t["rejection.map_write"],
            "rejection.map_read_s": t["rejection.map_read"],
            "blocking.minhash_s": t["blocking.minhash"],
            "blocking.hyperplane_s": t["blocking.hyperplane"],
            "blocking.partition_self_s": self.self_time["blocking.partition"],
            "blocking.blocks": c["blocking.blocks"],
            "blocking.max_block": c["blocking.max_block"],
            "blocking.multi_record_blocks": c["blocking.multi_record_blocks"],
            "clustering.neighbour_mask_s": t["clustering.neighbour_mask"],
            "clustering.kmeans_s": t["clustering.kmeans"],
            "clustering.kmeans_calls": n["clustering.kmeans"],
            "clustering.brute_force_calls": n["clustering.brute_force"],
            "clustering.lloyd_s": t["clustering.lloyd"],
            "ssc.select_s": t["ssc.select"],
            "ssc.select_calls": n["ssc.select"],
            "ssc.budget_errors": c["ssc.budget_errors"],
            "ssc.oracle_queries": c["ssc.oracle_queries"],
            "ssc.distinct_pair_ratio": pairs / queries if queries else 0.0,
            "lsh_pipeline.estimate_s": t["lsh_pipeline.estimate"],
            "lsh_pipeline.self_s": self.self_time["lsh_pipeline.estimate"],
            "gmm.em_fit_s": t["gmm.em_fit"],
            "gmm.em_iterations": c["gmm.em_iterations"],
            "gmm.em_converged": c["gmm.em_converged"],
            "gmm.density_s": t["gmm.density"],
            "cli.inject_s": t["cli.inject"],
            "cli.estimate_balanced_s": t["cli.estimate_balanced"],
            "cli.sample_balanced_s": t["cli.sample_balanced"],
            "cli.estimate_gmm_s": t["cli.estimate_gmm"],
            "cli.sample_gmm_s": t["cli.sample_gmm"],
        }


UNITS = {"_s": "s", "_pct": "%", "_ratio": "ratio", "_accept": "ratio",
         "_converged": "flag"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the layer entry points the pipeline calls; restore them on exit."""
    from entity_sampler import (balanced, blocking, cli, clustering, dataset,
                                lsh_pipeline, rejection, ssc)

    saved: list[tuple[object, str, object]] = []

    def swap(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def timed(owner, attr, span_name, after=None):
        orig = owner.__dict__[attr]

        def wrapper(*args, **kwargs):
            with tracer.span(span_name):
                out = orig(*args, **kwargs)
            if after is not None:
                after(out)
            return out

        swap(owner, attr, wrapper)

    def factorize(self):
        with tracer.span("dataset.factorize"):
            codes = factorize_orig.func(self)
        tracer.peak("dataset.distinct_contents", int(codes.max()) + 1)
        return codes

    factorize_orig = dataset.Dataset.__dict__["dedup_codes"]
    prop = cached_property(factorize)
    prop.__set_name__(dataset.Dataset, "dedup_codes")
    swap(dataset.Dataset, "dedup_codes", prop)

    timed(cli, "ingest_csv", "dataset.ingest_csv")

    def seen(pmap):
        tracer.add("balanced.seen_contents", len(pmap.by_code))

    for owner in (balanced, cli):
        timed(owner, "estimate_probs_balanced", "balanced.estimate", seen)

    def trials(result):
        tracer.add("rejection.trials", result.trials)
        tracer.add("rejection.accepted", result.size)

    for owner in (rejection, cli):
        timed(owner, "sample_clean", "rejection.sample_clean", trials)
    pmap_cls = rejection.ProbabilityMap
    timed(pmap_cls, "resolve", "rejection.resolve")
    timed(pmap_cls, "to_csv", "rejection.map_write")
    read_orig = pmap_cls.__dict__["from_csv"].__func__

    def from_csv(cls, path):
        with tracer.span("rejection.map_read"):
            return read_orig(cls, path)

    swap(pmap_cls, "from_csv", classmethod(from_csv))

    timed(blocking, "minhash_signatures", "blocking.minhash")
    timed(blocking, "hyperplane_signatures", "blocking.hyperplane")

    def blocks(result):
        sizes = np.array([b.size for b in result.blocks])
        tracer.add("blocking.blocks", sizes.size)
        tracer.peak("blocking.max_block", int(sizes.max()))
        tracer.add("blocking.multi_record_blocks", int((sizes > 1).sum()))

    for owner in (blocking, cli):
        timed(owner, "lsh_partition", "blocking.partition", blocks)

    for owner in (clustering, lsh_pipeline):
        timed(owner, "neighbour_mask", "clustering.neighbour_mask")
    timed(lsh_pipeline, "regularized_kmeans", "clustering.kmeans")
    timed(clustering, "brute_force_kmeans", "clustering.brute_force")
    timed(clustering, "lloyd_kmeans", "clustering.lloyd")

    select_orig = lsh_pipeline.__dict__["ssc_select"]

    def ssc_select(*args, **kwargs):
        before = tracer.oracle.queries if tracer.oracle is not None else 0
        try:
            with tracer.span("ssc.select"):
                return select_orig(*args, **kwargs)
        except ssc.OracleBudgetError:
            tracer.add("ssc.budget_errors", 1)
            raise
        finally:
            if tracer.oracle is not None:
                tracer.add("ssc.oracle_queries", tracer.oracle.queries - before)

    swap(lsh_pipeline, "ssc_select", ssc_select)
    for owner in (lsh_pipeline, cli):
        timed(owner, "estimate_probs_lsh", "lsh_pipeline.estimate")

    def em(result):
        tracer.add("gmm.em_iterations", result.iterations)
        tracer.add("gmm.em_converged", int(result.converged))

    timed(cli, "em_fit", "gmm.em_fit", em)
    timed(cli, "estimate_probs_gmm", "gmm.density")
    try:
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
