#!/usr/bin/env python3
"""In-process A/B of the LSH estimate between two source trees.

Loads the ``entity_sampler`` package of each tree under its own name
(``ab_old`` and ``ab_new``), so both run in one interpreter on the same
machine state, and times ``lsh_partition`` + ``estimate_probs_lsh`` on

* the benchmark's ``lsh-vectors`` inputs: planted clusters (40 entities of
  50 records, separation 10, d = 2, 5 singletons) at generator seeds
  4100-4107, hyperplane blocking at seed s + 1, estimate at seed s + 2;
* ``lsh-text`` corpora: ``duplicate_text_corpus(5000, 0.3)`` at generator
  seeds 0-2, minhash blocking at seed g + 1, estimate at seed g + 2;

both with lambda = 0.2, delta = 0.1, k in [1, 4], a pair budget of 2,000
and the entity labels as the oracle.  Each tree builds its own input.  The
input built second partitions a few per cent slower even when the trees
are the same, so the inputs are built twice, once in each order, each
serving half of the repeats, and the trees alternate which runs first.
Per input it prints the median milliseconds of partition + estimate, of
the partition alone and of the estimate alone for each tree, each tree's
total-variation distance between the entity distribution its map induces
and the uniform one, its oracle call count, and, each in its own column,
whether the two trees agree on the ``group_ids`` (``groups``), on
``pmap.dense`` (``map``), on the ``outcomes`` rows and on the oracle call
counts (``calls``).  A change of questions by design then still shows
whether the groups moved, and whether its TV and oracle calls stayed equal
or improved.  The exit status is 0 when, on every input, the new tree's
TV is no higher (up to 1e-12 of rounding) and it asks no more oracle
calls.

Example::

    python3 scripts/ab_lsh.py ../parent/src src --repeats 15
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import os
import statistics
import sys
import time

import numpy as np

VECTOR_SEEDS = tuple(range(4100, 4108))
TEXT_SEEDS = (0, 1, 2)
K_RANGE = (1, 4)
BUDGET = 2000


def load(src: str, name: str):
    """The ``entity_sampler`` package under ``src``, imported as ``name``."""
    root = os.path.join(os.path.abspath(src), "entity_sampler")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(root, "__init__.py"), submodule_search_locations=[root])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {mod: importlib.import_module(f"{name}.{mod}")
            for mod in ("blocking", "dataset", "lsh_pipeline", "rejection", "ssc",
                        "synth")}


def inputs(vector_seeds, text_seeds):
    """(label, build(pkg) -> data, family, partition seed, estimate seed)."""
    for s in vector_seeds:
        yield (f"lsh-vectors {s}",
               lambda pkg, s=s: pkg["synth"].planted_clusters(40, 50, 10.0, 2, seed=s,
                                                              n_singletons=5),
               "hyperplane", s + 1, s + 2)
    for g in text_seeds:
        yield (f"lsh-text {g}",
               lambda pkg, g=g: pkg["synth"].duplicate_text_corpus(5000, 0.3, seed=g),
               "minhash", g + 1, g + 2)


def run(pkg, data, family: str, s_block: int, s_est: int):
    """One partition + estimate: (partition s, estimate s, result, oracle calls)."""
    cfg = pkg["blocking"].LshConfig.plan(0.2, 0.1, family=family)
    oracle = pkg["ssc"].SameClusterOracle(tuple(data.entity_codes))
    gc.collect()
    t0 = time.perf_counter()
    blocks = pkg["blocking"].lsh_partition(data, cfg, seed=s_block)
    t1 = time.perf_counter()
    est = pkg["lsh_pipeline"].estimate_probs_lsh(data, blocks, K_RANGE, BUDGET,
                                                 oracle, seed=s_est)
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, est, oracle.queries


def tv_to_uniform(pkg, data, est) -> float:
    """TV between the entity distribution the map induces and uniform."""
    induced = pkg["rejection"].exact_induced_distribution(data, est.pmap)
    return pkg["dataset"].tv_distance(
        induced, pkg["dataset"].uniform_distribution(induced.support))


# per-output columns: whether the two trees' results agree on each
OUTPUTS = {
    "groups": lambda est: est.group_ids.tobytes(),
    "map": lambda est: est.pmap.dense.tobytes(),
    "outcomes": lambda est: est.outcomes.tolist(),
}


def agree(a, b) -> dict[str, bool]:
    """Per output (and the oracle call counts), whether runs a and b agree."""
    (_, _, ea, qa), (_, _, eb, qb) = a, b
    same = {name: key(ea) == key(eb) for name, key in OUTPUTS.items()}
    same["calls"] = qa == qb
    return same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src", help="the src directory of the first tree")
    ap.add_argument("new_src", help="the src directory of the second tree")
    ap.add_argument("--repeats", type=int, default=9,
                    help="timed runs per tree and input (default 9)")
    ap.add_argument("--vector-seeds", type=int, nargs="*", default=VECTOR_SEEDS)
    ap.add_argument("--text-seeds", type=int, nargs="*", default=TEXT_SEEDS)
    args = ap.parse_args(argv)
    trees = {"old": load(args.old_src, "ab_old"), "new": load(args.new_src, "ab_new")}
    columns = [*OUTPUTS, "calls"]
    print(f"{'input':<17} {'old ms':>8} {'new ms':>8} {'new/old':>8} "
          f"{'old part':>8} {'new part':>8} {'old est':>8} {'new est':>8} "
          f"{'old TV':>7} {'new TV':>7} {'old q':>6} {'new q':>6}  "
          + " ".join(f"{name:>8}" for name in columns))
    all_agree = no_worse = True
    for label, build, family, s_block, s_est in inputs(args.vector_seeds,
                                                       args.text_seeds):
        times = {side: ([], [], []) for side in trees}
        last = {}
        # the input built second partitions a few per cent slower, so each
        # order of building serves half of the repeats
        for half, order in enumerate((("old", "new"), ("new", "old"))):
            data = {side: build(trees[side]) for side in order}
            for rep in range(half, args.repeats, 2):
                for side in order if rep % 4 < 2 else order[::-1]:
                    last[side] = run(trees[side], data[side], family, s_block, s_est)
                    part, est = last[side][:2]
                    for clock, t in zip(times[side], (part + est, part, est)):
                        clock.append(t)
            if half == 0:  # the estimates are deterministic: score the first
                tv = {side: tv_to_uniform(trees[side], data[side], last[side][2])
                      for side in order}
            del data
        same = agree(last["old"], last["new"])
        calls = {side: last[side][3] for side in trees}
        all_agree &= all(same.values())
        no_worse &= tv["new"] <= tv["old"] + 1e-12 and calls["new"] <= calls["old"]
        total, part, est = ({side: 1e3 * statistics.median(t[c]) for side, t in times.items()}
                            for c in range(3))
        print(f"{label:<17} {total['old']:8.1f} {total['new']:8.1f} "
              f"{total['new'] / total['old']:8.3f} {part['old']:8.1f} "
              f"{part['new']:8.1f} {est['old']:8.1f} {est['new']:8.1f} "
              f"{tv['old']:7.4f} {tv['new']:7.4f} {calls['old']:6d} {calls['new']:6d}  "
              + " ".join(f"{'yes' if same[name] else 'NO':>8}" for name in columns),
              flush=True)
    print(f"outputs agree on every input: {'yes' if all_agree else 'NO'}")
    print(f"TV and oracle calls no worse on every input: {'yes' if no_worse else 'NO'}")
    return 0 if no_worse else 1


if __name__ == "__main__":
    sys.exit(main())
