#!/usr/bin/env python3
"""Print one sha256 per output of the package, to show two trees agree.

Run it once per source tree, with that tree's ``src`` on PYTHONPATH, and
compare the lines: a change that should keep every output byte-identical
prints the same hashes.  It hashes, for one seed and size,

* the factorization of a dispersed table (``dedup_codes``,
  ``entity_codes``, ``entity_names``);
* the balanced ``by_code`` map of each sample fraction, and the
  ``sample_clean`` result drawn against it (indices, trials and counts);
* every file of an ``inject`` -> ``estimate --method balanced`` ->
  ``sample`` -> ``estimate --method gmm --model-out`` -> ``sample`` CLI run
  on that table written as CSV;
* on a near-duplicate text corpus (minhash blocking) and on planted 2-d and
  3-d vector clusters with singletons (hyperplane blocking), the LSH
  blocks, the ``estimate_probs_lsh`` ``group_ids``, map and outcome rows
  (block, queries, inferred, n_pos, n_neg), the ordered pairs the
  oracle was asked, and the same sequence with each pair's two records
  sorted (``asked_pairs``), which does not depend on which record of a
  pair is named first, at k in [1, 4] and a pair budget of 2,000;
* the same LSH lines for the text corpus at k in [2, 4] (``text-k2``),
  where pair blocks are asked with no ranking, for the text corpus after
  ``bench.inject_duplicates`` appends exact copies of 30 % of its records
  (``tpch`` profile, ``text-copies``), and for the 2-d clusters at
  a pair budget of a fifth of ``--entities`` (``vectors2d-starved``), too
  small for a block's radius forest (about one edge per record) to fit,
  so its k-means candidates are ranked, and for sparse 4-d clusters of 5
  records with singletons (``sparse4d``), whose entities the radius
  forest leaves in pieces;
* the token path, each row as ``sorted(data.tokens[i])``: the text
  corpus's minhash signature matrix (``minhash[text]``); the rows after
  ``bench.inject_duplicates`` (``tokens[text-copies]``); and a CSV of two
  text columns only, with empty, shorter-than-n and non-ASCII cells and
  cells that repeat, ingested at n = 3: its rows, ``dedup_codes`` and
  signatures (``tokens[text-only]``);
* direct ``ssc_select`` reports (winner, losses and counts) and the
  ordered pairs the oracle was asked, on fixed label sets that reach each
  of its branches: every pair within the budget (``ssc[exhaustive]``);
  one entity whose draws cover every pair before the cap, ranked exactly
  (``ssc[cover]``); one entity of 60 records whose draws stop at the cap
  (``ssc[cap]``); and 3 entities of 40 records at a budget of 500 with two
  candidates, whose draws fill both sides before they cover every pair or
  reach the cap (``ssc[filled]``);
* an ``em_fit`` on a 3-d sample shifted by 1e6 (log-likelihood trace,
  parameters, iteration count) and ``lloyd_kmeans`` labels on shifted 3-d
  and 12-d samples;
* an ``em_fit`` and its ``estimate_probs_gmm`` map, resolved per record, on
  a dispersed table after ``bench.inject_duplicates`` appends exact copies
  of 30 % of its records (``gmm[copies]``), where EM weights each distinct
  row by its copy count;
* ``regularized_kmeans`` labels at k = 1..4 on 3 distinct 2-d points with
  4 copies each (``kmeans[copies]``), or the name of the exception a call
  raises.

Example::

    PYTHONPATH=src python3 scripts/output_hashes.py --seed 3 --entities 2000
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import os
import tempfile

import numpy as np

from entity_sampler import (balanced, bench, blocking, cli, clustering, dataset,
                            gmm, lsh_pipeline, rejection, ssc, synth)

FRACTIONS = (0.01, 0.02, 0.04, 0.06, 0.08, 0.1)
# name: (labels, per-side pair budget, candidates) of the ssc_select lines,
# the candidates taken in the order one cluster, the labels, all garbage;
# 28 pairs fit a budget of 30, the 66 pairs of 12 records fall under the
# cap of 1,011 draws at a budget of 5, the 1,770 pairs of 60 records exceed
# the cap of 607 draws at a budget of 3, and 3 classes of 40 records fill
# 500 draws a side in about 1,500 draws, far from their 7,140 pairs
SSC_CASES = {
    "exhaustive": ([0, 0, 1, 1, 1, 2, 2, 3], 30, 3),
    "cover": ([4] * 12, 5, 3),
    "cap": ([7] * 60, 3, 3),
    "filled": ([0] * 40 + [1] * 40 + [2] * 40, 500, 2),
}


def digest(*parts) -> str:
    """sha256 over arrays (dtype, shape and bytes) and other values (repr)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def cli_run(data, seed: int, workdir: str) -> None:
    clean = os.path.join(workdir, "clean.csv")
    cli._write_dataset_csv(data, clean)
    dirty = os.path.join(workdir, "dirty.csv")
    on_dirty = ["--data", dirty, "--schema", dirty + ".schema.json"]
    m, p = str(max(data.n // 10, 1)), str(max(data.n // 20, 1))
    path = lambda name: os.path.join(workdir, name)
    steps = [
        ["inject", "--data", clean, "--schema", clean + ".schema.json",
         "--rate", "0.1", "--profile", "tpch", "--seed", str(seed), "--out", dirty],
        ["estimate", *on_dirty, "--method", "balanced", "--m", m,
         "--seed", str(seed + 1), "--out", path("balanced.map.csv")],
        ["sample", *on_dirty, "--map", path("balanced.map.csv"), "--p", p,
         "--seed", str(seed + 2), "--out", path("balanced.sample.csv")],
        ["estimate", *on_dirty, "--method", "gmm", "--k", "3",
         "--seed", str(seed + 3), "--model-out", path("model.json"),
         "--out", path("gmm.map.csv")],
        ["sample", *on_dirty, "--map", path("gmm.map.csv"), "--p", p,
         "--seed", str(seed + 4), "--out", path("gmm.sample.csv")],
    ]
    for argv in steps:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"cli {argv[0]} exited {code}")


class RecordingOracle:
    """Same-cluster oracle over entity labels that keeps each pair asked."""

    def __init__(self, labels) -> None:
        self._labels = list(labels)
        self.asked: list[tuple[int, int]] = []

    def __call__(self, i: int, j: int) -> bool:
        self.asked.append((i, j))
        return self._labels[i] == self._labels[j]


def lsh_lines(name: str, data, family: str, seed: int,
              k_range: tuple[int, int] = (1, 4), budget: int = 2000) -> None:
    cfg = blocking.LshConfig.plan(0.2, 0.1, family=family)
    blocks = blocking.lsh_partition(data, cfg, seed=seed)
    print(f"lsh[{name}].blocks "
          f"{digest(np.concatenate(blocks.blocks), [b.size for b in blocks.blocks])}")
    oracle = RecordingOracle(data.entity_labels)
    est = lsh_pipeline.estimate_probs_lsh(data, blocks, k_range, budget, oracle,
                                          seed=seed + 1)
    print(f"lsh[{name}].group_ids {digest(est.group_ids)}")
    print(f"lsh[{name}].dense {digest(est.pmap.dense)}")
    print(f"lsh[{name}].outcomes {digest(est.outcomes.tolist())}")
    print(f"lsh[{name}].asked {digest(oracle.asked)}")
    print(f"lsh[{name}].asked_pairs "
          f"{digest([(min(pair), max(pair)) for pair in oracle.asked])}")


def token_rows(data) -> list[list[str]]:
    return [sorted(data.tokens[i]) for i in range(data.n)]


def signatures(data, seed: int) -> np.ndarray:
    return blocking.minhash_signatures(data.tokens, blocking.LshConfig.plan(0.2, 0.1).k,
                                       seed)


def text_only_lines(n_rows: int, seed: int, workdir: str) -> None:
    """Token lines of a CSV whose only content is two text columns."""
    rng = np.random.default_rng(seed)
    # a space, a comma, a quote and characters beyond ASCII; short cells
    # from a small alphabet repeat, so some rows share their tokens
    alphabet = np.array(list('ab ,"\u00e9\U0001f600'))
    columns = [["".join(rng.choice(alphabet, size=int(rng.integers(0, 7))))
                for _ in range(n_rows)] for _ in range(2)]
    path = os.path.join(workdir, "text-only.csv")
    dataset.write_csv_columns(path, ["name", "street"], columns)
    data = dataset.ingest_csv(path, dataset.CsvSchema(text_cols=("name", "street")))
    print(f"tokens[text-only].rows {digest(token_rows(data))}")
    print(f"tokens[text-only].dedup_codes {digest(data.dedup_codes)}")
    print(f"tokens[text-only].minhash {digest(signatures(data, seed + 1))}")


def ssc_lines(seed: int) -> None:
    for name, (labels, m_pairs, n_candidates) in SSC_CASES.items():
        n = len(labels)
        candidates = [clustering.Clustering(np.zeros(n, dtype=np.int64)),
                      clustering.Clustering(np.unique(labels, return_inverse=True)[1]),
                      clustering.Clustering(-np.arange(1, n + 1))][:n_candidates]
        oracle = RecordingOracle(labels)
        rep = ssc.ssc_select(candidates, n, oracle, m_pairs, seed=seed)
        counts = (rep.queries, rep.inferred, rep.n_pos, rep.n_neg)
        print(f"ssc[{name}].report {digest(rep.winner, rep.losses, counts)}")
        print(f"ssc[{name}].asked {digest(oracle.asked)}")


def shifted_sample(n: int, dim: int, seed: int) -> np.ndarray:
    """Three unit-variance clusters 10 apart in ``dim`` coordinates, every
    coordinate shifted by 1e6."""
    rng = np.random.default_rng(seed)
    centres = rng.normal(0.0, 10.0, size=(3, dim))
    return 1e6 + centres[rng.integers(3, size=n)] + rng.normal(size=(n, dim))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--entities", type=int, default=2000,
                    help="entities of the dispersed table (about 40 records each)")
    args = ap.parse_args()

    data = synth.dispersed_dataset(args.entities, 40, 0.3, seed=args.seed)
    print(f"records {data.n}")
    print(f"dedup_codes {digest(data.dedup_codes)}")
    print(f"entity_codes {digest(data.entity_codes)}")
    print(f"entity_names {digest(tuple(data.entity_names))}")
    for i, f in enumerate(FRACTIONS):
        m = math.ceil(f * data.n)
        pmap = balanced.estimate_probs_balanced(data, m, seed=args.seed + 10 + i)
        res = rejection.sample_clean(data, pmap, p=m, seed=args.seed + 20 + i)
        print(f"balanced[{f}].by_code {digest(pmap.by_code)}")
        print(f"sample_clean[{f}] "
              f"{digest(res.record_indices, res.trials, res.per_entity_counts)}")
    with tempfile.TemporaryDirectory() as workdir:
        cli_run(data, args.seed, workdir)
        for name in sorted(os.listdir(workdir)):
            with open(os.path.join(workdir, name), "rb") as fh:
                print(f"cli {name} {hashlib.sha256(fh.read()).hexdigest()}")

    text = synth.duplicate_text_corpus(args.entities, 0.3, seed=args.seed)
    lsh_lines("text", text, "minhash", args.seed + 30)
    lsh_lines("text-k2", text, "minhash", args.seed + 30, k_range=(2, 4))
    copies = bench.inject_duplicates(text, 0.3, "tpch", args.seed + 31)
    lsh_lines("text-copies", copies, "minhash", args.seed + 30)
    print(f"minhash[text] {digest(signatures(text, args.seed + 30))}")
    print(f"tokens[text-copies].rows {digest(token_rows(copies))}")
    with tempfile.TemporaryDirectory() as workdir:
        text_only_lines(args.entities, args.seed + 36, workdir)
    for dim in (2, 3):
        planted = synth.planted_clusters(max(args.entities // 50, 2), 50, 10.0, dim,
                                         seed=args.seed + dim, n_singletons=5)
        lsh_lines(f"vectors{dim}d", planted, "hyperplane", args.seed + 30 + dim)
        if dim == 2:
            lsh_lines("vectors2d-starved", planted, "hyperplane", args.seed + 32,
                      budget=max(args.entities // 5, 1))
    sparse = synth.planted_clusters(max(args.entities // 50, 2), 5, 10.0, 4,
                                    seed=args.seed + 4, n_singletons=5)
    lsh_lines("sparse4d", sparse, "hyperplane", args.seed + 34)

    ssc_lines(args.seed + 35)

    em = gmm.em_fit(shifted_sample(args.entities, 3, args.seed + 40), 3,
                    seed=args.seed + 41)
    print(f"em.loglik {digest(em.loglik)}")
    print(f"em.model {digest(em.model.weights, em.model.means, em.model.variances)}")
    print(f"em.iterations {em.iterations} restarts {em.restarts_used}")
    copies = bench.inject_duplicates(
        synth.dispersed_dataset(max(args.entities // 10, 200), 20, 0.3, seed=args.seed + 42),
        0.3, "tpch", args.seed + 43)
    fit = gmm.em_fit(copies, 3, seed=args.seed + 44)
    model = fit.model
    print(f"gmm[copies].fit {digest(fit.loglik, model.weights, model.means, model.variances)} "
          f"iterations {fit.iterations} restarts {fit.restarts_used}")
    print(f"gmm[copies].map {digest(gmm.estimate_probs_gmm(copies, model).resolve(copies))}")
    for dim in (3, 12):
        points = shifted_sample(max(args.entities // 4, 20), dim, args.seed + 50 + dim)
        labels = clustering.lloyd_kmeans(points, 3, seed=args.seed + 60 + dim)
        print(f"lloyd[{dim}d] {digest(labels)}")
    repeated = np.tile([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]], (4, 1))
    for k in range(1, 5):
        try:
            result = digest(clustering.regularized_kmeans(
                repeated, k, 1.0, seed=args.seed + 70).labels)
        except clustering.ClusteringError as exc:
            result = type(exc).__name__
        print(f"kmeans[copies] k={k} {result}")


if __name__ == "__main__":
    main()
