#!/usr/bin/env python3
"""End-to-end near-duplicate pipeline on a synthetic text corpus.

Generates a corpus of unique strings with a controlled fraction of
near-duplicate variants, blocks it with minhash LSH, clusters each block
with the oracle-guided selector, then rejection-samples approximately
uniformly over distinct entities.  Prints blocking stats, the total
variation distance of the induced entity distribution from uniform, and
the achieved acceptance rate.
"""

from __future__ import annotations

import argparse

import numpy as np

from entity_sampler import estimate
from entity_sampler.dataset import tv_distance, uniform_distribution
from entity_sampler.rejection import exact_induced_distribution, sample_clean
from entity_sampler.synth import duplicate_text_corpus


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--entities", type=int, default=200)
    ap.add_argument("--dup-fraction", type=float, default=0.3)
    ap.add_argument("--budget", type=int, default=2000)
    ap.add_argument("--sample", type=int, default=500)
    ap.add_argument("--lam", type=float, default=0.2)
    ap.add_argument("--delta", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    data = duplicate_text_corpus(args.entities, args.dup_fraction, seed=args.seed)
    est = estimate(data, "lsh", args.seed + 1, lam=args.lam, delta=args.delta,
                   budget=args.budget)
    cfg, sizes = est.config, np.array([b.size for b in est.blocking.blocks])
    print(
        f"{data.n} records, {args.entities} entities; "
        f"LSH r={cfg.rows} s={cfg.bands} -> {est.blocking.q} blocks "
        f"(max size {sizes.max()}, {int((sizes == 1).sum())} singletons)"
    )
    queries = sum(rep.queries for _, rep in est.lsh.reports)
    induced = exact_induced_distribution(data, est.pmap)
    tv = tv_distance(induced, uniform_distribution(induced.support))
    print(
        f"recovered {est.lsh.group_sizes.size} duplicate groups "
        f"({queries} oracle queries); TV(induced, uniform) = {tv:.4f}"
    )

    res = sample_clean(data, est.pmap, p=args.sample, seed=args.seed + 2)
    got = np.unique(data.entity_codes[res.record_indices]).size
    print(
        f"sampled {res.size} records in {res.trials} trials "
        f"({res.trials_per_accept:.2f} per accept), {got} distinct entities"
    )


if __name__ == "__main__":
    main()
