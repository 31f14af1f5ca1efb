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
  on that table written as CSV.

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

from entity_sampler import balanced, cli, rejection, synth

FRACTIONS = (0.01, 0.02, 0.04, 0.06, 0.08, 0.1)


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


if __name__ == "__main__":
    main()
