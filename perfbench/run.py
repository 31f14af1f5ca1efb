"""Benchmark of entity_sampler's estimate -> sample path.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lsh-text --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload, each in its own process

One run repeats passes of one workload for ``--seconds`` seconds and prints,
as its last line, one JSON object: whether every output passed its
independent checks, the operations attempted and failed, and the metrics
(end-to-end with ``--trace 0``, per-layer with ``--trace 1``).  See
perfbench/README.md for the workloads, the metrics and the checks.
"""

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
WORKLOADS = ("balanced-dispersed", "lsh-text", "lsh-vectors", "cli-csv")
END_TO_END = {"setup_s": "s", "pass_s": "s", "estimate_s": "s", "sample_s": "s",
              "oracle_queries": "count", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload in this process (default: all, one process each)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def cap_threads() -> None:
    """At most one BLAS thread per available core, here and in children."""
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, cores)


def import_package() -> None:
    """Import entity_sampler from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import entity_sampler

    if not os.path.abspath(entity_sampler.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: entity_sampler imported from {entity_sampler.__file__}")


def peak_rss_mb(children: bool) -> float:
    """Peak RSS of this process, or of its largest child (the CLI processes)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_workload(args) -> dict:
    import_package()
    import checks
    import spans
    import workloads

    wl = workloads.make(args.workload, SRC)
    tracer = spans.Tracer()
    peaks = workloads.PeakLog()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        # set-up, three times: the package import in a fresh interpreter
        # (this process imported it already) plus building the first input
        setups, imports = [], []
        for _ in range(SETUP_REPEATS):
            imports.append(workloads.import_seconds(wl.env))
            inp = None
            t0 = time.perf_counter()
            inp = wl.build(args.seed, 0, workdir)
            setups.append(imports[-1] + time.perf_counter() - t0)
        setup_s = statistics.median(setups)
        peaks.mark("set-up")

        passes = []
        index = 0
        begin = time.perf_counter()
        while True:
            # a traced run makes pairs of passes on the same input, one
            # traced and one not, alternating which goes first; the ratio of
            # the fastest pass of each kind is the tracing overhead (the
            # fastest, since the process's first pass also pays warm-up)
            job = index // 2 if args.trace else index
            traced = bool(args.trace) and (index + job) % 2 == 0
            if index > 0:
                inp = None
                inp = wl.build(args.seed, job, workdir)
                peaks.mark("builds")
            oracle = (spans.CountingOracle(inp.entity_labels, track_pairs=traced)
                      if wl.uses_oracle else None)
            tracer.reset()
            tracer.oracle = oracle
            ps = workloads.Pass(tracer, peaks)
            gc.collect()  # the last pass's and checks' garbage is not this pass's cost
            with spans.instrument(tracer) if traced else contextlib.nullcontext():
                tracer.active = traced
                t0 = time.perf_counter()
                try:
                    wl.run(inp, args.seed, job, oracle, ps, bool(args.trace))
                finally:
                    wall = time.perf_counter() - t0 - ps.check_s - ps.repeat_s
                    tracer.active = False
            passes.append({
                "traced": traced,
                "pass_s": wall,
                "estimate_s": ps.estimate_s,
                "sample_s": ps.sample_s,
                "sample_calls": ps.sample_calls,
                "oracle_queries": oracle.queries if oracle is not None else 0,
                "layers": tracer.layer_metrics() if traced else None,
                "ops": ps.ops,
            })
            print(f"pass {index}: {'traced ' if traced else ''}pass_s={wall:.4f} "
                  f"estimate_s={ps.estimate_s:.4f} sample_s={ps.sample_s:.6g} "
                  f"check_s={ps.check_s:.4f}", file=sys.stderr)
            index += 1
            if time.perf_counter() - begin >= args.seconds and (not args.trace or index % 2 == 0):
                break
    rss = peak_rss_mb(children=args.workload == "cli-csv")

    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op.failures]
    unexpected = [op for op in failed if not op.known]
    for op in unexpected:
        print(f"check failed: {args.workload} {op.name}: {'; '.join(op.failures)}",
              file=sys.stderr)
    if args.workload != "cli-csv":
        print("peak RSS rises (MB): " + ", ".join(
            f"{phase} {rise:.1f}" for phase, rise in peaks.rise.items())
            + f"; the peak was set in {peaks.last_phase}", file=sys.stderr)
    selftest = checks.self_test()
    print("checker self-test: " + json.dumps(selftest))

    def median(key):
        return statistics.median(p[key] for p in passes)

    if args.trace:
        traced = [p["layers"] for p in passes if p["traced"]]
        layers = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
        layers["cli.import_s"] = statistics.median(imports)
        fastest = {kind: min(p["pass_s"] for p in passes if p["traced"] == kind)
                   for kind in (True, False)}
        layers["trace.overhead_pct"] = 100.0 * (fastest[True] / fastest[False] - 1.0)
        metrics = {name: {"value": float(v), "unit": spans.unit_of(name)}
                   for name, v in layers.items()}
    else:
        values = {
            "setup_s": setup_s,
            "pass_s": median("pass_s"),
            "estimate_s": median("estimate_s"),
            # a workload that times single sampling calls of a few
            # milliseconds (LSH) reports the run's fastest call
            "sample_s": min(c for p in passes for c in p["sample_calls"])
            if passes[0]["sample_calls"] else median("sample_s"),
            # workloads without an oracle report 1, so the metric is never 0
            "oracle_queries": max(median("oracle_queries"), 1),
            "peak_rss_mb": rss,
        }
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(f"{args.workload}: {len(passes)} passes, {len(ops)} operations, "
          f"{len(failed)} failed ({len(failed) - len(unexpected)} the known fault)",
          file=sys.stderr)
    return {"correct": not unexpected and selftest["ok"], "attempted": len(ops),
            "failed": len(failed), "metrics": metrics}


def run_all(args) -> int:
    """Each workload in a fresh process, one at a time, so its peak RSS is its own."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}")
            return 1
        results[name] = json.loads(lines[-1])
        res = results[name]
        print(f"\n{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, mv in res["metrics"].items():
            print(f"  {metric:32s} {mv['value']:>16.6g} {mv['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    args = parse_args()
    if not os.path.isfile(os.path.join(SRC, "entity_sampler", "__init__.py")):
        print(f"error: no entity_sampler package under {SRC}", file=sys.stderr)
        return 2
    cap_threads()
    if args.workload is None:
        return run_all(args)
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
