"""Benchmark for cohdist: one workload per process, fixed operation lists.

    python3 bench/run.py --workload pmax-mixed --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; cohdist is imported from its ``src``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of the named workload; with ``--trace 1`` one
process traces all three workloads and prints the per-layer metrics.  See
bench/README.md for the workloads, the metrics and the noise handling.
"""

import os
import time

START = time.perf_counter()
# pinned before numpy loads, so BLAS starts a single thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "COHDIST_WORKERS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# Nominal seconds of one pass over each workload's operation list; a run
# makes round(seconds / pass) passes, at least MIN_PASSES.  The operation
# list never depends on measured time.
PASS_SECONDS = {"pmax-mixed": 2.4, "protocol-pipeline": 5.0, "catalyst": 4.5}
MIN_PASSES = 3
SETUP_REPEATS = 5

# Per-layer metrics: for each workload, the spans and counts whose values
# an optimisation of that layer should move there (see README.md).
LAYER_SPANS = {
    "pmax-mixed": ("states.validate", "subspaces.graph", "subspaces.cliques",
                   "subspaces.rank1", "subspaces.select", "measures.profile_ratio",
                   "cli.main.pmax"),
    "protocol-pipeline": ("subspaces.select", "distill.synthesis", "distill.completeness",
                          "distill.replay", "distill.kraus", "oracles.simulate",
                          "cli.main.protocol", "cli.main.simulate"),
    "catalyst": ("subspaces.select", "measures.profile_ratio", "measures.tensor",
                 "measures.power_mean", "catalysis.search", "catalysis.gate",
                 "cli.main.catalyst_gate", "cli.main.catalyst_search"),
}


def import_cohdist():
    if not os.path.isfile(os.path.join(SRC, "cohdist", "__init__.py")):
        sys.exit(f"error: no cohdist sources under {SRC}; run from a cohdist checkout")
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import cohdist

    if not os.path.abspath(cohdist.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported cohdist from {cohdist.__file__}, not from {SRC}")


class Tally:
    """Latencies and outcome counts of the operations run so far."""

    def __init__(self):
        self.latency = defaultdict(list)   # operation index -> one time per pass
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def run(self, ops, order, call=None) -> float:
        """Run ``ops`` in ``order`` and return their summed latency.

        ``call(i, op)`` replaces ``op.run()`` when given (tracing).
        """
        total = 0.0
        for i in order:
            op = ops[i]
            self.attempted += 1
            start = time.perf_counter()
            try:
                result = op.run() if call is None else call(i, op)
            except Exception:
                self.failed += 1
                print(f"operation {op.kind} failed:", file=sys.stderr)
                traceback.print_exc()
                continue
            finally:
                elapsed = time.perf_counter() - start
                gc.collect()
            total += elapsed
            self.latency[i].append(elapsed)
            problems = op.check(result)
            if problems:
                self.wrong += 1
                print(f"operation {op.kind} answered wrongly: {'; '.join(problems)}",
                      file=sys.stderr)
        return total


def build(workload, seed, files_root):
    import numpy as np
    import workloads

    files = workloads.Files(files_root)
    ops = workloads.WORKLOADS[workload](np.random.default_rng(seed), files)
    warmed = set()
    for op in ops:
        if op.tier == "small" and op.kind not in warmed:
            warmed.add(op.kind)
            op.run()
    return ops


def orders(n_ops, seed, passes):
    import numpy as np

    rng = np.random.default_rng([seed, 1])
    return [rng.permutation(n_ops).tolist() for _ in range(passes)]


def end_to_end(workload, seed, seconds, files_root):
    import_s = time.perf_counter() - START
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops = build(workload, seed, files_root)
        setups.append(time.perf_counter() - start)
    passes = max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))
    gc.collect()
    gc.freeze()
    gc.disable()
    tally = Tally()
    for order in orders(len(ops), seed, passes):
        tally.run(ops, order)
    # wall_s adds up each operation's median over the passes, which keeps
    # the machine's slow spells of a few seconds out of it
    typical = {i: statistics.median(v) for i, v in tally.latency.items()}
    tiers = {tier: [t for i, v in tally.latency.items() if ops[i].tier == tier for t in v]
             for tier in ("small", "large")}
    for tier, samples in tiers.items():
        if not samples:
            sys.exit(f"error: every {tier} operation failed; see the errors above")
    metrics = {
        "wall_s": (sum(typical.values()), "s"),
        "small_p50_ms": (1e3 * statistics.median(tiers["small"]), "ms"),
        "small_p90_ms": (1e3 * statistics.quantiles(tiers["small"], n=10)[8], "ms"),
        "large_p50_ms": (1e3 * statistics.median(tiers["large"]), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (import_s + statistics.median(setups), "s"),
    }
    extra = {"passes": passes, "samples": {k: len(v) for k, v in tiers.items()},
             "setup_repeats_s": setups, "import_s": import_s,
             "latency_s": {f"{i}.{ops[i].tier}.{ops[i].kind}": v
                           for i, v in sorted(tally.latency.items())}}
    return tally, metrics, extra


def traced(seed, files_root):
    """Trace one pass of every workload, in one process.

    Each operation runs once untraced and then once traced, so the summed
    difference is the tracing overhead, with machine drift cancelled.
    """
    import tracer
    import workloads

    tally, metrics, spans = Tally(), {}, {}
    for workload in workloads.WORKLOADS:
        ops = build(workload, seed, files_root)
        (order,) = orders(len(ops), seed, 1)
        gc.collect()
        gc.freeze()
        gc.disable()
        rec = tracer.Tracer()
        plain = traced_s = 0.0
        for i in order:
            plain += tally.run(ops, [i])
            rec.install()
            try:
                traced_s += tally.run(ops, [i], lambda i, op: rec.operation(i, f"op.{op.tier}", op.run))
            finally:
                rec.uninstall()
        gc.enable()
        spans[workload] = rec
        times = rec.self_times()
        for name in LAYER_SPANS[workload]:
            self_s, _, calls = times.get(name, (0.0, 0.0, 0))
            metrics[f"{workload}.{name}.self_s"] = (self_s, "s")
            metrics[f"{workload}.{name}.calls"] = (calls, "count")
        counts = rec.counts
        if workload == "pmax-mixed":
            metrics[f"{workload}.subspaces.found"] = (counts["subspaces.found"], "count")
        elif workload == "protocol-pipeline":
            metrics[f"{workload}.distill.branches"] = (counts["distill.branches"], "count")
            metrics[f"{workload}.distill.branches_per_rank"] = (
                counts["distill.branches"] / counts["distill.ranks"], "ratio")
            metrics[f"{workload}.cli.plan_bytes"] = (counts["cli.plan_bytes"], "bytes")
        else:
            candidates = counts["catalysis.candidates"]
            metrics[f"{workload}.catalysis.candidates"] = (candidates, "count")
            metrics[f"{workload}.catalysis.us_per_candidate"] = (
                1e6 * times["catalysis.search"][1] / candidates, "us")
        metrics[f"{workload}.trace.overhead_s"] = (traced_s - plain, "s")
    return tally, metrics, spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pmax-mixed", "protocol-pipeline", "catalyst"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_cohdist()
    os.makedirs(OUT, exist_ok=True)
    files_root = tempfile.mkdtemp(prefix="cli-", dir=OUT)
    try:
        if args.trace:
            tally, metrics, spans = traced(args.seed, files_root)
            with open(os.path.join(OUT, f"trace-{args.seed}.json"), "w", encoding="utf-8") as fh:
                json.dump({w: {"spans": rec.spans, "counts": rec.counts}
                           for w, rec in spans.items()}, fh)
            extra = {}
        else:
            tally, metrics, extra = end_to_end(args.workload, args.seed, args.seconds, files_root)
    finally:
        shutil.rmtree(files_root, ignore_errors=True)

    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, stem), "w", encoding="utf-8") as fh:
        json.dump(dict(result, detail=extra), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
