"""Benchmark of the eann index through its public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload warm_serve --seed 1 --seconds 10 --trace 0

Every input is generated from ``--seed``; sizes and the reason for each
workload are in ``workloads.json``. A run repeats set-up, answers queries for
``--seconds`` (each followed by a timed numpy scan of the same query), then
checks every answer against that exact scan. The last line of output is the
JSON result: end-to-end metrics with ``--trace 0``, the per-layer metrics of
``tracing.py`` with ``--trace 1``. README.md defines each metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

# One client in one process: BLAS stays on the calling thread, so timings do
# not depend on how many cores happen to be idle.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from oracle import Family, Ledger  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPECS = json.loads((HERE / "workloads.json").read_text())

_ns = time.perf_counter_ns
# Tail percentile of every workload. The warm pools hold 48 distinct queries
# per index, so p90 leaves about five of them beyond the tail (p99 would be
# the single slowest query of the pool, which depends on the seed alone).
TAIL_PCT = 90


def import_eann():
    """The eann package of this checkout, never an installed copy."""
    if not (SRC / "eann" / "__init__.py").is_file():
        sys.exit(f"error: no eann sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import eann

    if Path(eann.__file__).resolve().parent != SRC / "eann":
        sys.exit(f"error: imported eann from {eann.__file__}, not from {SRC}")
    return eann


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------


class Run:
    def __init__(self, eann, cfg: dict, seed: int, workload_no: int, seconds: float, tracer):
        self.eann = eann
        self.cfg = cfg
        self.rng = np.random.default_rng([seed, workload_no])
        self.seconds = seconds
        self.tracer = tracer
        self.ledger = Ledger()
        self.fams = [Family(spec, self.rng) for spec in cfg["indexes"]]
        self.setup_s: list[float] = []
        self.info: dict = {}
        self.index_bytes = 0

    def call(self, name: str, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(name, fn, *args)

    def phase(self, name: str, on: bool) -> None:
        if self.tracer is not None:
            self.tracer.phase, self.tracer.on = name, on

    def build(self, fam: Family):
        fns = self.call("distances.site_build", fam.site_functions, self.eann)
        return self.call("ann.build_index", self.eann.build_index, fns, fam.eps)

    def ask(self, index, q):
        try:
            return self.call("ann.query", index.query, q)
        except Exception:  # counted as a failed operation; the run goes on
            if self.ledger.errors == 0:
                traceback.print_exc(file=sys.stderr)
            return None

    def answer_all(self, slot: int, index, queries) -> None:
        for i, q in enumerate(queries):
            self.ledger.record((slot, i), q, self.ask(index, q))

    def timed(self, indexes: list, items, enough) -> None:
        """Answer ``items`` ((slot, qid, q) triples) until ``seconds`` have
        passed and ``enough(per_slot_counts)`` holds."""
        m = len(indexes)
        lat = [[] for _ in range(m)]
        scan = [[] for _ in range(m)]
        traced = [[] for _ in range(m)]
        before = [ix.storage_stats()["tree_expansions"] for ix in indexes]
        stats0 = [Counter(ix.stats) for ix in indexes]
        tracer = self.tracer
        self.phase("timed", False)
        start = time.perf_counter()
        for slot, qid, q in items:
            on = tracer is not None and len(lat[slot]) % 2 == 1
            if tracer is not None:
                tracer.on = on
            t0 = _ns()
            answer = self.ask(indexes[slot], q)
            t1 = _ns()
            int(np.argmin(self.fams[slot].scan(q)))
            t2 = _ns()
            if tracer is not None:
                tracer.on = False
            self.ledger.record((slot, qid), q, answer)
            lat[slot].append(t1 - t0)
            scan[slot].append(t2 - t1)
            traced[slot].append(on)
            if time.perf_counter() - start >= self.seconds and enough([len(x) for x in lat]):
                break
        self.lat = [np.array(x, dtype=float) * 1e-3 for x in lat]  # microseconds
        self.scan_lat = [np.array(x, dtype=float) * 1e-3 for x in scan]
        self.traced = [np.array(x, dtype=bool) for x in traced]
        self.expansions = sum(ix.storage_stats()["tree_expansions"] - b
                              for ix, b in zip(indexes, before))
        self.stats = sum((Counter(ix.stats) - s for ix, s in zip(indexes, stats0)), Counter())
        self.stats["brute_leaves"] = sum(ix.stats["brute_leaves"] for ix in indexes)
        self.leaves = sum(ix.storage_stats()["leaves"] for ix in indexes)

    def oracle(self, indexes: list, count: int) -> None:
        """Time the library's brute_force, each call followed by the scan, and
        check it against the scan."""
        self.phase("oracle", True)
        self.oracle_lat, self.oracle_scan = [], []
        for slot, (ix, fam) in enumerate(zip(indexes, self.fams)):
            keys = sorted(k for k in self.ledger.queries if k[0] == slot)[:count]
            lat, scan = [], []
            for key in keys:
                q = self.ledger.queries[key]
                t0 = _ns()
                try:
                    _, value = self.call("ann.brute_force", self.eann.brute_force, ix.sites, q)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    value = math.nan
                t1 = _ns()
                best = float(fam.scan(q).min())
                t2 = _ns()
                lat.append(t1 - t0)
                scan.append(t2 - t1)
                self.ledger.attempted += 1
                if not abs(value - best) <= 1e-9 * abs(best) + 1e-12:
                    self.ledger.errors += 1
            self.oracle_lat.append(np.array(lat, dtype=float) * 1e-3)
            self.oracle_scan.append(np.array(scan, dtype=float) * 1e-3)
        self.phase("check", False)


def shuffled_passes(rng: np.random.Generator, keys: list[tuple], queries: dict):
    """Endless replay of ``keys`` in a new random order each pass."""
    while True:
        for i in rng.permutation(len(keys)):
            slot, qid = keys[i]
            yield slot, qid, queries[keys[i]]


def warm_serve(run: Run) -> None:
    cfg = run.cfg
    pools = [fam.queries(run.rng, cfg["pool"]) for fam in run.fams]
    indexes = None
    for _ in range(cfg["setup_reps"]):
        indexes = None
        gc.collect()
        run.phase("setup", True)
        t0 = time.perf_counter()
        indexes = [run.build(fam) for fam in run.fams]
        for slot, (ix, pool) in enumerate(zip(indexes, pools)):
            run.answer_all(slot, ix, pool)
        run.setup_s.append(time.perf_counter() - t0)
    keys = [(s, i) for s in range(len(pools)) for i in range(len(pools[s]))]
    queries = {(s, i): pools[s][i] for s, i in keys}
    total = len(keys)
    run.timed(indexes, shuffled_passes(run.rng, keys, queries),
              lambda counts: sum(counts) >= total)
    run.oracle(indexes, cfg["oracle_queries"])
    run.info["digest"] = run.ledger.digest(keys)


def cold_start(run: Run) -> None:
    cfg = run.cfg
    indexes = None
    for _ in range(cfg["setup_reps"]):
        indexes = None
        gc.collect()
        run.phase("setup", True)
        t0 = time.perf_counter()
        indexes = [run.build(fam) for fam in run.fams]
        run.setup_s.append(time.perf_counter() - t0)
    streams = [np.random.default_rng(run.rng.integers(2**63)) for _ in run.fams]

    def items():
        qid = 0
        while True:
            for slot, (fam, stream) in enumerate(zip(run.fams, streams)):
                yield slot, qid, fam.queries(stream, 1)[0]
            qid += 1

    need = cfg["min_queries"]
    run.timed(indexes, items(), lambda counts: min(counts) >= need)
    # Repeat the first answers on the now-built leaves: they must not change.
    digest_keys = [(s, i) for s in range(len(run.fams)) for i in range(cfg["digest_queries"])]
    for slot, qid in digest_keys:
        q = run.ledger.queries[(slot, qid)]
        run.ledger.record((slot, qid), q, run.ask(indexes[slot], q))
    run.oracle(indexes, cfg["oracle_queries"])
    run.info["digest"] = run.ledger.digest(digest_keys)


def persist_roundtrip(run: Run) -> None:
    cfg = run.cfg
    (fam,) = run.fams
    pool = fam.queries(run.rng, cfg["pool"])
    loaded = None
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=Path.cwd()) as tmp:
        path = str(Path(tmp) / "index.eann")
        for _ in range(cfg["setup_reps"]):
            loaded = None
            gc.collect()
            run.phase("setup", True)
            t0 = time.perf_counter()
            index = run.build(fam)
            run.answer_all(0, index, pool)
            run.index_bytes = run.call("ann.save_index", run.eann.save_index, index, path)
            del index
            loaded = run.call("ann.load_index", run.eann.load_index, path)
            run.answer_all(0, loaded, pool)
            run.setup_s.append(time.perf_counter() - t0)
    keys = [(0, i) for i in range(len(pool))]
    run.timed([loaded], shuffled_passes(run.rng, keys, dict(zip(keys, pool))),
              lambda counts: counts[0] >= len(keys))
    run.oracle([loaded], cfg["oracle_queries"])
    run.info["digest"] = run.ledger.digest(keys)


WORKLOADS = {"warm_serve": warm_serve, "cold_start": cold_start,
             "persist_roundtrip": persist_roundtrip}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def geomean(values) -> float:
    return float(math.exp(statistics.fmean(math.log(v) for v in values)))


def absolute(run: Run, untraced: bool) -> dict:
    """Wall-clock latencies of the timed phase (untraced queries only, if
    asked) and of brute_force."""
    lat = [x[~t] if untraced else x for x, t in zip(run.lat, run.traced)]
    return {
        "query_p50_us": geomean(np.median(x) for x in lat),
        f"query_p{TAIL_PCT}_us": geomean(np.percentile(x, TAIL_PCT) for x in lat),
        "qps": sum(len(x) for x in lat) / (sum(float(x.sum()) for x in lat) * 1e-6),
        "brute_force_p50_us": geomean(np.median(x) for x in run.oracle_lat),
    }


def end_to_end(run: Run) -> dict:
    """Query costs as multiples of the same-moment numpy scan.

    Wall-clock latency on a shared machine drifts by tens of percent within
    minutes; each query's ratio to the scan timed right after it cancels most
    of that drift, and it is the comparison a user weighing the index against
    a plain scan makes.
    """
    ratios = [x / s for x, s in zip(run.lat, run.scan_lat)]
    beyond = min(int(np.sum(r > np.percentile(r, TAIL_PCT))) for r in ratios)
    run.info["tail"] = f"p{TAIL_PCT} per index, fewest samples beyond it: {beyond}"
    run.info["wall clock"] = " ".join(f"{k}={v:.6g}" for k, v in absolute(run, False).items())
    return {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "speedup_vs_scan": (geomean(np.median(1.0 / r) for r in ratios), "ratio"),
        "query_tail_vs_scan": (geomean(np.percentile(r, TAIL_PCT) for r in ratios), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(run: Run, failed: int) -> dict:
    tracer = run.tracer
    spans: dict[tuple, list] = {}  # (name, phase) -> [calls, total_ns, self_ns]
    for name, parent, phase, dur, self_ns in tracer.spans:
        if name == "ann.build_avd" and parent == "ann.load_index":
            name = "ann.load_rebuild"
        acc = spans.setdefault((name, phase), [0, 0, 0])
        acc[0] += 1
        acc[1] += dur
        acc[2] += self_ns

    def tot(name, phase=None, col=1):
        return sum(v[col] for (n, p), v in spans.items() if n == name and phase in (None, p))

    def per_call(name, phase=None, col=1, scale=1e-3):
        calls = tot(name, phase, 0)
        return tot(name, phase, col) * scale / calls if calls else 0.0

    def counted(key, phase=None):
        return sum(v for (p, k), v in tracer.counts.items() if k == key and phase in (None, p))

    def ratio(a, b):
        return a / b if b else 0.0

    reps = len(run.setup_s)
    traced_queries = sum(int(t.sum()) for t in run.traced)
    queries = run.stats["queries"]
    overhead = geomean(np.median(x[t]) / np.median(x[~t])
                       for x, t in zip(run.lat, run.traced)) - 1.0
    crossover = geomean(np.median(x) / (np.median(s) / fam.n)
                        for x, s, fam in zip(run.lat, run.scan_lat, run.fams))
    wall = absolute(run, True)
    return {
        "ann.query_p50_us": (wall["query_p50_us"], "us"),
        "ann.query_tail_us": (wall[f"query_p{TAIL_PCT}_us"], "us"),
        "ann.qps": (wall["qps"], "1/s"),
        "ann.brute_force_p50_us": (wall["brute_force_p50_us"], "us"),
        "ann.brute_force_vs_scan": (geomean(np.median(b / s) for b, s in
                                            zip(run.oracle_lat, run.oracle_scan)), "ratio"),
        "avd.locate_us": (per_call("avd.locate", "timed"), "us"),
        "avd.locate_visits": (ratio(run.stats["locate_visits"], queries), "count"),
        "avd.expansions_per_query": (ratio(run.expansions, queries), "count"),
        "avd.materialize_s": (tot("avd.materialize", "setup") * 1e-9 / reps, "s"),
        "avd.to_bytes_s": (tot("avd.to_bytes", "setup", 2) * 1e-9 / reps, "s"),
        "avd.from_bytes_s": (tot("avd.from_bytes", "setup") * 1e-9 / reps, "s"),
        "avd.leaves": (run.leaves, "count"),
        "ann.query_self_us": (per_call("ann.query", "timed", col=2), "us"),
        "ann.fallback_frac": (ratio(run.stats["brute_queries"] + run.stats["outside_brute"],
                                    queries), "ratio"),
        "ann.brute_leaves": (run.stats["brute_leaves"], "count"),
        "ann.save_s": (tot("ann.save_index", "setup") * 1e-9 / reps, "s"),
        "ann.load_s": (tot("ann.load_index", "setup") * 1e-9 / reps, "s"),
        "ann.load_rebuild_s": (tot("ann.load_rebuild", "setup") * 1e-9 / reps, "s"),
        "ann.index_bytes": (run.index_bytes, "bytes"),
        "convexify.normalize_ms": (per_call("convexify.normalize", scale=1e-6), "ms"),
        "convexify.value_bounds_ms": (per_call("convexify.value_bounds", scale=1e-6), "ms"),
        "convexify.family_in": (ratio(counted("convexify.family_in"),
                                      tot("convexify.normalize", col=0)), "count"),
        "convexify.kept": (ratio(counted("convexify.kept"),
                                 tot("convexify.normalize", col=0)), "count"),
        "convexify.keep_ratio": (ratio(counted("convexify.kept"),
                                       counted("convexify.family_in")), "ratio"),
        "envelope.build_relative_ms": (per_call("envelope.build_relative", scale=1e-6), "ms"),
        "envelope.build_relative_per_query": (ratio(tot("envelope.build_relative", "timed", 0),
                                                    traced_queries), "count"),
        "envelope.gather_us": (per_call("envelope.gather", "timed"), "us"),
        "envelope.gather_ids": (ratio(counted("envelope.gather_ids", "timed"),
                                      tot("envelope.gather", "timed", 0)), "count"),
        "envelope.samples_built": (ratio(counted("envelope.samples_built", "timed"),
                                         tot("envelope.gather", "timed", 0)), "count"),
        "envelope.query_absolute_us": (per_call("envelope.query_absolute", "timed"), "us"),
        "envelope.patch_query_us": (per_call("envelope.patch_query", "timed"), "us"),
        "batch.reeval_us": (per_call("_batch.reeval", "timed"), "us"),
        "batch.reeval_cols": (ratio(counted("_batch.reeval.cols", "timed"),
                                    tot("_batch.reeval", "timed", 0)), "count"),
        "batch.brute_us": (per_call("_batch.brute"), "us"),
        "batch.envelope_us": (per_call("_batch.envelope"), "us"),
        "distances.site_build_s": (tot("distances.site_build", "setup") * 1e-9 / reps, "s"),
        "crossover_n": (crossover, "sites"),
        "check.failed_frac": (failed / run.ledger.attempted, "ratio"),
        "check.answer_mismatch": (run.ledger.mismatch, "count"),
        "trace.overhead_frac": (overhead, "ratio"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: the self-check sizes from workloads.json")
    args = ap.parse_args(argv)

    eann = import_eann()
    cfg = json.loads(json.dumps(SPECS["workloads"][args.workload]))
    if args.scale == "tiny":
        tiny = dict(SPECS["tiny"][args.workload])
        for spec, n in zip(cfg["indexes"], tiny.pop("n")):
            spec["n"] = n
        cfg.update(tiny)

    tracer = None
    restore = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        restore = install(tracer)
    workload_no = sorted(WORKLOADS).index(args.workload)
    run = Run(eann, cfg, args.seed, workload_no, args.seconds, tracer)
    try:
        WORKLOADS[args.workload](run)
    finally:
        if restore is not None:
            restore()

    failed = run.ledger.errors + run.ledger.check(run.fams)
    metrics = per_layer(run, failed) if args.trace else end_to_end(run)

    print(f"# machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} {platform.machine()}")
    print(f"# workload: {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} scale={args.scale} loop={cfg['loop']}")
    for fam in run.fams:
        print(f"# index: {fam.label()}")
    print(f"# setup_s reps: {' '.join(f'{s:.3f}' for s in run.setup_s)}")
    print(f"# timed queries: {sum(len(x) for x in run.lat)} "
          f"({' '.join(str(len(x)) for x in run.lat)} per index)")
    for key, value in run.info.items():
        print(f"# {key}: {value}")
    print(f"# failed_frac: {failed / run.ledger.attempted:.6g} "
          f"answer_mismatch: {run.ledger.mismatch}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.ledger.attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
