"""Run one workload in this process and print its result as JSON.

Started by ``run.py``, always in a fresh interpreter, so the
process-global pipeline cache, the peak resident memory and SQLite's page
cache never carry over from another workload or run.  The last line of
standard output is one JSON object: the per-layer metrics with
``--trace 1``, otherwise the raw parts ``run.py`` pools across processes.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time

from loops import WORKLOADS
from summary import chunk_percentiles, percentile, tail_percentile
from tracing import ROOT, Tracer, install, self_times

#: Each timed block sums at least this much op time; ``ops_per_s`` is the
#: median block rate.
BLOCK_NS = 25_000_000
#: Untimed warm-up before measuring: first lowering, lazy indexes.
WARMUP_S = 0.5
#: The layers' self times must cover the traced time per op to within
#: this share; the rest is reported as ``bench.unattributed_us``.
GAP_TOLERANCE = 0.10
#: The reference work's usual time on the machine the first baseline was
#: recorded on (2 vCPU x86-64 VM, CPython 3.11).
NOMINAL_REF_NS = 640_000


def reference_work(n: int = 2000) -> int:
    """Fixed interpreter work (tuple, dict and call traffic, like the
    engine's own) that measures how fast the shared machine runs now."""
    table: dict = {}
    total = 0
    for i in range(n):
        key = (i & 255, i % 7)
        table[key] = table.get(key, 0) + 1
        total += len(key)
    return total


def machine_factor() -> float:
    """``NOMINAL_REF_NS`` over the best of two reference runs: below 1
    while the machine runs slower than usual."""
    clock = time.perf_counter_ns
    best = None
    for _ in range(2):
        start = clock()
        reference_work()
        took = clock() - start
        best = took if best is None or took < best else best
    return NOMINAL_REF_NS / best


class Phase:
    """Latencies and block rates of one stretch of the closed loop.

    The speed of the shared machine drifts by tens of percent over
    seconds.  The reference work is timed between blocks of ops, and each
    block's op times are scaled by the mean of the :func:`machine_factor`
    taken before and after it, so every time is reported at the nominal
    machine speed.  The unscaled block rates are kept in ``raw_rates``."""

    def __init__(self) -> None:
        self.lat: dict[str, list[float]] = {"read": [], "refresh": [], "write": []}
        self.rates: list[float] = []
        self.raw_rates: list[float] = []
        self.factors: list[float] = []
        self.ops = 0
        self._before = machine_factor()

    def close_block(self, block: list[tuple[str, int]]) -> None:
        if not block:
            return
        after = machine_factor()
        factor = (self._before + after) / 2
        self._before = after
        busy = 0
        lat = self.lat
        for kind, took in block:
            lat[kind].append(took * factor)
            busy += took
        self.factors.append(factor)
        self.raw_rates.append(len(block) / busy * 1e9)
        self.rates.append(len(block) / (busy * factor) * 1e9)
        self.ops += len(block)

    def ops_per_s(self) -> float:
        return statistics.median(self.rates) if self.rates else 0.0

    def factor(self) -> float:
        return statistics.median(self.factors) if self.factors else 1.0


def run_loop(workload, stream, seconds: float, tracer: Tracer | None = None) -> tuple[Phase, int, int]:
    """Send requests one after another for ``seconds``; check each answer
    after its timed call.  Returns the phase, attempted and failed."""
    phase = Phase()
    clock = time.perf_counter_ns
    check = workload.check
    attempted = failed = 0
    block: list[tuple[str, int]] = []
    block_ns = 0
    deadline = clock() + int(seconds * 1e9)
    while clock() < deadline:
        kind, fn, args, kwargs, token = next(stream)
        if tracer is not None:
            tracer.begin_op(kind)
        start = clock()
        try:
            out = fn(*args, **kwargs)
            error = None
        except Exception as exc:  # a raising op counts as failed
            error = exc
        took = clock() - start
        if tracer is not None:
            tracer.end_op()
        attempted += 1
        if error is not None:
            failed += 1
            workload._fail(f"{kind} raised {error!r}")
            continue
        block.append((kind, took))
        if not check(kind, token, out):
            failed += 1
        block_ns += took
        if block_ns >= BLOCK_NS:
            phase.close_block(block)
            block = []
            block_ns = 0
    phase.close_block(block)
    return phase, attempted, failed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_setup(workload, seed: int) -> float:
    """Seconds ``workload.setup`` takes, scaled to the nominal machine
    speed by the mean of the factors measured right before and after."""
    before = machine_factor()
    start = time.perf_counter()
    workload.setup(seed)
    took = time.perf_counter() - start
    return took * (before + machine_factor()) / 2


def run(args) -> dict:
    cls = WORKLOADS[args.workload]
    workload = cls(args.scale, args.tmpdir)
    workload.inject_wrong = args.inject_wrong_read
    setup_s = timed_setup(workload, args.seed)
    try:
        return measure(workload, args, setup_s)
    finally:
        workload.teardown()


def measure(workload, args, setup_s: float) -> dict:
    # Each process of a run draws its requests from its own sub-stream of
    # the seed; the data (``setup``) is the same for all of them.
    stream = workload.stream(args.seed + 1_000_003 * args.part)
    _, attempted, failed = run_loop(workload, stream, min(WARMUP_S, args.seconds / 4))
    gc.collect()
    gc.freeze()
    info: dict = {"workload": workload.name, "seed": args.seed, "setup_s": setup_s}
    if not args.trace:
        phase, a, f = run_loop(workload, stream, args.seconds)
        attempted += a
        failed += f
    else:
        phase, a, f = run_loop(workload, stream, args.seconds / 2)
        tracer = Tracer()
        uninstall = install(tracer, workload.db)
        try:
            traced, a2, f2 = run_loop(workload, stream, args.seconds / 2, tracer)
        finally:
            uninstall()
        attempted += a + a2
        failed += f + f2
    workload.final_check()
    if workload.failures and not failed:
        failed = 1  # a failed end-of-run check fails the run
    reads = phase.lat["read"]
    info.update(
        attempted=attempted,
        failed=failed,
        failures=workload.failures,
        read_samples=len(reads),
        ops=phase.ops,
        raw_rates=phase.raw_rates,
        factors=phase.factors,
        repeat_frac=workload.repeats / max(1, workload.reads),
    )
    if hasattr(workload, "file_mb"):
        info["db_file_mb"] = workload.file_mb()
    tuples = workload.prefix_tuples / max(1, workload.prefix_reads)
    if not args.trace:
        # The parts run.py pools across this run's processes.
        info.update(
            rates=phase.rates,
            reads=reads,
            read_p99_chunks=chunk_percentiles(reads, 99),
            tuples_per_read=tuples,
            peak_rss_mb=peak_rss_mb(),
        )
    else:
        info["metrics"] = layer_metrics(workload, phase, traced, tracer)
        if args.spans_out:
            with open(args.spans_out, "w") as out:
                json.dump(tracer.spans, out)
    return info


#: Span name -> per-layer metric (µs of self time per traced op).
SELF_TIME_METRICS = {
    "logic.parse": "logic.parse_us",
    "api.query": "api.query_self_us",
    "api.plan_cache": "api.plan_cache_us",
    "api.compile": "api.compile_self_us",
    "api.execute": "api.execute_self_us",
    "core.plans.compile": "core.plans.compile_us",
    "views.rewrite": "views.rewrite_us",
    "analysis.cost": "analysis.cost_us",
    "analysis.certify": "analysis.certify_us",
    "core.executor.lower": "core.executor.lower_us",
    "core.executor.execute": "core.executor.execute_us",
    "views.prepare": "views.prepare_us",
    "views.refresh": "views.refresh_us",
    "views.lookup": "views.lookup_us",
    "incremental.refresh": "incremental.refresh_us",
    "relational.mutate": "relational.mutate_us",
    "relational.backends.lookup": "relational.backends.lookup_us",
    "relational.backends.contains": "relational.backends.contains_us",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(workload, untraced: Phase, traced: Phase, tracer: Tracer) -> dict:
    totals, calls, problems = self_times(tracer.spans)
    counts = tracer.counts
    ops = sum(n for name, n in calls.items() if name.startswith(ROOT))
    root_ns = sum(
        span[3] - span[2] for span in tracer.spans if span[1].startswith(ROOT)
    )
    unattributed = sum(ns for name, ns in totals.items() if name.startswith(ROOT))
    # Self times are scaled to the nominal machine speed like every
    # other time the benchmark reports.
    scale = traced.factor() / 1000
    metrics = {
        metric: (_ratio(totals.get(span, 0), ops) * scale, "us")
        for span, metric in SELF_TIME_METRICS.items()
    }
    for name in totals:
        if not name.startswith(ROOT) and name not in SELF_TIME_METRICS:
            problems.append(f"span {name} has no metric")
    gap = _ratio(unattributed, root_ns)
    refresh = untraced.lat["refresh"]
    write = untraced.lat["write"]
    metrics.update(
        {
            "api.plan_cache_hit_rate": (
                1 - _ratio(counts["plan_cache.misses"], counts["plan_cache.calls"])
                if counts["plan_cache.calls"] else 0.0,
                "frac",
            ),
            "core.executor.pipeline_cache_hit_rate": (
                1 - _ratio(counts["pipeline.builds"], counts["pipeline.calls"])
                if counts["pipeline.calls"] else 0.0,
                "frac",
            ),
            "core.executor.bound_tightness": (
                _ratio(workload.tightness, workload.tight_reads), "frac"
            ),
            "incremental.delta_tuples_per_refresh": (
                _ratio(workload.refresh_advance, workload.refreshes), "tuples"
            ),
            "incremental.refresh_p50_us": (percentile(refresh, 50), "us"),
            "incremental.refresh_p99_us": (tail_percentile(refresh, 99), "us"),
            "relational.write_p50_us": (percentile(write, 50), "us"),
            "relational.write_p99_us": (tail_percentile(write, 99), "us"),
            "relational.change_log_entries": (len(workload.db.change_log), "count"),
            "relational.backends.calls_per_op": (
                _ratio(counts["backend.calls"], ops), "calls"
            ),
            "relational.backends.keys_per_call": (
                _ratio(counts["backend.keys"], counts["backend.calls"]), "keys"
            ),
            "relational.backends.hit_ratio": (
                _ratio(counts["backend.hits"], counts["backend.keys"]), "frac"
            ),
            "relational.backends.full_scans": (workload.full_scans, "count"),
            "relational.backends.bulk_load_s": (workload.bulk_load_s, "s"),
            "bench.traced_op_us": (_ratio(root_ns, ops) * scale, "us"),
            "bench.unattributed_us": (_ratio(unattributed, ops) * scale, "us"),
            "bench.self_time_gap_frac": (gap, "frac"),
            "bench.tracing_overhead_frac": (
                _ratio(untraced.ops_per_s(), traced.ops_per_s()) - 1, "frac"
            ),
            "bench.read_samples": (len(untraced.lat["read"]), "count"),
        }
    )
    if gap > GAP_TOLERANCE:
        print(
            f"warning: layer self times leave {gap:.1%} of the traced time per "
            f"op unattributed (tolerance {GAP_TOLERANCE:.0%})",
            file=sys.stderr,
        )
    if problems:
        raise RuntimeError("inconsistent spans: " + "; ".join(problems[:5]))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--tmpdir", required=True)
    parser.add_argument("--inject-wrong-read", type=int, default=-1)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
