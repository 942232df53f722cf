"""Spans around each layer's entry point, recorded from outside ``src/``.

:func:`install` wraps the entry point of every layer a request crosses
(parse, plan cache, compile, certify, lowering, execution, views,
incremental refresh, mutations and the storage reads) in a function that
records a span: ``(id, name, start_ns, end_ns, parent_id, op_id)``.  The
benchmark loop opens one root span per operation (:meth:`Tracer.begin_op`
/ :meth:`Tracer.end_op`), so the spans of one request share its op id
and nest under its root.  Spans stay in memory; :func:`self_times` folds
them into per-layer self time once the run is over.

The same wrappers count work where it happens: keys asked of the storage
layer and how many of them returned a row, plan-cache and pipeline-cache
misses.  Nothing is recorded while :attr:`Tracer.active` is False, so
answer checks between operations leave no spans behind.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

ROOT = "bench.op"


class Tracer:
    """An in-memory span recorder for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self.counts: Counter[str] = Counter()
        self.active = False
        self._stack: list[int] = []
        self._next_id = 0
        self._op = -1
        self._root: tuple[int, str, int] | None = None

    # -- root spans, one per benchmark operation -------------------------

    def begin_op(self, kind: str) -> None:
        self._op += 1
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        self._root = (span_id, ROOT + "." + kind, time.perf_counter_ns())
        self.active = True

    def end_op(self) -> None:
        end = time.perf_counter_ns()
        self.active = False
        span_id, name, start = self._root
        self._stack.pop()
        self.spans.append((span_id, name, start, end, -1, self._op))

    # -- layer spans -----------------------------------------------------

    def wrap(self, name: str, fn, on_exit=None):
        """``fn`` recording a ``name`` span per call while active.
        ``on_exit(args, result)`` runs inside the span, for counters."""
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if on_exit is not None:
                    on_exit(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, self._op))

        return traced

    def count(self, name: str) -> None:
        if self.active:
            self.counts[name] += 1


def self_times(spans) -> tuple[dict[str, int], dict[str, int], list[str]]:
    """Per-name total self time (ns) and call count, plus a list of
    nesting violations (a child outside its parent's interval, or a
    negative self time)."""
    by_id = {span[0]: span for span in spans}
    child_ns: Counter[int] = Counter()
    problems: list[str] = []
    for span_id, name, start, end, parent, op in spans:
        if end < start:
            problems.append(f"{name} ends before it starts")
        if parent >= 0:
            outer = by_id.get(parent)
            if outer is None:
                problems.append(f"{name} has no recorded parent")
                continue
            if start < outer[2] or end > outer[3] or op != outer[5]:
                problems.append(f"{name} escapes its parent {outer[1]}")
            child_ns[parent] += end - start
    totals: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    for span_id, name, start, end, parent, op in spans:
        own = end - start - child_ns[span_id]
        if own < 0:
            problems.append(f"{name} has negative self time {own} ns")
        totals[name] += own
        calls[name] += 1
    return dict(totals), dict(calls), problems


def install(tracer: Tracer, db):
    """Wrap every layer entry point; returns a function undoing it all.
    ``db`` is the workload's :class:`Database`, whose bound storage
    methods are instance slots and are wrapped on the instance."""
    import repro.analysis.certify as certify
    import repro.analysis.cost as cost
    import repro.api.engine as engine
    import repro.core.executor as executor
    from repro.api.cache import PlanCache
    from repro.incremental import IncrementalResult
    from repro.relational.instance import Database
    from repro.views import ViewSet, ViewState

    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, name: str, on_exit=None) -> None:
        original = getattr(owner, attr)
        undo.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, on_exit))

    patch(engine, "parse_query", "logic.parse")
    patch(engine.Engine, "query", "api.query")
    patch(engine.PreparedQuery, "execute", "api.execute")
    patch(engine, "compile_plan", "core.plans.compile")
    patch(engine, "compile_with_views", "views.rewrite")
    patch(engine, "_execute_merged", "core.executor.execute")
    patch(cost, "estimate_plan", "analysis.cost")
    patch(cost, "check_selection", "analysis.cost")
    patch(certify, "check_plan", "analysis.certify")

    def count_lowering(args, result):
        tracer.counts["pipeline.calls"] += 1

    patch(executor, "pipeline_for", "core.executor.lower", count_lowering)
    original_build = executor.build_pipeline

    def build_pipeline(plan):
        tracer.count("pipeline.builds")
        return original_build(plan)

    undo.append((executor, "build_pipeline", original_build))
    executor.build_pipeline = build_pipeline

    # The plan cache: the compute callback is where a miss compiles.
    original_get = PlanCache.get_or_compute
    compile_span = tracer.wrap("api.compile", lambda compute: compute())

    def get_or_compute(self, key, compute):
        tracer.count("plan_cache.calls")

        def compiled():
            tracer.count("plan_cache.misses")
            return compile_span(compute)

        return original_get(self, key, compiled)

    undo.append((PlanCache, "get_or_compute", original_get))
    PlanCache.get_or_compute = tracer.wrap("api.plan_cache", get_or_compute)

    patch(ViewSet, "prepare", "views.prepare")
    patch(ViewState, "refresh", "views.refresh")
    patch(ViewState, "lookup_keys", "views.lookup")
    patch(ViewState, "contains_rows", "views.lookup")

    patch(IncrementalResult, "refresh", "incremental.refresh")
    patch(Database, "insert_many", "relational.mutate")
    patch(Database, "delete_many", "relational.mutate")

    def count_lookup(args, groups):
        counts = tracer.counts
        counts["backend.calls"] += 1
        counts["backend.keys"] += len(args[2])
        counts["backend.hits"] += sum(map(bool, groups))

    def count_contains(args, flags):
        counts = tracer.counts
        counts["backend.calls"] += 1
        counts["backend.keys"] += len(args[1])
        counts["backend.hits"] += sum(flags)

    patch(db, "lookup_keys", "relational.backends.lookup", count_lookup)
    patch(db, "contains_rows", "relational.backends.contains", count_contains)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
