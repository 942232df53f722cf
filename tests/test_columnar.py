"""Tests for the columnar executor layer (repro.core.columnar and the
compiled pipeline built on it).

Covers slot-table compilation (variable -> column index, fixed per
plan), constant interning identity, fused-vs-unfused equivalence on
seeded workloads, delta-join vectorization under mixed churn, and the
pipeline LRU cache's eviction/stats discipline.
"""

from sys import intern as sys_intern

import pytest

from repro import (
    AccessRule,
    AccessSchema,
    Atom,
    ConjunctiveQuery,
    Database,
    DatabaseSchema,
    RelationSchema,
    compile_plan,
)
from repro.core.columnar import (
    PipelineCache,
    PipelineCacheStats,
    SlotTable,
)
from repro.core.executor import (
    ExecutionContext,
    FetchOp,
    ProjectDedupOp,
    build_pipeline,
    execute_per_tuple,
    execute_plan,
    execute_plan_counting,
    execute_plan_delta,
    merge_parameter_values,
    pipeline_cache_stats,
    pipeline_for,
)
from repro.logic.terms import Constant, Variable
from repro.relational.interning import intern_row, intern_value
from repro.workloads import (
    RUNNING_QUERIES,
    generate_churn,
    generate_social_network,
    social_engine,
)

P, X, N = Variable("p"), Variable("x"), Variable("n")


class TestSlotTable:
    def test_first_seen_order_and_dedup(self):
        table = SlotTable([P, X, P, N, X])
        assert table.variables == (P, X, N)
        assert [table.slot(v) for v in (P, X, N)] == [0, 1, 2]

    def test_container_protocol(self):
        table = SlotTable([P, X])
        assert len(table) == 2
        assert P in table and N not in table
        assert list(table) == [P, X]

    def test_extend_returns_self_when_nothing_new(self):
        table = SlotTable([P, X])
        assert table.extend([X, P]) is table

    def test_extend_appends_fresh_variables_stably(self):
        table = SlotTable([P, X])
        grown = table.extend([X, N])
        assert grown.variables == (P, X, N)
        assert grown.slot(P) == table.slot(P)  # existing slots unmoved


class TestSlotCompilation:
    """The per-plan slot table compiled at lowering time."""

    def q1_plan(self, social_access):
        q = ConjunctiveQuery(
            ["x"],
            [Atom("friend", ["?p", "?x"]), Atom("person", ["?x", "?n", "NYC"])],
        )
        return compile_plan(q, social_access, ["p"])

    def test_slots_cover_parameters_atoms_and_head(self, social_access):
        pipe = build_pipeline(self.q1_plan(social_access))
        assert set(pipe.slots.variables) == {P, X, N}
        assert pipe.slots.variables[0] == P  # parameters lead
        assert pipe.width == len(pipe.slots.variables)

    def test_seed_slots_are_the_declared_parameters(self, social_access):
        pipe = build_pipeline(self.q1_plan(social_access))
        assert [(slot, var) for slot, var in pipe.seed_slots] == [
            (pipe.slots.slot(P), P)
        ]
        assert pipe.params == frozenset([P])

    def test_unsatisfiable_plan_lowers_to_the_empty_pipeline(self, social_access):
        q = ConjunctiveQuery(
            ["x"],
            [Atom("friend", ["?p", "?x"])],
            [
                # ?p equated to two distinct constants: unsatisfiable.
                *(
                    __import__("repro").Equality(P, Constant(value))
                    for value in (1, 2)
                )
            ],
        )
        plan = compile_plan(q, social_access, ["p"])
        pipe = build_pipeline(plan)
        assert pipe == ()
        assert pipe.width == 0 and pipe.terminal is None


class TestInterningIdentity:
    def test_merge_parameter_values_interns_exact_strings(self):
        # A runtime-built string is a distinct object pre-interning.
        city = "".join(["N", "Y", "C"])
        values = merge_parameter_values({"c": city}, {})
        assert values[Variable("c")] is sys_intern("NYC")

    def test_kwargs_and_constant_wrappers_intern_too(self):
        values = merge_parameter_values(
            {"a": Constant("".join(["S", "F"]))}, {"b": "".join(["L", "A"])}
        )
        assert values[Variable("a")] is sys_intern("SF")
        assert values[Variable("b")] is sys_intern("LA")

    def test_str_subclasses_and_non_strings_pass_through(self):
        class Label(str):
            pass

        label = Label("NYC")
        assert intern_value(label) is label  # sys.intern rejects subclasses
        assert intern_value(42) == 42

    def test_intern_row_returns_original_tuple_when_all_numeric(self):
        row = (1, 2.5, 3)
        assert intern_row(row) is row

    def test_stored_rows_share_the_parameter_string_object(self):
        schema = DatabaseSchema([RelationSchema("person", ["pid", "city"])])
        db = Database(schema, {"person": [(1, "".join(["N", "Y", "C"]))]})
        ((row,),) = db.lookup_keys("person", (0,), [(1,)])
        values = merge_parameter_values({"c": "".join(["N", "Y", "C"])}, {})
        # Both sides funneled through interning: identity, not just equality.
        assert row[1] is values[Variable("c")]


class TestFusion:
    def test_trailing_fetch_and_project_fuse(self, social_access):
        q = ConjunctiveQuery(
            ["x"],
            [Atom("friend", ["?p", "?x"]), Atom("person", ["?x", "?n", "NYC"])],
        )
        pipe = build_pipeline(compile_plan(q, social_access, ["p"]))
        # The specs keep the addressable operators...
        assert isinstance(pipe[-2], FetchOp)
        assert isinstance(pipe[-1], ProjectDedupOp)
        # ...while the hot face folds the trailing fetch into the
        # terminal: two data levels, one body step.
        assert len(pipe.levels) == 2
        assert len(pipe.body) == 1

    @pytest.mark.parametrize("bundle", RUNNING_QUERIES, ids=lambda b: b.name)
    def test_fused_equals_unfused_on_seeded_workload(self, bundle):
        # The hot face fuses its tail; the counting pass runs the same
        # specs unfused (old face plus the signed terminal).
        engine = social_engine(60, seed=1)
        db = engine.require_database()
        prepared = bundle.prepare(engine)
        plan = prepared.plan(bundle.parameters)
        param = bundle.parameters[0]
        for pid in range(0, 60, 7):
            values = {param: pid}
            fused = set(execute_plan(plan, db, values))
            unfused = set(execute_plan_counting(plan, db, values))
            reference = set(execute_per_tuple(plan, db, values))
            assert fused == unfused == reference, (
                f"{bundle.name} diverges at pid={pid}"
            )

    def test_fused_terminal_respects_consistency_checks(self, social_db):
        # Repeated variable in the terminal atom: the fused path must
        # apply the same fetched-row check the unfused FetchOp does.
        schema = social_db.schema
        access = AccessSchema(
            schema,
            [
                AccessRule("friend", ["pid1"], bound=10),
                AccessRule("person", ["pid"], bound=1),
            ],
        )
        q = ConjunctiveQuery(
            ["x", "m"],
            [
                Atom("friend", ["?p", "?x"]),
                Atom("person", ["?x", "?m", "?c"]),
            ],
        )
        plan = compile_plan(q, access, ["p", "c"])
        for city in ("NYC", "SF", "nowhere"):
            values = {"p": 1, "c": city}
            assert set(execute_plan(plan, social_db, values)) == set(
                execute_per_tuple(plan, social_db, values)
            )


class TestDeltaVectorization:
    """The delta face over a many-row batch must equal the row-at-a-time
    decomposition -- vectorization changes the batching, never the
    multiset of signed derivations."""

    PERSONS = 50

    def _churn(self, db, seed=2):
        """Apply mixed churn (inserts and deletes); return its slice."""
        mark = db.change_log.watermark
        for batch in generate_churn(
            generate_social_network(self.PERSONS, seed=seed),
            batches=3,
            batch_size=15,
            seed=seed + 1,
            delete_fraction=0.5,
        ):
            batch.apply(db)
        delta = db.change_log.net_since(mark)
        assert any(sign > 0 for net in delta.values() for sign in net.values())
        assert any(sign < 0 for net in delta.values() for sign in net.values())
        return delta

    def test_batched_run_delta_equals_row_at_a_time(self):
        engine = social_engine(self.PERSONS, seed=2)
        db = engine.require_database()
        delta = self._churn(db)
        q = ConjunctiveQuery(["x"], [Atom("friend", ["?p", "?x"])])
        pipe = pipeline_for(compile_plan(q, engine.access, ["p"]))
        faces = pipe.signed_faces()
        p_slot, x_slot = pipe.slots.slot(P), pipe.slots.slot(X)

        def join(pids):
            columns = [None] * pipe.width
            columns[p_slot] = list(pids)
            ctx = ExecutionContext(db, delta=delta)
            out, n = faces.delta[0](ctx, columns, len(pids))
            assert ctx.stats.tuples_accessed == 0
            return list(zip(out[x_slot], out[faces.sign])) if n else []

        pids = sorted({row[0] for row in delta["friend"]} | set(range(6)))
        vectorized = join(pids)
        one_by_one = [pair for pid in pids for pair in join([pid])]
        assert vectorized
        assert sorted(vectorized) == sorted(one_by_one)

    def test_run_old_and_run_delta_telescope_to_the_new_state(self):
        """old + delta == new, as derivation counts: the old face
        reproduces the pre-churn state from the post-churn database, and
        the delta face supplies exactly the difference."""
        engine = social_engine(self.PERSONS, seed=2)
        db = engine.require_database()
        q = ConjunctiveQuery(["x"], [Atom("friend", ["?p", "?x"])])
        plan = compile_plan(q, engine.access, ["p"])
        pids = range(0, self.PERSONS, 11)
        before = {pid: execute_plan_counting(plan, db, p=pid) for pid in pids}
        delta = self._churn(db)
        for pid in pids:
            old = execute_plan_counting(
                plan, ExecutionContext(db, delta=delta), p=pid
            )
            assert old == before[pid], f"old face diverges at pid={pid}"
            changes = execute_plan_delta(
                plan, ExecutionContext(db, delta=delta), p=pid
            )
            for row, change in changes.items():
                old[row] = old.get(row, 0) + change
            telescoped = {row: count for row, count in old.items() if count}
            assert telescoped == execute_plan_counting(plan, db, p=pid), (
                f"telescoping fails at pid={pid}"
            )


class TestPipelineCache:
    def test_lru_eviction_and_stats(self):
        cache = PipelineCache(maxsize=2)
        builds: list[object] = []

        def build(key):
            builds.append(key)
            return ("pipe", key)

        a, b, c = object(), object(), object()
        assert cache.get_or_build(a, build) == ("pipe", a)
        assert cache.get_or_build(b, build) == ("pipe", b)
        assert cache.get_or_build(a, build) == ("pipe", a)  # hit; a is MRU
        cache.get_or_build(c, build)  # evicts b (LRU), not a
        assert cache.get_or_build(a, build) == ("pipe", a)  # still cached
        cache.get_or_build(b, build)  # rebuilt after eviction
        assert builds == [a, b, c, b]
        stats = cache.stats()
        assert isinstance(stats, PipelineCacheStats)
        assert stats.misses == 4
        assert stats.hits == 2
        assert stats.evictions == 2  # b once, then a pushed out by b
        assert stats.size == 2 and stats.maxsize == 2

    def test_resize_shrink_evicts_immediately(self):
        cache = PipelineCache(maxsize=4)
        keys = [object() for _ in range(4)]
        for key in keys:
            cache.get_or_build(key, lambda k: k)
        cache.resize(1)
        stats = cache.stats()
        assert stats.size == 1 and stats.evictions == 3
        # The survivor is the most recently used entry.
        hit_before = stats.hits
        cache.get_or_build(keys[-1], lambda k: k)
        assert cache.stats().hits == hit_before + 1

    def test_unbounded_cache_never_evicts(self):
        cache = PipelineCache(maxsize=None)
        for _ in range(300):
            cache.get_or_build(object(), lambda k: k)
        stats = cache.stats()
        assert stats.evictions == 0 and stats.size == 300
        cache.clear()
        assert len(cache) == 0

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            PipelineCache(maxsize=0)
        cache = PipelineCache(maxsize=2)
        with pytest.raises(ValueError):
            cache.resize(-1)

    def test_pipeline_for_is_cached_with_observable_stats(self, social_access):
        q = ConjunctiveQuery(["x"], [Atom("friend", ["?p", "?x"])])
        plan = compile_plan(q, social_access, ["p"])
        first = pipeline_for(plan)
        before = pipeline_cache_stats()
        assert pipeline_for(plan) is first
        after = pipeline_cache_stats()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses
