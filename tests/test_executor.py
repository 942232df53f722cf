"""Tests for the batched physical-operator pipeline (repro.core.executor)
and the bulk access API it runs on (lookup_many / contains_many).

The pipeline must agree with the per-tuple reference path on every query
shape the planner can emit, touch no more tuples than it, and expose
per-operator row counts through profile_plan.
"""

import pytest

from repro import (
    AccessRule,
    AccessSchema,
    Atom,
    ConjunctiveQuery,
    Database,
    DatabaseSchema,
    EmbeddedAccessRule,
    Equality,
    RelationSchema,
    compile_plan,
)
from repro.core.executor import (
    ExecutionContext,
    FetchOp,
    FilterOp,
    ProbeOp,
    ProjectDedupOp,
    build_pipeline,
    execute_per_tuple,
    execute_plan,
    execute_plan_counting,
    execute_plan_delta,
    pipeline_for,
    profile_plan,
)
from repro.errors import IncrementalError
from repro.workloads import (
    RUNNING_QUERIES,
    VIEW_QUERIES,
    generate_social_network,
    register_workload_views,
    sample_pids,
    sample_urls,
    social_engine,
)

Q1 = ConjunctiveQuery(
    ["x"],
    [Atom("friend", ["?p", "?x"]), Atom("person", ["?x", "?n", "NYC"])],
)


class TestBulkAccess:
    """The batch read API on the default backend; its accounting on every
    backend is covered by ``tests/test_backends.py``."""

    def test_lookup_many_aligns_groups_with_patterns(self, social_db):
        groups = social_db.lookup_keys("friend", (0,), [(1,), (2,), (99,)])
        assert [tuple(g) for g in groups] == [((1, 2), (1, 3)), ((2, 4),), ()]

    def test_lookup_many_empty_batch(self, social_db):
        assert tuple(social_db.lookup_keys("friend", (0,), [])) == ()

    def test_contains_many_aligns_and_dedups(self, social_db):
        social_db.reset_stats()
        verdicts = social_db.contains_rows(
            "friend", [(1, 2), (9, 9), (1, 2), (2, 4)]
        )
        assert verdicts == (True, False, True, True)
        assert social_db.stats.indexed_lookups == 3  # (1, 2) probed once
        assert social_db.stats.tuples_accessed == 2


class TestPipelineShape:
    def test_q1_pipeline_operators(self, social_access):
        plan = compile_plan(Q1, social_access, ["p"])
        ops = build_pipeline(plan)
        assert [type(op) for op in ops] == [FetchOp, FetchOp, ProjectDedupOp]

    def test_embedded_rule_produces_probe(self, social_schema):
        access = AccessSchema(
            social_schema,
            [
                EmbeddedAccessRule("friend", ["pid1"], ["pid2"], bound=100),
                AccessRule("person", ["pid"], bound=1),
            ],
        )
        plan = compile_plan(Q1, access, ["p"])
        ops = build_pipeline(plan)
        assert ProbeOp in {type(op) for op in ops}
        fetch = next(op for op in ops if isinstance(op, FetchOp))
        assert fetch.dedup_positions is not None

    def test_unsatisfiable_plan_has_empty_pipeline(self, social_access):
        q = ConjunctiveQuery(
            ["x"],
            [Atom("friend", ["?p", "?x"])],
            [Equality("?p", 1), Equality("?p", 2)],
        )
        plan = compile_plan(q, social_access)
        assert build_pipeline(plan) == ()

    def test_pipeline_is_memoized_per_plan(self, social_access):
        plan = compile_plan(Q1, social_access, ["p"])
        assert pipeline_for(plan) is pipeline_for(plan)

    def test_operators_render(self, social_access):
        plan = compile_plan(Q1, social_access, ["p"])
        rendered = [str(op) for op in build_pipeline(plan)]
        assert any("fetch" in line for line in rendered)
        assert any("project/dedup" in line for line in rendered)


class TestBatchedMatchesPerTuple:
    def test_q1_every_parameter(self, social_db, social_access):
        plan = compile_plan(Q1, social_access, ["p"])
        for pid in range(1, 7):
            batched = execute_plan(plan, social_db, p=pid)
            reference = execute_per_tuple(plan, social_db, p=pid)
            assert set(batched) == set(reference)
            assert set(batched) == set(Q1.evaluate(social_db, {"p": pid}))

    def test_batched_touches_no_more_tuples(self, social_db, social_access):
        plan = compile_plan(Q1, social_access, ["p"])
        social_db.reset_stats()
        execute_plan(plan, social_db, p=1)
        batched = social_db.stats.snapshot()
        social_db.reset_stats()
        execute_per_tuple(plan, social_db, p=1)
        per_tuple = social_db.stats.snapshot()
        assert batched.tuples_accessed <= per_tuple.tuples_accessed
        assert batched.tuples_accessed <= plan.fanout_bound
        assert batched.full_scans == 0

    def test_repeated_variable_atom(self, social_db, social_access):
        # friend(x, x): the same new variable at two positions must bind
        # consistently.
        q = ConjunctiveQuery(["x"], [Atom("friend", ["?x", "?x"])])
        access = AccessSchema(
            social_db.schema, [AccessRule("friend", [], bound=100)]
        )
        plan = compile_plan(q, access)
        social_db.add("friend", (7, 7))
        assert set(execute_plan(plan, social_db)) == {(7,)}
        assert set(execute_per_tuple(plan, social_db)) == {(7,)}

    def test_embedded_rule_matches_reference(self, social_schema, social_db):
        access = AccessSchema(
            social_schema,
            [
                EmbeddedAccessRule("friend", ["pid1"], ["pid2"], bound=100),
                AccessRule("person", ["pid"], bound=1),
            ],
        )
        plan = compile_plan(Q1, access, ["p"])
        for pid in range(1, 7):
            assert set(execute_plan(plan, social_db, p=pid)) == set(
                execute_per_tuple(plan, social_db, p=pid)
            ) == set(Q1.evaluate(social_db, {"p": pid}))

    def test_constants_used_as_keys(self, social_db, social_access):
        q = ConjunctiveQuery(["x"], [Atom("friend", [4, "?x"])])
        plan = compile_plan(q, social_access)
        social_db.reset_stats()
        assert execute_plan(plan, social_db) == ((5,),)
        assert social_db.stats.full_scans == 0


class TestParameterEqualities:
    """Equalities that involve plan parameters become FilterOp work."""

    def _friend_setup(self):
        schema = DatabaseSchema([RelationSchema("friend", ["a", "b"])])
        access = AccessSchema(schema, [AccessRule("friend", ["a"], bound=10)])
        db = Database(schema, {"friend": [(1, 2), (1, 3), (2, 4)]})
        return access, db

    def test_parameter_equated_to_variable_either_orientation(self):
        access, db = self._friend_setup()
        for left, right in (("?p", "?x"), ("?x", "?p")):
            q = ConjunctiveQuery(
                ["y"], [Atom("friend", ["?x", "?y"])], [Equality(left, right)]
            )
            plan = compile_plan(q, access, ["p"])
            db.reset_stats()
            assert set(execute_plan(plan, db, p=1)) == {(2,), (3,)}
            assert db.stats.full_scans == 0
            assert set(execute_per_tuple(plan, db, p=1)) == {(2,), (3,)}

    def test_parameter_equated_to_constant_filters_values(self):
        access, db = self._friend_setup()
        q = ConjunctiveQuery(
            ["y"], [Atom("friend", ["?p", "?y"])], [Equality("?p", 1)]
        )
        plan = compile_plan(q, access, ["p"])
        ops = build_pipeline(plan)
        assert isinstance(ops[0], FilterOp)
        assert set(execute_plan(plan, db, p=1)) == {(2,), (3,)}
        assert execute_plan(plan, db, p=2) == ()  # contradicts ?p = 1
        assert execute_per_tuple(plan, db, p=2) == ()

    def test_two_parameters_in_same_class_must_agree(self):
        access, db = self._friend_setup()
        q = ConjunctiveQuery(
            ["y"],
            [Atom("friend", ["?p", "?y"])],
            [Equality("?p", "?q")],
        )
        plan = compile_plan(q, access, ["p", "q"])
        assert set(execute_plan(plan, db, p=1, q=1)) == {(2,), (3,)}
        assert execute_plan(plan, db, p=1, q=2) == ()
        assert execute_per_tuple(plan, db, p=1, q=2) == ()


class TestEntryPointValidation:
    def test_missing_parameter_rejected(self, social_db, social_access):
        plan = compile_plan(Q1, social_access, ["p"])
        with pytest.raises(ValueError, match="missing plan parameters"):
            execute_plan(plan, social_db)

    def test_extra_binding_rejected(self, social_db, social_access):
        plan = compile_plan(Q1, social_access, ["p"])
        with pytest.raises(ValueError, match="not plan parameters"):
            execute_plan(plan, social_db, p=1, zzz=9)

    def test_unsatisfiable_returns_empty(self, social_db, social_access):
        q = ConjunctiveQuery(
            ["x"],
            [Atom("friend", ["?p", "?x"])],
            [Equality("?p", 1), Equality("?p", 2)],
        )
        plan = compile_plan(q, social_access)
        assert execute_plan(plan, social_db) == ()
        assert execute_per_tuple(plan, social_db) == ()


class TestProfile:
    def test_profile_reports_per_operator_rows(self, social_db, social_access):
        plan = compile_plan(Q1, social_access, ["p"])
        profile = profile_plan(plan, social_db, p=1)
        assert set(profile.rows) == set(execute_plan(plan, social_db, p=1))
        # The friend fetch, then the fused friend-person fetch + project.
        assert len(profile.operators) == 2
        assert profile.operators[-1].operator.startswith("fused[fetch person")
        first = profile.operators[0]
        assert first.rows_in == 1  # the seed assignment
        assert first.rows_out == 2  # person 1 has two friends
        assert profile.tuples_accessed <= plan.fanout_bound
        assert "fetch" in str(profile)

    def test_profile_row_counts_chain(self, social_db, social_access):
        plan = compile_plan(Q1, social_access, ["p"])
        profile = profile_plan(plan, social_db, p=1)
        for prev, nxt in zip(profile.operators, profile.operators[1:]):
            assert nxt.rows_in == prev.rows_out

    @pytest.mark.parametrize("bundle", RUNNING_QUERIES, ids=lambda b: b.name)
    def test_profile_times_the_production_closures(self, bundle):
        """One profile entry per hot-face body step plus the terminal --
        the closures execute_plan runs -- with the same rows and the same
        accounting as an unprofiled execution."""
        engine = social_engine(80, seed=4)
        db = engine.require_database()
        plan = bundle.prepare(engine).plan(bundle.parameters)
        pipe = pipeline_for(plan)
        reached = 0
        for pid in sample_pids(80, 15, seed=4):
            values = {bundle.parameters[0]: pid}
            ctx = ExecutionContext(db)
            rows = execute_plan(plan, ctx, values)
            profile = profile_plan(plan, db, values)
            assert profile.rows == rows
            assert profile.tuples_accessed == ctx.stats.tuples_accessed
            body = profile.operators[: len(pipe.body)]
            assert [op.operator for op in body] == [
                str(level) for level in pipe.levels[: len(body)]
            ]
            if len(body) == len(pipe.body) and all(op.rows_out for op in body):
                reached += 1
                assert len(profile.operators) == len(pipe.body) + 1
            else:  # stopped where execute_plan stops: at the first empty step
                assert len(profile.operators) == len(body) and not rows
        assert reached


class TestCountingAccounting:
    """execute_plan_counting runs the old face and execute_plan the hot
    face: on the same state they return the same answers in the same
    order and charge bit-identical access statistics."""

    PERSONS = 300

    def _check(self, engine, bundles) -> int:
        db = engine.require_database()
        states = engine.views.prepare(db)
        data = generate_social_network(self.PERSONS, seed=5)
        urls = sample_urls(data, 20, seed=5)
        pids = sample_pids(self.PERSONS, 20, seed=5)
        view_plans = 0
        for bundle in bundles:
            name = bundle.parameters[0]
            plan = bundle.prepare(engine).plan(bundle.parameters)
            view_plans += bool(plan.view_relations)
            for value in urls if name == "u" else pids:
                hot = ExecutionContext(db, views=states)
                rows = execute_plan(plan, hot, {name: value})
                counting = ExecutionContext(db, views=states)
                counts = execute_plan_counting(plan, counting, {name: value})
                assert tuple(counts) == rows, (bundle.name, value)
                assert counting.stats == hot.stats, (bundle.name, value)
        return view_plans

    def test_counting_charges_what_execute_charges(self):
        engine = social_engine(self.PERSONS, seed=5)
        assert self._check(engine, RUNNING_QUERIES) == 0

    def test_counting_charges_what_execute_charges_with_views(self):
        engine = social_engine(self.PERSONS, seed=5)
        register_workload_views(engine)
        assert self._check(engine, RUNNING_QUERIES + VIEW_QUERIES) >= 2


class TestExecutionContext:
    """The per-execution context: double-entry accounting and the old-state
    (pre-delta) read adjustments the delta pipeline runs on."""

    def _ctx(self, social_db, delta=None):
        from repro.core.executor import ExecutionContext

        return ExecutionContext(social_db, delta=delta)

    def test_reads_charge_context_and_database(self, social_db):
        social_db.reset_stats()
        ctx = self._ctx(social_db)
        ctx.lookup_keys("friend", (0,), [(1,)])
        ctx.contains_rows("friend", [(1, 2)])
        assert ctx.stats.tuples_accessed == social_db.stats.tuples_accessed == 3
        assert ctx.stats.indexed_lookups == social_db.stats.indexed_lookups == 2

    def test_two_contexts_do_not_share_stats(self, social_db):
        a, b = self._ctx(social_db), self._ctx(social_db)
        a.lookup_keys("friend", (0,), [(1,)])
        assert b.stats.tuples_accessed == 0
        assert a.stats.tuples_accessed == 2

    def test_watermark_defaults_to_the_log(self, social_db):
        assert self._ctx(social_db).watermark == social_db.change_log.watermark

    def test_lookup_many_old_drops_inserts_and_restores_deletes(self, social_db):
        mark = social_db.change_log.watermark
        social_db.insert_many("friend", [(1, 9)])
        social_db.delete_many("friend", [(1, 2)])
        delta = social_db.change_log.net_since(mark)
        ctx = self._ctx(social_db, delta=delta)
        (old,) = ctx.lookup_keys_old("friend", (0,), [(1,)])
        assert set(old) == {(1, 3), (1, 2)}  # no (1, 9); (1, 2) restored
        (new,) = ctx.lookup_keys("friend", (0,), [(1,)])
        assert set(new) == {(1, 3), (1, 9)}

    def test_contains_many_old_answers_from_the_slice(self, social_db):
        mark = social_db.change_log.watermark
        social_db.insert_many("friend", [(1, 9)])
        social_db.delete_many("friend", [(1, 2)])
        delta = social_db.change_log.net_since(mark)
        ctx = self._ctx(social_db, delta=delta)
        social_db.reset_stats()
        verdicts = ctx.contains_rows_old("friend", [(1, 9), (1, 2), (2, 4), (7, 7)])
        assert verdicts == (False, True, True, False)
        # Only the two slice-unknown rows were probed.
        assert ctx.stats.indexed_lookups == 2

    def test_delta_index_groups_by_positions(self, social_db):
        delta = {"friend": {(1, 9): 1, (1, 8): -1, (2, 9): 1}}
        ctx = self._ctx(social_db, delta=delta)
        index = ctx.delta_index("friend", (0,))
        assert set(index) == {(1,), (2,)}
        # Signed rows: the stored row with its sign appended.
        assert set(index[(1,)]) == {(1, 9, 1), (1, 8, -1)}
        assert ctx.delta_index("friend", (0,)) is index  # memoized

    def test_empty_slice_reads_pass_through(self, social_db):
        ctx = self._ctx(social_db)
        assert ctx.lookup_keys_old("friend", (0,), [(1,)]) == ctx.lookup_keys(
            "friend", (0,), [(1,)]
        )
        assert ctx.delta_net("friend") == {}
        assert ctx.delta_rows("friend") == ()
        assert "ExecutionContext" in repr(ctx)


class TestDeltaOperatorFaces:
    """The delta face (the join against the change slice) and the old
    face (pre-delta reads), driven through their entry points."""

    def test_keyless_fetch_run_delta_joins_every_row(self, social_db):
        q = ConjunctiveQuery(["x", "y"], [Atom("friend", ["?x", "?y"])])
        access = AccessSchema(social_db.schema, [AccessRule("friend", [], bound=100)])
        plan = compile_plan(q, access)
        fetch = next(op for op in pipeline_for(plan) if isinstance(op, FetchOp))
        assert fetch.key_positions == ()
        ctx = ExecutionContext(social_db, delta={"friend": {(8, 9): 1, (1, 2): -1}})
        assert execute_plan_delta(plan, ctx) == {(8, 9): 1, (1, 2): -1}
        assert ctx.stats.tuples_accessed == 0  # the slice lives in memory

    def test_embedded_fetch_delta_faces_raise(self, social_schema, social_db):
        access = AccessSchema(
            social_schema,
            [
                EmbeddedAccessRule("friend", ["pid1"], ["pid2"], bound=100),
                AccessRule("person", ["pid"], bound=1),
            ],
        )
        plan = compile_plan(Q1, access, ["p"])
        ctx = ExecutionContext(social_db, delta={"friend": {(1, 9): 1}})
        with pytest.raises(IncrementalError):
            execute_plan_delta(plan, ctx, p=1)
        with pytest.raises(IncrementalError):
            execute_plan_counting(plan, ctx, p=1)

    def test_probe_run_delta_multiplies_signs(self):
        # Q(b) :- r(p, b), s(b): the probe on s is the only changed level,
        # so its slice join signs every prefix row by its change, and rows
        # the slice does not mention drop out.
        schema = DatabaseSchema(
            [RelationSchema("r", ["a", "b"]), RelationSchema("s", ["b"])]
        )
        access = AccessSchema(
            schema, [AccessRule("r", ["a"], bound=10), AccessRule("s", [], bound=10)]
        )
        q = ConjunctiveQuery(["b"], [Atom("r", ["?p", "?b"]), Atom("s", ["?b"])])
        plan = compile_plan(q, access, ["p"])
        assert isinstance(pipeline_for(plan).levels[-1], ProbeOp)
        db = Database(schema, {"r": [(1, 2), (1, 3), (1, 4)], "s": [(3,), (4,)]})
        ctx = ExecutionContext(db, delta={"s": {(2,): -1, (3,): 1}})
        assert execute_plan_delta(plan, ctx, p=1) == {(2,): -1, (3,): 1}
