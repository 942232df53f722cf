"""Differential tests over operator shapes the social workload never hits.

Each shape is a small schema, access schema and query whose lowered
pipeline exercises one corner of the compiled operator faces: an
embedded-rule fetch with a residual check and per-source dedup, repeated
variables in a non-terminal and in the terminal fetch, a keyless fetch,
constants at key positions, and prefilters.  For every shape the hot
face must agree with the per-tuple reference executor, the profiler must
report the rows and accounting of the execution it times, and -- where
the plan supports incremental maintenance -- counting on the new state
must equal counting on the old state plus the delta, on every storage
backend.
"""

from dataclasses import dataclass

import pytest

from conftest import BACKEND_KINDS, make_backend
from repro import (
    AccessRule,
    AccessSchema,
    AccessStats,
    Database,
    DatabaseSchema,
    EmbeddedAccessRule,
    RelationSchema,
    compile_plan,
)
from repro.core.executor import (
    ExecutionContext,
    FetchOp,
    execute_per_tuple,
    execute_plan,
    execute_plan_counting,
    execute_plan_delta,
    pipeline_for,
    profile_plan,
)
from repro.logic.parser import parse_query

SCHEMA = DatabaseSchema(
    [
        RelationSchema("edge", ["src", "dst"]),
        RelationSchema("node", ["id", "label", "kind"]),
        RelationSchema("item", ["id", "label", "kind", "extra"]),
        RelationSchema("pair", ["a", "b", "c"]),
        RelationSchema("tag", ["name"]),
    ]
)

PLAIN = (
    AccessRule("edge", ["src"], bound=10),
    AccessRule("node", ["id"], bound=10),
    AccessRule("pair", ["a"], bound=10),
    AccessRule("tag", [], bound=10),
)

EMBEDDED = (
    AccessRule("edge", ["src"], bound=10),
    EmbeddedAccessRule("item", ["id"], ["label"], bound=10),
    AccessRule("item", ["id", "label", "kind"], bound=10),
)

DATA = {
    "edge": [(1, 2), (1, 3), (2, 3), (3, 1), (3, 3), (4, 2)],
    "node": [(2, "a", "u"), (2, "b", "v"), (3, "a", "u"), (3, "c", "u")],
    # Rows 1-2 share (id, label, kind) and differ only in ``extra``: the
    # embedded fetch's per-source dedup keeps one, the next fetch both.
    "item": [
        (2, "a", "u", "z1"),
        (2, "a", "u", "z2"),
        (2, "b", "v", "z1"),
        (3, "a", "v", "z3"),
        (3, "c", "u", "z1"),
    ],
    "pair": [(2, 2, 2), (2, 3, 3), (2, 4, 5), (3, 3, 3), (3, 2, 2), (4, 4, 4)],
    "tag": [(1,), (3,)],
}

#: Mutations applied after the initial count: each shape's relations see
#: inserts and deletes (a delete of an absent row is a no-op).
CHURN = {
    "edge": ([(2, 4), (4, 3), (1, 4)], [(1, 3), (3, 3)]),
    "node": ([(4, "a", "u"), (3, "b", "u")], [(3, "c", "u")]),
    "pair": ([(3, 4, 4), (4, 2, 2), (2, 5, 5)], [(2, 3, 3)]),
    "tag": ([(4,), (2,)], [(1,)]),
}


@dataclass(frozen=True)
class Shape:
    name: str
    query: str
    rules: tuple
    parameters: tuple[str, ...]
    values: tuple[dict, ...]
    maintainable: bool = True

    def plan(self):
        access = AccessSchema(SCHEMA, self.rules)
        query = parse_query(self.query, schema=SCHEMA)
        return compile_plan(query, access, self.parameters)


PIDS = tuple({"p": pid} for pid in range(1, 6))

SHAPES = (
    Shape(
        "embedded_check_dedup",
        "Q(l, e) :- edge(p, x), item(x, l, k, e)",
        EMBEDDED,
        ("p", "k"),
        tuple({"p": p, "k": k} for p in (1, 2, 3, 4) for k in ("u", "v", "w")),
        maintainable=False,
    ),
    Shape(
        "repeated_variables",
        "Q(z) :- edge(p, x), pair(x, y, y), pair(y, z, z)",
        PLAIN,
        ("p",),
        PIDS,
    ),
    Shape("keyless_fetch", "Q(x, t) :- tag(t), edge(t, x)", PLAIN, (), ({},)),
    Shape(
        "constant_in_key",
        "Q(l) :- edge(p, y), node(y, l, 'u')",
        PLAIN,
        ("p",),
        PIDS,
    ),
    Shape(
        "constant_in_first_key",
        "Q(x, y) :- edge(1, x), edge(x, y)",
        PLAIN,
        (),
        ({},),
    ),
    Shape(
        "prefilter_param_constant",
        "Q(y) :- edge(p, y), p = 1",
        PLAIN,
        ("p",),
        PIDS,
    ),
    Shape(
        "prefilter_param_param",
        "Q(y) :- edge(p, y), p = q",
        PLAIN,
        ("p", "q"),
        tuple({"p": p, "q": q} for p in (1, 3) for q in (1, 2, 3)),
    ),
    Shape(
        "prefilter_bind",
        "Q(x, y) :- edge(x, y), pair(y, z, w), x = p",
        PLAIN,
        ("p",),
        PIDS,
    ),
)


def _ids(shape: Shape) -> str:
    return shape.name


def test_shapes_hit_their_corners():
    """Guard the fixtures: each shape still lowers to the operator corner
    it is named after."""
    pipes = {shape.name: pipeline_for(shape.plan()) for shape in SHAPES}
    fetches = {
        name: [op for op in pipe if isinstance(op, FetchOp)]
        for name, pipe in pipes.items()
    }
    embedded = fetches["embedded_check_dedup"][1]
    assert embedded.check_positions and embedded.dedup_positions is not None
    first, terminal = fetches["repeated_variables"][1:]
    assert len(first.bind_positions) == len(terminal.bind_positions) == 2
    assert fetches["keyless_fetch"][0].key_positions == ()
    assert fetches["constant_in_key"][1].key_positions == (0, 2)
    assert fetches["constant_in_first_key"][0].key_positions == (0,)
    for name in ("prefilter_param_constant", "prefilter_param_param"):
        assert pipes[name].prefilter.conditions
    assert pipes["prefilter_bind"].prefilter.binds


@pytest.mark.parametrize("shape", SHAPES, ids=_ids)
def test_execute_matches_per_tuple(shape):
    db = Database(SCHEMA, DATA)
    plan = shape.plan()
    answered = 0
    for values in shape.values:
        rows = execute_plan(plan, db, values)
        assert set(rows) == set(execute_per_tuple(plan, db, values)), values
        answered += bool(rows)
    assert answered


@pytest.mark.parametrize("shape", SHAPES, ids=_ids)
def test_profile_reports_the_execution(shape):
    db = Database(SCHEMA, DATA)
    plan = shape.plan()
    for values in shape.values:
        ctx = ExecutionContext(db)
        rows = execute_plan(plan, ctx, values)
        profile = profile_plan(plan, db, values)
        assert profile.rows == rows, values
        total = AccessStats()
        for op in profile.operators:
            total.tuples_accessed += op.tuples_accessed
            total.indexed_lookups += op.indexed_lookups
            total.full_scans += op.full_scans
        assert total == ctx.stats, values


def _apply_churn(db: Database) -> None:
    for relation, (inserts, deletes) in CHURN.items():
        db.insert_many(relation, inserts)
        db.delete_many(relation, deletes)


@pytest.mark.parametrize("kind", BACKEND_KINDS)
@pytest.mark.parametrize("shape", [s for s in SHAPES if s.maintainable], ids=_ids)
def test_counting_telescopes_through_the_delta(shape, kind):
    db = Database(SCHEMA, DATA, backend=make_backend(kind))
    plan = shape.plan()
    before = [execute_plan_counting(plan, db, values) for values in shape.values]
    mark = db.change_log.watermark
    _apply_churn(db)
    delta = db.change_log.net_since(mark)
    changed = 0
    for values, counts in zip(shape.values, before):
        ctx = ExecutionContext(db, watermark=mark, delta=delta)
        changes = execute_plan_delta(plan, ctx, values)
        changed += bool(changes)
        for row, change in changes.items():
            counts[row] = counts.get(row, 0) + change
        after = execute_plan_counting(plan, db, values)
        assert {row: c for row, c in counts.items() if c} == after, values
        assert set(after) == set(execute_per_tuple(plan, db, values)), values
    assert changed


def test_embedded_fetch_dedups_after_the_residual_check():
    """The answers cannot show it (a later fetch re-verifies every row),
    so check the embedded fetch's own output: per source row, one row per
    distinct label among the rows whose kind passes the residual check."""
    (shape,) = [s for s in SHAPES if s.name == "embedded_check_dedup"]
    plan = shape.plan()
    db = Database(SCHEMA, DATA)
    for values in shape.values:
        profile = profile_plan(plan, db, values)
        fetch = profile.operators[1]
        assert fetch.operator.startswith("fetch item")
        k = values["k"]
        expected = sum(
            len({row[1] for row in DATA["item"] if row[0] == x and row[2] == k})
            for src, x in DATA["edge"]
            if src == values["p"]
        )
        assert fetch.rows_out == expected, values
