"""Columnar batch-at-a-time physical execution of scale-independent plans.

:mod:`repro.core.plans` is the *planner*: :func:`~repro.core.plans.compile_plan`
turns a controlled conjunctive query into an ordered sequence of
fetch/probe steps plus a head projection.  This module is the *executor*:
it lowers those steps into operator specs and compiles each spec into
closures over a **columnar** batch -- a list with one Python list per
variable slot, the variable-to-slot mapping fixed once per plan in a
:class:`~repro.core.columnar.SlotTable`.  No per-row dict exists on any
path: a compiled step builds its whole key column with one ``zip``,
expands join matches as a ``take`` list of source indices plus fresh
columns for newly bound variables, and gathers only the columns a later
operator still reads.  Constants are interned at lowering time
(:mod:`repro.relational.interning`) so every lookup key hashes once and
compares by identity first.

The operator specs (data only -- atom, key/check/bind/dedup positions,
rule and live-column set):

* :class:`FilterOp` -- the compile-time equality constraints that involve
  plan parameters (a parameter equated to a constant or to another
  parameter) and the copies of parameter values onto their equality-class
  representatives.  Every entry point evaluates it on the length-1 seed
  assignment (:meth:`FilterOp.check_seed`) before the first batch exists.
* :class:`FetchOp` -- one :meth:`lookup_keys` for the whole batch, keyed on
  the positions that are statically known to be bound at this point of the
  pipeline, then join each group of rows back to its source row
  (consistency-checked for repeated variables; embedded access rules
  additionally filter on residual bound positions and deduplicate output
  projections, mirroring their ``R(X -> Y, N)`` semantics).
* :class:`ProbeOp` -- verify a fully-bound atom for the whole batch with
  one :meth:`contains_rows` call.
* :class:`ProjectDedupOp` -- project the surviving rows onto the head
  terms and deduplicate, preserving first-derivation order.

:class:`ViewScanOp` / :class:`ViewProbeOp` are the same specs reading a
materialized view (:mod:`repro.views`) instead of the database.

One set of ``_compile_*`` functions turns the specs into every face the
executor runs:

* the **hot face** (:func:`build_pipeline`) -- live reads, unsigned.  A
  trailing fetch-then-project pair compiles to one fused terminal that
  emits head rows straight from the fetched row groups, so the final
  batch is never materialized.  :func:`execute_plan` runs it, and
  :func:`profile_plan` times the very same closures.
* the **old face** -- reads of the pre-delta snapshot
  (:meth:`ExecutionContext.lookup_keys_old` /
  :meth:`~ExecutionContext.contains_rows_old`), with one extra *sign*
  column that every gather carries along.
* the **delta face** -- the join against the in-memory change slice
  (:meth:`ExecutionContext.lookup_keys_delta`): slice rows carry their
  sign as a trailing position, which the join binds into the sign column.
  Accesses zero stored tuples.

The signed faces are compiled lazily, on a plan's first counting or
refresh (:meth:`Pipeline.signed_faces`).  :func:`execute_plan_delta`
composes them into the standard delta rule: for each operator level ``i``
with changes, levels ``< i`` run on the new state (hot face), level ``i``
joins the change slice, levels ``> i`` run on the old state -- so each
affected derivation is produced (with its sign) exactly once, one bulk
database call per level, and the tuples accessed stay within
:func:`delta_fanout_bound`, a function of the slice size and the
access-rule bounds only.  :func:`execute_plan_counting` is the matching
initial pass -- the old face over an all-``+1`` seed, accumulated into
per-answer derivation multiplicities, the state that makes signed deltas
composable under deletion.

A backward liveness pass gives every operator the ``keep`` set of
variables some later operator still reads; gathers skip dead columns.
Because the bulk access methods resolve each *distinct* key once per
batch, batched execution touches at most -- and on skewed workloads far
fewer than -- the tuples the per-assignment reference path touches; both
stay within the plan's :attr:`~repro.core.plans.Plan.fanout_bound`.

:func:`execute_per_tuple` keeps the pre-pipeline recursive per-assignment
executor alive as the reference semantics: differential tests assert the
pipeline agrees with it, and :mod:`repro.bench` measures the speedup of
batched over per-tuple execution.  It reads through the same
:meth:`~ExecutionContext.lookup_keys` / :meth:`~ExecutionContext.contains_rows`
methods as the pipeline, one single-key batch per partial assignment.

Every execution runs inside an :class:`ExecutionContext` -- the database
handle, a private per-execution :class:`AccessStats` (charged alongside
the database's cumulative counters, so concurrent executions never
contaminate each other's deltas), a change-log watermark and, for
refreshes, the net change slice past it.  All entry points accept either
a raw :class:`~repro.relational.instance.Database` (a fresh context is
opened) or an existing context.
"""

from __future__ import annotations

from dataclasses import dataclass
from sys import intern as _intern
from time import perf_counter
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from repro.core.access_schema import AccessRule, EmbeddedAccessRule
from repro.core.columnar import (
    EMPTY_KEY,
    PipelineCache,
    PipelineCacheStats,
    SlotTable,
)
from repro.core.plans import FetchStep, Plan, ProbeStep
from repro.errors import IncrementalError, SchemaError
from repro.logic.ast import Atom, _as_variable
from repro.logic.evaluation import _bound_pattern, _extend, row_matches
from repro.logic.terms import Constant, Term, Variable
from repro.relational.instance import AccessStats, NetDelta
from repro.relational.interning import intern_value

Row = tuple[object, ...]
Assignment = dict[Variable, object]


def _rewind_key_groups(
    groups: Sequence[tuple[Row, ...]],
    positions: tuple[int, ...],
    keys: Sequence[Row],
    net: Mapping[Row, int],
) -> Sequence[tuple[Row, ...]]:
    """Correct current-state lookup ``groups`` (one per key over the
    shared ``positions``) back to the pre-delta snapshot: rows inserted
    since the watermark are dropped, rows deleted since it (and matching
    the key) are restored."""
    if not net:
        return groups
    deleted = [row for row, sign in net.items() if sign < 0]
    adjusted: list[tuple[Row, ...]] = []
    for key, rows in zip(keys, groups):
        rows = tuple(row for row in rows if net.get(row, 0) <= 0)
        restored = tuple(
            row
            for row in deleted
            if all(row[p] == v for p, v in zip(positions, key))
        )
        adjusted.append(rows + restored)
    return adjusted


def _rewind_membership(
    rows: Sequence[Sequence[object]],
    net: Mapping[Row, int],
    probe,
) -> tuple[bool, ...]:
    """Pre-delta membership verdicts: rows the slice says nothing about
    are probed against the current state via ``probe``; the rest are
    answered from the slice alone (deleted since the watermark -> present
    then; inserted since -> absent then)."""
    if not net:
        return tuple(probe([tuple(row) for row in rows]))
    verdicts: list[bool | None] = []
    unknown: list[Row] = []
    for row in rows:
        row = tuple(row)
        sign = net.get(row)
        if sign is None:
            verdicts.append(None)
            unknown.append(row)
        else:
            verdicts.append(sign < 0)
    if unknown:
        probed = iter(probe(unknown))
        verdicts = [next(probed) if v is None else v for v in verdicts]
    return tuple(verdicts)


class ExecutionContext:
    """The per-execution state threaded through every operator.

    One context = one execution: it owns the execution's private
    :attr:`stats` (every access is charged here *and* in the database's
    cumulative :attr:`~repro.relational.instance.Database.stats`), the
    change-log :attr:`watermark` the execution is positioned at, and --
    for delta executions -- the net change slice past that watermark.
    Contexts are cheap and never shared across executions; that is what
    makes per-execution accounting exact under concurrent traffic.

    ``views`` maps materialized-view names to their states
    (:class:`repro.views.ViewState` or anything with the same
    ``lookup_keys``/``contains_rows`` surface): view-assisted plans
    (:mod:`repro.views`) read views through the ``view_*`` methods below,
    charged to this execution's :attr:`stats` only -- the database
    cumulative counters see base-table traffic exclusively.  For delta
    executions, view answer changes ride in :attr:`delta` under the view
    name, exactly like a base relation's slice.

    Every read is a batch read in the storage backend's shape:
    ``lookup_keys``/``contains_rows``, their ``_old`` and ``view_``
    variants, and ``lookup_keys_delta``.  All take ``(relation, ...)``
    after the context, so the compiled operators call them as plain
    functions of the context; the per-tuple reference executor calls the
    same methods with one-key batches.
    """

    __slots__ = (
        "db",
        "stats",
        "_watermark",
        "delta",
        "views",
        "_delta_rows",
        "_delta_index",
    )

    def __init__(
        self,
        db,
        stats: AccessStats | None = None,
        watermark: int | None = None,
        delta: NetDelta | None = None,
        caches: tuple[dict, dict] | None = None,
        views: Mapping[str, object] | None = None,
    ):
        self.db = db
        self.stats = AccessStats() if stats is None else stats
        self._watermark = watermark
        self.delta = delta
        self.views = views
        # Derived views of the slice (row tuples, per-position indexes).
        # ``caches`` lets consumers of one identical slice share them
        # across contexts (see ChangeLog.slice_caches); by default they
        # are private to this context and allocated lazily -- the
        # standard execute path never touches the slice.
        if caches is None:
            self._delta_rows: dict[str, tuple[tuple[Row, int], ...]] | None = None
            self._delta_index: dict[tuple, dict[Row, list[Row]]] | None = None
        else:
            self._delta_rows = caches[0]
            self._delta_index = caches[1]

    @property
    def watermark(self) -> int:
        """The change-log position this execution is positioned at
        (resolved lazily: the standard hot path never reads the log)."""
        mark = self._watermark
        if mark is None:
            mark = self.db.change_log.watermark
            self._watermark = mark
        return mark

    def __repr__(self) -> str:
        delta = sum(len(rows) for rows in (self.delta or {}).values())
        return (
            f"ExecutionContext(watermark={self.watermark}, "
            f"delta={delta} rows, {self.stats.tuples_accessed} tuples accessed)"
        )

    # -- live reads (charged to this execution and the database) ---------

    def lookup_keys(
        self, relation: str, positions: tuple[int, ...], keys: Sequence[Row]
    ) -> Sequence[tuple[Row, ...]]:
        """Bulk lookup in the columnar executor's native form: every key
        constrains the same (sorted) ``positions``, so the index is
        resolved once for the batch; distinct keys are fetched -- and
        accounted -- once."""
        return self.db.lookup_keys(relation, positions, keys, self.stats)

    def contains_rows(
        self, relation: str, rows: Sequence[Row]
    ) -> tuple[bool, ...]:
        """Bulk membership for pre-shaped row tuples (the columnar probe
        builds them straight from batch columns); distinct rows are probed
        -- and accounted -- once."""
        return self.db.contains_rows(relation, rows, self.stats)

    # -- the change slice ------------------------------------------------

    def delta_net(self, relation: str) -> Mapping[Row, int]:
        """The net signed changes of ``relation`` in this context's slice."""
        return (self.delta or {}).get(relation) or {}

    def delta_rows(self, relation: str) -> tuple[tuple[Row, int], ...]:
        """The slice of ``relation`` as ``(row, sign)`` pairs (memoized)."""
        cache = self._delta_rows
        if cache is None:
            cache = self._delta_rows = {}
        rows = cache.get(relation)
        if rows is None:
            rows = tuple(self.delta_net(relation).items())
            cache[relation] = rows
        return rows

    def delta_index(
        self, relation: str, positions: tuple[int, ...]
    ) -> dict[Row, list[Row]]:
        """The slice of ``relation`` hash-indexed on ``positions`` -- the
        in-memory twin of the database's per-position indexes, so a delta
        join costs O(batch + slice) instead of their product (memoized per
        (relation, positions)).  Each indexed row carries its sign as one
        trailing position: ``row + (sign,)``."""
        key = (relation, positions)
        cache = self._delta_index
        if cache is None:
            cache = self._delta_index = {}
        index = cache.get(key)
        if index is None:
            index = {}
            for row, sign in self.delta_rows(relation):
                index.setdefault(tuple(row[p] for p in positions), []).append(
                    (*row, sign)
                )
            cache[key] = index
        return index

    def lookup_keys_delta(
        self, relation: str, positions: tuple[int, ...], keys: Sequence[Row]
    ) -> list[list[Row]]:
        """:meth:`lookup_keys` against the change slice instead of the
        stored data: per key, the slice rows matching it in the signed
        form of :meth:`delta_index`.  The slice lives in memory, so
        nothing is accessed or charged."""
        get = self.delta_index(relation, positions).get
        return [get(key, ()) for key in keys]

    # -- pre-delta snapshot reads ----------------------------------------

    def lookup_keys_old(
        self, relation: str, positions: tuple[int, ...], keys: Sequence[Row]
    ) -> Sequence[tuple[Row, ...]]:
        """:meth:`lookup_keys` against the pre-delta snapshot: the live
        index answers (accounted as usual), corrected in memory by the
        change slice -- tuples inserted since the watermark are dropped,
        tuples deleted since it are restored."""
        groups = self.db.lookup_keys(relation, positions, keys, self.stats)
        return _rewind_key_groups(groups, positions, keys, self.delta_net(relation))

    def contains_rows_old(
        self, relation: str, rows: Sequence[Row]
    ) -> tuple[bool, ...]:
        """:meth:`contains_rows` against the pre-delta snapshot: rows the
        slice says nothing about are probed live; the rest are answered
        from the slice without touching the database."""
        return _rewind_membership(
            rows,
            self.delta_net(relation),
            lambda unknown: self.db.contains_rows(relation, unknown, self.stats),
        )

    # -- materialized-view reads ------------------------------------------

    def _view(self, name: str):
        """The state of the materialized view ``name``, or a clear error
        when the context was opened without view states (a view-assisted
        plan must be executed through the Engine, which prepares them)."""
        state = (self.views or {}).get(name)
        if state is None:
            raise SchemaError(
                f"plan reads materialized view {name!r} but the execution "
                f"context carries no state for it; execute view-assisted "
                f"plans through the Engine (or pass views= when opening "
                f"the ExecutionContext)"
            )
        return state

    def view_lookup_keys(
        self, name: str, positions: tuple[int, ...], keys: Sequence[Row]
    ) -> Sequence[tuple[Row, ...]]:
        """:meth:`lookup_keys` on view ``name``, charged to this
        execution's stats (views live outside the database, so its
        cumulative counters are untouched)."""
        return self._view(name).lookup_keys(positions, keys, self.stats)

    def view_contains_rows(
        self, name: str, rows: Sequence[Row]
    ) -> tuple[bool, ...]:
        return self._view(name).contains_rows(rows, self.stats)

    def view_lookup_keys_old(
        self, name: str, positions: tuple[int, ...], keys: Sequence[Row]
    ) -> Sequence[tuple[Row, ...]]:
        """Bulk view lookup against the pre-delta snapshot: the current
        view store, corrected in memory by the view's answer slice."""
        groups = self._view(name).lookup_keys(positions, keys, self.stats)
        return _rewind_key_groups(groups, positions, keys, self.delta_net(name))

    def view_contains_rows_old(
        self, name: str, rows: Sequence[Row]
    ) -> tuple[bool, ...]:
        return _rewind_membership(
            rows,
            self.delta_net(name),
            lambda unknown: self._view(name).contains_rows(unknown, self.stats),
        )


def _as_context(db) -> ExecutionContext:
    """Open a fresh context over ``db``, or pass an existing one through."""
    return db if isinstance(db, ExecutionContext) else ExecutionContext(db)


def _term_value(term: Term, assignment: Mapping[Variable, object]) -> object:
    return term.value if isinstance(term, Constant) else assignment[term]


def _resolve(term: Term) -> tuple[bool, object]:
    """A term as a lowered ``(is_const, ref)`` pair: the (interned)
    constant value, or the variable itself."""
    if isinstance(term, Constant):
        return (True, intern_value(term.value))
    return (False, term)


@dataclass(frozen=True)
class FilterOp:
    """Filter on compile-time-known equality ``conditions`` (pairs of terms
    whose values must agree) and copy parameter values onto their
    equality-class representatives (``binds``: source -> target variable).

    Every entry point evaluates it on the length-1 seed assignment with
    :meth:`check_seed` before the first batch is built (see
    :attr:`Pipeline.prefilter`).
    """

    conditions: tuple[tuple[Term, Term], ...] = ()
    binds: tuple[tuple[Variable, Variable], ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "_cond_items",
            tuple((_resolve(a), _resolve(b)) for a, b in self.conditions),
        )

    def __str__(self) -> str:
        parts = [f"{a} = {b}" for a, b in self.conditions]
        parts += [f"?{target} := ?{source}" for source, target in self.binds]
        return "filter " + ", ".join(parts)

    def check_seed(self, seed: Assignment) -> bool:
        """Evaluate the conditions on a seed assignment and apply the
        binds in place; ``False`` when a condition fails."""
        for (a_const, a_ref), (b_const, b_ref) in self._cond_items:
            a = a_ref if a_const else seed[a_ref]
            b = b_ref if b_const else seed[b_ref]
            if a != b:
                return False
        for source, target in self.binds:
            seed[target] = seed[source]
        return True


@dataclass(frozen=True)
class FetchOp:
    """Fetch ``atom``'s matching tuples for a whole batch with one
    :meth:`lookup_keys` call keyed on ``key_positions``, then join each
    row group back to its source row.

    ``check_positions`` are bound positions outside the lookup key (they
    arise under embedded access rules, whose access path is keyed on the
    rule inputs only); rows that disagree there are filtered out.
    ``bind_positions`` are the variable positions the fetch newly binds --
    a repeated new variable must bind consistently across its positions.
    ``dedup_positions`` (embedded rules only) deduplicate the fetched
    output projections per source row, matching the rule's "at most N
    distinct Y-projections" contract.  ``rule`` is the access rule the
    originating :class:`~repro.core.plans.FetchStep` fetches through
    (``None`` for hand-built operators): it plays no part in execution,
    but lets diagnostics and error messages name the exact rule behind an
    operator.  ``keep`` (assigned by the lowering's liveness pass; ``None``
    keeps everything) names the variables still read downstream -- output
    columns outside it are dropped instead of gathered.
    """

    atom: Atom
    key_positions: tuple[int, ...]
    check_positions: tuple[int, ...]
    bind_positions: tuple[int, ...]
    dedup_positions: tuple[int, ...] | None = None
    rule: AccessRule | None = None
    keep: frozenset[Variable] | None = None

    # The reads of the hot and old faces, as functions of the context
    # (ViewScanOp reads a view store instead).
    _read = staticmethod(ExecutionContext.lookup_keys)
    _read_old = staticmethod(ExecutionContext.lookup_keys_old)

    def __post_init__(self):
        # Pre-resolve every term access so compilation touches no
        # Atom/Term machinery (frozen dataclass: set via object).
        terms = self.atom.terms
        # The lookup key in sorted-position order (the form the database
        # indexes on).
        object.__setattr__(
            self,
            "_sorted_positions",
            tuple(sorted(self.key_positions)),
        )
        object.__setattr__(
            self,
            "_sorted_key",
            tuple(_resolve(terms[p]) for p in self._sorted_positions),
        )
        check_items = [
            (p, *_resolve(terms[p])) for p in self.check_positions
        ]
        # A constant at a bind position is a residual equality check, not
        # a binding (the planner never emits one; hand-built operators
        # get the per-tuple semantics).
        bind_groups: dict[Variable, list[int]] = {}
        for p in self.bind_positions:
            term = terms[p]
            if isinstance(term, Constant):
                check_items.append((p, True, intern_value(term.value)))
            else:
                bind_groups.setdefault(term, []).append(p)
        object.__setattr__(self, "_check_items", tuple(check_items))
        object.__setattr__(
            self,
            "_bind_groups",
            tuple((term, tuple(ps)) for term, ps in bind_groups.items()),
        )

    def __str__(self) -> str:
        binds = ", ".join(f"?{self.atom.terms[p]}" for p in self.bind_positions)
        return f"fetch {self.atom} [key {self.key_positions}]" + (
            f" binding {binds}" if binds else ""
        )


@dataclass(frozen=True)
class ProbeOp:
    """Verify the fully-bound ``atom`` for a whole batch with one
    :meth:`contains_rows` membership call.  ``keep`` is the liveness
    pass's surviving-variable set (``None`` keeps everything)."""

    atom: Atom
    keep: frozenset[Variable] | None = None

    _read = staticmethod(ExecutionContext.contains_rows)
    _read_old = staticmethod(ExecutionContext.contains_rows_old)

    def __post_init__(self):
        object.__setattr__(
            self,
            "_items",
            tuple(_resolve(t) for t in self.atom.terms),
        )

    def __str__(self) -> str:
        return f"probe {self.atom}"


@dataclass(frozen=True)
class ViewScanOp(FetchOp):
    """A :class:`FetchOp` whose atom names a materialized view
    (:mod:`repro.views`): only the read differs -- batches are answered
    from the execution context's view store, indexed on the key positions
    and charged to the per-execution stats only, instead of the database.
    A view's answer changes ride in ``ctx.delta`` under the view's name,
    so the delta face joins them exactly like a base relation's slice,
    and the old face rewinds the current view store by that slice."""

    _read = staticmethod(ExecutionContext.view_lookup_keys)
    _read_old = staticmethod(ExecutionContext.view_lookup_keys_old)

    def __str__(self) -> str:
        binds = ", ".join(f"?{self.atom.terms[p]}" for p in self.bind_positions)
        return f"view scan {self.atom} [key {self.key_positions}]" + (
            f" binding {binds}" if binds else ""
        )


@dataclass(frozen=True)
class ViewProbeOp(ProbeOp):
    """A :class:`ProbeOp` whose membership source is a materialized
    view's store instead of the database; the delta face reads the view's
    answer changes from ``ctx.delta`` under the view's name."""

    _read = staticmethod(ExecutionContext.view_contains_rows)
    _read_old = staticmethod(ExecutionContext.view_contains_rows_old)

    def __str__(self) -> str:
        return f"view probe {self.atom}"


@dataclass(frozen=True)
class ProjectDedupOp:
    """Project each batch row onto the head terms and deduplicate,
    preserving first-derivation order.  Terminal operator: its output
    holds answer rows, not a batch."""

    head_terms: tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "_items",
            tuple(_resolve(t) for t in self.head_terms),
        )

    def __str__(self) -> str:
        head = ", ".join(
            str(t) if isinstance(t, Constant) else f"?{t}" for t in self.head_terms
        )
        return f"project/dedup ({head})"


Operator = FilterOp | FetchOp | ProbeOp | ViewScanOp | ViewProbeOp | ProjectDedupOp

#: The variable of the signed faces' sign column (+1 derivation gained,
#: -1 lost).  ``#`` starts a comment in query text, so no parsed query
#: variable shares its name.
_SIGN = Variable("#sign")


# -- compiled operator faces ---------------------------------------------
#
# The batch schema at every pipeline position is static: which slots are
# bound, which are live, which positions key each lookup -- all of it is
# known at lowering time.  So no face interprets operators: each spec is
# compiled into a closure over integer slot indexes, and the entry points
# thread a bare (columns, length) pair through those closures.  No
# Variable is hashed and no batch object is allocated per execution.  A
# face differs from another only in its read function (live, pre-delta
# snapshot or change slice) and in whether the sign slot is bound.


def _compile_row_builder(items, sidx: dict[Variable, int]):
    """A closure building the per-row key/probe/head tuple column from
    lowered ``(is_const, ref)`` items, each variable mapped to its slot
    through ``sidx``."""
    specs = tuple(
        (True, ref) if is_const else (False, sidx[ref]) for is_const, ref in items
    )
    if not specs:
        return lambda columns, n: [EMPTY_KEY] * n
    if len(specs) == 1:
        is_const, x = specs[0]
        if is_const:
            key = (x,)
            return lambda columns, n: [key] * n
        return lambda columns, n: [(v,) for v in columns[x]]

    def rows_fn(columns, n):
        seqs = [[x] * n if is_const else columns[x] for is_const, x in specs]
        return list(zip(*seqs))

    return rows_fn


def _compile_fetch(
    op: FetchOp,
    slots: SlotTable,
    bound_slots: set[int],
    read: Callable,
    sign: int | None = None,
):
    """Compile a fetch into a ``(ctx, columns, n) -> (columns, n)``
    closure reading through ``read(ctx, relation, positions, keys)``;
    returns it plus the slot set bound after.  With ``sign`` given, the
    fetched rows carry a trailing sign position (the change slice's
    signed form), bound into column ``sign``."""
    variables = slots.variables
    sidx = slots.index
    nslots = len(variables)
    spos = op._sorted_positions
    keys_fn = _compile_row_builder(op._sorted_key, sidx)
    check_specs = tuple(
        (p, None, ref) if is_const else (p, sidx[ref], None)
        for p, is_const, ref in op._check_items
    )
    keep = op.keep
    consist: list[tuple[int, tuple[int, ...]]] = []
    fresh: list[tuple[int | None, tuple[int, ...]]] = []
    for term, ps in op._bind_groups:
        s = sidx[term]
        if s in bound_slots:
            consist.append((s, ps))
        elif keep is None or term in keep:
            fresh.append((s, ps))
        elif len(ps) > 1:
            # Dead but repeated: the within-row consistency check still
            # filters, only the column is unneeded.
            fresh.append((None, ps))
    if sign is not None:
        fresh.append((sign, (len(op.atom.terms),)))
    gather = tuple(s for s in bound_slots if keep is None or variables[s] in keep)
    out_bound = set(gather) | {s for s, _ in fresh if s is not None}
    relation = op.atom.relation
    dedup = op.dedup_positions
    stores_spec = tuple((s, ps[0]) for s, ps in fresh if s is not None)
    fast = (
        not check_specs
        and dedup is None
        and not consist
        and all(len(ps) == 1 for _, ps in fresh)
    )
    if fast and len(stores_spec) == 1:
        # The planner's common case: a plain fetch binding one variable.
        (s_out, p0) = stores_spec[0]

        def step(ctx, columns, n):
            groups = read(ctx, relation, spos, keys_fn(columns, n))
            out = [None] * nslots
            if n == 1:
                rows = groups[0]
                k = len(rows)
                if k:
                    for s in gather:
                        out[s] = columns[s] * k
                    out[s_out] = [row[p0] for row in rows]
                return out, k
            take = []
            t_append = take.append
            store = []
            s_append = store.append
            for i, rows in enumerate(groups):
                for row in rows:
                    t_append(i)
                    s_append(row[p0])
            for s in gather:
                col = columns[s]
                out[s] = [col[i] for i in take]
            out[s_out] = store
            return out, len(take)

        return step, out_bound
    if fast:

        def step(ctx, columns, n):
            groups = read(ctx, relation, spos, keys_fn(columns, n))
            out = [None] * nslots
            if n == 1:
                rows = groups[0]
                k = len(rows)
                if k:
                    for s in gather:
                        out[s] = columns[s] * k
                    for s, p in stores_spec:
                        out[s] = [row[p] for row in rows]
                return out, k
            take = []
            t_append = take.append
            stores = [[] for _ in stores_spec]
            for i, rows in enumerate(groups):
                for row in rows:
                    t_append(i)
                    for store, (_, p) in zip(stores, stores_spec):
                        store.append(row[p])
            for s in gather:
                col = columns[s]
                out[s] = [col[i] for i in take]
            for store, (s, _) in zip(stores, stores_spec):
                out[s] = store
            return out, len(take)

        return step, out_bound

    fresh_t = tuple(fresh)
    consist_t = tuple(consist)

    def step(ctx, columns, n):
        # The one general walk: residual checks, per-source dedup and
        # bind consistency, for every face.
        groups = read(ctx, relation, spos, keys_fn(columns, n))
        checks = [
            (p, None if s is None else columns[s], const)
            for p, s, const in check_specs
        ]
        consist_cols = [(columns[s], ps) for s, ps in consist_t]
        stores = [None if s is None else [] for s, _ in fresh_t]
        take = []
        t_append = take.append
        for i, rows in enumerate(groups):
            if not rows:
                continue
            seen = set() if dedup is not None else None
            for row in rows:
                ok = True
                for p, col, const in checks:
                    if (const if col is None else col[i]) != row[p]:
                        ok = False
                        break
                if not ok:
                    continue
                # Dedup consumes the projection even when a later
                # consistency check rejects the row (the embedded rule's
                # "at most N distinct projections" budget is spent by the
                # fetch, not the join).
                if seen is not None:
                    projection = tuple(row[p] for p in dedup)
                    if projection in seen:
                        continue
                    seen.add(projection)
                for col, ps in consist_cols:
                    v = col[i]
                    for q in ps:
                        if row[q] != v:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    continue
                pending = None
                for store, (_, ps) in zip(stores, fresh_t):
                    v = row[ps[0]]
                    for q in ps[1:]:
                        if row[q] != v:
                            ok = False
                            break
                    if not ok:
                        break
                    if store is not None:
                        if pending is None:
                            pending = []
                        pending.append((store, v))
                if not ok:
                    continue
                t_append(i)
                if pending is not None:
                    for store, v in pending:
                        store.append(v)
        out = [None] * nslots
        for s in gather:
            col = columns[s]
            out[s] = [col[i] for i in take]
        for store, (s, _) in zip(stores, fresh_t):
            if store is not None:
                out[s] = store
        return out, len(take)

    return step, out_bound


def _compile_probe(
    op: ProbeOp, slots: SlotTable, bound_slots: set[int], read: Callable
):
    """Compile a probe into a ``(ctx, columns, n) -> (columns, n)``
    closure asking ``read(ctx, relation, rows)`` for membership verdicts;
    returns it plus the slot set bound after."""
    variables = slots.variables
    nslots = len(variables)
    rows_fn = _compile_row_builder(op._items, slots.index)
    relation = op.atom.relation
    keep = op.keep
    gather = tuple(s for s in bound_slots if keep is None or variables[s] in keep)
    dead = len(gather) != len(bound_slots)

    def step(ctx, columns, n):
        verdicts = read(ctx, relation, rows_fn(columns, n))
        if all(verdicts):
            if not dead:
                return columns, n
            out = [None] * nslots
            for s in gather:
                out[s] = columns[s]
            return out, n
        sel = [i for i, present in enumerate(verdicts) if present]
        out = [None] * nslots
        for s in gather:
            col = columns[s]
            out[s] = [col[i] for i in sel]
        return out, len(sel)

    return step, set(gather)


def _compile_project(op: ProjectDedupOp, slots: SlotTable):
    """Compile the terminal projection into a ``(ctx, columns, n) ->
    list[Row]`` closure (first-derivation order preserved by the dedup
    dict)."""
    rows_fn = _compile_row_builder(op._items, slots.index)

    def terminal(ctx, columns, n):
        if not n:
            return []
        return list(dict.fromkeys(rows_fn(columns, n)))

    return terminal


def _compile_accumulate(op: ProjectDedupOp, slots: SlotTable, sign: int):
    """Compile the signed terminal: a ``(columns, n, into) -> None``
    closure folding each row's sign into ``into[head row]`` (derivation
    counts, first-derivation order)."""
    rows_fn = _compile_row_builder(op._items, slots.index)

    def accumulate(columns, n, into):
        get = into.get
        for row, s in zip(rows_fn(columns, n), columns[sign]):
            into[row] = get(row, 0) + s

    return accumulate


def _compile_fused(
    fetch: FetchOp, project: ProjectDedupOp, slots: SlotTable, bound_slots: set[int]
):
    """Compile a trailing fetch+project pair into a ``(ctx, columns, n) ->
    list[Row]`` closure emitting deduplicated head rows straight from the
    fetched row groups.  Fetches that need checks, dedup or consistency
    run the general fetch step followed by the projection."""
    sidx = slots.index
    bind_groups = dict(fetch._bind_groups)
    if (
        fetch._check_items
        or fetch.dedup_positions is not None
        or any(
            sidx[term] in bound_slots or len(ps) > 1
            for term, ps in bind_groups.items()
        )
    ):
        step, _ = _compile_fetch(fetch, slots, bound_slots, fetch._read)
        project_fn = _compile_project(project, slots)

        def general(ctx, columns, n):
            columns, n = step(ctx, columns, n)
            return project_fn(ctx, columns, n)

        return general
    spos = fetch._sorted_positions
    keys_fn = _compile_row_builder(fetch._sorted_key, sidx)
    # Each head term lowers to a constant (0), an input column (1), or a
    # position of the fetched row (2).
    specs: list[tuple[int, object]] = []
    for is_const, ref in project._items:
        if is_const:
            specs.append((0, ref))
        elif sidx[ref] in bound_slots:
            specs.append((1, sidx[ref]))
        else:
            specs.append((2, bind_groups[ref][0]))
    relation = fetch.atom.relation
    read = fetch._read
    if len(specs) == 1:
        kind, x = specs[0]
        if kind == 2:

            def terminal(ctx, columns, n):
                groups = read(ctx, relation, spos, keys_fn(columns, n))
                answers: dict[Row, None] = {}
                setd = answers.setdefault
                for rows in groups:
                    for row in rows:
                        setd((row[x],), None)
                return list(answers)

        elif kind == 1:

            def terminal(ctx, columns, n):
                # Same head value for every row of a group: record each
                # non-empty group once.
                groups = read(ctx, relation, spos, keys_fn(columns, n))
                col = columns[x]
                answers: dict[Row, None] = {}
                setd = answers.setdefault
                for i, rows in enumerate(groups):
                    if rows:
                        setd((col[i],), None)
                return list(answers)

        else:
            row0 = (x,)

            def terminal(ctx, columns, n):
                groups = read(ctx, relation, spos, keys_fn(columns, n))
                for rows in groups:
                    if rows:
                        return [row0]
                return []

        return terminal
    specs_t = tuple(specs)

    def terminal(ctx, columns, n):
        groups = read(ctx, relation, spos, keys_fn(columns, n))
        answers: dict[Row, None] = {}
        setd = answers.setdefault
        for i, rows in enumerate(groups):
            for row in rows:
                setd(
                    tuple(
                        x
                        if kind == 0
                        else (columns[x][i] if kind == 1 else row[x])
                        for kind, x in specs_t
                    ),
                    None,
                )
        return list(answers)

    return terminal


class SignedFaces(NamedTuple):
    """The signed faces of one pipeline, compiled on first use by
    :meth:`Pipeline.signed_faces`: per data level, the old-face step
    (pre-delta reads, sign column gathered) and the delta-face step (the
    change-slice join, binding the sign column); plus the signed terminal
    that folds signs into per-answer derivation counts."""

    width: int
    sign: int
    old: tuple
    delta: tuple
    accumulate: Callable


class Pipeline(tuple):
    """The lowered physical form of one plan: a tuple of the operator
    specs (prefilter, data levels, projection), plus the compiled hot
    face as attributes --

    * ``slots`` -- the plan's :class:`~repro.core.columnar.SlotTable`;
    * ``params`` -- the declared parameter set (fast seed validation);
    * ``prefilter`` -- the leading :class:`FilterOp`, evaluated on the
      seed assignment (``None`` when absent);
    * ``levels`` -- the data operators (fetches and probes), in order;
    * ``seed_slots`` / ``body`` / ``terminal`` -- the compiled hot face
      :func:`execute_plan` runs: the parameter slot assignments, one
      ``(ctx, columns, n) -> (columns, n)`` step closure per level, and
      the terminal ``-> list[Row]`` closure (a trailing fetch is fused
      into it, leaving ``body`` one step shorter than ``levels``);
    * ``width`` -- the slot count (the length of each column list).

    The old and delta faces come from :meth:`signed_faces`.  Comparing a
    ``Pipeline`` to a plain tuple compares the operator specs (tuple
    semantics), so an unsatisfiable plan's pipeline equals ``()``.
    """

    slots: SlotTable
    params: frozenset
    width: int
    prefilter: FilterOp | None
    levels: tuple
    seed_slots: tuple
    body: tuple
    terminal: object

    def __new__(
        cls,
        ops: Sequence = (),
        slots: SlotTable | None = None,
        params: frozenset = frozenset(),
        prefilter: FilterOp | None = None,
        seed_slots: Sequence = (),
        body: Sequence = (),
        terminal=None,
    ):
        self = super().__new__(cls, ops)
        self.slots = SlotTable(()) if slots is None else slots
        self.params = params
        self.width = len(self.slots.variables)
        self.prefilter = prefilter
        self.levels = tuple(op for op in ops if isinstance(op, (FetchOp, ProbeOp)))
        self.seed_slots = tuple(seed_slots)
        self.body = tuple(body)
        self.terminal = terminal
        self._signed = None
        return self

    def signed_faces(self) -> SignedFaces:
        """The old and delta faces and the signed terminal, compiled on
        first use (a racing first use compiles twice, harmlessly)."""
        faces = self._signed
        if faces is None:
            faces = self._signed = _compile_signed(self)
        return faces


def _compile_signed(pipe: Pipeline) -> SignedFaces:
    """Compile ``pipe``'s signed faces from the same specs and compilers
    as its hot face.  The sign column gets the slot after the plan's
    variables; every level's liveness set keeps it."""
    slots = pipe.slots.extend([_SIGN])
    sign = slots.index[_SIGN]
    bound = {slot for slot, _ in pipe.seed_slots}
    old = []
    delta = []
    for op in pipe.levels:
        if isinstance(op, ProbeOp):
            # The slice join of a probe is a fetch keyed on every position.
            every = tuple(range(len(op.atom.terms)))
            join = FetchOp(op.atom, every, (), (), keep=op.keep)
            step, after = _compile_probe(op, slots, bound | {sign}, op._read_old)
        else:
            join = op
            step, after = _compile_fetch(op, slots, bound | {sign}, op._read_old)
        read = ExecutionContext.lookup_keys_delta
        delta.append(_compile_fetch(join, slots, bound, read, sign)[0])
        old.append(step)
        bound = after - {sign}
    return SignedFaces(
        len(slots),
        sign,
        tuple(old),
        tuple(delta),
        _compile_accumulate(pipe[-1], slots, sign),
    )


def _parameter_constraints(
    plan: Plan,
) -> tuple[
    tuple[tuple[Term, Term], ...],
    tuple[tuple[Variable, Variable], ...],
    set[Variable],
]:
    """The equality constraints ``plan``'s parameters carry, and the set of
    representative variables they leave bound.

    A parameter whose equality class collapsed to a constant becomes a
    value check; two parameters in the same class must agree; a parameter
    whose representative is a *different* variable has its value copied
    onto that representative (the substituted atoms mention only
    representatives).
    """
    subst = plan.query.equality_substitution() or {}
    conditions: list[tuple[Term, Term]] = []
    binds: list[tuple[Variable, Variable]] = []
    bound: set[Variable] = set()
    first_with_rep: dict[Variable, Variable] = {}
    for v in plan.parameters:
        rep = subst.get(v, v)
        if isinstance(rep, Constant):
            conditions.append((v, rep))
            continue
        if rep in first_with_rep:
            conditions.append((first_with_rep[rep], v))
            continue
        first_with_rep[rep] = v
        if rep != v:
            binds.append((v, rep))
        bound.add(rep)
    return tuple(conditions), tuple(binds), bound


def _assign_keep_sets(ops: list[Operator], head_terms: tuple[Term, ...]) -> None:
    """The backward liveness pass: give every data operator the ``keep``
    set of variables some strictly-later operator (or the projection)
    still reads, so gathers skip dead columns.  Every face runs the same
    operators in the same order (execute_plan_delta's new-prefix /
    slice-join / old-suffix all read the same per-level key, check and
    head variables), so one keep set is valid for every face; the sign
    column is live throughout because the signed terminal reads it."""
    needed: set[Variable] = {t for t in head_terms if isinstance(t, Variable)}
    needed.add(_SIGN)
    for op in reversed(ops):
        if isinstance(op, (FilterOp, ProjectDedupOp)):
            continue
        object.__setattr__(op, "keep", frozenset(needed))
        if isinstance(op, FetchOp):
            needed -= {term for term, _ in op._bind_groups}
            needed |= {ref for is_const, ref in op._sorted_key if not is_const}
            needed |= {
                ref for _, is_const, ref in op._check_items if not is_const
            }
        else:  # ProbeOp
            needed |= {ref for is_const, ref in op._items if not is_const}


def build_pipeline(plan: Plan) -> Pipeline:
    """Lower ``plan``'s fetch/probe steps into operator specs and compile
    their hot face.  The set of bound variables before each step is known
    at compile time, so every operator's key/check/bind positions, its
    variable slots and its live-column set are all static.
    """
    params = frozenset(plan.parameters)
    if not plan.satisfiable:
        return Pipeline((), None, params)
    conditions, binds, bound = _parameter_constraints(plan)
    ops: list[Operator] = []
    prefilter: FilterOp | None = None
    if conditions or binds:
        prefilter = FilterOp(conditions, binds)
        ops.append(prefilter)
    view_relations = plan.view_relations
    for step in plan.steps:
        is_view = step.atom.relation in view_relations
        if isinstance(step, ProbeStep):
            ops.append(ViewProbeOp(step.atom) if is_view else ProbeOp(step.atom))
            continue
        terms = step.atom.terms
        determined = tuple(
            p
            for p, t in enumerate(terms)
            if isinstance(t, Constant) or t in bound
        )
        if isinstance(step.rule, EmbeddedAccessRule):
            key = step.input_positions
            check = tuple(p for p in determined if p not in key)
            dedup = step.output_positions
            bindable = step.output_positions
        else:
            key = determined
            check = ()
            dedup = None
            bindable = tuple(range(len(terms)))
        bind = tuple(
            p
            for p in bindable
            if isinstance(terms[p], Variable) and terms[p] not in bound
        )
        op_type = ViewScanOp if is_view else FetchOp
        ops.append(op_type(step.atom, key, check, bind, dedup, step.rule))
        bound.update(step.binds)
    project = ProjectDedupOp(plan.head_terms)
    ops.append(project)
    _assign_keep_sets(ops, plan.head_terms)

    # The per-plan slot table: parameters, bind targets, atom variables
    # and head variables, first-seen order (SlotTable dedups).
    slot_vars: list[Variable] = list(plan.parameters)
    slot_vars.extend(target for _, target in binds)
    for step in plan.steps:
        slot_vars.extend(t for t in step.atom.terms if isinstance(t, Variable))
    slot_vars.extend(t for t in plan.head_terms if isinstance(t, Variable))

    # Compile the hot face down to slot-index closures; the boundness of
    # every slot at every position is static, so all variable hashing
    # happens here, once per plan.  A trailing fetch fuses with the
    # projection.
    slots = SlotTable(slot_vars)
    sidx = slots.index
    seed_vars = tuple(
        dict.fromkeys([*plan.parameters, *(target for _, target in binds)])
    )
    seed_slots = tuple((sidx[v], v) for v in seed_vars)
    bound_slots = {slot for slot, _ in seed_slots}
    levels = [op for op in ops if isinstance(op, (FetchOp, ProbeOp))]
    fused = bool(levels) and isinstance(levels[-1], FetchOp)
    body = []
    for op in levels[:-1] if fused else levels:
        if isinstance(op, FetchOp):
            step, bound_slots = _compile_fetch(op, slots, bound_slots, op._read)
        else:
            step, bound_slots = _compile_probe(op, slots, bound_slots, op._read)
        body.append(step)
    if fused:
        terminal = _compile_fused(levels[-1], project, slots, bound_slots)
    else:
        terminal = _compile_project(project, slots)
    return Pipeline(ops, slots, params, prefilter, seed_slots, body, terminal)


#: The process-wide LRU of lowered pipelines (satellite of PR 8: the old
#: per-plan memo attribute grew without bound and had no stats; this is
#: the same cache discipline as the Engine's PlanCache).
pipeline_cache = PipelineCache(maxsize=256)


def pipeline_for(plan: Plan) -> Pipeline:
    """The memoized pipeline for ``plan`` (lowered once, reused by every
    execution; plans are immutable so an entry can never go stale).
    Cached in :data:`pipeline_cache` -- a bounded LRU keyed by plan
    identity, with hit/miss/eviction counters."""
    return pipeline_cache.get_or_build(plan, build_pipeline)


def pipeline_cache_stats() -> PipelineCacheStats:
    """Counters of the process-wide pipeline cache."""
    return pipeline_cache.stats()


def merge_parameter_values(
    parameters: Mapping[object, object] | None, kwargs: Mapping[str, object]
) -> Assignment:
    """Merge a parameter mapping and keyword arguments into one
    variable-keyed assignment (kwargs win on collision).  Shared by
    :meth:`Plan.execute`, the executor entry points and the Engine facade.

    ``Constant``-wrapped values are unwrapped here, once: assignments hold
    plain values everywhere downstream, so every comparison -- filter
    equalities, fetched-row consistency checks, in-memory delta joins --
    sees the same representation the database stores.  String values are
    interned on the way in for the same reason stored rows are
    (:mod:`repro.relational.interning`): every lookup key built from a
    parameter then hashes once and compares by identity first.
    """
    values: Assignment = {}
    if parameters:
        for key, value in parameters.items():
            if isinstance(value, Constant):
                value = value.value
            values[key if type(key) is Variable else _as_variable(key)] = (
                _intern(value) if type(value) is str else value
            )
    if kwargs:
        for key, value in kwargs.items():
            if isinstance(value, Constant):
                value = value.value
            values[_as_variable(key)] = (
                _intern(value) if type(value) is str else value
            )
    return values


def _reject_seed(plan: Plan, values: Assignment) -> None:
    """Raise the parameter-mismatch error for a seed whose variable set
    does not equal the plan's declared parameters."""
    declared = set(plan.parameters)
    extra = [v for v in values if v not in declared]
    if extra:
        raise ValueError(
            "bindings for variables that are not plan parameters "
            "(recompile with them as parameters to constrain the answer): "
            + ", ".join(f"?{v}" for v in extra)
        )
    missing = [v for v in plan.parameters if v not in values]
    if missing:
        raise ValueError(
            "missing plan parameters: " + ", ".join(f"?{v}" for v in missing)
        )


def _seed_assignment(
    plan: Plan,
    parameters: Mapping[object, object] | None,
    kwargs: Mapping[str, object],
) -> Assignment:
    """Validate the supplied parameter values against the plan's declared
    parameters and return the initial assignment."""
    values = merge_parameter_values(parameters, kwargs)
    if values.keys() != set(plan.parameters):
        _reject_seed(plan, values)
    return {v: values[v] for v in plan.parameters}


def execute_plan(
    plan: Plan,
    db,
    parameters: Mapping[object, object] | None = None,
    **kwargs: object,
) -> tuple[Row, ...]:
    """Run ``plan`` on ``db`` (a Database or an :class:`ExecutionContext`)
    through the compiled hot face of its pipeline and return the
    deduplicated answer tuples.

    Parameter values may be passed as a mapping (keys are variables or
    their names) and/or as keyword arguments.
    """
    return _execute_merged(plan, db, merge_parameter_values(parameters, kwargs))


def _execute_merged(plan: Plan, db, values: Assignment) -> tuple[Row, ...]:
    """:func:`execute_plan` after parameter normalization: ``values`` must
    already be a variable-keyed, Constant-unwrapped, interned assignment.
    The Engine facade calls this directly so a value dict it normalized
    once is not re-walked per plan."""
    pipe = pipeline_for(plan)
    if values.keys() != pipe.params:
        _reject_seed(plan, values)
    if not plan.satisfiable:
        return ()
    ctx = db if isinstance(db, ExecutionContext) else ExecutionContext(db)
    prefilter = pipe.prefilter
    if prefilter is not None and not prefilter.check_seed(values):
        return ()
    columns: list[list | None] = [None] * pipe.width
    for slot, var in pipe.seed_slots:
        columns[slot] = [values[var]]
    n = 1
    for step in pipe.body:
        columns, n = step(ctx, columns, n)
        if not n:
            return ()
    return tuple(pipe.terminal(ctx, columns, n))


def _seed_columns(pipe: Pipeline, seed: Assignment, width: int) -> list:
    """The length-1 batch an execution starts from: the seed values in
    their slots, every other column unbound."""
    columns: list[list | None] = [None] * width
    for slot, var in pipe.seed_slots:
        columns[slot] = [seed[var]]
    return columns


def execute_plan_counting(
    plan: Plan,
    db,
    parameters: Mapping[object, object] | None = None,
    **kwargs: object,
) -> dict[Row, int]:
    """Like :func:`execute_plan`, but return ``{answer row: derivation
    multiplicity}`` in first-derivation order instead of deduplicating.

    The multiplicities are the materialized state incremental maintenance
    needs: an answer row is in the result exactly while its count is
    positive, and :func:`execute_plan_delta` produces the signed count
    changes a batch of updates causes.  Runs the old face over an
    all-``+1`` seed, so the counts are those of the state at the
    context's watermark: a context carrying a change slice is read as it
    was before the slice (a fresh context carries none).

    Raises :class:`~repro.errors.IncrementalError` (eagerly, whatever the
    data) for plans that fetch through an embedded access rule: their
    per-row projection dedup makes the multiplicities non-compositional,
    so the counts would be unusable as incremental state.
    """
    check_delta_supported(plan)
    seed = _seed_assignment(plan, parameters, kwargs)
    counts: dict[Row, int] = {}
    if not plan.satisfiable:
        return counts
    ctx = _as_context(db)
    pipe = pipeline_for(plan)
    if pipe.prefilter is not None and not pipe.prefilter.check_seed(seed):
        return counts
    faces = pipe.signed_faces()
    columns = _seed_columns(pipe, seed, faces.width)
    columns[faces.sign] = [1]
    n = 1
    for step in faces.old:
        columns, n = step(ctx, columns, n)
        if not n:
            return counts
    faces.accumulate(columns, n, counts)
    return counts


def execute_plan_delta(
    plan: Plan,
    ctx: ExecutionContext,
    parameters: Mapping[object, object] | None = None,
    *,
    profiles: list["OperatorProfile"] | None = None,
    seed: Assignment | None = None,
    **kwargs: object,
) -> dict[Row, int]:
    """Evaluate the standard delta rule for ``plan`` over ``ctx``'s change
    slice: the signed derivation-count change of every affected answer row
    (positive -- derivations gained, negative -- lost).

    For each operator level ``i`` whose relation effectively changed,
    levels before ``i`` run on the new state (the hot face, shared across
    levels via one incrementally extended prefix batch), level ``i`` joins
    the in-memory slice (the delta face, zero tuples accessed), and levels
    after ``i`` run on the pre-delta snapshot (the old face) -- so every
    derivation gained or lost is produced exactly once however many levels
    changed, with one bulk database call per level.  Levels whose
    relation did not change cost nothing beyond the prefix they already
    share; an empty slice costs zero accesses.  Applying the result to
    the counts of :func:`execute_plan_counting` reproduces a from-scratch
    run on the new state.  Pass ``profiles`` (a list) to collect one
    :class:`OperatorProfile` per operator application.

    Raises :class:`~repro.errors.IncrementalError` for plans that fetch
    through an embedded access rule (no exact counting semantics) --
    eagerly, whichever relations changed, so an unsupported plan can
    never sometimes succeed depending on the slice.

    ``seed`` is the refresh hot path's escape hatch: a pre-validated
    parameter assignment (variable-keyed, e.g. kept from the initial
    counting execution) that skips per-call validation.
    """
    check_delta_supported(plan)
    if seed is None:
        seed = _seed_assignment(plan, parameters, kwargs)
    else:
        seed = dict(seed)
    changes: dict[Row, int] = {}
    if not plan.satisfiable:
        return changes
    pipe = pipeline_for(plan)
    prefilter = pipe.prefilter
    if prefilter is not None:
        passed = prefilter.check_seed(seed)
        _profile(profiles, prefilter, 1, int(passed), AccessStats())
        if not passed:
            return changes
    levels = pipe.levels
    relevant = {
        i for i, level in enumerate(levels) if ctx.delta_net(level.atom.relation)
    }
    if not relevant:
        return changes
    last = max(relevant)
    faces = pipe.signed_faces()

    def apply(label: str, j: int, step, columns, n):
        """One operator application, profiled only when asked to be."""
        if profiles is None:
            return step(ctx, columns, n)
        before = ctx.stats.snapshot()
        start = perf_counter()
        out = step(ctx, columns, n)
        elapsed = perf_counter() - start
        _profile(
            profiles,
            f"{label}[{j + 1}] {levels[j]}",
            n,
            out[1],
            ctx.stats.since(before),
            elapsed,
        )
        return out

    prefix = _seed_columns(pipe, seed, pipe.width)
    n = 1
    for i in range(len(levels)):
        if i in relevant:
            columns, m = apply("Δ", i, faces.delta[i], prefix, n)
            for j in range(i + 1, len(levels)):
                if not m:
                    break
                columns, m = apply("old", j, faces.old[j], columns, m)
            if m:
                faces.accumulate(columns, m, changes)
        if i >= last:
            break
        prefix, n = apply("new", i, pipe.body[i], prefix, n)
        if not n:
            break
    changes = {row: change for row, change in changes.items() if change}
    _profile(profiles, pipe[-1], len(changes), len(changes), AccessStats())
    return changes


def delta_fanout_bound(plan: Plan, delta_sizes: Mapping[str, int]) -> int:
    """An upper bound on the tuples :func:`execute_plan_delta` can access
    for ``plan`` given a change slice with ``delta_sizes`` net rows per
    relation -- a function of the slice and the access-rule bounds only,
    never of the database size (the incremental analogue of
    :attr:`~repro.core.plans.Plan.fanout_bound`).

    Per changed level: the prefix runs on the new state (its fetches are
    bounded exactly as in the full plan), the slice join itself touches no
    stored tuples, and the old-state suffix fans out from at most
    ``prefix branches x slice rows`` seeds through the remaining rules'
    bounds.  Relations absent from ``delta_sizes`` contribute nothing.
    """
    if not plan.satisfiable:
        return 0
    steps = plan.steps
    total = 0
    prefix_access = 0  # accesses to run the levels before i on the new state
    branches = 1  # how many assignments the prefix can carry
    for i, step in enumerate(steps):
        changed = delta_sizes.get(step.atom.relation, 0)
        if changed:
            seeds = branches * changed
            suffix = 0
            for later in steps[i + 1 :]:
                if isinstance(later, ProbeStep):
                    suffix += seeds
                else:
                    suffix += seeds * later.rule.bound
                    seeds *= later.rule.bound
            total += prefix_access + suffix
        if isinstance(step, ProbeStep):
            prefix_access += branches
        else:
            prefix_access += branches * step.rule.bound
            branches *= step.rule.bound
    return total


def check_delta_supported(plan: Plan) -> None:
    """Raise :class:`~repro.errors.IncrementalError` unless every fetch of
    ``plan`` goes through a plain or full access rule: an embedded rule's
    fetch deduplicates output projections *per source row*, so its
    derivation count is not a product of per-level multiplicities and
    signed deltas cannot be exact."""
    for step in plan.steps:
        if isinstance(step, FetchStep) and isinstance(step.rule, EmbeddedAccessRule):
            raise IncrementalError(
                f"plan step '{step}' fetches relation "
                f"{step.atom.relation!r} through the embedded access rule "
                f"'{step.rule}'; incremental (delta) execution supports "
                f"only plain and full access rules -- declare a plain rule "
                f"on {step.atom.relation!r} to refresh this query "
                f"incrementally"
            )


@dataclass(frozen=True)
class OperatorProfile:
    """Measured behaviour of one operator during one execution.

    ``wall_time_s`` is the operator's measured wall-clock time (seconds);
    it is ``0.0`` on paths that account rows without timing (e.g. the
    pure-bookkeeping projection line of the delta driver)."""

    operator: str
    rows_in: int
    rows_out: int
    tuples_accessed: int
    indexed_lookups: int
    full_scans: int
    wall_time_s: float = 0.0


def _profile(
    profiles: list[OperatorProfile] | None,
    operator: object,
    rows_in: int,
    rows_out: int,
    delta: AccessStats,
    wall_time_s: float = 0.0,
) -> None:
    """Append one operator's measurements to ``profiles`` (when given);
    ``operator`` is stringified only then, keeping the unprofiled hot
    path free of rendering work."""
    if profiles is not None:
        profiles.append(
            OperatorProfile(
                str(operator),
                rows_in,
                rows_out,
                delta.tuples_accessed,
                delta.indexed_lookups,
                delta.full_scans,
                wall_time_s,
            )
        )


@dataclass(frozen=True)
class PlanProfile:
    """One plan execution's answers plus per-operator row counts, access
    accounting and wall time (the payload of ``explain_analyze``)."""

    plan: Plan
    rows: tuple[Row, ...]
    operators: tuple[OperatorProfile, ...]

    @property
    def tuples_accessed(self) -> int:
        return sum(op.tuples_accessed for op in self.operators)

    @property
    def wall_time_s(self) -> float:
        return sum(op.wall_time_s for op in self.operators)

    def __str__(self) -> str:
        lines = []
        params = ", ".join(f"?{v}" for v in self.plan.parameters) or "none"
        lines.append(f"parameters: {params}")
        for i, op in enumerate(self.operators, 1):
            lines.append(
                f"{i}. {op.operator}  "
                f"[rows {op.rows_in} -> {op.rows_out}, "
                f"{op.tuples_accessed} tuples, "
                f"{op.indexed_lookups} lookups, {op.full_scans} scans, "
                f"{op.wall_time_s * 1e6:.1f} us]"
            )
        lines.append(
            f"answers: {len(self.rows)} rows, "
            f"{self.tuples_accessed} tuples accessed "
            f"(bound {self.plan.fanout_bound}), "
            f"{self.wall_time_s * 1e6:.1f} us"
        )
        return "\n".join(lines)


def profile_plan(
    plan: Plan,
    db,
    parameters: Mapping[object, object] | None = None,
    **kwargs: object,
) -> PlanProfile:
    """Like :func:`execute_plan`, but record per-operator row counts,
    access-statistics deltas and wall time along the way.

    The profiled closures are the hot face :func:`execute_plan` runs: one
    entry per :attr:`Pipeline.body` step plus the terminal (a trailing
    fetch fused with the projection reports as one ``fused[...]``
    entry).  Like :func:`execute_plan`, the run stops at the first step
    that leaves no rows.
    """
    seed = _seed_assignment(plan, parameters, kwargs)
    if not plan.satisfiable:
        return PlanProfile(plan, (), ())
    ctx = _as_context(db)
    pipe = pipeline_for(plan)
    if pipe.prefilter is not None and not pipe.prefilter.check_seed(seed):
        return PlanProfile(plan, (), ())
    profiles: list[OperatorProfile] = []
    columns = _seed_columns(pipe, seed, pipe.width)
    n = 1
    for op, step in zip(pipe.levels, pipe.body):
        before = ctx.stats.snapshot()
        start = perf_counter()
        columns, m = step(ctx, columns, n)
        elapsed = perf_counter() - start
        _profile(profiles, op, n, m, ctx.stats.since(before), elapsed)
        n = m
        if not n:
            return PlanProfile(plan, (), tuple(profiles))
    project = pipe[-1]
    if len(pipe.body) < len(pipe.levels):
        label = f"fused[{pipe.levels[-1]}; {project}]"
    else:
        label = str(project)
    before = ctx.stats.snapshot()
    start = perf_counter()
    rows = pipe.terminal(ctx, columns, n)
    elapsed = perf_counter() - start
    _profile(profiles, label, n, len(rows), ctx.stats.since(before), elapsed)
    return PlanProfile(plan, tuple(rows), tuple(profiles))


# -- the per-tuple reference path ----------------------------------------


def execute_per_tuple(
    plan: Plan,
    db,
    parameters: Mapping[object, object] | None = None,
    **kwargs: object,
) -> tuple[Row, ...]:
    """The pre-pipeline reference executor: a recursive generator that
    issues one single-key ``lookup_keys``/``contains_rows`` per partial
    assignment.

    Semantically identical to :func:`execute_plan`; kept as the baseline
    for differential tests and for :mod:`repro.bench`'s batched-vs-
    per-tuple comparison.  Not the production path.
    """
    seed = _seed_assignment(plan, parameters, kwargs)
    if not plan.satisfiable:
        return ()
    ctx = _as_context(db)
    conditions, binds, _ = _parameter_constraints(plan)
    for a, b in conditions:
        if _term_value(a, seed) != _term_value(b, seed):
            return ()
    for source, target in binds:
        seed[target] = seed[source]
    answers: dict[Row, None] = {}
    for final in _run_per_tuple(plan, ctx, 0, seed):
        answers.setdefault(
            tuple(_term_value(t, final) for t in plan.head_terms), None
        )
    return tuple(answers)


def _run_per_tuple(
    plan: Plan, ctx: ExecutionContext, i: int, assignment: Assignment
) -> Iterator[Assignment]:
    if i == len(plan.steps):
        yield assignment
        return
    step = plan.steps[i]
    is_view = step.atom.relation in plan.view_relations
    if isinstance(step, ProbeStep):
        row = tuple(_term_value(t, assignment) for t in step.atom.terms)
        probe = ctx.view_contains_rows if is_view else ctx.contains_rows
        if probe(step.atom.relation, (row,))[0]:
            yield from _run_per_tuple(plan, ctx, i + 1, assignment)
        return

    atom = step.atom
    if is_view:
        # View rules are always plain: key on every bound position and
        # read the view store (charged to the per-execution stats only).
        positions, key = _bound_pattern(atom, assignment)
        for row in ctx.view_lookup_keys(atom.relation, positions, (key,))[0]:
            extended = _extend(atom, row, assignment)
            if extended is not None:
                yield from _run_per_tuple(plan, ctx, i + 1, extended)
        return
    if isinstance(step.rule, EmbeddedAccessRule):
        # The access path is keyed on the rule's inputs only; other bound
        # positions are filtered after the fetch, and only the rule's
        # outputs become bound (deduplicated projections).
        positions = tuple(sorted(step.input_positions))
        key = tuple(_term_value(atom.terms[p], assignment) for p in positions)
        seen: set[Row] = set()
        for row in ctx.lookup_keys(atom.relation, positions, (key,))[0]:
            if not row_matches(atom, row, assignment):
                continue
            projection = tuple(row[p] for p in step.output_positions)
            if projection in seen:
                continue
            seen.add(projection)
            extended = dict(assignment)
            consistent = True
            for p in step.output_positions:
                term = atom.terms[p]
                if isinstance(term, Constant):
                    continue
                if term in extended and extended[term] != row[p]:
                    consistent = False
                    break
                extended[term] = row[p]
            if consistent:
                yield from _run_per_tuple(plan, ctx, i + 1, extended)
        return

    # Plain (or full) access rule: key the lookup on every position that
    # is already bound -- a superset of the rule's inputs, so the declared
    # bound still applies and the lookup is at least as selective as the
    # access path guarantees.
    positions, key = _bound_pattern(atom, assignment)
    for row in ctx.lookup_keys(atom.relation, positions, (key,))[0]:
        extended = _extend(atom, row, assignment)
        if extended is not None:
            yield from _run_per_tuple(plan, ctx, i + 1, extended)
