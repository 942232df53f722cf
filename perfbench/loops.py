"""The four workloads: set-up, seeded request streams and answer checks.

Each workload is a closed loop of one client: the next request is sent
when the previous answer is back.  Requests only use public entry points
(``Engine``, ``PreparedQuery``, ``IncrementalResult``, ``Database``,
``ChurnBatch.apply``) and every input comes from the seeded
``repro.workloads`` generators.

A request is a tuple ``(kind, fn, args, kwargs, token)``: the loop times
``fn(*args, **kwargs)`` and afterwards, outside the timed call, hands the
answer and ``token`` to :meth:`Workload.check`, which returns False for
a wrong answer.
"""

from __future__ import annotations

import bisect
import itertools
import os
import random
import time

from repro import Engine, SqliteBackend
from repro.core.executor import ExecutionContext, execute_per_tuple
from repro.views import ViewState
from repro.workloads import (
    CITIES,
    Q1,
    Q2,
    Q3,
    Q4,
    Q5,
    SOCIAL_ACCESS,
    SOCIAL_SCHEMA,
    ChurnBatch,
    generate_churn,
    generate_social_network,
    register_workload_views,
    sample_urls,
    stream_social_network,
)

BASE_QUERIES = (Q1, Q2, Q3)
ALL_QUERIES = (Q1, Q2, Q3, Q4, Q5)


def _rng(seed: int, salt: int) -> random.Random:
    """A stream independent of the data generator's and of other salts."""
    return random.Random(seed * 1_000_003 + salt)


class Workload:
    """One benchmark workload.  Subclasses fill in the hooks."""

    name = ""
    #: Persons in the generated instance, at full and at smoke size.
    persons = {"full": 0, "smoke": 0}
    #: Read answers compared against an independent oracle: 1 in N.
    oracle_every = 20
    #: Reads whose tuples count towards ``tuples_per_read``: a fixed
    #: prefix of the seeded stream, so the count repeats exactly per seed.
    #: Sized so one process reaches it within its share of a 10-s run.
    tuple_prefix = 10_000

    def __init__(self, scale: str, tmpdir: str):
        self.scale = scale
        self.tmpdir = tmpdir
        self.size = self.persons[scale]
        self.engine: Engine | None = None
        self.db = None
        self.bulk_load_s = 0.0
        self.reads = 0
        self.prefix_tuples = 0
        self.prefix_reads = 0
        self.tightness = 0.0
        self.tight_reads = 0
        self.full_scans = 0
        self.refresh_advance = 0
        self.refreshes = 0
        self.requests: set = set()
        self.repeats = 0
        self.failures: list[str] = []
        self.inject_wrong = -1

    # -- hooks -----------------------------------------------------------

    def setup(self, seed: int) -> None:
        """Generate or load the data, build the engine, register views:
        everything ``setup_s`` times."""
        raise NotImplementedError

    def stream(self, seed: int):
        """An endless iterator of requests (inputs made here are not part
        of ``setup_s``)."""
        raise NotImplementedError

    def oracle(self, token) -> set:
        """The answer of a read recomputed by an independent path."""
        raise NotImplementedError

    def final_check(self) -> None:
        """Checks on the state the run left behind."""

    def teardown(self) -> None:
        pass

    # -- shared checking ---------------------------------------------------


    def check(self, kind: str, token, out) -> bool:
        if kind == "read":
            return self._check_read(token, out)
        if kind == "refresh":
            return self._check_refresh(token, out)
        return self._check_write(token, out)

    def _check_read(self, token, out) -> bool:
        stats = out.stats
        tuples = stats.tuples_accessed
        self.reads += 1
        if self.prefix_reads < self.tuple_prefix:
            self.prefix_reads += 1
            self.prefix_tuples += tuples
        key = token[1]
        if key in self.requests:
            self.repeats += 1
        else:
            self.requests.add(key)
        bound = out.fanout_bound
        if bound:
            self.tightness += tuples / bound
            self.tight_reads += 1
        ok = True
        if stats.full_scans:
            self.full_scans += stats.full_scans
            ok = self._fail(f"read {key!r} did {stats.full_scans} full scans")
        if bound is None or tuples > bound:
            ok = self._fail(f"read {key!r} accessed {tuples} > bound {bound}")
        if self.reads % self.oracle_every == 0 or self.reads == self.inject_wrong:
            rows = set(out.rows)
            if self.reads == self.inject_wrong:
                rows.add(("injected wrong answer",))
            if rows != self.oracle(token):
                ok = self._fail(f"read {key!r} disagrees with the oracle")
        return ok

    def _check_refresh(self, token, out) -> bool:
        raise AssertionError(f"{self.name} sends no refreshes")

    def _check_write(self, token, out) -> bool:
        raise AssertionError(f"{self.name} sends no writes")

    def _fail(self, message: str) -> bool:
        if len(self.failures) < 20:
            self.failures.append(message)
        return False

    def _check_views(self) -> None:
        """Every registered view equals a fresh rematerialization."""
        for name in self.engine.views.names():
            kept = self.engine.views.prepare(self.db, [name])[name]
            fresh = ViewState(self.engine.views.get(name), self.db)
            if set(kept.rows) != set(fresh.rows):
                self._fail(f"view {name} differs from its rematerialization")

    def _naive(self, prepared, values) -> set:
        """Naive evaluation: plain joins over the stored tuples, no plan."""
        return set(prepared.query.evaluate(self.db, values))

    def _per_tuple(self, prepared, values) -> set:
        """The per-tuple reference executor over the same plan, reading
        the engine's (separately rematerialization-checked) views."""
        plan = prepared.plan(values.keys())
        views = None
        if plan.view_relations:
            views = self.engine.views.prepare(self.db, plan.view_relations)
        ctx = ExecutionContext(self.db, views=views)
        return set(execute_per_tuple(plan, ctx, values))


class Zipf:
    """Seeded Zipf(s) draws over ``items``: rank ``k`` has weight
    ``k ** -s``, and ranks are assigned to items by a seeded shuffle."""

    def __init__(self, items, s: float, rng: random.Random):
        self.items = list(items)
        rng.shuffle(self.items)
        self.cum = list(itertools.accumulate(k ** -s for k in range(1, len(self.items) + 1)))
        self.total = self.cum[-1]
        self.rng = rng

    def draw(self):
        return self.items[bisect.bisect_left(self.cum, self.rng.random() * self.total)]


class PointRead(Workload):
    """Query text plus one ``p`` per request, through ``engine.execute``."""

    name = "point_read"
    persons = {"full": 100_000, "smoke": 2_000}
    zipf_s = 0.6
    tuple_prefix = 8_000

    def setup(self, seed: int) -> None:
        data = generate_social_network(self.size, seed=seed)
        self.engine = Engine(SOCIAL_SCHEMA, SOCIAL_ACCESS, data)
        self.db = self.engine.database

    def stream(self, seed: int):
        rng = _rng(seed, 1)
        pids = Zipf(range(self.size), self.zipf_s, rng)
        execute = self.engine.execute
        texts = [bundle.query for bundle in BASE_QUERIES]
        self.prepared = [self.engine.query(text) for text in texts]
        while True:
            q = rng.randrange(3)
            p = pids.draw()
            yield "read", execute, (texts[q],), {"p": p}, (q, (q, p))

    def oracle(self, token) -> set:
        q, (_, p) = token
        return self._naive(self.prepared[q], {"p": p})


#: The Q1-Q5 shapes with their constants written into the text.
ADHOC_SHAPES = (
    "Q(y) :- friend({p}, y), person(y, n, '{city}')",
    "Q(u) :- friend({p}, y), visits(y, u)",
    "Q(z) :- friend({p}, y), friend(y, z), person(z, n, '{city}')",
    "Q(f) :- friend(f, {p}), person(f, n, '{city}')",
    "Q(y) :- visits(y, '{url}')",
)


class Adhoc(Workload):
    """Every request a distinct text: each one misses the plan cache."""

    name = "adhoc"
    persons = {"full": 10_000, "smoke": 1_000}
    tuple_prefix = 2_000

    def setup(self, seed: int) -> None:
        data = generate_social_network(self.size, seed=seed)
        self.urls = sorted({row[1] for row in data["visits"]})
        self.engine = Engine(SOCIAL_SCHEMA, SOCIAL_ACCESS, data, certify=True)
        self.db = self.engine.database
        register_workload_views(self.engine)
        self.engine.views.refresh(self.db)

    def stream(self, seed: int):
        rng = _rng(seed, 2)
        pools = []
        for shape in ADHOC_SHAPES:
            if "{url}" in shape:
                pool = [{"url": url} for url in self.urls]
            elif "{city}" in shape:
                pool = [{"p": p, "city": c} for p in range(self.size) for c in CITIES]
            else:
                pool = [{"p": p} for p in range(self.size)]
            rng.shuffle(pool)
            pools.append(pool)
        cursors = [0] * len(pools)
        execute = self.engine.execute
        while True:
            shape = rng.randrange(len(ADHOC_SHAPES))
            pool = pools[shape]
            # Each shape's pool is drawn without replacement, so texts only
            # repeat once a pool wraps (over 10^4 requests of one shape).
            text = ADHOC_SHAPES[shape].format(**pool[cursors[shape] % len(pool)])
            cursors[shape] += 1
            yield "read", execute, (text,), {}, (text, text)

    def oracle(self, token) -> set:
        return self._naive(self.engine.query(token[0]), {})

    def final_check(self) -> None:
        self._check_views()


class ReadWrite(Workload):
    """Churn writes beside incremental refreshes and view reads."""

    name = "read_write"
    persons = {"full": 10_000, "smoke": 1_000}
    oracle_every = 1
    tuple_prefix = 4_000
    #: Per round: one churn batch, then refreshes, then view reads.
    refreshes_per_round = 4
    reads_per_round = 4
    pool_size = 128
    batch_size = 4
    batches = 400
    #: Views are compared with a fresh rematerialization every N writes.
    views_every = 500

    def setup(self, seed: int) -> None:
        data = generate_social_network(self.size, seed=seed)
        self.data = data
        self.engine = Engine(SOCIAL_SCHEMA, SOCIAL_ACCESS, data)
        self.db = self.engine.database
        register_workload_views(self.engine)
        self.engine.views.refresh(self.db)
        rng = _rng(seed, 3)
        self.pool = []
        for _ in range(self.pool_size):
            prepared = self.engine.query(rng.choice(BASE_QUERIES).query)
            p = rng.randrange(self.size)
            self.pool.append((prepared, p, prepared.execute_incremental(p=p)))
        self.view_queries = [self.engine.query(Q4.query), self.engine.query(Q5.query)]

    def stream(self, seed: int):
        rng = _rng(seed, 4)
        forward = generate_churn(
            self.data, batches=self.batches, batch_size=self.batch_size, seed=seed
        )
        urls = sample_urls(self.data, 4096, seed=seed)
        del self.data
        # Replaying the inverse batches backwards walks the same states in
        # reverse, so the stream never runs dry and every operation stays
        # effective with the degree caps honored.
        backward = [
            ChurnBatch(deletes=b.inserts, inserts=b.deletes) for b in reversed(forward)
        ]
        batches = itertools.cycle([*forward, *backward])
        self.writes = 0
        q4, q5 = self.view_queries
        turn = 0
        while True:
            batch = next(batches)
            yield "write", batch.apply, (self.db,), {}, batch
            for _ in range(self.refreshes_per_round):
                entry = self.pool[turn % self.pool_size]
                turn += 1
                yield "refresh", entry[2].refresh, (), {}, (entry, entry[2].watermark)
            for _ in range(self.reads_per_round):
                if rng.random() < 0.5:
                    p = rng.randrange(self.size)
                    yield "read", q4.execute, (), {"p": p}, (0, ("Q4", p))
                else:
                    u = urls[rng.randrange(len(urls))]
                    yield "read", q5.execute, (), {"u": u}, (1, ("Q5", u))

    def oracle(self, token) -> set:
        q, (_, value) = token
        prepared = self.view_queries[q]
        return self._per_tuple(prepared, {"u" if q else "p": value})

    def _check_refresh(self, token, out) -> bool:
        (prepared, p, _), before = token
        self.refreshes += 1
        self.refresh_advance += out.watermark - before
        if out.stats.full_scans:
            self.full_scans += out.stats.full_scans
            return self._fail(f"refresh of {prepared} did full scans")
        if set(out.rows) != set(prepared.execute(p=p).rows):
            return self._fail(f"refresh of {prepared} (p={p}) != recompute")
        return True

    def _check_write(self, batch, out) -> bool:
        self.writes += 1
        expected = (
            sum(map(len, batch.deletes.values())),
            sum(map(len, batch.inserts.values())),
        )
        ok = tuple(out) == expected
        if not ok:
            self._fail(f"churn batch applied {out}, expected {expected}")
        if self.writes % self.views_every == 0:
            self._check_views()
        return ok

    def final_check(self) -> None:
        self._check_views()


class OutOfCore(Workload):
    """Prepared Q1-Q5 over a SQLite file, keys uniform over the range."""

    name = "out_of_core"
    persons = {"full": 50_000, "smoke": 2_000}

    def setup(self, seed: int) -> None:
        os.makedirs(self.tmpdir, exist_ok=True)
        self.path = os.path.join(self.tmpdir, f"ooc-{os.getpid()}.sqlite3")
        if os.path.exists(self.path):
            os.remove(self.path)
        self.engine = Engine(
            SOCIAL_SCHEMA, SOCIAL_ACCESS, backend=SqliteBackend(self.path)
        )
        self.db = self.engine.database
        start = time.perf_counter()
        for relation, rows in stream_social_network(self.size, seed=seed):
            self.db.bulk_load(relation, rows)
        self.bulk_load_s = time.perf_counter() - start
        register_workload_views(self.engine)
        self.engine.views.refresh(self.db)

    def stream(self, seed: int):
        rng = _rng(seed, 5)
        urls = sorted({row[0] for row in self.engine.views.state("V2").rows})
        self.prepared = [self.engine.query(bundle.query) for bundle in ALL_QUERIES]
        while True:
            q = rng.randrange(5)
            if q == 4:
                params = {"u": urls[rng.randrange(len(urls))]}
            else:
                params = {"p": rng.randrange(self.size)}
            execute = self.prepared[q].execute
            yield "read", execute, (), params, (q, (q, *params.values()))

    def oracle(self, token) -> set:
        q, key = token
        return self._per_tuple(self.prepared[q], {"u" if q == 4 else "p": key[1]})

    def final_check(self) -> None:
        self._check_views()

    def file_mb(self) -> float:
        return os.path.getsize(self.path) / 2**20

    def teardown(self) -> None:
        self.db.backend.close()
        if os.path.exists(self.path):
            os.remove(self.path)


WORKLOADS = {w.name: w for w in (PointRead, Adhoc, ReadWrite, OutOfCore)}
