"""Seeded task lists for the four workloads, with their expected answers.

Nothing here touches the engine.  A generator draws every operation from
``random.Random(seed)`` and applies each write to a :class:`Shadow` model
as it goes, so every read in the list already carries the answer the
engine must give.  The engine only ever sees the generated inputs.

An operation is a tuple ``(kind, a, b, expect)``:

==========  =======  ==========  =====================================
kind        a        b           expect
==========  =======  ==========  =====================================
insert      key      value       None
update      key      value       None
delete      key      None        None
read        key      None        value or None (current time)
scan        low      high        (rows, key sum) for low <= k <= high
asof        key      mark index  value or None as of that mark
history     key      None        (versions, newest value or None)
scan_asof   None     mark index  (rows, key sum) as of that mark
tick        ms       checkpoint  None -- advance the clock by ``ms``,
                                 checkpoint (None, "plain" or "flush"),
                                 then take the next mark
==========  =======  ==========  =====================================

A *mark* is a point in transaction time the runner records while it
executes a ``tick``; marks are numbered in the order they are taken and
mark ``m`` sees exactly the writes generated before its tick.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from dataclasses import dataclass, field

KEY_BYTES = 4          # the key column is a 4-byte INT
VALUE_LENGTHS = ((0.6, 32), (0.9, 256), (1.0, 2048))   # oltp_pressure's 60/30/10

OP_CLASS = {
    "insert": "write", "update": "write", "delete": "write",
    "read": "read", "asof": "asof", "history": "history",
    "scan": "scan", "scan_asof": "scan",
}
"""Operation kind -> latency class (``tick`` is maintenance, not an op)."""


class Shadow:
    """What the database must contain, written by the generator itself."""

    def __init__(self) -> None:
        self.versions: dict[int, list[tuple[int, str | None]]] = {}
        self.marks = 0               # marks taken so far = epoch of the next write
        self.live: list[int] = []    # sorted keys whose newest version is a row
        self.user_bytes = 0          # key+value bytes written, every version
        self.writes = 0
        self.value_lengths: set[int] = set()

    def value(self, length: int) -> str:
        """A ``length``-character value no other write of this list carries."""
        self.value_lengths.add(length)
        return (f"{self.writes:08x}" * (length // 8 + 1))[:length]

    def write(self, key: int, value: str | None) -> None:
        chain = self.versions.setdefault(key, [])
        was_live = bool(chain) and chain[-1][1] is not None
        chain.append((self.marks, value))
        self.writes += 1
        self.user_bytes += KEY_BYTES + (len(value) if value is not None else 0)
        if value is not None and not was_live:
            bisect.insort(self.live, key)
        elif value is None and was_live:
            del self.live[bisect.bisect_left(self.live, key)]

    def take_mark(self) -> None:
        self.marks += 1

    def current(self, key: int) -> str | None:
        chain = self.versions.get(key)
        return chain[-1][1] if chain else None

    def as_of(self, key: int, mark: int) -> str | None:
        value = None
        for epoch, candidate in self.versions.get(key, ()):
            if epoch > mark:
                break
            value = candidate
        return value

    def range_answer(self, low: int, high: int) -> tuple[int, int]:
        keys = self.live[
            bisect.bisect_left(self.live, low):bisect.bisect_right(self.live, high)
        ]
        return len(keys), sum(keys)

    def scan_as_of_answer(self, mark: int) -> tuple[int, int]:
        keys = [k for k in self.versions if self.as_of(k, mark) is not None]
        return len(keys), sum(keys)

    def history_answer(self, key: int) -> tuple[int, str | None]:
        chain = self.versions.get(key, [])
        return len(chain), (chain[-1][1] if chain else None)

    def rows(self) -> dict[int, str]:
        return {k: self.current(k) for k in self.live}


@dataclass
class Task:
    """Everything one repetition of one workload needs."""

    name: str
    engine: dict                  # buffer_pages / archive for the engine under test
    setup: list                   # batches (lists of writes, one transaction each) and ticks
    streams: list[list[tuple]]    # one op list per client
    final_rows: dict[int, str]    # key -> value every client must find afterwards
    hot: dict[int, tuple[int, set]] = field(default_factory=dict)
    """Shared keys whose final value depends on the interleaving:
    key -> (versions expected, values the newest one may carry)."""
    mark_checks: list[tuple[int, int, str | None]] = field(default_factory=list)
    """(key, mark, value) samples re-read after crash recovery."""
    user_bytes_setup: int = 0
    user_bytes_timed: int = 0
    value_lengths: tuple[int, ...] = ()
    digest: str = ""

    @property
    def ops(self) -> int:
        return sum(1 for s in self.streams for op in s if op[0] != "tick")


def _finish(task: Task, rng: random.Random, shadow: Shadow, marks: int) -> Task:
    keys = sorted(shadow.versions)
    for mark in range(marks):
        for key in rng.sample(keys, min(16, len(keys))):
            task.mark_checks.append((key, mark, shadow.as_of(key, mark)))
    task.value_lengths = tuple(sorted(shadow.value_lengths))
    task.digest = hashlib.sha256(
        repr((task.setup, task.streams)).encode()
    ).hexdigest()
    return task


def _preload(shadow: Shadow, keys, length_of, batch: int = 500) -> list:
    setup, current = [], []
    for key in keys:
        value = shadow.value(length_of())
        shadow.write(key, value)
        current.append(("insert", key, value, None))
        if len(current) == batch:
            setup.append(current)
            current = []
    if current:
        setup.append(current)
    return setup


def oltp_update(seed: int, scale: float = 1.0) -> Task:
    """The paper's Fig. 5 transaction: single-record updates on a hot head."""
    rng = random.Random(f"oltp_update/{seed}")
    shadow = Shadow()
    keys, n_ops = 2000, max(50, int(8_000 * scale))
    setup = _preload(shadow, range(keys), lambda: 100)
    setup.append(("tick", 0, "flush", None))
    shadow.take_mark()
    bytes_setup = shadow.user_bytes
    ops: list[tuple] = []
    every = n_ops // 5
    for i in range(1, n_ops + 1):
        draw = rng.random()
        if draw < 0.15:
            value = shadow.value(100)
            shadow.write(keys, value)
            ops.append(("insert", keys, value, None))
            keys += 1
        else:
            key = int(keys * rng.random() ** 2)
            if draw < 0.30:
                ops.append(("read", key, None, shadow.current(key)))
            else:
                value = shadow.value(100)
                shadow.write(key, value)
                ops.append(("update", key, value, None))
        if i % every == 0:
            ops.append(("tick", 0, "plain", None))
            shadow.take_mark()
    task = Task(
        "oltp_update", dict(buffer_pages=1024, archive=None), setup, [ops],
        shadow.rows(), user_bytes_setup=bytes_setup,
        user_bytes_timed=shadow.user_bytes - bytes_setup,
    )
    return _finish(task, rng, shadow, shadow.marks)


def oltp_pressure(seed: int, scale: float = 1.0) -> Task:
    """Data 15x the buffer pool, three value lengths, every kind of op."""
    rng = random.Random(f"oltp_pressure/{seed}")
    shadow = Shadow()
    n_keys, n_ops = 8000, max(50, int(4_500 * scale))

    def length() -> int:
        draw = rng.random()
        return next(n for share, n in VALUE_LENGTHS if draw < share)

    setup = _preload(shadow, range(0, 2 * n_keys, 2), length)
    setup.append(("tick", 1000, "flush", None))
    shadow.take_mark()
    # One round of updates, then six seconds of engine time: the timed
    # section starts with history that is already cold enough to migrate.
    aged = []
    for key in rng.sample(shadow.live, n_keys // 10):
        value = shadow.value(length())
        shadow.write(key, value)
        aged.append(("update", key, value, None))
    setup.append(aged)
    setup.append(("tick", 6000, "flush", None))
    shadow.take_mark()
    bytes_setup = shadow.user_bytes
    ever = list(shadow.versions)            # every key that ever existed
    ops: list[tuple] = []
    every = n_ops // 5
    # In --quick mode the ticks come ten times as often, so each moves the
    # clock ten times as far and history still turns cold within the run.
    tick_ms = 1000 * 1000 // every if every < 1000 else 1000
    for i in range(1, n_ops + 1):
        draw = rng.random()
        if draw < 0.45:
            key = rng.choice(shadow.live)
            value = shadow.value(length())
            shadow.write(key, value)
            ops.append(("update", key, value, None))
        elif draw < 0.55:
            key = rng.randrange(1, 2 * n_keys, 2)
            while key in shadow.versions:
                key = rng.randrange(1, 2 * n_keys, 2)
            value = shadow.value(length())
            shadow.write(key, value)
            ever.append(key)
            ops.append(("insert", key, value, None))
        elif draw < 0.60:
            key = rng.choice(shadow.live)
            shadow.write(key, None)
            ops.append(("delete", key, None, None))
        elif draw < 0.85:
            key = rng.choice(ever)
            ops.append(("read", key, None, shadow.current(key)))
        elif draw < 0.95:
            low = rng.randrange(0, 2 * n_keys - 40)
            ops.append(("scan", low, low + 39, shadow.range_answer(low, low + 39)))
        else:
            key = rng.choice(ever)
            mark = shadow.marks - 1 - rng.randrange(min(3, shadow.marks))
            ops.append(("asof", key, mark, shadow.as_of(key, mark)))
        if i % every == 0:
            ops.append(("tick", tick_ms, "plain", None))
            shadow.take_mark()
    task = Task(
        "oltp_pressure",
        dict(buffer_pages=64, archive=dict(cold_ms=5000, pages_per_step=32)),
        setup, [ops], shadow.rows(), user_bytes_setup=bytes_setup,
        user_bytes_timed=shadow.user_bytes - bytes_setup,
    )
    return _finish(task, rng, shadow, shadow.marks)


def asof_deep(seed: int, scale: float = 1.0) -> Task:
    """The paper's Fig. 6: read-only time travel over 30 rounds of history."""
    rng = random.Random(f"asof_deep/{seed}")
    shadow = Shadow()
    n_keys, rounds, n_ops = 500, 30, max(50, int(10_000 * scale))
    setup = _preload(shadow, range(n_keys), lambda: 100)
    for round_no in range(rounds):
        batch = []
        for key in range(n_keys):
            if rng.random() < 0.7:
                value = shadow.value(100)
                shadow.write(key, value)
                batch.append(("update", key, value, None))
        setup.append(batch)
        setup.append(
            ("tick", 1000, "flush" if round_no % 4 == 3 else None, None)
        )
        shadow.take_mark()
    scans = [shadow.scan_as_of_answer(m) for m in range(rounds)]
    ops: list[tuple] = []
    for _ in range(n_ops):
        draw = rng.random()
        key, mark = rng.randrange(n_keys), rng.randrange(rounds)
        if draw < 0.80:
            ops.append(("asof", key, mark, shadow.as_of(key, mark)))
        elif draw < 0.95:
            ops.append(("history", key, None, shadow.history_answer(key)))
        else:
            ops.append(("scan_asof", None, mark, scans[mark]))
    # A round is about a second of engine time, so history older than 20 s
    # is the oldest third: ~32 archived blocks, of which the decoded-block
    # cache holds half.  A typical as-of read stays in the buffer pool and
    # block decode stays on the read path as the tail.
    task = Task(
        "asof_deep",
        dict(buffer_pages=2048,
             archive=dict(cold_ms=20_000, pages_per_step=32, max_cached_pages=16)),
        setup, [ops], shadow.rows(), user_bytes_setup=shadow.user_bytes,
    )
    return _finish(task, rng, shadow, rounds)


def sql_service(seed: int, scale: float = 1.0) -> Task:
    """Two connections of SQL statements over loopback TCP."""
    rng = random.Random(f"sql_service/{seed}")
    shadow = Shadow()
    clients, part, n_hot = 2, 1000, 16
    n_stmts = max(25, int(800 * scale))
    hot_keys = range(clients * part, clients * part + n_hot)
    setup = _preload(shadow, range(clients * part + n_hot), lambda: 100)
    setup.append(("tick", 1000, None, None))
    shadow.take_mark()
    for _ in range(2):                       # two rounds of history to read AS OF
        batch = []
        for key in range(clients * part):
            if rng.random() < 0.3:
                value = shadow.value(100)
                shadow.write(key, value)
                batch.append(("update", key, value, None))
        setup.append(batch)
        setup.append(("tick", 1000, None, None))
        shadow.take_mark()
    marks = shadow.marks
    bytes_setup = shadow.user_bytes
    hot_values: dict[int, set] = {k: {shadow.current(k)} for k in hot_keys}
    hot_updates = dict.fromkeys(hot_keys, 0)
    streams = []
    for client in range(clients):
        own = list(range(client * part, (client + 1) * part))
        next_key = 100_000 * (client + 1)
        ops: list[tuple] = []
        writes = 0
        for _ in range(n_stmts):
            draw = rng.random()
            if draw < 0.40:
                key = rng.choice(own)
                ops.append(("read", key, None, shadow.current(key)))
            elif draw < 0.65:
                writes += 1
                value = shadow.value(100)
                if writes % 8 == 0:
                    key = rng.choice(hot_keys)
                    hot_values[key].add(value)
                    hot_updates[key] += 1
                    shadow.writes += 1       # keeps the next value distinct
                    shadow.user_bytes += KEY_BYTES + len(value)
                else:
                    key = rng.choice(own)
                    shadow.write(key, value)
                ops.append(("update", key, value, None))
            elif draw < 0.75:
                value = shadow.value(100)
                shadow.write(next_key, value)
                own.append(next_key)
                ops.append(("insert", next_key, value, None))
                next_key += 1
            elif draw < 0.90:
                key, mark = rng.randrange(clients * part), rng.randrange(marks)
                ops.append(("asof", key, mark, shadow.as_of(key, mark)))
            else:
                low = client * part + rng.randrange(part - 20)
                ops.append(("scan", low, low + 19, shadow.range_answer(low, low + 19)))
        streams.append(ops)
    final_rows = {k: v for k, v in shadow.rows().items() if k not in hot_values}
    task = Task(
        "sql_service", dict(buffer_pages=1024, archive=None), setup, streams,
        final_rows,
        hot={k: (1 + hot_updates[k], hot_values[k]) for k in hot_keys},
        user_bytes_setup=bytes_setup,
        user_bytes_timed=shadow.user_bytes - bytes_setup,
    )
    return _finish(task, rng, shadow, marks)


GENERATORS = {
    "oltp_update": oltp_update,
    "oltp_pressure": oltp_pressure,
    "asof_deep": asof_deep,
    "sql_service": sql_service,
}


NAMES = tuple(GENERATORS)


def generate(name: str, seed: int, scale: float = 1.0) -> Task:
    return GENERATORS[name](seed, scale)


# -- answer checks (plain data in, bool out; shared by every way in) ---------

def _value(row) -> str | None:
    return row.get("v") if row else None


def check(kind: str, result, expect) -> bool:
    """Does ``result`` (rows as ``{"k": .., "v": ..}`` dicts) match ``expect``?"""
    if kind in ("read", "asof"):
        return _value(result) == expect
    if kind in ("scan", "scan_asof"):
        return (len(result), sum(row["k"] for row in result)) == expect
    if kind == "history":
        versions, newest = expect
        if len(result) != versions:
            return False
        last = result[-1] if result else None
        # The table API yields (timestamp, row) pairs, SQL yields rows.
        return _value(last[1] if isinstance(last, tuple) else last) == newest
    return True
