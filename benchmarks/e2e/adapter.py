"""Every contact with ``repro``'s API, in one file.

The runner, the workload generators and the tracer know nothing of the
engine; a later change to ``repro``'s API is absorbed here.  Three things
live in this module: the tuned engine behind the operation kinds of
``workloads.py`` (:class:`Engine`), the same kinds as SQL statements over
a socket (:class:`ServiceProcess`, :class:`ServiceConn`, and the server
side in :func:`serve`), and the table of public entry points the tracer
wraps (:data:`SPANS`).
"""

from __future__ import annotations

import datetime
import functools
import json
import os
import resource
import subprocess
import sys
import time

from repro.access.btree import BTree
from repro.access.tsbtree import TSBHistoryIndex
from repro.archive.manager import ArchiveManager
from repro.concurrency.locks import LockManager
from repro.concurrency.transaction import TransactionManager
from repro.core.engine import ImmortalDB
from repro.core.integrity import verify_integrity
from repro.core.rowcodec import RowCodec
from repro.core.table import Table
from repro.service import protocol
from repro.service.admission import AdmissionController
from repro.service.client import ServiceClient
from repro.service.core import ServiceCore
from repro.service.server import ThreadedService
from repro.sql.executor import Session
from repro.storage.buffer import BufferPool
from repro.storage.disk import PageStore
from repro.storage.page import Page
from repro.timestamp.manager import TimestampManager
from repro.wal.checkpoint import CheckpointManager
from repro.wal.filelog import FileLogManager
from repro.wal.log import LogManager
from repro.wal.records import LogRecord
from repro.workers.pool import TxnFuture, WorkerPool

TUNED = dict(
    group_commit_window=8, asof_route_cache=True, eviction="2q",
    flush_batch=8, read_ahead=4, page_checksums=True,
)
"""The one engine configuration every workload runs (ROADMAP's ``tuned``)."""

TABLE = "kv"
MARK_TICK_MS = 20      # the engine clock's resolution


def mark_datetime(mark) -> str:
    """A mark as the SQL datetime literal ``AS OF`` accepts (mid-tick)."""
    moment = mark.to_datetime() + datetime.timedelta(milliseconds=MARK_TICK_MS / 2)
    return moment.isoformat(sep=" ")


class Engine:
    """The tuned, file-backed engine under test with its one table."""

    def __init__(self, directory: str, buffer_pages: int, archive=None) -> None:
        self.path = os.path.join(directory, "db.pages")
        self.db = ImmortalDB(
            self.path, buffer_pages=buffer_pages, archive=archive, **TUNED
        )
        self.table = self.db.create_table(
            TABLE, [("k", "int"), ("v", "text")], key="k", immortal=True
        )
        self.marks: list = []
        self.ops = {
            "insert": self.insert, "update": self.update, "delete": self.delete,
            "read": self.read, "scan": self.scan, "asof": self.asof,
            "history": self.history, "scan_asof": self.scan_asof,
            "tick": self.tick,
        }

    # -- operation kinds (see workloads.py for the argument shapes) -----------

    def _write(self, method, *args) -> None:
        txn = self.db.begin()
        try:
            method(txn, *args)
        except BaseException:
            self.db.abort(txn)
            raise
        self.db.commit(txn)

    def insert(self, key, value):
        self._write(self.table.insert, {"k": key, "v": value})

    def update(self, key, value):
        self._write(self.table.update, key, {"v": value})

    def delete(self, key, _):
        self._write(self.table.delete, key)

    def read(self, key, _):
        txn = self.db.begin()
        row = self.table.read(txn, key)
        self.db.commit(txn)
        return row

    def scan(self, low, high):
        txn = self.db.begin()
        rows = self.table.scan_range(txn, low, high)
        self.db.commit(txn)
        return rows

    def asof(self, key, mark):
        return self.table.read_as_of(self.marks[mark], key)

    def history(self, key, _):
        return self.table.history(key)

    def scan_asof(self, _, mark):
        return self.table.scan_as_of(self.marks[mark])

    def _after_archive_step(self) -> None:
        """Work around an engine bug this benchmark found (see README).

        Archive migration relinks an uncached referrer by writing its page
        image straight to disk, but the buffer pool's read-ahead ring may
        hold an older decoded copy of that page and serve it on the next
        miss: the history chain then points at a freed page again.  Every
        checkpoint may migrate, so the ring is emptied after each one.
        Remove this once ``BufferPool`` invalidates what it staged.
        """
        if self.db.archive is not None:
            self.db.buffer._staged.clear()

    def checkpoint(self, flush: bool) -> None:
        self.db.checkpoint(flush=flush)
        self._after_archive_step()

    def tick(self, advance_ms, checkpoint):
        if advance_ms:
            self.db.advance_time(advance_ms)
        if checkpoint is not None:
            self.checkpoint(checkpoint == "flush")
        self.marks.append(self.db.now())
        # Later commits land in a later clock tick, so the mark can also be
        # written as a SQL datetime (whole ticks only) without seeing them.
        self.db.advance_time(2 * MARK_TICK_MS)

    # -- set-up, verification and measurement seams ----------------------------

    def apply_setup(self, setup: list, between=lambda: None) -> None:
        """Run a task's set-up: each batch is one transaction.

        ``between`` is called before every step (the runner calibrates there).
        """
        for step in setup:
            between()
            if isinstance(step, tuple):
                self.tick(step[1], step[2])
                continue
            with self.db.transaction() as txn:
                for kind, key, value, _ in step:
                    if kind == "insert":
                        self.table.insert(txn, {"k": key, "v": value})
                    else:
                        self.table.update(txn, key, {"v": value})
        self.db.flush_commits()

    def warm(self) -> None:
        """Fill the as-of route and page-view caches: scan at every mark."""
        for mark in self.marks:
            self.table.scan_as_of(mark)

    def flush(self) -> None:
        self.db.flush_commits()

    def rows(self) -> dict:
        with self.db.transaction() as txn:
            return {row["k"]: row["v"] for row in self.table.scan(txn)}

    def counters(self) -> dict:
        return engine_counters(self.db)

    def crash_recover(self) -> dict:
        """Discard volatile state as a power failure would, then restart.

        With the archive on, a flushing checkpoint comes first, which leaves
        redo nothing to do.  That dodges a second engine bug this benchmark
        found (see README): redo re-inserts commit timestamps into the PTT,
        a PTT split then takes a page id off the archive's free list before
        recovery has re-validated that list, and restart fails with "page N
        is not a PTT node".  ``oltp_update`` and ``sql_service`` (archive
        off) still recover through redo.
        """
        if self.db.archive is not None:
            self.checkpoint(flush=True)
        start = time.perf_counter()
        self.db.crash()
        report = self.db.recover()
        self._after_archive_step()      # recovery ends with a checkpoint
        return {
            "recover_s": time.perf_counter() - start,
            "redo_records": report.redo_applied,
        }

    def stored_bytes(self) -> int:
        """Page file plus archive store, after a flushing checkpoint."""
        self.checkpoint(flush=True)
        return stored_bytes(self.path)

    def integrity_problems(self) -> list[str]:
        """The engine's own structural check of every page chain."""
        return verify_integrity(self.db)

    def close(self) -> None:
        self.db.close()


def stored_bytes(path: str) -> int:
    return sum(
        os.path.getsize(p) for p in (path, path + ".archive") if os.path.exists(p)
    )


def engine_counters(db, service=None) -> dict:
    """``db.stats()`` plus the counters it leaves out, flat."""
    out = dict(db.stats())
    for table in db.tables.values():
        for name in ("time_splits", "key_splits", "index_splits"):
            out[name] = out.get(name, 0) + getattr(table.btree.stats, name)
    out["checkpoints"] = db.checkpoints.checkpoints_taken
    if service is not None:
        core, pool = service.core, service.service.pool
        out["service_requests"] = core.stats.requests
        out["service_dedup_hits"] = core.stats.duplicate_hits
        out["service_retries"] = core.stats.retries
        out["pool_retries"] = pool.stats.retries
        out["pool_flushes"] = pool.stats.flushes
        out["service_peak_inflight"] = core.admission.stats.peak_inflight
    return out


# -- the SQL service, both ends of the socket ---------------------------------

def sql_text(kind: str, a, b, marks) -> str:
    if kind == "read":
        return f"SELECT * FROM {TABLE} WHERE k = {a}"
    if kind == "update":
        return f"UPDATE {TABLE} SET v = '{b}' WHERE k = {a}"
    if kind == "insert":
        return f"INSERT INTO {TABLE} (k, v) VALUES ({a}, '{b}')"
    if kind == "asof":
        return f"SELECT * FROM {TABLE} AS OF '{marks[b]}' WHERE k = {a}"
    if kind == "scan":
        return f"SELECT * FROM {TABLE} WHERE k >= {a} AND k <= {b}"
    if kind == "history":
        return f"SELECT HISTORY OF {TABLE} WHERE k = {a}"
    if kind == "all":
        return f"SELECT * FROM {TABLE}"
    raise ValueError(f"no SQL for {kind!r}")


class ServiceError(RuntimeError):
    """A response that was not ``ok``: refused, timed out or failed."""

    def __init__(self, response: dict) -> None:
        super().__init__(f"{response.get('status')}: {response.get('message')}")


class SqlOps:
    """The operation kinds as SQL statements; a subclass says where they run."""

    def __init__(self, marks: list) -> None:
        self.marks = marks          # SQL datetimes, see mark_datetime()
        self.ops = {
            kind: functools.partial(self.rows, kind)
            for kind in ("insert", "update", "scan", "history")
        }
        self.ops["read"] = functools.partial(self.one, "read")
        self.ops["asof"] = functools.partial(self.one, "asof")

    def run(self, kind: str, sql: str) -> list:
        raise NotImplementedError

    def rows(self, kind, a=None, b=None) -> list:
        return self.run(kind, sql_text(kind, a, b, self.marks))

    def one(self, kind, a, b):
        rows = self.rows(kind, a, b)
        return rows[0] if rows else None


class LocalSql(SqlOps):
    """Statements through an in-process session (``sql_service``'s control)."""

    def __init__(self, engine: Engine) -> None:
        super().__init__([mark_datetime(m) for m in engine.marks])
        self.session = Session(engine.db)

    def run(self, kind, sql):
        return self.session.execute(sql).rows


class ServiceConn(SqlOps):
    """One client connection to the server child.

    Request ids are ``<connection>:<n>:<kind>``: unique, as the server's
    idempotency cache requires, and readable by the tracer on both sides.
    """

    def __init__(self, port: int, marks: list, conn_id: str) -> None:
        super().__init__(marks)
        self.client = ServiceClient("127.0.0.1", port, timeout_s=60.0)
        self.client.ping()          # connect now, not inside the first timed op
        self.conn_id = conn_id
        self.sent = 0

    def run(self, kind, sql):
        self.sent += 1
        response = self.client.request({
            "op": "sql", "sql": sql, "id": f"{self.conn_id}:{self.sent}:{kind}",
        })
        if response.get("status") != protocol.STATUS_OK:
            raise ServiceError(response)
        return response.get("rows") or []

    def close(self) -> None:
        self.client.close()


class ServiceProcess:
    """Parent-side handle on the server child (``serve.py``).

    The child prints one JSON line when it listens (its port and the marks
    its set-up took, as SQL datetimes) and answers one JSON line per
    command line on its standard input.
    """

    def __init__(self, script: str, directory: str, workload: str, seed: int,
                 scale: float, trace: bool) -> None:
        self.child = subprocess.Popen(
            [sys.executable, script, "--dir", directory, "--workload", workload,
             "--seed", str(seed), "--scale", repr(scale), "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            ready = self._read()
        except BaseException:
            self.stop()
            raise
        self.port, self.marks = ready["port"], ready["marks"]

    def _read(self) -> dict:
        line = self.child.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server child exited with code {self.child.wait()}"
            )
        return json.loads(line)

    def command(self, name: str) -> dict:
        self.child.stdin.write(name + "\n")
        self.child.stdin.flush()
        return self._read()

    def stop(self) -> None:
        """Ask for a clean shutdown; kill the child if it does not comply."""
        if self.child.poll() is None:
            try:
                self.child.stdin.write("quit\n")
                self.child.stdin.flush()
                self.child.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.child.kill()
                self.child.wait()
        for pipe in (self.child.stdin, self.child.stdout):
            try:
                pipe.close()
            except OSError:     # a dead child leaves an unflushable buffer
                pass


def serve(directory: str, task, tracer=None) -> None:
    """The server child's whole life (called by ``serve.py``)."""
    engine = Engine(directory, **task.engine)
    engine.apply_setup(task.setup)
    db = engine.db
    marks = [mark_datetime(m) for m in engine.marks]
    service = ThreadedService(db, port=0, pool_workers=2, max_inflight=64)
    print(json.dumps({"port": service.port, "marks": marks}), flush=True)
    for line in sys.stdin:
        command = line.strip()
        if command == "quit":
            break
        reply: dict = {}
        if command == "snapshot":
            usage = resource.getrusage(resource.RUSAGE_SELF)
            reply = {
                "counters": engine_counters(db, service),
                "cpu_s": time.process_time(),
                "peak_rss_mb": usage.ru_maxrss / 1024.0,
            }
        elif command == "trace_reset" and tracer is not None:
            tracer.reset()
        elif command == "trace_dump" and tracer is not None:
            reply = {"aggregates": tracer.aggregates_json(), "spans": tracer.spans}
        elif command == "stored_bytes":
            reply = {"stored_bytes": engine.stored_bytes()}
        elif command == "integrity":
            reply = {"problems": engine.integrity_problems()}
        elif command == "crash_recover":
            db.flush_commits()
            reply = engine.crash_recover()
        print(json.dumps(reply), flush=True)
    service.shutdown()
    engine.close()


# -- what the tracer wraps -----------------------------------------------------

def _id_and_kind(request_id):
    """A :class:`ServiceConn` request id also names the op's kind."""
    if isinstance(request_id, str) and request_id.count(":") == 2:
        return request_id, request_id.rsplit(":", 1)[1]
    return request_id, None


def _message_id(args):
    return _id_and_kind(args[2].get("id"))


def _request_id(args):
    return args[1].get("id"), None


def _task_op(args):
    return getattr(args[1].fn, "trace_op", (None, None))


def _len_result(args, result):
    return len(result)


def _len_data(args, result):
    return len(args[1])


SPANS = [
    # (owner, attribute, span name, options); the layer is the name's first part.
    (ServiceClient, "request", "service.client.request", {"op_from": _request_id}),
    (ServiceCore, "handle_payload", "service.core.handle_payload", {}),
    (ServiceCore, "handle_message", "service.core.handle_message",
     {"op_from": _message_id}),
    (protocol, "encode_message", "service.codec.encode", {"units": _len_result}),
    (protocol, "decode_message", "service.codec.decode", {}),
    (protocol.FrameDecoder, "feed", "service.codec.feed", {"units": _len_data}),
    (AdmissionController, "try_admit", "service.admission.try_admit", {}),
    (AdmissionController, "release", "service.admission.release", {}),
    (WorkerPool, "submit_call", "workers.submit", {"tag_arg": 1}),
    (WorkerPool, "submit", "workers.submit", {"tag_arg": 1}),
    (TxnFuture, "result", "workers.wait", {}),
    (WorkerPool, "_run_task", "workers.run", {"op_from": _task_op}),
    (sys.modules[Session.__module__], "parse_statement", "sql.parse", {}),
    (Session, "execute", "sql.execute", {}),
    (TransactionManager, "begin", "concurrency.begin", {}),
    (TransactionManager, "commit", "concurrency.commit", {}),
    (TransactionManager, "abort", "concurrency.abort", {}),
    (LockManager, "acquire", "concurrency.lock.acquire", {}),
    (LockManager, "release_all", "concurrency.lock.release_all", {}),
    (Table, "insert", "core.table.insert", {}),
    (Table, "update", "core.table.update", {}),
    (Table, "delete", "core.table.delete", {}),
    (Table, "read", "core.table.read", {}),
    (Table, "read_as_of", "core.table.read_as_of", {}),
    (Table, "scan", "core.table.scan", {}),
    (Table, "scan_range", "core.table.scan_range", {}),
    (Table, "scan_as_of", "core.table.scan_as_of", {}),
    (Table, "history", "core.table.history", {}),
    (RowCodec, "encode_row", "core.rowcodec.encode_row", {}),
    (RowCodec, "decode_row", "core.rowcodec.decode_row", {}),
    (RowCodec, "encode_payload", "core.rowcodec.encode_payload", {}),
    (RowCodec, "decode_payload", "core.rowcodec.decode_payload", {}),
    (BTree, "search_leaf", "access.btree.search_leaf", {}),
    (BTree, "leaf_for_insert", "access.btree.leaf_for_insert", {}),
    (BTree, "apply_insert", "access.btree.apply_insert", {}),
    (TSBHistoryIndex, "search", "access.tsb.search", {}),
    (TSBHistoryIndex, "cached_search", "access.tsb.search", {}),
    (TimestampManager, "on_commit", "timestamp.on_commit", {}),
    (TimestampManager, "stamp_page", "timestamp.stamp_page", {}),
    (TimestampManager, "stamp_version", "timestamp.stamp_version", {}),
    (TimestampManager, "resolve", "timestamp.resolve", {}),
    (TimestampManager, "resolve_with_fallback", "timestamp.resolve", {}),
    (TimestampManager, "resolve_many", "timestamp.resolve", {}),
    (BufferPool, "get_page", "storage.buffer.get_page", {}),
    (BufferPool, "new_page", "storage.buffer.new_page", {}),
    (BufferPool, "flush_page", "storage.buffer.flush_page", {}),
    (BufferPool, "flush_all", "storage.buffer.flush_all", {}),
    (PageStore, "read_page", "storage.disk.read_page", {}),
    (PageStore, "write_page", "storage.disk.write_page", {}),
    (Page, "to_bytes", "storage.page.encode", {}),
    (sys.modules[BufferPool.__module__], "decode_page", "storage.page.decode", {}),
    (sys.modules[ArchiveManager.__module__], "decode_page", "storage.page.decode", {}),
    (LogRecord, "to_bytes", "wal.encode", {}),
    (LogManager, "append", "wal.append", {}),
    (FileLogManager, "append", "wal.append", {}),
    (LogManager, "force", "wal.force", {}),
    (FileLogManager, "force", "wal.force", {}),
    (CheckpointManager, "take", "wal.checkpoint", {}),
    (ImmortalDB, "recover", "wal.recover", {}),
    (ArchiveManager, "step", "archive.step", {}),
    (ArchiveManager, "materialize", "archive.materialize", {}),
]
