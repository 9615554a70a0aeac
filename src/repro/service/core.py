"""Sans-IO service core: sessions, admission, dispatch, idempotency.

:class:`ServiceCore` is the whole service minus the sockets: it owns the
session table, the admission controller, the request dispatcher, the
idempotency cache, and the service counters the engine exposes through
``stats()``.  The socket server (:mod:`repro.service.server`) and the
deterministic loopback transport (:mod:`repro.service.transport`) are both
thin byte-shufflers over ``handle_payload`` — which is what lets the
crashtest drive every ``service.*`` failpoint crossing single-threaded,
with :class:`~repro.faults.failpoints.SimulatedCrash` propagating
synchronously out of the call stack.

Execution routing
-----------------
``handle_payload`` is the whole of a request's execution — idempotency
lookup, session lock, retry loop, statement, durable-ack flush, response —
and runs on whichever thread calls it: the thread that read the request
behind the socket server (which first takes one of its ``pool_workers``
execution slots), the caller's thread under the loopback transport and
the crashtest.  The order of operations is identical.  Only bulk ingest
still fans out, to a :class:`~repro.workers.pool.WorkerPool` when there
is one.  Before a conflict back-off or a bulk ingest the core calls
``wait_hooks.on_wait()``, where the socket server hands its poll loop on.

Admission
---------
A request that starts a new piece of work takes one slot of the in-flight
budget before anything else happens to it and gives it back when its
response is built.  :meth:`ServiceCore.admit` is that decision, and it
never blocks: the socket server calls it *before* the request waits for an
execution slot, so a shed reply costs no slot and no wait, and in-flight
counts the work the server has accepted — waiting for a slot plus
executing.  Frames a connection has not read yet are not counted: TCP
holds those back.  Synchronous callers leave it to ``handle_message``.

Durability before ack
---------------------
A response that acknowledges a committed write is only sent after the
commit record is forced: under group commit the core calls
``db.flush_commits()`` before acking any write that left the session
outside a transaction bracket.  The first responder in a batch forces the
whole batch — the same last-active-worker amortization the pool uses.

Idempotency
-----------
The client stamps every request with a unique ``id``; the core caches the
response it computed for each id (bounded LRU).  A duplicate delivery —
a client retry after a torn frame or a lost response — returns the cached
response instead of re-executing.  While the original is still executing,
a duplicate gets a retryable ``RequestInFlight`` error rather than a
second execution.  The cache lives for the service's lifetime: it makes
*transport* retries exactly-once; cross-crash retries are the recovery
protocol's job (the crashtest verifies acked commits survive).
"""

from __future__ import annotations

import csv as _csv
import io
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from repro.core.rowcodec import ColumnType
from repro.errors import (
    CrossShardAbort,
    ImmortalDBError,
    InDoubtError,
    PageQuarantinedError,
    ProtocolError,
    ServiceOverloadedError,
    SessionStateError,
    ShardUnavailableError,
)
from repro.faults.failpoints import fire
from repro.service import protocol
from repro.service.admission import AdmissionController
from repro.service.session import ServiceSession
from repro.sql.executor import Result
from repro.storage.disk import RetryPolicy
from repro.workers.pool import RETRYABLE_ERRORS, RetriesExhaustedError

#: Cluster conditions the *client* should retry but the server must not
#: spin on: an in-doubt conflict clears only when 2PC resolution runs, and
#: a down shard comes back only when an operator recovers it.
CLUSTER_WAIT_ERRORS = (InDoubtError, ShardUnavailableError)
#: Conflicts a statement that started its own transaction is run again for
#: (a cross-shard abort is an ordinary conflict casualty).
CONFLICT_ERRORS = RETRYABLE_ERRORS + (RetriesExhaustedError, CrossShardAbort)


@dataclass
class ServiceStats:
    """Service counters; the engine's ``stats()`` exposes the first five."""

    accepts: int = 0                 # requests admitted for execution
    rejects: int = 0                 # admission-control rejections
    timeouts: int = 0                # per-request deadline expiries
    aborted_on_disconnect: int = 0   # open txns rolled back by session close
    degraded_replies: int = 0        # responses with quarantine-degraded reads
    requests: int = 0
    duplicate_hits: int = 0          # idempotency-cache hits
    retries: int = 0                 # server-side conflict retries
    sessions_opened: int = 0
    sessions_closed: int = 0
    idle_closes: int = 0
    torn_frames: int = 0
    ingest_rows: int = 0
    ingest_batches: int = 0


_PENDING = object()   # idempotency-cache sentinel: id is executing right now


def classify_statement(sql: str) -> str:
    """\"read\" or \"write\" (the shed policy's classes) or \"bracket\",
    from the first keyword.  BEGIN, COMMIT and ROLLBACK manage the session's
    bracket: they bypass admission (rejecting a COMMIT would strand its
    locks) and are never retried server-side (its state is the client's)."""
    head = sql.lstrip()[:8].upper()
    if head.startswith("SELECT"):
        return "read"
    if head.startswith(("BEGIN", "COMMIT", "ROLLBACK")):
        return "bracket"
    return "write"


class ServiceCore:
    """Everything between decoded request dicts and response dicts."""

    def __init__(
        self,
        db,
        pool=None,
        *,
        admission: AdmissionController | None = None,
        dedup_capacity: int = 4096,
        max_retries: int = 8,
        retry_seed: int = 0,
        retry_step_ms: float = 0.0,
    ) -> None:
        self.db = db
        self.pool = pool
        self.admission = admission or AdmissionController()
        self.stats = ServiceStats()
        self.max_retries = max_retries
        self.retry_policy = RetryPolicy(
            max_attempts=max_retries + 1, seed=retry_seed
        )
        self.retry_step_ms = retry_step_ms
        self._mu = threading.Lock()
        self._next_session_id = 1
        self.sessions: dict[int, ServiceSession] = {}
        self._dedup: OrderedDict = OrderedDict()
        self._dedup_capacity = dedup_capacity
        self.draining = False
        self.wait_hooks = None      # see "Execution routing"
        # The engine's stats() picks these counters up from here.
        db.service_stats = self.stats

    # -- session lifecycle ----------------------------------------------------

    def open_session(self) -> ServiceSession:
        fire("service.accept")
        if self.draining:
            raise SessionStateError("service is draining; connection refused")
        with self._mu:
            session_id = self._next_session_id
            self._next_session_id += 1
            session = ServiceSession(session_id, self.db)
            self.sessions[session_id] = session
            self.stats.sessions_opened += 1
        return session

    def close_session(
        self, session: ServiceSession, reason: str = "disconnect"
    ) -> bool:
        """Retire a session; abort + release locks if a txn was open."""
        fire("service.disconnect")
        with self._mu:
            self.sessions.pop(session.id, None)
        with session.lock:
            aborted = session.close(reason)
        if aborted:
            self.stats.aborted_on_disconnect += 1
        self.stats.sessions_closed += 1
        if reason == "idle":
            self.stats.idle_closes += 1
        return aborted

    def on_disconnect(self, session: ServiceSession, reason: str) -> None:
        """Connection dropped.  If a request is mid-execution the session
        lock is held; mark the session defunct so the finishing thread
        closes it (abort + lock release) the moment the body returns."""
        if session.lock.acquire(blocking=False):
            session.lock.release()
            self.close_session(session, reason)
        else:
            session.mark_defunct(reason)

    def on_request_timeout(self, session: ServiceSession, reason: str) -> None:
        """The transport gave up waiting on a request's execution."""
        self.stats.timeouts += 1
        session.mark_defunct(reason)

    # -- drain ----------------------------------------------------------------

    def begin_drain(self) -> None:
        """Stop admitting; new requests and connections get typed refusals."""
        self.draining = True
        self.admission.begin_drain()

    def finish_drain(self) -> None:
        """Abort leftover brackets, force group commit, retire sessions."""
        fire("service.drain")
        with self._mu:
            leftovers = list(self.sessions.values())
        for session in leftovers:
            self.close_session(session, "drain")
        if self.db.txn_mgr.unacked_commits:
            self.db.flush_commits()

    # -- idempotency cache ----------------------------------------------------

    def _dedup_reserve(self, request_id):
        """The cached outcome of ``request_id`` (``_PENDING`` while it
        executes), or None: it was not seen, and is now marked executing."""
        with self._mu:
            entry = self._dedup.get(request_id)
            if entry is None:
                self._dedup[request_id] = _PENDING
            elif entry is not _PENDING:
                self._dedup.move_to_end(request_id)
            return entry

    def _dedup_store(self, request_id, response: dict) -> None:
        """Keep a successful outcome for retries; forget any other (errors
        are side-effect-free and deserve a live re-execution, which may now
        succeed)."""
        with self._mu:
            if response["status"] in (protocol.STATUS_OK, protocol.STATUS_DEGRADED):
                self._dedup[request_id] = response
                self._dedup.move_to_end(request_id)
                if len(self._dedup) > self._dedup_capacity:
                    self._dedup.popitem(last=False)
            else:
                self._dedup.pop(request_id, None)

    # -- request handling ------------------------------------------------------

    def admit(self, session: ServiceSession, message: dict) -> str:
        """Take the admission decision for one request; never blocks.

        ``"read"`` or ``"write"``: the request holds an in-flight slot of
        that shed class, which ``handle_message`` (handed this value as
        ``admitted``) gives back — a statement is classified here, once.
        ``""``: it needs no slot — ``ping``/``stats``/``close``, a malformed
        request (answered with an error downstream), and every statement
        that continues a transaction bracket: shedding a COMMIT, or any
        statement of an already-open bracket, would strand its locks.
        Raises :class:`ServiceOverloadedError` when the request is shed.
        """
        op = message.get("op")
        if op == "sql":
            sql = message.get("sql")
            if type(sql) is not str or session.sql.in_transaction:
                return ""
            kind = classify_statement(sql)
            if kind == "bracket":
                return ""
        elif op == "ingest":
            kind = "write"
        else:
            return ""
        self.admission.try_admit(kind)
        self.stats.accepts += 1
        return kind

    def shed_response(self, request_id, exc: ServiceOverloadedError) -> dict:
        """Count and answer a request :meth:`admit` turned away."""
        self.stats.requests += 1
        self.stats.rejects += 1
        return protocol.overloaded_response(
            request_id,
            retry_after_ms=exc.retry_after_ms,
            shed_kind=exc.shed_kind,
        )

    def handle_payload(
        self, session: ServiceSession, payload: bytes, admitted=None,
        message: dict | None = None,
    ) -> dict:
        """Dispatch one frame payload; ``message`` is its decoding when the
        transport needed that to call :meth:`admit` (one decode a request)."""
        if message is None:
            try:
                message = protocol.decode_message(payload)
            except ProtocolError as exc:
                return protocol.error_response(None, exc, retryable=False)
        return self.handle_message(session, message, admitted)

    def handle_message(
        self, session: ServiceSession, message: dict, admitted=None
    ) -> dict:
        """Execute one request and build its response, in one pass.

        ``admitted`` is what :meth:`admit` returned when the transport
        already called it; None takes the decision here.
        """
        fire("service.request")
        request_id = message.get("id")
        if admitted is None:
            try:
                admitted = self.admit(session, message)
            except ServiceOverloadedError as exc:
                return self.shed_response(request_id, exc)
        self.stats.requests += 1
        try:
            if session.closed:
                return protocol.error_response(
                    request_id,
                    SessionStateError(f"session closed ({session.close_reason})"),
                    retryable=True,
                )
            op = message.get("op")
            sql = message.get("sql")
            statement = op == "sql" and type(sql) is str
            # Transaction-scoped requests (BEGIN/COMMIT/ROLLBACK, or any
            # statement inside an open bracket) are NOT idempotency-cached:
            # their effects die with the session, so a cached ack would lie
            # to a retry arriving on a fresh connection after the bracket
            # was aborted.  Clients must treat a connection loss mid-bracket
            # as losing the bracket, not retry blindly — and ours do.  A
            # statement that took no slot is one of those (see ``admit``).
            cacheable = request_id is not None and (admitted or not statement)
            if cacheable and (cached := self._dedup_reserve(request_id)) is not None:
                self.stats.duplicate_hits += 1
                if cached is not _PENDING:
                    return cached
                return protocol.error_response(
                    request_id,
                    SessionStateError("request is already in flight"),
                    retryable=True,
                )
            try:
                if statement:
                    response = self._statement(
                        session, request_id, sql, message.get("params", ()),
                        admitted,
                    )
                else:
                    response = self._control(session, request_id, message, op)
            except Exception as exc:   # SimulatedCrash (BaseException) passes
                response = protocol.error_response(
                    request_id, exc, retryable=False
                )
            if cacheable:
                self._dedup_store(request_id, response)
            if session.defunct:
                # The connection died while this request executed; its
                # outcome is cached for a retry, and the session retires now
                # (aborting any bracket the dead client left open).
                self.close_session(session, session.close_reason or "disconnect")
            return response
        finally:
            if admitted:
                self.admission.release()

    def _statement(self, session, request_id, sql: str, params, admitted) -> dict:
        """One SQL statement: execute (again after a conflict, if it started
        its own transaction), force before acking a write, reply."""
        if not isinstance(params, (list, tuple)):
            raise ProtocolError("sql op's 'params' must be a list")
        with session.lock:
            fire("service.execute")
            attempt = 1
            while True:
                try:
                    result = session.sql.execute(sql, params)
                    break
                except PageQuarantinedError as exc:
                    result = Result(degraded=[str(exc)])    # no rows, degraded
                    break
                except CONFLICT_ERRORS as exc:
                    # A statement admitted for a slot started its own
                    # transaction and is run again; one that continues a
                    # bracket is not.
                    if not admitted or attempt > self.max_retries:
                        return protocol.error_response(request_id, exc, retryable=True)
                    self.stats.retries += 1
                    steps = self.retry_policy.backoff_steps(attempt)
                    if self.retry_step_ms:
                        if self.wait_hooks is not None:
                            self.wait_hooks.on_wait()
                        time.sleep(steps * self.retry_step_ms / 1000.0)
                    attempt += 1
                except ImmortalDBError as exc:
                    # A cluster wait is retryable for the client, pointless
                    # for the server: it clears on 2PC resolution or shard
                    # recovery, not on a fresh attempt a few ms later.
                    return protocol.error_response(
                        request_id, exc, retryable=isinstance(exc, CLUSTER_WAIT_ERRORS)
                    )
            # Ack-implies-durable: before acknowledging a write that left
            # the session outside a bracket, force any batched commits.
            if admitted != "read" and not session.sql.in_transaction \
                    and self.db.txn_mgr.unacked_commits:
                self.db.flush_commits()
        if not result.degraded:
            return protocol.ok_response(request_id, rows=result.rows,
                                        rowcount=result.rowcount, message=result.message)
        self.stats.degraded_replies += 1
        return protocol.degraded_response(
            request_id, rows=result.rows, rowcount=result.rowcount,
            degraded=[d if type(d) is str else f"page {d.page_id}: {d.reason}"
                      for d in result.degraded],
        )

    def _control(self, session, request_id, message: dict, op) -> dict:
        """Every request that is not a statement."""
        if op == "ping":
            return protocol.ok_response(request_id, message="pong")
        if op == "stats":
            return protocol.ok_response(
                request_id, rows=[self.db.stats()], rowcount=1
            )
        if op == "close":
            return protocol.bye_response("client close") | {"id": request_id}
        if op == "sql":
            raise ProtocolError("sql op needs a 'sql' string")
        if op == "ingest":
            return self._handle_ingest(session, request_id, message)
        raise ProtocolError(f"unknown op {op!r}")

    # -- bulk ingest ------------------------------------------------------------

    def _handle_ingest(self, session, request_id, message: dict) -> dict:
        table_name = message.get("table")
        text = message.get("csv")
        if not isinstance(table_name, str) or not isinstance(text, str):
            raise ProtocolError("ingest op needs 'table' and 'csv' strings")
        batch = int(message.get("batch", 64))
        if batch < 1:
            raise ProtocolError("ingest batch must be >= 1")
        if self.wait_hooks is not None:
            self.wait_hooks.on_wait()
        try:
            with session.lock:
                if session.sql.in_transaction:
                    raise SessionStateError(
                        "ingest is not allowed inside a transaction bracket"
                    )
                return self._ingest(request_id, table_name, text, batch)
        except (SessionStateError, ImmortalDBError) as exc:
            return protocol.error_response(request_id, exc, retryable=False)

    def _ingest(self, request_id, table_name, text, batch) -> dict:
        table = self.db.table(table_name)
        coercers = {
            c.name: _coercer(c.column_type) for c in table.schema.columns
        }
        reader = _csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise ProtocolError("ingest csv is empty") from None
        unknown = set(header) - set(coercers)
        if unknown:
            raise ProtocolError(f"ingest csv has unknown columns {unknown}")
        rows = [
            {
                name: coercers[name](value)
                for name, value in zip(header, raw)
            }
            for raw in reader
        ]
        batches = [rows[i:i + batch] for i in range(0, len(rows), batch)]

        futures = []
        for chunk in batches:
            fire("service.ingest.batch")

            def body(txn, chunk=chunk):
                for row in chunk:
                    table.insert(txn, row)
                return len(chunk)

            if self.pool is not None:
                # Fresh-txn bodies: the pool retries conflicts and batches
                # the commits through group commit.
                futures.append(self.pool.submit(body))
            else:
                with self.db.transaction() as txn:
                    body(txn)
            self.stats.ingest_batches += 1
        for future in futures:
            future.result()
        if self.db.txn_mgr.unacked_commits:
            self.db.flush_commits()
        self.stats.ingest_rows += len(rows)
        return protocol.ok_response(
            request_id,
            rowcount=len(rows),
            message=f"INGEST {len(rows)} rows in {len(batches)} batches",
        )


def _coercer(column_type: ColumnType):
    if column_type in (ColumnType.SMALLINT, ColumnType.INT, ColumnType.BIGINT):
        return lambda v: int(v) if v != "" else None
    if column_type is ColumnType.FLOAT:
        return lambda v: float(v) if v != "" else None
    if column_type is ColumnType.BOOL:
        return lambda v: v.strip().lower() in ("1", "true", "t", "yes")
    return lambda v: v
