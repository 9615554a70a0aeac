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
and runs on whichever thread calls it: the connection's own thread behind
the socket server (which first takes one of its ``pool_workers`` execution
slots), the caller's thread under the loopback transport and the
crashtest.  The order of operations is identical.  Only bulk ingest still
fans out, to a :class:`~repro.workers.pool.WorkerPool` when there is one.

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
from repro.storage.disk import RetryPolicy
from repro.workers.pool import RETRYABLE_ERRORS, RetriesExhaustedError

#: Cluster conditions the *client* should retry but the server must not
#: spin on: an in-doubt conflict clears only when 2PC resolution runs, and
#: a down shard comes back only when an operator recovers it.  A
#: cross-shard abort is an ordinary conflict casualty, so it joins the
#: server-side retry loop instead.
CLUSTER_WAIT_ERRORS = (InDoubtError, ShardUnavailableError)


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
        now=time.monotonic,
    ) -> None:
        self.db = db
        self.pool = pool
        self.admission = admission or AdmissionController()
        self.stats = ServiceStats()
        self._now = now
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
            session = ServiceSession(session_id, self.db, now=self._now)
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
            try:
                in_flight = False
            finally:
                session.lock.release()
        else:
            in_flight = True
        if in_flight:
            session.mark_defunct(reason)
        else:
            self.close_session(session, reason)

    def on_request_timeout(self, session: ServiceSession, reason: str) -> None:
        """The transport gave up waiting on a request's execution."""
        self.stats.timeouts += 1
        session.mark_defunct(reason)

    def reap_idle(self, idle_timeout_s: float) -> list[ServiceSession]:
        """Close every session idle past the deadline; returns the victims."""
        with self._mu:
            victims = [
                s for s in self.sessions.values()
                if not s.closed and s.idle_for() >= idle_timeout_s
                and not s.lock.locked()
            ]
        for session in victims:
            self.close_session(session, "idle")
        return victims

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

    def _dedup_get(self, request_id):
        with self._mu:
            entry = self._dedup.get(request_id)
            if entry is not None and entry is not _PENDING:
                self._dedup.move_to_end(request_id)
            return entry

    def _dedup_put(self, request_id, response) -> None:
        with self._mu:
            self._dedup[request_id] = response
            self._dedup.move_to_end(request_id)
            while len(self._dedup) > self._dedup_capacity:
                self._dedup.popitem(last=False)

    def _dedup_drop(self, request_id) -> None:
        with self._mu:
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
        sql = message.get("sql")
        if op == "ingest":
            kind = "write"
        elif op == "sql" and isinstance(sql, str) \
                and not session.in_transaction:
            kind = classify_statement(sql)
            if kind == "bracket":
                return ""
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
        """Execute one request and build its response.

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
            return self._handle_admitted(session, request_id, message, admitted)
        finally:
            if admitted:
                self.admission.release()

    def _handle_admitted(self, session, request_id, message, admitted) -> dict:
        if session.closed:
            return protocol.error_response(
                request_id,
                SessionStateError(
                    f"session closed ({session.close_reason})"
                ),
                retryable=True,
            )
        session.touch()
        session.requests += 1
        # Transaction-scoped requests (BEGIN/COMMIT/ROLLBACK, or any
        # statement inside an open bracket) are NOT idempotency-cached:
        # their effects die with the session, so a cached ack would lie to
        # a retry arriving on a fresh connection after the bracket was
        # aborted.  Clients must treat a connection loss mid-bracket as
        # losing the bracket, not retry blindly — and ours do.
        # A statement that took no slot is one of those (see ``admit``).
        cacheable = request_id is not None and (
            admitted or message.get("op") != "sql"
            or not isinstance(message.get("sql"), str)
        )
        if cacheable:
            cached = self._dedup_get(request_id)
            if cached is _PENDING:
                self.stats.duplicate_hits += 1
                return protocol.error_response(
                    request_id,
                    SessionStateError("request is already in flight"),
                    retryable=True,
                )
            if cached is not None:
                self.stats.duplicate_hits += 1
                return cached
            self._dedup_put(request_id, _PENDING)
        try:
            response = self._dispatch(session, request_id, message, admitted)
        except Exception as exc:   # SimulatedCrash (BaseException) passes
            if cacheable:
                self._dedup_drop(request_id)
            return protocol.error_response(request_id, exc, retryable=False)
        if cacheable:
            # Only successful outcomes are worth replaying to a retry;
            # errors are side-effect-free (a failed statement aborted its
            # txn) and deserve a live re-execution, which may now succeed.
            if response.get("status") in (
                protocol.STATUS_OK, protocol.STATUS_DEGRADED
            ):
                self._dedup_put(request_id, response)
            else:
                self._dedup_drop(request_id)
        if session.defunct:
            # The connection died while this request executed; its outcome
            # is cached for a retry, and the session retires now (aborting
            # any bracket the dead client left open).
            self.close_session(session, session.close_reason or "disconnect")
        return response

    # -- dispatch --------------------------------------------------------------

    def _dispatch(self, session, request_id, message: dict, admitted) -> dict:
        op = message.get("op")
        if op == "ping":
            return protocol.ok_response(request_id, message="pong")
        if op == "stats":
            return protocol.ok_response(
                request_id, rows=[self.db.stats()], rowcount=1
            )
        if op == "close":
            return protocol.bye_response("client close") | {"id": request_id}
        if op == "sql":
            return self._handle_sql(session, request_id, message, admitted)
        if op == "ingest":
            return self._handle_ingest(session, request_id, message)
        raise ProtocolError(f"unknown op {op!r}")

    def _handle_sql(self, session, request_id, message, admitted) -> dict:
        sql = message.get("sql")
        if not isinstance(sql, str):
            raise ProtocolError("sql op needs a 'sql' string")
        params = message.get("params", ())
        if not isinstance(params, (list, tuple)):
            raise ProtocolError("sql op's 'params' must be a list")
        with session.lock:
            return self._execute_sql(session, request_id, sql, params, admitted)

    def _execute_sql(self, session, request_id, sql, params, admitted):
        fire("service.execute")
        kind = admitted or classify_statement(sql)
        degraded_reason = None
        result = None
        error: Exception | None = None
        for attempt in range(1, self.max_retries + 2):
            try:
                result = session.sql.execute(sql, params)
                error = None
                break
            except CLUSTER_WAIT_ERRORS as exc:
                # Retryable for the client, pointless for the server: the
                # condition clears on 2PC resolution / shard recovery, not
                # on a fresh attempt a few milliseconds later.
                error = exc
                break
            except RETRYABLE_ERRORS + (
                RetriesExhaustedError, CrossShardAbort,
            ) as exc:
                error = exc
                # A statement admitted for a slot started its own transaction
                # and is run again; one that continues a bracket is not.
                if not admitted or attempt > self.max_retries:
                    break
                self.stats.retries += 1
                steps = self.retry_policy.backoff_steps(attempt)
                if self.retry_step_ms:
                    time.sleep(steps * self.retry_step_ms / 1000.0)
            except PageQuarantinedError as exc:
                degraded_reason = str(exc)
                error = None
                break
            except ImmortalDBError as exc:
                error = exc
                break
        if error is not None:
            is_retryable = isinstance(
                error,
                RETRYABLE_ERRORS + (RetriesExhaustedError, CrossShardAbort)
                + CLUSTER_WAIT_ERRORS,
            )
            return protocol.error_response(
                request_id, error, retryable=is_retryable
            )
        # Ack-implies-durable: before acknowledging a write that left the
        # session outside a bracket, force any batched commits.
        if kind != "read" and not session.in_transaction \
                and self.db.txn_mgr.unacked_commits:
            self.db.flush_commits()
        if degraded_reason is not None:
            self.stats.degraded_replies += 1
            return protocol.degraded_response(
                request_id, rows=[], rowcount=0, degraded=[degraded_reason]
            )
        if result.degraded:
            self.stats.degraded_replies += 1
            return protocol.degraded_response(
                request_id,
                rows=result.rows,
                rowcount=result.rowcount,
                degraded=[
                    f"page {d.page_id}: {d.reason}" for d in result.degraded
                ],
            )
        return protocol.ok_response(
            request_id,
            rows=result.rows,
            rowcount=result.rowcount,
            message=result.message,
        )

    # -- bulk ingest ------------------------------------------------------------

    def _handle_ingest(self, session, request_id, message: dict) -> dict:
        table_name = message.get("table")
        text = message.get("csv")
        if not isinstance(table_name, str) or not isinstance(text, str):
            raise ProtocolError("ingest op needs 'table' and 'csv' strings")
        batch = int(message.get("batch", 64))
        if batch < 1:
            raise ProtocolError("ingest batch must be >= 1")
        try:
            with session.lock:
                if session.in_transaction:
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
    if column_type in (
        ColumnType.SMALLINT, ColumnType.INT, ColumnType.BIGINT
    ):
        return lambda v: int(v) if v != "" else None
    if column_type is ColumnType.FLOAT:
        return lambda v: float(v) if v != "" else None
    if column_type is ColumnType.BOOL:
        return lambda v: v.strip().lower() in ("1", "true", "t", "yes")
    return lambda v: v
