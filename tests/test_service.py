"""Service layer: protocol, admission, sessions, faults, and the server.

The robustness contract under test: every failure a network can produce —
overload, torn frames, dropped responses, duplicate deliveries, dead
clients, slow clients, drains — must surface as a *typed* outcome, never
a stuck lock, a double execution, or a lost acked commit.
"""

from __future__ import annotations

import queue
import random
import socket
import sys
import threading
import time

import pytest

from repro.core.engine import ImmortalDB
from repro.core.rowcodec import ColumnType
from repro.errors import (
    ConnectionLostError,
    ProtocolError,
    ServiceOverloadedError,
    SessionStateError,
    TornFrameError,
)
from repro.faults.models import NETWORK_FAULT_KINDS, FaultyWire
from repro.service import protocol
from repro.service.admission import AdmissionController
from repro.service.client import ServiceClient
from repro.service.core import ServiceCore, classify_statement
from repro.service.server import SQLService, ThreadedService
from repro.service.transport import LoopbackConnection
from repro.storage.disk import RetryPolicy


def _make_db() -> ImmortalDB:
    db = ImmortalDB(buffer_pages=64, group_commit_window=4)
    db.create_table(
        "t", [("k", ColumnType.INT), ("v", ColumnType.TEXT)],
        key="k", immortal=True,
    )
    return db


def _core(db=None, **kwargs) -> ServiceCore:
    return ServiceCore(db or _make_db(), **kwargs)


def _rows(response: dict) -> list:
    assert response["status"] == protocol.STATUS_OK, response
    return response.get("rows") or []


def _value(conn, k: int):
    rows = _rows(conn.execute(f"SELECT v FROM t WHERE k = {k}"))
    return rows[0]["v"] if rows else None


def _wait_until(predicate, timeout_s: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


# ---------------------------------------------------------------------------
# wire protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_frame_round_trip(self):
        message = {"id": "c1:1", "op": "sql", "sql": "SELECT 1"}
        decoder = protocol.FrameDecoder()
        payloads = decoder.feed(protocol.encode_message(message))
        assert [protocol.decode_message(p) for p in payloads] == [message]

    def test_incremental_byte_at_a_time(self):
        frame = protocol.encode_message({"op": "ping"})
        decoder = protocol.FrameDecoder()
        collected = []
        for i in range(len(frame)):
            collected.extend(decoder.feed(frame[i:i + 1]))
        assert len(collected) == 1
        assert decoder.pending_bytes == 0

    def test_corrupt_byte_is_a_typed_tear(self):
        frame = bytearray(protocol.encode_message({"op": "ping"}))
        frame[-1] ^= 0x40
        with pytest.raises(TornFrameError):
            protocol.FrameDecoder().feed(bytes(frame))

    def test_absurd_length_is_a_typed_tear(self):
        bad = (protocol.MAX_FRAME + 1).to_bytes(4, "big") + b"\0" * 8
        with pytest.raises(TornFrameError):
            protocol.FrameDecoder().feed(bad)

    @pytest.mark.parametrize("payload", [
        b"", b"   ", b"not json", b'{"op": "ping"} trailing', b'{"op": "ping"}{}',
        b'{"op": ', b"\xff\xfe", b'["op"]', b"17", b'"text"', b"null",
    ])
    def test_a_payload_that_is_not_one_json_object_is_refused(self, payload):
        with pytest.raises(ProtocolError):
            protocol.decode_message(payload)

    def test_a_payload_nested_too_deep_is_refused(self):
        with pytest.raises(ProtocolError):
            protocol.decode_message(b"[" * 60_000)

    def test_json_whitespace_around_the_object_is_accepted(self):
        assert protocol.decode_message(b' \r\n{"op": "ping"}\t\n') == {"op": "ping"}

    def test_classify_statement(self):
        assert classify_statement("  select * from t") == "read"
        assert classify_statement("UPDATE t SET v='x' WHERE k=1") == "write"


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_reads_shed_before_writes_deterministically(self):
        ctl = AdmissionController(max_inflight=4, read_shed_fraction=0.75)
        for _ in range(3):
            ctl.try_admit("write")
        # Read high-water is 3 of 4: the next read sheds, a write fits.
        with pytest.raises(ServiceOverloadedError) as excinfo:
            ctl.try_admit("read")
        assert excinfo.value.shed_kind == "read"
        assert excinfo.value.retry_after_ms > 0
        ctl.try_admit("write")
        with pytest.raises(ServiceOverloadedError):
            ctl.try_admit("write")
        ctl.release()
        ctl.try_admit("write")   # a freed slot re-admits
        assert ctl.stats.rejected_reads == 1
        assert ctl.stats.rejected_writes == 1
        assert ctl.stats.peak_inflight == 4

    def test_retry_hint_scales_with_saturation(self):
        ctl = AdmissionController(max_inflight=2, retry_after_ms=50.0)
        empty_hint = ctl._hint_ms()
        ctl.try_admit("write")
        ctl.try_admit("write")
        assert ctl._hint_ms() > empty_hint

    def test_drain_rejects_everything(self):
        ctl = AdmissionController(max_inflight=8)
        ctl.begin_drain()
        with pytest.raises(ServiceOverloadedError):
            ctl.try_admit("write")
        assert ctl.stats.rejected_draining == 1


class TestOverloadResponses:
    def test_saturated_core_returns_typed_overload(self):
        core = _core(admission=AdmissionController(
            max_inflight=2, read_shed_fraction=0.5
        ))
        conn = LoopbackConnection(core)
        # Occupy one slot by hand: reads (limit 1) shed, writes (limit 2)
        # still drain — the read-first policy, observable on the wire.
        core.admission.try_admit("write")
        shed = conn.execute("SELECT * FROM t WHERE k = 1")
        assert shed["status"] == protocol.STATUS_OVERLOADED
        assert shed["retryable"] is True
        assert shed["shed_kind"] == "read"
        assert shed["retry_after_ms"] > 0
        ok = conn.execute("INSERT INTO t (k, v) VALUES (1, 'w')")
        assert ok["status"] == protocol.STATUS_OK
        assert core.db.stats()["service_rejects"] == 1
        core.admission.release()

    def test_rejected_request_id_can_be_retried(self):
        core = _core(admission=AdmissionController(max_inflight=1))
        conn = LoopbackConnection(core)
        core.admission.try_admit("write")
        message = {"id": "rt:1", "op": "sql",
                   "sql": "INSERT INTO t (k, v) VALUES (5, 'x')"}
        assert conn.request(dict(message))["status"] == \
            protocol.STATUS_OVERLOADED
        core.admission.release()
        # Same id after the shed: re-admitted and executed, not replayed
        # from the idempotency cache as a stale rejection.
        assert conn.request(dict(message))["status"] == protocol.STATUS_OK
        assert _value(conn, 5) == "x"

    def test_bracket_continuations_bypass_admission(self):
        core = _core(admission=AdmissionController(max_inflight=1))
        conn = LoopbackConnection(core)
        assert conn.execute(
            "INSERT INTO t (k, v) VALUES (1, 'a')"
        )["status"] == protocol.STATUS_OK
        assert conn.execute("BEGIN TRAN")["status"] == protocol.STATUS_OK
        core.admission.try_admit("write")   # saturate mid-bracket
        try:
            # Shedding these would strand the bracket's locks.
            update = conn.execute("UPDATE t SET v = 'b' WHERE k = 1")
            assert update["status"] == protocol.STATUS_OK
            assert conn.execute("COMMIT")["status"] == protocol.STATUS_OK
        finally:
            core.admission.release()
        assert _value(conn, 1) == "b"


# ---------------------------------------------------------------------------
# idempotency
# ---------------------------------------------------------------------------


class TestDegradedReplies:
    def test_select_over_a_quarantined_block_is_a_degraded_reply(self):
        """History behind a damaged archive block: the reply says which
        page could not be read instead of failing or answering without it."""
        db = ImmortalDB(
            buffer_pages=64, archive={"cold_ms": 200.0, "auto": False}
        )
        db.create_table(
            "t", [("k", ColumnType.INT), ("v", ColumnType.TEXT)],
            key="k", immortal=True,
        )
        core = ServiceCore(db)
        conn = LoopbackConnection(core)
        for k in range(8):
            conn.execute(f"INSERT INTO t (k, v) VALUES ({k}, 'r0:{'x' * 500}')")
        db.advance_time(100)
        mark = db.clock.now_datetime().isoformat(sep=" ")
        db.clock.advance_ticks(1)
        for r in range(1, 30):
            for k in range(8):
                conn.execute(f"UPDATE t SET v = 'r{r}:{'x' * 500}' WHERE k = {k}")
            db.advance_time(60)
        db.checkpoint(flush=True)
        point = f"SELECT v FROM t AS OF '{mark}' WHERE k = 3"
        whole = f"SELECT k FROM t AS OF '{mark}'"
        assert _rows(conn.execute(point)) == [{"v": "r0:" + "x" * 500}]
        assert len(_rows(conn.execute(whole))) == 8
        assert db.archive.drain() > 0
        assert len(_rows(conn.execute(whole))) == 8     # served from blocks
        blocks = db.archive.store._blocks
        blocks[:] = [(raw, b"\xde\xad" + blob[2:]) for raw, blob in blocks]
        db.archive._cache.clear()

        for sql in (point, whole):
            reply = conn.execute(sql)
            assert reply["status"] == protocol.STATUS_DEGRADED, reply
            assert reply["degraded"] and all(
                "unreadable" in why or "quarantined" in why
                for why in reply["degraded"]
            )
            assert reply["rowcount"] == len(reply["rows"]) < 8
        assert core.stats.degraded_replies == 2
        # What does not route through the damage is served as before.
        assert _value(conn, 3) == "r29:" + "x" * 500
        db.close()


class TestIdempotency:
    def test_duplicate_id_replays_cached_response(self):
        core = _core()
        conn = LoopbackConnection(core)
        message = {"id": "dup:1", "op": "sql",
                   "sql": "INSERT INTO t (k, v) VALUES (1, 'once')"}
        first = core.handle_message(conn.session, dict(message))
        second = core.handle_message(conn.session, dict(message))
        assert first == second
        assert core.stats.duplicate_hits == 1
        # Executed once: a second execution would be a duplicate-key error.
        assert _value(conn, 1) == "once"

    def test_in_bracket_statements_are_never_cached(self):
        core = _core()
        conn = LoopbackConnection(core)
        conn.execute("INSERT INTO t (k, v) VALUES (1, 'a')")
        conn.execute("BEGIN TRAN")
        message = {"id": "brk:1", "op": "sql",
                   "sql": "SELECT v FROM t WHERE k = 1"}
        core.handle_message(conn.session, dict(message))
        core.handle_message(conn.session, dict(message))
        # Both executed live: bracket-scoped outcomes die with the session,
        # so caching them would lie to a cross-session retry.
        assert core.stats.duplicate_hits == 0
        conn.execute("ROLLBACK")

    def test_error_responses_are_not_cached(self):
        core = _core()
        conn = LoopbackConnection(core)
        message = {"id": "err:1", "op": "sql",
                   "sql": "SELECT * FROM missing_table"}
        first = core.handle_message(conn.session, dict(message))
        assert first["status"] == protocol.STATUS_ERROR
        conn.execute("CREATE IMMORTAL TABLE missing_table "
                     "(k INT PRIMARY KEY, v TEXT)")
        retry = core.handle_message(conn.session, dict(message))
        assert retry["status"] == protocol.STATUS_OK


# ---------------------------------------------------------------------------
# session lifecycle
# ---------------------------------------------------------------------------


class TestSessionLifecycle:
    def test_mid_transaction_disconnect_releases_locks(self):
        core = _core()
        victim = LoopbackConnection(core, client_key="victim")
        other = LoopbackConnection(core, client_key="other")
        victim.execute("INSERT INTO t (k, v) VALUES (1, 'base')")
        victim.execute("BEGIN TRAN")
        victim.execute("UPDATE t SET v = 'stranded' WHERE k = 1")
        victim.drop_connection()
        # The abort released the row lock: the other session writes
        # immediately instead of deadlocking against a dead client.
        ok = other.execute("UPDATE t SET v = 'alive' WHERE k = 1")
        assert ok["status"] == protocol.STATUS_OK
        assert _value(other, 1) == "alive"
        stats = core.db.stats()
        assert stats["service_aborted_on_disconnect"] == 1

    def test_disconnect_during_execution_defers_to_worker(self):
        core = _core()
        conn = LoopbackConnection(core)
        session = conn.session
        session.lock.acquire()    # a request body is "executing"
        try:
            core.on_disconnect(session, "reset")
            assert session.defunct and not session.closed
        finally:
            session.lock.release()
        # The worker finishing its request observes the flag and retires
        # the session (handle_message's defunct check).
        core.handle_message(session, {"id": "d:1", "op": "ping"})
        assert session.closed
        assert core.db.stats()["service_aborted_on_disconnect"] == 0

    def test_close_session_is_idempotent(self):
        core = _core()
        conn = LoopbackConnection(core)
        session = conn.session
        core.close_session(session, "disconnect")
        core.close_session(session, "disconnect")
        assert core.stats.sessions_closed == 2
        assert core.stats.aborted_on_disconnect == 0

    def test_drain_refuses_new_sessions_and_new_work(self):
        core = _core()
        conn = LoopbackConnection(core)
        conn.execute("INSERT INTO t (k, v) VALUES (1, 'pre')")
        core.begin_drain()
        shed = conn.execute("INSERT INTO t (k, v) VALUES (2, 'post')")
        assert shed["status"] == protocol.STATUS_OVERLOADED
        with pytest.raises(SessionStateError):
            core.open_session()
        core.finish_drain()
        assert core.db.txn_mgr.unacked_commits == 0


# ---------------------------------------------------------------------------
# network faults through the loopback wire
# ---------------------------------------------------------------------------


class TestNetworkFaults:
    @pytest.mark.parametrize("kind", NETWORK_FAULT_KINDS)
    def test_each_fault_kind_is_exactly_once(self, kind):
        core = _core()
        wire = FaultyWire(seed=7)
        conn = LoopbackConnection(core, wire=wire, client_key=f"nf-{kind}")
        conn.execute("INSERT INTO t (k, v) VALUES (1, 'seed')")
        wire.arm(kind)
        response = conn.execute("UPDATE t SET v = 'faulted' WHERE k = 1")
        assert response["status"] == protocol.STATUS_OK
        assert wire.injected[kind] == 1
        # Exactly-once: the row moved to the new value, history grew by
        # exactly one version despite the duplicate/retry.
        assert _value(conn, 1) == "faulted"
        history = _rows(conn.execute("SELECT HISTORY OF t WHERE k = 1"))
        assert len(history) == 2

    def test_mid_bracket_connection_loss_is_surfaced_not_retried(self):
        core = _core()
        wire = FaultyWire(seed=3)
        conn = LoopbackConnection(core, wire=wire, client_key="brk")
        conn.execute("INSERT INTO t (k, v) VALUES (1, 'base')")
        conn.execute("BEGIN TRAN")
        wire.arm("drop_response")
        # The response is lost while the bracket is open: the server
        # aborted the bracket; a blind retry would run the statement
        # autocommit.  The client must raise instead.
        with pytest.raises(ConnectionLostError):
            conn.execute("UPDATE t SET v = 'poison' WHERE k = 1")
        assert _value(conn, 1) == "base"
        assert core.db.stats()["service_aborted_on_disconnect"] == 1

    def test_autocommit_retry_rides_the_idempotency_cache(self):
        core = _core()
        wire = FaultyWire(seed=5)
        conn = LoopbackConnection(core, wire=wire, client_key="auto")
        wire.arm("drop_response")
        response = conn.execute("INSERT INTO t (k, v) VALUES (9, 'ack')")
        assert response["status"] == protocol.STATUS_OK
        assert conn.reconnects == 1
        assert core.stats.duplicate_hits == 1
        assert _value(conn, 9) == "ack"


# ---------------------------------------------------------------------------
# the socket server, end to end over real sockets
# ---------------------------------------------------------------------------


def _serve(db, **kwargs) -> ThreadedService:
    kwargs.setdefault("pool_workers", 2)
    kwargs.setdefault("queue_depth", 32)
    return ThreadedService(db, port=0, **kwargs)


@pytest.fixture(params=["loopback", "socket"])
def resending(request):
    """``(client, core)``: one client of each transport, three attempts each.

    Both are the same ``ServiceClient.request`` loop; only the wire under
    ``_exchange`` differs.
    """
    db = _make_db()
    policy = RetryPolicy(max_attempts=3)
    if request.param == "loopback":
        core = _core(db)
        client = LoopbackConnection(core, retry_policy=policy, client_key="resend")
        yield client, core
        client.close()
    else:
        with _serve(db) as svc:
            client = ServiceClient(
                "127.0.0.1", svc.port, retry_policy=policy, retry_step_ms=0.1
            )
            yield client, svc.core
            client.close()


def _lose_responses(client, count: int) -> list:
    """The next ``count`` exchanges run server-side, then their reply is lost.

    Returns the list the request ids of every exchange are appended to.
    """
    real = type(client)._exchange
    ids: list = []

    def exchange(message):
        response = real(client, message)
        ids.append(message["id"])
        if len(ids) <= count:
            raise ConnectionLostError("response lost in flight (test)")
        return response

    client._exchange = exchange
    return ids


class TestResendLoop:
    """The client half of the ack contract, on both transports."""

    def test_retry_resends_the_same_id_and_runs_once(self, resending):
        client, core = resending
        ids = _lose_responses(client, 1)
        response = client.execute("INSERT INTO t (k, v) VALUES (9, 'ack')")
        assert response["status"] == protocol.STATUS_OK
        assert len(ids) == 2 and ids[0] == ids[1]
        assert client.reconnects == 1
        assert core.stats.duplicate_hits == 1
        assert len(_rows(client.execute("SELECT HISTORY OF t WHERE k = 9"))) == 1

    def test_loss_inside_a_bracket_is_surfaced_not_retried(self, resending):
        client, core = resending
        client.execute("INSERT INTO t (k, v) VALUES (1, 'base')")
        client.execute("BEGIN TRAN")
        ids = _lose_responses(client, 1)
        # The server aborts the bracket with the connection; a resend would
        # run the statement autocommit on a fresh session.
        with pytest.raises(ConnectionLostError):
            client.execute("UPDATE t SET v = 'poison' WHERE k = 1")
        assert len(ids) == 1 and client.reconnects == 0
        assert _wait_until(
            lambda: core.db.stats()["service_aborted_on_disconnect"] == 1
        )
        assert _value(client, 1) == "base"

    def test_exhausted_attempts_raise_after_one_execution(self, resending):
        client, core = resending
        ids = _lose_responses(client, 3)
        with pytest.raises(ConnectionLostError, match="after 3 attempts"):
            client.execute("INSERT INTO t (k, v) VALUES (7, 'once')")
        assert len(ids) == 3 and len(set(ids)) == 1
        assert client.reconnects == 2
        assert core.stats.duplicate_hits == 2
        assert len(_rows(client.execute("SELECT HISTORY OF t WHERE k = 7"))) == 1


class TestServerEndToEnd:
    def test_quickstart_sql_temporal_and_ingest(self):
        db = _make_db()
        with _serve(db) as svc:
            with ServiceClient("127.0.0.1", svc.port) as client:
                assert client.ping()["message"] == "pong"
                client.execute("INSERT INTO t (k, v) VALUES (1, 'v1')")
                db.advance_time(100)
                mark = db.clock.now_datetime().isoformat(sep=" ")
                db.clock.advance_ticks(1)
                client.execute("UPDATE t SET v = 'v2' WHERE k = 1")
                now_rows = _rows(
                    client.execute("SELECT v FROM t WHERE k = 1")
                )
                assert now_rows == [{"v": "v2"}]
                asof = _rows(client.execute(
                    f"SELECT v FROM t AS OF '{mark}' WHERE k = 1"
                ))
                assert asof == [{"v": "v1"}]
                history = _rows(
                    client.execute("SELECT HISTORY OF t WHERE k = 1")
                )
                assert len(history) == 2
                ingest = client.ingest(
                    "t", "k,v\n10,ten\n11,eleven\n12,twelve\n", batch=2
                )
                assert ingest["rowcount"] == 3
                count = _rows(client.execute("SELECT k FROM t"))
                assert len(count) == 4
                stats = client.stats()["rows"][0]
                assert stats["service_accepts"] > 0
        # Drain forced group commit: every acked write is durable.
        assert db.txn_mgr.unacked_commits == 0

    def test_socket_disconnect_mid_bracket_releases_locks(self):
        db = _make_db()
        with _serve(db) as svc:
            rude = ServiceClient("127.0.0.1", svc.port)
            rude.execute("INSERT INTO t (k, v) VALUES (1, 'base')")
            rude.execute("BEGIN TRAN")
            rude.execute("UPDATE t SET v = 'stranded' WHERE k = 1")
            rude._disconnect()   # vanish without COMMIT or close
            assert _wait_until(
                lambda: db.stats()["service_aborted_on_disconnect"] == 1
            )
            with ServiceClient("127.0.0.1", svc.port) as polite:
                ok = polite.execute("UPDATE t SET v = 'alive' WHERE k = 1")
                assert ok["status"] == protocol.STATUS_OK
                assert _value(polite, 1) == "alive"

    def test_idle_session_is_reaped_and_bracket_aborted(self):
        db = _make_db()
        with _serve(db, idle_timeout_s=0.3) as svc:
            lazy = ServiceClient("127.0.0.1", svc.port)
            lazy.execute("INSERT INTO t (k, v) VALUES (1, 'base')")
            lazy.execute("BEGIN TRAN")
            lazy.execute("UPDATE t SET v = 'stale' WHERE k = 1")
            assert _wait_until(lambda: svc.core.stats.idle_closes == 1)
            assert db.stats()["service_aborted_on_disconnect"] == 1
            with ServiceClient("127.0.0.1", svc.port) as fresh:
                ok = fresh.execute("UPDATE t SET v = 'fresh' WHERE k = 1")
                assert ok["status"] == protocol.STATUS_OK
            lazy._disconnect()

    def test_request_timeout_returns_typed_response(self):
        db = _make_db()
        with _serve(db, request_timeout_s=0.3, pool_workers=0) as svc:
            holder = ServiceClient("127.0.0.1", svc.port)
            holder.execute("INSERT INTO t (k, v) VALUES (1, 'held')")
            holder.execute("BEGIN TRAN")
            holder.execute("UPDATE t SET v = 'locked' WHERE k = 1")
            with ServiceClient("127.0.0.1", svc.port) as blocked:
                response = blocked.execute(
                    "UPDATE t SET v = 'waiting' WHERE k = 1"
                )
                assert response["status"] == protocol.STATUS_TIMEOUT
                assert response["deadline_ms"] == pytest.approx(300.0)
            assert _wait_until(
                lambda: db.stats()["service_timeouts"] == 1
            )
            holder._disconnect()

    def test_drain_refuses_new_connections_with_typed_bye(self):
        db = _make_db()
        with _serve(db) as svc:
            with ServiceClient("127.0.0.1", svc.port) as early:
                early.execute("INSERT INTO t (k, v) VALUES (1, 'pre')")
                svc.begin_drain()
                assert _wait_until(lambda: svc.core.draining)
                shed = early.execute("INSERT INTO t (k, v) VALUES (2, 'x')")
                assert shed["status"] == protocol.STATUS_OVERLOADED
                late = ServiceClient("127.0.0.1", svc.port)
                with pytest.raises((SessionStateError, ConnectionLostError)):
                    late.execute("SELECT k FROM t")
                late._disconnect()
        assert db.txn_mgr.unacked_commits == 0

    def test_torn_frame_on_the_socket_kills_the_connection(self):
        db = _make_db()
        with _serve(db) as svc:
            client = ServiceClient("127.0.0.1", svc.port)
            client.execute("INSERT INTO t (k, v) VALUES (1, 'pre')")
            frame = bytearray(protocol.encode_message(
                {"id": "torn:1", "op": "ping"}
            ))
            frame[-1] ^= 0x01
            client._connect().sendall(bytes(frame))
            assert _wait_until(lambda: svc.core.stats.torn_frames == 1)
            client._disconnect()
            # The engine never saw the request; a clean retry succeeds.
            with ServiceClient("127.0.0.1", svc.port) as retry:
                assert retry.ping()["message"] == "pong"

    def test_shutdown_before_start_stops_the_pool(self):
        threads_before = threading.active_count()
        svc = SQLService(_make_db(), pool_workers=4)
        assert threading.active_count() == threads_before + 4   # its workers
        svc.shutdown()
        assert threading.active_count() == threads_before
        svc.shutdown()      # and again: nothing left to do


# ---------------------------------------------------------------------------
# the one-thread request path: admission, then a slot, then the body, all on
# the thread that read the request
# ---------------------------------------------------------------------------


def _hold_row(port: int, k: int = 1) -> ServiceClient:
    """A client sitting inside a bracket that holds row ``k``'s lock."""
    holder = ServiceClient("127.0.0.1", port)
    holder.execute(f"INSERT INTO t (k, v) VALUES ({k}, 'held')")
    holder.execute("BEGIN TRAN")
    holder.execute(f"UPDATE t SET v = 'locked' WHERE k = {k}")
    return holder


def _send_only(client: ServiceClient, sql: str, request_id: str) -> None:
    """Put one request on the wire without waiting for its reply."""
    client._connect().sendall(protocol.encode_message(
        {"id": request_id, "op": "sql", "sql": sql}
    ))


def _in_background(fn, *args) -> tuple[threading.Thread, list]:
    out: list = []
    thread = threading.Thread(
        target=lambda: out.append(fn(*args)), daemon=True
    )
    thread.start()
    return thread, out


class TestRequestPath:
    def test_read_is_shed_while_every_worker_is_parked(self):
        """Admission sits in front of the slots: with both of them held by
        parked writers and nobody left to run anything, a read above the
        high water is still refused at once — it costs no slot and no wait —
        and every exit gives its budget back."""
        db = _make_db()
        with _serve(db, pool_workers=2, max_inflight=4,
                    read_shed_fraction=0.5) as svc:
            admission = svc.core.admission
            holder = _hold_row(svc.port)
            writers = [ServiceClient("127.0.0.1", svc.port) for _ in range(2)]
            parked = [
                _in_background(w.execute, "UPDATE t SET v = 'w' WHERE k = 1")
                for w in writers
            ]
            assert _wait_until(lambda: admission.inflight == 2)
            with ServiceClient("127.0.0.1", svc.port) as reader:
                start = time.monotonic()
                shed = reader.execute("SELECT v FROM t WHERE k = 1")
                assert time.monotonic() - start < 1.0
                assert shed["status"] == protocol.STATUS_OVERLOADED
                assert shed["shed_kind"] == "read"
                assert admission.inflight == 2       # the reject held nothing
                holder._disconnect()    # aborts the bracket: the writers run
                for thread, out in parked:
                    thread.join(10.0)
                    assert out and out[0]["status"] == protocol.STATUS_OK
                assert _wait_until(lambda: admission.inflight == 0)
                # An erroring statement gives its slot back too.
                error = reader.execute("SELECT * FROM no_such_table")
                assert error["status"] == protocol.STATUS_ERROR
                assert admission.inflight == 0
            for writer in writers:
                writer.close()
            assert admission.stats.rejected_reads == 1
            assert admission.stats.peak_inflight == 2

    def test_slot_survives_timeout_and_disconnect_until_the_body_returns(self):
        db = _make_db()
        with _serve(db, pool_workers=2, request_timeout_s=0.3) as svc:
            admission = svc.core.admission
            holder = _hold_row(svc.port)
            timed_out = ServiceClient("127.0.0.1", svc.port)
            response = timed_out.execute("UPDATE t SET v = 'a' WHERE k = 1")
            assert response["status"] == protocol.STATUS_TIMEOUT
            vanished = ServiceClient("127.0.0.1", svc.port)
            _send_only(vanished, "UPDATE t SET v = 'b' WHERE k = 1", "gone:1")
            assert _wait_until(lambda: admission.inflight == 2)
            vanished._disconnect()
            # Both bodies still hold their slots: in-flight counts them.
            time.sleep(0.1)
            assert admission.inflight == 2
            holder._disconnect()
            assert _wait_until(lambda: admission.inflight == 0)
            timed_out._disconnect()

    def test_pipelined_frames_run_in_order_one_at_a_time(self):
        db = _make_db()
        with _serve(db, pool_workers=2) as svc:
            running = [0]
            overlaps = []
            inner = svc.core.handle_payload

            def watched(session, payload, admitted=None, message=None):
                running[0] += 1
                overlaps.append(running[0])
                try:
                    time.sleep(0.02)    # widen the window for an overlap
                    return inner(session, payload, admitted, message)
                finally:
                    running[0] -= 1

            svc.core.handle_payload = watched
            statements = [
                "INSERT INTO t (k, v) VALUES (5, 'a')",
                "UPDATE t SET v = 'b' WHERE k = 5",
                "SELECT v FROM t WHERE k = 5",
            ]
            client = ServiceClient("127.0.0.1", svc.port)
            client._connect().sendall(b"".join(
                protocol.encode_message(
                    {"id": f"pipe:{i}", "op": "sql", "sql": sql}
                )
                for i, sql in enumerate(statements)
            ))
            decoder = protocol.FrameDecoder()
            replies: list = []
            while len(replies) < len(statements):
                replies.extend(
                    protocol.decode_message(p)
                    for p in decoder.feed(client._sock.recv(65536))
                )
            client._disconnect()
        assert [r["id"] for r in replies] == ["pipe:0", "pipe:1", "pipe:2"]
        assert [r["status"] for r in replies] == [protocol.STATUS_OK] * 3
        assert replies[1]["rowcount"] == 1      # the INSERT ran first
        assert replies[2]["rows"] == [{"v": "b"}]
        assert overlaps == [1, 1, 1]

    def test_deadline_while_running_retires_the_session(self):
        db = _make_db()
        with _serve(db, pool_workers=2, request_timeout_s=0.3) as svc:
            holder = _hold_row(svc.port)
            late = ServiceClient("127.0.0.1", svc.port)
            late.execute("INSERT INTO t (k, v) VALUES (2, 'mine')")
            late.execute("BEGIN TRAN")
            late.execute("UPDATE t SET v = 'bracketed' WHERE k = 2")
            response = late.execute("UPDATE t SET v = 'late' WHERE k = 1")
            assert response["status"] == protocol.STATUS_TIMEOUT
            assert db.stats()["service_timeouts"] == 1
            session = next(
                s for s in svc.core.sessions.values() if s.defunct
            )
            assert not session.closed       # the body still runs
            svc.service.slots.get_nowait()      # the body holds one of two
            with pytest.raises(queue.Empty):
                svc.service.slots.get_nowait()
            svc.service.slots.put(None)
            holder._disconnect()
            # The body returns, sees the flag, and aborts the bracket.
            assert _wait_until(lambda: session.closed)
            assert db.stats()["service_aborted_on_disconnect"] == 2
            # Its late result went nowhere: the server hung up after the
            # timeout reply and sent nothing more.
            with pytest.raises(ConnectionLostError):
                late._read_response(late._sock)
            late._disconnect()
            with ServiceClient("127.0.0.1", svc.port) as fresh:
                assert _value(fresh, 1) == "held"
                assert _value(fresh, 2) == "mine"

    def test_deadline_while_queued_never_runs_the_body(self):
        db = _make_db()
        with _serve(db, pool_workers=1, request_timeout_s=0.3) as svc:
            executed: list[bytes] = []
            inner = svc.core.handle_payload

            def watched(session, payload, *rest):
                executed.append(payload)
                return inner(session, payload, *rest)

            svc.core.handle_payload = watched
            holder = _hold_row(svc.port)
            parked = ServiceClient("127.0.0.1", svc.port)
            thread, out = _in_background(
                parked.execute, "UPDATE t SET v = 'p' WHERE k = 1"
            )
            assert _wait_until(lambda: svc.core.admission.inflight == 1)
            queued = ServiceClient("127.0.0.1", svc.port)
            response = queued.execute("INSERT INTO t (k, v) VALUES (9, 'q')")
            assert response["status"] == protocol.STATUS_TIMEOUT
            thread.join(10.0)
            assert out[0]["status"] == protocol.STATUS_TIMEOUT
            holder._disconnect()
            assert _wait_until(lambda: svc.core.admission.inflight == 0)
            for client in (parked, queued):
                client._disconnect()
            # The INSERT waited for the one slot past its deadline: it was
            # admitted, never handed to the core, and its budget came back.
            assert not any(b"VALUES (9" in payload for payload in executed)
            with ServiceClient("127.0.0.1", svc.port) as fresh:
                assert _value(fresh, 9) is None
        assert db.stats()["service_timeouts"] == 2

    def test_disconnect_mid_execution_releases_the_sessions_locks(self):
        db = _make_db()
        with _serve(db, pool_workers=2) as svc:
            holder = _hold_row(svc.port)
            rude = ServiceClient("127.0.0.1", svc.port)
            rude.execute("INSERT INTO t (k, v) VALUES (2, 'base')")
            rude.execute("BEGIN TRAN")
            rude.execute("UPDATE t SET v = 'stranded' WHERE k = 2")
            _send_only(rude, "UPDATE t SET v = 'x' WHERE k = 1", "rude:1")
            assert _wait_until(
                lambda: any(s.lock.locked()
                            for s in svc.core.sessions.values())
            )
            rude._disconnect()      # vanish while its thread is blocked
            holder._disconnect()
            # The body returns to a dead connection: the session retires
            # and its bracket (holding row 2) is rolled back.
            assert _wait_until(
                lambda: db.stats()["service_aborted_on_disconnect"] == 2
            )
            with ServiceClient("127.0.0.1", svc.port) as polite:
                ok = polite.execute("UPDATE t SET v = 'alive' WHERE k = 2")
                assert ok["status"] == protocol.STATUS_OK
                assert _value(polite, 1) == "held"

    def test_one_worker_runs_brackets_and_ingest_without_deadlock(self):
        db = _make_db()

        def session(port: int) -> int:
            with ServiceClient("127.0.0.1", port) as client:
                client.execute("INSERT INTO t (k, v) VALUES (1, 'a')")
                client.execute("BEGIN TRAN")
                client.execute("UPDATE t SET v = 'b' WHERE k = 1")
                assert client.execute("COMMIT")["status"] == \
                    protocol.STATUS_OK
                # Ingest holds the only slot while the pool's only worker
                # runs its batches.
                ingest = client.ingest(
                    "t", "k,v\n10,x\n11,y\n12,z\n13,w\n14,u\n", batch=2
                )
                assert ingest["rowcount"] == 5
                return len(_rows(client.execute("SELECT k FROM t")))

        with _serve(db, pool_workers=1) as svc:
            thread, out = _in_background(session, svc.port)
            thread.join(20.0)
            assert not thread.is_alive(), "request path deadlocked"
            assert out == [6]
        assert db.txn_mgr.unacked_commits == 0

    def _parked(self, svc, db) -> tuple[ServiceClient, ServiceClient]:
        """A bracket holding row 1, and a writer parked on its lock."""
        holder = _hold_row(svc.port)
        writer = ServiceClient("127.0.0.1", svc.port)
        _send_only(writer, "UPDATE t SET v = 'w' WHERE k = 1", "parked:1")
        assert _wait_until(lambda: db.locks.stats.lock_waits == 1)
        return holder, writer

    def _read_within_a_second(self, port: int) -> None:
        with ServiceClient("127.0.0.1", port, timeout_s=5.0) as reader:
            start = time.monotonic()
            response = reader.execute("SELECT v FROM t WHERE k = 2")
            assert time.monotonic() - start < 1.0
            assert response["status"] == protocol.STATUS_OK

    def test_a_request_parked_on_a_lock_does_not_hold_the_loop(self):
        db = _make_db()
        with _serve(db) as svc:
            holder, writer = self._parked(svc, db)
            self._read_within_a_second(svc.port)
            holder._disconnect()
            assert _wait_until(lambda: svc.core.admission.inflight == 0)
            writer._disconnect()

    def test_a_request_parked_on_the_only_slot_does_not_hold_the_loop(self):
        db = _make_db()
        with _serve(db, pool_workers=1, request_timeout_s=5.0) as svc:
            holder, writer = self._parked(svc, db)     # holds the slot
            queued = ServiceClient("127.0.0.1", svc.port)
            _send_only(queued, "SELECT v FROM t WHERE k = 1", "queued:1")
            assert _wait_until(lambda: svc.core.admission.inflight == 2)
            # Only a loop that is not stuck behind the slot reads this EOF,
            # which ends the bracket, then the writer, then the slot wait.
            holder._disconnect()
            self._read_within_a_second(svc.port)
            for client in (writer, queued):
                reply = client._read_response(client._sock)
                assert reply["status"] == protocol.STATUS_OK
                client._disconnect()
            assert db.stats()["service_timeouts"] == 0

    @pytest.mark.parametrize(
        "case", ["admitted", "shed", "parked", "nested", "torn"]
    )
    def test_one_poll_batch_is_admitted_before_any_of_it_runs(self, case):
        """The leader reads every connection that polled readable and takes
        the admission decision for each before it runs the first; a request
        that parks leaves the rest of the batch to the next leader, and a
        hostile frame in the batch costs only its own connection."""
        db = _make_db()
        with _serve(db, max_inflight=1 if case == "shed" else 4) as svc:
            admission = svc.core.admission
            holder = _hold_row(svc.port) if case == "parked" else None
            first, second, stall = (ServiceClient("127.0.0.1", svc.port)
                                    for _ in range(3))
            first.ping()
            second.ping()
            sql = "UPDATE t SET v = 'w' WHERE k = 1" if case == "parked" \
                else "SELECT v FROM t WHERE k = 1"
            frames = [
                protocol.encode_message({"id": "first:1", "op": "sql", "sql": sql}),
                protocol.encode_message({"id": "second:1", "op": "sql",
                                         "sql": "SELECT v FROM t WHERE k = 2"}),
            ]
            if case == "nested":
                frames[1] = protocol.encode_frame(b"[" * 60_000)
            elif case == "torn":
                torn = bytearray(frames[1])
                torn[-1] ^= 0x01
                frames[1] = bytes(torn)
            inner = svc.core.handle_payload
            seen: list[int] = []

            def stalled(session, payload, admitted=None, message=None):
                if not seen:    # both arrive while the leader is busy here
                    first._connect().sendall(frames[0])
                    second._connect().sendall(frames[1])
                    time.sleep(0.05)
                seen.append(admission.inflight)
                return inner(session, payload, admitted, message)

            svc.core.handle_payload = stalled
            assert stall.ping()["message"] == "pong"
            if case == "parked":
                assert _wait_until(lambda: db.locks.stats.lock_waits == 1)
            start = time.monotonic()
            if case == "torn":
                assert _wait_until(lambda: svc.core.stats.torn_frames == 1)
            else:
                reply = second._read_response(second._sock)
                assert time.monotonic() - start < 1.0
            if case == "admitted":
                assert seen[:2] == [0, 2] and admission.stats.peak_inflight == 2
                assert reply["status"] == protocol.STATUS_OK
            elif case == "shed":
                assert admission.stats.rejected_reads == 1
                assert reply["status"] == protocol.STATUS_OVERLOADED
            elif case == "parked":
                assert reply["status"] == protocol.STATUS_OK
                holder._disconnect()
            elif case == "nested":
                assert reply["status"] == protocol.STATUS_ERROR
                assert reply["error"] == "ProtocolError"
                assert second.ping()["message"] == "pong"
            ok = first._read_response(first._sock)
            assert ok["id"] == "first:1" and ok["status"] == protocol.STATUS_OK
            assert _wait_until(lambda: admission.inflight == 0)
            for client in (first, second, stall):
                client._disconnect()


class TestOneThreadPerConnection:
    """What the threading design owes beyond the request path."""

    def test_a_request_never_changes_threads(self, monkeypatch):
        """The structural guard against a hop coming back: the thread that
        read a request's bytes runs it and writes its reply."""
        from repro.service import server

        seen: list[tuple[str, int]] = []

        def spy(owner, attr, label):
            inner = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                if threading.current_thread().name == "svc-conn":
                    seen.append((label, threading.get_ident()))
                return inner(*args, **kwargs)

            monkeypatch.setattr(owner, attr, wrapper)

        spy(protocol.FrameDecoder, "feed", "recv")
        spy(server._Connection, "_send", "send")
        db = _make_db()
        with _serve(db) as svc:
            spy(svc.core, "handle_payload", "execute")
            clients = [ServiceClient("127.0.0.1", svc.port) for _ in range(2)]
            for i, client in enumerate(clients):
                client.execute(f"INSERT INTO t (k, v) VALUES ({i}, 'x')")
                assert _value(client, i) == "x"
            for client in clients:
                client._disconnect()
        assert [label for label, _ in seen].count("execute") == 4
        by_thread: dict[int, list[str]] = {}
        for label, ident in seen:
            by_thread.setdefault(ident, []).append(label)
        # Nothing blocked (an in-memory log has no device to wait for), so
        # the loop never changed hands: both connections' requests ran on
        # one thread, each whole and in order.
        assert len(by_thread) == 1
        assert threading.get_ident() not in by_thread
        for labels in by_thread.values():
            assert labels == ["recv", "execute", "send"] * 4

    def test_idle_connections_cost_nothing_and_are_all_reaped(self):
        db = _make_db()
        threads_before = threading.active_count()
        svc = _serve(db, idle_timeout_s=1.5)
        socks = [
            socket.create_connection(("127.0.0.1", svc.port), timeout=10.0)
            for _ in range(200)
        ]
        try:
            assert _wait_until(lambda: len(svc.service.connections) == 200)
            cpu = time.process_time()
            time.sleep(0.4)
            # 200 threads parked in recv and one watchdog tick per 50 ms.
            assert time.process_time() - cpu < 0.1
            assert _wait_until(lambda: svc.core.stats.idle_closes == 200)
            for sock in socks:
                reply = protocol.FrameDecoder().feed(sock.recv(4096))
                assert protocol.decode_message(reply[0])["status"] == \
                    protocol.STATUS_BYE
                assert sock.recv(4096) == b""
            assert _wait_until(lambda: not svc.service.connections)
        finally:
            for sock in socks:
                sock.close()
            svc.shutdown()
        assert threading.active_count() == threads_before

    def test_idle_connections_hold_no_thread(self):
        db = _make_db()
        svc = _serve(db, idle_timeout_s=1.5)
        threads_before = threading.active_count()
        socks = [
            socket.create_connection(("127.0.0.1", svc.port), timeout=10.0)
            for _ in range(200)
        ]
        try:
            assert _wait_until(lambda: len(svc.service.connections) == 200)
            assert threading.active_count() <= threads_before + 8
            assert _wait_until(lambda: svc.core.stats.idle_closes == 200)
            for sock in socks:
                reply = protocol.FrameDecoder().feed(sock.recv(4096))
                assert protocol.decode_message(reply[0])["status"] == \
                    protocol.STATUS_BYE
        finally:
            for sock in socks:
                sock.close()
            svc.shutdown()

    def test_drain_with_a_stuck_body_is_bounded_and_leaves_no_thread(self):
        db = _make_db()
        threads_before = threading.active_count()
        svc = _serve(db, drain_timeout_s=0.3)
        holder = _hold_row(svc.port)
        stuck = ServiceClient("127.0.0.1", svc.port)
        _send_only(stuck, "UPDATE t SET v = 's' WHERE k = 1", "stuck:1")
        assert _wait_until(lambda: svc.core.admission.inflight == 1)
        start = time.monotonic()
        svc.shutdown()
        elapsed = time.monotonic() - start
        # It waited its drain timeout for the body, then hung up on every
        # connection — which ended the holder's bracket and, with it, the
        # body's wait.
        assert 0.3 <= elapsed < 5.0
        assert threading.active_count() == threads_before
        assert svc.core.admission.inflight == 0
        assert db.txn_mgr.unacked_commits == 0
        for client in (holder, stuck):
            client._disconnect()

    def test_byte_at_a_time_and_half_closed_clients_are_answered(self):
        db = _make_db()
        with _serve(db) as svc:
            loris = socket.create_connection(("127.0.0.1", svc.port), 10.0)
            loris.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            frame = protocol.encode_message({"id": "loris:1", "op": "ping"})
            for i in range(len(frame)):
                loris.sendall(frame[i:i + 1])
            reply = protocol.FrameDecoder().feed(loris.recv(4096))
            assert protocol.decode_message(reply[0])["message"] == "pong"
            loris.close()

            leaver = socket.create_connection(("127.0.0.1", svc.port), 10.0)
            leaver.sendall(b"".join(
                protocol.encode_message({"id": f"hc:{i}", "op": "sql", "sql": sql})
                for i, sql in enumerate((
                    "INSERT INTO t (k, v) VALUES (3, 'last')",
                    "SELECT v FROM t WHERE k = 3",
                ))
            ))
            leaver.shutdown(socket.SHUT_WR)     # done sending, still reading
            decoder = protocol.FrameDecoder()
            replies: list = []
            while True:
                data = leaver.recv(4096)
                if not data:
                    break
                replies.extend(
                    protocol.decode_message(p) for p in decoder.feed(data)
                )
            leaver.close()
            assert [r["id"] for r in replies] == ["hc:0", "hc:1"]
            assert replies[1]["rows"] == [{"v": "last"}]

    def test_an_escaping_exception_is_answered_and_not_swallowed(
        self, monkeypatch
    ):
        escaped: list = []
        monkeypatch.setattr(
            threading, "excepthook", lambda args: escaped.append(args.exc_value)
        )
        db = _make_db()
        with _serve(db) as svc:
            def broken(*args):
                raise RuntimeError("bug in the request path")

            monkeypatch.setattr(svc.core, "handle_payload", broken)
            client = ServiceClient("127.0.0.1", svc.port)
            response = client.request({"id": "bug:1", "op": "ping"})
            assert response["status"] == protocol.STATUS_ERROR
            assert response["error"] == "RuntimeError"
            assert response["id"] == "bug:1"
            # ... and the connection is gone, its thread dead, loudly.
            with pytest.raises(ConnectionLostError):
                client._read_response(client._sock)
            client._disconnect()
            assert _wait_until(lambda: len(escaped) == 1)
            assert isinstance(escaped[0], RuntimeError)
            assert _wait_until(lambda: not svc.service.connections)
            assert svc.service.slots.qsize() == 2   # both slots came back
            monkeypatch.undo()
            with ServiceClient("127.0.0.1", svc.port) as fresh:
                assert fresh.ping()["message"] == "pong"

    def test_deadline_races_leave_one_reply_and_no_leak(self):
        """Bodies finishing right at their deadline, more threads than
        cores, a short switch interval: every request gets exactly one
        reply — the body's or the watchdog's — and nothing leaks."""
        db = _make_db()
        timeout_s = 0.02
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _serve(db, pool_workers=3, request_timeout_s=timeout_s) as svc:
                inner = svc.core.handle_payload
                rng = random.Random(11)

                def racing(*args):
                    time.sleep(rng.uniform(0.5, 1.3) * timeout_s)
                    return inner(*args)

                svc.core.handle_payload = racing
                outcomes: list[str] = []

                def client(idx: int) -> None:
                    conn = ServiceClient("127.0.0.1", svc.port)
                    for i in range(25):
                        reply = conn.execute("SELECT v FROM t WHERE k = 1")
                        outcomes.append(reply["status"])
                        if reply["status"] == protocol.STATUS_TIMEOUT:
                            # The late result is dropped: nothing follows.
                            with pytest.raises(ConnectionLostError):
                                conn._read_response(conn._sock)
                            conn._disconnect()
                    conn._disconnect()

                threads = [
                    threading.Thread(target=client, args=(i,)) for i in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60.0)
                    assert not thread.is_alive()
                assert len(outcomes) == 200
                assert set(outcomes) == {protocol.STATUS_OK,
                                         protocol.STATUS_TIMEOUT}
                # Every counted timeout is a ``timeout`` some client read:
                # the body finishing late must not close the socket under
                # the watchdog's reply (the client would resend the id on a
                # fresh connection and count an ``ok`` instead).
                assert svc.core.stats.timeouts == \
                    outcomes.count(protocol.STATUS_TIMEOUT)
                assert svc.core.stats.accepts == 200    # nothing was resent
                assert _wait_until(lambda: not svc.service.connections)
                assert svc.core.admission.inflight == 0
                assert svc.service.slots.qsize() == 3
        finally:
            sys.setswitchinterval(interval)
