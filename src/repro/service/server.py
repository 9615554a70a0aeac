"""The socket server over :class:`~repro.service.core.ServiceCore`.

A request stays on one thread.  A blocking listener hands every accepted
socket to a thread of its own, and that thread carries each request from
the wire to the log force and back: ``recv`` → frame → decode → admission
(never blocks: a shed request is answered at once and costs no slot) → an
execution slot → ``ServiceCore.handle_payload`` → ``sendall``.  Nothing is
handed to another thread and no timer is armed per request.  A connection
runs its frames in order, one at a time; what a client pipelines stays in
the socket buffers — the thread does not read while it executes, and
``sendall`` blocks on a slow reader — so TCP is the backpressure.
``pool_workers`` is the number of requests that may *execute* at once: a
slot taken after the admission decision, waited on for no longer than the
request's deadline.

Robustness behaviours, all typed and test-covered:

* **per-request timeout** — one service-wide watchdog thread owns the
  deadline of every admitted request.  When it passes first, the watchdog
  answers ``timeout``, marks the session defunct and shuts the socket; the
  still-running body aborts its bracket the moment it completes, its late
  result is dropped, and its slot and admission budget come back only
  then.  A request whose deadline passes while it waits for a slot never
  runs.  A deadline is taken under the service lock, so exactly one of the
  connection thread and the watchdog writes the reply, and the socket is not
  closed under it: a counted timeout is a ``timeout`` the client reads.
* **idle-session timeout** — the socket's own kernel timeout
  (:func:`~repro.service.protocol.set_io_timeout`): a connection silent
  (or not reading) past ``idle_timeout_s`` gets a ``bye`` and its session
  is reaped, aborting any open bracket.
* **disconnect** — EOF or reset mid-transaction aborts the transaction
  and releases its locks (``service_aborted_on_disconnect`` counts these).
  A client may half-close after its last request: everything it sent is
  answered before the EOF behind it is read.
* **torn frame** — a CRC-failed frame kills the connection (framing sync
  is unrecoverable); the engine never sees the request.
* **graceful drain** — :meth:`SQLService.shutdown` refuses new work and
  new connections with typed replies, stops accepting, waits for busy
  connections up to ``drain_timeout_s``, hangs up, aborts leftover
  brackets, forces group commit, and closes the pool.
* **a bug is loud** — an exception escaping the request path closes that
  connection with a typed ``error`` reply and then surfaces through
  ``threading.excepthook``.
"""

from __future__ import annotations

import queue
import socket
import threading
import time

from repro.errors import (
    ProtocolError,
    ServiceOverloadedError,
    SessionStateError,
    TornFrameError,
)
from repro.faults.failpoints import fire
from repro.service import protocol
from repro.service.admission import AdmissionController
from repro.service.core import ServiceCore
from repro.workers.pool import WorkerPool


class _Connection:
    """One client socket and the thread that serves it.

    States: *idle* (in ``recv``), *waiting for a slot*, *executing* — in
    the last two ``deadline`` is set — and *defunct* once ``expired``.
    """

    def __init__(self, service: "SQLService", sock: socket.socket) -> None:
        self.service = service
        self.sock = sock
        self.session = None
        self.request_id = None
        self.deadline: float | None = None  # while a request is past admission
        self.expired = False                # the deadline was taken: hang up
        #: held from taking a deadline until its ``timeout`` reply is out,
        #: so the body finishing meanwhile cannot close the socket first
        self.replying = threading.Lock()
        self.thread = threading.Thread(
            target=self._run, name="svc-conn", daemon=True
        )

    # -- the connection thread -------------------------------------------------

    def _run(self) -> None:
        reason = "disconnect"
        try:
            reason = self._serve()
        except Exception as exc:
            # A bug, not a client's doing: the client still gets an answer,
            # and the thread dies loudly instead of swallowing it.
            if self._end_request():
                self._send(protocol.error_response(
                    self.request_id, exc, retryable=False
                ))
            raise
        finally:
            self._retire(reason)

    def _serve(self) -> str:
        """Read and answer requests until the connection ends; says why."""
        try:
            self.session = self.service.core.open_session()
        except SessionStateError as exc:    # draining
            self._send(protocol.bye_response(str(exc)))
            return "drain"
        decoder = protocol.FrameDecoder()
        while True:
            try:
                data = self.sock.recv(65536)
            except BlockingIOError:         # the socket's idle timeout
                self._send(protocol.bye_response("idle timeout"))
                return "idle"
            except OSError:
                return "disconnect"
            if not data:
                return "disconnect"
            fire("service.read_frame")
            try:
                payloads = decoder.feed(data)
            except TornFrameError:
                self.service.core.stats.torn_frames += 1
                return "torn frame"
            for payload in payloads:
                reason = self._request(payload)
                if reason is not None:
                    return reason

    def _request(self, payload: bytes) -> str | None:
        """One request, wire to wire; a reason when it ends the connection."""
        service = self.service
        core = service.core
        try:
            message = protocol.decode_message(payload)
        except ProtocolError as exc:
            return self._send(protocol.error_response(None, exc, retryable=False))
        self.request_id = message.get("id")
        try:
            admitted = core.admit(self.session, message)
        except ServiceOverloadedError as exc:
            return self._send(core.shed_response(self.request_id, exc))
        timeout_s = service.request_timeout_s
        self.deadline = time.monotonic() + timeout_s
        response = None
        try:
            service.slots.get(timeout=timeout_s)    # a slot's token
        except queue.Empty:
            pass
        else:
            try:
                if not self.expired:
                    response = core.handle_payload(
                        self.session, payload, admitted, message
                    )
            finally:
                service.slots.put(None)
        if response is None:
            # Never ran: the budget handle_payload would have returned.
            if admitted:
                core.admission.release()
            self.expire()
        if not self._end_request():
            return "request timeout"
        return self._send(response) or (
            "close" if response["status"] == protocol.STATUS_BYE else None
        )

    def _end_request(self) -> bool:
        """Leave the watchdog's sight; False if it already took the reply."""
        with self.service.lock:
            self.deadline = None
            return not self.expired

    def _send(self, response: dict) -> str | None:
        """Frame and write one reply; a reason if that ends the connection
        (the peer is gone, or has not read for ``idle_timeout_s``)."""
        fire("service.write_frame")
        try:
            self.sock.sendall(protocol.encode_message(response))
        except OSError:
            return "disconnect"
        return None

    def _retire(self, reason: str) -> None:
        service = self.service
        with service.lock:
            self.deadline = None
            service.connections.discard(self)
        if self.session is not None:
            service.core.close_session(self.session, reason)
        with self.replying:
            self.sock.close()

    # -- called from other threads ---------------------------------------------

    def expire(self, now: float | None = None) -> None:
        """Take the request's deadline and answer ``timeout``.

        Called by the watchdog with the time it read, or by the connection
        thread itself when no slot came free in time; at most one wins.
        """
        service = self.service
        with service.lock:
            if self.deadline is None or (now is not None and self.deadline > now):
                return
            self.deadline = None
            self.expired = True
            service.core.on_request_timeout(self.session, "request timeout")
            self.replying.acquire()     # with the deadline: see ``_retire``
        try:
            self._send(protocol.timeout_response(
                self.request_id, deadline_ms=service.request_timeout_s * 1000.0
            ))
            self.hang_up()
        finally:
            self.replying.release()

    def hang_up(self, how: int = socket.SHUT_RDWR) -> None:
        """Wake the connection thread out of ``recv``; it closes the socket."""
        try:
            self.sock.shutdown(how)
        except OSError:
            pass


class SQLService:
    """A thread-per-connection SQL server bound to one engine."""

    def __init__(
        self,
        db,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        pool_workers: int = 4,
        queue_depth: int = 128,
        max_inflight: int = 64,
        read_shed_fraction: float = 0.75,
        request_timeout_s: float = 30.0,
        idle_timeout_s: float = 300.0,
        drain_timeout_s: float = 10.0,
        seed: int = 0,
    ) -> None:
        self.db = db
        self.host = host
        self.port = port
        # Bulk ingest fans its batches out to a WorkerPool where the backend
        # can sit behind one.  A ShardRouter cannot (the pool keys its
        # bookkeeping by TID and branch TIDs collide across shards; its
        # facade omits the durable-commit hook seam on purpose) and ingests
        # inline.  Statements take the same path either way.
        self.pool = (
            WorkerPool(db, pool_workers, seed=seed, queue_depth=queue_depth)
            if pool_workers > 0 and hasattr(db.txn_mgr, "durable_commit_hook")
            else None
        )
        db.enable_concurrency()
        #: Requests that may execute at once (0: the admission budget
        #: alone), as that many tokens: a slot wait blocks in C, not in the
        #: Python ``Condition`` of a ``threading`` semaphore.
        self.slots = queue.SimpleQueue()
        for _ in range(pool_workers or max_inflight):
            self.slots.put(None)
        self.core = ServiceCore(
            db,
            self.pool,
            admission=AdmissionController(
                max_inflight=max_inflight,
                read_shed_fraction=read_shed_fraction,
            ),
            retry_seed=seed,
            retry_step_ms=0.2,
        )
        self.request_timeout_s = request_timeout_s
        self.idle_timeout_s = idle_timeout_s
        self.drain_timeout_s = drain_timeout_s
        #: Guards ``connections`` and every connection's deadline.
        self.lock = threading.Lock()
        self.connections: set[_Connection] = set()
        self._listener: socket.socket | None = None
        self._stopped = threading.Event()
        self._threads: list[threading.Thread] = []

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        self._listener = socket.create_server((self.host, self.port), backlog=512)
        self.port = self._listener.getsockname()[1]
        for target in (self._accept_loop, self._watchdog):
            thread = threading.Thread(target=target, name="svc", daemon=True)
            thread.start()
            self._threads.append(thread)

    def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` (or an interrupt) ends it."""
        if self._listener is None:
            self.start()
        self._stopped.wait()

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return      # shutdown closed the listener
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            protocol.set_io_timeout(sock, self.idle_timeout_s)
            conn = _Connection(self, sock)
            with self.lock:
                self.connections.add(conn)
            conn.thread.start()

    def _watchdog(self) -> None:
        """The one owner of request deadlines: no timer per request."""
        tick = min(0.05, self.request_timeout_s / 4.0)
        while not self._stopped.wait(tick):
            now = time.monotonic()
            with self.lock:
                late = [
                    c for c in self.connections
                    if c.deadline is not None and c.deadline <= now
                ]
            for conn in late:
                conn.expire(now)

    def shutdown(self) -> None:
        """Graceful drain: refuse new work, finish in-flight, force, close."""
        if self._stopped.is_set():
            return
        self.core.begin_drain()
        accept, watchdog = self._threads
        # Late connectors are refused (a typed ``bye`` while the listener
        # is still up); shutting the listener down wakes ``accept``.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        accept.join()
        deadline = time.monotonic() + self.drain_timeout_s
        while time.monotonic() < deadline:
            with self.lock:
                if not any(c.deadline is not None for c in self.connections):
                    break
            time.sleep(0.005)
        with self.lock:
            leftover = list(self.connections)
        for conn in leftover:
            # Reading ends; a reply already on its way out still goes out.
            conn.hang_up(socket.SHUT_RD)
        # Abort whatever brackets the deadline stranded — which is what a
        # body stuck behind one of them was waiting for — force group
        # commit so every acked write is durable, and stop the workers.
        self.core.finish_drain()
        deadline = time.monotonic() + self.drain_timeout_s
        for conn in leftover:
            conn.thread.join(max(0.0, deadline - time.monotonic()))
        if self.pool is not None:
            self.pool.close()
        self._stopped.set()
        watchdog.join()


class ThreadedService(SQLService):
    """A started :class:`SQLService` as a context manager (tests, benches):
    ``with ThreadedService(db) as svc: connect to svc.port``; leaving the
    block performs the graceful drain and joins every thread it started."""

    def __init__(self, db, **kwargs) -> None:
        super().__init__(db, **kwargs)
        self.service = self     # the name callers reach ``.pool`` through
        self.start()

    def begin_drain(self) -> None:
        """Flip the service into drain mode without waiting for it."""
        self.core.begin_drain()

    def __enter__(self) -> "ThreadedService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
