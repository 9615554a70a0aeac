"""The socket server over :class:`~repro.service.core.ServiceCore`.

Leader/followers (Schmidt, O'Ryan, Pyarali, Kircher and Buschmann, PLoP
2000).  One thread at a time, the *leader*, waits in ``epoll`` on the
listener and every connection.  It reads each connection that polled
readable and takes the admission decision for its first whole request (a
shed request is answered in turn and costs no slot); then it carries each
of those requests through to the reply: an execution slot →
``ServiceCore.handle_payload`` → ``send``.  Then it polls again.

It hands the loop to a parked follower (spawned when none is parked) only
before a wait that may need the loop to end: an execution slot, a record
lock or the engine latch (``wait_hooks``), a conflict back-off, a bulk
ingest, a reply the socket will not take.  The request stays on the thread
that started it, its connection out of the poll set until it is answered;
the new leader runs the rest of the poll batch before it polls.  A log
force or a long scan ends by itself, so the leader keeps the loop across
it, and what arrives meanwhile waits for the next poll.  A connection's
frames run in order, one at a time; what a client pipelines waits in the
socket buffers.  ``pool_workers`` requests may *execute* at once: a slot
taken after admission, waited on for no longer than the request's
deadline.

Robustness behaviours, all typed and test-covered:

* **per-request timeout** — the watchdog thread owns every deadline; if
  one passes first it answers ``timeout``, marks the session defunct and
  shuts the socket.  The body aborts its bracket when it completes, and
  only then do its slot and budget come back; a request whose deadline
  passes before a slot comes free never runs.  One reply per request.
* **idle-session timeout** — once a poll tick, after reading what polled
  readable, the leader says ``bye`` to each other connection silent past
  ``idle_timeout_s`` and reaps its session; a client that does not read
  its replies as long hits the send timeout.
* **disconnect** — EOF or reset aborts an open bracket, releasing its
  locks; what a half-closed client sent is answered first.
* **torn frame** — a CRC-failed frame kills the connection.
* **graceful drain** — :meth:`SQLService.shutdown` refuses new work and
  connections with typed replies, waits up to ``drain_timeout_s``, hangs
  up, aborts leftover brackets, forces group commit and stops the loop.
* **a bug is loud** — an exception escaping the request path is answered
  with ``error``, ends the connection, hands the loop on and surfaces
  through ``threading.excepthook``.
"""

from __future__ import annotations

import queue
import select
import socket
import threading
import time
from collections import deque

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
    """One client socket and its session.

    States: *idle* (in the poll set), *waiting for a slot*, *executing* —
    in the last two ``deadline`` is set — and *defunct* once ``expired``.
    """

    def __init__(self, service: "SQLService", sock: socket.socket) -> None:
        self.service = service
        self.sock = sock
        self.fd = sock.fileno()
        self.decoder = protocol.FrameDecoder()
        self.session = None
        self.request_id = None
        self.deadline: float | None = None  # while a request is past admission
        self.expired = False                # the deadline was taken: hang up
        #: held from taking a deadline until its ``timeout`` reply is out,
        #: so the body finishing meanwhile cannot close the socket first
        self.replying = threading.Lock()
        self.polled = False     # in the poll set, not served by a thread
        self.idle_since = time.monotonic()
        self.pending: list[bytes] = []     # the whole requests last read
        #: the first pending request's message and admission, when taken
        self.admitted: tuple = (None, None)

    # -- the loop's side -------------------------------------------------------

    def read(self) -> None:
        """Take what the socket holds (it polled readable).  The first whole
        request is decoded and admitted now, with the rest of its poll
        batch; the connection then waits in the ready list to run."""
        try:
            data = self.sock.recv(65536)
        except OSError:
            data = b""
        if not data:
            return self._retire("disconnect")
        fire("service.read_frame")
        try:
            self.pending = self.decoder.feed(data)
        except TornFrameError:
            self.service.core.stats.torn_frames += 1
            return self._retire("torn frame")
        if not self.pending:
            return
        try:
            message = protocol.decode_message(self.pending[0])
            self.admitted = (message, self.service.core.admit(
                self.session, message))
        except ProtocolError:
            pass                    # answered when it runs
        except ServiceOverloadedError as exc:
            self.admitted = (message, exc)
        self.service.ready.append(self)

    def run(self) -> None:
        """Answer the requests read, in order, on this thread."""
        early, self.admitted = self.admitted, (None, None)
        for payload in self.pending:
            reason = self._request(payload, *early)
            if reason is not None:
                return self._retire(reason)
            early = (None, None)
        self.idle_since = time.monotonic()
        if not self.polled:     # this thread gave the loop up meanwhile
            self.polled = True
            self.service._poller.register(self.fd, select.EPOLLIN)

    def _request(self, payload: bytes, message, admitted) -> str | None:
        """One request, wire to wire; a reason when it ends the connection.
        ``message`` and ``admitted`` are given when the read took them."""
        service = self.service
        core = service.core
        try:
            if message is None:
                message = protocol.decode_message(payload)
        except ProtocolError as exc:
            return self._send(protocol.error_response(None, exc, retryable=False))
        self.request_id = message.get("id")
        try:
            if admitted is None:
                admitted = core.admit(self.session, message)
            elif type(admitted) is not str:
                raise admitted
        except ServiceOverloadedError as exc:
            return self._send(core.shed_response(self.request_id, exc))
        timeout_s = service.request_timeout_s
        self.deadline = time.monotonic() + timeout_s
        response = None
        try:
            try:
                service.slots.get_nowait()      # a slot's token
            except queue.Empty:                 # all busy: wait off the loop
                service.on_wait()
                service.slots.get(timeout=timeout_s)
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
        data = protocol.encode_message(response)
        try:
            try:
                sent = self.sock.send(data, socket.MSG_DONTWAIT)
            except BlockingIOError:
                sent = 0
            if sent < len(data):    # the client is not reading: wait off the loop
                self.service.on_wait()
                self.sock.sendall(data[sent:])
        except OSError:
            return "disconnect"
        return None

    def _retire(self, reason: str) -> None:
        service = self.service
        with service.lock:
            self.deadline = None
            service.connections.pop(self.fd, None)
        if self.polled:
            self.polled = False
            service._poller.unregister(self.fd)
        if self.session is not None:
            service.core.close_session(self.session, reason)
        with self.replying:
            self.sock.close()

    # -- called from other threads ---------------------------------------------

    def expire(self, now: float | None = None) -> None:
        """Take the request's deadline and answer ``timeout``.

        Called by the watchdog with the time it read, or by the serving
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
        """End the connection's reading: whoever reads it next finds EOF."""
        try:
            self.sock.shutdown(how)
        except OSError:
            pass


class SQLService:
    """A leader/followers SQL server bound to one engine."""

    # Of ``wait_hooks`` only ``on_wait`` acts; built-ins for the rest, as
    # the lock manager calls ``on_resume`` after every acquire.
    on_wake = on_resume = bool

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
        self.connections: dict[int, _Connection] = {}   # by file descriptor
        self._listener: socket.socket | None = None
        self._poller = None
        self._leader: int | None = None     # the thread that polls
        self._serving: _Connection | None = None    # what the leader runs
        #: connections read and admitted, to run in order; only the leader
        #: touches it, and it runs them all before it polls again
        self.ready: deque[_Connection] = deque()
        self._parked = queue.SimpleQueue()  # each parked follower's wake-up
        self._tick = min(1.0, idle_timeout_s / 8.0)     # between idle scans
        self._reap_at = 0.0
        self._stopped = threading.Event()
        self._threads: list[threading.Thread] = []      # the loop's
        self._watchdog_thread: threading.Thread | None = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        self._listener = socket.create_server((self.host, self.port), backlog=512)
        self._listener.setblocking(False)
        self.port = self._listener.getsockname()[1]
        self._poller = select.epoll()
        self._poller.register(self._listener.fileno(), select.EPOLLIN)
        self._hook(True)
        self._spawn()
        self._watchdog_thread = threading.Thread(
            target=self._watchdog, name="svc", daemon=True
        )
        self._watchdog_thread.start()

    def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` (or an interrupt) ends it."""
        if self._listener is None:
            self.start()
        self._stopped.wait()

    def _hook(self, on: bool) -> None:
        """(Un)install ``on_wait`` on the core and every engine."""
        engines = [shard.db for shard in self.db.shards] \
            if hasattr(self.db, "shards") else [self.db]
        for seam in [self.core] + [s for db in engines for s in (db.locks, db._latch)]:
            if on or seam.wait_hooks is self:
                seam.wait_hooks = self if on else None

    # -- the loop --------------------------------------------------------------

    def _spawn(self) -> None:
        thread = threading.Thread(target=self._follow, name="svc-conn", daemon=True)
        self._threads.append(thread)
        thread.start()

    def _follow(self) -> None:
        """A loop thread's life: lead, finish what it serves, park, repeat."""
        wake = threading.Lock()
        wake.acquire()
        while not self._stopped.is_set():
            self._lead()
            self._parked.put(wake)
            wake.acquire()          # until a leader hands the loop over

    def _lead(self) -> None:
        me = threading.get_ident()
        self._leader = me
        ready, connections = self.ready, self.connections
        conn = None
        try:
            while self._leader == me:
                if ready:
                    conn = self._serving = ready.popleft()
                    conn.run()
                    continue
                self._serving = None
                events = self._poller.poll(self._tick)
                for fd, _ in events:
                    conn = connections.get(fd)
                    if conn is not None:
                        conn.read()
                    elif self._stopped.is_set():    # the listener hung up
                        self._leader = None
                        return
                    else:
                        self._accept()
                conn = None
                if time.monotonic() >= self._reap_at:
                    self._reap_idle(events)
        except Exception as exc:
            # A bug, not a client's doing: the client still gets an answer,
            # and the thread dies loudly instead of swallowing it.
            if conn is not None:
                if conn._end_request():
                    conn._send(protocol.error_response(
                        conn.request_id, exc, retryable=False))
                conn._retire("disconnect")
            self.on_wait()
            raise

    def on_wait(self) -> None:
        """Before a thread blocks: if it leads, hand the loop over."""
        if self._leader != threading.get_ident():
            return
        self._leader = None
        conn = self._serving
        if conn is not None and conn.polled:
            conn.polled = False
            self._poller.unregister(conn.fd)
        try:
            self._parked.get_nowait().release()
        except queue.Empty:
            self._spawn()

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:
            return      # the peer gave up already
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        protocol.set_io_timeout(sock, self.idle_timeout_s)
        conn = _Connection(self, sock)
        try:
            conn.session = self.core.open_session()
        except SessionStateError as exc:    # draining
            conn._send(protocol.bye_response(str(exc)))
            return sock.close()
        with self.lock:
            self.connections[conn.fd] = conn
        conn.polled = True
        self._poller.register(conn.fd, select.EPOLLIN)

    def _reap_idle(self, events: list) -> None:
        """Say ``bye`` to connections silent past ``idle_timeout_s``; not to
        one that polled readable, whose request is read, or being read."""
        now = time.monotonic()
        self._reap_at = now + self._tick
        readable = {fd for fd, _ in events}
        with self.lock:
            idle = [
                c for c in self.connections.values()
                if c.polled and c.fd not in readable
                and now - c.idle_since >= self.idle_timeout_s
            ]
        for conn in idle:   # out of the poll set before anything can block
            conn.polled = False
            self._poller.unregister(conn.fd)
        for conn in idle:
            conn._send(protocol.bye_response("idle timeout"))
            conn._retire("idle")

    def _watchdog(self) -> None:
        """The one owner of request deadlines: no timer per request."""
        tick = min(0.05, self.request_timeout_s / 4.0)
        while not self._stopped.wait(tick):
            now = time.monotonic()
            with self.lock:
                late = [
                    c for c in self.connections.values()
                    if c.deadline is not None and c.deadline <= now
                ]
            for conn in late:
                conn.expire(now)

    def shutdown(self) -> None:
        """Graceful drain: refuse new work, finish in-flight, force, close."""
        if self._stopped.is_set():
            return
        if self._listener is None:      # never started: only the pool runs
            self._stopped.set()
            if self.pool is not None:
                self.pool.close()
            return
        self.core.begin_drain()     # late connectors get a typed ``bye``
        deadline = time.monotonic() + self.drain_timeout_s
        while time.monotonic() < deadline:
            with self.lock:
                if not any(c.deadline for c in self.connections.values()):
                    break
            time.sleep(0.005)
        with self.lock:
            leftover = list(self.connections.values())
        for conn in leftover:
            # Reading ends; a reply already on its way out still goes out.
            conn.hang_up(socket.SHUT_RD)
        # Abort the brackets left (a stuck body waits on one) and force.
        self.core.finish_drain()
        deadline = time.monotonic() + self.drain_timeout_s
        while self.connections and time.monotonic() < deadline:
            time.sleep(0.005)
        # The listener's hang-up wakes the leader; each follower is woken.
        self._stopped.set()
        self._listener.shutdown(socket.SHUT_RDWR)
        for thread in list(self._threads):
            while thread.is_alive() and time.monotonic() < deadline:
                try:
                    self._parked.get_nowait().release()
                except queue.Empty:
                    thread.join(0.005)
        self._listener.close()
        self._hook(False)
        if self.pool is not None:
            self.pool.close()
        self._watchdog_thread.join()


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
