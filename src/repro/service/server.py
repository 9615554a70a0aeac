"""The asyncio socket server over :class:`~repro.service.core.ServiceCore`.

A request crosses threads twice.  The event-loop thread owns every
connection (one :class:`asyncio.Protocol` each): it reassembles and decodes
the frame, takes the admission decision — which never blocks, so a shed
request is answered right there — and hands the admitted request to a
:class:`~repro.workers.pool.WorkerPool` worker.  The worker runs the whole
of ``ServiceCore.handle_payload`` (so the engine's blocking locks stall a
worker, never the loop) and posts the response back with one
``call_soon_threadsafe``; the loop writes it out framed.  A connection has
at most one request with a worker at a time; frames a client pipelines
behind it wait their turn, in order.

Robustness behaviours, all typed and test-covered:

* **per-request timeout** — a ``call_later`` deadline armed when the
  request is handed over; if it fires first, the client gets a ``timeout``
  response and the connection closes; the still-queued or still-running
  body sees the session marked defunct and aborts its bracket the moment
  it completes, and its late result is dropped.
* **idle-session timeout** — the same per-connection timer, armed while
  nothing is in flight: a connection silent past ``idle_timeout_s`` gets a
  ``bye`` and its session is reaped (aborting any open bracket).
* **disconnect** — EOF or reset mid-transaction aborts the transaction
  and releases its locks (``service_aborted_on_disconnect`` counts these).
* **torn frame** — a CRC-failed frame kills the connection (framing sync
  is unrecoverable); the engine never sees the request.
* **graceful drain** — :meth:`SQLService.shutdown` stops accepting,
  rejects new work with a typed refusal, waits for in-flight requests up
  to ``drain_timeout_s``, aborts leftover brackets, forces group commit,
  and closes the pool.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
import threading
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

#: Frames a client may pipeline behind the one executing before the
#: connection stops reading (TCP backpressure does the rest).
_MAX_PIPELINED = 64

#: Threads standing in for the worker pool when the backend cannot have one.
_POOLLESS_THREADS = 4


class _Connection(asyncio.Protocol):
    """One client connection; every method runs on the event-loop thread
    except :meth:`_execute`."""

    def __init__(self, service: "SQLService") -> None:
        self._service = service
        self._core = service.core
        self._loop = asyncio.get_running_loop()
        self._decoder = protocol.FrameDecoder()
        self._backlog: deque[bytes] = deque()   # complete frames not yet started
        self._transport = None
        self._session = None
        self._timer: asyncio.TimerHandle | None = None
        self._request_id = None     # of the request a worker holds
        self.busy = False           # a worker holds a request of ours
        self._writable = True       # the transport's send buffer has room
        self._reading = True
        self._eof = False           # the client finished sending
        self._close_reason: str | None = None   # set once we hang up

    # -- transport callbacks ---------------------------------------------------

    def connection_made(self, transport) -> None:
        self._transport = transport
        try:
            self._session = self._core.open_session()
        except SessionStateError as exc:
            transport.write(protocol.encode_message(
                protocol.bye_response(str(exc))
            ))
            transport.close()
            return
        self._service.connections.add(self)
        self._arm(self._service.idle_timeout_s, self._on_idle)

    def data_received(self, data: bytes) -> None:
        fire("service.read_frame")
        try:
            self._backlog.extend(self._decoder.feed(data))
        except TornFrameError:
            self._core.stats.torn_frames += 1
            self._hang_up("torn frame")
            return
        self._pump()

    def eof_received(self) -> bool:
        # A client may half-close after its last request: what is queued
        # or running is still answered before the connection goes away.
        self._eof = True
        return self.busy or bool(self._backlog)

    def pause_writing(self) -> None:
        self._writable = False

    def resume_writing(self) -> None:
        self._writable = True
        self._pump()

    def connection_lost(self, exc) -> None:
        self._cancel_timer()
        self._service.connections.discard(self)
        reason = self._close_reason or "disconnect"
        self._close_reason = reason
        if self._session is not None and not self._session.closed:
            # Mid-execution disconnects defer the close to the worker
            # (the session lock is held); idle/quiet ones close now.
            self._core.on_disconnect(self._session, reason)

    # -- the request path --------------------------------------------------------

    def _pump(self) -> None:
        """Start queued frames, in order, while the connection is free to."""
        while self._backlog and not self.busy and self._writable \
                and self._close_reason is None:
            self._start(self._backlog.popleft())
        if self._close_reason is not None:
            return
        want_reading = len(self._backlog) < _MAX_PIPELINED
        if want_reading != self._reading:
            self._reading = want_reading
            if want_reading:
                self._transport.resume_reading()
            else:
                self._transport.pause_reading()
        if not self.busy:
            if self._eof and not self._backlog:
                self._hang_up("disconnect")
            else:
                self._arm(self._service.idle_timeout_s, self._on_idle)

    def _start(self, payload: bytes) -> None:
        """Decode and admit one frame; hand it to a worker if admitted."""
        core = self._core
        try:
            message = protocol.decode_message(payload)
        except ProtocolError as exc:
            self._reply(protocol.error_response(None, exc, retryable=False))
            return
        try:
            admitted = core.admit(self._session, message)
        except ServiceOverloadedError as exc:
            self._reply(core.shed_response(message.get("id"), exc))
            return
        self.busy = True
        self._request_id = message.get("id")
        self._arm(self._service.request_timeout_s, self._on_deadline)
        self._service.submit(
            functools.partial(self._execute, payload, admitted)
        )

    def _execute(self, payload: bytes, admitted: bool) -> None:
        """Worker thread: the whole request, then one hop back to the loop."""
        try:
            response = self._core.handle_payload(
                self._session, payload, admitted
            )
        except Exception as exc:    # the client must still get an answer
            response = protocol.error_response(
                self._request_id, exc, retryable=False
            )
        self._loop.call_soon_threadsafe(self._finish, response)

    def _finish(self, response: dict) -> None:
        if self._close_reason is not None:
            return      # the deadline or a disconnect already ended it
        self.busy = False
        self._reply(response)
        if response.get("status") == protocol.STATUS_BYE:
            self._hang_up("close")
        else:
            self._pump()

    def _reply(self, response: dict) -> None:
        fire("service.write_frame")
        self._transport.write(protocol.encode_message(response))

    # -- deadlines ---------------------------------------------------------------

    def _arm(self, delay_s: float, callback) -> None:
        """(Re)start the connection's one timer: the request deadline while
        a worker holds a request, the idle deadline otherwise."""
        self._cancel_timer()
        self._timer = self._loop.call_later(delay_s, callback)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _on_idle(self) -> None:
        self._reply(protocol.bye_response("idle timeout"))
        self._hang_up("idle")

    def _on_deadline(self) -> None:
        self._core.on_request_timeout(self._session, "request timeout")
        self._reply(protocol.timeout_response(
            self._request_id,
            deadline_ms=self._service.request_timeout_s * 1000.0,
        ))
        self._hang_up("request timeout")

    def _hang_up(self, reason: str) -> None:
        """Close from our side; ``connection_lost`` retires the session."""
        if self._close_reason is None:
            self._close_reason = reason
            self._cancel_timer()
            self._transport.close()     # flushes what _reply buffered


class SQLService:
    """An asyncio SQL server bound to one engine."""

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
        # A sharded backend (ShardRouter) cannot sit behind a WorkerPool:
        # the pool keys its bookkeeping by TID, and branch TIDs collide
        # across shards (each shard numbers its own).  Its facade omits
        # the durable-commit hook seam on purpose; requests then run on a
        # small executor standing where the pool's ``submit_call`` is.
        supports_pool = hasattr(db.txn_mgr, "durable_commit_hook")
        self.pool = (
            WorkerPool(db, pool_workers, seed=seed, queue_depth=queue_depth)
            if pool_workers > 0 and supports_pool else None
        )
        self._executor = None
        if self.pool is None:
            # The engine still needs its thread-safe flavour (blocking
            # locks, latches) — the pool would have enabled it lazily.
            db.enable_concurrency()
            self._executor = concurrent.futures.ThreadPoolExecutor(
                max_workers=pool_workers or _POOLLESS_THREADS,
                thread_name_prefix="svc-exec",
            )
        #: Hands a zero-argument callable to a worker thread.  With more
        #: connections than ``queue_depth`` the pool's bounded queue briefly
        #: stalls the loop here; workers drain it without the loop's help.
        self.submit = (
            self.pool.submit_call if self.pool is not None
            else self._executor.submit
        )
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
        self.connections: set[_Connection] = set()
        self._server: asyncio.AbstractServer | None = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self) -> None:
        """Graceful drain: refuse new work, finish in-flight, force, close."""
        loop = asyncio.get_running_loop()
        self.core.begin_drain()
        if self._server is not None:
            self._server.close()
        deadline = loop.time() + self.drain_timeout_s
        while any(conn.busy for conn in self.connections) \
                and loop.time() < deadline:
            await asyncio.sleep(0.005)
        for conn in list(self.connections):
            conn._hang_up("drain")
        # Abort whatever brackets the deadline stranded, force group
        # commit so every acked write is durable, and stop the workers.
        await loop.run_in_executor(None, self.core.finish_drain)
        if self.pool is not None:
            await loop.run_in_executor(None, self.pool.close)
        else:
            self._executor.shutdown(wait=False)


class ThreadedService:
    """Run an :class:`SQLService` on a background thread (tests, benches).

    ``with ThreadedService(db) as svc: connect to svc.port`` — the event
    loop lives on the thread; :meth:`shutdown` performs the graceful drain
    and joins it.
    """

    def __init__(self, db, **kwargs) -> None:
        self.service = SQLService(db, **kwargs)
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="sql-service", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=10.0)
        if self._startup_error is not None:
            raise self._startup_error

    @property
    def port(self) -> int:
        return self.service.port

    @property
    def core(self) -> ServiceCore:
        return self.service.core

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.service.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await self.service.shutdown()

    def begin_drain(self) -> None:
        """Flip the service into drain mode without waiting for it."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.service.core.begin_drain)

    def shutdown(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30.0)

    def __enter__(self) -> "ThreadedService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
