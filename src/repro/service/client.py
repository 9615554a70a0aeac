"""Blocking socket client with seeded reconnect/retry.

The client side of the robustness contract: every request carries a
client-unique ``id``; on a lost connection (reset, torn frame, dropped
response) the client redials and resends the *same id* after a seeded
backoff (:class:`~repro.storage.disk.RetryPolicy` steps), and the server's
idempotency cache turns the retry into exactly-once delivery.  Overload
(``status="overloaded"``) is returned to the caller, not retried blindly —
the caller owns the pacing decision the ``retry_after_ms`` hint feeds.
"""

from __future__ import annotations

import itertools
import os
import socket
import time

# Client keys must be unique per client *object* (the idempotency cache is
# keyed by request id alone), stable across that client's reconnects.
_client_counter = itertools.count(1)

from repro.errors import ConnectionLostError, SessionStateError, TornFrameError
from repro.service import protocol
from repro.storage.disk import RetryPolicy


class ServiceClient:
    """One connection to an :class:`~repro.service.server.SQLService`."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout_s: float = 30.0,
        retry_policy: RetryPolicy | None = None,
        retry_step_ms: float = 2.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.retry_policy = retry_policy or RetryPolicy(max_attempts=5)
        self.retry_step_ms = retry_step_ms
        self._sock: socket.socket | None = None
        self._decoder = protocol.FrameDecoder()
        self._client_key = f"c{os.getpid()}-{next(_client_counter)}"
        self._next_id = 1
        self.reconnects = 0
        # True while a BEGIN...COMMIT bracket is open on this connection.
        # Connection loss aborts the bracket server-side, so in-bracket
        # statements are never blindly retried (see request()).
        self._bracket_open = False

    # -- connection -----------------------------------------------------------

    def _connect(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout_s
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
            self._decoder = protocol.FrameDecoder()
        return self._sock

    def _disconnect(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.sendall(protocol.encode_message(
                    {"id": self._fresh_id(), "op": "close"}
                ))
            except OSError:
                pass
            self._disconnect()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- requests --------------------------------------------------------------

    def _fresh_id(self) -> str:
        request_id = f"{self._client_key}:{self._next_id}"
        self._next_id += 1
        return request_id

    def request(self, message: dict) -> dict:
        """Send one request, retrying through connection loss.

        Exception: a connection lost while a transaction bracket is open
        aborted that bracket server-side; the statement is NOT retried
        (it would execute outside the bracket) — the loss surfaces to the
        caller, who must restart from BEGIN.
        """
        message = dict(message)
        message.setdefault("id", self._fresh_id())
        last: Exception | None = None
        for attempt in range(1, self.retry_policy.max_attempts + 1):
            if attempt > 1:
                self.reconnects += 1
                steps = self.retry_policy.backoff_steps(attempt - 1)
                time.sleep(steps * self.retry_step_ms / 1000.0)
            # Captured BEFORE the attempt so nothing inside _exchange can
            # clear it: a loss while the bracket was open is never retried.
            in_bracket = self._bracket_open
            try:
                response = self._exchange(message)
            except ConnectionLostError as exc:
                self._disconnect()
                if in_bracket:
                    self._bracket_open = False
                    raise
                last = exc
                continue
            self._track_bracket(message, response)
            return response
        raise ConnectionLostError(
            f"request {message['id']} still failing after "
            f"{self.retry_policy.max_attempts} attempts"
        ) from last

    def _track_bracket(self, message: dict, response: dict) -> None:
        if message.get("op") != "sql" or response.get("status") != "ok":
            return
        head = str(message.get("sql", "")).lstrip().upper()
        if head.startswith("BEGIN"):
            self._bracket_open = True
        elif head.startswith(("COMMIT", "ROLLBACK")):
            self._bracket_open = False

    def execute(self, sql: str, params=()) -> dict:
        """Run one statement; ``params`` are the values of its ``?``s."""
        message = {"op": "sql", "sql": sql}
        if params:
            message["params"] = list(params)
        return self.request(message)

    def ingest(self, table: str, csv_text: str, *, batch: int = 64) -> dict:
        return self.request(
            {"op": "ingest", "table": table, "csv": csv_text, "batch": batch}
        )

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    # -- the wire ---------------------------------------------------------------

    def _exchange(self, message: dict) -> dict:
        sock = self._connect()
        try:
            sock.sendall(protocol.encode_message(message))
        except OSError as exc:
            raise ConnectionLostError(f"send failed: {exc}") from None
        while True:
            response = self._read_response(sock)
            if response.get("status") == protocol.STATUS_BYE \
                    and response.get("id") != message["id"]:
                # Unsolicited bye: drain refusal or idle reap.
                self._disconnect()
                raise SessionStateError(
                    f"server closed the session: {response.get('reason')}"
                )
            return response

    def _read_response(self, sock: socket.socket) -> dict:
        while True:
            try:
                payloads = self._decoder.feed(self._recv(sock))
            except TornFrameError:
                raise ConnectionLostError(
                    "response frame torn in flight"
                ) from None
            if payloads:
                return protocol.decode_message(payloads[0])

    def _recv(self, sock: socket.socket) -> bytes:
        try:
            data = sock.recv(65536)
        except socket.timeout:
            raise ConnectionLostError("response timed out") from None
        except OSError as exc:
            raise ConnectionLostError(f"recv failed: {exc}") from None
        if not data:
            raise ConnectionLostError("server closed the connection")
        return data
