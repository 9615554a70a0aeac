"""Wire protocol: length-prefixed, CRC-framed JSON messages.

Frames are the file WAL's (:mod:`repro.storage.framing`): a big-endian
4-byte payload length, a 4-byte CRC32 of the payload, then the payload.
The CRC turns torn or garbled frames into a typed
:class:`~repro.errors.TornFrameError` instead of silent misparses — the
same role it plays for the log's crash tail.

Payloads are compact JSON objects.  Requests carry:

``{"id": <int>, "op": "sql"|"ingest"|"stats"|"ping"|"close", ...}``

An ``sql`` request carries the statement as ``"sql"`` and, when the text
has ``?`` placeholders, their values as ``"params": [...]`` (JSON numbers,
strings, booleans and null).

``id`` is a client-chosen request id used for idempotency: the server
caches the response it sent for each id, so a client that retries after a
lost response gets the original answer back instead of a second execution.

Responses carry ``{"id": ..., "status": ..., ...}`` with status one of
``ok``, ``degraded`` (rows present but some reads were quarantine-degraded),
``error`` (typed engine/SQL error), ``overloaded`` (admission rejection,
with ``retry_after_ms``), ``timeout``, or ``bye`` (drain/close notice).

:class:`FrameDecoder` is incremental: feed it arbitrary byte chunks (a
slow-loris client delivering one byte at a time is fine) and it yields
complete payloads as they close.
"""

from __future__ import annotations

import json
import socket
import struct
import zlib

from repro.errors import ProtocolError, TornFrameError
from repro.storage.framing import HEADER as _HEADER, frame as encode_frame

HEADER_SIZE = _HEADER.size
MAX_FRAME = 16 * 1024 * 1024       # refuse absurd lengths before allocating

STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_ERROR = "error"
STATUS_OVERLOADED = "overloaded"
STATUS_TIMEOUT = "timeout"
STATUS_BYE = "bye"


# One codec pair for the process.  The encoder is the C one, made once:
# ``JSONEncoder.encode`` makes a new one on every call.  Keys go out in the
# order they were made: no reader depends on it, and sorting every row
# costs a reply.
_encode_json = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
    None, ":", ",", False, False, True,
)
# The decoder is its C scanner (``JSONDecoder.decode`` wraps it in two calls).
_scan_json = json.JSONDecoder().scan_once


def encode_message(message: dict) -> bytes:
    """JSON-encode a message dict and frame it."""
    return encode_frame("".join(_encode_json(message, 0)).encode("utf-8"))


def decode_message(payload: bytes) -> dict:
    try:
        text = payload.decode("utf-8").strip(" \t\n\r")
        message, end = _scan_json(text, 0)
        if end != len(text):
            raise ValueError(f"extra data at {end}")
    # StopIteration: no value; RecursionError: nested too deep to scan
    except (ValueError, StopIteration, RecursionError) as exc:
        raise ProtocolError(f"frame payload is not valid JSON: {exc!r}") from None
    if type(message) is not dict:
        raise ProtocolError("frame payload must be a JSON object")
    return message


def set_io_timeout(sock: socket.socket, seconds: float) -> None:
    """Make ``sock`` blocking, the kernel timing out a ``recv`` or ``send``
    that waits past ``seconds`` (``SO_RCVTIMEO``/``SO_SNDTIMEO``; it raises
    :class:`BlockingIOError`): ``settimeout`` would ``poll`` before each."""
    sock.settimeout(None)
    micros = max(1, round(seconds * 1e6))   # zero would mean "never"
    timeval = struct.pack("@ll", *divmod(micros, 1_000_000))
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)


class FrameDecoder:
    """Incremental frame reassembly over an arbitrary chunk stream."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        """Append bytes; return every payload that completed.

        Raises :class:`TornFrameError` on a CRC mismatch or an impossible
        length — after that, the stream cannot be trusted (there is no way
        to find the next frame boundary) and the connection must close.
        """
        self._buf.extend(data)
        payloads: list[bytes] = []
        while True:
            if len(self._buf) < HEADER_SIZE:
                return payloads
            length, crc = _HEADER.unpack_from(self._buf)
            if length > MAX_FRAME:
                raise TornFrameError(
                    f"frame claims {length} bytes (max {MAX_FRAME}); "
                    "framing sync lost"
                )
            if len(self._buf) < HEADER_SIZE + length:
                return payloads
            payload = bytes(self._buf[HEADER_SIZE:HEADER_SIZE + length])
            if zlib.crc32(payload) != crc:
                raise TornFrameError(
                    "frame payload failed its CRC32 check; framing sync lost"
                )
            del self._buf[:HEADER_SIZE + length]
            payloads.append(payload)

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)


# -- response constructors (the server's half of the protocol) ---------------

def ok_response(request_id, *, rows=None, rowcount=0, message="") -> dict:
    response = {"id": request_id, "status": STATUS_OK,
                "rowcount": rowcount, "message": message}
    if rows is not None:
        response["rows"] = rows
    return response


def degraded_response(request_id, *, rows, rowcount, degraded) -> dict:
    """Rows the engine could serve, plus which pages it could not."""
    return {
        "id": request_id,
        "status": STATUS_DEGRADED,
        "rows": rows,
        "rowcount": rowcount,
        "degraded": degraded,
    }


def error_response(request_id, exc: BaseException, *, retryable: bool) -> dict:
    return {
        "id": request_id,
        "status": STATUS_ERROR,
        "error": type(exc).__name__,
        "message": str(exc),
        "retryable": retryable,
    }


def overloaded_response(request_id, *, retry_after_ms, shed_kind) -> dict:
    return {
        "id": request_id,
        "status": STATUS_OVERLOADED,
        "retry_after_ms": retry_after_ms,
        "shed_kind": shed_kind,
        "retryable": True,
    }


def timeout_response(request_id, *, deadline_ms) -> dict:
    return {"id": request_id, "status": STATUS_TIMEOUT,
            "deadline_ms": deadline_ms}


def bye_response(reason: str) -> dict:
    """Unsolicited close notice (drain, idle timeout)."""
    return {"id": None, "status": STATUS_BYE, "reason": reason}
