"""Exception hierarchy for the Immortal DB reproduction.

Every error raised by the library derives from :class:`ImmortalDBError`, so
callers can catch one base class.  The hierarchy mirrors the subsystem layout:
storage, write-ahead log, timestamping, concurrency, access methods, catalog,
and the SQL front end each get their own branch.
"""

from __future__ import annotations


class ImmortalDBError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# Storage layer
# ---------------------------------------------------------------------------

class StorageError(ImmortalDBError):
    """Base class for storage-engine errors (pages, disk, buffer pool)."""


class PageFullError(StorageError):
    """A record does not fit in the target page.

    This is the signal that drives page splitting: callers catch it and
    invoke a time split and/or key split, then retry the insertion.
    """


class PageFormatError(StorageError):
    """A page image failed to deserialize (corruption or version skew)."""


class PageNotFoundError(StorageError):
    """The requested page id does not exist on the disk."""


class BufferPoolError(StorageError):
    """Buffer-pool protocol violation (e.g. evicting a pinned page)."""


class BufferExhaustedError(BufferPoolError):
    """Eviction found no victim: every frame is pinned or latched.

    Raised instead of stalling when an admission cannot make room — a pool
    sized below the working set of a single operation is a configuration
    error the caller must see, not spin on.  Carries the pool capacity and
    a per-cause breakdown of why each frame was unevictable.
    """

    def __init__(
        self,
        message: str,
        *,
        capacity: int | None = None,
        pinned: int = 0,
        latched: int = 0,
    ) -> None:
        super().__init__(message)
        self.capacity = capacity
        self.pinned = pinned
        self.latched = latched


class LatchError(StorageError):
    """Incompatible latch request on a page frame."""


class ChecksumError(StorageError):
    """A page image failed its CRC32 verification on read.

    Raised only when page checksums are enabled (``page_checksums=True`` on
    the engine); it turns silent media corruption — torn writes, bit-rot —
    into a typed, catchable failure instead of downstream chain damage.

    Carries enough context to dispatch a repair from the exception alone:
    the page id, the CRC the image claims vs the CRC it actually hashes to,
    and the LSN stamped in the (possibly corrupt) header.
    """

    def __init__(
        self,
        message: str,
        *,
        page_id: int | None = None,
        stored_crc: int | None = None,
        computed_crc: int | None = None,
        page_lsn: int | None = None,
    ) -> None:
        super().__init__(message)
        self.page_id = page_id
        self.stored_crc = stored_crc
        self.computed_crc = computed_crc
        self.page_lsn = page_lsn


class TransientIOError(StorageError):
    """An I/O failure a retry may clear (the disk seam's retry class)."""

    def __init__(
        self,
        message: str,
        *,
        page_id: int | None = None,
        op: str | None = None,
    ) -> None:
        super().__init__(message)
        self.page_id = page_id
        self.op = op


class InjectedIOError(TransientIOError):
    """A fault model injected a transient I/O failure (read or write)."""


class PageQuarantinedError(StorageError):
    """The page is quarantined: corrupt on disk and not (yet) repaired.

    Raised by the buffer pool when a read faults on a quarantined page while
    media recovery cannot restore it.  Readers catch it to degrade — current
    reads return a typed ``Degraded`` result, as-of reads fall back to the
    intact history pages of the quarantine's stale backup view.
    """

    def __init__(self, message: str, *, page_id: int | None = None) -> None:
        super().__init__(message)
        self.page_id = page_id


class MediaRecoveryError(StorageError):
    """Single-page restore could not reconstruct the page (coverage gap)."""

    def __init__(self, message: str, *, page_id: int | None = None) -> None:
        super().__init__(message)
        self.page_id = page_id


# ---------------------------------------------------------------------------
# Write-ahead log / recovery
# ---------------------------------------------------------------------------

class WALError(ImmortalDBError):
    """Base class for write-ahead-log errors."""


class LogFormatError(WALError):
    """A log record image failed to deserialize."""


class RecoveryError(WALError):
    """Crash recovery could not bring the database to a consistent state."""


# ---------------------------------------------------------------------------
# Timestamping
# ---------------------------------------------------------------------------

class TimestampError(ImmortalDBError):
    """Base class for timestamp-management errors."""


class UnknownTransactionError(TimestampError):
    """A TID was looked up that is in neither the VTT nor the PTT."""


class NotYetCommittedError(TimestampError):
    """Attempt to stamp a record whose transaction has not committed."""


# ---------------------------------------------------------------------------
# Concurrency control
# ---------------------------------------------------------------------------

class ConcurrencyError(ImmortalDBError):
    """Base class for transaction / locking errors."""


class LockConflictError(ConcurrencyError):
    """A lock request conflicts with a lock held by another transaction.

    Carries the full waits-for edge the failed request would have created:
    the waiter, every conflicting holder with its mode, the resource, and
    the requested mode — enough to print (or assert on) the exact conflict
    without consulting the lock table.  ``holder_tid`` remains the first
    conflicting holder for backward compatibility.
    """

    def __init__(
        self,
        message: str,
        holder_tid: int | None = None,
        *,
        waiter_tid: int | None = None,
        holder_tids: tuple[int, ...] = (),
        holder_modes: tuple = (),
        resource=None,
        requested_mode=None,
    ) -> None:
        super().__init__(message)
        self.holder_tid = holder_tid
        self.waiter_tid = waiter_tid
        self.holder_tids = holder_tids
        self.holder_modes = holder_modes
        self.resource = resource
        self.requested_mode = requested_mode


class DeadlockError(ConcurrencyError):
    """A lock wait would create a cycle in the waits-for graph.

    Raised in the victim transaction's thread.  ``cycle`` is the TID cycle
    that was detected (victim included) and ``victim_tid`` the transaction
    chosen to abort; callers abort it and usually retry with backoff.
    """

    def __init__(
        self,
        message: str,
        *,
        cycle: tuple[int, ...] = (),
        victim_tid: int | None = None,
        resource=None,
    ) -> None:
        super().__init__(message)
        self.cycle = cycle
        self.victim_tid = victim_tid
        self.resource = resource


class TransactionStateError(ConcurrencyError):
    """Operation is illegal in the transaction's current state."""


class WriteConflictError(ConcurrencyError):
    """First-committer-wins violation under snapshot isolation."""


class ReadOnlyTransactionError(ConcurrencyError):
    """An AS OF (historical) transaction attempted a write."""


class TimestampOrderError(ConcurrencyError):
    """A CURRENT TIME transaction touched data committed after its pinned
    timestamp; it must abort (the cost of early timestamp choice, §2.1/§7.2)."""


# ---------------------------------------------------------------------------
# Access methods
# ---------------------------------------------------------------------------

class AccessMethodError(ImmortalDBError):
    """Base class for index-structure errors (B-tree, TSB-tree, splits)."""


class KeyNotFoundError(AccessMethodError):
    """Exact-match lookup found no record for the key."""


class DuplicateKeyError(AccessMethodError):
    """Insert of a key that already has a live (non-deleted) record."""


# ---------------------------------------------------------------------------
# Catalog / engine
# ---------------------------------------------------------------------------

class CatalogError(ImmortalDBError):
    """Base class for catalog errors."""


class TableNotFoundError(CatalogError):
    """The named table does not exist."""


class TableExistsError(CatalogError):
    """CREATE TABLE for a name that already exists."""


class SchemaError(CatalogError):
    """Row does not match the table schema."""


# ---------------------------------------------------------------------------
# SQL front end
# ---------------------------------------------------------------------------

class SQLError(ImmortalDBError):
    """Base class for SQL front-end errors."""


class SQLSyntaxError(SQLError):
    """The statement failed to lex or parse."""

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position


class SQLExecutionError(SQLError):
    """The statement parsed but could not be executed."""


# ---------------------------------------------------------------------------
# Cluster / distributed commit
# ---------------------------------------------------------------------------

class ClusterError(ImmortalDBError):
    """Base class for sharded-cluster errors (routing, two-phase commit)."""


class InDoubtError(ClusterError):
    """A read touched data locked by an unresolved prepared transaction.

    After a crash, a participant shard restores every PREPARED transaction
    with its locks intact (presumed-abort 2PC: the shard cannot decide the
    outcome alone).  Until the coordinator's decision is replayed, any
    conflicting access surfaces this typed, retryable error instead of a
    generic lock conflict — callers back off and retry once resolution runs.
    """

    def __init__(
        self,
        message: str,
        *,
        gtid: int | None = None,
        shard_id: int | None = None,
    ) -> None:
        super().__init__(message)
        self.gtid = gtid
        self.shard_id = shard_id


class ShardUnavailableError(ClusterError):
    """The routed shard is down (crashed and not yet recovered)."""

    def __init__(self, message: str, *, shard_id: int | None = None) -> None:
        super().__init__(message)
        self.shard_id = shard_id


class CrossShardAbort(ClusterError):
    """A cross-shard transaction aborted during the prepare phase.

    One participant voted no (conflict, deadlock, validation failure); the
    coordinator rolled every participant back.  Carries the shard and local
    transaction that vetoed, so callers can report *where* the conflict was;
    the whole transaction is retryable from the top.
    """

    def __init__(
        self,
        message: str,
        *,
        victim_tid: int | None = None,
        shard_id: int | None = None,
        gtid: int | None = None,
    ) -> None:
        super().__init__(message)
        self.victim_tid = victim_tid
        self.shard_id = shard_id
        self.gtid = gtid


# ---------------------------------------------------------------------------
# Service layer
# ---------------------------------------------------------------------------

class ServiceError(ImmortalDBError):
    """Base class for network-service errors."""


class ProtocolError(ServiceError):
    """A wire message violated the protocol (bad frame, bad JSON, bad op)."""


class TornFrameError(ProtocolError):
    """A frame failed its length/CRC32 check; framing sync is lost.

    The connection that produced it cannot be resynchronized (bytes after a
    torn frame are garbage), so both peers close it.  A client retries the
    request on a fresh connection; the server's idempotency cache makes the
    retry safe for requests it had already executed.
    """


class ServiceOverloadedError(ServiceError):
    """Admission control rejected the request: the service is saturated.

    Carries a ``retry_after_ms`` hint scaled by current load and the
    ``shed_kind`` ("read" or "write") that was shed.  Reads are shed first —
    they are cheap to retry and hold no locks — so in-flight writes keep
    draining instead of collapsing under a thundering herd.
    """

    def __init__(
        self,
        message: str,
        *,
        retry_after_ms: float = 50.0,
        shed_kind: str = "read",
    ) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms
        self.shed_kind = shed_kind


class RequestTimeoutError(ServiceError):
    """A request exceeded the service's per-request deadline."""


class SessionStateError(ServiceError):
    """The session cannot accept the request (closed, defunct, draining)."""


class ConnectionLostError(ServiceError):
    """The transport dropped mid-exchange (client side of a torn wire)."""
