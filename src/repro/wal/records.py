"""Log record vocabulary and binary codecs.

Every record serializes as ``tag(1) | tid(8) | prev_lsn(8) | body`` — the
log manager frames each record with a 4-byte length, and the LSN of a record
is its byte offset in the log, so LSN arithmetic matches a real log file.

``prev_lsn`` threads the per-transaction backchain used by the undo pass
(0 = no previous record for this transaction).  System records (checkpoints,
structure modifications) use tid 0.

Design notes:

* **Versioned updates** (:class:`VersionOp`) are physiological: redo applies
  the version to the page it names, guarded by the page LSN; undo is logical
  (remove the transaction's uncommitted version wherever the key now lives),
  because a key split may have moved the record after the update.
* **Redo lives with the codec**: every page-affecting record type says what
  it does to a page (``redo(page)``, or ``image_for(page_id)`` for the
  records that carry whole after-images).  Restart redo and single-page
  media restore both call these, after their own page-LSN guard, so a
  record has one reading however the page is being rebuilt.
* **Structure modifications** (:class:`MultiPageImage`) are redo-only and
  atomic: a single record carries the after-images of every page touched by
  a time split / key split / index post, so a crash can never leave half a
  split behind.
* **Compensation records** (:class:`CompensationRecord`) make undo
  restartable: redo-only page images plus ``undo_next_lsn``.
* **Commit** records carry the transaction's chosen timestamp and whether a
  PTT entry was written; redo of a commit re-inserts a missing PTT entry
  (logical, idempotent).  :class:`PTTDelete` logs PTT garbage collection.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field

from repro.clock import Timestamp
from repro.errors import LogFormatError
from repro.storage.page import DataPage, Page, decode_page
from repro.storage.record import RecordVersion


class VersionOpKind(enum.IntEnum):
    INSERT = 0          # first version of a key
    UPDATE = 1          # new version of an existing key
    DELETE = 2          # delete stub version


class SMOReason(enum.IntEnum):
    TIME_SPLIT = 0
    KEY_SPLIT = 1
    INDEX_POST = 2
    PTT_NODE = 3
    OTHER = 4


# Fixed-width field groups, precompiled as the page codecs do.
_HEADER = struct.Struct(">BQQ")        # tag, tid, prev_lsn
_U32 = struct.Struct(">I")
_COMMIT_BODY = struct.Struct(">QI?")   # ttime, sn, ptt
_VERSION_OP_HEAD = struct.Struct(">BIIH")   # kind, table_id, page_id, len(key)
_SMO_HEAD = struct.Struct(">BH")       # reason, len(images)
_CLR_HEAD = struct.Struct(">QH")       # undo_next_lsn, len(images)
_IMAGE_HEAD = struct.Struct(">II")     # page_id, len(image)


def _put_bytes(chunks: list[bytes], data: bytes, width: int = 4) -> None:
    chunks.append(len(data).to_bytes(width, "big"))
    chunks.append(data)


def _image_bytes(head: bytes, images: list[tuple[int, bytes]]) -> bytes:
    """``head`` followed by each ``page_id(4) | length(4) | image``."""
    chunks = [head]
    for page_id, image in images:
        chunks += (_IMAGE_HEAD.pack(page_id, len(image)), image)
    return b"".join(chunks)


class _Reader:
    """Cursor over a record body."""

    def __init__(self, data: bytes, offset: int = 0) -> None:
        self.data = data
        self.offset = offset

    def u(self, width: int) -> int:
        value = int.from_bytes(self.data[self.offset : self.offset + width], "big")
        self.offset += width
        return value

    def blob(self, width: int = 4) -> bytes:
        length = self.u(width)
        out = bytes(self.data[self.offset : self.offset + length])
        if len(out) != length:
            raise LogFormatError("truncated log record body")
        self.offset += length
        return out

    def images(self) -> list[tuple[int, bytes]]:
        """``count(2)`` then ``page_id(4) | length(4) | image`` each."""
        return [(self.u(4), self.blob(4)) for _ in range(self.u(2))]


@dataclass
class LogRecord:
    """Base class.  ``lsn`` is assigned by the log manager on append."""

    tid: int = 0
    prev_lsn: int = 0
    lsn: int = field(default=0, compare=False)

    TAG = -1
    REDO_ONLY = False
    CARRIES_IMAGES = False   # full page after-images: counted apart by the log

    def affected_pages(self) -> tuple[int, ...]:
        """Page ids whose content this record's redo modifies.

        The media-recovery log archive indexes records by this, so
        single-page restore can replay exactly the records that touch one
        page.  Bookkeeping records (begin/commit/checkpoint/PTT delete)
        touch no page directly and return the empty tuple.
        """
        return ()

    # -- codec ------------------------------------------------------------

    def body_bytes(self) -> bytes:
        """Serialize this record type's body fields."""
        return b""

    @classmethod
    def from_body(cls, tid: int, prev_lsn: int, body: _Reader) -> "LogRecord":
        """Decode this record type's body fields from a log image."""
        return cls(tid=tid, prev_lsn=prev_lsn)

    def to_bytes(self) -> bytes:
        """Serialize to the fixed-size on-disk image."""
        return _HEADER.pack(self.TAG, self.tid, self.prev_lsn) + self.body_bytes()

    @staticmethod
    def decode(raw: bytes) -> "LogRecord":
        if len(raw) < _HEADER.size:
            raise LogFormatError("log record shorter than its fixed header")
        tag, tid, prev_lsn = _HEADER.unpack_from(raw)
        try:
            cls = _RECORD_TYPES[tag]
        except KeyError:
            raise LogFormatError(f"unknown log record tag {tag}") from None
        return cls.from_body(tid, prev_lsn, _Reader(raw, _HEADER.size))


@dataclass
class BeginTxn(LogRecord):
    TAG = 1


@dataclass
class CommitTxn(LogRecord):
    """Transaction commit; carries the commit timestamp chosen at commit.

    ``ptt`` is True when the transaction updated an immortal table and thus
    wrote a (TID, Ttime, SN) entry to the persistent timestamp table as part
    of commit processing (Section 2.2 stage III).
    """

    TAG = 2
    ttime: int = 0
    sn: int = 0
    ptt: bool = False

    def body_bytes(self) -> bytes:
        """Serialize this record type's body fields."""
        return _COMMIT_BODY.pack(self.ttime, self.sn, self.ptt)

    @classmethod
    def from_body(cls, tid: int, prev_lsn: int, body: _Reader) -> "CommitTxn":
        """Decode this record type's body fields from a log image."""
        ttime = body.u(8)
        sn = body.u(4)
        ptt = bool(body.u(1))
        return cls(tid=tid, prev_lsn=prev_lsn, ttime=ttime, sn=sn, ptt=ptt)


@dataclass
class AbortTxn(LogRecord):
    """Marks the start of rollback for a transaction."""

    TAG = 3


@dataclass
class AbortEnd(LogRecord):
    """Rollback finished; the transaction is fully undone."""

    TAG = 4


@dataclass
class VersionOp(LogRecord):
    """A versioned update: a new record version added to a data page."""

    TAG = 5
    kind: VersionOpKind = VersionOpKind.INSERT
    table_id: int = 0
    page_id: int = 0
    key: bytes = b""
    payload: bytes = b""

    def affected_pages(self) -> tuple[int, ...]:
        return (self.page_id,)

    def redo(self, page: DataPage) -> None:
        """Add the version again, TID-marked: stamping was never logged."""
        page.insert_version(RecordVersion.new(
            self.key, self.payload, self.tid,
            delete_stub=self.kind == VersionOpKind.DELETE,
        ))

    def body_bytes(self) -> bytes:
        """Serialize this record type's body fields."""
        key, payload = self.key, self.payload
        return b"".join((
            _VERSION_OP_HEAD.pack(self.kind, self.table_id, self.page_id, len(key)),
            key,
            _U32.pack(len(payload)),
            payload,
        ))

    @classmethod
    def from_body(cls, tid: int, prev_lsn: int, body: _Reader) -> "VersionOp":
        """Decode this record type's body fields from a log image."""
        kind = VersionOpKind(body.u(1))
        table_id = body.u(4)
        page_id = body.u(4)
        key = body.blob(2)
        payload = body.blob(4)
        return cls(
            tid=tid, prev_lsn=prev_lsn, kind=kind,
            table_id=table_id, page_id=page_id, key=key, payload=payload,
        )


class _PageImages:
    """Redo of the record types that carry full page after-images."""

    images: list[tuple[int, bytes]]
    lsn: int

    def affected_pages(self) -> tuple[int, ...]:
        return tuple(page_id for page_id, _ in self.images)

    def image_for(self, page_id: int) -> Page | None:
        """``page_id`` as this record leaves it (None: it carries no image of it).

        Writers stamp ``next_lsn`` into a page before imaging it; the max
        keeps the page-LSN guard sound for an image that was not.
        """
        for image_pid, image in self.images:
            if image_pid == page_id:
                page = decode_page(image)
                page.lsn = max(page.lsn, self.lsn)
                return page
        return None


@dataclass
class MultiPageImage(_PageImages, LogRecord):
    """Redo-only, atomic after-images for a structure modification."""

    TAG = 6
    REDO_ONLY = True
    CARRIES_IMAGES = True
    reason: SMOReason = SMOReason.OTHER
    images: list[tuple[int, bytes]] = field(default_factory=list)

    def body_bytes(self) -> bytes:
        """Serialize this record type's body fields."""
        return _image_bytes(
            _SMO_HEAD.pack(self.reason, len(self.images)), self.images
        )

    @classmethod
    def from_body(cls, tid: int, prev_lsn: int, body: _Reader) -> "MultiPageImage":
        """Decode this record type's body fields from a log image."""
        reason = SMOReason(body.u(1))
        return cls(tid=tid, prev_lsn=prev_lsn, reason=reason, images=body.images())


@dataclass
class CompensationRecord(_PageImages, LogRecord):
    """CLR: records one undone action as redo-only page after-images."""

    TAG = 7
    REDO_ONLY = True
    CARRIES_IMAGES = True
    undo_next_lsn: int = 0
    images: list[tuple[int, bytes]] = field(default_factory=list)

    def body_bytes(self) -> bytes:
        """Serialize this record type's body fields."""
        return _image_bytes(
            _CLR_HEAD.pack(self.undo_next_lsn, len(self.images)), self.images
        )

    @classmethod
    def from_body(cls, tid: int, prev_lsn: int, body: _Reader) -> "CompensationRecord":
        """Decode this record type's body fields from a log image."""
        undo_next_lsn = body.u(8)
        return cls(
            tid=tid, prev_lsn=prev_lsn,
            undo_next_lsn=undo_next_lsn, images=body.images(),
        )


@dataclass
class CheckpointBegin(LogRecord):
    TAG = 8


class TxnPhase(enum.IntEnum):
    ACTIVE = 0
    ABORTING = 1
    PREPARED = 2   # voted yes in 2PC; outcome owned by the coordinator


@dataclass
class CheckpointEnd(LogRecord):
    """Fuzzy checkpoint end: active-transaction table + dirty page table."""

    TAG = 9
    begin_lsn: int = 0
    att: dict[int, tuple[int, int]] = field(default_factory=dict)
    """{tid: (last_lsn, phase)} for transactions active at checkpoint begin."""
    dpt: dict[int, int] = field(default_factory=dict)
    """{page_id: recLSN} for pages dirty at checkpoint begin."""
    max_tid: int = 0
    """Highest TID allocated when the checkpoint was taken.  Recovery's
    TID-floor scan starts from this instead of reading the whole log (old
    images without the field decode as 0, forcing the full scan)."""

    def body_bytes(self) -> bytes:
        """Serialize this record type's body fields."""
        chunks: list[bytes] = [
            self.begin_lsn.to_bytes(8, "big"),
            len(self.att).to_bytes(4, "big"),
        ]
        for tid, (last_lsn, phase) in sorted(self.att.items()):
            chunks.append(tid.to_bytes(8, "big"))
            chunks.append(last_lsn.to_bytes(8, "big"))
            chunks.append(int(phase).to_bytes(1, "big"))
        chunks.append(len(self.dpt).to_bytes(4, "big"))
        for page_id, rec_lsn in sorted(self.dpt.items()):
            chunks.append(page_id.to_bytes(4, "big"))
            chunks.append(rec_lsn.to_bytes(8, "big"))
        chunks.append(self.max_tid.to_bytes(8, "big"))
        return b"".join(chunks)

    @classmethod
    def from_body(cls, tid: int, prev_lsn: int, body: _Reader) -> "CheckpointEnd":
        """Decode this record type's body fields from a log image."""
        begin_lsn = body.u(8)
        att: dict[int, tuple[int, int]] = {}
        for _ in range(body.u(4)):
            att_tid = body.u(8)
            att[att_tid] = (body.u(8), body.u(1))
        dpt: dict[int, int] = {}
        for _ in range(body.u(4)):
            page_id = body.u(4)
            dpt[page_id] = body.u(8)
        max_tid = body.u(8)   # 0 when decoding a pre-max_tid image
        return cls(
            tid=tid, prev_lsn=prev_lsn,
            begin_lsn=begin_lsn, att=att, dpt=dpt, max_tid=max_tid,
        )


@dataclass
class PTTDelete(LogRecord):
    """Garbage collection removed the PTT entry for ``subject_tid``."""

    TAG = 10
    REDO_ONLY = True
    subject_tid: int = 0

    def body_bytes(self) -> bytes:
        """Serialize this record type's body fields."""
        return self.subject_tid.to_bytes(8, "big")

    @classmethod
    def from_body(cls, tid: int, prev_lsn: int, body: _Reader) -> "PTTDelete":
        """Decode this record type's body fields from a log image."""
        return cls(tid=tid, prev_lsn=prev_lsn, subject_tid=body.u(8))


@dataclass
class StampOp(LogRecord):
    """Eager timestamping wrote a timestamp into a record before commit.

    Only the eager baseline emits these — they are exactly the "extra log
    operations" the paper charges against eager timestamping.  Redo stamps
    the named version again (idempotent: stamping a stamped record is a
    no-op at redo time).
    """

    TAG = 11
    REDO_ONLY = True
    table_id: int = 0
    page_id: int = 0
    key: bytes = b""
    ttime: int = 0
    sn: int = 0

    def affected_pages(self) -> tuple[int, ...]:
        return (self.page_id,)

    def redo(self, page: DataPage) -> None:
        """Stamp the transaction's still TID-marked version of the key."""
        for version in page.chain(self.key):
            if not version.is_timestamped and version.tid == self.tid:
                version.stamp(Timestamp(self.ttime, self.sn))
                break

    def body_bytes(self) -> bytes:
        """Serialize this record type's body fields."""
        chunks: list[bytes] = [
            self.table_id.to_bytes(4, "big"),
            self.page_id.to_bytes(4, "big"),
        ]
        _put_bytes(chunks, self.key, 2)
        chunks.append(self.ttime.to_bytes(8, "big"))
        chunks.append(self.sn.to_bytes(4, "big"))
        return b"".join(chunks)

    @classmethod
    def from_body(cls, tid: int, prev_lsn: int, body: _Reader) -> "StampOp":
        """Decode this record type's body fields from a log image."""
        table_id = body.u(4)
        page_id = body.u(4)
        key = body.blob(2)
        ttime = body.u(8)
        sn = body.u(4)
        return cls(
            tid=tid, prev_lsn=prev_lsn, table_id=table_id,
            page_id=page_id, key=key, ttime=ttime, sn=sn,
        )


@dataclass
class InPlaceUpdate(LogRecord):
    """Conventional (non-versioned) table update: payload replaced in place.

    Carries both images: redo installs ``after``, undo restores ``before``.
    Immortal tables never use this — their updates are :class:`VersionOp`s.
    """

    TAG = 12
    table_id: int = 0
    page_id: int = 0
    key: bytes = b""
    before: bytes = b""
    after: bytes = b""

    def affected_pages(self) -> tuple[int, ...]:
        return (self.page_id,)

    def redo(self, page: DataPage) -> None:
        page.replace_payload_in_place(self.key, self.after)

    def body_bytes(self) -> bytes:
        """Serialize this record type's body fields."""
        chunks: list[bytes] = [
            self.table_id.to_bytes(4, "big"),
            self.page_id.to_bytes(4, "big"),
        ]
        _put_bytes(chunks, self.key, 2)
        _put_bytes(chunks, self.before, 4)
        _put_bytes(chunks, self.after, 4)
        return b"".join(chunks)

    @classmethod
    def from_body(cls, tid: int, prev_lsn: int, body: _Reader) -> "InPlaceUpdate":
        """Decode this record type's body fields from a log image."""
        table_id = body.u(4)
        page_id = body.u(4)
        key = body.blob(2)
        before = body.blob(4)
        after = body.blob(4)
        return cls(
            tid=tid, prev_lsn=prev_lsn, table_id=table_id,
            page_id=page_id, key=key, before=before, after=after,
        )


@dataclass
class PrepareTxn(LogRecord):
    """Participant vote record for two-phase commit (presumed abort).

    Force-logged before the participant answers "prepared": after a crash
    the transaction must be restored *in doubt* — its write locks re-taken,
    its versions left TID-marked — because only the coordinator knows the
    outcome.  The record therefore carries everything lock reinstatement
    needs: the global transaction id and the (table_id, key) write set.
    ``ptt`` remembers whether the transaction touched an immortal table, so
    a post-recovery commit decision writes the same PTT entry the original
    commit would have.
    """

    TAG = 13
    gtid: int = 0
    ptt: bool = False
    writes: list[tuple[int, bytes]] = field(default_factory=list)

    def body_bytes(self) -> bytes:
        """Serialize this record type's body fields."""
        chunks: list[bytes] = [
            self.gtid.to_bytes(8, "big"),
            (b"\x01" if self.ptt else b"\x00"),
            len(self.writes).to_bytes(4, "big"),
        ]
        for table_id, key in self.writes:
            chunks.append(table_id.to_bytes(4, "big"))
            _put_bytes(chunks, key, 2)
        return b"".join(chunks)

    @classmethod
    def from_body(cls, tid: int, prev_lsn: int, body: _Reader) -> "PrepareTxn":
        """Decode this record type's body fields from a log image."""
        gtid = body.u(8)
        ptt = bool(body.u(1))
        writes = []
        for _ in range(body.u(4)):
            table_id = body.u(4)
            writes.append((table_id, body.blob(2)))
        return cls(tid=tid, prev_lsn=prev_lsn, gtid=gtid, ptt=ptt, writes=writes)


@dataclass
class CoordDecision(LogRecord):
    """Coordinator outcome record for a cross-shard transaction.

    Commit decisions are forced before any participant applies them — the
    decision *is* the commit point — and carry the authority-issued commit
    timestamp so post-crash resolution stamps the identical time on every
    shard.  Abort decisions are logged unforced: presumed abort means a lost
    abort record resolves to abort anyway.
    """

    TAG = 14
    gtid: int = 0
    commit: bool = False
    ttime: int = 0
    sn: int = 0
    shard_ids: list[int] = field(default_factory=list)

    def body_bytes(self) -> bytes:
        """Serialize this record type's body fields."""
        chunks: list[bytes] = [
            self.gtid.to_bytes(8, "big"),
            (b"\x01" if self.commit else b"\x00"),
            self.ttime.to_bytes(8, "big"),
            self.sn.to_bytes(4, "big"),
            len(self.shard_ids).to_bytes(2, "big"),
        ]
        for shard_id in self.shard_ids:
            chunks.append(shard_id.to_bytes(2, "big"))
        return b"".join(chunks)

    @classmethod
    def from_body(cls, tid: int, prev_lsn: int, body: _Reader) -> "CoordDecision":
        """Decode this record type's body fields from a log image."""
        gtid = body.u(8)
        commit = bool(body.u(1))
        ttime = body.u(8)
        sn = body.u(4)
        shard_ids = [body.u(2) for _ in range(body.u(2))]
        return cls(
            tid=tid, prev_lsn=prev_lsn, gtid=gtid, commit=commit,
            ttime=ttime, sn=sn, shard_ids=shard_ids,
        )


@dataclass
class CoordForget(LogRecord):
    """Every participant acknowledged the decision; the entry can be dropped.

    Replay stops tracking the gtid once its forget record appears, keeping
    the coordinator's in-memory decision table bounded (the presumed-abort
    "forget" step).
    """

    TAG = 15
    gtid: int = 0

    def body_bytes(self) -> bytes:
        """Serialize this record type's body fields."""
        return self.gtid.to_bytes(8, "big")

    @classmethod
    def from_body(cls, tid: int, prev_lsn: int, body: _Reader) -> "CoordForget":
        """Decode this record type's body fields from a log image."""
        return cls(tid=tid, prev_lsn=prev_lsn, gtid=body.u(8))


_RECORD_TYPES: dict[int, type[LogRecord]] = {
    cls.TAG: cls
    for cls in (
        BeginTxn, CommitTxn, AbortTxn, AbortEnd, VersionOp,
        MultiPageImage, CompensationRecord, CheckpointBegin,
        CheckpointEnd, PTTDelete, StampOp, InPlaceUpdate,
        PrepareTxn, CoordDecision, CoordForget,
    )
}
