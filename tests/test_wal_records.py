"""Codec tests for every log record type."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import LogFormatError
from repro.wal.records import (
    AbortEnd,
    AbortTxn,
    BeginTxn,
    CheckpointBegin,
    CheckpointEnd,
    CommitTxn,
    CompensationRecord,
    InPlaceUpdate,
    LogRecord,
    MultiPageImage,
    PTTDelete,
    SMOReason,
    StampOp,
    VersionOp,
    VersionOpKind,
)


def roundtrip(record: LogRecord) -> LogRecord:
    return LogRecord.decode(record.to_bytes())


class TestSimpleRecords:
    def test_begin(self):
        assert roundtrip(BeginTxn(tid=7, prev_lsn=0)) == BeginTxn(tid=7)

    def test_commit_carries_timestamp_and_ptt_flag(self):
        rec = CommitTxn(tid=3, prev_lsn=10, ttime=999, sn=4, page_id=17)
        back = roundtrip(rec)
        assert (back.ttime, back.sn, back.page_id) == (999, 4, 17)
        assert back.affected_pages() == (17,)

    def test_commit_without_ptt(self):
        back = roundtrip(CommitTxn(tid=1, ttime=5, sn=0))
        assert back.page_id == 0 and back.affected_pages() == ()

    def test_abort_pair(self):
        assert roundtrip(AbortTxn(tid=2, prev_lsn=5)).prev_lsn == 5
        assert roundtrip(AbortEnd(tid=2, prev_lsn=9)).tid == 2

    def test_ptt_delete(self):
        assert roundtrip(PTTDelete(subject_tid=88)).subject_tid == 88
        assert PTTDelete.REDO_ONLY


class TestVersionOp:
    @pytest.mark.parametrize("kind", list(VersionOpKind))
    def test_roundtrip_each_kind(self, kind):
        rec = VersionOp(
            tid=5, prev_lsn=100, kind=kind,
            table_id=2, page_id=9, key=b"\x00\x01", payload=b"data",
        )
        back = roundtrip(rec)
        assert back == rec

    def test_empty_payload_ok(self):
        rec = VersionOp(tid=1, kind=VersionOpKind.DELETE, key=b"k", payload=b"")
        assert roundtrip(rec).payload == b""

    @given(
        key=st.binary(max_size=64),
        payload=st.binary(max_size=200),
        tid=st.integers(1, 2**40),
        page=st.integers(0, 2**31),
    )
    def test_roundtrip_property(self, key, payload, tid, page):
        rec = VersionOp(
            tid=tid, kind=VersionOpKind.UPDATE,
            table_id=1, page_id=page, key=key, payload=payload,
        )
        assert roundtrip(rec) == rec


class TestMultiPageImage:
    def test_roundtrip(self):
        rec = MultiPageImage(
            reason=SMOReason.TIME_SPLIT,
            images=[(3, b"abc"), (4, b"defgh")],
        )
        back = roundtrip(rec)
        assert back.reason == SMOReason.TIME_SPLIT
        assert back.images == [(3, b"abc"), (4, b"defgh")]

    def test_is_redo_only(self):
        assert MultiPageImage.REDO_ONLY

    def test_empty_images_ok(self):
        assert roundtrip(MultiPageImage()).images == []


class TestCompensation:
    def test_roundtrip_with_undo_next(self):
        rec = CompensationRecord(
            tid=6, prev_lsn=3, undo_next_lsn=77, images=[(1, b"x" * 50)],
        )
        back = roundtrip(rec)
        assert back.undo_next_lsn == 77
        assert back.images == [(1, b"x" * 50)]


class TestCheckpointEnd:
    def test_roundtrip_tables(self):
        rec = CheckpointEnd(
            begin_lsn=40,
            att={5: (100, 0), 9: (200, 1)},
            dpt={2: 33, 7: 44},
        )
        back = roundtrip(rec)
        assert back.begin_lsn == 40
        assert back.att == {5: (100, 0), 9: (200, 1)}
        assert back.dpt == {2: 33, 7: 44}

    def test_empty_tables(self):
        back = roundtrip(CheckpointEnd(begin_lsn=1))
        assert back.att == {} and back.dpt == {}

    def test_checkpoint_begin(self):
        assert isinstance(roundtrip(CheckpointBegin()), CheckpointBegin)


class TestStampAndInPlace:
    def test_stamp_op_roundtrip(self):
        rec = StampOp(tid=4, table_id=1, page_id=2, key=b"k", ttime=10, sn=3)
        back = roundtrip(rec)
        assert (back.ttime, back.sn, back.key) == (10, 3, b"k")

    def test_in_place_roundtrip(self):
        rec = InPlaceUpdate(
            tid=4, table_id=1, page_id=2, key=b"k",
            before=b"old", after=b"newer",
        )
        back = roundtrip(rec)
        assert (back.before, back.after) == (b"old", b"newer")


class TestDecodeErrors:
    def test_unknown_tag(self):
        with pytest.raises(LogFormatError):
            LogRecord.decode(b"\xf0" + b"\x00" * 16)

    def test_truncated_header(self):
        with pytest.raises(LogFormatError):
            LogRecord.decode(b"\x01\x00")


class TestStructCodecsMatchTheFieldByFieldOnes:
    """The records on the write path pack their fixed fields with
    precompiled ``struct.Struct``s.  The field-by-field encoders they
    replaced are kept here as the reference: the WAL format is unchanged,
    so a log written before the change decodes after it and vice versa."""

    @staticmethod
    def reference(record: LogRecord) -> bytes:
        def u(value: int, width: int) -> bytes:
            return int(value).to_bytes(width, "big")

        def blob(data: bytes, width: int) -> bytes:
            return u(len(data), width) + data

        def images(pairs) -> bytes:
            return u(len(pairs), 2) + b"".join(
                u(pid, 4) + blob(image, 4) for pid, image in pairs
            )

        head = u(record.TAG, 1) + u(record.tid, 8) + u(record.prev_lsn, 8)
        if isinstance(record, CommitTxn):
            return head + u(record.ttime, 8) + u(record.sn, 4) + u(record.page_id, 4)
        if isinstance(record, VersionOp):
            return (head + u(record.kind, 1) + u(record.table_id, 4)
                    + u(record.page_id, 4) + blob(record.key, 2)
                    + blob(record.payload, 4))
        if isinstance(record, MultiPageImage):
            return head + u(record.reason, 1) + images(record.images)
        if isinstance(record, CompensationRecord):
            return head + u(record.undo_next_lsn, 8) + images(record.images)
        return head

    @given(
        tid=st.integers(0, 2**63), prev=st.integers(0, 2**62),
        key=st.binary(max_size=40), payload=st.binary(max_size=300),
        ttime=st.integers(0, 2**62), sn=st.integers(0, 2**32 - 1),
        pids=st.lists(st.integers(0, 2**32 - 1), max_size=3),
    )
    def test_same_bytes(self, tid, prev, key, payload, ttime, sn, pids):
        pairs = [(pid, payload + bytes([i])) for i, pid in enumerate(pids)]
        for record in (
            BeginTxn(tid=tid, prev_lsn=prev),
            AbortEnd(tid=tid, prev_lsn=prev),
            CommitTxn(tid=tid, prev_lsn=prev, ttime=ttime, sn=sn, page_id=sn // 3),
            VersionOp(tid=tid, prev_lsn=prev, kind=VersionOpKind(sn % 3),
                      table_id=sn, page_id=sn // 2, key=key, payload=payload),
            MultiPageImage(reason=SMOReason(sn % 5), images=pairs),
            CompensationRecord(tid=tid, prev_lsn=prev, undo_next_lsn=prev,
                               images=pairs),
        ):
            assert record.to_bytes() == self.reference(record)
            assert roundtrip(record) == record
