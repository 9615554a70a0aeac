"""Media recovery & self-healing tests.

Covers: byte-identical single-page restore across seeds and corruption
modes, read-triggered auto-repair through the buffer fault handler, the
scrubber's detection matrix (checksum, decode, dropped-write staleness,
benign unborn pages), quarantine + graceful degradation with auto-repair
off, the transient-IO retry policy and its stats, crash-during-restore
idempotence, exception context fields, the structured IntegrityReport,
and a smoke pass of the crashtest harness's ``--media-faults`` mode.
"""

from __future__ import annotations

import random

import pytest

from repro import ColumnType, ImmortalDB
from repro.core.integrity import integrity_report, verify_integrity
from repro.errors import (
    ChecksumError,
    InjectedIOError,
    PageQuarantinedError,
)
from repro.faults.crashtest import CrashTestConfig, replay
from repro.faults.failpoints import FailpointRegistry, SimulatedCrash, installed
from repro.faults.models import FaultyDisk
from repro.repair import restore
from repro.repair.quarantine import Degraded
from repro.repair.scrub import Scrubber
from repro.storage.disk import InMemoryDisk, RetryPolicy
from repro.storage.page import DataPage, decode_page
from repro.timestamp.ptt import PTTNodePage
from repro.wal import recovery
from repro.wal.records import (
    CompensationRecord,
    InPlaceUpdate,
    MultiPageImage,
    StampOp,
    VersionOp,
    VersionOpKind,
)

COLS = [("k", ColumnType.INT), ("v", ColumnType.TEXT)]


def build_media_db(
    seed: int = 0,
    *,
    transactions: int = 120,
    keys: int = 24,
    buffer_pages: int = 16,
    value_pad: int = 400,
    mixed: bool = False,
    timestamping: str = "lazy",
):
    """A quiesced self-healing database after a seeded mixed workload.

    Returns ``(db, table, disk, expected, marks)`` where ``expected`` is
    the key -> value dict of the final committed state and ``marks`` is a
    list of ``(ts, snapshot)`` as-of marks taken at flush checkpoints.

    ``mixed`` makes restore replay every kind of record: each transaction
    also updates a conventional table ``c`` in place, about one in seven
    aborts (CLR images), and a quarter as many transactions again run
    after the last backup refresh — their pages are written back, so the
    disk is current and the backup is not.
    """
    disk = FaultyDisk(InMemoryDisk(), seed=seed)
    db = ImmortalDB(
        disk=disk, buffer_pages=buffer_pages, page_checksums=True,
        media_recovery=True, timestamping=timestamping,
    )
    table = db.create_table("t", COLS, key="k", immortal=True)
    plain = db.create_table("c", COLS, key="k", immortal=False) if mixed else None
    rng = random.Random(seed)
    expected: dict[int, str] = {}
    in_plain: set[int] = set()
    marks: list[tuple] = []

    def run(first: int, count: int, *, checkpoints: bool) -> None:
        for i in range(first, first + count):
            db.advance_time(rng.uniform(5.0, 120.0))
            key = rng.randrange(keys)
            delete = key in expected and rng.random() < 0.15
            abort = mixed and rng.random() < 0.15
            after = dict(expected)
            txn = db.begin()
            if delete:
                table.delete(txn, key)
                del after[key]
            else:
                value = f"s{seed}i{i}" + "x" * rng.randrange(value_pad)
                if key in expected:
                    table.update(txn, key, {"v": value})
                else:
                    table.insert(txn, {"k": key, "v": value})
                after[key] = value
            if plain is not None:
                if key in in_plain:
                    plain.update(txn, key, {"v": f"c{i}" + "y" * (i % 40)})
                else:
                    plain.insert(txn, {"k": key, "v": f"c{i}"})
            if abort:
                db.abort(txn)
            else:
                db.commit(txn)
                expected.clear()
                expected.update(after)
                in_plain.add(key)
            if checkpoints and i % 20 == 19:
                db.checkpoint(flush=True)
                marks.append((db.now(), dict(expected)))

    run(0, transactions, checkpoints=True)
    db.flush_commits()
    # Settle to a truly clean buffer: each flush checkpoint's PTT garbage
    # collection can re-dirty PTT pages, so checkpoint until none remain.
    for _ in range(4):
        db.checkpoint(flush=True)
        if not db.buffer.dirty_page_table():
            break
    if mixed:
        run(transactions, transactions // 4, checkpoints=False)
        db.flush_commits()
        db.buffer.flush_all()
    assert not db.buffer.dirty_page_table()
    return db, table, disk, expected, marks


def data_page_ids(disk: FaultyDisk, *, history: bool | None = None) -> list[int]:
    """Page ids whose on-disk image decodes as a DataPage."""
    pids = []
    for pid in range(disk.page_count):
        raw = disk.inner._read(pid)
        if not any(raw):
            continue
        try:
            page = decode_page(raw)
        except Exception:
            continue
        if isinstance(page, DataPage):
            if history is None or page.is_history == history:
                pids.append(pid)
    return pids


class TestByteIdenticalRestore:
    @pytest.mark.parametrize("seed,timestamping", [
        pytest.param(0, "lazy", id="0"),
        pytest.param(1, "lazy", id="1"),
        pytest.param(2, "lazy", id="2"),
        pytest.param(0, "eager", id="0-eager"),
        pytest.param(1, "eager", id="1-eager"),
    ])
    def test_every_page_restores_byte_identically(self, seed, timestamping):
        db, table, disk, expected, _ = build_media_db(
            seed, mixed=True, timestamping=timestamping
        )
        scrubber = Scrubber(db)
        modes = ("bitrot", "garbage", "zero")
        replayed: set[type] = set()
        for pid in range(disk.page_count):
            good = disk.inner._read(pid)
            if timestamping == "eager" and any(good) \
                    and isinstance(decode_page(good), PTTNodePage):
                # Eager commits never insert into the PTT, but their commit
                # records say ``ptt=True`` and restore refills a PTT page
                # from those: the restored page holds entries the live one
                # never had.  Harmless (nothing reads them) and not new.
                continue
            replayed.update(
                type(r) for r in db.repair.archive.records_for(
                    pid, after_lsn=db.repair.backup.image_lsn(pid))
            )
            disk.corrupt_stored(pid, mode=modes[pid % len(modes)])
            scrubber.full_pass()
            assert disk.inner._read(pid) == good, \
                f"seed {seed}: page {pid} not byte-identical after repair"
        # Every page-affecting record type went through restore's replay.
        stamps = {StampOp} if timestamping == "eager" else set()
        assert replayed >= {
            VersionOp, InPlaceUpdate, MultiPageImage, CompensationRecord,
        } | stamps
        assert scrubber.full_pass() == []
        assert verify_integrity(db) == []
        with db.transaction() as txn:
            assert {r["k"]: r["v"] for r in table.scan(txn)} == expected

    def test_restore_survives_archive_trimming(self):
        # The flush checkpoints inside build_media_db trim the archive; the
        # sweep above already restored through trimmed coverage, so here we
        # just pin the invariant that trimming actually happened.
        db, _, _, _, _ = build_media_db(0)
        assert db.repair.archive.records_trimmed > 0
        assert db.repair.stats.backup_refreshes > 0


class TestOneRedoTwoCallers:
    """Restart redo and page restore read a log record the same way.

    Each record is applied to the cached page by recovery's redo and to a
    detached copy by restore's replay, at an LSN below, at and above the
    page's own: both must skip together, and when they apply, produce the
    same bytes.
    """

    @staticmethod
    def _records(db):
        t = db.create_table("t", COLS, key="k", immortal=True)
        c = db.create_table("c", COLS, key="k", immortal=False)
        with db.transaction() as txn:
            for k in range(4):
                t.insert(txn, {"k": k, "v": f"t{k}"})
                c.insert(txn, {"k": k, "v": f"c{k}"})
        open_txn = db.begin()      # leaves a TID-marked version to stamp
        t.update(open_txn, 2, {"v": "unstamped"})
        key = t.codec.encode_key(2)
        t_page = t.btree.search_leaf(key)
        c_page = c.btree.search_leaf(key)
        payload = t_page.head(key).payload
        moved = decode_page(t_page.to_bytes())
        moved.remove_newest_version(key)
        ids = dict(table_id=t.table_id, page_id=t_page.page_id, key=key)
        return [
            VersionOp(tid=99, kind=VersionOpKind.UPDATE, payload=payload, **ids),
            VersionOp(tid=99, kind=VersionOpKind.DELETE, payload=b"", **ids),
            StampOp(tid=open_txn.tid, ttime=12345, sn=6, **ids),
            InPlaceUpdate(
                table_id=c.table_id, page_id=c_page.page_id, key=key,
                before=c_page.head(key).payload, after=payload,
            ),
            MultiPageImage(images=[(t_page.page_id, moved.to_bytes())]),
            CompensationRecord(images=[(t_page.page_id, moved.to_bytes())]),
        ]

    @pytest.mark.parametrize("delta", [-1, 0, 1], ids=["below", "at", "above"])
    @pytest.mark.parametrize("which", range(6), ids=[
        "version", "delete-stub", "stamp", "in-place", "smo-image", "clr-image",
    ])
    def test_guard_and_effect_agree(self, which, delta):
        db = ImmortalDB(buffer_pages=32)
        record = self._records(db)[which]
        (page_id,) = record.affected_pages()
        cached = db.buffer.get_page(page_id)
        before = cached.to_bytes()
        detached = decode_page(before)
        record.lsn = cached.lsn + delta

        report = recovery.RecoveryReport()
        if isinstance(record, (MultiPageImage, CompensationRecord)):
            recovery._install_images(db.buffer, record, report)
        else:
            recovery._redo_on_page(db.buffer, record, report)
        restored, applied = restore._apply(detached, page_id, record)

        redone = db.buffer.get_page(page_id).to_bytes()
        assert redone == restored.to_bytes()
        assert (report.redo_applied, report.redo_skipped) == (applied, 1 - applied)
        if delta <= 0:
            assert applied == 0 and redone == before
        else:
            assert applied == 1 and redone != before
            assert restored.lsn == record.lsn


class TestReadTriggeredRepair:
    def test_fault_on_read_repairs_transparently(self):
        db, table, disk, expected, _ = build_media_db(1)
        key = next(iter(expected))
        leaf = table.btree.search_leaf(table.codec.encode_key(key))
        pid = leaf.page_id
        db.buffer.discard_all()
        disk.corrupt_stored(pid, mode="garbage")
        with db.transaction() as txn:
            assert table.read(txn, key)["v"] == expected[key]
        assert db.repair.stats.page_faults >= 1
        assert db.repair.stats.pages_repaired >= 1
        assert len(db.repair.quarantine) == 0

    def test_repaired_page_lands_on_disk(self):
        db, table, disk, expected, _ = build_media_db(1)
        key = next(iter(expected))
        pid = table.btree.search_leaf(table.codec.encode_key(key)).page_id
        good = disk.inner._read(pid)
        db.buffer.discard_all()
        disk.corrupt_stored(pid, mode="bitrot")
        with db.transaction() as txn:
            table.read(txn, key)
        db.buffer.flush_all()
        assert disk.inner._read(pid) == good


class TestScrubber:
    def test_healthy_database_scrubs_clean(self):
        db, _, _, _, _ = build_media_db(0)
        scrubber = Scrubber(db)
        assert scrubber.full_pass(deep=True) == []
        assert scrubber.stats.pages_scanned > 0

    def test_checksum_damage_found_and_dispatched(self):
        db, _, disk, _, _ = build_media_db(0)
        pid = data_page_ids(disk)[0]
        disk.corrupt_stored(pid, mode="bitrot")
        scrubber = Scrubber(db)
        findings = scrubber.full_pass()
        assert any(
            f.page_id == pid and f.kind in ("checksum", "decode")
            for f in findings
        )
        assert scrubber.stats.repairs_dispatched >= 1
        assert scrubber.full_pass() == []

    def test_dropped_write_caught_by_staleness_probe(self):
        db, table, disk, expected, _ = build_media_db(0)
        key = next(iter(expected))
        pid = table.btree.search_leaf(table.codec.encode_key(key)).page_id
        old = disk.inner._read(pid)
        for i in range(3):
            with db.transaction() as txn:
                table.update(txn, key, {"v": f"fresh{i}" + "y" * 200})
        db.flush_commits()
        db.buffer.flush_all()
        new = disk.inner._read(pid)
        assert new != old
        # Silently lose the write: put the old, checksum-valid image back.
        disk.inner._write(pid, old)
        db.buffer.discard_all()
        scrubber = Scrubber(db)
        findings = scrubber.full_pass()
        assert any(
            f.page_id == pid and f.kind == "stale" for f in findings
        )
        assert disk.inner._read(pid) == new

    def test_zeroed_page_detected_as_lost_sector(self):
        db, _, disk, _, _ = build_media_db(0)
        pid = data_page_ids(disk)[0]
        good = disk.inner._read(pid)
        disk.corrupt_stored(pid, mode="zero")
        scrubber = Scrubber(db)
        findings = scrubber.full_pass()
        assert any(f.page_id == pid for f in findings)
        assert disk.inner._read(pid) == good

    def test_step_budget_is_respected(self):
        db, _, _, _, _ = build_media_db(0)
        scrubber = Scrubber(db, pages_per_step=3)
        scrubber.step()
        scanned = (
            scrubber.stats.pages_scanned + scrubber.stats.pages_skipped_dirty
        )
        assert scanned == 3


class TestQuarantineAndDegradation:
    def test_current_read_degrades_without_auto_repair(self):
        db, table, disk, expected, _ = build_media_db(2)
        db.repair.auto_repair = False
        key = next(iter(expected))
        pid = table.btree.search_leaf(table.codec.encode_key(key)).page_id
        db.buffer.discard_all()
        disk.corrupt_stored(pid, mode="garbage")
        with db.transaction() as txn:
            result = table.read(txn, key)
        assert isinstance(result, Degraded)
        assert not result           # falsy by design
        assert result.page_id == pid
        assert pid in db.repair.quarantine
        assert db.repair.stats.degraded_reads >= 1

    def test_explicit_repair_releases_quarantine(self):
        db, table, disk, expected, _ = build_media_db(2)
        db.repair.auto_repair = False
        key = next(iter(expected))
        pid = table.btree.search_leaf(table.codec.encode_key(key)).page_id
        db.buffer.discard_all()
        disk.corrupt_stored(pid, mode="garbage")
        with db.transaction() as txn:
            assert isinstance(table.read(txn, key), Degraded)
        assert db.repair.repair_page(pid)
        assert pid not in db.repair.quarantine
        with db.transaction() as txn:
            assert table.read(txn, key)["v"] == expected[key]

    def test_asof_reads_served_from_quarantined_history_page(self):
        db, table, disk, _, marks = build_media_db(
            2, transactions=200, keys=12, value_pad=600,
        )
        db.repair.auto_repair = False
        # Find a history page and a mark inside its time range: reads at
        # that horizon route to the page, and its stale quarantine image
        # (history pages are immutable) must answer them exactly.
        chosen = None
        for pid in data_page_ids(disk, history=True):
            page = decode_page(disk.inner._read(pid))
            for ts, snapshot in marks:
                if page.split_ts <= ts < page.end_ts:
                    chosen = (pid, ts, snapshot)
                    break
            if chosen:
                break
        assert chosen is not None, "workload produced no usable history page"
        pid, ts, snapshot = chosen
        db.buffer.discard_all()
        disk.corrupt_stored(pid, mode="garbage")
        degraded = 0
        for key, value in snapshot.items():
            result = table.read_as_of(ts, key)
            if isinstance(result, Degraded):
                degraded += 1       # horizon the stale image cannot vouch for
            else:
                assert result is not None and result["v"] == value
        assert pid in db.repair.quarantine
        assert degraded == 0


class TestRetryPolicy:
    def test_transient_read_errors_absorbed_and_counted(self):
        db, table, disk, expected, _ = build_media_db(3)
        key = next(iter(expected))
        db.buffer.discard_all()
        before = db.stats()
        disk.arm("read_error", 2)
        with db.transaction() as txn:
            assert table.read(txn, key)["v"] == expected[key]
        delta = db.stats()
        assert delta["io_read_retries"] - before["io_read_retries"] == 2
        assert delta["io_backoff_steps"] > before["io_backoff_steps"]

    def test_transient_write_errors_absorbed_and_counted(self):
        db, table, disk, _, _ = build_media_db(3)
        with db.transaction() as txn:
            table.insert(txn, {"k": 10_001, "v": "fresh"})
        disk.arm("write_error")
        db.flush_commits()
        db.buffer.flush_all()
        assert db.stats()["io_write_retries"] >= 1

    def test_exhausted_retries_surface_the_error(self):
        db, table, disk, expected, _ = build_media_db(3)
        key = next(iter(expected))
        db.buffer.discard_all()
        disk.arm("read_error", 10)   # more than max_attempts
        with pytest.raises(InjectedIOError):
            with db.transaction() as txn:
                table.read(txn, key)

    def test_backoff_is_deterministic(self):
        a = RetryPolicy(4, seed=7)
        b = RetryPolicy(4, seed=7)
        steps = [(a.backoff_steps(i), b.backoff_steps(i)) for i in (1, 2, 3)]
        assert all(x == y for x, y in steps)
        assert all(x > 0 for x, _ in steps)


class TestCrashDuringRestore:
    def test_crash_before_restore_write_is_idempotent(self):
        db, table, disk, expected, _ = build_media_db(4)
        pid = data_page_ids(disk)[0]
        disk.corrupt_stored(pid, mode="garbage")
        registry = FailpointRegistry()
        registry.crash_on("repair.restore.write")
        scrubber = Scrubber(db)
        with pytest.raises(SimulatedCrash):
            with installed(registry):
                scrubber.full_pass()
        db.crash()
        db.recover()
        table = db.table("t")
        # The page is still damaged on disk (the crash hit before the
        # write); a fresh scrub pass must finish the job cleanly.
        Scrubber(db).full_pass()
        assert Scrubber(db).full_pass() == []
        assert verify_integrity(db) == []
        with db.transaction() as txn:
            assert {r["k"]: r["v"] for r in table.scan(txn)} == expected


class TestExceptionContext:
    def test_checksum_error_carries_page_context(self):
        db, _, disk, _, _ = build_media_db(0)
        db.repair.auto_repair = False
        pid = data_page_ids(disk)[0]
        disk.corrupt_stored(pid, mode="bitrot")
        with pytest.raises(ChecksumError) as err:
            disk.read_page(pid)
        assert err.value.page_id == pid
        assert err.value.stored_crc != err.value.computed_crc

    def test_injected_io_error_carries_op_and_page(self):
        db, _, disk, _, _ = build_media_db(0)
        disk.arm("read_error", 10)
        with pytest.raises(InjectedIOError) as err:
            disk.read_page(1)
        assert err.value.page_id == 1
        assert err.value.op == "read"

    def test_quarantine_error_carries_page_id(self):
        db, table, disk, expected, _ = build_media_db(0)
        db.repair.auto_repair = False
        key = next(iter(expected))
        pid = table.btree.search_leaf(table.codec.encode_key(key)).page_id
        db.buffer.discard_all()
        disk.corrupt_stored(pid, mode="garbage")
        with pytest.raises(PageQuarantinedError) as err:
            db.buffer.get_page(pid)
        assert err.value.page_id == pid


class TestIntegrityReport:
    def test_structured_report_on_healthy_db(self):
        db, _, _, _, _ = build_media_db(0)
        report = integrity_report(db)
        assert report.ok
        assert report.findings == []
        assert report.messages() == []
        assert report.pages() == []

    def test_report_findings_carry_location(self):
        db, _, disk, _, _ = build_media_db(0)
        pid = data_page_ids(disk)[0]
        disk.corrupt_stored(pid, mode="bitrot")
        db.repair.auto_repair = False
        findings = Scrubber(db).full_pass()
        assert findings, "scrubber should have found the damage"
        finding = next(f for f in findings if f.page_id == pid)
        assert finding.kind in ("checksum", "decode")
        assert str(pid) in finding.detail


class TestMediaCrashtestSmoke:
    @pytest.mark.parametrize("crossing", [5, 250, 700])
    def test_media_fault_points_pass(self, crossing):
        config = CrashTestConfig(media_faults=True)
        report = replay(config, crossing)
        assert report.ok, report.problems
