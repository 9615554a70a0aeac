"""Failpoint registry and fault-model tests.

Covers: determinism of seeded fire schedules, the crash/arming policies,
zero-cost behavior when no registry is installed, every FaultyDevice fault
model in isolation, page CRC32 checksums (stamp, verify, detection of torn
writes and bit-rot), and the torn-log-tail injector.
"""

from __future__ import annotations

import pytest

from repro import ColumnType, ImmortalDB
from repro.errors import ChecksumError, InjectedIOError
from repro.faults.failpoints import (
    FailpointRegistry,
    SimulatedCrash,
    fire,
    installed,
    installed_registry,
)
from repro.faults.models import FaultyDevice
from repro.storage.constants import PAGE_SIZE
from repro.storage.device import FileDevice, MemoryDevice
from repro.storage.disk import (
    PageStore,
    page_checksum,
    stamp_checksum,
    verify_checksum,
)
from repro.storage.page import MetaPage
from repro.wal.filelog import FileLogManager
from repro.wal.records import BeginTxn, CommitTxn
from tests.test_filelog import tear_log_tail


COLS = [("k", ColumnType.INT), ("v", ColumnType.TEXT)]


def run_small_workload(db: ImmortalDB, table) -> None:
    with db.transaction() as txn:
        table.insert(txn, {"k": 1, "v": "one"})
    with db.transaction() as txn:
        table.update(txn, 1, {"v": "two"})
    db.checkpoint(flush=True)


class TestFailpointRegistry:
    def test_uninstalled_fire_is_a_noop(self):
        assert installed_registry() is None
        fire("anything.at.all")  # must not raise, must not record anywhere

    def test_counts_and_trace(self):
        reg = FailpointRegistry()
        reg.trace_on()
        with installed(reg):
            fire("a")
            fire("b")
            fire("a")
        assert reg.hits == {"a": 2, "b": 1}
        assert reg.crossings == 3
        assert reg.trace == ["a", "b", "a"]

    def test_registry_not_left_installed_after_context(self):
        with installed(FailpointRegistry()):
            assert installed_registry() is not None
        assert installed_registry() is None

    def test_crash_at_global_crossing(self):
        reg = FailpointRegistry()
        reg.crash_at(2)
        with installed(reg), pytest.raises(SimulatedCrash) as exc:
            for name in ("a", "b", "c", "d"):
                fire(name)
        assert exc.value.crossing == 2
        assert exc.value.name == "c"

    def test_crash_on_named_hit(self):
        reg = FailpointRegistry()
        reg.crash_on("b", hit=2)
        with installed(reg), pytest.raises(SimulatedCrash):
            fire("b")
            fire("a")
            fire("b")   # second hit of "b"
            fire("a")

    def test_simulated_crash_passes_through_except_exception(self):
        # A crash models a process kill: `except Exception` must not eat it.
        with pytest.raises(SimulatedCrash):
            try:
                raise SimulatedCrash(0, "x")
            except Exception:  # noqa: BLE001 - the point of the test
                pytest.fail("SimulatedCrash was absorbed by except Exception")

    def test_seeded_probability_schedule_is_deterministic(self):
        def schedule(seed: int) -> list[int]:
            reg = FailpointRegistry(seed=seed)
            fired: list[int] = []
            reg.on("p", lambda event: fired.append(event.crossing),
                   probability=0.4)
            with installed(reg):
                for _ in range(50):
                    fire("p")
            return fired

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)

    def test_workload_fire_schedule_is_deterministic(self):
        def trace() -> list[str]:
            db = ImmortalDB(buffer_pages=16)
            table = db.create_table("t", COLS, key="k", immortal=True)
            reg = FailpointRegistry()
            reg.trace_on()
            with installed(reg):
                run_small_workload(db, table)
            assert reg.trace is not None
            return reg.trace

        first, second = trace(), trace()
        assert first == second
        assert len(first) > 10
        # The engine threads failpoints through every documented seam.
        seams = {name.split(".")[0] for name in first}
        assert {"log", "txn", "checkpoint", "buffer", "disk"} <= seams

    def test_disabled_failpoints_change_no_engine_counters(self):
        def stats() -> dict:
            db = ImmortalDB(buffer_pages=16)
            table = db.create_table("t", COLS, key="k", immortal=True)
            run_small_workload(db, table)
            return db.stats()

        baseline = stats()
        reg = FailpointRegistry()
        with installed(reg):
            traced = stats()
        assert traced == baseline
        assert reg.crossings > 0


def _meta_image(disk, pid: int, blob: bytes) -> bytes:
    return MetaPage(pid, blob, page_size=disk.page_size).to_bytes()


class TestChecksums:
    def test_stamp_and_verify_roundtrip(self):
        raw = _meta_image(PageStore(), 1, b"payload")
        stamped = stamp_checksum(raw)
        assert stamped != raw
        verify_checksum(stamped, 1)  # no raise

    def test_zero_field_means_unchecked(self):
        raw = _meta_image(PageStore(), 1, b"payload")
        verify_checksum(raw, 1)  # codecs serialize CRC as 0: skip verify

    def test_corruption_detected(self):
        raw = stamp_checksum(_meta_image(PageStore(), 1, b"payload"))
        corrupt = bytearray(raw)
        corrupt[100] ^= 0x40
        with pytest.raises(ChecksumError):
            verify_checksum(bytes(corrupt), 1)

    def test_checksum_never_zero(self):
        assert page_checksum(bytes(8192)) != 0

    def test_engine_flag_survives_full_crash_recovery_cycle(self):
        db = ImmortalDB(buffer_pages=16, page_checksums=True)
        table = db.create_table("t", COLS, key="k", immortal=True)
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "checked"})
        mark = db.now()
        db.advance_time(500)
        with db.transaction() as txn:
            table.update(txn, 1, {"v": "still checked"})
        db.crash_and_recover()
        table = db.table("t")
        with db.transaction() as txn:
            assert table.read(txn, 1)["v"] == "still checked"
        assert table.read_as_of(mark, 1)["v"] == "checked"


class TestFaultyDisk:
    """The faults one at a time, on a page store over a ``FaultyDevice``."""

    # Blobs fill ~8000 of the 8192 bytes so a tear at any offset lands in
    # bytes that actually differ between versions.
    def _fresh(self, **kwargs) -> tuple[PageStore, FaultyDevice, int, bytes]:
        device = FaultyDevice(MemoryDevice(), **kwargs)
        disk = PageStore(device)
        disk.checksums = True
        pid = disk.allocate()
        image = stamp_checksum(_meta_image(disk, pid, b"v1" * 4000))
        return disk, device, pid, image

    def test_clean_passthrough(self):
        disk, device, pid, image = self._fresh()
        disk.write_page(pid, image)
        assert disk.read_page(pid) == image
        assert disk.stats.writes == 1 and disk.stats.reads == 1
        assert device.inner.read(PAGE_SIZE, pid * PAGE_SIZE) == image

    def test_torn_write_detected_by_checksum(self):
        disk, device, pid, image = self._fresh()
        disk.write_page(pid, image)
        device.arm("torn_write")
        v2 = stamp_checksum(_meta_image(disk, pid, b"v2" * 4000))
        disk.write_page(pid, v2)
        with pytest.raises(ChecksumError):
            disk.read_page(pid)
        assert device.injected["torn_write"] == 1

    def test_torn_write_silent_without_checksums(self):
        disk, device, pid, image = self._fresh()
        disk.checksums = False
        disk.write_page(pid, image)
        device.arm("torn_write")
        v2 = _meta_image(disk, pid, b"v2" * 4000)
        disk.write_page(pid, v2)
        got = disk.read_page(pid)   # no error: this is the silent-damage case
        assert got != v2 and got != image

    def test_dropped_write_keeps_old_image(self):
        disk, device, pid, image = self._fresh()
        disk.write_page(pid, image)
        device.arm("dropped_write")
        disk.write_page(pid, stamp_checksum(_meta_image(disk, pid, b"new")))
        assert disk.read_page(pid) == image

    def test_bitrot_detected_by_checksum(self):
        disk, device, pid, image = self._fresh()
        disk.write_page(pid, image)
        device.arm("bitrot_read")
        with pytest.raises(ChecksumError):
            disk.read_page(pid)
        assert disk.read_page(pid) == image  # rot was transient (in-cache copy)

    def test_transient_io_errors(self):
        disk, device, pid, image = self._fresh()
        device.arm("write_error")
        with pytest.raises(InjectedIOError):
            disk.write_page(pid, image)
        disk.write_page(pid, image)   # retry succeeds
        device.arm("read_error")
        with pytest.raises(InjectedIOError):
            disk.read_page(pid)
        assert disk.read_page(pid) == image

    def test_seeded_probabilistic_faults_are_deterministic(self):
        def injected(seed: int):
            device = FaultyDevice(MemoryDevice(), seed=seed, dropped_write_p=0.3)
            disk = PageStore(device)
            pid = disk.allocate()
            image = _meta_image(disk, pid, b"x")
            for _ in range(40):
                disk.write_page(pid, image)
            return dict(device.injected)

        assert injected(3) == injected(3)
        assert injected(3)["dropped_write"] > 0

    def test_unknown_fault_kind_rejected(self):
        device = FaultyDevice(MemoryDevice())
        with pytest.raises(ValueError):
            device.arm("lightning_strike")

    def test_engine_runs_on_faulty_disk(self):
        # The engine takes its devices from an opener; checksums catch
        # corruption on the next physical read of a flushed page.
        device = FaultyDevice(MemoryDevice())
        db = ImmortalDB(
            devices=lambda name: device if name == "pages" else None,
            page_checksums=True, buffer_pages=16,
        )
        table = db.create_table("t", COLS, key="k", immortal=True)
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "hello"})
        db.buffer.flush_all()
        db.buffer.discard_all()   # force the next read to hit the disk
        device.arm("bitrot_read")
        with pytest.raises(ChecksumError):
            db.buffer.get_page(db.table("t").btree.root_pid)

    def test_faults_reach_the_log_file(self, tmp_path):
        # The same model under the log: a dropped log write leaves its
        # frames out of the file, and the load scan stops before them.
        device = FaultyDevice(FileDevice(tmp_path / "wal.log"))
        log = FileLogManager(device)
        log.append(BeginTxn(tid=1))
        log.force()
        device.arm("dropped_write")
        log.append(BeginTxn(tid=2))
        log.force()
        assert device.injected["dropped_write"] == 1
        log.crash()
        assert [r.tid for r in log.records_from(0)] == [1]


class TestTornLogTail:
    def _make_log(self, path) -> int:
        log = FileLogManager(path)
        log.append(BeginTxn(tid=1))
        # Ends in a non-zero byte: in a preallocated file the bytes of a
        # final write that never landed read as zeros.
        log.append(CommitTxn(tid=2, ttime=9, sn=2, page_id=1))
        log.force()
        log.close()
        import os

        return os.path.getsize(path)

    def test_drop_bytes_truncates_final_record(self, tmp_path):
        path = tmp_path / "wal.log"
        self._make_log(path)
        tear_log_tail(path, drop_bytes=3)
        reopened = FileLogManager(path)
        assert [r.tid for r in reopened.records_from(0)] == [1]
        reopened.close()

    def test_garble_corrupts_final_record(self, tmp_path):
        path = tmp_path / "wal.log"
        self._make_log(path)
        tear_log_tail(path, garble_at=-2)   # inside the last frame's record
        reopened = FileLogManager(path)
        assert [r.tid for r in reopened.records_from(0)] == [1]
        reopened.close()

    def test_garble_offset_out_of_range(self, tmp_path):
        path = tmp_path / "wal.log"
        size = self._make_log(path)
        with pytest.raises(ValueError):
            tear_log_tail(path, garble_at=size + 10)
