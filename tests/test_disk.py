"""Tests for the page store on both devices and its I/O accounting."""

from __future__ import annotations

import pytest

from repro.errors import PageNotFoundError, StorageError
from repro.storage.constants import META_PAGE_ID, PAGE_SIZE
from repro.storage.device import FileDevice
from repro.storage.disk import PageStore, stamp_checksum


@pytest.fixture(params=["memory", "file"])
def disk(request, tmp_path):
    if request.param == "memory":
        return PageStore()
    return PageStore(FileDevice(tmp_path / "test.db"))


class TestPageStore:
    def test_meta_page_always_exists(self, disk):
        assert disk.exists(META_PAGE_ID)
        assert disk.read_page(META_PAGE_ID) == bytes(PAGE_SIZE)

    def test_allocate_then_write_then_read(self, disk):
        pid = disk.allocate()
        image = bytes([7]) * PAGE_SIZE
        disk.write_page(pid, image)
        assert disk.read_page(pid) == stamp_checksum(image)

    def test_allocation_ids_are_sequential(self, disk):
        assert [disk.allocate() for _ in range(3)] == [1, 2, 3]

    def test_fresh_page_is_zeroed(self, disk):
        pid = disk.allocate()
        assert disk.read_page(pid) == bytes(PAGE_SIZE)

    def test_read_unallocated_page_fails(self, disk):
        with pytest.raises(PageNotFoundError):
            disk.read_page(999)

    def test_write_unallocated_page_fails(self, disk):
        with pytest.raises(PageNotFoundError):
            disk.write_page(999, bytes(PAGE_SIZE))

    def test_wrong_image_size_rejected(self, disk):
        pid = disk.allocate()
        with pytest.raises(StorageError):
            disk.write_page(pid, b"short")

    def test_page_count_tracks_allocations(self, disk):
        base = disk.page_count
        disk.allocate()
        disk.allocate()
        assert disk.page_count == base + 2


class TestIOAccounting:
    def test_reads_and_writes_counted(self, disk):
        pid = disk.allocate()
        disk.write_page(pid, bytes(PAGE_SIZE))
        disk.read_page(pid)
        disk.read_page(pid)
        assert disk.stats.writes == 1
        assert disk.stats.reads == 2

    def test_sequential_classification(self, disk):
        pids = [disk.allocate() for _ in range(4)]
        for pid in pids:
            disk.read_page(pid)
        # pids are 1,2,3,4: three of the four reads follow their predecessor.
        assert disk.stats.sequential_reads == 3
        assert disk.stats.random_reads == 1

    def test_random_classification(self, disk):
        pids = [disk.allocate() for _ in range(5)]
        disk.read_page(pids[4])
        disk.read_page(pids[0])
        disk.read_page(pids[3])
        assert disk.stats.sequential_reads == 0


class TestFileDiskPersistence:
    def test_reopen_preserves_pages(self, tmp_path):
        path = tmp_path / "persist.db"
        disk = PageStore(FileDevice(path))
        pid = disk.allocate()
        disk.write_page(pid, bytes([9]) * PAGE_SIZE)
        disk.close()

        reopened = PageStore(FileDevice(path))
        assert reopened.page_count == 2
        assert reopened.read_page(pid) == stamp_checksum(bytes([9]) * PAGE_SIZE)
        reopened.close()

    def test_corrupt_size_rejected(self, tmp_path):
        path = tmp_path / "bad.db"
        path.write_bytes(b"x" * 100)
        with pytest.raises(StorageError):
            PageStore(FileDevice(path))

    def test_reopen_sees_the_same_page_count(self, tmp_path):
        path = tmp_path / "count.db"
        disk = PageStore(FileDevice(path))
        for _ in range(5):
            disk.allocate()                 # ids taken, never written
        count = disk.page_count
        disk.close()
        assert path.stat().st_size == count * PAGE_SIZE
        reopened = PageStore(FileDevice(path))
        assert reopened.page_count == count == 6
        assert reopened.read_page(5) == bytes(PAGE_SIZE)
        reopened.close()

    def test_growth_the_device_lost_reads_as_never_written(self, tmp_path):
        # The file lost its tail (a power loss took the growth back): the id
        # is below page_count, the positional read comes back empty, and
        # the page reads as allocated but never written.
        path = tmp_path / "short.db"
        disk = PageStore(FileDevice(path))
        pid = disk.allocate()
        disk.device.truncate(pid * PAGE_SIZE)
        assert disk.read_page(pid) == bytes(PAGE_SIZE)
        disk.crash()                # reopening goes by what the file holds
        assert disk.page_count == pid
        disk.extend(pid + 1)        # restart's answer: a record names it
        assert disk.read_page(pid) == bytes(PAGE_SIZE)
        disk.close()

    def test_write_to_an_unallocated_id_leaves_the_file_alone(self, tmp_path):
        path = tmp_path / "refuse.db"
        disk = PageStore(FileDevice(path))
        disk.allocate()
        with pytest.raises(PageNotFoundError):
            disk.write_page(2, bytes([1]) * PAGE_SIZE)   # one past the end
        assert path.stat().st_size == 2 * PAGE_SIZE
        assert disk.page_count == 2
        disk.close()

    def test_writes_are_in_the_file_without_a_close(self, tmp_path):
        # Unbuffered: a process that dies without close() loses nothing the
        # store was handed (the OS cache survives the process).
        path = tmp_path / "nobuffer.db"
        disk = PageStore(FileDevice(path))
        pid = disk.allocate()
        disk.write_page(pid, bytes([3]) * PAGE_SIZE)
        assert path.read_bytes()[pid * PAGE_SIZE:] == \
            stamp_checksum(bytes([3]) * PAGE_SIZE)
        disk.close()
