"""Unit tests for the AS OF routing helpers (repro.core.asof)."""

from __future__ import annotations

import pytest

from repro.clock import Timestamp
from repro.core.asof import AsOfStats, page_for_time, version_as_of
from repro.errors import AccessMethodError
from repro.storage.buffer import BufferPool
from repro.storage.disk import PageStore
from repro.storage.page import DataPage
from repro.storage.record import RecordVersion


def T(i: int) -> Timestamp:
    return Timestamp(i, 0)


@pytest.fixture
def buffer():
    return BufferPool(PageStore(), capacity=32)


def make_chain(buffer: BufferPool, ranges: list[tuple[int, int]]) -> DataPage:
    """Build a current page whose history chain covers the given ranges.

    ``ranges`` is oldest-first [(start, end), ...]; the current page's
    range starts at the last end.
    """
    pages = []
    for start, end in ranges:
        page = buffer.new_page(
            lambda pid: DataPage(pid, is_history=True, immortal=True)
        )
        page.split_ts = T(start)
        page.end_ts = T(end)
        pages.append(page)
    current = buffer.new_page(lambda pid: DataPage(pid, immortal=True))
    current.split_ts = T(ranges[-1][1]) if ranges else Timestamp.MIN
    for newer, older in zip(pages[1:] + [current], pages):
        newer.history_page_id = older.page_id
    return current


class TestPageForTime:
    def test_recent_time_stays_in_current_page(self, buffer):
        current = make_chain(buffer, [(0, 10), (10, 20)])
        assert page_for_time(buffer, current, T(25)) is current
        assert page_for_time(buffer, current, T(20)) is current

    def test_routes_to_correct_history_page(self, buffer):
        current = make_chain(buffer, [(0, 10), (10, 20)])
        assert page_for_time(buffer, current, T(15)).split_ts == T(10)
        assert page_for_time(buffer, current, T(10)).split_ts == T(10)
        assert page_for_time(buffer, current, T(5)).split_ts == T(0)

    def test_time_before_history_is_none(self, buffer):
        current = make_chain(buffer, [(5, 10), (10, 20)])
        assert page_for_time(buffer, current, T(2)) is None

    def test_unsplit_page_covers_everything(self, buffer):
        current = make_chain(buffer, [])
        assert page_for_time(buffer, current, T(1)) is current

    def test_stats_count_hops(self, buffer):
        current = make_chain(buffer, [(0, 10), (10, 20), (20, 30)])
        stats = AsOfStats()
        page_for_time(buffer, current, T(5), stats)
        assert stats.chain_hops == 3
        assert stats.pages_examined == 1
        page_for_time(buffer, current, T(35), stats)
        assert stats.chain_hops == 3  # no new hops for a current-page hit

    def test_corrupt_chain_detected(self, buffer):
        current = make_chain(buffer, [(0, 10)])
        not_history = buffer.new_page(lambda pid: DataPage(pid))
        current.history_page_id = not_history.page_id
        with pytest.raises(AccessMethodError):
            page_for_time(buffer, current, T(5))


class TestVersionAsOf:
    def _page(self) -> DataPage:
        page = DataPage(1, immortal=True)
        for t in (10, 20, 30):
            rec = RecordVersion.new(b"k", f"v{t}".encode(), tid=1)
            rec.stamp(T(t))
            page.insert_version(rec)
        return page

    def _resolve(self, tid):
        return None, False

    def test_exact_boundary_inclusive(self):
        page = self._page()
        got = version_as_of(page, b"k", T(20), self._resolve)
        assert got.payload == b"v20"

    def test_between_versions(self):
        page = self._page()
        got = version_as_of(page, b"k", T(25), self._resolve)
        assert got.payload == b"v20"

    def test_before_first_version(self):
        page = self._page()
        assert version_as_of(page, b"k", T(5), self._resolve) is None

    def test_missing_key(self):
        page = self._page()
        assert version_as_of(page, b"nope", T(25), self._resolve) is None

    def test_delete_stub_returned_raw(self):
        page = self._page()
        stub = RecordVersion.new(b"k", b"", tid=1, delete_stub=True)
        stub.stamp(T(40))
        page.insert_version(stub)
        got = version_as_of(page, b"k", T(45), self._resolve)
        assert got.is_delete_stub
