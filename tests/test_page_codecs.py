"""Page codecs against the encoders they replaced.

The data-page, PTT-node and B-tree index-node encoders join precompiled
``struct`` packs of a node's parts.  The field-at-a-time encoders they
replaced are kept here as the reference: for any page, the image must be
theirs byte for byte, and decoding it must give back the page.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.access.btree import BTreeIndexPage
from repro.clock import Timestamp, encode_tid_field
from repro.errors import PageFormatError
from repro.storage.constants import (
    COMMON_HEADER_SIZE,
    DATA_HEADER_SIZE,
    PAGE_SIZE,
    SLOT_SIZE,
)
from repro.storage.page import DataPage, MetaPage, decode_page, read_data_header
from repro.storage.record import RECORD_HEAD, RECORD_TAIL, RecordVersion
from repro.timestamp.ptt import ENTRY_SIZE, PTTNodePage


# -- the encoders the engine had before, one field at a time -------------------

def reference_data_image(page: DataPage) -> bytes:
    buf = bytearray(page.page_size)
    buf[0:COMMON_HEADER_SIZE] = page._common_header()
    at = COMMON_HEADER_SIZE
    for value, width in (
        (len(page.slots), 2), (len(page.versions), 2),
        (page.split_ts.ttime, 8), (page.split_ts.sn, 4),
        (page.end_ts.ttime, 8), (page.end_ts.sn, 4),
        (page.history_page_id, 4), (page.next_leaf_id, 4), (page.table_id, 4),
    ):
        buf[at : at + width] = value.to_bytes(width, "big")
        at += width
    offset = DATA_HEADER_SIZE
    for v in page.versions:
        RECORD_HEAD.pack_into(buf, offset, v.flags, len(v.key), len(v.payload))
        body = offset + RECORD_HEAD.size
        buf[body : body + len(v.key)] = v.key
        buf[body + len(v.key) : body + len(v.key) + len(v.payload)] = v.payload
        tail = body + len(v.key) + len(v.payload)
        RECORD_TAIL.pack_into(buf, tail, v.vp, v.ttime_field, v.sn)
        offset = tail + RECORD_TAIL.size
    at = page.page_size - SLOT_SIZE * len(page.slots)
    for head in page.slots:
        buf[at : at + 2] = head.to_bytes(2, "big")
        at += 2
    return bytes(buf)


def reference_ptt_image(node: PTTNodePage) -> bytes:
    buf = bytearray(node.page_size)
    buf[0:COMMON_HEADER_SIZE] = node._common_header()
    at = COMMON_HEADER_SIZE
    header = COMMON_HEADER_SIZE + 8
    buf[at] = 1 if node.is_leaf else 0
    if node.is_leaf:
        buf[at + 1 : at + 3] = len(node.tids).to_bytes(2, "big")
        buf[at + 3 : at + 7] = node.next_leaf.to_bytes(4, "big")
        pos = header
        for tid, ttime, sn in zip(node.tids, node.ttimes, node.sns):
            buf[pos : pos + 8] = tid.to_bytes(8, "big")
            buf[pos + 8 : pos + 16] = ttime.to_bytes(8, "big")
            buf[pos + 16 : pos + 20] = sn.to_bytes(4, "big")
            pos += ENTRY_SIZE
    else:
        buf[at + 1 : at + 3] = len(node.children).to_bytes(2, "big")
        pos = header
        for i, child in enumerate(node.children):
            sep = node.seps[i - 1] if i else 0
            buf[pos : pos + 8] = sep.to_bytes(8, "big")
            buf[pos + 8 : pos + 12] = child.to_bytes(4, "big")
            pos += 12
    return bytes(buf)


def reference_index_image(node: BTreeIndexPage) -> bytes:
    parts = [node._common_header(), len(node.children).to_bytes(2, "big"), b"\0\0"]
    for i, pid in enumerate(node.children):
        parts.append(pid.to_bytes(4, "big"))
        if i < len(node.seps):
            parts += (len(node.seps[i]).to_bytes(2, "big"), node.seps[i])
    return b"".join(parts).ljust(node.page_size, b"\x00")


# -- data pages ------------------------------------------------------------------

_version = st.tuples(
    st.integers(0, 11),                         # key number
    st.binary(min_size=0, max_size=2100),       # payload (the workloads write 2,048)
    st.booleans(),                              # stamped, or still a TID
    st.integers(0, (1 << 62) - 1),              # ttime / tid
    st.integers(0, 0xFFFFFFFF),                 # sn
)


def _data_page(versions, header) -> DataPage:
    is_history, split, end, history_pid, next_leaf, table_id, lsn = header
    page = DataPage(9, is_history=is_history, table_id=table_id, immortal=True)
    page.split_ts, page.end_ts = Timestamp(*split), Timestamp(*end)
    page.history_page_id, page.next_leaf_id, page.lsn = history_pid, next_leaf, lsn
    for keynum, payload, stamped, ttime, sn in versions:
        record = RecordVersion.new(b"key%02d" % keynum, payload, tid=1)
        record.ttime_field = ttime if stamped else encode_tid_field(ttime % (1 << 40) + 1)
        record.sn = sn if stamped else 0
        try:
            page.insert_version(record)
        except Exception:       # full: what fitted is the page under test
            break
    return page


_ts = st.tuples(st.integers(0, (1 << 62) - 1), st.integers(0, 0xFFFFFFFE))
_header = st.tuples(
    st.booleans(), _ts, _ts, st.integers(0, 0xFFFFFFFF), st.integers(0, 0x7FFFFFFF),
    st.integers(0, 0xFFFF), st.integers(0, (1 << 63) - 1),
)


class TestDataPageCodec:
    @settings(max_examples=60, deadline=None)
    @given(versions=st.lists(_version, max_size=70), header=_header)
    def test_image_is_the_reference_encoders_and_round_trips(self, versions, header):
        page = _data_page(versions, header)
        image = page.to_bytes()
        assert image == reference_data_image(page)
        decoded = decode_page(image)
        assert isinstance(decoded, DataPage)
        assert decoded.to_bytes() == image
        for name in ("page_id", "lsn", "header_flags", "table_id", "page_size",
                     "versions", "slots", "_slot_keys", "split_ts", "end_ts",
                     "history_page_id", "next_leaf_id", "used_bytes",
                     "is_history", "immortal"):
            assert getattr(decoded, name) == getattr(page, name), name
        assert decoded.has_unstamped_records() == page.has_unstamped_records()
        assert read_data_header(image) == (
            page.is_history, page.end_ts.key,
            page.history_page_id, page.next_leaf_id,
        )

    @staticmethod
    def _image(n: int = 5) -> bytearray:
        page = DataPage(4)
        for i in range(n):
            page.insert_version(RecordVersion.new(b"k%d" % i, b"p" * 20, tid=3))
        return bytearray(page.to_bytes())

    def test_slot_past_the_version_area_is_refused(self):
        image = self._image()
        image[PAGE_SIZE - SLOT_SIZE * 2 : PAGE_SIZE - SLOT_SIZE] = (5).to_bytes(2, "big")
        with pytest.raises(PageFormatError, match="slot 3 points past version area"):
            DataPage.from_bytes(bytes(image))

    def test_unsorted_slot_array_is_refused(self):
        image = self._image()
        image[PAGE_SIZE - SLOT_SIZE * 5 : PAGE_SIZE - SLOT_SIZE * 3] = (
            (1).to_bytes(2, "big") + (0).to_bytes(2, "big")
        )
        with pytest.raises(PageFormatError, match="not key-ordered"):
            DataPage.from_bytes(bytes(image))

    def test_truncated_record_is_refused(self):
        image = self._image()
        # The last record claims a payload running past the page's end.
        last = DATA_HEADER_SIZE + 4 * (RECORD_HEAD.size + 2 + 20 + RECORD_TAIL.size)
        RECORD_HEAD.pack_into(image, last, 0, 2, 0xFFF0)
        with pytest.raises(PageFormatError, match="truncated record"):
            DataPage.from_bytes(bytes(image))

    def test_truncated_middle_record_is_refused(self):
        # The decoder reads a middle record's tail together with the next
        # record's head, and the last record's tail alone: both must refuse.
        image = self._image()
        middle = DATA_HEADER_SIZE + 2 * (RECORD_HEAD.size + 2 + 20 + RECORD_TAIL.size)
        RECORD_HEAD.pack_into(image, middle, 0, 2, 0xFFF0)
        with pytest.raises(PageFormatError, match="truncated record"):
            DataPage.from_bytes(bytes(image))

    @staticmethod
    def _filled(extra: int) -> DataPage:
        """Three records ending ``extra`` bytes past the slot area; the last
        is appended by hand, so ``insert_version`` cannot refuse it first."""
        page = DataPage(4)
        page.insert_version(RecordVersion.new(b"a", b"p" * 2048, tid=3))
        page.insert_version(RecordVersion.new(b"b", b"q" * 256, tid=3))
        room = page.free_bytes - SLOT_SIZE - (RECORD_HEAD.size + 1 + RECORD_TAIL.size)
        page.versions.append(RecordVersion.new(b"c", b"r" * (room + extra), tid=3))
        page.slots.append(2)
        page._slot_keys.append(b"c")
        page.touch()
        return page

    def test_records_filling_the_page_exactly_round_trip(self):
        page = self._filled(0)
        image = page.to_bytes()
        assert len(image) == PAGE_SIZE and image == reference_data_image(page)
        decoded = DataPage.from_bytes(image)
        assert decoded.versions == page.versions and decoded.slots == page.slots
        assert decoded.free_bytes == 0 and decoded.to_bytes() == image

    def test_one_byte_past_the_slot_area_is_refused(self):
        with pytest.raises(PageFormatError, match="overflows its image"):
            self._filled(1).to_bytes()

    def test_payload_past_the_length_field_is_refused(self):
        page = DataPage(4)
        page.versions.append(RecordVersion.new(b"k", bytes(65536), tid=3))
        page.slots.append(0)
        page._slot_keys.append(b"k")
        with pytest.raises(PageFormatError, match="overflows its image"):
            page.to_bytes()

    def test_not_a_data_page_is_refused(self):
        with pytest.raises(PageFormatError, match="not a data page"):
            DataPage.from_bytes(PTTNodePage(3).to_bytes())
        assert read_data_header(PTTNodePage(3).to_bytes()) is None

    def test_two_decodes_of_one_image_are_two_cache_identities(self):
        image = bytes(self._image())
        first, second = decode_page(image), decode_page(image)
        assert first.cache_token != second.cache_token
        assert first.to_bytes() == image and second.to_bytes() == image


# -- PTT nodes ---------------------------------------------------------------------

_LEAF_FULL = PTTNodePage(1).leaf_capacity
_FANOUT = PTTNodePage(1).fanout


def _leaf(count: int, seed: int) -> PTTNodePage:
    node = PTTNodePage(11, is_leaf=True)
    node.tids = [seed + 3 * i for i in range(count)]
    node.ttimes = [(seed * 7919 + i) % (1 << 62) for i in range(count)]
    node.sns = [(seed + i * 65537) % (1 << 32) for i in range(count)]
    node.next_leaf = seed % 1000
    node.lsn = seed
    return node


def _internal(children: int, seed: int) -> PTTNodePage:
    node = PTTNodePage(12, is_leaf=False)
    node.children = [seed % 50 + i for i in range(children)]
    node.seps = [seed + 10 * i for i in range(1, children)]
    return node


class TestPTTNodeCodec:
    @pytest.mark.parametrize("count", [0, 1, 2, _LEAF_FULL - 1, _LEAF_FULL])
    def test_leaf_round_trip(self, count):
        node = _leaf(count, seed=1234567)
        image = node.to_bytes()
        assert len(image) == PAGE_SIZE and image == reference_ptt_image(node)
        decoded = decode_page(image)
        assert isinstance(decoded, PTTNodePage) and decoded.is_leaf
        assert (decoded.tids, decoded.ttimes, decoded.sns, decoded.next_leaf) == (
            node.tids, node.ttimes, node.sns, node.next_leaf)
        assert decoded.lsn == node.lsn and decoded.to_bytes() == image

    @pytest.mark.parametrize("children", [0, 1, 2, _FANOUT - 1, _FANOUT])
    def test_internal_round_trip(self, children):
        node = _internal(children, seed=424242)
        image = node.to_bytes()
        assert len(image) == PAGE_SIZE and image == reference_ptt_image(node)
        decoded = decode_page(image)
        assert isinstance(decoded, PTTNodePage) and not decoded.is_leaf
        assert (decoded.seps, decoded.children) == (node.seps, node.children)
        assert decoded.tids == [] and decoded.to_bytes() == image

    @settings(max_examples=40, deadline=None)
    @given(count=st.integers(0, _LEAF_FULL), seed=st.integers(0, 1 << 40))
    def test_leaf_property(self, count, seed):
        node = _leaf(count, seed)
        assert node.to_bytes() == reference_ptt_image(node)
        assert decode_page(node.to_bytes()).tids == node.tids

    def test_overfull_node_refuses_to_encode(self):
        # The field-at-a-time encoder grew its bytearray past the page here.
        with pytest.raises(PageFormatError):
            _leaf(_LEAF_FULL + 1, seed=5).to_bytes()

    def test_count_overrunning_the_page_is_refused(self):
        image = bytearray(_leaf(3, seed=5).to_bytes())
        image[COMMON_HEADER_SIZE + 1 : COMMON_HEADER_SIZE + 3] = (
            (_LEAF_FULL + 1).to_bytes(2, "big"))
        with pytest.raises(PageFormatError):
            PTTNodePage.from_bytes(bytes(image))


# -- B-tree index nodes --------------------------------------------------------------

class TestIndexNodeCodec:
    @settings(max_examples=60, deadline=None)
    @given(
        seps=st.lists(st.binary(min_size=0, max_size=24), max_size=200),
        first=st.integers(1, 0x7FFFFFFF),
    )
    def test_image_is_the_reference_encoders_and_round_trips(self, seps, first):
        node = BTreeIndexPage(6)
        node.set_entries(sorted(seps), [first + i for i in range(len(seps) + 1)])
        image = node.to_bytes()
        assert len(image) == PAGE_SIZE and image == reference_index_image(node)
        decoded = decode_page(image)
        assert (decoded.seps, decoded.children) == (node.seps, node.children)
        assert decoded.used_bytes == node.used_bytes
        assert decoded.to_bytes() == image

    def test_empty_node(self):
        node = BTreeIndexPage(6)
        assert node.to_bytes() == reference_index_image(node)
        assert decode_page(node.to_bytes()).children == []

    @staticmethod
    def _small_node() -> bytearray:
        node = BTreeIndexPage(6)
        node.set_entries([b"m", b"t"], [10, 11, 12])
        return bytearray(node.to_bytes())

    def test_separator_running_past_the_page_is_refused(self):
        image = self._small_node()
        # child 10 | len 1, "m" | child 11 | len of "t", claimed 9000
        at = COMMON_HEADER_SIZE + 4 + 4 + 2 + 1 + 4
        image[at : at + 2] = (9000).to_bytes(2, "big")
        with pytest.raises(PageFormatError, match="overrun"):
            BTreeIndexPage.from_bytes(bytes(image))

    def test_garbled_count_is_refused(self):
        # One entry too many reads a child id of 0 (the meta page) and an
        # empty separator out of the zero padding.
        image = self._small_node()
        image[COMMON_HEADER_SIZE : COMMON_HEADER_SIZE + 2] = (4).to_bytes(2, "big")
        with pytest.raises(PageFormatError, match="overrun"):
            BTreeIndexPage.from_bytes(bytes(image))
        # Over non-zero garbage the entries run off the page's end.
        end = COMMON_HEADER_SIZE + 4 + 3 * 4 + 2 * 3
        image[end:] = b"\x01" * (PAGE_SIZE - end)
        image[COMMON_HEADER_SIZE : COMMON_HEADER_SIZE + 2] = (0xFFFF).to_bytes(2, "big")
        with pytest.raises(PageFormatError, match="overrun"):
            BTreeIndexPage.from_bytes(bytes(image))


class TestMetaPageCodec:
    def test_round_trip(self):
        page = MetaPage(0, b"catalog")
        assert MetaPage.from_bytes(page.to_bytes()).blob == b"catalog"

    @pytest.mark.parametrize("length", [PAGE_SIZE - COMMON_HEADER_SIZE - 3, 0xFFFFFFFF])
    def test_length_running_past_the_page_is_refused(self, length):
        image = bytearray(MetaPage(0, b"catalog").to_bytes())
        image[COMMON_HEADER_SIZE : COMMON_HEADER_SIZE + 4] = length.to_bytes(4, "big")
        with pytest.raises(PageFormatError, match="overruns"):
            MetaPage.from_bytes(bytes(image))
