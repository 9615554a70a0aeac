"""Cold-history archive tiering: codec, migration, crash and quarantine.

The invariant under test everywhere: migrating history off the TSB tree
into the delta-compressed archive must be *observationally invisible* —
every as-of point read, history scan and range scan answers identically
before and after migration, across crashes in the middle of migration,
and (degraded, not wrong) when a stored block is damaged.
"""

from __future__ import annotations

import gc
import os
import random
import struct
import weakref
import zlib

import pytest

from repro import PROFILES
from repro.archive import delta, manager as archive_manager
from repro.archive.delta import decode_block, encode_block
from repro.archive.store import ArchiveStore, ArchiveStoreError
from repro.clock import Timestamp, encode_tid_field
from repro.core.engine import ImmortalDB
from repro.core.integrity import integrity_report, page_accounting, verify_integrity
from repro.core.rowcodec import ColumnType
from repro.errors import PageFormatError, PageQuarantinedError
from repro.faults.crashtest import (
    CrashTestConfig,
    enumerate_crossings,
    replay,
)
from repro.faults.failpoints import FailpointRegistry, installed
from repro.faults.models import FaultyDisk
from repro.repair.quarantine import Degraded
from repro.storage.constants import ARCHIVE_PID_BIT, NO_PAGE
from repro.storage.disk import InMemoryDisk
from repro.storage.framing import HEADER, scan
from repro.storage.page import DataPage
from repro.storage.record import RecordVersion
from repro.wal import recovery

ARCHIVE_FAST = {"cold_ms": 200.0, "pages_per_step": 64, "auto": False}


def _build(seed: int = 0, *, rounds: int = 30, keys: int = 8,
           pad: int = 500, **db_kwargs) -> tuple[ImmortalDB, object, list]:
    """A db with enough updated history to force time splits, plus marks."""
    db = ImmortalDB(archive=dict(ARCHIVE_FAST), **db_kwargs)
    table = db.create_table(
        "hist", [("k", ColumnType.INT), ("v", ColumnType.TEXT)],
        key="k", immortal=True,
    )
    filler = "v" * pad
    marks = []
    alive: set[int] = set()
    for r in range(rounds):
        for k in range(keys):
            with db.transaction() as txn:
                value = f"{filler}:s{seed}:r{r}:k{k}"
                if k not in alive:
                    table.insert(txn, {"k": k, "v": value})
                    alive.add(k)
                elif (r + k + seed) % 11 == 3:
                    table.delete(txn, k)
                    alive.discard(k)
                else:
                    table.update(txn, k, {"v": value})
        db.advance_time(60)
        marks.append(db.now())
    db.checkpoint(flush=True)
    return db, table, marks


def _answers(db: ImmortalDB, table, marks, keys: int = 8) -> dict:
    point = {
        (i, k): table.read_as_of(ts, k)
        for i, ts in enumerate(marks) for k in range(keys)
    }
    history = {k: table.history(k) for k in range(keys)}
    scans = {
        i: sorted(
            (row["k"], row["v"]) for row in table.scan_as_of(ts)
        )
        for i, ts in enumerate(marks[:: max(1, len(marks) // 6)])
    }
    return {"point": point, "history": history, "scans": scans}


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------


class TestBlockCodec:
    def test_round_trip_is_byte_identical(self):
        """decode(encode(page)) rebuilds the exact on-disk image."""
        db, table, _ = _build()
        checked = 0
        for leaf in table.btree.leaves():
            pid = leaf.history_page_id
            while pid != NO_PAGE and not pid & ARCHIVE_PID_BIT:
                page = db.buffer.get_page(pid)
                clone = decode_block(encode_block(page), page.page_id)
                assert clone.to_bytes() == page.to_bytes()
                checked += 1
                pid = page.history_page_id
        assert checked >= 5, "workload produced too few history pages"
        db.close()

    def test_blocks_compress_cold_history(self):
        """Versions of one key differ by a few bytes: ≥2x on the wire."""
        db, table, _ = _build(pad=500)
        ratios = []
        for leaf in table.btree.leaves():
            pid = leaf.history_page_id
            while pid != NO_PAGE and not pid & ARCHIVE_PID_BIT:
                page = db.buffer.get_page(pid)
                ratios.append(page.used_bytes / len(encode_block(page)))
                pid = page.history_page_id
        assert ratios and min(ratios) > 1.0
        assert sum(ratios) / len(ratios) >= 2.0
        db.close()

    def test_damaged_blob_raises_page_format_error(self):
        db, table, _ = _build(rounds=10)
        leaf = next(iter(table.btree.leaves()))
        page = db.buffer.get_page(leaf.history_page_id)
        blob = encode_block(page)
        for bad in (b"", blob[:-9], b"\x00" * 16, zlib.compress(b"junk")):
            with pytest.raises(PageFormatError):
                decode_block(bad, page.page_id)
        db.close()


def _eager_decode(doc: bytes) -> tuple[list[RecordVersion], list[int]]:
    """A plain decoder of the block layout, kept as the reference: field by
    field and every version rebuilt up front, so whatever is wrong with a
    document is found on the spot.  Returns (versions, slots)."""
    if doc[: len(delta.BLOCK_MAGIC)] != delta.BLOCK_MAGIC:
        raise PageFormatError("bad magic")
    try:
        (_, _, _, split_ttime, split_sn, end_ttime, end_sn, *_,
         nkeys, nversions, nslots) = delta._BLOCK_HEADER.unpack_from(
            doc, len(delta.BLOCK_MAGIC)
        )
        offset = len(delta.BLOCK_MAGIC) + delta._BLOCK_HEADER.size
        fixed = []      # key lengths, the table's eight columns, the slots
        for code, times in zip(
            "HBHQIHHHHH", (nkeys,) + (nversions,) * 8 + (nslots,)
        ):
            column = []
            for _ in range(times):
                column.append(struct.unpack_from(">" + code, doc, offset)[0])
                offset += struct.calcsize(code)
            fixed.append(column)
    except struct.error as exc:
        raise PageFormatError(f"truncated: {exc}") from exc
    key_lens, *columns, slots = fixed
    keys = []
    for klen in key_lens:
        keys.append(doc[offset : offset + klen])
        if len(keys[-1]) != klen:
            raise PageFormatError("truncated in key table")
        offset += klen
    versions: list[RecordVersion] = []
    bases: dict[int, bytes] = {}
    for flags, vp, ttime_field, sn, key_idx, prefix, suffix, mlen in zip(*columns):
        if key_idx >= nkeys:
            raise PageFormatError("bad key index")
        middle = doc[offset : offset + mlen]
        if len(middle) != mlen:
            raise PageFormatError("truncated in payload")
        offset += mlen
        base = bases.get(key_idx)
        if base is None:
            if prefix or suffix:
                raise PageFormatError("delta precedes its base")
            payload = bases[key_idx] = middle
        else:
            payload = base[:prefix] + middle + (
                base[len(base) - suffix :] if suffix else b""
            )
        versions.append(
            RecordVersion(keys[key_idx], payload, flags, vp, ttime_field, sn)
        )
    if offset != len(doc):
        raise PageFormatError("bytes past the payload area")
    if any(slot >= nversions for slot in slots):
        raise PageFormatError("slot points past version area")
    # The page header's two timestamps: out of range is a ValueError, which
    # ``materialize`` quarantines like any other failure to open.
    Timestamp(split_ttime, split_sn), Timestamp(end_ttime, end_sn)
    return versions, slots


def _table_offsets(doc: bytes) -> tuple[int, int, int]:
    """Where the version table starts, how many rows it has, and where the
    slots that follow it end."""
    *_, nkeys, nversions, nslots = delta._BLOCK_HEADER.unpack_from(
        doc, len(delta.BLOCK_MAGIC)
    )
    table_at = len(delta.BLOCK_MAGIC) + delta._BLOCK_HEADER.size + 2 * nkeys
    row = struct.calcsize(">BHQIHHHH")
    return table_at, nversions, table_at + row * nversions + 2 * nslots


class TestLazyOpen:
    """A block is validated whole when it is opened and its versions are
    built later: nothing the eager decoder caught may surface later."""

    @staticmethod
    def _document() -> bytes:
        """A real block with raw and delta payloads and several chains."""
        db, table, _ = _build(rounds=12, pad=120)
        pages = []
        for leaf in table.btree.leaves():
            pid = leaf.history_page_id
            while pid != NO_PAGE:
                pages.append(db.buffer.get_page(pid))
                pid = pages[-1].history_page_id
        blob = encode_block(max(pages, key=lambda p: len(p.versions)))
        db.close()
        _, _, _, _, _, prefixes, suffixes, _ = \
            decode_block(blob, ARCHIVE_PID_BIT).block.columns
        assert set(map(bool, map(max, prefixes, suffixes))) == {True, False}
        return zlib.decompress(blob)

    @staticmethod
    def _open(doc: bytes):
        """Lazy open, then everything a later reader could ask of the page."""
        page = decode_block(zlib.compress(doc, 1), ARCHIVE_PID_BIT | 7)
        for key in page.keys():
            page.block.chain_view(key)
        return page.versions, page.slots

    def _agrees_with_eager(self, doc: bytes) -> str:
        refusal = (PageFormatError, ValueError)
        try:
            want = _eager_decode(doc)
        except refusal:
            with pytest.raises(refusal):
                self._open(doc)
            return "both refuse"
        try:
            got = self._open(doc)
        except refusal:
            return "lazy is stricter"     # allowed: it refuses at open
        assert got == want
        return "both accept"

    def test_every_truncation_is_refused_at_open(self):
        doc = self._document()
        assert self._agrees_with_eager(doc) == "both accept"
        for cut in range(len(doc)):
            assert self._agrees_with_eager(doc[:cut]) == "both refuse", cut

    def test_bit_flips_are_refused_at_open_or_decode_the_same(self):
        doc = self._document()
        rng = random.Random(1606)
        # Every bit of the structured front (header, key table, the first
        # version heads), and a sample of the rest.
        positions = list(range(8 * 160)) + rng.sample(
            range(8 * 160, 8 * len(doc)), 1500
        )
        verdicts = dict.fromkeys(
            ("both refuse", "both accept", "lazy is stricter"), 0
        )
        for bit in positions:
            flipped = bytearray(doc)
            flipped[bit // 8] ^= 1 << (bit % 8)
            verdicts[self._agrees_with_eager(bytes(flipped))] += 1
        assert verdicts["both refuse"] and verdicts["both accept"]

    def test_damage_is_found_by_materialize_not_by_a_later_read(self):
        db, table, marks = _build()
        db.archive.drain()
        victim = _archived_ref_pids(db)[0]
        blocks = db.archive.store._blocks
        position = victim & ~ARCHIVE_PID_BIT
        raw_bytes, blob = blocks[position]
        doc = bytearray(zlib.decompress(blob))
        # Point the last slot past the version area: valid zlib, valid
        # heads, and nothing a reader of the other keys would ever touch.
        _, _, slots_end = _table_offsets(bytes(doc))
        doc[slots_end - 2 : slots_end] = b"\xff\xff"
        blocks[position] = (raw_bytes, zlib.compress(bytes(doc)))
        with pytest.raises(PageQuarantinedError):
            db.archive.materialize(victim)
        assert victim in db.archive.quarantined
        db.close()


    def test_a_tid_marked_version_is_refused(self):
        """Archived chains are stamped throughout: migration only moves
        stamped pages, and ``_check_archive`` holds it of every block."""
        doc = bytearray(self._document())
        table_at, nversions, _ = _table_offsets(bytes(doc))
        doc[table_at + 3 * nversions] |= 0x80   # version 0's ttime, top bit
        with pytest.raises(PageFormatError, match="TID-marked"):
            decode_block(zlib.compress(bytes(doc)), ARCHIVE_PID_BIT)

    def test_a_payload_area_of_the_wrong_length_is_refused(self):
        doc = self._document()
        for bad in (doc + b"x", doc[:-1]):
            with pytest.raises(PageFormatError, match="wrong length"):
                decode_block(zlib.compress(bad), ARCHIVE_PID_BIT)

    def test_old_format_blocks_are_refused(self):
        doc = b"IAB1" + self._document()[len(delta.BLOCK_MAGIC):]
        with pytest.raises(PageFormatError, match="magic"):
            decode_block(zlib.compress(doc), ARCHIVE_PID_BIT)


class TestDecodedBlockLifetime:
    def test_lru_bounds_decoded_blocks_and_their_views(self, monkeypatch):
        """``max_cached_pages`` is how many decoded blocks are alive — pages,
        indexes and chain views — however many are read (PageViewCache used
        to keep up to 1,024 views of evicted blocks, versions and all)."""
        cap = 2
        db, table, marks = _build(asof_route_cache=True)
        db.archive.config.max_cached_pages = cap
        db.archive.drain()
        assert len(db.archive.store) > 3 * cap
        alive: list[weakref.ref] = []
        real = archive_manager.decode_block

        def tracking(blob, page_id):
            page = real(blob, page_id)
            alive.extend((weakref.ref(page), weakref.ref(page.block)))
            return page

        monkeypatch.setattr(archive_manager, "decode_block", tracking)
        gc.disable()        # refcounts alone must free them: no page<->view cycle
        try:
            views = []
            for pid in _archived_ref_pids(db):
                views.append(weakref.ref(db.archive.materialize(pid).view))
            for k in range(8):
                table.history(k)
                for ts in marks[:8]:
                    table.read_as_of(ts, k)
            table.scan_as_of(marks[1])
            for pid in db.archive._cache:
                views.append(weakref.ref(db.archive._cache[pid].view))
            assert db.archive.stats.block_reads > len(db.archive.store)
            assert sum(ref() is not None for ref in alive) == 2 * cap
            assert sum(ref() is not None for ref in views) == cap
        finally:
            gc.enable()
        db.close()


# ---------------------------------------------------------------------------
# store
# ---------------------------------------------------------------------------


class TestArchiveStore:
    def test_position_is_the_ref(self):
        store = ArchiveStore()
        assert [store.append_block(b, n) for b, n in
                ((b"one", 10), (b"two", 20), (b"three", 30))] == [0, 1, 2]
        assert store.read_block(1) == b"two"
        assert (len(store), store.raw_bytes, store.stored_bytes) == (3, 60, 11)
        for position in (-1, 3):
            with pytest.raises(ArchiveStoreError):
                store.read_block(position)

    def test_crash_drops_unsynced_tail(self):
        store = ArchiveStore()
        a = store.append_block(b"one", 10)
        store.sync()
        store.append_block(b"two", 20)
        store.crash()
        assert len(store) == 1 and store.raw_bytes == 10
        assert store.read_block(a) == b"one"
        # The position the lost block had is handed out again.
        assert store.append_block(b"again", 5) == 1

    def test_file_reopen_ignores_torn_tail(self, tmp_path):
        path = str(tmp_path / "arch")
        store = ArchiveStore(path)
        a = store.append_block(b"alpha", 100)
        b = store.append_block(b"beta", 200)
        store.sync()
        store.close()
        with open(path, "ab") as fh:  # torn frame: header, no payload
            fh.write(b"\x00\x00\x00\x00\x09")
        reopened = ArchiveStore(path)
        assert len(reopened) == reopened.durable_count == 2
        assert reopened.read_block(a) == b"alpha"
        assert reopened.read_block(b) == b"beta"
        assert (reopened.raw_bytes, reopened.stored_bytes) == (300, 9)
        reopened.close()

    @pytest.mark.parametrize("damage", ["bit flip", "zero length"])
    def test_reopen_stops_at_a_damaged_frame(self, tmp_path, damage):
        """Every byte of a frame's payload — the ``used_bytes`` prefix too —
        is inside its CRC: a damaged frame and everything behind it are
        dropped, and the next append takes the first dropped position."""
        path = str(tmp_path / "arch")
        store = ArchiveStore(path)
        for n, blob in enumerate((b"alpha", b"beta", b"gamma")):
            store.append_block(blob, 100 + n)
        store.close()
        with open(path, "rb") as fh:
            data = fh.read()
        second = scan(data)[0][1]           # offset of the second frame
        with open(path, "r+b") as fh:
            if damage == "bit flip":        # in the used_bytes prefix
                fh.seek(second + HEADER.size + 3)
                fh.write(bytes([data[second + HEADER.size + 3] ^ 0x01]))
            else:
                fh.seek(second)
                fh.write(bytes(4))
        reopened = ArchiveStore(path)
        assert len(reopened) == reopened.durable_count == 1
        assert reopened.read_block(0) == b"alpha"
        assert reopened.append_block(b"delta", 7) == 1
        reopened.close()
        again = ArchiveStore(path)
        assert [again.read_block(i) for i in range(len(again))] == [
            b"alpha", b"delta",
        ]
        assert again.raw_bytes == 107
        again.close()


# ---------------------------------------------------------------------------
# migration equivalence
# ---------------------------------------------------------------------------


class TestMigrationEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_reads_identical_after_migration(self, seed):
        db, table, marks = _build(seed)
        before = _answers(db, table, marks)
        moved = db.archive.drain()
        assert moved > 0
        assert db.stats()["archive_pages_freed"] == moved
        assert _answers(db, table, marks) == before
        assert verify_integrity(db) == []
        db.close()

    def test_equivalence_with_route_cache(self):
        db, table, marks = _build(asof_route_cache=True)
        before = _answers(db, table, marks)
        db.archive.drain()
        assert _answers(db, table, marks) == before
        # A second pass comes from the warmed route/page-view caches.
        assert _answers(db, table, marks) == before
        db.close()

    def test_migration_survives_crash_recovery(self):
        db, table, marks = _build()
        before = _answers(db, table, marks)
        db.archive.drain()
        db.crash()
        db.recover()
        table = db.table("hist")
        assert _answers(db, table, marks) == before
        assert verify_integrity(db) == []
        db.close()

    def test_freed_pages_are_reused(self):
        db, table, _ = _build()
        moved = db.archive.drain()
        assert moved > 0
        freed = set(db.disk.free_list.to_list())
        assert len(freed) == moved
        page_count = db.disk.page_count
        # New history growth should consume the freed pids, smallest first.
        expected_first = min(freed)
        for r in range(12):
            for k in range(8):
                with db.transaction() as txn:
                    try:
                        table.update(txn, k, {"v": "y" * 500 + str(r)})
                    except Exception:
                        table.insert(txn, {"k": k, "v": "y" * 500 + str(r)})
            db.advance_time(60)
        db.checkpoint(flush=True)
        assert db.disk.stats.free_reuses > 0
        # Reuse absorbed the growth: far fewer fresh pages than history added.
        assert db.disk.page_count - page_count < db.disk.stats.free_reuses + 12
        assert expected_first not in db.disk.free_list
        db.close()

    def test_storage_shrinks_at_least_2x(self):
        db, _, _ = _build(pad=400)
        db.archive.drain()
        s = db.stats()
        assert s["archive_bytes_raw"] >= 2 * s["archive_bytes_stored"]
        db.close()

    @pytest.mark.parametrize("pages_per_step", [1, 3, 64])
    def test_nothing_dead_is_ever_written(self, tmp_path, pages_per_step):
        """However the migration is cut into steps, the store file is its
        blocks and their frames (8 B header + 4 B ``used_bytes``) — no
        byte in it is superseded by a later one."""
        path = str(tmp_path / "db.pages")
        db, table, marks = _build(path=path, rounds=40)
        db.archive.config.pages_per_step = pages_per_step
        before = _answers(db, table, marks)
        while db.archive.step():
            store = db.archive.store
            assert os.path.getsize(path + ".archive") == (
                store.stored_bytes + 12 * len(store)
            )
        assert len(db.archive.store) == db.archive.stats.pages_migrated > 10
        assert _answers(db, table, marks) == before
        db.close()

    def test_auto_mode_migrates_during_checkpoints(self):
        db = ImmortalDB(
            archive={"cold_ms": 200.0, "pages_per_step": 8, "auto": True}
        )
        table = db.create_table(
            "auto", [("k", ColumnType.INT), ("v", ColumnType.TEXT)],
            key="k", immortal=True,
        )
        for r in range(30):
            for k in range(8):
                with db.transaction() as txn:
                    if r == 0:
                        table.insert(txn, {"k": k, "v": "z" * 500})
                    else:
                        table.update(txn, k, {"v": "z" * 500 + str(r)})
            db.advance_time(60)
            if r % 5 == 4:
                db.checkpoint()
        assert db.stats()["archive_pages_migrated"] > 0
        db.close()

    def test_defaults_have_no_archive_side_effects(self):
        db = ImmortalDB()
        assert db.archive is None
        assert len(db.disk.free_list) == 0
        table = db.create_table(
            "plain", [("k", ColumnType.INT), ("v", ColumnType.TEXT)],
            key="k", immortal=True,
        )
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "x"})
        db.checkpoint(flush=True)
        # The catalog blob must stay byte-identical to the pre-archive
        # format (no "free_pids" key) so figure baselines cannot move.
        assert b"free_pids" not in db.catalog.to_blob()
        assert db.stats()["archive_pages_migrated"] == 0
        db.close()


# ---------------------------------------------------------------------------
# durability across reopen (file-backed)
# ---------------------------------------------------------------------------


class TestFileBackedArchive:
    def test_reopen_serves_archived_history(self, tmp_path):
        path = str(tmp_path / "db.pages")
        db = ImmortalDB(path=path, archive=dict(ARCHIVE_FAST))
        table = db.create_table(
            "hist", [("k", ColumnType.INT), ("v", ColumnType.TEXT)],
            key="k", immortal=True,
        )
        marks = []
        for r in range(25):
            for k in range(6):
                with db.transaction() as txn:
                    if r == 0:
                        table.insert(txn, {"k": k, "v": f"{'p' * 500}:{r}"})
                    else:
                        table.update(txn, k, {"v": f"{'p' * 500}:{r}:{k}"})
            db.advance_time(60)
            marks.append(db.now())
        db.checkpoint(flush=True)
        before = _answers(db, table, marks, keys=6)
        assert db.archive.drain() > 0
        tick = db.clock.tick
        db.close()

        db2 = ImmortalDB(path=path, archive=dict(ARCHIVE_FAST))
        db2.clock.advance_ms((tick + 1) * 20)
        table2 = db2.table("hist")
        assert _answers(db2, table2, marks, keys=6) == before
        assert db2.stats()["archive_block_reads"] > 0
        assert verify_integrity(db2) == []
        db2.close()


# ---------------------------------------------------------------------------
# crash-during-migration sweep
# ---------------------------------------------------------------------------


class TestCrashDuringMigration:
    def test_every_archive_crossing_recovers_clean(self):
        """Crash at each archive.migrate.* / archive.read.* crossing."""
        config = CrashTestConfig(
            archive=True, profile="tuned", transactions=60
        )
        names = enumerate_crossings(config)
        crossings = [
            i for i, name in enumerate(names) if name.startswith("archive.")
        ]
        assert crossings, "workload never reached the archive seams"
        assert {names[i] for i in crossings} == {
            "archive.migrate.select", "archive.migrate.append",
            "archive.migrate.sync", "archive.migrate.relink",
            "archive.migrate.free", "archive.read.block",
            "archive.read.decode",
        }
        failures = []
        for crossing in crossings:
            report = replay(config, crossing)
            if not report.ok:
                failures.append((crossing, report.name, report.problems))
        assert not failures, failures


# ---------------------------------------------------------------------------
# migration under buffer pressure (found by benchmarks/e2e, PR 12)
# ---------------------------------------------------------------------------


PRESSURE_ARCHIVE = dict(cold_ms=5000, pages_per_step=32)


def _pressure_db(rng, *, keys: int, buffer_pages: int, **engine):
    """The e2e ``oltp_pressure`` shape: mixed value lengths, auto-migration
    (``engine``, when given, replaces the read-ahead and archive settings)."""
    engine = engine or dict(read_ahead=4, archive=PRESSURE_ARCHIVE)
    db = ImmortalDB(buffer_pages=buffer_pages, **engine)
    table = db.create_table(
        "kv", [("k", ColumnType.INT), ("v", ColumnType.TEXT)],
        key="k", immortal=True,
    )
    with db.transaction() as txn:
        for k in range(keys):
            table.insert(txn, {"k": k, "v": "x" * rng.choice((32, 256, 2048))})
    return db, table


def _update_round(db, table, rng, *, keys: int, ops: int, value=None) -> None:
    for _ in range(ops):
        with db.transaction() as txn:
            table.update(
                txn, rng.randrange(keys),
                {"v": value or "y" * rng.choice((32, 256, 2048))},
            )


class TestMigrationUnderPressure:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_relinked_uncached_referrer_is_not_served_stale(self, seed):
        """Migration relinks an *uncached* referrer and writes it; the
        read-ahead ring must not keep serving the copy it staged from the
        older image, whose history link still names the page the migration
        freed."""
        rng = random.Random(seed)
        keys = 600
        db, table = _pressure_db(rng, keys=keys, buffer_pages=64)
        for _ in range(8):
            _update_round(db, table, rng, keys=keys, ops=200)
            db.advance_time(1000)
            db.checkpoint()         # auto-migrates a budget of cold pages
            assert verify_integrity(db) == []
            for _ in range(100):
                table.history(rng.randrange(keys))
        assert db.archive.stats.pages_migrated > 0

    @pytest.mark.parametrize("seed", [3, 5, 6])
    def test_redo_takes_no_page_id_and_logs_nothing(
        self, seed, monkeypatch
    ):
        """Un-checkpointed commits after migrations, with PTT splits on
        recycled ids in the redo window: redo replays pages — an id's old
        history image, then the PTT node that reused it — and neither takes
        a page id nor appends a record."""
        rng = random.Random(seed)
        keys = 300
        # A pool this large flushes nothing, so redo rebuilds every split.
        db, table = _pressure_db(rng, keys=keys, buffer_pages=1024)
        for _ in range(8):
            _update_round(db, table, rng, keys=keys, ops=100)
            db.advance_time(1000)
            db.checkpoint()
        assert len(db.disk.free_list) > 0
        _update_round(db, table, rng, keys=keys, ops=10, value="z" * 32)
        db.crash()
        real_redo, applied = recovery._redo, []

        def redo(support, report, dpt):
            allocations, end = db.disk.stats.allocations, db.log.end_lsn
            real_redo(support, report, dpt)
            assert db.disk.stats.allocations == allocations
            assert db.log.end_lsn == end
            applied.append(report.redo_applied)

        monkeypatch.setattr(recovery, "_redo", redo)
        db.recover()
        assert applied and applied[0] > 0
        assert verify_integrity(db) == []
        assert page_accounting(db).orphans == []

    def test_a_dropped_relink_write_is_redone_from_the_log(self):
        """Power-loss order: the referrer's relinked image never reaches the
        disk (a dropped write) and the process dies right after the
        migration step.  The record that frees the page carries the
        referrer's image, so restart relinks the chain from the log."""
        disk = FaultyDisk(InMemoryDisk())
        db = ImmortalDB(disk=disk, archive=dict(ARCHIVE_FAST, pages_per_step=1))
        table = db.create_table(
            "hist", [("k", ColumnType.INT), ("v", ColumnType.TEXT)],
            key="k", immortal=True,
        )
        for r in range(30):
            for k in range(8):
                with db.transaction() as txn:
                    row = {"k": k, "v": f"r{r}:" + "v" * 500}
                    if r:
                        table.update(txn, k, row)
                    else:
                        table.insert(txn, row)
            db.advance_time(60)
        db.checkpoint(flush=True)
        histories = {k: table.history(k) for k in range(8)}
        registry = FailpointRegistry()
        registry.on("archive.migrate.relink",
                    lambda event: disk.arm("dropped_write"))
        with installed(registry):
            assert db.archive.step() == 1
        assert disk.injected["dropped_write"] == 1
        db.crash()
        db.recover()
        assert verify_integrity(db) == []
        table = db.table("hist")
        assert {k: table.history(k) for k in range(8)} == histories

    @staticmethod
    def _read_phase(archive) -> tuple[int, int, int]:
        """Eight rounds of updates and checkpoints, then 600 reads, half of
        them ``history()``: read-phase evictions, page count, pages freed."""
        rng, keys = random.Random(0), 600
        db, table = _pressure_db(rng, keys=keys, buffer_pages=64,
                                 archive=archive, **PROFILES["tuned"])
        for _ in range(8):
            _update_round(db, table, rng, keys=keys, ops=200)
            db.advance_time(1000)
            db.checkpoint()
        before = db.stats()["buffer_evictions"]
        for i in range(600):
            if i % 2:
                table.history(rng.randrange(keys))
            else:
                with db.transaction() as txn:
                    table.read(txn, rng.randrange(keys))
        stats = db.stats()
        return (stats["buffer_evictions"] - before, db.disk.page_count,
                stats["archive_pages_freed"])

    def test_migrated_history_leaves_the_pool_and_the_page_file(self):
        """Cold history moved to the archive stops competing for frames:
        the same reads evict fewer pages, from a smaller page file."""
        evictions_off, pages_off, _ = self._read_phase(None)
        evictions_on, pages_on, freed = self._read_phase(PRESSURE_ARCHIVE)
        assert freed > 0
        assert pages_on < pages_off
        assert evictions_on < evictions_off


# ---------------------------------------------------------------------------
# the cold-page scan reads headers; the scan it replaced is the reference
# ---------------------------------------------------------------------------


def _reference_scan(mgr) -> tuple[list[int], dict[int, list[int]]]:
    """``ArchiveManager._scan`` as it was while it decoded every page it
    looked at: every leaf and every history page through ``_peek_page``,
    the unstamped-records test applied to all of them up front."""
    from repro.access.btree import BTreeIndexPage

    def leaves(btree):
        node = mgr._peek_page(btree.root_pid)
        while isinstance(node, BTreeIndexPage):
            node = mgr._peek_page(node.children[0])
        while isinstance(node, DataPage):
            yield node
            if not node.next_leaf_id:
                return
            node = mgr._peek_page(node.next_leaf_id)

    horizon = mgr._horizon()
    referrers: dict[int, list[int]] = {}
    info: dict[int, tuple[Timestamp, bool]] = {}
    for table in mgr.engine.tables.values():
        if not table.schema.immortal or table.history_index is not None:
            continue
        for leaf in leaves(table.btree):
            prev_pid = leaf.page_id
            pid = leaf.history_page_id
            while pid != NO_PAGE and not pid & ARCHIVE_PID_BIT:
                referrers.setdefault(pid, []).append(prev_pid)
                if pid in info:
                    break
                page = mgr._peek_page(pid)
                migratable = (
                    isinstance(page, DataPage)
                    and page.is_history
                    and page.end_ts <= horizon
                    and not page.has_unstamped_records()
                    and (
                        page.history_page_id == NO_PAGE
                        or page.history_page_id & ARCHIVE_PID_BIT
                    )
                )
                info[pid] = (page.end_ts, migratable)
                prev_pid = pid
                pid = page.history_page_id
    candidates = sorted(
        (pid for pid, (_, ok) in info.items() if ok),
        key=lambda pid: (info[pid][0], pid),
    )
    return candidates, referrers


def _scan_db(seed: int, *, buffer_pages: int = 48, rounds: int = 6):
    """Pressure-shaped history (mixed value lengths, a pool far smaller
    than the data, key splits) with migration left to the test."""
    rng = random.Random(seed)
    keys = 400
    db = ImmortalDB(
        buffer_pages=buffer_pages,
        archive=dict(cold_ms=3000, pages_per_step=8, auto=False),
    )
    table = db.create_table(
        "kv", [("k", ColumnType.INT), ("v", ColumnType.TEXT)],
        key="k", immortal=True,
    )
    with db.transaction() as txn:
        for k in range(keys):
            table.insert(txn, {"k": k, "v": "x" * rng.choice((32, 256, 2048))})
    for _ in range(rounds):
        _update_round(db, table, rng, keys=keys, ops=150)
        db.advance_time(1000)
        db.checkpoint()
    return db, table, rng


def _checked_step(db, budget: int, monkeypatch) -> list[int]:
    """One ``step`` held against the reference scan; returns the pids moved.

    Checked: the header scan names the reference's referrers and — once the
    unstamped test is applied — its candidates, in its order, for the same
    number of disk reads; ``step`` migrates exactly the reference's first
    ``budget`` candidates; and the step's disk reads are what they were
    (the scan, one read per uncached page migrated, one per uncached
    referrer relinked) plus one per unstamped page it had to look into.
    """
    mgr, disk, buffer = db.archive, db.disk, db.buffer

    def reads_of(action):
        before = disk.stats.reads
        result = action()
        return result, disk.stats.reads - before

    (want, want_refs), scan_reads = reads_of(lambda: _reference_scan(mgr))
    (cold, refs), header_reads = reads_of(mgr._scan)
    assert refs == want_refs
    assert header_reads == scan_reads
    assert set(want) <= set(cold)
    unstamped = {
        pid for pid in cold if mgr._peek_page(pid).has_unstamped_records()
    }
    assert [pid for pid in cold if pid not in unstamped] == want

    expect = want[:budget]
    reached = cold[: cold.index(expect[-1]) + 1] if len(expect) == budget else cold
    skipped = [pid for pid in reached if pid in unstamped]

    def uncached(pids) -> int:
        return sum(not buffer.contains(pid) for pid in pids)

    # What the step cost while the scan decoded: the scan, one read per
    # uncached page migrated, one per uncached referrer relinked.
    old_cost = (
        scan_reads + uncached(expect)
        + uncached(rpid for pid in expect for rpid in want_refs[pid])
    )
    looked_into = uncached(skipped)
    moved: list[int] = []

    def recording(page):
        moved.append(page.page_id)
        return encode_block(page)

    monkeypatch.setattr(archive_manager, "encode_block", recording)
    count, step_reads = reads_of(lambda: mgr.step(budget))
    monkeypatch.undo()
    assert moved == expect and count == len(expect)
    assert step_reads == old_cost + looked_into
    return moved


class TestHeaderFirstScan:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_steps_match_the_full_decode_scan(self, seed, monkeypatch):
        """Step after step until the history is drained: the later steps
        start from chains that already end in an archive ref."""
        db, table, rng = _scan_db(seed)
        _, referrers = _reference_scan(db.archive)
        # Key splits made sibling leaves share a chain suffix.
        assert any(len(set(rs)) > 1 for rs in referrers.values())
        answers = {k: table.history(k) for k in range(0, 400, 37)}
        steps = 0
        while _reference_scan(db.archive)[0]:
            moved = _checked_step(db, 5, monkeypatch)
            assert moved
            steps += 1
        assert steps >= 3
        assert any(
            leaf.history_page_id & ARCHIVE_PID_BIT
            for leaf in table.btree.leaves()
        )
        assert {k: table.history(k) for k in answers} == answers
        assert verify_integrity(db) == []
        db.close()

    def test_dirty_cached_history_page_answers_from_its_frame(self, monkeypatch):
        """A cached frame is newer than the disk image: the scan must read
        the header fields off the page object, not off the stale image."""
        db, table, rng = _scan_db(4, buffer_pages=512)
        want, _ = _reference_scan(db.archive)
        assert len(want) >= 3
        pid = want[1]
        page = db.buffer.get_page(pid)          # cached: the pool holds it all
        horizon = db.archive._horizon()
        # Re-date it past the horizon in the frame only.
        page.end_ts = Timestamp(horizon.ttime + 1, 0)
        db.buffer.mark_dirty_page(page)
        assert db.buffer.is_dirty(pid)
        cold, _ = db.archive._scan()
        assert pid not in cold and pid not in _reference_scan(db.archive)[0]
        page.end_ts = Timestamp(max(0, horizon.ttime - 1), 0)
        db.buffer.mark_dirty_page(page)
        moved = _checked_step(db, len(want), monkeypatch)
        assert pid in moved
        assert not db.buffer.contains(pid)
        db.close()

    @pytest.mark.parametrize("cached", [True, False])
    def test_unstamped_history_page_is_skipped_and_the_next_taken(
        self, cached, monkeypatch
    ):
        """Records still carrying a TID keep a cold page out: the header
        cannot say so, ``step`` finds out when it opens the page, skips it
        and still migrates a full budget from the candidates behind it."""
        db, table, rng = _scan_db(5, buffer_pages=512 if cached else 48)
        writer = db.begin()                 # stays open: nothing may stamp it
        table.update(writer, 398, {"v": "w"})
        want, _ = _reference_scan(db.archive)
        assert len(want) >= 4
        victim = want[0]                    # the first page step would take
        page = db.buffer.get_page(victim)
        version = page.versions[0]
        stamped_as = version.ttime_field, version.sn
        version.ttime_field, version.sn = encode_tid_field(writer.tid), 0
        db.buffer.mark_dirty_page(page)
        if not cached:
            db.buffer.flush_page(victim)
            db.buffer.discard_page(victim)  # written: only the image is left
        assert victim in db.archive._scan()[0]
        assert victim not in _reference_scan(db.archive)[0]
        moved = _checked_step(db, 3, monkeypatch)
        assert moved == want[1:4]
        page = db.buffer.get_page(victim)
        page.versions[0].ttime_field, page.versions[0].sn = stamped_as
        db.buffer.mark_dirty_page(page)
        db.abort(writer)
        assert _checked_step(db, 1, monkeypatch) == [victim]
        db.close()


# ---------------------------------------------------------------------------
# quarantine and degraded reads
# ---------------------------------------------------------------------------


def _archived_ref_pids(db) -> list[int]:
    return [ARCHIVE_PID_BIT | i for i in range(len(db.archive.store))]


def _tamper_block(db, ref_pid: int) -> None:
    """Corrupt the stored bytes behind one archive ref."""
    blocks = db.archive.store._blocks
    raw_bytes, blob = blocks[ref_pid & ~ARCHIVE_PID_BIT]
    blocks[ref_pid & ~ARCHIVE_PID_BIT] = (raw_bytes, b"\xde\xad" + blob[2:])


class TestQuarantine:
    def test_damaged_block_quarantines_not_corrupts(self):
        db, table, marks = _build()
        db.archive.drain()
        victim = _archived_ref_pids(db)[0]
        _tamper_block(db, victim)
        with pytest.raises(PageQuarantinedError):
            db.archive.materialize(victim)
        assert victim in db.archive.quarantined
        assert db.archive.stats.quarantined == 1
        # Old reads now degrade (falsy, typed) instead of failing or lying.
        results = [
            table.read_as_of(ts, k)
            for ts in marks for k in range(8)
        ]
        degraded = [r for r in results if isinstance(r, Degraded)]
        assert degraded, "no read routed through the damaged block"
        assert all(not r for r in degraded)
        db.close()

    @staticmethod
    def _quiet_key_chain():
        """Key 0 written once, keys 1-7 in every round: every history page
        after the first holds only key 0's spanning copy.  Returns the db,
        the table, key 0's history and the archived pages of its leaf's
        route, oldest first (the route is warm: built before any damage)."""
        db = ImmortalDB(archive=dict(ARCHIVE_FAST), asof_route_cache=True)
        table = db.create_table(
            "hist", [("k", ColumnType.INT), ("v", ColumnType.TEXT)],
            key="k", immortal=True,
        )
        for r in range(20):
            with db.transaction() as txn:
                for k in range(8) if r == 0 else range(1, 8):
                    value = f"{'v' * 500}:r{r}:k{k}"
                    if r == 0:
                        table.insert(txn, {"k": k, "v": value})
                    else:
                        table.update(txn, k, {"v": value})
            db.advance_time(60)
        db.checkpoint(flush=True)
        db.archive.drain()
        want = table.history(0)
        leaf = table.btree.search_leaf(table.codec.encode_key(0))
        pids = [pid for pid in db.route_cache.entry(leaf).pids
                if pid & ARCHIVE_PID_BIT]
        assert len(pids) >= 3 and pids[0] == db.route_cache.entry(leaf).pids[0]
        return db, table, want, pids

    def test_damage_in_a_block_history_needs_is_never_a_short_answer(self):
        db, table, want, pids = self._quiet_key_chain()
        assert len(want) == 1
        _tamper_block(db, pids[0])     # holds key 0's only version natively
        db.archive._cache.clear()
        with pytest.raises(PageQuarantinedError):
            table.history(0)
        db.close()

    def test_damage_in_a_block_history_skips_leaves_the_answer(self):
        db, table, want, pids = self._quiet_key_chain()
        reads = db.archive.stats.block_reads
        for pid in pids[1:]:           # key 0's spanning copies only
            _tamper_block(db, pid)
        db.archive._cache.clear()
        assert table.history(0) == want
        assert db.archive.stats.block_reads == reads + 1
        assert not db.archive.quarantined
        with pytest.raises(PageQuarantinedError):
            table.history(1)           # written in every page's interval
        db.close()

    def test_quarantine_clears_on_recovery(self):
        db, table, marks = _build()
        db.archive.drain()
        victim = _archived_ref_pids(db)[0]
        _tamper_block(db, victim)
        with pytest.raises(PageQuarantinedError):
            db.archive.materialize(victim)
        db.crash()      # the tamper lives in the durable store: it stays,
        db.recover()    # but the quarantine verdict is re-earned on demand
        assert victim not in db.archive.quarantined
        with pytest.raises(PageQuarantinedError):
            db.archive.materialize(victim)
        db.close()


# ---------------------------------------------------------------------------
# integrity cross-checks
# ---------------------------------------------------------------------------


class TestIntegrityCrossChecks:
    def test_clean_archive_reports_no_findings(self):
        db, _, _ = _build()
        db.archive.drain()
        report = integrity_report(db)
        assert [f for f in report.findings if f.kind == "archive"] == []
        db.close()

    def test_unreadable_block_is_detected(self):
        db, _, _ = _build()
        db.archive.drain()
        _tamper_block(db, ARCHIVE_PID_BIT | 0)
        findings = [
            f for f in integrity_report(db).findings if f.kind == "archive"
        ]
        assert findings
        db.close()

    def test_dangling_ref_is_detected(self):
        db, _, _ = _build()
        db.archive.drain()
        # The store lost its tail (a frame damaged at rest truncates every
        # position behind it at reopen): page headers still link there.
        del db.archive.store._blocks[-3:]
        findings = [
            f for f in integrity_report(db).findings if f.kind == "archive"
        ]
        assert findings and all("past the store" in f.detail for f in findings)
        db.close()
