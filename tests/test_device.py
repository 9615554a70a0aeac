"""The durable-I/O seam and the power-loss model.

Every store keeps its bytes on a device; a crash reopens each store from
what its device kept.  A plain device keeps every write (a killed process);
:class:`FaultyDevice` keeps the image as of the last sync plus a chosen
subset of the writes since (a power loss).
"""

from __future__ import annotations

import tempfile

from hypothesis import given, settings, strategies as st

from repro import ColumnType, ImmortalDB
from repro.faults.models import FaultyDevice
from repro.storage.constants import PAGE_SIZE
from repro.storage.device import FileDevice, MemoryDevice, file_devices

COLS = [("k", ColumnType.INT), ("v", ColumnType.TEXT)]


def _apply(image: bytearray, op: tuple) -> None:
    if op[0] == "write":
        _, offset, data = op
        if offset > len(image):
            image.extend(bytes(offset - len(image)))
        image[offset : offset + len(data)] = data
    else:
        del image[op[1]:]
        image.extend(bytes(op[1] - len(image)))


class Model:
    """What a device holds: the synced image and the writes since."""

    def __init__(self) -> None:
        self.synced = bytearray()
        self.pending: list[tuple] = []

    def image(self, keep=None) -> bytes:
        image = bytearray(self.synced)
        for n, op in enumerate(self.pending):
            if keep is None or n in keep:
                _apply(image, op)
        return bytes(image)


OPS = st.lists(st.one_of(
    st.tuples(st.just("write"), st.integers(0, 3000),
              st.binary(min_size=1, max_size=700)),
    st.tuples(st.just("truncate"), st.integers(0, 4000)),
    st.tuples(st.just("sync")),
    st.tuples(st.just("crash"), st.frozensets(st.integers(0, 12))),
), max_size=40)


def _image(device) -> bytes:
    return device.read(device.size, 0)


class TestSurvivingBytes:
    @settings(max_examples=60, deadline=None)
    @given(OPS)
    def test_every_device_keeps_the_same_bytes(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            plain = [MemoryDevice(), FileDevice(f"{tmp}/plain")]
            faulty = [FaultyDevice(MemoryDevice()),
                      FaultyDevice(FileDevice(f"{tmp}/faulty"))]
            model, everything = Model(), bytearray()
            for op in ops:
                if op[0] == "sync":
                    for device in plain + faulty:
                        device.sync()
                    model.synced, model.pending = bytearray(model.image()), []
                elif op[0] == "crash":
                    # A plain device is a killed process: it keeps it all.
                    for device in faulty:
                        assert device.unsynced == len(model.pending)
                        device.lose_power(op[1] & set(range(device.unsynced)))
                    model.synced = bytearray(model.image(op[1]))
                    model.pending = []
                    for device in faulty:
                        assert _image(device) == model.image()
                else:
                    args = op[1:] if op[0] == "truncate" else (op[2], op[1])
                    for device in plain + faulty:
                        getattr(device, op[0])(*args)
                    model.pending.append(op)
                    _apply(everything, op)
                for device in plain:
                    assert _image(device) == bytes(everything)
                    assert device.size == len(everything)
            for device in faulty:
                assert _image(device) == model.image()
            for device in plain + faulty:
                device.close()

    def test_a_kept_write_can_land_torn(self):
        device = FaultyDevice(MemoryDevice(), seed=3)
        device.write(bytes(PAGE_SIZE), 0)
        device.sync()
        device.write(b"\x01" * PAGE_SIZE, 0)
        device.lose_power([0], tear=0)
        image = _image(device)
        cut = image.index(0)
        assert 64 <= cut < PAGE_SIZE
        assert image == b"\x01" * cut + bytes(PAGE_SIZE - cut)
        assert device.injected["torn_write"] == 1

    def test_the_master_record_is_replaced_whole(self, tmp_path):
        master = FileDevice(tmp_path / "m")
        master.write(b"\xff" * 16, 0)
        master.replace((7).to_bytes(8, "big"))
        assert _image(master) == (7).to_bytes(8, "big") and master.size == 8
        master.close()
        assert FileDevice(tmp_path / "m").read(8, 0) == (7).to_bytes(8, "big")


def _pages_only(device):
    return lambda name: device if name == "pages" else None


class TestTheBootPage:
    def test_the_boot_page_survives_a_power_loss(self):
        """Creation and DDL sync the boot page: a power loss that keeps no
        unsynced page write still finds the PTT root and the table."""
        device = FaultyDevice(MemoryDevice())
        db = ImmortalDB(devices=_pages_only(device))
        table = db.create_table("t", COLS, key="k", immortal=True)
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "one"})
        device.lose_power()
        db.crash()
        db.recover()
        with db.transaction() as txn:
            assert db.table("t").read(txn, 1)["v"] == "one"


class TestTornPageUnderPowerLoss:
    def _restart_after_power_loss(self, tear: bool) -> tuple[bytes, int]:
        """Update a leaf, write it out, lose power keeping every unsynced
        write — the leaf's last, and torn if asked — then restart."""
        device = FaultyDevice(MemoryDevice(), seed=11)
        db = ImmortalDB(devices=_pages_only(device), buffer_pages=16,
                        media_recovery=True)
        table = db.create_table("t", COLS, key="k", immortal=True)
        for k in range(40):
            with db.transaction() as txn:
                table.insert(txn, {"k": k, "v": "x" * 60})
        db.checkpoint(flush=True)
        for k in range(0, 40, 5):
            db.advance_time(50)
            with db.transaction() as txn:
                table.update(txn, k, {"v": "y" * 60})
        db.buffer.flush_all()
        db.advance_time(50)
        with db.transaction() as txn:
            table.update(txn, 0, {"v": "z" * 60})
        leaf = table.btree.search_leaf(table.codec.encode_key(0)).page_id
        db.buffer.flush_page(leaf)
        last = device.unsynced - 1
        device.lose_power(range(device.unsynced), tear=last if tear else None)
        db.crash()
        db.recover()
        with db.transaction() as txn:
            assert db.table("t").read(txn, 0)["v"] == "z" * 60
        return device.inner.read(PAGE_SIZE, leaf * PAGE_SIZE), \
            db.repair.stats.page_faults

    def test_a_torn_page_is_caught_and_restored_byte_identically(self):
        clean, faults = self._restart_after_power_loss(tear=False)
        assert faults == 0
        restored, faults = self._restart_after_power_loss(tear=True)
        assert faults == 1          # its checksum caught the tear
        assert restored == clean


class TestDefaultOpeners:
    def test_a_path_opens_one_file_per_store(self, tmp_path):
        path = str(tmp_path / "db.pages")
        db = ImmortalDB(path, archive=True)
        db.close()
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["db.pages", "db.pages.archive", "db.pages.log",
                         "db.pages.log.master"]
        device = file_devices(path)("master")
        assert int.from_bytes(device.read(8, 0), "big") > 0
        device.close()

    def test_path_and_devices_are_exclusive(self, tmp_path):
        import pytest

        with pytest.raises(ValueError, match="devices"):
            ImmortalDB(str(tmp_path / "x"), devices=lambda name: None)
