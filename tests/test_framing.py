"""One frame format, one torn-tail rule: the same damaged images through
the scan and through each user of it.

``damaged_images`` is the table; ``tests/test_filelog.py`` runs it through
a ``FileLogManager`` reopen as well.
"""

from __future__ import annotations

import pytest

from repro.archive.store import ArchiveStore
from repro.errors import TornFrameError
from repro.service import protocol
from repro.storage.framing import HEADER, frame, scan
from repro.wal.records import CommitTxn

# Log records, so the file log accepts them; their first four bytes read as
# the archive store's ``used_bytes`` prefix, and the wire takes anything.
PAYLOADS = [
    CommitTxn(tid=tid, ttime=tid, sn=tid, ptt=True).to_bytes()
    for tid in range(1, 6)
]


def damaged_images(payloads: list[bytes]) -> list[tuple[str, bytes, int]]:
    """``(label, image, frames that must survive)`` for a run of frames.

    Every kind of damage lands on the frame named; all frames before it are
    byte-for-byte intact and all frames after it are too (where the image
    still has them), so a reader that resynchronised would be caught.
    """
    frames = [frame(p) for p in payloads]
    image = b"".join(frames)
    starts = [sum(map(len, frames[:i])) for i in range(len(frames) + 1)]
    last, mid = len(frames) - 1, len(frames) // 2

    def patched(at: int, new: bytes) -> bytes:
        return image[:at] + new + image[at + len(new):]

    def flipped(at: int) -> bytes:
        return patched(at, bytes([image[at] ^ 0x10]))

    huge = (protocol.MAX_FRAME + 1).to_bytes(4, "big")
    past = (len(image) + 1).to_bytes(4, "big")
    return [
        ("intact", image, len(frames)),
        ("header cut short", image[: starts[last] + HEADER.size - 3], last),
        ("payload cut short", image[: starts[last + 1] - 3], last),
        ("zero length", patched(starts[last], bytes(4)), last),
        ("length past MAX_FRAME", patched(starts[last], huge), last),
        ("length past the image", patched(starts[last], past), last),
        ("flipped payload bit", flipped(starts[last] + HEADER.size + 2), last),
        ("flipped header bit", flipped(starts[last] + 5), last),
        ("good frames after a bad one", flipped(starts[mid] + HEADER.size), mid),
    ]


CASES = damaged_images(PAYLOADS)
IDS = [label for label, _, _ in CASES]
# STARTS[i] is where frame i starts; STARTS[n] is where n good frames end.
STARTS = [sum(HEADER.size + len(p) for p in PAYLOADS[:i])
          for i in range(len(PAYLOADS) + 1)]


@pytest.mark.parametrize("label,image,good", CASES, ids=IDS)
class TestEveryReaderStopsAtTheSameFrame:
    def test_scan(self, label, image, good):
        assert scan(image) == (STARTS[:good], PAYLOADS[:good], STARTS[good])

    def test_scan_accept_can_only_shorten(self, label, image, good):
        turned_down = PAYLOADS[1]
        _, payloads, end = scan(image, 0, lambda p: p != turned_down)
        assert payloads == PAYLOADS[: min(good, 1)]
        assert end == STARTS[min(good, 1)]

    def test_archive_store_reopen(self, label, image, good, tmp_path):
        path = tmp_path / "arch"
        path.write_bytes(image)
        store = ArchiveStore(str(path))
        assert store.durable_count == len(store) == good
        assert [store.read_block(i) for i in range(good)] \
            == [p[4:] for p in PAYLOADS[:good]]
        assert store.raw_bytes == sum(
            int.from_bytes(p[:4], "big") for p in PAYLOADS[:good]
        )
        assert store.append_block(b"next", 9) == good
        store.close()
        # Truncated to the clean prefix: the append is the next position.
        reopened = ArchiveStore(str(path))
        assert reopened.durable_count == good + 1
        assert reopened.read_block(good) == b"next"
        reopened.close()

    @pytest.mark.parametrize("chunk", [None, 1], ids=["whole", "bytewise"])
    def test_frame_decoder(self, label, image, good, chunk):
        decoder = protocol.FrameDecoder()
        pieces = [image] if chunk is None else [
            image[i : i + chunk] for i in range(0, len(image), chunk)
        ]
        got: list[bytes] = []
        fed = 0
        torn = False
        try:
            for piece in pieces:
                fed += len(piece)
                got.extend(decoder.feed(piece))
        except TornFrameError:
            torn = True     # the decoder's stop: typed, and the stream is dead
        # It took exactly the good frames off the stream, then stopped.
        assert fed - decoder.pending_bytes == STARTS[good]
        if not (torn and chunk is None):
            # (A feed that raises hands back nothing, so fed whole, the
            # frames ahead of the bad one go down with the connection.)
            assert got == PAYLOADS[:good]


def test_the_wire_codec_emits_the_shared_frame():
    message = {"id": "c1:1", "op": "ping"}
    wire = protocol.encode_message(message)
    (payload,) = protocol.FrameDecoder().feed(wire)
    assert scan(wire) == ([0], [payload], len(wire))
    assert wire == frame(payload)
    assert protocol.decode_message(payload) == message
