"""Storage-layer constants shared across the engine."""

from __future__ import annotations

import enum

PAGE_SIZE = 8192
"""Database page size in bytes.  The paper's experiments use 8 KB pages."""

COMMON_HEADER_SIZE = 20
"""Bytes of header shared by every page type: id, type, flags, LSN, CRC32."""

CHECKSUM_OFFSET = 16
"""Byte offset of the page-header CRC32 field.

Page codecs always serialize it as zero; the disk layer stamps the real
checksum on every write and verifies it on every read.  A stored 0 passes
only on an all-zero (never-written) page; on any other image it is damage.
"""

CHECKSUM_SIZE = 4
"""Bytes of the page-header CRC32 field."""

DATA_HEADER_SIZE = 64
"""Total header size of a data page (common header + versioning fields)."""

SLOT_SIZE = 2
"""Bytes per slot-array entry (an index into the page's version area)."""

VERSIONING_TAIL_SIZE = 14
"""Bytes appended to every record: VP(2) + Ttime(8) + SN(4) (Figure 1)."""

NO_PREVIOUS = 0xFFFF
"""VP value meaning 'this is the oldest version of the record in any page'."""

NO_PAGE = 0
"""Page-id value meaning 'no page' (page 0 is the metadata page)."""

META_PAGE_ID = 0
"""Page id of the database metadata (boot) page."""

PTT_ROOT_PAGE_ID = 1
"""Page id of the persistent timestamp table's root, which never moves."""

ARCHIVE_PID_BIT = 1 << 31
"""High bit of a 4-byte page id marking an **archive reference**.

A ``history_page_id`` with this bit set does not name a page in the page
store: the low 31 bits index the archive manager's ref table, which maps
to (run id, block) in the append-only cold-history store.  The buffer
pool routes such ids to its ``archive_resolver`` instead of the disk (see
:mod:`repro.archive`).  Real page ids never reach this bit — it would
take 2**31 pages (16 TB at 8 KB/page) in a simulation-scale store.
"""


class PageType(enum.IntEnum):
    """Discriminator byte stored in every page header."""

    META = 0
    DATA_CURRENT = 1      # B-tree / TSB-tree leaf holding current records
    DATA_HISTORY = 2      # read-only page produced by a time split
    BTREE_INDEX = 3       # B-tree index node (key -> child)
    TSB_INDEX = 4         # TSB-tree index node (key x time rectangle -> child)
    PTT = 5               # persistent timestamp table node
    FREE = 255


class RecordFlag(enum.IntFlag):
    """Per-record flag bits (first byte of the on-page record image)."""

    NONE = 0
    DELETE_STUB = 1        # the 'special new version' marking a delete (§1.2)
    VP_IN_HISTORY = 2      # VP is a slot number in the history page, not local


# ``RecordVersion.flags`` is a plain int and the engine tests it against
# these: an ``IntFlag`` operand would build an enum member on every ``&``.
DELETE_STUB = int(RecordFlag.DELETE_STUB)
VP_IN_HISTORY = int(RecordFlag.VP_IN_HISTORY)
