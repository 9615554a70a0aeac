"""Database integrity verification.

``integrity_report(db)`` walks every structure the engine owns and checks
the invariants the design depends on:

* **catalog** — every schema's roots exist and have the right page types;
* **B-trees** — separators ordered, leaf keys inside their bounds, the
  index traversal and the leaf sibling chain agree; every index node's
  maintained byte count equals a fresh sum and its codec roundtrips;
* **pages** — codec roundtrip (what is in memory serializes and reparses
  identically), sorted slot arrays, acyclic version chains, timestamps
  strictly decreasing along each chain;
* **history chains** — time ranges contiguous and descending: the current
  page's start equals the newest history page's end, and so on back;
* **history pages** — read-only property proxies: no TID-marked records,
  non-empty time range;
* **TSB index** — every leaf entry points at an existing history page whose
  time range matches the entry's rectangle;
* **PTT** — entries strictly ascending and unique across the leaf chain;
* **timestamping** — every TID-marked record in any page resolves to a
  live transaction or a PTT entry (no orphaned TIDs).

It returns a structured :class:`IntegrityReport` — one :class:`Finding`
per problem, carrying the page id and a machine-matchable kind alongside
the human-readable detail — which is what the online scrubber consumes to
dispatch repairs.  ``verify_integrity(db)`` is the original string-list
interface, kept as a thin wrapper: it returns ``report.messages()``
(empty = healthy) and ``strict=True`` raises :exc:`IntegrityError`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.clock import Timestamp
from repro.errors import (
    ImmortalDBError,
    PageQuarantinedError,
    UnknownTransactionError,
)
from repro.storage.constants import ARCHIVE_PID_BIT, META_PAGE_ID
from repro.storage.page import DataPage, decode_page
from repro.access.btree import BTreeIndexPage

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import ImmortalDB
    from repro.core.table import Table


class IntegrityError(ImmortalDBError):
    """verify_integrity(strict=True) found problems."""


@dataclass(frozen=True)
class Finding:
    """One integrity problem: where it is, what class of damage, the story.

    ``kind`` is a stable machine-matchable slug (``btree``, ``codec``,
    ``layout``, ``chain``, ``history``, ``orphan-tid``, ``history-chain``,
    ``tsb``, ``ptt``, plus the scrubber's ``checksum``, ``decode`` and
    ``stale``); ``detail`` is the full human-readable message.
    """

    kind: str
    detail: str
    table: str = ""
    page_id: int = 0


@dataclass
class IntegrityReport:
    """Structured result of an integrity walk (empty findings = healthy)."""

    findings: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def messages(self) -> list[str]:
        """The human-readable problem strings (the legacy interface)."""
        return [finding.detail for finding in self.findings]

    def pages(self) -> list[int]:
        """Distinct page ids implicated, in first-seen order."""
        seen: list[int] = []
        for finding in self.findings:
            if finding.page_id and finding.page_id not in seen:
                seen.append(finding.page_id)
        return seen

    def add(
        self, kind: str, detail: str, *, table: str = "", page_id: int = 0
    ) -> None:
        self.findings.append(
            Finding(kind=kind, detail=detail, table=table, page_id=page_id)
        )


def integrity_report(db: "ImmortalDB") -> IntegrityReport:
    """Run every check; return the structured report."""
    report = IntegrityReport()
    for table in db.tables.values():
        _check_btree(db, table, report)
        _check_pages(db, table, report)
        _check_history_chains(db, table, report)
        _check_tsb(db, table, report)
    _check_ptt(db, report)
    _check_archive(db, report)
    return report


def verify_integrity(db: "ImmortalDB", *, strict: bool = False) -> list[str]:
    """Legacy interface: the report's messages; ``strict=True`` raises."""
    problems = integrity_report(db).messages()
    if strict and problems:
        raise IntegrityError(
            f"{len(problems)} integrity problem(s):\n" + "\n".join(problems)
        )
    return problems


@dataclass
class PageAccounting:
    """Page ids below ``page_count`` by the kind of structure that reaches
    them (``archived`` references hold none), and those nothing reaches."""

    page_count: int
    by_kind: Counter
    orphans: list[int]


def page_accounting(db: "ImmortalDB") -> PageAccounting:
    """The allocator's books, by one reachability walk: meta → catalog roots
    → index nodes → leaves → history chains (through the archive), the TSB
    index, the PTT tree and the free list.  A page id is taken only for a
    page that is logged, so only a crash orphans one: the store was extended
    for a structure modification whose record was in the lost log suffix."""
    kinds: dict[int, str] = {META_PAGE_ID: "meta"}
    for table in db.tables.values():
        stack = [table.btree.root_pid]
        while stack:
            pid = stack.pop()
            if not pid or pid in kinds:     # sibling leaves share older pages
                continue
            kinds[pid] = "archived" if pid & ARCHIVE_PID_BIT else "history"
            try:
                page = db.buffer.get_page(pid)
            except PageQuarantinedError:
                continue
            if isinstance(page, BTreeIndexPage):
                kinds[pid] = "index"
                stack.extend(page.children)
            else:
                if not page.is_history:
                    kinds[pid] = "current"
                stack.append(page.history_page_id)
        if table.history_index is not None:
            for node in table.history_index.all_nodes():
                kinds[node.page_id] = "tsb"
    kinds.update(dict.fromkeys(db.ptt.page_ids(), "ptt"))
    if db.disk.free_list is not None:
        kinds.update(dict.fromkeys(db.disk.free_list.to_list(), "free"))
    count = db.disk.page_count
    orphans = [pid for pid in range(count) if pid not in kinds]
    return PageAccounting(count, Counter(kinds.values()), orphans)


# ---------------------------------------------------------------------------


def _check_btree(
    db: "ImmortalDB", table: "Table", report: IntegrityReport
) -> None:
    name = table.name
    leaves_by_index: list[int] = []

    def walk(pid: int, low: bytes, high: bytes | None) -> None:
        page = db.buffer.get_page(pid)
        if isinstance(page, BTreeIndexPage):
            if page.seps != sorted(page.seps):
                report.add(
                    "btree",
                    f"{name}: index node {pid} separators out of order",
                    table=name, page_id=pid,
                )
            if len(page.children) != len(page.seps) + 1:
                report.add(
                    "btree",
                    f"{name}: index node {pid} children/separator mismatch",
                    table=name, page_id=pid,
                )
            # The node maintains its size as separators come and go; a
            # drifted count would let ``is_full`` overfill the image.
            if page.used_bytes != page.counted_bytes():
                report.add(
                    "btree",
                    f"{name}: index node {pid} counts {page.used_bytes} "
                    f"used bytes but holds {page.counted_bytes()}",
                    table=name, page_id=pid,
                )
            try:
                reparsed = decode_page(page.to_bytes())
                intact = (reparsed.seps, reparsed.children) == \
                    (page.seps, page.children)
            except ImmortalDBError:
                intact = False
            if not intact:
                report.add(
                    "codec",
                    f"{name}: index node {pid} fails its codec roundtrip",
                    table=name, page_id=pid,
                )
            for i, child in enumerate(page.children):
                child_low = page.seps[i - 1] if i > 0 else low
                child_high = page.seps[i] if i < len(page.seps) else high
                walk(child, child_low, child_high)
            return
        if not isinstance(page, DataPage) or page.is_history:
            report.add(
                "btree",
                f"{name}: page {pid} is not a current data page",
                table=name, page_id=pid,
            )
            return
        leaves_by_index.append(pid)
        for key in page.keys():
            if key < low or (high is not None and key >= high):
                report.add(
                    "btree",
                    f"{name}: leaf {pid} holds key {key!r} outside its "
                    f"bounds [{low!r}, {high!r})",
                    table=name, page_id=pid,
                )

    walk(table.btree.root_pid, b"", None)

    leaves_by_chain = [leaf.page_id for leaf in table.btree.leaves()]
    if leaves_by_index != leaves_by_chain:
        report.add(
            "btree",
            f"{name}: index traversal sees leaves {leaves_by_index} but the "
            f"sibling chain sees {leaves_by_chain}",
            table=name,
        )


def _check_pages(
    db: "ImmortalDB", table: "Table", report: IntegrityReport
) -> None:
    name = table.name
    for page in table.iter_all_pages():
        pid = page.page_id
        # Codec roundtrip.
        try:
            reparsed = decode_page(page.to_bytes())
        except ImmortalDBError as exc:
            report.add(
                "codec",
                f"{name}: page {pid} fails to serialize: {exc}",
                table=name, page_id=pid,
            )
            continue
        if not isinstance(reparsed, DataPage) or \
                reparsed.keys() != page.keys() or \
                reparsed.used_bytes != page.used_bytes:
            report.add(
                "codec",
                f"{name}: page {pid} codec roundtrip mismatch",
                table=name, page_id=pid,
            )
        # Slot order.
        if page.keys() != sorted(page.keys()):
            report.add(
                "layout",
                f"{name}: page {pid} slot array out of order",
                table=name, page_id=pid,
            )
        # Chains: valid indices, acyclic, timestamps strictly decreasing.
        for key in page.keys():
            visited: set[int] = set()
            index = page.slots[page.slot_of(key)]
            last_ts: Timestamp | None = None
            while True:
                if index in visited:
                    report.add(
                        "chain",
                        f"{name}: page {pid} key {key!r} chain has a cycle",
                        table=name, page_id=pid,
                    )
                    break
                if not 0 <= index < len(page.versions):
                    report.add(
                        "chain",
                        f"{name}: page {pid} key {key!r} chain index "
                        f"{index} out of range",
                        table=name, page_id=pid,
                    )
                    break
                visited.add(index)
                version = page.versions[index]
                if version.key != key:
                    report.add(
                        "chain",
                        f"{name}: page {pid} chain of {key!r} reached a "
                        f"version of {version.key!r}",
                        table=name, page_id=pid,
                    )
                    break
                if version.is_timestamped:
                    ts = version.timestamp
                    if last_ts is not None and ts >= last_ts:
                        report.add(
                            "chain",
                            f"{name}: page {pid} key {key!r} timestamps not "
                            f"strictly decreasing ({ts} under {last_ts})",
                            table=name, page_id=pid,
                        )
                    last_ts = ts
                if not version.has_previous or version.vp_in_history:
                    break
                index = version.vp
        # History-page-only properties.
        if page.is_history:
            if page.split_ts >= page.end_ts:
                report.add(
                    "history",
                    f"{name}: history page {pid} has empty time range",
                    table=name, page_id=pid,
                )
            if page.has_unstamped_records():
                report.add(
                    "history",
                    f"{name}: history page {pid} holds TID-marked records",
                    table=name, page_id=pid,
                )
        # Every TID-marked record must resolve somewhere.
        for version in page.unstamped_versions():
            try:
                db.tsmgr.resolve(version.tid)
            except UnknownTransactionError:
                if not page.immortal and db.tsmgr.recovery_fallback:
                    continue
                report.add(
                    "orphan-tid",
                    f"{name}: page {pid} holds an orphaned TID "
                    f"{version.tid}",
                    table=name, page_id=pid,
                )


def _check_history_chains(
    db: "ImmortalDB", table: "Table", report: IntegrityReport
) -> None:
    name = table.name
    for leaf in table.btree.leaves():
        expected_end = leaf.split_ts
        pid = leaf.history_page_id
        while pid:
            try:
                page = db.buffer.get_page(pid)
            except PageQuarantinedError:
                # A quarantined archive block breaks the walk.  Damage to a
                # block the store holds is reported (with detail) by
                # _check_archive; a link past the store's end only shows here.
                ref = pid & ~ARCHIVE_PID_BIT
                if pid != ref and ref >= len(db.archive.store):
                    report.add(
                        "archive",
                        f"{name}: history chain of leaf {leaf.page_id} links "
                        f"to archive ref {ref}, past the store's "
                        f"{len(db.archive.store)} blocks",
                        table=name, page_id=pid,
                    )
                break
            if not isinstance(page, DataPage) or not page.is_history:
                report.add(
                    "history-chain",
                    f"{name}: leaf {leaf.page_id} history chain hit "
                    f"non-history page {pid}",
                    table=name, page_id=pid,
                )
                break
            if page.end_ts != expected_end:
                report.add(
                    "history-chain",
                    f"{name}: history page {pid} ends at {page.end_ts} but "
                    f"its successor starts at {expected_end}",
                    table=name, page_id=pid,
                )
            expected_end = page.split_ts
            pid = page.history_page_id


def _check_tsb(
    db: "ImmortalDB", table: "Table", report: IntegrityReport
) -> None:
    if table.history_index is None:
        return
    name = table.name
    for node in table.history_index.all_nodes():
        for entry in node.entries:
            if not entry.child_is_leaf:
                continue
            try:
                page = db.buffer.get_page(entry.child_pid)
            except ImmortalDBError:
                report.add(
                    "tsb",
                    f"{name}: TSB entry points at missing page "
                    f"{entry.child_pid}",
                    table=name, page_id=entry.child_pid,
                )
                continue
            if not isinstance(page, DataPage) or not page.is_history:
                report.add(
                    "tsb",
                    f"{name}: TSB entry {entry.child_pid} is not a history "
                    f"page",
                    table=name, page_id=entry.child_pid,
                )
                continue
            if (entry.rect.t_low, entry.rect.t_high) != \
                    (page.split_ts, page.end_ts):
                report.add(
                    "tsb",
                    f"{name}: TSB rect time range "
                    f"[{entry.rect.t_low}, {entry.rect.t_high}) disagrees "
                    f"with page {page.page_id}'s "
                    f"[{page.split_ts}, {page.end_ts})",
                    table=name, page_id=entry.child_pid,
                )


def _check_ptt(db: "ImmortalDB", report: IntegrityReport) -> None:
    last_tid = 0
    for tid, _ts in db.ptt.entries():
        if tid <= last_tid:
            report.add(
                "ptt",
                f"PTT: entries not strictly ascending at TID {tid}",
            )
        last_tid = tid


def _check_archive(db: "ImmortalDB", report: IntegrityReport) -> None:
    """Verify every block in the archive store, by position.

    Blocks are read straight from the store (not through the resolver),
    so damage is reported as a finding instead of tripping quarantine.
    Archived pages must be self-consistent, fully timestamped (their
    chains were stamped before migration — no VTT/PTT resolution may be
    needed ever again), and hold no version past their own end time.
    """
    archive = getattr(db, "archive", None)
    if archive is None:
        return
    from repro.archive.delta import decode_block

    for ref_index in range(len(archive.store)):
        pid = ARCHIVE_PID_BIT | ref_index
        try:
            page = decode_block(archive.store.read_block(ref_index), pid)
        except Exception as exc:  # noqa: BLE001 - any failure is a finding
            report.add(
                "archive",
                f"archive ref {ref_index} block is unreadable: {exc}",
                page_id=pid,
            )
            continue
        for problem in page.self_check():
            report.add(
                "archive",
                f"archive ref {ref_index}: {problem}",
                page_id=pid,
            )
        if page.has_unstamped_records():
            report.add(
                "archive",
                f"archive ref {ref_index} holds TID-marked records "
                f"(archived chains must be fully stamped)",
                page_id=pid,
            )
            continue
        for version in page.versions:
            if version.timestamp >= page.end_ts:
                report.add(
                    "archive",
                    f"archive ref {ref_index} version at "
                    f"{version.timestamp} lies past the page's end time "
                    f"{page.end_ts}",
                    page_id=pid,
                )
