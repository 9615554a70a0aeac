"""Deterministic cost model: counted events → simulated milliseconds.

Calibration targets come straight from the paper's Section 5.1: on its
hardware a conventional single-record update transaction averages
**9.6 ms**, and Immortal DB adds **≈1.1 ms (11 %)**.  The constants below
reproduce those magnitudes from first principles:

* a small transaction's latency is dominated by the commit-time log force —
  one rotational-latency-ish disk write (~8 ms on a 2005 7200 rpm disk);
* the rest is CPU: statement execution through the full engine stack;
* Immortal DB's extra work per update transaction is the PTT insert, the
  timestamp-table consultation, and stamping the prior version — each
  charged separately so ablations (eager timestamping, GC off) shift the
  simulated time for the right reasons.

The model is linear in the engine's counters, so any stats delta from
:meth:`repro.core.engine.ImmortalDB.stats` can be priced.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """Linear event-cost model (all costs in milliseconds per event)."""

    log_force_ms: float = 8.0          # commit-time force: rotational latency
    log_byte_ms: float = 0.00012       # sequential log bandwidth (~8 MB/s)
    random_io_ms: float = 8.5          # random page read/write
    sequential_io_ms: float = 0.9      # sequential page transfer
    commit_cpu_ms: float = 1.55        # per-transaction engine CPU
    record_version_cpu_ms: float = 0.08   # allocate+link one version
    stamp_cpu_ms: float = 0.25         # revisit + rewrite one timestamp
    vtt_lookup_ms: float = 0.02        # hash probe
    ptt_lookup_ms: float = 0.35        # B-tree probe (cached nodes)
    ptt_insert_ms: float = 0.70        # B-tree tail insert + latch
    revisit_page_ms: float = 0.45      # eager: revisit one page pre-commit
    asof_page_scan_ms: float = 0.60    # examine one data page's chains
    chain_hop_ms: float = 0.65         # follow one history-page link
    tsb_lookup_ms: float = 0.40        # TSB index descent
    smo_log_ms: float = 0.60           # one physiological split log record
    # Cold-history archive counters (PR 7).  Zero-priced by default —
    # archiving is off in the figure workloads, so every counter is zero
    # there and fig5/fig6 stay byte-identical — the history-depth benchmark
    # prices block materialization (a sequential read + decode of one delta
    # block) and per-page migration work.
    archive_migrate_page_ms: float = 0.0   # encode + append + relink one page
    archive_block_read_ms: float = 0.0     # fetch + decode one archive block

    def simulated_ms(self, delta: dict) -> float:
        """Price a stats delta (see :meth:`ImmortalDB.stats`)."""
        random_reads = delta.get("disk_reads", 0) - delta.get(
            "disk_sequential_reads", 0
        )
        random_writes = delta.get("disk_writes", 0) - delta.get(
            "disk_sequential_writes", 0
        )
        sequential = delta.get("disk_sequential_reads", 0) + delta.get(
            "disk_sequential_writes", 0
        )
        # Full page images in the log are a simulator artifact: real
        # engines log splits physiologically.  Price image records by
        # count, and exclude their bytes from log bandwidth.
        effective_log_bytes = delta.get("log_bytes", 0) - delta.get(
            "log_image_bytes", 0
        )
        return (
            delta.get("log_forces", 0) * self.log_force_ms
            + effective_log_bytes * self.log_byte_ms
            + delta.get("log_image_records", 0) * self.smo_log_ms
            + (random_reads + random_writes) * self.random_io_ms
            + sequential * self.sequential_io_ms
            + delta.get("commits", 0) * self.commit_cpu_ms
            + delta.get("version_ops", 0) * self.record_version_cpu_ms
            + delta.get("stamps", 0) * self.stamp_cpu_ms
            + delta.get("vtt_hits", 0) * self.vtt_lookup_ms
            + delta.get("ptt_lookups", 0) * self.ptt_lookup_ms
            + delta.get("ptt_inserts", 0) * self.ptt_insert_ms
            + delta.get("ptt_deletes", 0) * self.ptt_insert_ms
            + delta.get("commit_revisit_pages", 0) * self.revisit_page_ms
            + delta.get("asof_pages_examined", 0) * self.asof_page_scan_ms
            + delta.get("asof_chain_hops", 0) * self.chain_hop_ms
            + delta.get("tsb_lookups", 0) * self.tsb_lookup_ms
            + delta.get("archive_pages_migrated", 0) * self.archive_migrate_page_ms
            + delta.get("archive_block_reads", 0) * self.archive_block_read_ms
        )


COST_2005 = CostModel()
"""The default calibration (paper hardware, see module docstring)."""


def stats_delta(before: dict, after: dict) -> dict:
    """Elementwise difference of two engine stats snapshots."""
    return {key: after.get(key, 0) - before.get(key, 0) for key in after}
