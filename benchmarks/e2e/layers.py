"""From one repetition's raw numbers to named metrics.

Every time is reported *at reference speed*: divided by the slowdown the
calibration kernel saw during that repetition (``measure.Calibrator``).

:func:`rep_metrics` works on an untraced repetition: the end-to-end
metrics, the latency of each operation class (``op.*``) and every
per-layer *count*, all from counter deltas over the timed section.
:func:`traced_metrics` works on the traced repetition: every per-layer
*time*, from span self times.  Names and units are those of
``BENCHMARK.json``; a metric that does not apply to a workload is absent
here and printed as 0 by the runner.
"""

from __future__ import annotations

import functools

from measure import TooFewSamples, percentile
from workloads import OP_CLASS

WRITES = ("insert", "update", "delete")
CURRENT_READS = ("read", "scan")
HISTORICAL = ("asof", "history", "scan_asof")


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def latencies(task, rep, group=lambda op: OP_CLASS.get(op[0], op[0])) -> dict:
    """Per-op latencies in seconds, grouped (by operation class by default)."""
    out: dict = {}
    for ops, lat in zip(task.streams, rep["lat"]):
        for op, seconds in zip(ops, lat):
            out.setdefault(group(op), []).append(seconds)
    return out


def kind_counts(task) -> dict:
    counts: dict = {}
    for ops in task.streams:
        for op in ops:
            counts[op[0]] = counts.get(op[0], 0) + 1
    return counts


def _count(counts: dict, kinds) -> int:
    return sum(counts.get(kind, 0) for kind in kinds)


def rep_metrics(task, rep) -> dict:
    """Times are at reference speed: divided by the repetition's slowdown."""
    wall_x = rep["wall_x"]

    def _ms(samples, p) -> float | None:
        try:
            return percentile(samples, p) * 1e3 / wall_x
        except TooFewSamples:
            return None

    lat = latencies(task, rep)
    counts = kind_counts(task)
    ops = rep["ops"]
    writes = _count(counts, WRITES)
    historical = _count(counts, HISTORICAL)
    d, end = rep["delta"], rep["end"]
    ticks = lat.get("tick", [])
    out = {
        # end to end
        "setup_s": rep["setup_s"] / rep["setup_x"],
        "ops_per_s": ops / rep["wall_s"] * wall_x,
        "cpu_ms_per_op": rep["cpu_s"] * 1e3 / ops / rep["cpu_x"],
        "read_p50_ms": _ms(lat["read" if "read" in lat else "asof"], 50),
        "peak_rss_mb": rep["peak_rss_mb"],
        "stored_bytes_per_user_byte": ratio(
            rep["stored_bytes"], task.user_bytes_setup + task.user_bytes_timed
        ),
        # per operation class
        **{
            f"op.{cls}_p{p}_ms": _ms(lat.get(cls, ()), p)
            for cls, p in (
                ("write", 50), ("write", 99), ("read", 50), ("read", 99),
                ("asof", 50), ("asof", 99), ("history", 50), ("scan", 50),
            )
        },
        # service, workers
        "service.rejects_per_kop": 1e3 * d["service_rejects"] / ops,
        "service.timeouts_per_kop": 1e3 * d["service_timeouts"] / ops,
        "service.dedup_hits_per_kop": 1e3 * d.get("service_dedup_hits", 0) / ops,
        "workers.retries_per_kop":
            1e3 * (d.get("pool_retries", 0) + d.get("service_retries", 0)) / ops,
        "workers.flushes_per_kop": 1e3 * d.get("pool_flushes", 0) / ops,
        # concurrency
        "concurrency.lock_waits_per_kop": 1e3 * d["lock_waits"] / ops,
        "concurrency.lock_wait_ms_per_op": d["lock_wait_ns"] / 1e6 / ops / wall_x,
        "concurrency.deadlocks_per_kop": 1e3 * d["deadlocks_detected"] / ops,
        # core
        "core.route_cache_hit_ratio": ratio(
            d["route_cache_hits"], d["route_cache_hits"] + d["route_cache_misses"]
        ),
        "core.asof_page_reads_per_op": ratio(d["asof_page_reads"], historical),
        "core.asof_chain_steps_per_op": ratio(d["asof_chain_steps"], historical),
        # access
        "access.key_splits_per_kop": 1e3 * d["key_splits"] / ops,
        "access.time_splits_per_kop": 1e3 * d["time_splits"] / ops,
        "access.index_splits_per_kop": 1e3 * d["index_splits"] / ops,
        # timestamp
        "timestamp.stamps_per_write": ratio(d["stamps"], writes),
        "timestamp.vtt_hit_ratio": ratio(
            d["vtt_hits"], d["vtt_hits"] + d["ptt_lookups"]
        ),
        "timestamp.ptt_inserts_per_txn": ratio(d["ptt_inserts"], d["commits"]),
        "timestamp.ptt_deletes_per_txn": ratio(d["ptt_deletes"], d["commits"]),
        "timestamp.commit_revisit_pages_per_txn":
            ratio(d["commit_revisit_pages"], d["commits"]),
        # storage
        "storage.buffer_hit_ratio": ratio(
            d["buffer_hits"], d["buffer_hits"] + d["buffer_misses"]
        ),
        "storage.get_page_calls_per_op":
            (d["buffer_hits"] + d["buffer_misses"]) / ops,
        "storage.evictions_per_kop": 1e3 * d["buffer_evictions"] / ops,
        "storage.dirty_evictions_per_kop": 1e3 * d["buffer_dirty_evictions"] / ops,
        "storage.flush_batches_per_kop": 1e3 * d["flush_batches"] / ops,
        "storage.coalesced_writes_per_kop": 1e3 * d["flush_coalesced_writes"] / ops,
        "storage.prefetch_hit_ratio":
            ratio(d["buffer_prefetch_hits"], d["buffer_prefetches"]),
        "storage.disk_reads_per_op": d["disk_reads"] / ops,
        "storage.disk_writes_per_op": d["disk_writes"] / ops,
        "storage.seq_write_ratio":
            ratio(d["disk_sequential_writes"], d["disk_writes"]),
        # wal
        "wal.log_bytes_per_user_byte": ratio(d["log_bytes"], task.user_bytes_timed),
        "wal.records_per_txn": ratio(d["log_appends"], d["commits"]),
        "wal.bytes_per_txn": ratio(d["log_bytes"], d["commits"]),
        "wal.image_bytes_ratio": ratio(d["log_image_bytes"], d["log_bytes"]),
        "wal.forces_per_commit": ratio(d["log_forces"], d["commits"]),
        "wal.checkpoint_ms_per_checkpoint":
            1e3 * sum(ticks) / len(ticks) / wall_x if ticks else None,
        # One closed-loop client: the op that overlaps a checkpoint is the
        # client waiting for it, so the longest stall is the longest tick.
        "wal.checkpoint_stall_max_ms": 1e3 * max(ticks) / wall_x if ticks else None,
        "wal.recover_s": rep["recover_s"] / wall_x if "recover_s" in rep else None,
        "wal.redo_records": rep.get("redo_records"),
        # archive
        "archive.pages_migrated_per_checkpoint":
            ratio(d["archive_pages_migrated"], d["checkpoints"]),
        "archive.block_reads_per_asof": ratio(d["archive_block_reads"], historical),
        "archive.compression_x":
            ratio(end["archive_bytes_raw"], end["archive_bytes_stored"]),
        "trace.machine_slowdown_x": wall_x,
    }
    if len(task.streams) > 1:
        everything = [s for cls, v in lat.items() if cls != "tick" for s in v]
        out["service.client_p99_ms"] = _ms(everything, 99)
    if len(task.value_lengths) > 1:
        by_length = latencies(
            task, rep, lambda op: len(op[2]) if op[0] in ("insert", "update") else None
        )
        for length in task.value_lengths:
            out[f"core.write_p50_ms_v{length}"] = _ms(by_length.get(length, ()), 50)
    return {name: value for name, value in out.items() if value is not None}


class _Spans:
    """Sums over span aggregates ``{(op kind, span name): [calls, total_ns,
    self_ns, units]}``, by span-name prefix and optionally by op kind."""

    def __init__(self, aggregates: dict) -> None:
        self.aggregates = aggregates

    def _sum(self, field: int, prefix: str, kinds=None) -> float:
        return sum(
            rec[field] for (kind, name), rec in self.aggregates.items()
            if name.startswith(prefix) and (kinds is None or kind in kinds)
        )

    calls = functools.partialmethod(_sum, 0)
    total = functools.partialmethod(_sum, 1)
    self_ = functools.partialmethod(_sum, 2)
    units = functools.partialmethod(_sum, 3)


def traced_metrics(task, rep, untraced_ops_per_s: float) -> dict:
    """Per-layer times (self time = span minus child spans) of a traced rep."""
    here = _Spans(rep["agg"])                      # this process
    server = _Spans(rep.get("server_agg", {}))
    both = _Spans(dict(here.aggregates))
    for key, rec in server.aggregates.items():
        mine = both.aggregates.get(key, (0, 0, 0, 0))
        both.aggregates[key] = [a + b for a, b in zip(mine, rec)]
    counts = kind_counts(task)
    ops = rep["ops"]
    writes = _count(counts, WRITES)
    current = _count(counts, CURRENT_READS)
    historical = _count(counts, HISTORICAL)
    d = rep["delta"]
    us = 1e-3 / rep["wall_x"]                      # from nanoseconds,
    ms = 1e-6 / rep["wall_x"]                      # at reference speed
    out = {
        "trace.overhead_x":
            untraced_ops_per_s / (ops / rep["wall_s"] * rep["wall_x"]),
        "trace.unattributed_frac":
            ratio(here.self_("bench.op"), here.total("bench.op")),
        "sql.parse_us_per_stmt":
            us * ratio(both.total("sql.parse"), both.calls("sql.parse")),
        "sql.execute_self_us_per_stmt":
            us * ratio(both.self_("sql.execute"), both.calls("sql.execute")),
        "sql.stmts_parsed_per_op": both.calls("sql.parse") / ops,
        "concurrency.lock_self_us_per_op": us * both.self_("concurrency.lock.") / ops,
        "concurrency.lock_acquires_per_op":
            both.calls("concurrency.lock.acquire") / ops,
        "concurrency.begin_self_us_per_txn": us * ratio(
            both.self_("concurrency.begin"), both.calls("concurrency.begin")),
        "concurrency.commit_self_us_per_txn": us * ratio(
            both.self_("concurrency.commit"), both.calls("concurrency.commit")),
        "core.table_write_self_us_per_op":
            us * ratio(both.self_("core.table.", WRITES), writes),
        "core.table_read_self_us_per_op":
            us * ratio(both.self_("core.table.", CURRENT_READS), current),
        "core.asof_self_us_per_op":
            us * ratio(both.self_("core.table.", HISTORICAL), historical),
        "core.rowcodec_us_per_op": us * both.self_("core.rowcodec.") / ops,
        "access.btree_self_us_per_op": us * both.self_("access.btree.") / ops,
        "access.tsb_search_us_per_asof":
            us * ratio(both.total("access.tsb.search"), historical),
        "timestamp.self_us_per_op": us * both.self_("timestamp.") / ops,
        "storage.buffer_self_us_per_op": us * both.self_("storage.buffer.") / ops,
        "storage.page_codec_us_per_op": us * both.self_("storage.page.") / ops,
        "storage.disk_read_ms_per_op": ms * both.self_("storage.disk.read_page") / ops,
        "storage.disk_write_ms_per_op":
            ms * both.self_("storage.disk.write_page") / ops,
        "wal.encode_us_per_record":
            us * ratio(both.total("wal.encode"), both.calls("wal.encode")),
        # FileLogManager.append/force call the base class's: self times add
        # up to the outer call, call counts would double.
        "wal.append_self_us_per_record":
            us * ratio(both.self_("wal.append"), d["log_appends"]),
        "wal.force_ms_per_force": ms * ratio(both.self_("wal.force"), d["log_forces"]),
        "archive.migrate_ms_per_checkpoint":
            ms * ratio(both.total("archive.step"), d["checkpoints"]),
        "archive.decode_ms_per_block": ms * ratio(
            both.total("archive.materialize"), d["archive_block_reads"]),
    }
    if rep.get("server_agg"):
        request_self = here.self_("service.client.request")
        out.update({
            # the client's wait for the reply minus what the server spent on it
            "service.wire_self_ms_per_op": ms * (
                request_self - server.total("service.core.handle_payload")) / ops,
            "service.codec_us_per_op": us * both.self_("service.codec.") / ops,
            "service.core_self_ms_per_op": ms * server.self_("service.core.") / ops,
            "service.admission_wait_ms_per_op":
                ms * server.total("service.admission.") / ops,
            "service.bytes_per_op": here.units("service.codec.") / ops,
            # waiting for a worker, minus the time a worker ran the task
            "workers.queue_wait_ms_per_op": ms * (
                server.total("workers.wait") + server.total("workers.submit")
                - server.total("workers.run")) / ops,
            "workers.run_self_ms_per_op": ms * server.self_("workers.run") / ops,
        })
    return out
