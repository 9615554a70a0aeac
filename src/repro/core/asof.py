"""AS OF query machinery: routing by time, then by version chain.

Query processing follows Section 4.2 exactly:

1. traverse the B-tree on the primary key to the *current* page;
2. check the current page's **split time** — if the as-of time is later, the
   version we want is in the current page;
3. otherwise follow the time-split page chain back to the page whose
   ``[split time, end time)`` range contains the as-of time (or, with the
   TSB-tree, jump straight to it);
4. follow the record's version chain *within that one page* to the version
   with the largest timestamp ≤ the as-of time.

Step 4 only ever needs one page because of the time split's case-2
redundancy: every page contains all versions alive in its time range.

Two read-path caches live here; ``asof_route_cache`` turns both on (the
``tuned`` profile does, ``paper`` does not).  Timestamps inside them are
ints (:attr:`~repro.clock.Timestamp.key`): bisect, dedupe and sort run in C.

* :class:`AsOfRouteCache` memoizes the step-3 chain walk per current leaf:
  one full walk records every ``[split_ts, end_ts)`` interval on the chain,
  and later queries binary-search the interval list instead of re-walking
  pages.  Entries are validated against the leaf's
  :attr:`~repro.storage.page.Page.cache_token` (instance stamp + mutation
  epoch), so any leaf mutation — insert, stamping, time split — invalidates
  the route; history pages are immutable once created, so the recorded
  intervals themselves can never go stale while the leaf is unchanged.
* :class:`PageView` memoizes step 4 per page, one key at a time: the first
  read of a key partitions its chain into the unstamped (TID-marked) prefix
  and an *ascending* array of stamped timestamps with a decoded-row memo
  beside it, so visibility is one bisect and a hot row is decoded once.
  Filled only under the engine latch, and never older than its page:
  :class:`PageViewCache` keys the views of buffer-pool pages by cache token,
  a decoded archive block carries its own and takes it along when evicted.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial

from repro.clock import TID_FLAG, Timestamp
from repro.concurrency.snapshot import Resolver, visible_version
from repro.errors import AccessMethodError
from repro.faults.failpoints import fire
from repro.storage.buffer import BufferPool
from repro.storage.constants import ARCHIVE_PID_BIT, DELETE_STUB
from repro.storage.page import DataPage
from repro.storage.record import RecordVersion


@dataclass
class AsOfStats:
    """Instrumentation for the Fig-6 / Abl-2 benches and the read path."""

    queries: int = 0
    chain_hops: int = 0          # history pages walked through
    pages_examined: int = 0
    tsb_lookups: int = 0
    page_reads: int = 0          # data pages fetched by read operations
    chain_steps: int = 0         # record versions examined for visibility
    route_cache_hits: int = 0
    route_cache_misses: int = 0

    def snapshot(self) -> "AsOfStats":
        """An independent copy of the current counter values."""
        return AsOfStats(
            self.queries, self.chain_hops, self.pages_examined,
            self.tsb_lookups, self.page_reads, self.chain_steps,
            self.route_cache_hits, self.route_cache_misses,
        )


def page_for_time(
    buffer: BufferPool,
    leaf: DataPage,
    ts: Timestamp,
    stats: AsOfStats | None = None,
) -> DataPage | None:
    """Walk the time-split chain from a current leaf to the page covering ``ts``.

    Returns None when ``ts`` predates all recorded history for this leaf's
    key region (the table held no data for it then).
    """
    page: DataPage = leaf
    hops = 0
    while ts < page.split_ts:
        next_pid = page.history_page_id
        if not next_pid:
            if stats is not None:
                stats.chain_hops += hops
                stats.page_reads += hops + 1
            return None
        nxt = buffer.get_page(next_pid)
        if not isinstance(nxt, DataPage) or not nxt.is_history:
            raise AccessMethodError(
                f"history chain of page {page.page_id} hit non-history "
                f"page {next_pid}"
            )
        page = nxt
        hops += 1
    if stats is not None:
        stats.chain_hops += hops
        stats.pages_examined += 1
        stats.page_reads += hops + 1
    if page.is_history and ts >= page.end_ts:
        raise AccessMethodError(
            f"page chain routing error: {ts} not in "
            f"[{page.split_ts}, {page.end_ts}) of page {page.page_id}"
        )
    return page


def version_as_of(
    page: DataPage,
    key: bytes,
    ts: Timestamp,
    resolve: Resolver,
) -> RecordVersion | None:
    """The version of ``key`` with the largest timestamp ≤ ``ts`` in ``page``.

    Returns the version (possibly a delete stub — the caller interprets it)
    or None if the record did not exist at ``ts``.
    """
    return visible_version(
        page.chain(key), horizon=ts, inclusive=True, resolve=resolve
    )


# -- as-of route cache ---------------------------------------------------------


class _RouteEntry:
    """Interval list for one leaf's time-split chain, oldest first."""

    __slots__ = ("token", "structure", "bounds", "pids")

    def __init__(
        self,
        token: tuple[int, int],
        structure: tuple[int, Timestamp],
        bounds: list[int],
        pids: list[int],
    ) -> None:
        self.token = token
        # (history_page_id, split_ts) of the leaf when the entry was built:
        # the only leaf fields routing depends on.  When the mutation epoch
        # moved but these did not (a record insert, a stamping pass), the
        # intervals are still exact and the entry is revalidated in place.
        self.structure = structure
        self.bounds = bounds   # ascending split_ts keys; bounds[i] starts pids[i]
        self.pids = pids       # pids[-1] is the current leaf itself


class AsOfRouteCache:
    """Memoized ``page_for_time``: per-leaf interval lists keyed by epoch.

    A cache entry is valid exactly while the leaf's ``cache_token`` is
    unchanged; any mutation (insert, stamping, split — all of which bump the
    mutation epoch, or replace the page object entirely) invalidates it.
    History pages are never modified after creation, so a valid token also
    vouches for every interval recorded behind the leaf.
    """

    def __init__(
        self,
        buffer: BufferPool,
        stats: AsOfStats,
        *,
        max_entries: int = 4096,
    ) -> None:
        self.buffer = buffer
        self.stats = stats
        self.max_entries = max_entries
        self._entries: dict[int, _RouteEntry] = {}

    def clear(self) -> None:
        """Drop every cached route (crash / recovery / DDL)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, leaf: DataPage) -> _RouteEntry:
        """The interval list of ``leaf``'s chain; counts one hit or miss.

        Routing depends only on the leaf's ``history_page_id`` and
        ``split_ts``: content mutations (inserts, stamping) bump the epoch
        without moving either, so the intervals remain exact — refresh the
        stored token and keep the entry.  A different *object* (a split
        installed via ``replace_page``) always fails both checks.
        """
        entry = self._entries.get(leaf.page_id)
        if entry is not None and entry.token != (token := leaf.cache_token):
            if entry.token[0] == token[0] and entry.structure == (
                leaf.history_page_id, leaf.split_ts
            ):
                entry.token = token
            else:
                fire("asof.route.invalidate")
                del self._entries[leaf.page_id]
                entry = None
        if entry is None:
            fire("asof.route.miss")
            self.stats.route_cache_misses += 1
            return self._build(leaf)
        fire("asof.route.hit")
        self.stats.route_cache_hits += 1
        return entry

    def route(self, leaf: DataPage, ts: Timestamp) -> DataPage | None:
        """The page of ``leaf``'s chain covering ``ts`` (None: before history)."""
        entry = self.entry(leaf)
        at = ts.ttime << 32 | ts.sn
        i = bisect_right(entry.bounds, at) - 1
        if i < 0:
            return None  # ts predates all recorded history for this leaf
        pid = entry.pids[i]
        stats = self.stats
        stats.pages_examined += 1
        stats.page_reads += 1
        if pid == leaf.page_id:
            return leaf
        page = self.buffer.get_page(pid)
        if not isinstance(page, DataPage):
            raise AccessMethodError(
                f"route cache of leaf {leaf.page_id} led to non-data "
                f"page {pid}"
            )
        if at >= page.end_ts.key:   # a current page's end is Timestamp.MAX
            raise AccessMethodError(
                f"route cache error: {ts} not in "
                f"[{page.split_ts}, {page.end_ts}) of page {page.page_id}"
            )
        return page

    def on_time_split(self, outcome) -> None:
        """Extend a cached route across a time split instead of dropping it.

        The new history page's time range is exactly the interval the chain
        gained; the rebuilt current page keeps the page id, so the old entry
        (if its shape matches) becomes the new entry with one append.
        """
        leaf, history = outcome.current, outcome.history
        old = self._entries.pop(leaf.page_id, None)
        if old is None:
            return
        if not old.bounds or old.bounds[-1] != history.split_ts.key \
                or old.pids[-1] != leaf.page_id:
            fire("asof.route.invalidate")
            return  # entry predates an unseen structural change: drop it
        self._entries[leaf.page_id] = _RouteEntry(
            leaf.cache_token,
            (leaf.history_page_id, leaf.split_ts),
            old.bounds + [history.end_ts.key],
            old.pids[:-1] + [history.page_id, leaf.page_id],
        )

    def invalidate(self, leaf_pid: int) -> None:
        """Eagerly drop one leaf's cached route (key splits, root growth)."""
        if self._entries.pop(leaf_pid, None) is not None:
            fire("asof.route.invalidate")

    def _build(self, leaf: DataPage) -> _RouteEntry:
        """Walk the whole chain once; record every interval, newest first."""
        bounds: list[int] = []
        pids: list[int] = []
        page: DataPage = leaf
        while True:
            bounds.append(page.split_ts.key)
            pids.append(page.page_id)
            next_pid = page.history_page_id
            if not next_pid:
                break
            nxt = self.buffer.get_page(next_pid)
            if not isinstance(nxt, DataPage) or not nxt.is_history:
                raise AccessMethodError(
                    f"history chain of page {page.page_id} hit non-history "
                    f"page {next_pid}"
                )
            self.stats.chain_hops += 1
            self.stats.page_reads += 1
            page = nxt
        bounds.reverse()
        pids.reverse()
        entry = _RouteEntry(
            leaf.cache_token,
            (leaf.history_page_id, leaf.split_ts),
            bounds,
            pids,
        )
        if len(self._entries) >= self.max_entries:
            del self._entries[next(iter(self._entries))]  # the oldest route
        self._entries[leaf.page_id] = entry
        return entry


# -- page views (lazy per key: bisect visibility + decoded-row memo) -----------


class _ChainView:
    """One key's chain in one page, pre-sorted for binary-search visibility.

    ``unstamped`` holds the TID-marked prefix newest first; ``keys`` /
    ``versions`` are the stamped suffix in *ascending* timestamp order
    (``ttime_field << 32 | sn``) and ``rows[i]`` memoizes ``versions[i]``
    decoded (None: not decoded yet, or a delete stub).  If the chain
    violates the prefix/monotonicity invariant (it never should), ``linear``
    holds the raw chain and visibility falls back to the exact linear walk.
    """

    __slots__ = ("unstamped", "keys", "versions", "rows", "linear")

    def __init__(self, chain: list[RecordVersion]) -> None:
        prefix = 0
        for version in chain:
            if not version.ttime_field & TID_FLAG:
                break
            prefix += 1
        stamped = chain[prefix:]
        stamped.reverse()
        keys = [v.ttime_field << 32 | v.sn for v in stamped]
        self.linear = None
        if keys != sorted(keys):  # a TID below a stamp, or stamps not descending
            self.linear, prefix, keys, stamped = chain, 0, [], []
        self.unstamped = chain[:prefix]
        self.keys = keys
        self.versions = stamped
        self.rows: list[dict | None] = [None] * len(keys)

    @classmethod
    def stamped(cls, keys: list[int], versions: list[RecordVersion]) -> "_ChainView":
        """The view of a chain stamped throughout, given oldest first (an
        archived one): ``keys`` must ascend, else the linear fallback."""
        if keys != sorted(keys):
            return cls(versions[::-1])
        view = cls.__new__(cls)
        view.unstamped, view.keys, view.versions, view.linear = [], keys, versions, None
        view.rows = [None] * len(keys)
        return view

    def tids(self) -> set[int]:
        """Every TID still marking a version of the chain."""
        return {
            v.ttime_field ^ TID_FLAG for v in self.linear or self.unstamped
            if v.ttime_field & TID_FLAG
        }


def _view_of_chain(chain_of, key: bytes) -> _ChainView | None:
    chain = chain_of(key)
    return _ChainView(chain) if chain else None


class PageView(dict):
    """Key -> :class:`_ChainView` of one page, each built on first use.

    ``view[key]`` is a plain dict hit once built, and None when the page
    has no record for the key.  ``view_of`` builds one key's view: from
    ``DataPage.chain``, or straight from a decoded archive block's version
    table, which only ever builds the versions of keys somebody reads (and,
    stamped throughout, starts with ``tids`` empty)."""

    def __init__(self, view_of, tids: set[int] | None = None) -> None:
        self.view_of = view_of
        self.tids = tids

    def __missing__(self, key: bytes) -> _ChainView | None:
        chain_view = self[key] = self.view_of(key)
        return chain_view

    def complete(self, keys: list[bytes]) -> set[int]:
        """Build the view of every key of the page (a scan is about to
        iterate it); returns every TID still marking a version."""
        if self.tids is None:
            self.tids = set()
            for key in keys:
                self.tids |= self[key].tids()
        return self.tids


class PageViewCache:
    """Views of buffer-pool pages, keyed by the page's cache token."""

    def __init__(self, stats: AsOfStats, *, max_pages: int = 1024) -> None:
        self.stats = stats
        self.max_pages = max_pages
        self._views: dict[int, tuple[tuple[int, int], PageView]] = {}

    def clear(self) -> None:
        self._views.clear()

    def view(self, page: DataPage) -> PageView:
        pid = page.page_id
        if pid & ARCHIVE_PID_BIT:
            return page.view  # a decoded block's view lives in its LRU entry
        cached = self._views.get(pid)
        token = page.cache_token
        if cached is not None and cached[0] == token:
            return cached[1]
        view = PageView(partial(_view_of_chain, page.chain))
        if cached is None and len(self._views) >= self.max_pages:
            del self._views[next(iter(self._views))]  # the oldest view
        self._views[pid] = (token, view)
        return view


def visible_row(
    chain_view: _ChainView, key: bytes, codec, at: int, inclusive: bool,
    memo: dict[int, tuple[Timestamp | None, bool]], own_tid: int | None,
    stats: AsOfStats,
) -> dict | None:
    """The row of ``key`` visible at timestamp key ``at`` (None: no version
    then, or a delete stub), decoded through the view's memo; a fresh dict
    per call, so callers can mutate their row.

    ``memo`` is the TID→(timestamp, committed) map produced by
    :meth:`TimestampManager.resolve_many`.  Semantics match
    :func:`visible_version` exactly: the unstamped prefix is newer than
    every stamped version, so a committed unstamped version at or before
    the horizon wins; otherwise the newest stamped one there does.
    """
    pending = chain_view.linear or chain_view.unstamped
    if pending:
        version = visible_version(
            pending, horizon=Timestamp(at >> 32, at & 0xFFFFFFFF), stats=stats,
            inclusive=inclusive, resolve=memo.__getitem__, own_tid=own_tid,
        )
        if version is not None or chain_view.linear:
            if version is None or version.flags & DELETE_STUB:
                return None
            return codec.decode_row(key, version.payload)
    keys = chain_view.keys
    i = bisect_right(keys, at) if inclusive else bisect_left(keys, at)
    if not i:
        return None
    stats.chain_steps += 1
    row = chain_view.rows[i - 1]
    if row is None:
        version = chain_view.versions[i - 1]
        if version.flags & DELETE_STUB:
            return None
        row = chain_view.rows[i - 1] = codec.decode_row(key, version.payload)
    return dict(row)
