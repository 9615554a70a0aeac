"""Call budgets for the paper's Fig. 5 transaction, an insert that splits
its page, the Fig. 6 reads, a buffer miss, and a point ``SELECT`` and a keyed
``UPDATE`` through the socket service.

With the data in the buffer pool nothing on the update path waits, so its
speed is its instruction count — for this engine, the number of Python
function calls.  The same holds for a historical read once the as-of route
cache and the page's chain view are warm, and for what a buffer miss adds
to either once the image is in memory: decoding it.  The budgets below sit about
10 % above what the paths cost today: a count, not a timing, so the test cannot flake, and the next
layer of indirection someone adds to the path fails here instead of
quietly costing two percent.  Raise a budget only together with the per-layer
table in DESIGN.md ("Hot-path performance").
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading

from repro import PROFILES, ImmortalDB
from repro.service.client import ServiceClient
from repro.service.server import ThreadedService
from repro.storage.page import DataPage, decode_page
from repro.storage.record import RecordVersion

# Python calls on CPython 3.10-3.12 (3.12 takes two fewer):
UPDATE_BUDGET = 158   # begin + update one record + commit: 143 (256 before the diet)
READ_BUDGET = 67      # begin + read one record + commit: 61 (159 before)
# An insert that finds its leaf full of single live versions key splits it —
# and nothing else: 687 while every such split first stamped the page, took
# a page id and built two pages for a time split that could move nothing.
KEY_SPLIT_BUDGET = 380    # begin + insert + key split + commit: 346
# The tuned read path (route cache + lazy chain views), everything warm:
ASOF_READ_BUDGET = 47   # read_as_of of one key: 43 (57 before PR 16)
HISTORY_BUDGET = 260    # history() of a key with 20 versions: 236 (572 before)
# What a buffer miss costs past the disk read:
DECODE_BUDGET = 40      # decode_page of a 25-record data page: 36 (88 before PR 17)
# Everything the server does for one statement over a real socket, on the
# connection's thread — frame, JSON, admission, slot, dedup, lift, shape
# lookup, bind, plan, the transaction, encode (230 and 362 while every
# statement was lexed and parsed, 88 calls, and an UPDATE read its row first):
SERVICE_READ_BUDGET = 136     # point SELECT: 124, the engine ~70
SERVICE_UPDATE_BUDGET = 240   # keyed UPDATE: 218, the engine ~150

KEYS = 200
SAMPLES = 50


def python_calls(operation) -> int:
    """Python-level ``call`` events while ``operation()`` runs.

    Built-in (C) calls are left out: their number moves between interpreter
    versions for the same source, the Python frames entered do not.
    """
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(profile)
    try:
        operation()
    finally:
        sys.setprofile(None)
    return count - 1    # the lambda/function passed in is one call itself


def measure() -> tuple[float, float]:
    """Median calls of one update transaction and of one current read."""
    db = ImmortalDB()
    table = db.create_table("kv", [("k", "int"), ("v", "text")], key="k",
                            immortal=True)
    with db.transaction() as txn:
        for k in range(KEYS):
            table.insert(txn, {"k": k, "v": "x" * 40})

    def update(k: int) -> None:
        txn = db.begin()
        table.update(txn, k, {"v": "y" * 40})
        db.commit(txn)

    def read(k: int) -> None:
        txn = db.begin()
        assert table.read(txn, k) is not None
        db.commit(txn)

    for k in range(KEYS):       # warm: every chain has a stamped predecessor
        update(k)
        read(k)
    # The median of 50 leaves out the few transactions that split a page.
    updates = [python_calls(lambda: update(k)) for k in range(SAMPLES)]
    reads = [python_calls(lambda: read(k)) for k in range(SAMPLES)]
    return statistics.median(updates), statistics.median(reads)


def test_update_and_read_stay_within_their_call_budgets():
    update_calls, read_calls = measure()
    assert update_calls <= UPDATE_BUDGET, (
        f"one update transaction now takes {update_calls} Python calls "
        f"(budget {UPDATE_BUDGET})"
    )
    assert read_calls <= READ_BUDGET, (
        f"one current read now takes {read_calls} Python calls "
        f"(budget {READ_BUDGET})"
    )
    # A budget left far above the path protects nothing.
    assert update_calls >= 0.8 * UPDATE_BUDGET
    assert read_calls >= 0.8 * READ_BUDGET


def measure_key_split() -> float:
    """Median calls of an insert transaction that key splits its leaf, in an
    ascending load (every full leaf holds one live version per key)."""
    db = ImmortalDB()
    table = db.create_table("kv", [("k", "int"), ("v", "text")], key="k",
                            immortal=True)
    splits = table.btree.stats

    def insert(k: int) -> None:
        txn = db.begin()
        table.insert(txn, {"k": k, "v": "x" * 400})
        db.commit(txn)

    samples = []
    for k in range(400):
        before = splits.key_splits
        calls = python_calls(lambda: insert(k))
        if splits.key_splits > before:
            samples.append(calls)
    assert len(samples) >= 20 and splits.time_splits == 0
    return statistics.median(samples)


def test_a_key_split_stays_within_its_call_budget():
    calls = measure_key_split()
    assert calls <= KEY_SPLIT_BUDGET, (
        f"an insert that key splits its page now takes {calls} Python calls "
        f"(budget {KEY_SPLIT_BUDGET})"
    )
    assert calls >= 0.8 * KEY_SPLIT_BUDGET


def measure_historical() -> tuple[float, float]:
    """Median calls of one hot AS OF point read and of one 20-version
    ``history()``, on the ``tuned`` profile's read path."""
    db = ImmortalDB(**PROFILES["tuned"])
    table = db.create_table("kv", [("k", "int"), ("v", "text")], key="k",
                            immortal=True)
    with db.transaction() as txn:
        for k in range(KEYS):
            table.insert(txn, {"k": k, "v": "x" * 40})
    marks = []
    for round_no in range(19):
        db.advance_time(100)
        for k in range(SAMPLES):
            with db.transaction() as txn:
                table.update(txn, k, {"v": f"{round_no}" + "y" * 40})
        marks.append(db.now())
    assert db.table("kv").btree.stats.time_splits > 0

    def read(k: int) -> None:
        assert table.read_as_of(marks[k % len(marks)], k) is not None

    def history(k: int) -> None:
        assert len(table.history(k)) == 20

    for k in range(SAMPLES):    # warm: routes, chain views, row memo
        read(k)
        history(k)
    reads = [python_calls(lambda: read(k)) for k in range(SAMPLES)]
    histories = [python_calls(lambda: history(k)) for k in range(SAMPLES)]
    return statistics.median(reads), statistics.median(histories)


def test_historical_reads_stay_within_their_call_budgets():
    read_calls, history_calls = measure_historical()
    assert read_calls <= ASOF_READ_BUDGET, (
        f"one hot AS OF read now takes {read_calls} Python calls "
        f"(budget {ASOF_READ_BUDGET})"
    )
    assert history_calls <= HISTORY_BUDGET, (
        f"history() of a 20-version key now takes {history_calls} Python "
        f"calls (budget {HISTORY_BUDGET})"
    )
    assert read_calls >= 0.8 * ASOF_READ_BUDGET
    assert history_calls >= 0.8 * HISTORY_BUDGET


def measure_decode() -> int:
    """Calls of one ``decode_page`` of a data page holding 25 records:
    one per record (its constructor) plus a fixed dozen for the page."""
    page = DataPage(7, immortal=True)
    for k in range(25):
        page.insert_version(RecordVersion.new(b"k%08d" % k, b"x" * 100, tid=k + 1))
    raw = page.to_bytes()
    assert len(decode_page(raw).versions) == 25
    return python_calls(lambda: decode_page(raw))


def test_a_buffer_miss_stays_within_its_decode_budget():
    calls = measure_decode()
    assert calls <= DECODE_BUDGET, (
        f"decoding a 25-record page now takes {calls} Python calls "
        f"(budget {DECODE_BUDGET})"
    )
    assert calls >= 0.8 * DECODE_BUDGET


@functools.cache
def measure_service() -> tuple[float, float]:
    """Median Python calls on the connection thread per point ``SELECT``
    and per keyed ``UPDATE``.

    The thread makes no Python call between writing one reply and reading
    the next request, so what a client counts between two replies is
    exactly one request.
    """
    db = ImmortalDB()
    table = db.create_table("kv", [("k", "int"), ("v", "text")], key="k",
                            immortal=True)
    with db.transaction() as txn:
        for k in range(KEYS):
            table.insert(txn, {"k": k, "v": "x" * 40})
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and threading.current_thread().name == "svc-conn":
            count += 1

    def calls(client, sql: str) -> tuple[int, dict]:
        before = count
        response = client.execute(sql)
        return count - before, response

    reads, updates = [], []
    with ThreadedService(db, port=0, pool_workers=2) as svc:
        with ServiceClient("127.0.0.1", svc.port) as client:
            threading.setprofile(profile)   # read by threads as they start
            try:
                client.ping()               # connects: the thread starts here
            finally:
                threading.setprofile(None)
            for k in range(SAMPLES):
                n, response = calls(client, f"SELECT * FROM kv WHERE k = {k}")
                assert response["rows"][0]["k"] == k
                reads.append(n)
            for k in range(2 * SAMPLES):    # the first round stamps each chain
                n, response = calls(
                    client, f"UPDATE kv SET v = 'y{k}' WHERE k = {k % SAMPLES}"
                )
                assert response["rowcount"] == 1
                updates.append(n)
    return statistics.median(reads), statistics.median(updates[SAMPLES:])


def test_a_point_select_over_the_socket_stays_within_its_call_budget():
    calls, _ = measure_service()
    assert calls <= SERVICE_READ_BUDGET, (
        f"one point SELECT now takes {calls} Python calls on the server's "
        f"connection thread (budget {SERVICE_READ_BUDGET})"
    )
    assert calls >= 0.8 * SERVICE_READ_BUDGET


def test_a_keyed_update_over_the_socket_stays_within_its_call_budget():
    _, calls = measure_service()
    assert calls <= SERVICE_UPDATE_BUDGET, (
        f"one keyed UPDATE now takes {calls} Python calls on the server's "
        f"connection thread (budget {SERVICE_UPDATE_BUDGET})"
    )
    assert calls >= 0.8 * SERVICE_UPDATE_BUDGET


if __name__ == "__main__":
    print("update, read:", measure())
    print("key-splitting insert:", measure_key_split())
    print("as-of read, history:", measure_historical())
    print("decode_page:", measure_decode())
    print("service point SELECT, keyed UPDATE:", measure_service())
