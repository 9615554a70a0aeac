"""Property-based tests of the engine's cross-module invariants.

These drive the *whole engine* with randomized operation sequences and
check the paper's structural guarantees afterwards:

* temporal correctness: AS OF any past mark reproduces the model state
  captured at that mark, no matter how pages split in between;
* the coverage invariant: every data page contains all versions alive in
  its time range (the "essential point" of Section 3.3);
* chain/slot structural sanity on every page;
* crash-recovery equivalence: a crash at an arbitrary point never changes
  committed state or history.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import PROFILES, ColumnType, ImmortalDB, Timestamp
from repro.core.integrity import page_accounting
from repro.storage.constants import NO_PREVIOUS


COLS = [("k", ColumnType.INT), ("v", ColumnType.TEXT)]

# One random operation: (kind, key_choice, value_salt)
op_strategy = st.tuples(
    st.sampled_from(["insert", "update", "delete", "mark", "tick"]),
    st.integers(0, 11),
    st.integers(0, 999),
)


def _apply_ops(db, table, ops, pad: int = 1):
    """Apply random ops, maintaining a model dict; returns [(mark, model)]."""
    model: dict[int, str] = {}
    marks: list[tuple[Timestamp, dict[int, str]]] = []
    for kind, key, salt in ops:
        if kind == "mark":
            marks.append((db.now(), dict(model)))
            continue
        if kind == "tick":
            db.advance_time(37.0 * (salt % 10 + 1))
            continue
        if kind == "checkpoint":
            db.checkpoint(flush=salt % 2 == 0)
            continue
        value = f"v{salt}-" + "x" * (salt % 40 * pad)
        with db.transaction() as txn:
            if kind == "insert":
                if key in model:
                    continue
                table.insert(txn, {"k": key, "v": value})
                model[key] = value
            elif kind == "update":
                if key not in model:
                    continue
                table.update(txn, key, {"v": value})
                model[key] = value
            else:  # delete
                if key not in model:
                    continue
                table.delete(txn, key)
                del model[key]
    marks.append((db.now(), dict(model)))
    return marks


def _rows_as_dict(rows):
    return {row["k"]: row["v"] for row in rows}


class TestTemporalCorrectness:
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=st.lists(op_strategy, min_size=5, max_size=120))
    def test_asof_scan_matches_model(self, ops):
        db = ImmortalDB(buffer_pages=32)  # small pool: force real paging
        table = db.create_table("t", COLS, key="k", immortal=True)
        marks = _apply_ops(db, table, ops)
        for mark, expected in marks:
            assert _rows_as_dict(table.scan_as_of(mark)) == expected

    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=st.lists(op_strategy, min_size=5, max_size=100))
    def test_asof_point_reads_match_model(self, ops):
        db = ImmortalDB(buffer_pages=32)
        table = db.create_table("t", COLS, key="k", immortal=True)
        marks = _apply_ops(db, table, ops)
        for mark, expected in marks:
            for key in range(12):
                row = table.read_as_of(mark, key)
                if key in expected:
                    assert row is not None and row["v"] == expected[key]
                else:
                    assert row is None

    @settings(
        max_examples=12, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        ops=st.lists(op_strategy, min_size=5, max_size=80),
        use_tsb=st.booleans(),
    )
    def test_crash_recovery_preserves_all_marks(self, ops, use_tsb):
        db = ImmortalDB(buffer_pages=32, use_tsb_index=use_tsb)
        table = db.create_table("t", COLS, key="k", immortal=True)
        marks = _apply_ops(db, table, ops)
        db.crash_and_recover()
        table = db.table("t")
        for mark, expected in marks:
            assert _rows_as_dict(table.scan_as_of(mark)) == expected


class TestAllocatorBooks:
    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(
                    ["insert", "update", "update", "delete", "tick", "checkpoint"]
                ),
                st.integers(0, 39), st.integers(0, 999),
            ),
            min_size=20, max_size=200,
        ),
        tuned=st.booleans(),
    )
    def test_no_page_id_is_taken_for_nothing(self, ops, tuned):
        """Whatever fills a page — inserts, versions, stubs, with commits
        stamped or still waiting for a checkpoint — splitting it takes a
        page id only for a page it logs: nothing is ever orphaned."""
        db = ImmortalDB(
            buffer_pages=32, **(PROFILES["tuned"] if tuned else {})
        )
        table = db.create_table("t", COLS, key="k", immortal=True)
        marks = _apply_ops(db, table, ops, pad=40)
        books = page_accounting(db)
        assert books.orphans == []
        assert books.page_count == sum(books.by_kind.values())
        for mark, expected in marks[-2:]:
            assert _rows_as_dict(table.scan_as_of(mark)) == expected


class TestReadPathEquivalence:
    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=st.lists(op_strategy, min_size=20, max_size=160))
    def test_tuned_and_paper_read_paths_agree(self, ops):
        """Lazy chain views, int timestamps, the row memo and lazily opened
        archive blocks (``tuned``) answer what the plain chain walk
        (``paper``) answers — also where a mark is a version's own start
        time, which a seeded workload with ticks between never hits."""
        answers = []
        for kwargs in (
            {},
            dict(PROFILES["tuned"], archive=dict(
                cold_ms=100.0, pages_per_step=64, max_cached_pages=2)),
        ):
            db = ImmortalDB(buffer_pages=32, **kwargs)
            table = db.create_table("t", COLS, key="k", immortal=True)
            marks = _apply_ops(db, table, ops, pad=60)
            db.advance_time(500.0)
            if db.archive is not None:
                db.archive.drain()      # all cold history, behind two blocks
            times = [mark for mark, _ in marks]
            for _ in range(2):  # cold views, then warm ones: same answers
                answers.append((
                    [table.scan_as_of(ts) for ts in times],
                    [[table.read_as_of(ts, k) for k in range(12)]
                     for ts in times],
                    [table.history(k) for k in range(12)],
                    [table.history(k, times[0], times[-1]) for k in range(12)],
                    table.changes_between(times[0], times[-1]),
                ))
            for (mark, expected), rows in zip(marks, answers[-1][0]):
                assert _rows_as_dict(rows) == expected
            db.close()
        assert answers[0] == answers[1] == answers[2] == answers[3]


class TestStructuralInvariants:
    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=st.lists(op_strategy, min_size=20, max_size=150))
    def test_page_invariants_hold_everywhere(self, ops):
        db = ImmortalDB(buffer_pages=32)
        table = db.create_table("t", COLS, key="k", immortal=True)
        _apply_ops(db, table, ops)
        for page in table.iter_all_pages():
            # Slot array sorted and pointing at valid versions.
            keys = page.keys()
            assert keys == sorted(keys)
            assert all(0 <= h < len(page.versions) for h in page.slots)
            # Chains walk newest -> older without cycles.
            for key in keys:
                seen = set()
                for version in page.chain(key):
                    vid = id(version)
                    assert vid not in seen
                    seen.add(vid)
                    assert version.key == key
            # Time range sanity.
            if page.is_history:
                assert page.split_ts < page.end_ts
                # History pages hold no uncommitted (TID-marked) versions.
                assert not page.has_unstamped_records()

    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=st.lists(op_strategy, min_size=30, max_size=150))
    def test_coverage_invariant(self, ops):
        """Each page contains every version alive in its time range.

        For every key and every history page P on that key's chain: the
        version of the key visible at any time within P's range must be
        findable inside P itself (no cross-page search needed) — exactly
        what the time split's case-2 redundancy guarantees.
        """
        db = ImmortalDB(buffer_pages=64)
        table = db.create_table("t", COLS, key="k", immortal=True)
        _apply_ops(db, table, ops)
        # Gather the global truth: every committed version of every key.
        truth: dict[int, list] = {}
        for key_num in range(12):
            history = table.history(key_num)
            if history:
                truth[key_num] = history
        for page in table.iter_all_pages():
            if not page.is_history:
                continue
            for key in page.keys():
                key_num = table.codec.decode_key(key)
                history = truth[key_num]
                # Non-stub versions whose lifetime [ts_i, ts_{i+1}) overlaps
                # this page's [split_ts, end_ts).  (Delete stubs follow a
                # different placement rule — Figure 3 removes old stubs from
                # current pages — so only live versions are required.)
                alive = [
                    ts for i, (ts, row) in enumerate(history)
                    if row is not None
                    and ts < page.end_ts
                    and (i + 1 == len(history)
                         or history[i + 1][0] > page.split_ts)
                ]
                in_page = {
                    v.timestamp
                    for v in page.chain(key)
                    if v.is_timestamped
                }
                for ts in alive:
                    assert ts in in_page, (
                        f"version {ts} of key {key_num} alive in "
                        f"[{page.split_ts}, {page.end_ts}) missing from "
                        f"page {page.page_id}"
                    )


class TestConventionalEquivalence:
    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=st.lists(op_strategy, min_size=5, max_size=100))
    def test_immortal_and_plain_agree_on_current_state(self, ops):
        """An immortal table and a plain table see identical present."""
        db = ImmortalDB(buffer_pages=64)
        immortal = db.create_table("imm", COLS, key="k", immortal=True)
        plain = db.create_table("pl", COLS, key="k")
        marks_a = _apply_ops(db, immortal, ops)
        marks_b = _apply_ops(db, plain, ops)
        assert marks_a[-1][1] == marks_b[-1][1]
        with db.transaction() as txn:
            assert (
                _rows_as_dict(immortal.scan(txn))
                == _rows_as_dict(plain.scan(txn))
                == marks_a[-1][1]
            )


# -- SQL: a statement is parsed once per shape ---------------------------------

_SQL_FRAGMENTS = [
    "SELECT", "select", "*", "FROM", "t", "t1", "WHERE", "k", "v", "=", "<",
    "<=", "<>", "!=", "AND", "OR", "NOT", "(", ")", ",", ";", "AS OF", "LIMIT",
    "ORDER BY", "UPDATE", "SET", "DELETE", "INSERT INTO", "VALUES", "HISTORY OF",
    "TO", "BEGIN TRAN", "NULL", "TRUE", "5", "-5", "+5", "- 5", "0", "3.25",
    ".5", "1e5", "1.2.3", "5.", "'x'", "'it''s'", '"8/12/2004 10:15:20"', "''",
    "'a -- b'", "'", '"', "-- it's 7\n", "--", "-", "@", " ", "  ", "\n",
]

#: Statements with holes: ``@`` takes a literal, ``~`` a gap (or none).
_SQL_TEMPLATES = [
    "SELECT * FROM t WHERE k~=~@", "SELECT k, v FROM t1 WHERE k<@ AND v <> @",
    "SELECT * FROM t LIMIT@", "SELECT * FROM t WHERE k >= @ ORDER BY k LIMIT~@",
    "SELECT * FROM t AS OF @ WHERE k = @", "UPDATE t SET v~=~@ WHERE k~=~@",
    "UPDATE t SET v = @, n = @ WHERE k = @ OR NOT (n > @)",
    "DELETE FROM t WHERE k = @~;", "INSERT INTO t VALUES (@,~@), (@, @)",
    "SELECT HISTORY OF t WHERE k = @ FROM @ TO @", "BEGIN TRAN AS OF~@",
    "CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(@))", "SELECT * FROM t WHERE k=@AND v=@",
]
_SQL_LITERALS = st.one_of(
    st.sampled_from([
        "5", "-5", "+5", "- 5", "-0", "3.25", "-.5", "1e5", "1.2.3", "5.", "007",
        "NULL", "TRUE", "'x'", "'it''s'", '"8/12/2004 10:15:20"', "'2006-01-01'",
        "''", "'a -- b'", "'?'",
    ]),
    st.integers(-10**6, 10**6).map(str),
    st.text(alphabet="ab '\"-?5;", max_size=6).map(
        lambda body: "'" + body.replace("'", "''") + "'"
    ),
)
_SQL_GAPS = st.sampled_from(["", " ", " ", "  ", "\n", " -- it's 7\n"])


def _fill(drawn) -> str:
    template, literals, gaps = drawn
    for hole, texts in (("@", literals), ("~", gaps)):
        for text in texts:
            template = template.replace(hole, text, 1)
    return template.replace("@", "1").replace("~", " ")


class TestStatementShapes:
    @settings(max_examples=300, deadline=None)
    @given(
        texts=st.lists(
            st.one_of(
                st.lists(st.sampled_from(_SQL_FRAGMENTS), max_size=14).map(
                    " ".join
                ),
                st.lists(st.sampled_from(_SQL_FRAGMENTS), max_size=14).map(
                    "".join
                ),
                st.text(alphabet="sk t=<>'\"-.+5e1();,\n", max_size=24),
                st.tuples(
                    st.sampled_from(_SQL_TEMPLATES),
                    st.lists(_SQL_LITERALS, max_size=4),
                    st.lists(_SQL_GAPS, max_size=4),
                ).map(_fill),
            ),
            min_size=1, max_size=6,
        ),
        others=st.lists(
            st.sampled_from(["9", "-9", "+9", "2.5", "-.5", "'z'", '"q""q"']),
            min_size=1, max_size=5,
        ),
    )
    def test_execute_dispatches_what_parse_statement_returns(
        self, texts, others
    ):
        """Statements and token soup through one session, each text as it
        is and again with the literals ``lift`` sees in it swapped for others
        (the same shape, as a rule): the statement handed to ``_dispatch``
        equals ``parse_statement`` of that text, and a reject is the same
        exception, message and position."""
        from repro.errors import ImmortalDBError
        from repro.sql import Session, parse_statement
        from repro.sql.lexer import lift

        def outcome(call):
            try:
                return ("ok", call())
            except (ImmortalDBError, ValueError) as exc:
                return (type(exc), str(exc), getattr(exc, "position", None))

        session = Session(ImmortalDB())
        seen: list = []
        session._dispatch = seen.append
        for text in texts:
            shape, literals = lift(text)
            swapped = "".join(
                part + (others[i % len(others)] if i < len(literals) else "")
                for i, part in enumerate(shape)
            )
            for sql in (text, swapped):
                expected = outcome(lambda: parse_statement(sql))
                got = outcome(lambda: session.execute(sql) or seen.pop())
                assert got == expected, sql
                if expected[0] == "ok":     # and it ran from its shape's parse
                    assert lift(sql)[0] in session._shapes, sql
