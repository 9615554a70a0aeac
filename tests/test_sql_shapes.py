"""A statement is parsed once per shape — and nothing else about it changes.

``Session.execute`` lifts the literals off the text, keeps one parse per
shape and binds the literals back in.  The contract under test: what is
dispatched *is* ``parse_statement(sql)``, and what ``parse_statement(sql)``
rejects is rejected with the same exception type, message and position —
on the statement that first meets a shape (a parse) and on every later one
(a lookup and a bind).  The seeded generator below writes statements of
every kind with the lexical hazards in them; ``IMMORTAL_SQLSHAPE_SEEDS``
widens it (3 seeds in tier-1, 50 in the nightly job).
"""

from __future__ import annotations

import os
import random

import pytest

from repro import ImmortalDB
from repro.core.table import Table
from repro.errors import (
    ImmortalDBError,
    ReadOnlyTransactionError,
    SchemaError,
    SQLExecutionError,
    SQLSyntaxError,
)
from repro.service import protocol
from repro.service.core import ServiceCore
from repro.service.transport import LoopbackConnection
from repro.sql import Session, ast, parse_statement
from repro.sql.executor import SHAPES_KEPT
from repro.sql.lexer import TokenType, lift, tokenize

SEEDS = int(os.environ.get("IMMORTAL_SQLSHAPE_SEEDS", "3"))
STATEMENTS_PER_SEED = 400


# -- the generator ------------------------------------------------------------

def _case(rng: random.Random, word: str) -> str:
    if rng.random() < 0.8:      # mostly one spelling, so that shapes recur
        return word
    return rng.choice((word.lower(), word.capitalize()))


def _gap(rng: random.Random) -> str:
    if rng.random() < 0.85:
        return " "
    return rng.choice(("  ", "\t", "\n", " \n "))


def _string(rng: random.Random) -> str:
    body = rng.choice((
        "x", "", "it's", 'say "hi"', "a -- b", "42", "1e5", "k = 7", "?", "né",
        "-5", "semi;colon",
    ))
    quote = rng.choice("'\"")
    return quote + body.replace(quote, quote * 2) + quote


def _number(rng: random.Random) -> str:
    return rng.choice((
        "0", "7", "42", "-5", "+5", "-0", "3.25", "-3.25", ".5", "-.5",
        "1e5", "1.2.3", "5.", "007", "- 5", "12abc",
    ))


def _literal(rng: random.Random) -> str:
    pick = rng.random()
    if pick < 0.45:
        return _number(rng)
    if pick < 0.85:
        return _string(rng)
    return _case(rng, rng.choice(("NULL", "TRUE", "FALSE")))


def _comparison(rng: random.Random) -> str:
    column = rng.choice(("k", "v", "n", "col2", "t1"))
    op = rng.choice(("=", "=", "=", "<>", "!=", "<", "<=", ">", ">="))
    pad = rng.choice(("", " "))
    return f"{column}{pad}{op}{pad}{_literal(rng)}"


def _where(rng: random.Random) -> str:
    shape = rng.random()
    if shape < 0.5:
        expr = _comparison(rng)
    elif shape < 0.75:
        glue = _case(rng, rng.choice(("AND", "OR")))
        expr = f"{_comparison(rng)} {glue} {_comparison(rng)}"
    elif shape < 0.85:
        expr = f"{_case(rng, 'NOT')} ({_comparison(rng)})"
    elif shape < 0.95:
        # digits glued to a keyword: ``k=1AND v=2`` lexes, and must not lift
        expr = f"k={rng.randrange(9)}AND v={_literal(rng)}"
        if rng.random() < 0.3:      # and a sign glued to one must
            expr += f" AND{rng.choice('-+')}{rng.randrange(9)} < n"
    else:
        expr = f"({_comparison(rng)} OR {_comparison(rng)}) AND {_comparison(rng)}"
    return f"{_case(rng, 'WHERE')}{_gap(rng)}{expr}"


def _datetime(rng: random.Random) -> str:
    return rng.choice((
        '"8/12/2004 10:15:20"', "'2006-01-01 00:00:01'", "'2006-01-01'",
        "5", "-5", "'not a date'",
    ))


def _statement(rng: random.Random) -> str:
    g = _gap(rng)
    table = rng.choice(("t", "t", "t", "T2", "moving_objects1"))
    kind = rng.randrange(10)
    if kind == 0:
        cols = rng.choice(("*", "k", "k, v"))
        sql = f"{_case(rng, 'SELECT')}{g}{cols}{g}{_case(rng, 'FROM')} {table}"
        if rng.random() < 0.3:
            sql += f" AS OF {_datetime(rng)}"
        if rng.random() < 0.8:
            sql += f" {_where(rng)}"
        if rng.random() < 0.2:
            sql += f" ORDER BY k {rng.choice(('', 'ASC', 'DESC'))}"
        if rng.random() < 0.3:
            # a sign glued to the keyword lexes as the number's (``LIMIT+2``)
            count = rng.choice(("3", "0", "+2", "-0", "-1", "1.5", "'x'"))
            sql += f" {_case(rng, 'LIMIT')}{rng.choice((' ', ' ', ''))}{count}"
    elif kind == 1:
        sql = f"UPDATE {table} SET v{g}={g}{_literal(rng)}"
        if rng.random() < 0.3:
            sql += f", n = {_literal(rng)}"
        if rng.random() < 0.9:
            sql += f" {_where(rng)}"
    elif kind == 2:
        sql = f"DELETE FROM {table}"
        if rng.random() < 0.9:
            sql += f" {_where(rng)}"
    elif kind == 3:
        rows = ", ".join(
            f"({_literal(rng)},{g}{_literal(rng)})"
            for _ in range(rng.choice((1, 1, 2)))
        )
        cols = rng.choice(("", " (k, v)"))
        sql = f"{_case(rng, 'INSERT')} INTO {table}{cols} VALUES {rows}"
    elif kind == 4:
        sql = f"SELECT HISTORY OF {table} {_where(rng)}"
        if rng.random() < 0.5:
            sql += f" FROM {_datetime(rng)} TO {_datetime(rng)}"
    elif kind == 5:
        sql = rng.choice(("BEGIN TRAN", "BEGIN SNAPSHOT TRAN", "begin transaction"))
        if rng.random() < 0.6:
            sql += f" AS OF {_datetime(rng)}"
    elif kind == 6:
        sql = rng.choice(("COMMIT", "COMMIT TRAN", "ROLLBACK TRAN", "rollback"))
    elif kind == 7:
        size = rng.choice(("", "(20)", "(30)", "(-1)", "('x')", "(2.5)"))
        sql = (
            f"CREATE {rng.choice(('', 'IMMORTAL '))}TABLE {table} "
            f"(k INT PRIMARY KEY, v VARCHAR{size}, n SMALLINT)"
        )
    elif kind == 8:
        sql = rng.choice((
            f"DROP TABLE {table}", f"ALTER TABLE {table} ENABLE SNAPSHOT",
        ))
    else:
        # plain damage: a statement cut short, doubled, or with stray input
        base = _statement(rng)
        sql = rng.choice((
            base[: rng.randrange(len(base) + 1)], f"{base} {base}",
            f"{base} extra", f"@ {base}",
        ))
    if rng.random() < 0.25:
        comment = rng.choice((
            "-- it's 7", '-- "quoted" 42', "-- plain", "-- where k = ? and 'x",
        ))
        where = rng.random()
        if where < 0.5:
            sql = f"{sql} {comment}"
        elif where < 0.8:
            sql = f"{comment}\n{sql}"
        else:   # mid-statement, after the first token
            head, _, tail = sql.partition(" ")
            sql = f"{head} {comment}\n{tail}"
    if rng.random() < 0.3:
        sql += rng.choice((";", " ;", ";;", " ; "))
    return rng.choice(("", " ", "\n")) + sql


# -- the oracle -----------------------------------------------------------------

def _outcome(call):
    """What ``call()`` did: its result, or the exception it raised."""
    try:
        return ("ok", call())
    except (ImmortalDBError, ValueError) as exc:
        return ("error", type(exc), str(exc), getattr(exc, "position", None))


def _capturing_session() -> tuple[Session, list]:
    """A session whose ``_dispatch`` only records what it was handed."""
    session = Session(ImmortalDB())
    seen: list = []
    session._dispatch = seen.append
    return session, seen


def _prepared(session: Session, seen: list, sql: str, params=()):
    def call():
        session.execute(sql, params)
        return seen.pop()

    return _outcome(call)


_OTHER_LITERALS = ("9", "-9", "+9", "0", "2.5", "-.5", "'z'", '"it''s"', "''")


def _other_literals(rng: random.Random, sql: str) -> str:
    """``sql`` with each literal :func:`lift` sees in it swapped for another:
    as a rule a text of the same shape, whose parse must not be ``sql``'s."""
    shape, literals = lift(sql)
    return "".join(
        part + (rng.choice(_OTHER_LITERALS) if i < len(literals) else "")
        for i, part in enumerate(shape)
    )


@pytest.mark.parametrize("seed", range(SEEDS))
def test_what_is_dispatched_is_the_parse_of_the_statement(seed):
    rng = random.Random(seed)
    session, seen = _capturing_session()
    parsed_ok = hits = 0
    for _ in range(STATEMENTS_PER_SEED):
        sql = _statement(rng)
        expected = _outcome(lambda: parse_statement(sql))
        known = lift(sql)[0] in session._shapes
        assert _prepared(session, seen, sql) == expected, (seed, sql)
        if expected[0] == "ok":
            # Every statement the parser takes is run from its shape's parse.
            assert lift(sql)[0] in session._shapes, (seed, sql)
        # Again with other literals: the shape is in the table for certain.
        other = _other_literals(rng, sql)
        assert _prepared(session, seen, other) == \
            _outcome(lambda: parse_statement(other)), (seed, sql, other)
        parsed_ok += expected[0] == "ok"
        hits += known
    # The generator is not all rejects, and shapes do recur across statements.
    assert parsed_ok > STATEMENTS_PER_SEED // 4
    assert hits >= STATEMENTS_PER_SEED // 20
    assert len(session._shapes) <= SHAPES_KEPT


@pytest.mark.parametrize("seed", range(SEEDS))
def test_placeholders_and_lifted_literals_fill_the_same_slots(seed):
    """Turn a random subset of a statement's literals into ``?``s: what is
    dispatched does not change."""
    rng = random.Random(1000 + seed)
    session, seen = _capturing_session()
    checked = 0
    while checked < 150:
        sql = _statement(rng)
        shape, literals = lift(sql)
        if "?" in "".join(shape) or not literals:
            continue
        expected = _outcome(lambda: parse_statement(sql))
        if expected[0] != "ok":
            continue
        chosen = [rng.random() < 0.5 for _ in literals]
        text = shape[0]
        for part, literal, as_param in zip(shape[1:], literals, chosen):
            if as_param:
                text += "?"
            elif isinstance(literal, str):
                text += "'" + literal.replace("'", "''") + "'"
            else:   # a space: the sign that split ``LIMIT+2`` may be gone
                text += " " + repr(literal)
            text += part
        params = [v for v, as_param in zip(literals, chosen) if as_param]
        assert _prepared(session, seen, text, params) == expected, (sql, text)
        checked += 1


# -- the lift itself ----------------------------------------------------------------

class TestLift:
    def test_literals_come_off_and_the_rest_is_the_shape(self):
        shape, values = lift("UPDATE t SET v = 'it''s' WHERE k = -5")
        assert shape == ("UPDATE t SET v = ", " WHERE k = ", "")
        assert values == ["it's", -5]

    def test_same_shape_for_other_literals(self):
        assert lift("SELECT * FROM t WHERE k = 1")[0] == \
            lift("SELECT * FROM t WHERE k = 20000")[0]
        assert lift("SELECT * FROM t WHERE k = 1")[0] != \
            lift("SELECT * FROM t WHERE  k = 1")[0]

    @pytest.mark.parametrize("text", [
        "t1", "col2 = x", "1e5", "1.2.3", "k=1AND", "5.", "x_9",
    ])
    def test_what_the_pass_is_not_sure_of_stays_in_the_shape(self, text):
        assert lift(f"SELECT {text}") == ((f"SELECT {text}",), [])

    def test_comments_and_strings_hide_each_other(self):
        shape, values = lift("SELECT 'a -- b', 7 -- it's 9\nFROM t")
        assert values == ["a -- b", 7]
        assert "9" not in "".join(shape) and "it" not in "".join(shape)

    def test_number_kinds(self):
        assert lift("x 5 -0 +.5 3.25")[1] == [5, 0, 0.5, 3.25]
        assert [type(v) for v in lift("x 5 3.0")[1]] == [int, float]

    @pytest.mark.parametrize("text, shape, values", [
        ("LIMIT+5", ("LIMIT", ""), [5]),
        ("LIMIT-0", ("LIMIT", ""), [0]),
        ("k<-5", ("k<", ""), [-5]),
        ("t1-5", ("t1", ""), [-5]),
        ("5-3", ("", "", ""), [5, -3]),
        ("1e-5", ("1e", ""), [-5]),
        ("-5AND", ("-5AND",), []),
    ])
    def test_a_sign_goes_with_its_digits_wherever_the_tokenizer_takes_it(
        self, text, shape, values
    ):
        assert lift(text) == (shape, values)
        numbers = [
            float(t.value) if "." in t.value else int(t.value)
            for t in tokenize(text) if t.type is TokenType.NUMBER
        ]
        assert numbers[len(numbers) - len(values):] == values


# -- signed numbers -----------------------------------------------------------------

@pytest.fixture
def session():
    db = ImmortalDB()
    s = Session(db)
    s.execute("CREATE IMMORTAL TABLE t (k INT PRIMARY KEY, v VARCHAR(20), "
              "n FLOAT)")
    for k in (-5, -1, 0, 1, 5):
        s.execute(f"INSERT INTO t VALUES ({k}, 'v{k}', {k}.5)")
    yield s
    s.close()
    db.close()


class TestSignedNumbers:
    def test_a_negative_key_can_be_addressed_and_deleted(self, session):
        assert session.execute("SELECT v FROM t WHERE k = -5").rows == \
            [{"v": "v-5"}]
        assert session.execute("DELETE FROM t WHERE k = -5").rowcount == 1
        assert session.execute("SELECT * FROM t WHERE k = -5").rows == []

    def test_insert_takes_signed_values(self, session):
        session.execute("INSERT INTO t VALUES (-7, 'neg', -2.25)")
        assert session.execute("SELECT * FROM t WHERE k = -7").rows == \
            [{"k": -7, "v": "neg", "n": -2.25}]

    def test_float_and_zero(self, session):
        assert session.execute("SELECT k FROM t WHERE n = -1.5").rows == \
            [{"k": -1}]
        assert session.execute("SELECT k FROM t WHERE n < -4.5").rows == \
            [{"k": -5}]
        assert session.execute("SELECT v FROM t WHERE k = -0").rows == \
            [{"v": "v0"}]
        assert session.execute("SELECT v FROM t WHERE k = +5").rows == \
            [{"v": "v5"}]

    def test_sign_glued_to_the_operator(self, session):
        rows = session.execute("SELECT k FROM t WHERE k<-1 ORDER BY k").rows
        assert rows == [{"k": -5}]

    def test_a_sign_on_its_own_is_still_an_error(self, session):
        for sql in ("SELECT * FROM t WHERE k = - 5",
                    "SELECT * FROM t WHERE k = -",
                    "INSERT INTO t VALUES (- 1, 'x', 0)"):
            with pytest.raises(SQLSyntaxError, match="unexpected character '-'"):
                session.execute(sql)
            with pytest.raises(SQLSyntaxError):
                parse_statement(sql)

    def test_it_is_not_a_unary_minus(self, session):
        with pytest.raises(SQLSyntaxError):
            session.execute("SELECT * FROM t WHERE k = 5-3")
        with pytest.raises(SQLSyntaxError, match="LIMIT expects a number"):
            session.execute("SELECT * FROM t LIMIT -1")


# -- placeholders ---------------------------------------------------------------------

class TestPlaceholders:
    def test_every_literal_position_takes_one(self, session):
        db = session.db
        db.advance_time(10)
        mark = str(db.now().to_datetime())
        db.advance_time(10)
        session.execute("UPDATE t SET v = ? WHERE k = ?", ["new", 1])
        assert session.execute(
            "SELECT v FROM t WHERE k = ?", [1]).rows == [{"v": "new"}]
        assert session.execute(
            "SELECT v FROM t AS OF ? WHERE k = ?", [mark, 1]
        ).rows == [{"v": "v1"}]
        assert len(session.execute(
            "SELECT HISTORY OF t WHERE k = ? FROM ? TO ?",
            [1, "2006-01-01", "2100-01-01"],
        ).rows) == 2
        assert len(session.execute(
            "SELECT * FROM t WHERE k >= ? LIMIT ?", [-100, 2]).rows) == 2
        session.execute("INSERT INTO t VALUES (?, ?, ?)", [9, None, True])
        session.execute("BEGIN TRAN AS OF ?", [mark])
        assert session.execute("SELECT v FROM t WHERE k = 1").rows == \
            [{"v": "v1"}]
        session.execute("COMMIT")

    def test_mixed_with_literals(self, session):
        rows = session.execute(
            "SELECT k FROM t WHERE k > -2 AND k < ? AND v <> 'v0' ORDER BY k",
            [5],
        ).rows
        assert rows == [{"k": -1}, {"k": 1}]

    @pytest.mark.parametrize("params", [(), [1, 2], [1, 2, 3, 4]])
    def test_wrong_count_is_a_typed_error(self, session, params):
        with pytest.raises(SQLExecutionError, match="takes 3 parameter"):
            session.execute("INSERT INTO t VALUES (?, ?, ?)", params)
        with pytest.raises(SQLExecutionError, match="takes 0 parameter"):
            session.execute("SELECT * FROM t WHERE v = 'why?'", [1])

    def test_a_syntax_error_is_reported_before_the_count(self, session):
        with pytest.raises(SQLSyntaxError):
            session.execute("SELEC * FROM t WHERE k = ?")

    @pytest.mark.parametrize("value", [[1], {"a": 1}, b"x", object()])
    def test_only_literals_are_values(self, session, value):
        with pytest.raises(SQLExecutionError, match="parameter"):
            session.execute("SELECT * FROM t WHERE k = ?", [value])

    def test_a_value_of_the_wrong_kind_for_its_clause(self, session):
        with pytest.raises(SQLExecutionError, match="takes a datetime"):
            session.execute("SELECT * FROM t AS OF ? WHERE k = 1", [5])
        for bad in (-1, 1.5, "3", True, None):
            with pytest.raises(SQLExecutionError, match="takes a count"):
                session.execute("SELECT * FROM t LIMIT ?", [bad])

    def test_not_where_the_grammar_takes_no_literal(self, session):
        with pytest.raises(SQLSyntaxError, match="expected an identifier"):
            session.execute("SELECT * FROM ? WHERE k = 1", ["t"])

    def test_a_script_takes_none(self, session):
        with pytest.raises(SQLSyntaxError, match="script takes no"):
            session.execute_script("SELECT * FROM t WHERE k = ?;")

    def test_a_question_mark_in_a_string_or_comment_is_text(self, session):
        session.execute("UPDATE t SET v = 'why?' WHERE k = 1 -- really?")
        assert session.execute("SELECT v FROM t WHERE k = 1").rows == \
            [{"v": "why?"}]


# -- the table of shapes ------------------------------------------------------------------

class TestShapeTable:
    def test_it_holds_syntax_so_ddl_invalidates_nothing(self):
        db = ImmortalDB()
        s = Session(db)
        s.execute("CREATE TABLE t (k INT PRIMARY KEY, v TEXT)")
        s.execute("INSERT INTO t VALUES (1, 'one')")
        assert s.execute("SELECT * FROM t WHERE k = 1").rows == \
            [{"k": 1, "v": "one"}]
        assert s.execute("UPDATE t SET v = 'uno' WHERE k = 1").rowcount == 1
        s.execute("DROP TABLE t")
        # The same name with the columns' roles swapped: ``k`` is now a
        # text value and ``v`` the integer key.
        s.execute("CREATE TABLE t (k TEXT, v INT PRIMARY KEY)")
        shapes = len(s._shapes)
        s.execute("INSERT INTO t VALUES ('one', 1)")
        assert s.execute("SELECT * FROM t WHERE k = 1").rows == []
        assert s.execute("SELECT * FROM t WHERE k = 'one'").rows == \
            [{"k": "one", "v": 1}]
        # ``WHERE k = …`` was a keyed write before the DROP; now it scans.
        assert s.execute("UPDATE t SET v = 1 WHERE k = 'one'").rowcount == 1
        with pytest.raises(SQLExecutionError, match="primary key"):
            s.execute("UPDATE t SET v = 2 WHERE k = 'one'")
        assert len(s._shapes) == shapes     # every shape was met before the DROP

    def test_it_never_exceeds_its_bound(self):
        s, seen = _capturing_session()
        for i in range(10 * SHAPES_KEPT):
            s.execute(f"SELECT * FROM t{i} WHERE k = {i}")
            assert len(s._shapes) <= SHAPES_KEPT
        assert len(s._shapes) == SHAPES_KEPT
        # oldest out: the last ones met are the ones kept
        assert lift(f"SELECT * FROM t{10 * SHAPES_KEPT - 1} WHERE k = 0")[0] \
            in s._shapes
        assert lift("SELECT * FROM t0 WHERE k = 0")[0] not in s._shapes

    def test_the_parser_runs_once_per_shape(self, monkeypatch):
        import repro.sql.executor as executor

        calls = []
        real = executor.parse_statement
        monkeypatch.setattr(
            executor, "parse_statement",
            lambda *args: calls.append(args) or real(*args),
        )
        s, seen = _capturing_session()
        for k in range(50):
            s.execute(f"SELECT * FROM t WHERE k = {k}")
            s.execute(f"UPDATE t SET v = 'x{k}' WHERE k = {k}")
        assert len(calls) == 2
        assert seen[-1] == ast.Update(
            "t", (("v", "x49"),), ast.Comparison("k", "=", 49)
        )

    def test_a_reject_on_a_known_shape_reads_as_the_parser_words_it(self):
        s, seen = _capturing_session()
        s.execute("SELECT * FROM t AS OF '2006-01-01' WHERE k = 1 LIMIT 3")
        for bad in ("SELECT * FROM t AS OF 20060101 WHERE k = 1 LIMIT 3",
                    "SELECT * FROM t AS OF '2006-01-01' WHERE k = 1 LIMIT 'x'",
                    "SELECT * FROM t AS OF '2006-01-01' WHERE k = 1 LIMIT -1",
                    "SELECT * FROM t AS OF '2006-01-01' WHERE k = 1 LIMIT 1.5"):
            assert lift(bad)[0] in s._shapes
            wanted = _outcome(lambda: parse_statement(bad))
            assert wanted[0] == "error"
            assert _prepared(s, seen, bad) == wanted

    def test_a_sign_glued_to_a_keyword_is_not_kept_with_the_shape(self, session):
        """``LIMIT+5`` lexes as LIMIT and the number +5; the shape it shares
        with ``LIMIT+9`` holds neither number."""
        capture, seen = _capturing_session()
        for sql in ("SELECT * FROM t LIMIT+5", "SELECT * FROM t LIMIT+9",
                    "SELECT * FROM t LIMIT-0", "SELECT * FROM t LIMIT 2"):
            assert _prepared(capture, seen, sql) == \
                ("ok", parse_statement(sql)), sql
        assert len(capture._shapes) == 2
        assert len(session.execute("SELECT * FROM t LIMIT+2").rows) == 2
        assert len(session.execute("SELECT * FROM t LIMIT+4").rows) == 4
        assert session.execute("SELECT * FROM t LIMIT-0").rows == []

    def test_a_text_lift_misreads_runs_from_its_own_parse(self, monkeypatch):
        """Should lift and the tokenizer ever read a literal differently, the
        shape's text does not parse where the statement's does: the
        statement's own parse runs, and nothing is kept."""
        import re

        import repro.sql.lexer as lexer

        # A lift that leaves a sign behind when it follows a word.
        monkeypatch.setattr(lexer, "_LITERAL_RE", re.compile(
            r"""('[^']*'|(?<![\w.])[-+]?\d+(?![\w.]))"""
        ))
        assert lift("LIMIT+5") == (("LIMIT+", ""), [5])
        s, seen = _capturing_session()
        for sql in ("SELECT * FROM t LIMIT+5", "SELECT * FROM t LIMIT+9",
                    "SELECT * FROM t WHERE v = 'why?' LIMIT-0"):
            assert _prepared(s, seen, sql) == ("ok", parse_statement(sql))
        assert not s._shapes
        assert _prepared(s, seen, "SELECT * FROM t WHERE k = ? LIMIT+5", [1]) \
            == ("ok", ast.Select("t", None, ast.Comparison("k", "=", 1),
                                 limit=5))


# -- keyed UPDATE / DELETE -------------------------------------------------------------------

@pytest.fixture
def reads(monkeypatch):
    """Counts ``Table.read`` calls: the pre-read a keyed write skips."""
    count = [0]
    real = Table.read

    def counted(self, txn, key_value):
        count[0] += 1
        return real(self, txn, key_value)

    monkeypatch.setattr(Table, "read", counted)
    return count


class TestKeyedWrites:
    """``WHERE <key> = literal`` finds its record once; every answer is the
    one the read-then-write path gave."""

    def test_found(self, session, reads):
        result = session.execute("UPDATE t SET v = 'new' WHERE k = 1")
        assert (result.rowcount, result.message) == (1, "UPDATE 1")
        result = session.execute("DELETE FROM t WHERE k = 5")
        assert (result.rowcount, result.message) == (1, "DELETE 1")
        assert reads[0] == 0
        assert session.execute("SELECT v FROM t WHERE k = 1").rows == \
            [{"v": "new"}]
        assert session.execute("SELECT v FROM t WHERE k = 5").rows == []

    def test_missing_key(self, session, reads):
        result = session.execute("UPDATE t SET v = 'new' WHERE k = 404")
        assert (result.rowcount, result.message, result.degraded) == \
            (0, "UPDATE 0", [])
        result = session.execute("DELETE FROM t WHERE k = 404")
        assert (result.rowcount, result.message) == (0, "DELETE 0")
        # a deleted key is a missing key
        session.execute("DELETE FROM t WHERE k = 1")
        assert session.execute("DELETE FROM t WHERE k = 1").rowcount == 0
        assert session.execute(
            "UPDATE t SET v = 'x' WHERE k = 1").rowcount == 0
        assert reads[0] == 0
        assert not session.in_transaction

    def test_key_of_the_wrong_type(self, session):
        for sql in ("UPDATE t SET v = 'x' WHERE k = 'one'",
                    "DELETE FROM t WHERE k = 'one'",
                    "DELETE FROM t WHERE k = 1.5"):
            with pytest.raises(SchemaError, match="is not an integer"):
                session.execute(sql)
        assert session.execute(
            "UPDATE t SET v = 'x' WHERE k = NULL").rowcount == 0
        assert session.execute("SELECT * FROM t WHERE k = 1").rows[0]["v"] == "v1"

    def test_inside_an_open_bracket(self, session, reads):
        session.execute("BEGIN TRAN")
        assert session.execute(
            "UPDATE t SET v = 'mine' WHERE k = 1").rowcount == 1
        assert session.execute(
            "UPDATE t SET v = 'mine2' WHERE k = 1").rowcount == 1
        assert session.execute("DELETE FROM t WHERE k = 0").rowcount == 1
        assert session.execute("DELETE FROM t WHERE k = 0").rowcount == 0
        assert session.execute("UPDATE t SET v = 'x' WHERE k = 0").rowcount == 0
        assert reads[0] == 0
        assert session.execute("SELECT v FROM t WHERE k = 1").rows == \
            [{"v": "mine2"}]
        session.execute("ROLLBACK")
        assert session.execute("SELECT v FROM t WHERE k = 1").rows == \
            [{"v": "v1"}]
        assert session.execute("SELECT v FROM t WHERE k = 0").rows == \
            [{"v": "v0"}]

    def test_a_second_condition_keeps_the_read(self, session, reads):
        assert session.execute(
            "UPDATE t SET v = 'new' WHERE k = 1 AND v = 'x'").rowcount == 0
        assert session.execute(
            "UPDATE t SET v = 'new' WHERE k = 1 AND v = 'v1'").rowcount == 1
        assert session.execute(
            "DELETE FROM t WHERE k = 1 AND v = 'v1'").rowcount == 0
        assert session.execute(
            "DELETE FROM t WHERE k = 1 OR k = 5").rowcount == 2
        assert reads[0] == 3

    def test_a_new_key_value_is_refused_only_for_a_row_that_exists(
        self, session
    ):
        assert session.execute(
            "UPDATE t SET k = 7 WHERE k = 404").rowcount == 0
        with pytest.raises(SQLExecutionError, match="primary key"):
            session.execute("UPDATE t SET k = 7 WHERE k = 1")
        assert session.execute("UPDATE t SET k = 1 WHERE k = 1").rowcount == 1

    def test_a_snapshot_bracket_reads_at_its_horizon(self, session, reads):
        session.execute("ALTER TABLE t ENABLE SNAPSHOT")
        other = Session(session.db)
        session.execute("BEGIN SNAPSHOT TRAN")
        other.execute("INSERT INTO t VALUES (77, 'later', 0)")
        # Not in the snapshot: rowcount 0, as the read-first path answered —
        # the write alone would raise a conflict over a row it cannot see.
        assert session.execute(
            "UPDATE t SET v = 'x' WHERE k = 77").rowcount == 0
        assert reads[0] == 1
        session.execute("COMMIT")

    def test_an_as_of_bracket_stays_read_only(self, session):
        session.db.advance_time(10)
        mark = str(session.db.now().to_datetime())
        session.db.advance_time(10)
        session.execute(f'BEGIN TRAN AS OF "{mark}"')
        assert session.execute(
            "UPDATE t SET v = 'x' WHERE k = 404").rowcount == 0
        with pytest.raises(ReadOnlyTransactionError):
            session.execute("UPDATE t SET v = 'x' WHERE k = 1")
        session.execute("COMMIT")


# -- over the wire ----------------------------------------------------------------------------

class TestParamsOverTheWire:
    @pytest.fixture
    def conn(self):
        db = ImmortalDB()
        db.create_table("t", [("k", "int"), ("v", "text")], key="k",
                        immortal=True)
        conn = LoopbackConnection(ServiceCore(db))
        yield conn
        conn.close()

    def test_params_travel_beside_the_text(self, conn):
        ok = conn.execute("INSERT INTO t VALUES (?, ?)", [1, "it's"])
        assert ok["status"] == protocol.STATUS_OK and ok["rowcount"] == 1
        assert conn.execute("SELECT * FROM t WHERE k = ?", (1,))["rows"] == \
            [{"k": 1, "v": "it's"}]
        mixed = conn.request({
            "op": "sql", "sql": "UPDATE t SET v = 'b' WHERE k = ?",
            "params": [1],
        })
        assert mixed["rowcount"] == 1
        assert conn.execute("SELECT v FROM t WHERE k = 1")["rows"] == \
            [{"v": "b"}]

    def test_wrong_count_is_a_typed_error_not_an_index_error(self, conn):
        for params in ([], [1, 2]):
            response = conn.request({
                "op": "sql", "sql": "SELECT * FROM t WHERE k = ?",
                "params": params,
            })
            assert response["status"] == protocol.STATUS_ERROR
            assert response["error"] == "SQLExecutionError"
            assert response["retryable"] is False

    @pytest.mark.parametrize("params", [5, "abc", {"k": 1}, None])
    def test_params_must_be_a_list(self, conn, params):
        response = conn.request({
            "op": "sql", "sql": "SELECT * FROM t WHERE k = ?", "params": params,
        })
        assert response["status"] == protocol.STATUS_ERROR
        assert response["error"] == "ProtocolError"

    def test_a_nested_value_is_refused(self, conn):
        response = conn.request({
            "op": "sql", "sql": "SELECT * FROM t WHERE k = ?", "params": [[1]],
        })
        assert response["error"] == "SQLExecutionError"

    def test_a_bracket_with_params(self, conn):
        conn.execute("BEGIN TRAN")
        conn.execute("INSERT INTO t VALUES (?, ?)", [2, "two"])
        assert conn.execute(
            "SELECT v FROM t WHERE k = ?", [2])["rows"] == [{"v": "two"}]
        assert conn.execute("ROLLBACK")["status"] == protocol.STATUS_OK
        assert conn.execute("SELECT v FROM t WHERE k = ?", [2])["rows"] == []


# -- the WHERE a key access leaves to the rows -----------------------------------------------

def _bound(rng: random.Random) -> str:
    return rng.choice(("NULL",) + tuple(str(v) for v in range(-3, 25)))


def _column_clause(rng: random.Random) -> str:
    column = rng.choice(("k", "k", "v", "n"))
    value = {
        "k": _bound(rng),
        "v": rng.choice(("NULL", "'v1'", "'v3'", "'w'", "''")),
        "n": rng.choice(("NULL", "0", "2.5", "4", "-1")),
    }[column]
    return f"{column} {rng.choice(('=', '<>', '<', '<=', '>', '>='))} {value}"


def _random_where(rng: random.Random, depth: int = 0) -> str:
    """Key-only shapes an access path may enforce — equality, a two-sided
    range either way round, reversed or empty, null bounds — mixed with
    predicates over every column under AND/OR/NOT."""
    pick = rng.random()
    if pick < 0.2:
        return f"k = {_bound(rng)}"
    if pick < 0.45:
        low = f"k {rng.choice(('>=', '>=', '>'))} {_bound(rng)}"
        high = f"k {rng.choice(('<=', '<=', '<'))} {_bound(rng)}"
        return f"{low} AND {high}" if rng.random() < 0.5 else f"{high} AND {low}"
    if pick < 0.6 or depth >= 2:
        return _column_clause(rng)
    if pick < 0.8:
        glue = rng.choice(("AND", "OR"))
        return (f"{_random_where(rng, depth + 1)} {glue} "
                f"{_random_where(rng, depth + 1)}")
    return f"NOT ({_random_where(rng, depth + 1)})"


class TestResidualWhere:
    """A WHERE that is exactly what its key access enforces is not evaluated
    again per row; the rows must be exactly those of evaluating the whole
    WHERE on every row of the table, now and AS OF."""

    @pytest.fixture
    def history(self):
        db = ImmortalDB()
        s = Session(db)
        s.execute("CREATE IMMORTAL TABLE t (k INT PRIMARY KEY, v TEXT, n FLOAT)")
        for k in range(20):
            v = "NULL" if k % 7 == 3 else f"'v{k % 5}'"
            n = "NULL" if k % 6 == 1 else f"{k / 2}"
            s.execute(f"INSERT INTO t VALUES ({k}, {v}, {n})")
        marks = []
        for round_no in range(2):
            db.advance_time(10)
            marks.append(str(db.now().to_datetime()))
            db.advance_time(10)
            s.execute(f"UPDATE t SET v = 'w', n = {round_no} WHERE k >= 4 AND k <= 9")
            s.execute(f"DELETE FROM t WHERE k = {11 + round_no}")
            s.execute(f"INSERT INTO t VALUES ({20 + round_no}, NULL, NULL)")
        yield s, marks
        s.close()
        db.close()

    @pytest.mark.parametrize("seed", range(SEEDS))
    def test_the_rows_are_those_of_the_whole_where(self, history, seed):
        from repro.sql.executor import _evaluate, parse_sql_datetime

        s, marks = history
        table = s.db.table("t")
        rng = random.Random(seed)
        for _ in range(300):
            where = _random_where(rng)
            mark = rng.choice((None, None) + tuple(marks))
            if mark is None:
                sql = f"SELECT * FROM t WHERE {where}"
                with s.db.transaction() as txn:
                    candidates = table.scan(txn)
            else:
                sql = f"SELECT * FROM t AS OF '{mark}' WHERE {where}"
                candidates = table.scan_as_of(
                    ImmortalDB.to_timestamp(parse_sql_datetime(mark))
                )
            expr = parse_statement(sql).where
            expected = [row for row in candidates if _evaluate(expr, row)]
            got = sorted(s.execute(sql).rows, key=lambda row: row["k"])
            assert got == expected, sql

    @pytest.mark.parametrize("where", [
        "nosuch = 1", "k = 1 AND nosuch = 1", "k >= 0 AND k <= 9 AND nosuch = 1",
        "nosuch >= 0 AND k <= 9", "k >= 0 AND nosuch <= 9",
    ])
    def test_an_unknown_column_still_raises(self, history, where):
        s, marks = history
        for sql in (f"SELECT * FROM t WHERE {where}",
                    f"SELECT * FROM t AS OF '{marks[1]}' WHERE {where}"):
            with pytest.raises(SQLExecutionError, match="unknown column"):
                s.execute(sql)


class TestAsOfMemo:
    def test_two_texts_never_share_an_entry(self, session):
        from repro.sql.executor import sql_timestamp

        db = session.db
        db.advance_time(10)
        before = str(db.now().to_datetime())
        db.advance_time(10)
        session.execute("UPDATE t SET v = 'later' WHERE k = 1")
        db.advance_time(10)
        after = str(db.now().to_datetime())
        assert sql_timestamp(before) != sql_timestamp(after)
        for _ in range(2):      # the second round is served from the memo
            assert session.execute(
                f"SELECT v FROM t AS OF '{before}' WHERE k = 1").rows == [{"v": "v1"}]
            assert session.execute(
                f"SELECT v FROM t AS OF '{after}' WHERE k = 1").rows == [{"v": "later"}]

    @pytest.mark.parametrize("text", ["not a date", "2006-13-01", ""])
    def test_a_malformed_literal_raises_as_before(self, session, text):
        from repro.sql.executor import parse_sql_datetime, sql_timestamp

        with pytest.raises(SQLExecutionError) as before:
            parse_sql_datetime(text)
        for _ in range(2):      # nothing is kept for it
            with pytest.raises(SQLExecutionError) as now:
                sql_timestamp(text)
            assert str(now.value) == str(before.value)
            with pytest.raises(SQLExecutionError, match="unrecognized datetime"):
                session.execute(f"SELECT * FROM t AS OF '{text}' WHERE k = 1")
