"""SQL executor: binds parsed statements to the engine.

A :class:`Session` holds at most one open transaction.  Statements outside
an explicit ``BEGIN TRAN … COMMIT TRAN`` bracket run autocommitted.  The
paper's historical transactions — ``BEGIN TRAN AS OF "…"`` — make every
read inside the bracket see the database as of that time.

Point lookups are recognized from WHERE clauses: an equality comparison on
the primary key becomes a B-tree point read instead of a scan.

A statement is parsed once per *shape*: ``execute`` lifts the literals off
the text (:func:`repro.sql.lexer.lift`), looks the rest up in the session's
table of parsed shapes and binds the literals, and any ``?`` parameters,
into the parse it finds; only a shape the session has not met is parsed
(as its own text, with a ``?`` where each literal stood).  The table holds
syntax only, so no DDL invalidates anything in it.
"""

from __future__ import annotations

import datetime as _dt
import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable

from repro.clock import Timestamp
from repro.concurrency.transaction import Transaction, TxnMode
from repro.core.engine import ImmortalDB
from repro.core.rowcodec import ColumnType
from repro.core.table import Table
from repro.errors import (
    KeyNotFoundError,
    PageQuarantinedError,
    SQLExecutionError,
    SQLSyntaxError,
)
from repro.repair.quarantine import Degraded
from repro.sql import ast
from repro.sql.lexer import lift, merge_params
from repro.sql.parser import parse_script, parse_statement

#: Parsed shapes a session keeps; the oldest goes when one more arrives.
SHAPES_KEPT = 256

_TYPE_MAP = {
    "SMALLINT": ColumnType.SMALLINT,
    "INT": ColumnType.INT,
    "INTEGER": ColumnType.INT,
    "BIGINT": ColumnType.BIGINT,
    "FLOAT": ColumnType.FLOAT,
    "REAL": ColumnType.FLOAT,
    "DOUBLE": ColumnType.FLOAT,
    "TEXT": ColumnType.TEXT,
    "VARCHAR": ColumnType.TEXT,
    "CHAR": ColumnType.TEXT,
    "BOOL": ColumnType.BOOL,
    "BOOLEAN": ColumnType.BOOL,
}

_DATETIME_FORMATS = (
    "%m/%d/%Y %H:%M:%S",   # the paper's example: "8/12/2004 10:15:20"
    "%m/%d/%Y %H:%M",
    "%Y-%m-%d %H:%M:%S.%f",
    "%Y-%m-%d %H:%M:%S",
    "%Y-%m-%d %H:%M",
    "%Y-%m-%d",
)


@functools.lru_cache(maxsize=256)
def parse_sql_datetime(text: str) -> _dt.datetime:
    """Parse the datetime formats the AS OF clause accepts."""
    for fmt in _DATETIME_FORMATS:
        try:
            return _dt.datetime.strptime(text, fmt)
        except ValueError:
            continue
    try:
        return _dt.datetime.fromisoformat(text)
    except ValueError:
        raise SQLExecutionError(f"unrecognized datetime {text!r}") from None


@dataclass
class Result:
    """Outcome of one statement.

    ``degraded`` lists the quarantine-degraded reads the statement hit
    (:class:`~repro.repair.quarantine.Degraded` markers): the rows that
    *were* readable are still in ``rows``, and the service layer surfaces
    a non-empty list as a ``degraded`` protocol status rather than an
    error — partial answers beat refusals while a page awaits repair.
    """

    rows: list[dict] = field(default_factory=list)
    rowcount: int = 0
    message: str = ""
    degraded: list = field(default_factory=list)


def _evaluate(expr: ast.Expr | None, row: dict) -> bool:
    if expr is None:
        return True
    if isinstance(expr, ast.And):
        return _evaluate(expr.left, row) and _evaluate(expr.right, row)
    if isinstance(expr, ast.Or):
        return _evaluate(expr.left, row) or _evaluate(expr.right, row)
    if isinstance(expr, ast.Not):
        return not _evaluate(expr.operand, row)
    assert isinstance(expr, ast.Comparison)
    if expr.column not in row:
        raise SQLExecutionError(f"unknown column {expr.column!r}")
    actual = row[expr.column]
    wanted = expr.value
    if expr.op == "=":
        return actual == wanted
    if expr.op == "<>":
        return actual != wanted
    if actual is None or wanted is None:
        return False
    if expr.op == "<":
        return actual < wanted
    if expr.op == "<=":
        return actual <= wanted
    if expr.op == ">":
        return actual > wanted
    if expr.op == ">=":
        return actual >= wanted
    raise SQLExecutionError(f"unknown operator {expr.op!r}")


def _key_equality(expr: ast.Expr | None, key_column: str):
    """If the WHERE clause pins the primary key to one value, return it."""
    if isinstance(expr, ast.Comparison) and expr.op == "=" \
            and expr.column == key_column:
        return expr.value
    if isinstance(expr, ast.And):
        for side in (expr.left, expr.right):
            value = _key_equality(side, key_column)
            if value is not None:
                return value
    return None


def _key_range(expr: ast.Expr | None, key_column: str):
    """Extract an inclusive key range (low, high) implied by the WHERE clause.

    Only top-level AND-connected comparisons on the key column contribute
    (anything under OR/NOT cannot restrict soundly).  Returns (None, None)
    when unbounded; the caller still applies the full predicate afterwards,
    so the range only needs to be an over-approximation.
    """
    low = high = None

    def visit(node) -> None:
        nonlocal low, high
        if isinstance(node, ast.And):
            visit(node.left)
            visit(node.right)
            return
        if not isinstance(node, ast.Comparison) or node.column != key_column:
            return
        value = node.value
        if value is None:
            return
        if node.op in (">", ">="):
            if low is None or value > low:
                low = value
        elif node.op in ("<", "<="):
            if high is None or value < high:
                high = value
        elif node.op == "=":
            low = high = value

    visit(expr)
    return low, high


class Session:
    """One SQL session over an :class:`~repro.core.engine.ImmortalDB`."""

    def __init__(self, db: ImmortalDB) -> None:
        self.db = db
        self._txn: Transaction | None = None
        self._shapes: dict[tuple, ast.Statement] = {}   # shape -> its parse

    # -- public API ----------------------------------------------------------

    def execute(self, sql: str, params=()) -> Result:
        """Execute a single statement; ``params`` are its ``?`` values.
        What is dispatched is ``parse_statement(sql)`` with the parameters
        in place, and what fails, fails as that does."""
        shape, values = lift(sql)
        statement = self._shapes.get(shape)
        if statement is None:
            try:
                # The shape's parse: a placeholder where each literal stood.
                statement = parse_statement("?".join(shape))
            except SQLSyntaxError:
                # The error reads as the statement's own text words it.
                # (Should that parse after all, lift and the tokenizer read
                # it differently: it runs, nothing lifted, nothing kept.)
                statement = parse_statement(sql)
                shape, values = ("".join(shape),), []
            else:
                if len(self._shapes) >= SHAPES_KEPT:
                    del self._shapes[next(iter(self._shapes))]
                self._shapes[shape] = statement
        if params or "?" in sql:
            values = merge_params(shape, values, params)
        if values:
            try:
                statement = ast.bind(statement, values)
            except SQLExecutionError:
                # A value of the wrong kind for its clause.  If it is a
                # literal, that is a syntax error, which the parser words.
                parse_statement(sql)
                raise
        return self._dispatch(statement)

    def execute_script(self, sql: str) -> list[Result]:
        """Execute a semicolon-separated script; returns one Result each."""
        return [self._dispatch(stmt) for stmt in parse_script(sql)]

    @property
    def in_transaction(self) -> bool:
        return self._txn is not None

    def close(self) -> None:
        """Release underlying resources (idempotent)."""
        if self._txn is not None:
            self.db.abort(self._txn)
            self._txn = None

    # -- transaction bracketing -------------------------------------------------

    def _begin(self, stmt: ast.BeginTran) -> Result:
        if self._txn is not None:
            raise SQLExecutionError("a transaction is already open")
        if stmt.as_of is not None:
            when = parse_sql_datetime(stmt.as_of)
            self._txn = self.db.begin(as_of=when)
            return Result(message=f"BEGIN TRAN AS OF {when.isoformat()}")
        mode = TxnMode.SNAPSHOT if stmt.snapshot else TxnMode.SERIALIZABLE
        self._txn = self.db.begin(mode)
        return Result(message=f"BEGIN TRAN ({mode.value})")

    def _commit(self) -> Result:
        if self._txn is None:
            raise SQLExecutionError("no open transaction")
        ts = self.db.commit(self._txn)
        self._txn = None
        suffix = f" at {ts}" if ts is not None else ""
        return Result(message=f"COMMIT{suffix}")

    def _rollback(self) -> Result:
        if self._txn is None:
            raise SQLExecutionError("no open transaction")
        self.db.abort(self._txn)
        self._txn = None
        return Result(message="ROLLBACK")

    def _run(self, body, *args) -> Result:
        """Run a statement body in the open txn or autocommit a fresh one."""
        if self._txn is not None:
            return body(self._txn, *args)
        txn = self.db.begin()
        try:
            result = body(txn, *args)
        except BaseException:
            self.db.abort(txn)
            raise
        self.db.commit(txn)
        return result

    # -- dispatch ------------------------------------------------------------------

    def _dispatch(self, stmt: ast.Statement) -> Result:
        if isinstance(stmt, ast.BeginTran):
            return self._begin(stmt)
        if isinstance(stmt, ast.CommitTran):
            return self._commit()
        if isinstance(stmt, ast.RollbackTran):
            return self._rollback()
        if isinstance(stmt, ast.CreateTable):
            return self._create_table(stmt)
        if isinstance(stmt, ast.AlterTableEnableSnapshot):
            self.db.enable_snapshot_isolation(stmt.name)
            return Result(message=f"ALTER TABLE {stmt.name} ENABLE SNAPSHOT")
        if isinstance(stmt, ast.DropTable):
            self.db.drop_table(stmt.name)
            return Result(message=f"DROP TABLE {stmt.name}")
        if isinstance(stmt, ast.Insert):
            return self._run(self._insert, stmt)
        if isinstance(stmt, ast.Update):
            return self._run(self._update, stmt)
        if isinstance(stmt, ast.Delete):
            return self._run(self._delete, stmt)
        if isinstance(stmt, ast.Select):
            return self._select(stmt)
        if isinstance(stmt, ast.SelectHistory):
            return self._select_history(stmt)
        raise SQLExecutionError(f"unsupported statement {stmt!r}")

    # -- DDL ---------------------------------------------------------------------------

    def _create_table(self, stmt: ast.CreateTable) -> Result:
        columns: list[tuple[str, ColumnType]] = []
        key_column: str | None = None
        for spec in stmt.columns:
            try:
                ctype = _TYPE_MAP[spec.type_name]
            except KeyError:
                raise SQLExecutionError(
                    f"unsupported column type {spec.type_name}"
                ) from None
            columns.append((spec.name, ctype))
            if spec.primary_key:
                if key_column is not None:
                    raise SQLExecutionError("only one PRIMARY KEY is supported")
                key_column = spec.name
        if key_column is None:
            raise SQLExecutionError(
                f"table {stmt.name} needs a PRIMARY KEY column"
            )
        self.db.create_table(
            stmt.name, columns, key_column, immortal=stmt.immortal
        )
        kind = "IMMORTAL TABLE" if stmt.immortal else "TABLE"
        return Result(message=f"CREATE {kind} {stmt.name}")

    # -- DML ------------------------------------------------------------------------------

    def _insert(self, txn: Transaction, stmt: ast.Insert) -> Result:
        table = self.db.table(stmt.table)
        column_names = (
            list(stmt.columns)
            if stmt.columns is not None
            else [c.name for c in table.schema.columns]
        )
        count = 0
        for values in stmt.rows:
            if len(values) != len(column_names):
                raise SQLExecutionError(
                    f"INSERT has {len(values)} values for "
                    f"{len(column_names)} columns"
                )
            table.insert(txn, dict(zip(column_names, values)))
            count += 1
        return Result(rowcount=count, message=f"INSERT {count}")

    def _current_rows(self, txn: Transaction, table: Table, where) -> Iterable:
        """A superset of the current rows ``where`` can match (unreadable
        ones as :class:`Degraded`), by the cheapest access the key allows."""
        key_column = table.codec.key_column
        pinned = _key_equality(where, key_column)
        if pinned is not None:
            row = table.read(txn, pinned)
            return [row] if row is not None else []
        low, high = _key_range(where, key_column)
        if low is not None or high is not None:
            return table.scan_range_iter(txn, low, high)
        return table.scan_iter(txn)

    def _update(self, txn: Transaction, stmt: ast.Update) -> Result:
        table = self.db.table(stmt.table)
        updates = dict(stmt.assignments)
        return self._write_matching(
            txn, table, stmt.where, "UPDATE",
            lambda key: table.update(txn, key, updates),
            # ``update`` refuses a new key value before it looks for the row.
            keyed=table.codec.key_column not in updates,
        )

    def _delete(self, txn: Transaction, stmt: ast.Delete) -> Result:
        table = self.db.table(stmt.table)
        return self._write_matching(
            txn, table, stmt.where, "DELETE", functools.partial(table.delete, txn)
        )

    def _write_matching(
        self, txn, table: Table, where, verb: str, write, keyed: bool = True
    ) -> Result:
        """Apply ``write(key)`` to every record ``where`` matches."""
        if keyed and type(where) is ast.Comparison and where.op == "=" \
                and where.column == table.codec.key_column \
                and where.value is not None \
                and txn.mode is TxnMode.SERIALIZABLE:
            # WHERE is exactly ``<key> = literal``: the table's own write
            # finds, locks and validates the record, and one it does not
            # find is a rowcount of 0 — no read first.  (A snapshot or AS OF
            # bracket reads at a horizon the write does not, and keeps it.)
            try:
                write(where.value)
            except KeyNotFoundError:
                return Result(message=f"{verb} 0")
            except PageQuarantinedError:
                pass    # the read below reports the page as degraded
            else:
                return Result(rowcount=1, message=f"{verb} 1")
        degraded: list = []
        keys = []
        for row in self._current_rows(txn, table, where):
            if isinstance(row, Degraded):
                # The page is quarantined: we cannot prove the predicate,
                # so the key is not matched (and the caller reports it).
                degraded.append(row)
            elif _evaluate(where, row):
                keys.append(row[table.codec.key_column])
        for key in keys:
            write(key)
        return Result(rowcount=len(keys), message=f"{verb} {len(keys)}",
                      degraded=degraded)

    # -- queries -----------------------------------------------------------------------------

    def _select_history(self, stmt: ast.SelectHistory) -> Result:
        """Time travel: one result row per version of the matched record."""
        table = self.db.table(stmt.table)
        key = _key_equality(stmt.where, table.codec.key_column)
        if key is None:
            raise SQLExecutionError(
                "SELECT HISTORY OF needs 'WHERE <primary key> = <value>'"
            )
        t_low = (
            self.db.to_timestamp(parse_sql_datetime(stmt.t_low))
            if stmt.t_low is not None else None
        )
        t_high = (
            self.db.to_timestamp(parse_sql_datetime(stmt.t_high))
            if stmt.t_high is not None else None
        )
        rows = []
        for ts, row in table.history(key, t_low=t_low, t_high=t_high):
            out = {
                "_start_time": ts.to_datetime().isoformat(sep=" "),
                "_deleted": row is None,
            }
            if row is not None:
                out.update(row)
            rows.append(out)
        return Result(rows=rows, rowcount=len(rows))

    def _select(self, stmt: ast.Select) -> Result:
        table = self.db.table(stmt.table)
        inline_as_of = (
            self.db.to_timestamp(parse_sql_datetime(stmt.as_of))
            if stmt.as_of is not None
            else None
        )
        return self._run(self._select_rows, table, stmt, inline_as_of)

    def _select_rows(
        self,
        txn: Transaction,
        table: Table,
        stmt: ast.Select,
        inline_as_of: Timestamp | None,
    ) -> Result:
        degraded: list = []
        if inline_as_of is None:
            candidates = self._current_rows(txn, table, stmt.where)
        else:
            pinned = _key_equality(stmt.where, table.codec.key_column)
            if pinned is not None:
                row = table.read_as_of(inline_as_of, pinned)
                candidates = [row] if row is not None else []
            else:
                candidates = table.scan_as_of_iter(inline_as_of)

        def keep(row) -> bool:
            if isinstance(row, Degraded):
                degraded.append(row)
                return False
            return _evaluate(stmt.where, row)

        filtered = (row for row in candidates if keep(row))
        if stmt.order_by is not None:
            # ORDER BY is a pipeline breaker: materialize, sort, then LIMIT.
            rows = sorted(
                filtered,
                key=lambda r: r[stmt.order_by.column],
                reverse=stmt.order_by.descending,
            )
            if stmt.limit is not None:
                rows = rows[: stmt.limit]
        elif stmt.limit is not None:
            # LIMIT pushdown: stop consuming the scan after `limit` rows, so
            # the streaming table iterators never touch the rest of the table.
            rows = list(itertools.islice(filtered, stmt.limit))
        else:
            rows = list(filtered)
        if stmt.columns is not None:
            rows = [{c: row[c] for c in stmt.columns} for row in rows]
        return Result(rows=rows, rowcount=len(rows), degraded=degraded)
