"""SQL executor: binds parsed statements to the engine.

A :class:`Session` holds at most one open transaction.  Statements outside
an explicit ``BEGIN TRAN … COMMIT TRAN`` bracket run autocommitted.  The
paper's historical transactions — ``BEGIN TRAN AS OF "…"`` — make every
read inside the bracket see the database as of that time.

Point lookups are recognized from WHERE clauses: an equality comparison on
the primary key becomes a B-tree point read instead of a scan, and bounds on
the key a range scan.  A WHERE that is exactly what that access enforces —
``key = v``, or ``key >= a AND key <= b``, no value null — is not evaluated
again on the rows it returns; every other WHERE is, in full.

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
import operator
from dataclasses import dataclass, field

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


@functools.lru_cache(maxsize=256)
def sql_timestamp(text: str) -> Timestamp:
    """An AS OF, FROM or TO literal as the engine's timestamp, converted
    once per distinct text (the conversion is pure; a malformed text is
    not kept, so it raises every time)."""
    return ImmortalDB.to_timestamp(parse_sql_datetime(text))


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


#: The comparisons that are false when either side is null.
_ORDERED = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _evaluate(expr: ast.Expr, row: dict) -> bool:
    kind = type(expr)
    if kind is ast.And:
        return _evaluate(expr.left, row) and _evaluate(expr.right, row)
    if kind is ast.Or:
        return _evaluate(expr.left, row) or _evaluate(expr.right, row)
    if kind is ast.Not:
        return not _evaluate(expr.operand, row)
    try:
        actual = row[expr.column]
    except KeyError:
        raise SQLExecutionError(f"unknown column {expr.column!r}") from None
    op, wanted = expr.op, expr.value
    if op == "=":
        return actual == wanted
    if op == "<>":
        return actual != wanted
    return actual is not None and wanted is not None \
        and _ORDERED[op](actual, wanted)


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
    when unbounded.  The range may over-approximate the clause: whatever it
    leaves out stays with the rows' predicate.
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


def _key_bounds(where: ast.And, key_column: str):
    """``(a, b)`` when ``where`` is just ``key >= a AND key <= b`` (in
    either order, neither null), else None.

    Key images are exact and order-preserving, so a range scan of the key
    returns exactly the rows such a WHERE matches and none of them is
    checked again; a null bound bounds nothing and stays with the predicate
    (a point read's rule is in :meth:`Session._candidates`).
    """
    left, right = where.left, where.right
    if type(left) is ast.Comparison and type(right) is ast.Comparison \
            and left.column == key_column == right.column \
            and left.value is not None and right.value is not None:
        if left.op == ">=" and right.op == "<=":
            return left.value, right.value
        if left.op == "<=" and right.op == ">=":
            return right.value, left.value
    return None


class Session:
    """One SQL session over an :class:`~repro.core.engine.ImmortalDB`."""

    def __init__(self, db: ImmortalDB) -> None:
        self.db = db
        self._txn: Transaction | None = None
        #: shape -> its parse and that parse's :func:`ast.template`
        self._shapes: dict[tuple, tuple] = {}

    # -- public API ----------------------------------------------------------

    def execute(self, sql: str, params=()) -> Result:
        """Execute a single statement; ``params`` are its ``?`` values.
        What is dispatched is ``parse_statement(sql)`` with the parameters
        in place, and what fails, fails as that does."""
        shape, values = lift(sql)
        known = self._shapes.get(shape)
        if known is None:
            try:
                # The shape's parse: a placeholder where each literal stood.
                statement = parse_statement("?".join(shape))
            except SQLSyntaxError:
                # The error reads as the statement's own text words it.
                # (Should that parse after all, lift and the tokenizer read
                # it differently: it runs, nothing lifted, nothing kept.)
                statement = parse_statement(sql)
                known = statement, ast.template(statement)
                shape, values = ("".join(shape),), []
            else:
                if len(self._shapes) >= SHAPES_KEPT:
                    del self._shapes[next(iter(self._shapes))]
                known = self._shapes[shape] = statement, ast.template(statement)
        statement, template = known
        if params or "?" in sql:
            values = merge_params(shape, values, params)
        if values and template is not None:
            try:
                statement = ast.bind(template, values)
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

    def _commit(self, stmt: ast.CommitTran) -> Result:
        if self._txn is None:
            raise SQLExecutionError("no open transaction")
        ts = self.db.commit(self._txn)
        self._txn = None
        suffix = f" at {ts}" if ts is not None else ""
        return Result(message=f"COMMIT{suffix}")

    def _rollback(self, stmt: ast.RollbackTran) -> Result:
        if self._txn is None:
            raise SQLExecutionError("no open transaction")
        self.db.abort(self._txn)
        self._txn = None
        return Result(message="ROLLBACK")

    def _run(self, body, *args) -> Result:
        """Run ``body(self, txn, *args)`` in the open transaction or in a
        fresh one, autocommitted."""
        if self._txn is not None:
            return body(self, self._txn, *args)
        txn = self.db.begin()
        try:
            result = body(self, txn, *args)
        except BaseException:
            self.db.abort(txn)
            raise
        self.db.commit(txn)
        return result

    def _dispatch(self, stmt: ast.Statement) -> Result:
        try:
            body, transactional = _STATEMENTS[type(stmt)]
        except KeyError:
            raise SQLExecutionError(f"unsupported statement {stmt!r}") from None
        if transactional:
            return self._run(body, stmt)
        return body(self, stmt)

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

    def _enable_snapshot(self, stmt: ast.AlterTableEnableSnapshot) -> Result:
        self.db.enable_snapshot_isolation(stmt.name)
        return Result(message=f"ALTER TABLE {stmt.name} ENABLE SNAPSHOT")

    def _drop_table(self, stmt: ast.DropTable) -> Result:
        self.db.drop_table(stmt.name)
        return Result(message=f"DROP TABLE {stmt.name}")

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

    def _candidates(self, txn: Transaction, table: Table, where, when=None):
        """A superset of the rows ``where`` can match (unreadable ones as
        :class:`Degraded`) — current in ``txn``, or as of ``when`` — by the
        cheapest access the key allows, and what of ``where`` each of them
        has yet to pass (None: nothing)."""
        key_column = table.codec.key_column
        if when is None and type(where) is ast.And \
                and (bounds := _key_bounds(where, key_column)) is not None:
            return table.scan_range_iter(txn, *bounds), None
        pinned = _key_equality(where, key_column)
        if pinned is not None:
            row = table.read(txn, pinned) if when is None \
                else table.read_as_of(when, pinned)
            # A WHERE that is just ``key = v`` is what the read enforced.
            return ([row] if row is not None else []), \
                None if type(where) is ast.Comparison else where
        if when is not None:
            return table.scan_as_of_iter(when), where
        low, high = _key_range(where, key_column)
        if low is not None or high is not None:
            return table.scan_range_iter(txn, low, high), where
        return table.scan_iter(txn), where

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
        rows, residual = self._candidates(txn, table, where)
        for row in rows:
            if isinstance(row, Degraded):
                # The page is quarantined: we cannot prove the predicate,
                # so the key is not matched (and the caller reports it).
                degraded.append(row)
            elif residual is None or _evaluate(residual, row):
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
        t_low = sql_timestamp(stmt.t_low) if stmt.t_low is not None else None
        t_high = sql_timestamp(stmt.t_high) if stmt.t_high is not None else None
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
        if stmt.as_of is None:
            return self._run(Session._select_rows, table, stmt)
        # A read at a fixed time takes no transaction of the session's:
        # the table's as-of reads run their own.
        return self._select_rows(None, table, stmt, sql_timestamp(stmt.as_of))

    def _select_rows(self, txn, table: Table, stmt: ast.Select, when=None) -> Result:
        """The rows ``stmt`` selects — current in ``txn``, or as of
        ``when`` — ordered, limited and projected as it asks."""
        candidates, residual = self._candidates(txn, table, stmt.where, when)
        order_by, limit = stmt.order_by, stmt.limit
        # LIMIT pushdown: without ORDER BY (a pipeline breaker) the scan is
        # not consumed past the ``limit``-th row, so the streaming table
        # iterators never touch the rest of the table.
        stop = limit if order_by is None else None
        if residual is None and stop is None:
            # Nothing left to check and nowhere to stop: the rows are taken
            # whole.  A row is a non-empty dict and a Degraded is falsy, so
            # ``all`` says in C whether a quarantined page left one here.
            rows, degraded = list(candidates), []
            if not all(rows):
                degraded, rows = [r for r in rows if not r], [r for r in rows if r]
        else:
            degraded, rows = [], []
            for row in candidates if stop != 0 else ():
                if isinstance(row, Degraded):
                    degraded.append(row)
                elif residual is None or _evaluate(residual, row):
                    rows.append(row)
                    if len(rows) == stop:
                        break
        if order_by is not None:
            rows.sort(key=lambda r: r[order_by.column],
                      reverse=order_by.descending)
            if limit is not None:
                rows = rows[:limit]
        if stmt.columns is not None:
            rows = [{c: row[c] for c in stmt.columns} for row in rows]
        return Result(rows=rows, rowcount=len(rows), degraded=degraded)


#: Each statement type's body, and whether it runs in the session's
#: transaction (``body(session, txn, stmt)``) or on its own (``body(session,
#: stmt)``).
_STATEMENTS = {
    ast.BeginTran: (Session._begin, False),
    ast.CommitTran: (Session._commit, False),
    ast.RollbackTran: (Session._rollback, False),
    ast.CreateTable: (Session._create_table, False),
    ast.AlterTableEnableSnapshot: (Session._enable_snapshot, False),
    ast.DropTable: (Session._drop_table, False),
    ast.Insert: (Session._insert, True),
    ast.Update: (Session._update, True),
    ast.Delete: (Session._delete, True),
    ast.Select: (Session._select, False),
    ast.SelectHistory: (Session._select_history, False),
}
