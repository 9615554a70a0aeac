"""AST node types produced by the SQL parser."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Union

from repro.errors import SQLExecutionError


@dataclass(frozen=True)
class Param:
    """A slot a value fills at execution: a ``?`` placeholder, or a literal
    the executor lifted off the text before parsing it.  ``index`` counts
    the statement's slots left to right; ``takes`` names the one kind of
    literal the grammar takes there (``"datetime"``: a string, after ``AS
    OF``, ``FROM``, ``TO``; ``"count"``: a whole number), if it is one."""
    index: int
    takes: str = ""


Literal = Union[int, float, str, bool, None, Param]


# -- expressions -------------------------------------------------------------

@dataclass(frozen=True)
class Comparison:
    """``column <op> literal``."""
    column: str
    op: str              # one of = <> != < <= > >=
    value: Literal


@dataclass(frozen=True)
class And:
    """Logical conjunction of two predicates."""
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Or:
    """Logical disjunction of two predicates."""
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Not:
    """Logical negation of a predicate."""
    operand: "Expr"


Expr = Union[Comparison, And, Or, Not]


# -- statements -----------------------------------------------------------------

@dataclass(frozen=True)
class ColumnSpec:
    """One column definition inside CREATE TABLE."""
    name: str
    type_name: str           # normalized SQL type keyword
    size: int | None = None  # VARCHAR(n) — accepted, not enforced
    primary_key: bool = False


@dataclass(frozen=True)
class CreateTable:
    """``CREATE [IMMORTAL] TABLE name (columns…) [ON […]]``."""
    name: str
    columns: tuple[ColumnSpec, ...]
    immortal: bool = False
    filegroup: str | None = None  # the paper's "ON [PRIMARY]" — cosmetic


@dataclass(frozen=True)
class AlterTableEnableSnapshot:
    """``ALTER TABLE name ENABLE SNAPSHOT``."""
    name: str


@dataclass(frozen=True)
class DropTable:
    """``DROP TABLE name``."""
    name: str


@dataclass(frozen=True)
class Insert:
    """``INSERT INTO name [(cols)] VALUES (…), …``."""
    table: str
    columns: tuple[str, ...] | None
    rows: tuple[tuple[Literal, ...], ...]


@dataclass(frozen=True)
class Update:
    """``UPDATE name SET col = lit, … [WHERE expr]``."""
    table: str
    assignments: tuple[tuple[str, Literal], ...]
    where: Expr | None


@dataclass(frozen=True)
class Delete:
    """``DELETE FROM name [WHERE expr]``."""
    table: str
    where: Expr | None


@dataclass(frozen=True)
class OrderBy:
    """``ORDER BY column [ASC|DESC]``."""
    column: str
    descending: bool = False


@dataclass(frozen=True)
class Select:
    """``SELECT cols FROM name [AS OF '…'] [WHERE …] [ORDER BY …] [LIMIT n]``."""
    table: str
    columns: tuple[str, ...] | None   # None = '*'
    where: Expr | None = None
    as_of: str | None = None          # inline FROM-table AS OF
    order_by: OrderBy | None = None
    limit: int | None = None


@dataclass(frozen=True)
class SelectHistory:
    """Time travel: SELECT HISTORY OF t WHERE key = v [FROM 'dt' TO 'dt'].

    A non-standard extension (the paper notes time travel "requires
    changing the query processor", Section 4.2) returning one row per
    version, with ``_start_time`` and ``_deleted`` pseudo-columns.
    """

    table: str
    where: Expr
    t_low: str | None = None
    t_high: str | None = None


@dataclass(frozen=True)
class BeginTran:
    """``BEGIN [SNAPSHOT] TRAN [AS OF \"…\"]`` (the paper's Section 4.2 syntax)."""
    as_of: str | None = None     # the paper's AS OF clause (Section 4.2)
    snapshot: bool = False       # BEGIN SNAPSHOT TRAN


@dataclass(frozen=True)
class CommitTran:
    """``COMMIT TRAN``."""
    pass


@dataclass(frozen=True)
class RollbackTran:
    """``ROLLBACK TRAN``."""
    pass


Statement = Union[
    CreateTable,
    AlterTableEnableSnapshot,
    DropTable,
    Insert,
    Update,
    Delete,
    Select,
    SelectHistory,
    BeginTran,
    CommitTran,
    RollbackTran,
]


# -- binding ---------------------------------------------------------------------

_TAKES = {
    "datetime": lambda value: type(value) is str,
    "count": lambda value: type(value) is int and value >= 0,
}

#: Everything a :class:`Param` can stand beneath, and how to list its parts.
_PARTS = {
    cls: operator.attrgetter(*cls.__match_args__)
    for cls in (Comparison, And, Or, ColumnSpec, CreateTable, Insert, Update,
                Delete, Select, SelectHistory, BeginTran)
}
_PARTS[Not] = lambda node: (node.operand,)
_PARTS[tuple] = tuple


def bind(node, values: list):
    """``node`` with every :class:`Param` beneath it replaced by its value
    (:class:`SQLExecutionError`: a value of a kind its clause does not take)."""
    built = []
    for item in _PARTS[type(node)](node):
        kind = type(item)
        if kind is Param:
            value = values[item.index]
            if item.takes and not _TAKES[item.takes](value):
                raise SQLExecutionError(
                    f"parameter {value!r} stands where the statement takes "
                    f"a {item.takes}"
                )
            item = value
        elif kind in _PARTS:
            item = bind(item, values)
        built.append(item)
    return tuple(built) if type(node) is tuple else type(node)(*built)
