"""Recursive-descent parser for the Immortal DB SQL dialect."""

from __future__ import annotations

from repro.errors import SQLSyntaxError
from repro.sql import ast
from repro.sql.lexer import Token, TokenType, tokenize

_TYPE_KEYWORDS = {
    "SMALLINT", "INT", "INTEGER", "BIGINT",
    "FLOAT", "REAL", "DOUBLE",
    "TEXT", "VARCHAR", "CHAR",
    "BOOL", "BOOLEAN",
}


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.slots = 0      # ``?`` placeholders met so far

    # -- cursor helpers ------------------------------------------------------

    @property
    def current(self) -> Token:
        """The token under the cursor."""
        return self.tokens[self.pos]

    def advance(self) -> Token:
        """Consume and return the current token."""
        token = self.current
        self.pos += 1
        return token

    def error(self, message: str) -> SQLSyntaxError:
        """Build a SQLSyntaxError at the current position."""
        token = self.current
        return SQLSyntaxError(
            f"{message} (got {token.value!r} at position {token.position})",
            token.position,
        )

    def expect_keyword(self, *names: str) -> Token:
        """Consume one of the named keywords or fail."""
        if not self.current.is_keyword(*names):
            raise self.error(f"expected {' or '.join(names)}")
        return self.advance()

    def accept_keyword(self, *names: str) -> bool:
        """Consume one of the named keywords if present."""
        if self.current.is_keyword(*names):
            self.advance()
            return True
        return False

    def expect_punct(self, value: str) -> Token:
        """Consume the given punctuation or fail."""
        if self.current.type is not TokenType.PUNCT or \
                self.current.value != value:
            raise self.error(f"expected {value!r}")
        return self.advance()

    def accept_punct(self, value: str) -> bool:
        """Consume the given punctuation if present."""
        if self.current.type is TokenType.PUNCT and self.current.value == value:
            self.advance()
            return True
        return False

    def expect_ident(self) -> str:
        """Consume an identifier or fail."""
        if self.current.type is TokenType.IDENT:
            return self.advance().value
        # Allow non-reserved-looking keywords as identifiers where sensible.
        raise self.error("expected an identifier")

    # -- statements --------------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        """Parse one statement at the cursor."""
        token = self.current
        if token.is_keyword("CREATE"):
            return self._create()
        if token.is_keyword("ALTER"):
            return self._alter()
        if token.is_keyword("DROP"):
            return self._drop()
        if token.is_keyword("INSERT"):
            return self._insert()
        if token.is_keyword("UPDATE"):
            return self._update()
        if token.is_keyword("DELETE"):
            return self._delete()
        if token.is_keyword("SELECT"):
            return self._select()
        if token.is_keyword("BEGIN"):
            return self._begin()
        if token.is_keyword("COMMIT"):
            self.advance()
            self.accept_keyword("TRAN", "TRANSACTION")
            return ast.CommitTran()
        if token.is_keyword("ROLLBACK"):
            self.advance()
            self.accept_keyword("TRAN", "TRANSACTION")
            return ast.RollbackTran()
        raise self.error("expected a statement")

    def _create(self) -> ast.CreateTable:
        self.expect_keyword("CREATE")
        immortal = self.accept_keyword("IMMORTAL")
        self.expect_keyword("TABLE")
        name = self.expect_ident()
        self.expect_punct("(")
        columns = [self._column_spec()]
        while self.accept_punct(","):
            columns.append(self._column_spec())
        self.expect_punct(")")
        filegroup = None
        if self.accept_keyword("ON"):
            # The paper's example: "ON [PRIMARY]".
            if self.accept_punct("["):
                filegroup = self.expect_keyword("PRIMARY").value \
                    if self.current.is_keyword("PRIMARY") else self.expect_ident()
                self.expect_punct("]")
            else:
                filegroup = self.expect_ident()
        return ast.CreateTable(
            name=name, columns=tuple(columns),
            immortal=immortal, filegroup=filegroup,
        )

    def _column_spec(self) -> ast.ColumnSpec:
        name = self.expect_ident()
        if self.current.type is not TokenType.KEYWORD or \
                self.current.value not in _TYPE_KEYWORDS:
            raise self.error("expected a column type")
        type_name = self.advance().value
        size = None
        if self.accept_punct("("):
            size = self._count("expected a size")
            self.expect_punct(")")
        primary = False
        if self.accept_keyword("PRIMARY"):
            self.expect_keyword("KEY")
            primary = True
        return ast.ColumnSpec(name, type_name, size, primary)

    def _alter(self) -> ast.AlterTableEnableSnapshot:
        self.expect_keyword("ALTER")
        self.expect_keyword("TABLE")
        name = self.expect_ident()
        self.expect_keyword("ENABLE")
        self.expect_keyword("SNAPSHOT")
        return ast.AlterTableEnableSnapshot(name)

    def _drop(self) -> ast.DropTable:
        self.expect_keyword("DROP")
        self.expect_keyword("TABLE")
        return ast.DropTable(self.expect_ident())

    def _insert(self) -> ast.Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_ident()
        columns: tuple[str, ...] | None = None
        if self.accept_punct("("):
            names = [self.expect_ident()]
            while self.accept_punct(","):
                names.append(self.expect_ident())
            self.expect_punct(")")
            columns = tuple(names)
        self.expect_keyword("VALUES")
        rows = [self._value_tuple()]
        while self.accept_punct(","):
            rows.append(self._value_tuple())
        return ast.Insert(table, columns, tuple(rows))

    def _value_tuple(self) -> tuple[ast.Literal, ...]:
        self.expect_punct("(")
        values = [self._literal()]
        while self.accept_punct(","):
            values.append(self._literal())
        self.expect_punct(")")
        return tuple(values)

    def _param(self, takes: str = "") -> ast.Param:
        """Consume a ``?``: the statement's next slot."""
        self.advance()
        self.slots += 1
        return ast.Param(self.slots - 1, takes)

    def _datetime(self, clause: str) -> str | ast.Param:
        if self.current.type is TokenType.PARAM:
            return self._param("datetime")
        if self.current.type is not TokenType.STRING:
            raise self.error(f"{clause} expects a quoted datetime")
        return self.advance().value

    def _count(self, message: str) -> int | ast.Param:
        """A whole number that is not negative (a size, a LIMIT)."""
        if self.current.type is TokenType.PARAM:
            return self._param("count")
        if self.current.type is not TokenType.NUMBER \
                or int(self.current.value) < 0:
            raise self.error(message)
        return int(self.advance().value)

    def _literal(self) -> ast.Literal:
        token = self.current
        if token.type is TokenType.PARAM:
            return self._param()
        if token.type is TokenType.NUMBER:
            self.advance()
            return float(token.value) if "." in token.value else int(token.value)
        if token.type is TokenType.STRING:
            self.advance()
            return token.value
        if token.is_keyword("NULL"):
            self.advance()
            return None
        if token.is_keyword("TRUE"):
            self.advance()
            return True
        if token.is_keyword("FALSE"):
            self.advance()
            return False
        if token.type is TokenType.OPERATOR and token.value == "<":
            raise self.error("expected a literal")
        raise self.error("expected a literal")

    def _update(self) -> ast.Update:
        self.expect_keyword("UPDATE")
        table = self.expect_ident()
        self.expect_keyword("SET")
        assignments = [self._assignment()]
        while self.accept_punct(","):
            assignments.append(self._assignment())
        where = self._optional_where()
        return ast.Update(table, tuple(assignments), where)

    def _assignment(self) -> tuple[str, ast.Literal]:
        column = self.expect_ident()
        if self.current.type is not TokenType.OPERATOR or \
                self.current.value != "=":
            raise self.error("expected '='")
        self.advance()
        return column, self._literal()

    def _delete(self) -> ast.Delete:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_ident()
        return ast.Delete(table, self._optional_where())

    def _select(self):
        self.expect_keyword("SELECT")
        if self.accept_keyword("HISTORY"):
            return self._select_history()
        columns: tuple[str, ...] | None
        if self.accept_punct("*"):
            columns = None
        else:
            names = [self.expect_ident()]
            while self.accept_punct(","):
                names.append(self.expect_ident())
            columns = tuple(names)
        self.expect_keyword("FROM")
        table = self.expect_ident()
        as_of = None
        if self.accept_keyword("AS"):
            self.expect_keyword("OF")
            as_of = self._datetime("AS OF")
        where = self._optional_where()
        order_by = None
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            column = self.expect_ident()
            descending = False
            if self.accept_keyword("DESC"):
                descending = True
            else:
                self.accept_keyword("ASC")
            order_by = ast.OrderBy(column, descending)
        limit = None
        if self.accept_keyword("LIMIT"):
            limit = self._count("LIMIT expects a number")
        return ast.Select(table, columns, where, as_of, order_by, limit)

    def _select_history(self) -> ast.SelectHistory:
        """SELECT HISTORY OF t WHERE k = v [FROM 'dt' TO 'dt']."""
        self.expect_keyword("OF")
        table = self.expect_ident()
        self.expect_keyword("WHERE")
        where = self._expr()
        t_low = t_high = None
        if self.accept_keyword("FROM"):
            t_low = self._datetime("FROM")
            self.expect_keyword("TO")
            t_high = self._datetime("TO")
        return ast.SelectHistory(table, where, t_low, t_high)

    def _begin(self) -> ast.BeginTran:
        self.expect_keyword("BEGIN")
        snapshot = self.accept_keyword("SNAPSHOT")
        self.expect_keyword("TRAN", "TRANSACTION")
        as_of = None
        if self.accept_keyword("AS"):
            self.expect_keyword("OF")
            as_of = self._datetime("AS OF")
        return ast.BeginTran(as_of=as_of, snapshot=snapshot)

    def _optional_where(self):
        if self.accept_keyword("WHERE"):
            return self._expr()
        return None

    # -- expressions --------------------------------------------------------------

    def _expr(self):
        return self._or_expr()

    def _or_expr(self):
        left = self._and_expr()
        while self.accept_keyword("OR"):
            left = ast.Or(left, self._and_expr())
        return left

    def _and_expr(self):
        left = self._primary_expr()
        while self.accept_keyword("AND"):
            left = ast.And(left, self._primary_expr())
        return left

    def _primary_expr(self):
        if self.accept_keyword("NOT"):
            return ast.Not(self._primary_expr())
        if self.accept_punct("("):
            inner = self._expr()
            self.expect_punct(")")
            return inner
        column = self.expect_ident()
        if self.current.type is not TokenType.OPERATOR:
            raise self.error("expected a comparison operator")
        op = self.advance().value
        if op == "!=":
            op = "<>"
        return ast.Comparison(column, op, self._literal())


def parse_statement(sql: str) -> ast.Statement:
    """Parse exactly one statement (a trailing semicolon is allowed); each
    ``?`` in it parses to an :class:`ast.Param`, for :func:`ast.bind`."""
    parser = _Parser(tokenize(sql))
    statement = parser.parse_statement()
    parser.accept_punct(";")
    if parser.current.type is not TokenType.EOF:
        raise parser.error("unexpected trailing input")
    return statement


def parse_script(sql: str) -> list[ast.Statement]:
    """Parse a semicolon-separated sequence of statements (which takes no
    parameters, so a ``?`` in it is an error)."""
    parser = _Parser(tokenize(sql))
    statements: list[ast.Statement] = []
    while parser.current.type is not TokenType.EOF:
        statements.append(parser.parse_statement())
        if parser.slots:
            raise SQLSyntaxError("a script takes no '?' parameters")
        while parser.accept_punct(";"):
            pass
    return statements
