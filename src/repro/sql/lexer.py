"""SQL lexer: a small regex-driven tokenizer.

Keywords are case-insensitive; identifiers keep their original case.
String literals accept both single and double quotes (the paper's AS OF
example uses double quotes: ``AS OF "8/12/2004 10:15:20"``).
"""

from __future__ import annotations

import enum
import re

from repro.errors import SQLSyntaxError

KEYWORDS = {
    "CREATE", "IMMORTAL", "TABLE", "PRIMARY", "KEY", "ON",
    "ALTER", "ENABLE", "SNAPSHOT", "DROP",
    "INSERT", "INTO", "VALUES",
    "UPDATE", "SET",
    "DELETE", "FROM",
    "SELECT", "WHERE", "AND", "OR", "NOT",
    "ORDER", "BY", "ASC", "DESC", "LIMIT",
    "AS", "OF", "HISTORY", "TO",
    "BEGIN", "TRAN", "TRANSACTION", "COMMIT", "ROLLBACK",
    "NULL", "TRUE", "FALSE",
    "SMALLINT", "INT", "INTEGER", "BIGINT",
    "FLOAT", "REAL", "DOUBLE",
    "TEXT", "VARCHAR", "CHAR",
    "BOOL", "BOOLEAN",
}


class TokenType(enum.Enum):
    """Lexical category of a token."""
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    EOF = "eof"


class Token:
    """One lexical token with its source position."""

    __slots__ = ("type", "value", "position")

    def __init__(self, type: TokenType, value: str, position: int) -> None:
        self.type = type
        self.value = value
        self.position = position

    def __repr__(self) -> str:
        return f"Token({self.type}, {self.value!r}, {self.position})"

    def is_keyword(self, *names: str) -> bool:
        """True if this token is one of the named keywords."""
        return self.type is TokenType.KEYWORD and self.value in names


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>--[^\n]*)
  | (?P<number>\d+\.\d+|\.\d+|\d+)
  | (?P<word>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<string>'[^']*(?:''[^']*)*'|"[^"]*(?:""[^"]*)*")
  | (?P<operator><=|>=|<>|!=|=|<|>)
  | (?P<punct>[(),;*\[\]])
    """,
    re.VERBOSE,
)


def tokenize(sql: str) -> list[Token]:
    """Tokenize one or more SQL statements; ends with an EOF token."""
    tokens: list[Token] = []
    pos = 0
    while pos < len(sql):
        match = _TOKEN_RE.match(sql, pos)
        if match is None:
            raise SQLSyntaxError(
                f"unexpected character {sql[pos]!r} at position {pos}", pos
            )
        kind = match.lastgroup
        text = match.group()
        if kind == "word":
            upper = text.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper, pos))
            else:
                tokens.append(Token(TokenType.IDENT, text, pos))
        elif kind == "number":
            tokens.append(Token(TokenType.NUMBER, text, pos))
        elif kind == "string":
            quote = text[0]
            body = text[1:-1].replace(quote * 2, quote)
            tokens.append(Token(TokenType.STRING, body, pos))
        elif kind == "operator":
            tokens.append(Token(TokenType.OPERATOR, text, pos))
        elif kind == "punct":
            tokens.append(Token(TokenType.PUNCT, text, pos))
        # whitespace and comments are skipped
        pos = match.end()
    tokens.append(Token(TokenType.EOF, "", len(sql)))
    return tokens
