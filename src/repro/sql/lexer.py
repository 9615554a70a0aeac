"""SQL lexer: a small regex-driven tokenizer, and the literal lift.

Keywords are case-insensitive; identifiers keep their original case.
String literals accept both single and double quotes (the paper's AS OF
example uses double quotes: ``AS OF "8/12/2004 10:15:20"``).  The dialect
has no arithmetic, so a sign glued to digits is part of the number and a
sign on its own is an error.  ``?`` is a placeholder: a literal whose value
arrives beside the text.  :func:`lift`, one C-level regex pass, is what the
executor runs on every statement instead of the tokenizer.
"""

from __future__ import annotations

import enum
import functools
import itertools
import re

from repro.errors import SQLExecutionError, SQLSyntaxError

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
    PARAM = "param"
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


_COMMENT = r"--[^\n]*"
_DIGITS = r"(?:\d+\.\d+|\.\d+|\d+)"
_STRING = r"'[^']*(?:''[^']*)*'" r'|"[^"]*(?:""[^"]*)*"'

_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<comment>{_COMMENT})
  | (?P<number>[-+]?{_DIGITS})
  | (?P<word>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<string>{_STRING})
  | (?P<operator><=|>=|<>|!=|=|<|>)
  | (?P<punct>[(),;*\[\]])
  | (?P<param>\?)
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
        elif kind == "param":
            tokens.append(Token(TokenType.PARAM, text, pos))
        # whitespace and comments are skipped
        pos = match.end()
    tokens.append(Token(TokenType.EOF, "", len(sql)))
    return tokens


# -- the literal lift ---------------------------------------------------------

#: The two literal tokens, as the tokenizer spells them: a sign in front of
#: digits belongs to the number wherever it stands.  A number is lifted only
#: when it stands free: digits glued to a word or a dot (``t1``, ``1e5``,
#: ``1.2.3``, ``1AND``) stay in the shape, which is then a shape of its own.
#: The lookahead only names the characters a literal can start with, so the
#: scan passes every other position in one test.
_LITERAL_RE = re.compile(
    rf"""(?=['"\-+.0-9])({_STRING}|(?:[-+]|(?<![\w.])){_DIGITS}(?![\w.]))"""
)
#: A comment may hold quotes and digits (and a string ``--``): overwrite
#: every comment with spaces before looking.
_blank_comments = functools.partial(
    re.compile(rf"({_STRING})|{_COMMENT}").sub,
    lambda match: match[1] or " " * len(match[0]),
)


def lift(sql: str) -> tuple[tuple[str, ...], list]:
    """Split a statement into its shape and its literals' values.

    The shape is the text between the literals: two statements with one
    shape differ in literal values only, so they share a parse — that of
    ``"?".join(shape)``, the text with a placeholder for each literal.
    """
    parts = _LITERAL_RE.split(_blank_comments(sql) if "--" in sql else sql)
    values = parts[1::2]
    del parts[1::2]
    # The tokenizer's two conversions, inline: this loop runs per statement.
    for i, text in enumerate(values):
        quote = text[0]
        if quote == "'" or quote == '"':
            values[i] = text[1:-1].replace(quote * 2, quote)
        else:
            values[i] = float(text) if "." in text else int(text)
    return tuple(parts), values


def merge_params(shape: tuple[str, ...], literals: list, params) -> list:
    """The values of a statement's slots, in text order: each ``?`` in the
    shape takes the next parameter, the gap after each of its parts the
    next literal — placeholders and lifted literals fill the same slots."""
    counts = [part.count("?") for part in shape]
    if sum(counts) != len(params) or not all(
        type(value) in (int, float, str, bool, type(None)) for value in params
    ):
        raise SQLExecutionError(
            f"statement takes {sum(counts)} parameter(s), each a number, "
            f"a string, a boolean or null; got {list(params)!r}"
        )
    values, given = [], iter(params)
    for i, count in enumerate(counts):
        values.extend(itertools.islice(given, count))
        values.extend(literals[i:i + 1])
    return values
