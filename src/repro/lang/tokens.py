"""Token definitions for the W2 language.

The token set follows the surface syntax visible in Figure 4-1 of the
paper: a small block-structured language with ``module``, ``cellprogram``,
``function``, declarations, ``for``/``if`` statements and the channel
primitives ``send`` and ``receive``.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import SourceLocation


class TokenKind(enum.Enum):
    """Lexical categories of W2 tokens."""

    # Literals and identifiers.
    IDENT = "identifier"
    INT_LITERAL = "integer literal"
    FLOAT_LITERAL = "float literal"

    # Keywords.
    MODULE = "module"
    CELLPROGRAM = "cellprogram"
    FUNCTION = "function"
    CALL = "call"
    BEGIN = "begin"
    END = "end"
    IF = "if"
    THEN = "then"
    ELSE = "else"
    FOR = "for"
    TO = "to"
    DOWNTO = "downto"
    DO = "do"
    SEND = "send"
    RECEIVE = "receive"
    FLOAT = "float"
    INT = "int"
    IN = "in"
    OUT = "out"

    # Punctuation and operators.
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    SEMICOLON = ";"
    COLON = ":"
    ASSIGN = ":="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    AND = "and"
    OR = "or"
    NOT = "not"

    EOF = "end of input"


#: Map from keyword spelling to its token kind.  W2 keywords are reserved
#: words; the lexer consults this table after scanning an identifier.
KEYWORDS: dict[str, TokenKind] = {
    "module": TokenKind.MODULE,
    "cellprogram": TokenKind.CELLPROGRAM,
    "function": TokenKind.FUNCTION,
    "call": TokenKind.CALL,
    "begin": TokenKind.BEGIN,
    "end": TokenKind.END,
    "if": TokenKind.IF,
    "then": TokenKind.THEN,
    "else": TokenKind.ELSE,
    "for": TokenKind.FOR,
    "to": TokenKind.TO,
    "downto": TokenKind.DOWNTO,
    "do": TokenKind.DO,
    "send": TokenKind.SEND,
    "receive": TokenKind.RECEIVE,
    "float": TokenKind.FLOAT,
    "int": TokenKind.INT,
    "in": TokenKind.IN,
    "out": TokenKind.OUT,
    "and": TokenKind.AND,
    "or": TokenKind.OR,
    "not": TokenKind.NOT,
}


class Token(NamedTuple):
    """A single lexical token with its spelling and source location."""

    kind: TokenKind
    text: str
    location: SourceLocation

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})"
