"""Regular-expression lexer for W2.

W2 uses C-style ``/* ... */`` comments (see Figure 4-1 of the paper).
Comments do not nest.  One compiled master pattern, driven by
:meth:`re.Pattern.finditer`, matches every token, blank and comment in a
single pass; every match takes the blanks after it, and the last
alternative matches any character, so the matches tile the source and a
character no token starts with becomes a :class:`LexError`.

Identifiers start with a letter (``str.isalpha``) or ``_`` and continue
with ``\\w`` characters (exactly ``str.isalnum`` or ``_``); numbers are
built from ``str.isdigit`` characters.  For a non-ASCII source the
character classes gain the source's own non-ASCII letters and digits,
classified by those same ``str`` predicates.
"""

from __future__ import annotations

import functools
import re

from .errors import LexError, SourceLocation
from .tokens import KEYWORDS, Token, TokenKind

_OPERATORS = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMICOLON,
    ":": TokenKind.COLON,
    ":=": TokenKind.ASSIGN,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "=": TokenKind.EQ,
    "<>": TokenKind.NE,
    "<": TokenKind.LT,
    "<=": TokenKind.LE,
    ">": TokenKind.GT,
    ">=": TokenKind.GE,
}

_LITERALS = {"int": TokenKind.INT_LITERAL, "float": TokenKind.FLOAT_LITERAL}

# The named-tuple constructors without the Python-level ``__new__`` of
# ``Token(...)``: the lexer builds a location and a token per token.
_token = functools.partial(tuple.__new__, Token)
_location = functools.partial(tuple.__new__, SourceLocation)


@functools.lru_cache(maxsize=64)
def _master_pattern(letters: str = "", digits: str = "") -> re.Pattern[str]:
    """The master pattern; ``letters`` and ``digits`` extend the ASCII
    identifier-start and digit classes."""
    digit = f"[0-9{digits}]"
    return re.compile(
        rf"""
        (?:
          (?P<word>[A-Za-z_{letters}]\w*)
        | (?P<comment>/\*.*?\*/)
        | (?P<open_comment>/\*)
        | (?P<op>:=|<=|<>|>=|[()\[\],;:+\-*/=<>])
        | (?P<float>(?:{digit}+\.{digit}*|\.{digit}+)(?:[eE][+-]?{digit}+)?
                   |{digit}+[eE][+-]?{digit}+)
        | (?P<int>{digit}+)
        | (?P<newline>\n)
        | (?P<blank>[ \t\r])
        | (?P<stray>.)
        )[ \t\r]*
        """,
        re.VERBOSE | re.DOTALL,
    )


def _pattern_for(source: str) -> re.Pattern[str]:
    if source.isascii():
        return _master_pattern()
    extra = sorted({char for char in source if not char.isascii()})
    return _master_pattern(
        "".join(char for char in extra if char.isalpha()),
        "".join(char for char in extra if char.isdigit()),
    )


def tokenize(source: str) -> list[Token]:
    """Tokenise ``source`` and return its tokens (final token is EOF)."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    for match in _pattern_for(source).finditer(source):
        group = match.lastgroup
        start = match.start()
        if group == "newline":
            line += 1
            line_start = start + 1
            continue
        if group == "blank":  # only at the start: blanks trail each match
            continue
        text = match[group]
        location = _location((line, start - line_start + 1))
        if group == "word":
            kind = KEYWORDS.get(text, TokenKind.IDENT)
            tokens.append(_token((kind, text, location)))
        elif group == "op":
            tokens.append(_token((_OPERATORS[text], text, location)))
        elif group == "comment":
            last_newline = text.rfind("\n")
            if last_newline >= 0:
                line += text.count("\n")
                line_start = start + last_newline + 1
        elif group == "open_comment":
            raise LexError("unterminated comment", location)
        elif group == "stray":
            if text == ".":
                raise LexError("unexpected '.'", location)
            raise LexError(f"unexpected character {text!r}", location)
        else:
            tokens.append(_token((_LITERALS[group], text, location)))
    location = SourceLocation(line, len(source) - line_start + 1)
    tokens.append(Token(TokenKind.EOF, "", location))
    return tokens
