# The seed's character-at-a-time W2 lexer, kept verbatim (only its two
# relative imports are made absolute) as the oracle for the differential
# test in tests/test_lexer.py.  Test-only: nothing under src/ imports it.
"""Hand-written lexer for W2.

W2 uses C-style ``/* ... */`` comments (see Figure 4-1 of the paper).
Comments do not nest.  The lexer is a straightforward single-pass scanner
producing a list of :class:`~repro.lang.tokens.Token`.
"""

from __future__ import annotations

from repro.lang.errors import LexError, SourceLocation
from repro.lang.tokens import KEYWORDS, Token, TokenKind

_SINGLE_CHAR_TOKENS = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMICOLON,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "=": TokenKind.EQ,
}


class Lexer:
    """Tokenise a W2 source string.

    Use :func:`tokenize` for the common case; the class exists so that the
    scanning state (position, line, column) is explicit and testable.
    """

    def __init__(self, source: str):
        self._source = source
        self._pos = 0
        self._line = 1
        self._column = 1

    def tokenize(self) -> list[Token]:
        """Scan the whole input and return its tokens, ending with EOF."""
        tokens: list[Token] = []
        while True:
            token = self._next_token()
            tokens.append(token)
            if token.kind is TokenKind.EOF:
                return tokens

    # Internal helpers ---------------------------------------------------

    def _location(self) -> SourceLocation:
        return SourceLocation(self._line, self._column)

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index < len(self._source):
            return self._source[index]
        return ""

    def _advance(self) -> str:
        char = self._source[self._pos]
        self._pos += 1
        if char == "\n":
            self._line += 1
            self._column = 1
        else:
            self._column += 1
        return char

    def _skip_whitespace_and_comments(self) -> None:
        while self._pos < len(self._source):
            char = self._peek()
            if char in " \t\r\n":
                self._advance()
            elif char == "/" and self._peek(1) == "*":
                self._skip_comment()
            else:
                return

    def _skip_comment(self) -> None:
        start = self._location()
        self._advance()  # '/'
        self._advance()  # '*'
        while self._pos < len(self._source):
            if self._peek() == "*" and self._peek(1) == "/":
                self._advance()
                self._advance()
                return
            self._advance()
        raise LexError("unterminated comment", start)

    def _next_token(self) -> Token:
        self._skip_whitespace_and_comments()
        location = self._location()
        if self._pos >= len(self._source):
            return Token(TokenKind.EOF, "", location)

        char = self._peek()
        if char.isalpha() or char == "_":
            return self._scan_word(location)
        if char.isdigit():
            return self._scan_number(location)
        if char == ".":
            if self._peek(1).isdigit():
                return self._scan_number(location)
            raise LexError("unexpected '.'", location)
        if char == ":":
            self._advance()
            if self._peek() == "=":
                self._advance()
                return Token(TokenKind.ASSIGN, ":=", location)
            return Token(TokenKind.COLON, ":", location)
        if char == "<":
            self._advance()
            if self._peek() == "=":
                self._advance()
                return Token(TokenKind.LE, "<=", location)
            if self._peek() == ">":
                self._advance()
                return Token(TokenKind.NE, "<>", location)
            return Token(TokenKind.LT, "<", location)
        if char == ">":
            self._advance()
            if self._peek() == "=":
                self._advance()
                return Token(TokenKind.GE, ">=", location)
            return Token(TokenKind.GT, ">", location)
        if char in _SINGLE_CHAR_TOKENS:
            self._advance()
            return Token(_SINGLE_CHAR_TOKENS[char], char, location)
        raise LexError(f"unexpected character {char!r}", location)

    def _scan_word(self, location: SourceLocation) -> Token:
        chars: list[str] = []
        while self._peek().isalnum() or self._peek() == "_":
            chars.append(self._advance())
        text = "".join(chars)
        kind = KEYWORDS.get(text, TokenKind.IDENT)
        return Token(kind, text, location)

    def _scan_number(self, location: SourceLocation) -> Token:
        chars: list[str] = []
        is_float = False
        while self._peek().isdigit():
            chars.append(self._advance())
        if self._peek() == ".":
            is_float = True
            chars.append(self._advance())
            while self._peek().isdigit():
                chars.append(self._advance())
        if self._peek() in "eE":
            next_char = self._peek(1)
            after_sign = self._peek(2)
            if next_char.isdigit() or (next_char in "+-" and after_sign.isdigit()):
                is_float = True
                chars.append(self._advance())  # e/E
                if self._peek() in "+-":
                    chars.append(self._advance())
                while self._peek().isdigit():
                    chars.append(self._advance())
        text = "".join(chars)
        if is_float:
            return Token(TokenKind.FLOAT_LITERAL, text, location)
        return Token(TokenKind.INT_LITERAL, text, location)


def tokenize(source: str) -> list[Token]:
    """Tokenise ``source`` and return its tokens (final token is EOF)."""
    return Lexer(source).tokenize()
