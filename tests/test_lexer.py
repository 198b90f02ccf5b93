"""Unit tests for the W2 lexer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import LexError, TokenKind, tokenize
from repro.lang.tokens import KEYWORDS

from oracles.seed_lexer import tokenize as seed_tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)][:-1]  # drop EOF


def texts(source):
    return [t.text for t in tokenize(source)][:-1]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_identifier(self):
        assert kinds("hello") == [TokenKind.IDENT]

    def test_identifier_with_underscore_and_digits(self):
        assert texts("a_b2 _x") == ["a_b2", "_x"]

    def test_keywords_are_reserved(self):
        assert kinds("module begin end if then else") == [
            TokenKind.MODULE,
            TokenKind.BEGIN,
            TokenKind.END,
            TokenKind.IF,
            TokenKind.THEN,
            TokenKind.ELSE,
        ]

    def test_keyword_prefix_is_identifier(self):
        assert kinds("iff formod") == [TokenKind.IDENT, TokenKind.IDENT]

    def test_int_literal(self):
        assert kinds("42") == [TokenKind.INT_LITERAL]

    def test_float_literal(self):
        assert kinds("4.25") == [TokenKind.FLOAT_LITERAL]

    def test_float_exponent(self):
        assert kinds("1e5 2.5E-3 7e+2") == [TokenKind.FLOAT_LITERAL] * 3

    def test_leading_dot_float(self):
        assert kinds(".5") == [TokenKind.FLOAT_LITERAL]

    def test_integer_followed_by_e_identifier(self):
        # '12e' without digits is an int then an identifier.
        assert kinds("12e") == [TokenKind.INT_LITERAL, TokenKind.IDENT]


class TestOperators:
    def test_assign_vs_colon(self):
        assert kinds(": :=") == [TokenKind.COLON, TokenKind.ASSIGN]

    def test_comparisons(self):
        assert kinds("< <= > >= = <>") == [
            TokenKind.LT,
            TokenKind.LE,
            TokenKind.GT,
            TokenKind.GE,
            TokenKind.EQ,
            TokenKind.NE,
        ]

    def test_arithmetic(self):
        assert kinds("+ - * /") == [
            TokenKind.PLUS,
            TokenKind.MINUS,
            TokenKind.STAR,
            TokenKind.SLASH,
        ]

    def test_punctuation(self):
        assert kinds("( ) [ ] , ;") == [
            TokenKind.LPAREN,
            TokenKind.RPAREN,
            TokenKind.LBRACKET,
            TokenKind.RBRACKET,
            TokenKind.COMMA,
            TokenKind.SEMICOLON,
        ]


class TestComments:
    def test_comment_is_skipped(self):
        assert kinds("a /* comment */ b") == [TokenKind.IDENT, TokenKind.IDENT]

    def test_multiline_comment(self):
        assert kinds("a /* line1\nline2 */ b") == [
            TokenKind.IDENT,
            TokenKind.IDENT,
        ]

    def test_comment_containing_stars(self):
        assert kinds("/* ** * **/x") == [TokenKind.IDENT]

    def test_unterminated_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")

    def test_slash_alone_is_divide(self):
        assert kinds("a / b") == [
            TokenKind.IDENT,
            TokenKind.SLASH,
            TokenKind.IDENT,
        ]


class TestLocations:
    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].location.line == 1
        assert tokens[0].location.column == 1
        assert tokens[1].location.line == 2
        assert tokens[1].location.column == 3

    def test_location_after_comment(self):
        tokens = tokenize("/* x\ny */ z")
        assert tokens[0].location.line == 2


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a # b")

    def test_lone_dot(self):
        with pytest.raises(LexError):
            tokenize("a . b")


#: Pieces of W2 text: every token spelling, the characters numbers and
#: comments are built from, blanks, and non-ASCII characters on each
#: side of the ``str.isalpha``/``isdigit``/``isalnum`` boundaries.
_PIECES = (
    sorted(KEYWORDS)
    + [":=", "<=", "<>", ">="]
    + list("abxyzeE_0123456789.+-*/=<>:;,()[]# \t\r\n")
    + ["/*", "*/", "1.", "1.e5", "12e+", "é", "²", "٣", "½", "\x0b"]
)


def _lex(tokenizer, source):
    """Tokens as (kind, text, location), or the LexError's message and
    location."""
    try:
        return [(t.kind, t.text, t.location) for t in tokenizer(source)]
    except LexError as error:
        return ("LexError", error.message, error.location)


class TestSeedEquivalence:
    """The regex lexer reproduces the seed's character-at-a-time scanner
    (kept as a test oracle) token for token and error for error."""

    @settings(max_examples=1500, deadline=None)
    @given(st.lists(st.sampled_from(_PIECES), max_size=30).map("".join))
    def test_matches_seed_lexer(self, source):
        assert _lex(tokenize, source) == _lex(seed_tokenize, source)

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("é", [(TokenKind.IDENT, "é")]),
            ("x²", [(TokenKind.IDENT, "x²")]),
            ("٣", [(TokenKind.INT_LITERAL, "٣")]),
            ("1.", [(TokenKind.FLOAT_LITERAL, "1.")]),
            ("1.e5", [(TokenKind.FLOAT_LITERAL, "1.e5")]),
            (
                "12e+",
                [
                    (TokenKind.INT_LITERAL, "12"),
                    (TokenKind.IDENT, "e"),
                    (TokenKind.PLUS, "+"),
                ],
            ),
        ],
    )
    def test_unicode_and_number_edges(self, source, expected):
        tokens = tokenize(source)[:-1]
        assert [(t.kind, t.text) for t in tokens] == expected
        assert _lex(tokenize, source) == _lex(seed_tokenize, source)

    def test_vulgar_fraction_is_unexpected(self):
        with pytest.raises(LexError, match="unexpected character '½'"):
            tokenize("a ½")
