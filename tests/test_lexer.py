"""Unit tests for the VASS lexer."""

import pytest

from repro.diagnostics import LexerError
from repro.vass.lexer import Token, TokenKind, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)[:-1]]  # drop EOF


def values(text):
    return [t.value for t in tokenize(text)[:-1]]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_identifier(self):
        (tok,) = tokenize("earph")[:-1]
        assert tok.kind is TokenKind.IDENTIFIER
        assert tok.value == "earph"

    def test_identifiers_are_case_insensitive(self):
        assert values("EARPH Earph earph") == ["earph"] * 3

    def test_keywords_recognized(self):
        toks = tokenize("entity is end")[:-1]
        assert all(t.kind is TokenKind.KEYWORD for t in toks)

    def test_keyword_case_insensitive(self):
        toks = tokenize("ENTITY Architecture proCess")[:-1]
        assert [t.value for t in toks] == ["entity", "architecture", "process"]

    def test_integer_literal(self):
        (tok,) = tokenize("42")[:-1]
        assert tok.kind is TokenKind.INTEGER
        assert tok.value == "42"

    def test_real_literal(self):
        (tok,) = tokenize("3.25")[:-1]
        assert tok.kind is TokenKind.REAL
        assert tok.value == "3.25"

    def test_real_with_exponent(self):
        (tok,) = tokenize("1.5e-3")[:-1]
        assert tok.kind is TokenKind.REAL
        assert float(tok.value) == 1.5e-3

    def test_integer_with_exponent_is_real(self):
        (tok,) = tokenize("2e3")[:-1]
        assert tok.kind is TokenKind.REAL

    def test_underscores_in_numbers(self):
        (tok,) = tokenize("1_000")[:-1]
        assert tok.value == "1000"

    def test_string_literal(self):
        (tok,) = tokenize('"hello"')[:-1]
        assert tok.kind is TokenKind.STRING
        assert tok.value == "hello"

    def test_string_with_doubled_quote(self):
        (tok,) = tokenize('"a""b"')[:-1]
        assert tok.value == 'a"b'

    def test_character_literal(self):
        (tok,) = tokenize("'1'")[:-1]
        assert tok.kind is TokenKind.CHARACTER
        assert tok.value == "1"


class TestDelimiters:
    def test_compound_delimiters(self):
        assert kinds("== => := <= >= /= ** <>") == [
            TokenKind.EQ_EQ,
            TokenKind.ARROW,
            TokenKind.ASSIGN,
            TokenKind.SIGNAL_ASSIGN,
            TokenKind.GE,
            TokenKind.NE,
            TokenKind.DOUBLE_STAR,
            TokenKind.BOX,
        ]

    def test_simple_delimiters(self):
        assert kinds("( ) ; : , . + - * / < > = | &") == [
            TokenKind.LPAREN,
            TokenKind.RPAREN,
            TokenKind.SEMICOLON,
            TokenKind.COLON,
            TokenKind.COMMA,
            TokenKind.DOT,
            TokenKind.PLUS,
            TokenKind.MINUS,
            TokenKind.STAR,
            TokenKind.SLASH,
            TokenKind.LT,
            TokenKind.GT,
            TokenKind.EQ,
            TokenKind.BAR,
            TokenKind.AMPERSAND,
        ]


class TestCommentsAndWhitespace:
    def test_comment_to_end_of_line(self):
        assert values("a -- comment here\nb") == ["a", "b"]

    def test_comment_at_eof(self):
        assert values("a -- trailing") == ["a"]

    def test_minus_not_comment(self):
        assert kinds("a - b") == [
            TokenKind.IDENTIFIER,
            TokenKind.MINUS,
            TokenKind.IDENTIFIER,
        ]


class TestAttributeDisambiguation:
    def test_apostrophe_after_identifier_is_attribute(self):
        toks = tokenize("line'above")[:-1]
        assert [t.kind for t in toks] == [
            TokenKind.IDENTIFIER,
            TokenKind.APOSTROPHE,
            TokenKind.KEYWORD,  # 'above' is a keyword
        ]

    def test_apostrophe_after_rparen_is_attribute(self):
        toks = tokenize("(x)'dot")[:-1]
        assert toks[-2].kind is TokenKind.APOSTROPHE

    def test_apostrophe_elsewhere_is_character(self):
        toks = tokenize("c1 <= '1'")[:-1]
        assert toks[-1].kind is TokenKind.CHARACTER

    def test_character_after_comma(self):
        toks = tokenize("f(a, '0')")[:-1]
        assert any(t.kind is TokenKind.CHARACTER for t in toks)


class TestLocations:
    def test_line_and_column_tracking(self):
        toks = tokenize("a\n  b")
        assert toks[0].location.line == 1
        assert toks[0].location.column == 1
        assert toks[1].location.line == 2
        assert toks[1].location.column == 3

    def test_filename_propagates(self):
        toks = tokenize("x", filename="design.vams")
        assert toks[0].location.filename == "design.vams"


class TestErrors:
    def test_malformed_identifier_double_underscore(self):
        with pytest.raises(LexerError):
            tokenize("a__b")

    def test_unterminated_string(self):
        with pytest.raises(LexerError):
            tokenize('"abc')

    def test_unterminated_character(self):
        with pytest.raises(LexerError):
            tokenize("x <= 'a")

    def test_unexpected_character(self):
        with pytest.raises(LexerError):
            tokenize("a # b")


class TestTokenHelpers:
    def test_is_keyword(self):
        tok = tokenize("entity")[0]
        assert tok.is_keyword("entity")
        assert not tok.is_keyword("end")

    def test_receiver_example_tokenizes(self):
        # The Figure-2 flavor of syntax must tokenize cleanly.
        text = "earph == (Aline * line + Alocal * local) * rvar;"
        toks = tokenize(text)
        assert toks[1].kind is TokenKind.EQ_EQ
        assert toks[-1].kind is TokenKind.EOF


SUPERSCRIPT_SOURCE = """
ENTITY sq IS
PORT (QUANTITY x : IN real; QUANTITY y : OUT real);
END ENTITY;
ARCHITECTURE a OF sq IS
BEGIN
  y == 2.0² * x;
END ARCHITECTURE;
"""


class TestNonDecimalDigits:
    """Numeric literals take decimal digits only, what int/float accept.

    ``²`` is a digit to ``str.isdigit`` but not decimal, so it ends the
    literal and is then an unexpected character, reported with its
    location by every entry point instead of a bare ``ValueError``.
    """

    def test_superscript_ends_the_literal(self):
        with pytest.raises(LexerError) as info:
            tokenize("y == 2.0² * x;", filename="sq.vhd")
        assert info.value.bare_message == "unexpected character '²'"
        assert str(info.value.location) == "sq.vhd:1:9"

    def test_other_decimal_digits_still_lex(self):
        (tok,) = tokenize("٣")[:-1]
        assert tok.kind is TokenKind.INTEGER
        assert int(tok.value) == 3

    def test_superscript_continues_an_identifier(self):
        (tok,) = tokenize("x²")[:-1]
        assert tok.kind is TokenKind.IDENTIFIER

    def test_parse_expression(self):
        from repro.vass.parser import parse_expression

        with pytest.raises(LexerError, match="unexpected character '²'"):
            parse_expression("1²")

    def test_synthesize(self):
        from repro.flow import synthesize

        with pytest.raises(LexerError) as info:
            synthesize(SUPERSCRIPT_SOURCE)
        assert info.value.location.line == 7

    def test_vase_check(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "sq.vhd"
        path.write_text(SUPERSCRIPT_SOURCE, encoding="utf-8")
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}:7:11: error: unexpected character '²'" in err
