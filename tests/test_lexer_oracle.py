"""The master-pattern lexer must tokenize exactly like a character scanner.

The production lexer makes one compiled-pattern match per token; the
``scanning_lexer`` reference (root ``conftest.py``) steps through the
text one character at a time.  For every input both must give the same
tokens, compared as ``(kind, value, line, column, filename)``, or fail
with the same error type, message and location.  Inputs: the bundled
VASS applications and examples, every string literal in the lexer and
frontend-fuzz tests, and seeded random strings that mix VASS
delimiters, quotes, comments and line ends with non-ASCII letters,
digits and marks.
"""

import ast
import random
from pathlib import Path

import pytest

from repro.apps import ALL_APPLICATIONS, EXTRA_APPLICATIONS
from repro.diagnostics import VaseError
from repro.vass.lexer import tokenize

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.vhd"))
APPLICATIONS = {**ALL_APPLICATIONS, **EXTRA_APPLICATIONS}

#: pieces the random strings are built from; every delimiter, both
#: quotes, a comment opener, line ends, tabs and spaces
COMMON_PIECES = (
    list("abcdeEfxyzABCXYZ0123456789_")
    + "( ) [ ] ; : , . & + - * / < > = | == => := <= >= /= <> **".split()
    + ["'", '"', '""', "--", "\r\n", "\r", "\n", "\t", " ", " "]
)
#: letters, digits and marks where str predicates and regex classes
#: part ways: é and Ω are letters, ٣ is a decimal digit, ² is a digit
#: but not decimal, ½ is numeric only, U+0301 is a combining mark
UNICODE_PIECES = ["é", "Ω", "٣", "²", "½", "\u0301"]


def outcome(lex, text, filename="<string>"):
    try:
        tokens = lex(text, filename)
    except VaseError as err:
        return ("error", type(err), err.bare_message, err.location)
    return [
        (t.kind, t.value, t.location.line, t.location.column,
         t.location.filename)
        for t in tokens
    ]


def assert_same(scanning_lexer, text, filename="<string>"):
    expected = outcome(scanning_lexer, text, filename)
    assert outcome(tokenize, text, filename) == expected, repr(text)
    return expected


def string_constants(*names):
    texts = set()
    for name in names:
        tree = ast.parse((ROOT / "tests" / name).read_text(encoding="utf-8"))
        texts.update(
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        )
    return sorted(texts)


#: every string constant of the lexer and frontend-fuzz tests
LITERALS = string_constants("test_lexer.py", "test_frontend_fuzz.py")


def random_text(rng):
    pieces = []
    for _ in range(rng.randrange(41)):
        pool = UNICODE_PIECES if rng.random() < 0.04 else COMMON_PIECES
        pieces.append(rng.choice(pool))
    return "".join(pieces)


@pytest.mark.parametrize("name", sorted(APPLICATIONS))
def test_applications(scanning_lexer, name):
    source = APPLICATIONS[name].VASS_SOURCE
    assert isinstance(assert_same(scanning_lexer, source, f"{name}.vhd"), list)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_examples(scanning_lexer, path):
    source = path.read_text(encoding="utf-8")
    assert isinstance(assert_same(scanning_lexer, source, str(path)), list)


@pytest.mark.parametrize("index", range(len(LITERALS)))
def test_test_literals(scanning_lexer, index):
    assert_same(scanning_lexer, LITERALS[index])


@pytest.mark.parametrize("seed", range(4))
def test_random_strings(scanning_lexer, seed):
    rng = random.Random(seed)
    kinds = set()
    for _ in range(5000):
        result = assert_same(scanning_lexer, random_text(rng), "fuzz.vhd")
        kinds.add(result[2] if isinstance(result, tuple) else "ok")
    # The mix must reach clean input and every lexer error, or the
    # comparison above proves less than it claims.
    assert {
        "ok",
        "unterminated string literal",
        "unterminated character literal",
        "character literal must be a single character",
    } <= kinds
    assert any(str(k).startswith("malformed identifier") for k in kinds)
    assert any(str(k).startswith("unexpected character") for k in kinds)


@pytest.mark.parametrize(
    "text",
    [
        "2.0² * x", "1²", "x² + 1", "½", "٣", "٣.٥e٣", "é", "_a",
        '"a""', '"a"""', "'''", "'\n'", "a'", "x'''", "1__2_e+3_",
        "1.e5", "1e+", "a\r\n\tb -- c\r\n  d", "--", "-", "a--b\n-c",
    ],
)
def test_edge_cases(scanning_lexer, text):
    assert_same(scanning_lexer, text)
