"""The one-pass tokenizer against the token-by-token one it replaced."""

import pathlib
import re

import pytest

from fintt.errors import ParseError
from fintt.parser import _TOKEN_RE, tokenize

from .gen import generated_theory_texts

CORPUS = sorted((pathlib.Path(__file__).resolve().parent / "corpus").iterdir())


# The oracle: the tokenizer as it was, one match of one alternative at a time.
ORACLE_RE = re.compile(
    r"""
    (?P<ws>\s+|--[^\n]*)
  | (?P<name>[A-Za-z_][A-Za-z0-9_'-]*)
  | (?P<num>\d+)
  | (?P<op>==|[(){},;:^=*])
    """,
    re.VERBOSE,
)


def oracle_tokenize(text):
    out = []
    pos = 0
    line, col = 1, 1
    while pos < len(text):
        m = ORACLE_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        chunk = m.group(0)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, chunk, line, col))
        nl = chunk.count("\n")
        if nl:
            line += nl
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    out.append(("eof", "", line, col))
    return out


def outcome(tokenizer, text):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenizer(text)]
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.column)


def oracle_outcome(text):
    try:
        return oracle_tokenize(text)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.column)


def agree(text):
    got = outcome(tokenize, text)
    assert got == oracle_outcome(text)
    return got


@pytest.mark.parametrize("path", CORPUS, ids=[p.name for p in CORPUS])
def test_tokenize_agrees_with_the_oracle_on_the_corpus(path):
    assert len(agree(path.read_text())) > 10


@pytest.mark.parametrize("size", [10, 40, 120])
def test_tokenize_agrees_with_the_oracle_on_generated_theories(size):
    for text in generated_theory_texts(sizes=(size,)):
        assert agree(text)[-1][0] == "eof"


EDGE_CASES = {
    "only a comment": "-- only\n",
    "comment at the end without newline": "rule a: yields type -- the end",
    "comment right after a name": "a--b",
    "comment after a space": "a --b\nc",
    "comment after a number": "1--x\n2",
    "prime": "x' x''",
    "tabs": "\trule\ta :\t\tyields type\n\t\tb",
    "crlf": "rule a: yields type\r\n\r\nrule b:\r\n  yields type\r\n",
    "empty": "",
    "only blanks": "  \n\n \t ",
    "at after a comment": "a -- note\n  @",
    "at at the start": "@",
    "lone dash": "a - b",
    "operators": "==(){},;:^=*= =",
    "unicode digits": "\u0663\u0664 x",
    "unicode letter": "x \u00e9",
    "vertical tab and form feed": "a\x0bb\x0cc\n d",
    "newline-free tail after a comment line": "-- c1\n-- c2\nname",
}


@pytest.mark.parametrize("text", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_tokenize_agrees_with_the_oracle_on_edge_cases(text):
    agree(text)


def test_a_comment_is_never_read_as_tokens():
    """A skip that gave back part of a comment would read its tail as a
    name (``-- only`` ending in ``y``)."""
    assert outcome(tokenize, "-- only\n") == [("eof", "", 2, 1)]
    assert outcome(tokenize, "-- only") == [("eof", "", 1, 8)]
    assert outcome(tokenize, "a--b") == [("name", "a--b", 1, 1), ("eof", "", 1, 5)]
    assert outcome(tokenize, "a -- note\n  @") == ("ParseError", "2:3: unexpected character '@'", 2, 3)


def test_the_token_pattern_needs_no_python_3_11_syntax():
    """The package supports Python 3.10, whose ``re`` rejects possessive
    quantifiers and atomic groups (``*+``, ``++``, ``?+``, ``{m,n}+``,
    ``(?>...)``) with ``multiple repeat``."""
    assert re.search(r"[*+?}]\+|\(\?>", _TOKEN_RE.pattern) is None
