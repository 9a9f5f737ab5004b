"""The tokenizer against the character-by-character scanner it replaced."""
from __future__ import annotations

import ast

from hypothesis import example, given, settings, strategies as st

from countermodel.errors import ParseError
from countermodel.lexer import tokenize
from paperdata import CORPUS
from reference_lexer import tokenize as reference_tokenize

# Characters that exercise every branch of both scanners: blanks and line
# ends, comments, operator prefixes, identifier quotes, non-ASCII letters,
# decimal and non-decimal digits, and characters neither scanner accepts.
_ALPHABET = st.sampled_from(list(" \t\r\n;()[]{},:.+-*~!<>=|/\\^_'ax1Zé中ß٣²½#\f "))


def _scan(scanner, text):
    try:
        return scanner(text, "f")
    except ParseError as exc:
        return str(exc)


def test_every_corpus_file_tokenizes_as_before():
    files = sorted(p for p in CORPUS.rglob("*") if p.is_file())
    assert len(files) > 20
    for path in files:
        text = path.read_text(encoding="utf-8")
        assert tokenize(text, path.name) == reference_tokenize(text, path.name), path.name


@settings(max_examples=400, deadline=None)
@given(st.text(st.one_of(_ALPHABET, st.characters()), max_size=80))
@example("a\t->\rb ; note at end of file")
@example(" \t\r  ")
@example("f(x) -> a  ")
@example("f(x) -> a\t")
@example("f(x) -> a\r")
@example("(VAR x)\r\n(RULES\r\n  f(x) -> x ; rule\r\n)\r\n")
@example("a -> b\n; last line, no newline")
@example("a ->  \t #")
@example("a\n \t\r\f b")
@example("(" * 256)
@example("(" * 257)
@example("))(((")
@example("x' _y2 é٣ 12٣")
def test_tokens_and_errors_match_the_reference_scanner(text):
    got, want = _scan(tokenize, text), _scan(reference_tokenize, text)
    if got != want:
        # The one intended difference: a digit that is not decimal, such as
        # '²', is an unexpected character instead of the start of an int.
        assert isinstance(got, str) and "unexpected character " in got, (got, want)
        char = ast.literal_eval(got.split("unexpected character ", 1)[1])
        assert char.isdigit() and not char.isdecimal()
