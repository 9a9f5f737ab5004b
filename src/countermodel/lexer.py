"""The one reader shared by the system, query and structure file formats.

``tokenize`` scans a text with one compiled pattern.  ``TokenStream`` is the
cursor the three parsers read from: besides single tokens it reads the
shapes the formats share, ``item SEP item ...`` (``separated``), a bracketed
comma list (``items``), the ``(KEYWORD ...)`` blocks of a document
(``blocks``) and the raw tokens of a balanced block (``balanced``).
``read_term`` reads ``name`` and ``name(term, ..., term)``; each format says
through two callbacks what a name stands for.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

from .errors import ParseError, SourceSpan

T = TypeVar("T")

# Deepest parenthesis nesting the parsers accept.  The parsers and the term
# walkers downstream (printing, evaluation, lowering) recurse once or a few
# times per level, so the cap keeps every input well inside Python's
# recursion limit: deeper input is an input error, never a crash.
MAX_NESTING = 256

# Longest match first.
_OPERATORS = (
    "->*",
    "->^",
    "->",
    "|>",
    "\\/",
    "/\\",
    "==",
    "=>",
    "<=",
    ">=",
    "<",
    ">",
    "=",
    "|",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    ",",
    ":",
    ".",
    "+",
    "-",
    "*",
    "~",
    "!",
)

# One alternative per token class, tried in order.  ``\w`` is exactly
# ``str.isalnum()`` plus '_', and ``\d`` the decimal digits that ``int()``
# reads.  ``[^\W\d]`` also admits a digit that is not decimal, such as '²',
# so ``tokenize`` checks that an identifier starts with a letter or '_'.
_TOKEN = re.compile(
    r"(?P<skip>[ \t\r]+|;[^\n]*)|(?P<newline>\n)|(?P<ident>[^\W\d][\w']*)|(?P<int>\d+)"
    f"|(?P<op>{'|'.join(map(re.escape, _OPERATORS))})|(?P<other>.)"
)


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "int", or the operator text
    text: str
    line: int
    column: int

    def span(self, file: str | None = None) -> SourceSpan:
        return SourceSpan(file, self.line, self.column, self.line, self.column + len(self.text))


def tokenize(text: str, file: str | None = None) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    nesting = 0
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "skip":
            continue
        if kind == "newline":
            line += 1
            line_start = match.end()
            continue
        value = match.group()
        column = match.start() - line_start + 1
        if kind == "op":
            kind = value
            nesting += (value == "(") - (value == ")")
            if nesting > MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING} levels",
                    SourceSpan(file, line, column, line, column + 1),
                )
        elif kind == "other" or (kind == "ident" and not (value[0].isalpha() or value[0] == "_")):
            raise ParseError(
                f"unexpected character {value[0]!r}",
                SourceSpan(file, line, column, line, column + 1),
            )
        tokens.append(Token(kind, value, line, column))
    return tokens


class TokenStream:
    """Cursor over a token list with spanned error reporting."""

    def __init__(self, tokens: list[Token], file: str | None = None):
        self.tokens = tokens
        self.file = file
        self.index = 0

    def peek(self, offset: int = 0) -> Token | None:
        index = self.index + offset
        return self.tokens[index] if index < len(self.tokens) else None

    def at(self, kind: str, offset: int = 0) -> bool:
        token = self.peek(offset)
        return token is not None and token.kind == kind

    def at_ident(self, text: str) -> bool:
        token = self.peek()
        return token is not None and token.kind == "ident" and token.text == text

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise self.error("unexpected end of input")
        self.index += 1
        return token

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        """The next token when it has ``kind`` (and ``text``, if given), consumed."""
        token = self.peek()
        if token is None or token.kind != kind or (text is not None and token.text != text):
            return None
        self.index += 1
        return token

    def expect(self, kind: str) -> Token:
        token = self.accept(kind)
        if token is None:
            raise self.error(f"expected '{kind}', got '{self._got()}'")
        return token

    def expect_ident(self) -> Token:
        token = self.accept("ident")
        if token is None:
            raise self.error(f"expected identifier, got '{self._got()}'")
        return token

    def separated(self, item: Callable[[TokenStream], T], sep: str) -> list[T]:
        """``item sep item ... sep item``: one item or more."""
        found = [item(self)]
        while self.accept(sep):
            found.append(item(self))
        return found

    def items(self, item: Callable[[TokenStream], T], open_: str = "(", close: str = ")") -> list[T]:
        """``open_ item, ..., item close``, possibly empty."""
        self.expect(open_)
        found = [] if self.at(close) else self.separated(item, ",")
        self.expect(close)
        return found

    def blocks(self) -> Iterator[str]:
        """The upper-cased keyword of each ``(KEYWORD ...)`` block of a document.

        The caller reads the body after each keyword; the closing ')' is
        expected when the caller asks for the next block.
        """
        while not self.done():
            self.expect("(")
            yield self.expect_ident().text.upper()
            self.expect(")")

    def balanced(self) -> list[Token]:
        """The tokens up to the next unmatched ')', which is left unread."""
        start, depth = self.index, 0
        while depth or not self.at(")"):
            kind = self.next().kind
            depth += (kind == "(") - (kind == ")")
        return self.tokens[start : self.index]

    def done(self) -> bool:
        return self.index >= len(self.tokens)

    def error(self, message: str) -> ParseError:
        token = self.peek() or (self.tokens[-1] if self.tokens else None)
        span = token.span(self.file) if token else None
        return ParseError(message, span)

    def span_here(self) -> SourceSpan | None:
        token = self.peek()
        return token.span(self.file) if token else None

    def _got(self) -> str:
        token = self.peek()
        return token.text if token else "end of input"


def read_term(
    stream: TokenStream,
    variable: Callable[[TokenStream, Token], T | None],
    application: Callable[[TokenStream, Token, list[T]], T],
) -> T:
    """``name`` or ``name(term, ..., term)``.

    ``variable(stream, token)`` sees each name first and returns the variable
    it stands for, or None for a function symbol; the argument list is then
    read and handed with the name to ``application(stream, token, args)``.
    The reader takes one Python frame per nesting level, and no helper's, so
    ``MAX_NESTING`` levels stay well inside the recursion limit.
    """
    token = stream.expect_ident()
    term = variable(stream, token)
    if term is not None:
        return term
    args: list[T] = []
    if stream.accept("("):
        if not stream.at(")"):
            args.append(read_term(stream, variable, application))
            while stream.accept(","):
                args.append(read_term(stream, variable, application))
        stream.expect(")")
    return application(stream, token, args)


def read_conditions(stream: TokenStream, term: Callable[[TokenStream], T]) -> list[tuple[T, T]]:
    """``s1 == t1, ..., sn == tn``: the conditions of a rule or of FEASIBLE."""

    def condition(stream: TokenStream) -> tuple[T, T]:
        left = term(stream)
        stream.expect("==")
        return left, term(stream)

    return stream.separated(condition, ",")
