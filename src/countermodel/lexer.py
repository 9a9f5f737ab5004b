"""The one reader shared by the system, query and structure file formats.

``tokenize`` scans a text with one compiled pattern, one match per token.
``TokenStream`` is the cursor the three parsers read from: besides single
tokens it reads the shapes the formats share, ``item SEP item ...``
(``separated``), a bracketed comma list (``items``), the ``(KEYWORD ...)``
blocks of a document (``blocks``) and the raw tokens of a balanced block
(``balanced``).
``read_term`` reads ``name`` and ``name(term, ..., term)``; each format says
through two callbacks what a name stands for.  ``read_condition`` reads one
``s == t``, of a rule or of FEASIBLE.
"""
from __future__ import annotations

import re
from typing import Callable, Iterator, NamedTuple, TypeVar

from .errors import ParseError, SourceSpan

T = TypeVar("T")

# Deepest parenthesis nesting the parsers accept.  The parsers and the term
# walkers downstream (printing, evaluation, lowering) recurse once or a few
# times per level, so the cap keeps every input well inside Python's
# recursion limit: deeper input is an input error, never a crash.
MAX_NESTING = 256

# One alternative per token class, each after the blanks that lead it, so
# that every token is one match; the classes start with distinct characters,
# the commonest first.  The operators are the longer ones first, then one
# class of single characters.  Line ends are their own alternative, so lines
# and columns stay exact, and ``skip`` is a comment or the end of the text,
# which takes the trailing blanks.  Every position starts a match and
# ``other`` takes no blank, so the blanks never give a character back.
# ``\w`` is exactly ``str.isalnum()`` plus '_', and ``\d`` the decimal digits
# that ``int()`` reads.  ``[^\W\d]`` also admits a digit that is not decimal,
# such as '²', so ``tokenize`` checks that an identifier starts with a letter
# or '_'.
_TOKEN = re.compile(
    r"[ \t\r]*(?:(?P<ident>[^\W\d][\w']*)|(?P<op>->[*^]?|\|>|\\/|/\\|==|=>|<=|>=|[<>=|()\[\]{},:.+\-*~!])"
    r"|(?P<newline>\n)|(?P<int>\d+)|(?P<skip>;[^\n]*|\Z)|(?P<other>[^ \t\r]))"
)


class Token(NamedTuple):
    kind: str  # "ident", "int", or the operator text
    text: str
    line: int
    column: int

    def span(self, file: str | None = None) -> SourceSpan:
        return SourceSpan(file, self.line, self.column, self.line, self.column + len(self.text))


# Builds a Token without the Python frame of its generated ``__new__``.
_new_token = tuple.__new__


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
        value = match[kind]
        column = match.start(kind) - line_start + 1
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
        tokens.append(_new_token(Token, (kind, value, line, column)))
    return tokens


class TokenStream:
    """Cursor over a token list with spanned error reporting."""

    def __init__(self, tokens: list[Token], file: str | None = None):
        self.tokens = tokens
        self.file = file
        self.index = 0

    def peek(self) -> Token | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def at(self, kind: str, offset: int = 0) -> bool:
        index = self.index + offset
        return index < len(self.tokens) and self.tokens[index].kind == kind

    def at_ident(self, text: str) -> bool:
        token = self.peek()
        return token is not None and token.kind == "ident" and token.text == text

    def next(self) -> Token:
        index = self.index
        if index >= len(self.tokens):
            raise self.error("unexpected end of input")
        self.index = index + 1
        return self.tokens[index]

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        """The next token when it has ``kind`` (and ``text``, if given), consumed."""
        index = self.index
        if index < len(self.tokens):
            token = self.tokens[index]
            if token.kind == kind and (text is None or token.text == text):
                self.index = index + 1
                return token
        return None

    def expect(self, kind: str) -> Token:
        index = self.index
        if index < len(self.tokens) and self.tokens[index].kind == kind:
            self.index = index + 1
            return self.tokens[index]
        raise self.error(f"expected '{kind}', got '{self._got()}'")

    def expect_ident(self) -> Token:
        index = self.index
        if index < len(self.tokens) and self.tokens[index].kind == "ident":
            self.index = index + 1
            return self.tokens[index]
        raise self.error(f"expected identifier, got '{self._got()}'")

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
        tokens, start, depth = self.tokens, self.index, 0
        for index in range(start, len(tokens)):
            kind = tokens[index].kind
            if kind == ")" and not depth:
                self.index = index
                return tokens[start:index]
            depth += (kind == "(") - (kind == ")")
        self.index = len(tokens)
        raise self.error("unexpected end of input")

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


def read_condition(stream: TokenStream, term: Callable[[TokenStream], T]) -> tuple[T, T]:
    """``s == t``: one condition of a rule or of FEASIBLE."""
    left = term(stream)
    stream.expect("==")
    return left, term(stream)
