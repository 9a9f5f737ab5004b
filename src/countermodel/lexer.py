"""Shared tokenizer for the system, query, and structure file formats."""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, SourceSpan

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
    line, column = 1, 1
    nesting = 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            column += 1
            i += 1
            continue
        if ch == ";":  # line comment
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, column))
            column += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], line, column))
            column += j - i
            i = j
            continue
        for op in _OPERATORS:
            if text.startswith(op, i):
                nesting += (op == "(") - (op == ")")
                if nesting > MAX_NESTING:
                    raise ParseError(
                        f"parentheses nested deeper than {MAX_NESTING} levels",
                        SourceSpan(file, line, column, line, column + 1),
                    )
                tokens.append(Token(op, op, line, column))
                column += len(op)
                i += len(op)
                break
        else:
            raise ParseError(
                f"unexpected character {ch!r}",
                SourceSpan(file, line, column, line, column + 1),
            )
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

    def expect(self, kind: str) -> Token:
        token = self.peek()
        if token is None or token.kind != kind:
            got = token.text if token else "end of input"
            raise self.error(f"expected '{kind}', got '{got}'")
        self.index += 1
        return token

    def expect_ident(self, text: str | None = None) -> Token:
        token = self.peek()
        if token is None or token.kind != "ident" or (text is not None and token.text != text):
            wanted = text or "identifier"
            got = token.text if token else "end of input"
            raise self.error(f"expected {wanted}, got '{got}'")
        self.index += 1
        return token

    def done(self) -> bool:
        return self.index >= len(self.tokens)

    def error(self, message: str) -> ParseError:
        token = self.peek() or (self.tokens[-1] if self.tokens else None)
        span = token.span(self.file) if token else None
        return ParseError(message, span)

    def span_here(self) -> SourceSpan | None:
        token = self.peek()
        return token.span(self.file) if token else None
