"""Character-by-character tokenizer, kept as the reference for ``lexer.tokenize``.

This is the scanner that the compiled master pattern of ``lexer.tokenize``
replaced, kept verbatim.  Its token lists and error texts are the contract
the pattern must meet, with one intended difference: this scanner makes an
``int`` token of any ``str.isdigit()`` run, so a digit that is not decimal,
such as ``'²'``, became an ``int`` that ``int()`` then rejects.
"""
from __future__ import annotations

from countermodel.errors import ParseError, SourceSpan
from countermodel.lexer import MAX_NESTING, Token

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
