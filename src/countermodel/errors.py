"""Exception hierarchy and source spans for error reporting."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SourceSpan:
    """Location of a construct in an input file (1-based lines and columns)."""

    file: str | None
    line: int
    column: int
    end_line: int
    end_column: int

    def __str__(self) -> str:
        name = self.file or "<input>"
        if (self.line, self.column) == (self.end_line, self.end_column):
            return f"{name}:{self.line}:{self.column}"
        return f"{name}:{self.line}:{self.column}-{self.end_line}:{self.end_column}"


class CountermodelError(Exception):
    """Base class for every error raised by this package."""


class OptionError(CountermodelError, ValueError):
    """An option or bound is unreadable or out of its range (a search budget, a size bound)."""


class SignatureError(CountermodelError):
    """A signature is internally inconsistent (duplicate sorts, subsort cycles, bad ranks)."""


class TermError(CountermodelError):
    """A term violates the arity or sort discipline of its signature."""


class RuleError(CountermodelError):
    """A rewrite rule is malformed (e.g. variable left-hand side)."""


class QueryError(CountermodelError):
    """A property query is malformed (non-ground argument, unbound variable, ...)."""


class EmptySortError(CountermodelError):
    """A quantified sort has no ground terms; the theory would be vacuous.

    The signature must contain at least a constant symbol for each sort
    that clauses quantify over.
    """


class ModelError(CountermodelError):
    """A structure is unusable: missing interpretation, open table, bad carrier."""


class ParseError(CountermodelError):
    """Syntax or validation error in an input document, with a source span."""

    def __init__(self, message: str, span: SourceSpan | None = None):
        self.message = message
        self.span = span
        super().__init__(f"{span}: {message}" if span else message)


class UnsupportedFragmentError(ParseError):
    """The query lies outside the existential positive fragment."""
