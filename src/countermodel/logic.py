"""Atoms, Horn clauses, and theories over the rewriting predicates."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .terms import (
    BUILTIN_PREDICATES,
    Signature,
    Term,
    Var,
    term_vars,
)

SORT_PREDICATE_PREFIX = "S_"


def sort_predicate(sort: str) -> str:
    """Name of the unary membership predicate for a sort."""
    return SORT_PREDICATE_PREFIX + sort


def sort_of_predicate(pred: str) -> str | None:
    """Inverse of :func:`sort_predicate`; None for the rewriting predicates."""
    if pred in BUILTIN_PREDICATES:
        return None
    if pred.startswith(SORT_PREDICATE_PREFIX):
        return pred[len(SORT_PREDICATE_PREFIX):]
    return None


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        if self.predicate in BUILTIN_PREDICATES and len(self.args) != 2:
            raise ValueError(f"predicate '{self.predicate}' is binary")
        if sort_of_predicate(self.predicate) is not None and len(self.args) != 1:
            raise ValueError("sort predicates are unary")

    def variables(self) -> tuple[Var, ...]:
        return term_vars(*self.args)

    def __str__(self) -> str:
        return self.format(format_term)

    def format(self, term_text: Callable[[Term], str]) -> str:
        """The atom as ``str`` spells it, with ``term_text`` spelling each argument."""
        if self.predicate in BUILTIN_PREDICATES:
            left, right = self.args
            return f"{term_text(left)} {self.predicate} {term_text(right)}"
        inner = ", ".join(term_text(a) for a in self.args)
        return f"{self.predicate}({inner})"


def format_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.symbol
    return f"{t.symbol}({', '.join(format_term(a) for a in t.args)})"


@dataclass(frozen=True)
class HornClause:
    """A universally quantified implication ``body => head``.

    Every variable occurring in ``body`` or ``head`` must be listed in
    ``variables``; an empty body makes the clause a fact.  The tag records
    the clause's provenance (Rf, T, C(f,i), Rp(i), Subterm, Root(i),
    SortMembership).
    """

    variables: tuple[Var, ...]
    body: tuple[Atom, ...]
    head: Atom
    tag: str = ""

    def __post_init__(self) -> None:
        quantified = set(self.variables)
        for atom in (*self.body, self.head):
            for v in atom.variables():
                if v not in quantified:
                    raise ValueError(f"variable '{v.name}' not in quantifier prefix")

    def __str__(self) -> str:
        return format_clause(self)


def format_clause(clause: HornClause) -> str:
    show_sorts = any(v.sort != clause.variables[0].sort for v in clause.variables) or any(
        sort_of_predicate(a.predicate) for a in (*clause.body, clause.head)
    )
    parts = []
    if clause.variables:
        names = ", ".join(
            f"{v.name}:{v.sort}" if show_sorts else v.name for v in clause.variables
        )
        parts.append(f"FORALL {names} .")
    if clause.body:
        parts.append(" /\\ ".join(str(a) for a in clause.body))
        parts.append("=>")
    parts.append(str(clause.head))
    return " ".join(parts)


@dataclass(frozen=True)
class Theory:
    """An ordered list of Horn clauses over a signature.

    The clause order is deterministic for a given input system; the
    ``relativized`` flag records whether sort-membership atoms have already
    been woven in (it does not participate in equality).
    """

    signature: Signature
    clauses: tuple[HornClause, ...]
    relativized: bool = field(default=False, compare=False)

    def predicates(self) -> tuple[str, ...]:
        """Predicates occurring in the clauses, in canonical builtin order first."""
        used = {a.predicate for c in self.clauses for a in (*c.body, c.head)}
        ordered = [p for p in BUILTIN_PREDICATES if p in used]
        ordered.extend(sorted(p for p in used if p not in BUILTIN_PREDICATES))
        return tuple(ordered)


def format_theory(theory: Theory) -> str:
    lines = []
    for clause in theory.clauses:
        tag = f"  [{clause.tag}]" if clause.tag else ""
        lines.append(f"{format_clause(clause)}{tag}")
    return "\n".join(lines)
