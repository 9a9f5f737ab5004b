"""Atoms, Horn clauses, and theories over the rewriting predicates."""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Iterable, Iterator, NamedTuple

from .terms import (
    BUILTIN_PREDICATES,
    DEFAULT_SORT,
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


class _AtomFields(NamedTuple):
    predicate: str
    args: tuple[Term, ...]


class Atom(_AtomFields):
    """A predicate applied to argument terms, stored as the tuple ``(predicate, args)``.

    A tuple, so that hashing and comparing an atom take no Python frame of
    its own: the oracle keys a map by thousands per saturation.
    ``Atom(...)`` checks the arity of a rewriting or sort predicate;
    :meth:`binary` checks its predicate once for a whole stream of pairs
    and builds each atom with no Python frame either.
    """

    __slots__ = ()

    def __new__(cls, predicate: str, args: tuple[Term, ...]) -> Atom:
        if predicate in BUILTIN_PREDICATES and len(args) != 2:
            raise ValueError(f"predicate '{predicate}' is binary")
        if sort_of_predicate(predicate) is not None and len(args) != 1:
            raise ValueError("sort predicates are unary")
        return tuple.__new__(cls, (predicate, args))

    @classmethod
    def binary(
        cls, predicate: str, lefts: Iterable[Term], rights: Iterable[Term]
    ) -> Iterator[Atom]:
        """The atoms ``predicate(l, r)`` of a rewriting predicate, ``lefts`` zipped with ``rights``.

        Zipping gives every atom exactly two arguments, so the arity is
        checked once, not per atom, and the atoms are built with no Python
        call each.
        """
        if predicate not in BUILTIN_PREDICATES:
            raise ValueError(f"predicate '{predicate}' is not a rewriting predicate")
        return map(tuple.__new__, repeat(cls), zip(repeat(predicate), zip(lefts, rights)))

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
    """``f(a, x)``, spelled from a stack so that a derived term of any depth can be printed."""
    out, todo = [], [t]
    while todo:
        s = todo.pop()
        if isinstance(s, str):
            out.append(s)
        elif isinstance(s, Var):
            out.append(s.name)
        else:
            out.append(s.symbol)
            if s.args:  # pushed in reverse: "(", first argument, ", ", second, ..., ")"
                todo.append(")")
                for a in s.args[:0:-1]:
                    todo += (a, ", ")
                todo += (s.args[0], "(")
    return "".join(out)


@dataclass(frozen=True)
class HornClause:
    """A universally quantified implication ``body => head``.

    Every variable occurring in ``body`` or ``head`` must be listed in
    ``variables``; an empty body makes the clause a fact.  A clause with no
    head (``None``) is an obligation, ``body => false``: the negation of one
    disjunct of a query.  The tag records the clause's provenance (Rf, T,
    C(f,i), Rp(i), Subterm, Root(i), SortMembership).
    """

    variables: tuple[Var, ...]
    body: tuple[Atom, ...]
    head: Atom | None
    tag: str = ""

    def __post_init__(self) -> None:
        quantified = set(self.variables)
        for atom in self.body if self.head is None else (*self.body, self.head):
            for v in atom.variables():
                if v not in quantified:
                    raise ValueError(f"variable '{v.name}' not in quantifier prefix")

    def __str__(self) -> str:
        return format_clause(self)


def format_clause(clause: HornClause) -> str:
    """``FORALL x, y . a /\\ b => c``, or ``FORALL x, u:User . NOT (a /\\ b)`` without a head.

    A headless clause names each sort but the default one; one with a head names all or none.
    """
    body = " /\\ ".join(map(str, clause.body))
    if clause.head is None:
        names = [v.name if v.sort == DEFAULT_SORT else f"{v.name}:{v.sort}" for v in clause.variables]
        parts = [f"NOT ({body})"]
    else:
        show_sorts = any(v.sort != clause.variables[0].sort for v in clause.variables) or any(
            sort_of_predicate(a.predicate) for a in (*clause.body, clause.head)
        )
        names = [f"{v.name}:{v.sort}" if show_sorts else v.name for v in clause.variables]
        parts = [body, "=>", str(clause.head)] if clause.body else [str(clause.head)]
    prefix = f"FORALL {', '.join(names)} . " if names else ""
    return prefix + " ".join(parts)


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


def format_theory(theory: Theory) -> str:
    lines = []
    for clause in theory.clauses:
        tag = f"  [{clause.tag}]" if clause.tag else ""
        lines.append(f"{format_clause(clause)}{tag}")
    return "\n".join(lines)
