"""Existential positive property queries and their negated obligations.

A query is a disjunction of conjunctions of atoms under a block of sorted
existential quantifiers.  Templates build the standard property shapes
(reachability, feasibility, joinability, reducibility, convertibility,
cycling and looping of a term or of the whole system).  Negating a query
yields one obligation per disjunct, a headless Horn clause ``disjunct =>
false``: the conjunction must have no satisfying valuation in the
structure under scrutiny.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import QueryError
from .logic import Atom, HornClause, Theory
from .terms import (
    ARROW,
    BUILTIN_PREDICATES,
    MANY_STEPS,
    SUBTERM,
    Signature,
    Term,
    Var,
    is_ground,
    term_sort,
    term_vars,
)

REACH = "Reach"
FEAS = "Feas"
JOINABLE = "Join"
REDUCIBLE = "Red"
CONVERTIBLE = "Conv"
CYCLING_TERM = "CyclTerm"
CYCLING_SYSTEM = "CyclSys"
LOOPING_TERM = "LoopTerm"
LOOPING_SYSTEM = "LoopSys"


@dataclass(frozen=True)
class Query:
    """Existential closure of a positive boolean combination in DNF."""

    variables: tuple[Var, ...]
    disjuncts: tuple[tuple[Atom, ...], ...]

    def __post_init__(self) -> None:
        if not self.disjuncts or any(not d for d in self.disjuncts):
            raise QueryError("query needs at least one disjunct, each with at least one atom")
        bound = set(self.variables)
        for disjunct in self.disjuncts:
            for atom in disjunct:
                for v in atom.variables():
                    if v not in bound:
                        raise QueryError(f"variable '{v.name}' is not existentially bound")

    def predicates(self) -> frozenset[str]:
        return frozenset(a.predicate for d in self.disjuncts for a in d)


def negate_to_obligations(query: Query) -> tuple[HornClause, ...]:
    """One obligation per disjunct of the query: the headless clause ``disjunct => false``.

    Each obligation universally quantifies the existential variables that
    occur in its disjunct; sorted variables keep their sorts, which the
    checker turns into carrier constraints.
    """
    obligations = []
    for disjunct in query.disjuncts:
        occurring = {v for atom in disjunct for v in atom.variables()}
        variables = tuple(v for v in query.variables if v in occurring)
        obligations.append(HornClause(variables, disjunct, None))
    return tuple(obligations)


def required_predicates(theory: Theory, obligations: tuple[HornClause, ...]) -> tuple[str, ...]:
    """The rewriting predicates a structure must interpret, in canonical order."""
    used = set(theory.predicates())
    used.update(a.predicate for ob in obligations for a in ob.body)
    return tuple(p for p in BUILTIN_PREDICATES if p in used)


def template(sig: Signature, kind: str, *args) -> Query:
    """Build one of the standard property queries.

    Ground terms are required wherever the property shape demands them;
    feasibility takes a list of condition pairs whose variables become the
    existential prefix.
    """
    if kind == REACH:
        s, t = _ground_pair(kind, args)
        return Query((), ((Atom(MANY_STEPS, (s, t)),),))
    if kind == FEAS:
        conditions = args[0] if len(args) == 1 and isinstance(args[0], (list, tuple)) else args
        if not conditions:
            raise QueryError("feasibility needs at least one condition")
        atoms = tuple(Atom(MANY_STEPS, (s, t)) for s, t in conditions)
        return Query(term_vars(*(t for pair in conditions for t in pair)), (atoms,))
    if kind == JOINABLE:
        s, t = _ground_pair(kind, args)
        x = Var("x", _join_sort(sig, s, t))
        return Query((x,), ((Atom(MANY_STEPS, (s, x)), Atom(MANY_STEPS, (t, x))),))
    if kind == REDUCIBLE:
        (t,) = _ground_terms(kind, args, 1)
        x = Var("x", term_sort(sig, t))
        return Query((x,), ((Atom(ARROW, (t, x)),),))
    if kind == CONVERTIBLE:
        s, t = _ground_pair(kind, args)
        return Query((), ((Atom(ARROW, (s, t)),), (Atom(ARROW, (t, s)),)))
    if kind == CYCLING_TERM:
        (t,) = _ground_terms(kind, args, 1)
        x = Var("x", term_sort(sig, t))
        return Query((x,), ((Atom(ARROW, (t, x)), Atom(MANY_STEPS, (x, t))),))
    if kind == CYCLING_SYSTEM:
        sort = _system_sort(sig)
        x, y = Var("x", sort), Var("y", sort)
        return Query((x, y), ((Atom(ARROW, (x, y)), Atom(MANY_STEPS, (y, x))),))
    if kind == LOOPING_TERM:
        (t,) = _ground_terms(kind, args, 1)
        sort = term_sort(sig, t)
        x, y = Var("x", sort), Var("y", sort)
        return Query(
            (x, y),
            ((Atom(ARROW, (t, x)), Atom(MANY_STEPS, (x, y)), Atom(SUBTERM, (y, t))),),
        )
    if kind == LOOPING_SYSTEM:
        sort = _system_sort(sig)
        x, y, z = Var("x", sort), Var("y", sort), Var("z", sort)
        return Query(
            (x, y, z),
            ((Atom(ARROW, (x, y)), Atom(MANY_STEPS, (y, z)), Atom(SUBTERM, (z, x))),),
        )
    raise QueryError(f"unknown query template '{kind}'")


def _ground_terms(kind: str, args: tuple, count: int) -> tuple[Term, ...]:
    if len(args) != count:
        raise QueryError(f"template {kind} takes {count} term(s)")
    for t in args:
        if not is_ground(t):
            raise QueryError(f"template {kind} requires ground terms")
    return tuple(args)


def _ground_pair(kind: str, args: tuple) -> tuple[Term, Term]:
    s, t = _ground_terms(kind, args, 2)
    return s, t


def _join_sort(sig: Signature, s: Term, t: Term) -> str:
    common = sig.lub(term_sort(sig, s), term_sort(sig, t))
    if common is None:
        raise QueryError("joinability arguments have no common supersort")
    return common


def _system_sort(sig: Signature) -> str:
    tops = sig.maximal_sorts(sig.sorts)
    if len(tops) == 1:
        return tops[0]
    raise QueryError(
        "system-wide cycling/looping templates need a unique top sort; "
        "state the property with explicit sorted variables instead"
    )
