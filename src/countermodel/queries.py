"""Existential positive property queries and their negated obligations.

A query is a disjunction of conjunctions of atoms under a block of sorted
existential quantifiers.  Templates build the standard property shapes
(reachability, feasibility, joinability, reducibility, convertibility,
cycling and looping of a term or of the whole system); ``TEMPLATES`` keys
them by the names a query writes, and a system form is its term form at a
fresh variable of the unique top sort.  Negating a query
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

# The template names a query writes, each with the numbers of terms it takes;
# FEASIBLE takes condition pairs instead.
TEMPLATES = {
    "REACHABLE": (2,),
    "FEASIBLE": (),
    "JOINABLE": (2,),
    "REDUCIBLE": (1,),
    "CONVERTIBLE": (2,),
    "CYCLING": (0, 1),
    "LOOPING": (0, 1),
}


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
    clauses = (*theory.clauses, *obligations)
    used = {a.predicate for c in clauses for a in (*c.body, c.head) if a is not None}
    return tuple(p for p in BUILTIN_PREDICATES if p in used)


def template(sig: Signature, name: str, *args) -> Query:
    """Build the standard property query ``name``, a key of ``TEMPLATES``.

    Every template but FEASIBLE takes ground terms; feasibility takes a list
    of condition pairs whose variables become the existential prefix.
    """
    counts = TEMPLATES.get(name)
    if counts is None:
        raise QueryError(f"unknown query template '{name}'")
    if name == "FEASIBLE":
        conditions = args[0] if len(args) == 1 and isinstance(args[0], (list, tuple)) else args
        if not conditions:
            raise QueryError("FEASIBLE needs at least one condition")
        atoms = tuple(Atom(MANY_STEPS, (s, t)) for s, t in conditions)
        return Query(term_vars(*(t for pair in conditions for t in pair)), (atoms,))
    if len(args) not in counts:
        raise QueryError(f"{name} takes {' or '.join(map(str, counts))} term(s)")
    if not all(map(is_ground, args)):
        raise QueryError(f"{name} requires ground terms")
    if name == "REACHABLE":
        return Query((), ((Atom(MANY_STEPS, args),),))
    if name == "CONVERTIBLE":
        s, t = args
        return Query((), ((Atom(ARROW, (s, t)),), (Atom(ARROW, (t, s)),)))
    if name == "JOINABLE":
        s, t = args
        x = Var("x", _join_sort(sig, s, t))
        return Query((x,), ((Atom(MANY_STEPS, (s, x)), Atom(MANY_STEPS, (t, x))),))
    if name == "REDUCIBLE":
        x = Var("x", term_sort(sig, args[0]))
        return Query((x,), ((Atom(ARROW, (args[0], x)),),))
    # CYCLING and LOOPING: the term form at t, or at a fresh x of the unique
    # top sort, where the term form's own variables move up one name.
    if args:
        (t,) = args
        sort, names = term_sort(sig, t), ("x", "y")
    else:
        sort, names = _system_sort(sig), ("y", "z")
        t = Var("x", sort)
    u, v = (Var(n, sort) for n in names)
    if name == "CYCLING":
        atoms = (Atom(ARROW, (t, u)), Atom(MANY_STEPS, (u, t)))
    else:
        atoms = (Atom(ARROW, (t, u)), Atom(MANY_STEPS, (u, v)), Atom(SUBTERM, (v, t)))
    return Query(term_vars(*(atom.args[0] for atom in atoms)), (atoms,))


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
