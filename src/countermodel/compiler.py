"""Compilation of rewrite systems into Horn theories.

A system compiles to, in this fixed order: the reflexivity clause (Rf) for
``->*``, the transitivity clause (T) relating ``->`` and ``->*``, one
congruence clause (C)(f,i) per function symbol and argument position in
declaration order, and one rule clause (Rp)(i) per rewrite rule in rule
order.  Rule conditions always compile to ``->*`` premises; joinability
conditions are first desugared into two reachability premises sharing a
fresh variable by :func:`oriented_conditions`, the one desugaring that the
bounded saturation of the oracle uses too.

The theory is only half of what a structure is checked against: the
negated query contributes obligations, which are headless clauses
``body => false`` and go through the same checks as the clauses here.

The subterm theory and the root-step theory are generated separately and
appended by callers that need them.  Sort relativization turns sorted
quantifiers into explicit membership atoms and adds the membership clauses
induced by subsort pairs and function ranks.
"""
from __future__ import annotations

import itertools

from .errors import EmptySortError
from .logic import Atom, HornClause, Theory, sort_predicate
from .terms import (
    ARROW,
    CTRS,
    JOIN,
    MANY_STEPS,
    ROOT_STEP,
    SUBTERM,
    App,
    ConditionalRule,
    Signature,
    Term,
    Var,
    term_sort,
    term_vars,
)


def compile_ctrs(ctrs: CTRS) -> Theory:
    """Compile a CTRS into its Horn theory over ``->`` and ``->*``."""
    sig = ctrs.signature
    clauses = _closure_clauses(rewrite_closure_sorts(ctrs), ARROW, MANY_STEPS, "Rf", "T")
    clauses.extend(congruence_clauses(sig))
    for index, rule in enumerate(ctrs.rules, start=1):
        clauses.append(rule_clause(sig, rule, ARROW, tag=f"Rp({index})"))
    _check_quantified_sorts(sig, clauses)
    return Theory(sig, tuple(clauses))


def _closure_clauses(
    sorts: tuple[str, ...], step: str, closure: str, reflexive_tag: str, transitive_tag: str
) -> list[HornClause]:
    """``x closure x`` for every sort, then ``x step y /\\ y closure z => x closure z``."""
    clauses = []
    for sort in sorts:
        x = Var("x", sort)
        clauses.append(HornClause((x,), (), Atom(closure, (x, x)), tag=reflexive_tag))
    for sort in sorts:
        x, y, z = Var("x", sort), Var("y", sort), Var("z", sort)
        body = (Atom(step, (x, y)), Atom(closure, (y, z)))
        clauses.append(HornClause((x, y, z), body, Atom(closure, (x, z)), tag=transitive_tag))
    return clauses


def congruence_clauses(sig: Signature) -> list[HornClause]:
    clauses = []
    for name, (arg_sorts, _result) in sig.functions.items():
        arity = len(arg_sorts)
        xs = _parameters(arg_sorts)
        for i in range(arity):
            yi = Var(f"y{i + 1}" if arity > 1 else "y", arg_sorts[i])
            rhs_args = tuple(yi if j == i else xs[j] for j in range(arity))
            clauses.append(
                HornClause(
                    (*xs, yi),
                    (Atom(ARROW, (xs[i], yi)),),
                    Atom(ARROW, (App(name, xs), App(name, rhs_args))),
                    tag=f"C({name},{i + 1})",
                )
            )
    return clauses


def _parameters(arg_sorts: tuple[str, ...]) -> tuple[Var, ...]:
    """Parameter variables of a function symbol: ``x`` if unary, else ``x1 .. xn``."""
    arity = len(arg_sorts)
    return tuple(Var(f"x{j + 1}" if arity > 1 else "x", s) for j, s in enumerate(arg_sorts))


def rule_clause(sig: Signature, rule: ConditionalRule, head_predicate: str, tag: str) -> HornClause:
    """The clause ``s1 ->* t1 /\\ ... /\\ sn ->* tn => lhs -> rhs`` for one rule."""
    body = tuple(Atom(MANY_STEPS, pair) for pair in oriented_conditions(sig, rule))
    head = Atom(head_predicate, (rule.lhs, rule.rhs))
    # Quantify in rule-reading order: lhs, rhs, conditions, then fresh join variables.
    variables = term_vars(*rule.terms(), *(t for atom in body for t in atom.args))
    return HornClause(variables, body, head, tag=tag)


def oriented_conditions(sig: Signature, rule: ConditionalRule) -> tuple[tuple[Term, Term], ...]:
    """The rule's conditions as reachability pairs ``s ->* t``.

    A joinability condition ``s == t`` becomes ``s ->* w`` and ``t ->* w``
    with a fresh variable ``w`` at the least upper bound of both sides'
    sorts (EmptySortError when there is no unique one); fresh variables are
    named w1, w2, ... deterministically, skipping names already used by the
    rule.
    """
    if rule.condition_semantics != JOIN:
        return rule.conditions
    taken = {v.name for v in rule.variables()}
    fresh = (f"w{i}" for i in itertools.count(1) if f"w{i}" not in taken)
    pairs: list[tuple[Term, Term]] = []
    for s, t in rule.conditions:
        w = Var(next(fresh), _common_sort(sig, s, t))
        pairs += [(s, w), (t, w)]
    return tuple(pairs)


def _common_sort(sig: Signature, s: Term, t: Term) -> str:
    a, b = term_sort(sig, s), term_sort(sig, t)
    common = sig.lub(a, b)
    if common is None:
        raise EmptySortError(f"joinability condition relates unrelated sorts '{a}' and '{b}'")
    return common


def rewrite_closure_sorts(ctrs: CTRS) -> tuple[str, ...]:
    """Sorts at which the reflexivity and transitivity clauses quantify.

    Unsorted systems use the single sort.  Sorted systems use the maximal
    sorts of every subsort component containing a rule's left-hand-side
    sort; with no rules, all maximal sorts.
    """
    sig = ctrs.signature
    if not ctrs.rules:
        return sig.maximal_sorts(sig.sorts)
    return sig.maximal_sorts(term_sort(sig, rule.lhs) for rule in ctrs.rules)


def subterm_theory(sig: Signature) -> tuple[HornClause, ...]:
    """Reflexivity, transitivity, and per-argument projections for ``|>``."""
    sorts = sig.maximal_sorts(sig.sorts)
    clauses = _closure_clauses(sorts, SUBTERM, SUBTERM, "Subterm", "Subterm")
    for name, (arg_sorts, _result) in sig.functions.items():
        xs = _parameters(arg_sorts)
        for i in range(len(arg_sorts)):
            clauses.append(
                HornClause(xs, (), Atom(SUBTERM, (App(name, xs), xs[i])), tag="Subterm")
            )
    return tuple(clauses)


def root_theory(ctrs: CTRS) -> tuple[HornClause, ...]:
    """Rule clauses concluding ``->^`` and nothing else.

    Root steps are not propagated below the root, so there is no
    reflexivity, transitivity, or congruence for ``->^``; conditions are
    still evaluated with ``->*``.
    """
    return tuple(
        rule_clause(ctrs.signature, rule, ROOT_STEP, tag=f"Root({index})")
        for index, rule in enumerate(ctrs.rules, start=1)
    )


def relativize_sorts(theory: Theory) -> Theory:
    """Add sort-membership atoms to each clause of a many-sorted theory.

    Single-sort theories are returned unchanged.  Each clause quantifying
    ``x:s`` gains the body atom ``S_s(x)``; membership clauses for subsort
    pairs and function ranks are appended with tag SortMembership.
    """
    sig = theory.signature
    if sig.single_sorted or theory.relativized:
        return theory
    clauses: list[HornClause] = []
    for clause in theory.clauses:
        sort_atoms = tuple(Atom(sort_predicate(v.sort), (v,)) for v in clause.variables)
        clauses.append(
            HornClause(clause.variables, sort_atoms + clause.body, clause.head, tag=clause.tag)
        )
    for sub, sup in sig.subsort_pairs:
        x = Var("x", sub)
        clauses.append(
            HornClause(
                (x,),
                (Atom(sort_predicate(sub), (x,)),),
                Atom(sort_predicate(sup), (x,)),
                tag="SortMembership",
            )
        )
    for name, (arg_sorts, result) in sig.functions.items():
        xs = _parameters(arg_sorts)
        body = tuple(Atom(sort_predicate(s), (x,)) for x, s in zip(xs, arg_sorts))
        clauses.append(
            HornClause(
                xs,
                body,
                Atom(sort_predicate(result), (App(name, xs),)),
                tag="SortMembership",
            )
        )
    return Theory(sig, tuple(clauses), relativized=True)


def _check_quantified_sorts(sig: Signature, clauses: list[HornClause]) -> None:
    inhabited = sig.inhabited_sorts()
    for clause in clauses:
        for v in clause.variables:
            if v.sort not in inhabited:
                raise EmptySortError(
                    f"sort '{v.sort}' has no ground terms; "
                    "the signature must contain at least a constant symbol for it"
                )
