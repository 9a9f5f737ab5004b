"""Naive bounded saturation, kept as the reference for ``oracle.saturate``.

This is the fixpoint loop that ``oracle.saturate`` replaced: every round
re-runs every rule instance, plugs every one-hole context around every
``->`` atom and joins all atoms for transitivity, lowering an atom's depth
whenever a shallower derivation turns up, until nothing changes.  Its
atom->depth maps are the contract the semi-naive evaluation must meet.
The only change from the replaced code is the size check of ground rules
in ``_substitution_candidates``.
"""
from __future__ import annotations

import itertools
from typing import Iterator

from countermodel.compiler import oriented_conditions
from countermodel.logic import Atom, format_term
from countermodel.oracle import AtomSet
from countermodel.terms import (
    ARROW,
    CTRS,
    MANY_STEPS,
    ROOT_STEP,
    SUBTERM,
    App,
    ConditionalRule,
    Signature,
    Term,
    Var,
    apply_substitution,
    ground_terms,
    subterms,
    term_size,
    term_sort,
)


def saturate(ctrs: CTRS, size_bound: int, depth_bound: int) -> AtomSet:
    """Fixpoint of the conditional-rewriting inference rules within bounds."""
    if size_bound < 1 or depth_bound < 1:
        raise ValueError("size and depth bounds must be >= 1")
    sig = ctrs.signature
    terms: set[Term] = set()
    for sort in sig.sorts:
        terms.update(ground_terms(sig, sort, size_bound))
    atoms: dict[Atom, int] = {}

    def add(atom: Atom, depth: int) -> bool:
        if depth > depth_bound:
            return False
        best = atoms.get(atom)
        if best is None or depth < best:
            atoms[atom] = depth
            return True
        return False

    # Reflexivity of ->* and the subterm relation are depth-1 facts.
    for t in terms:
        add(Atom(MANY_STEPS, (t, t)), 1)
        for s in subterms(t):
            add(Atom(SUBTERM, (t, s)), 1)

    # Joinability conditions read as reachability into a fresh shared variable.
    rules = [ConditionalRule(r.lhs, r.rhs, oriented_conditions(sig, r)) for r in ctrs.rules]
    changed = True
    while changed:
        changed = False
        # (Rp): rule instances whose instantiated conditions are derived.
        for rule in rules:
            for subst in _substitution_candidates(sig, rule, terms, size_bound):
                condition_depths = []
                feasible = True
                for s, t in rule.conditions:
                    atom = Atom(
                        MANY_STEPS,
                        (apply_substitution(subst, s), apply_substitution(subst, t)),
                    )
                    depth = atoms.get(atom)
                    if depth is None:
                        feasible = False
                        break
                    condition_depths.append(depth)
                if not feasible:
                    continue
                depth = 1 + max(condition_depths, default=0)
                lhs = apply_substitution(subst, rule.lhs)
                rhs = apply_substitution(subst, rule.rhs)
                changed |= add(Atom(ARROW, (lhs, rhs)), depth)
                changed |= add(Atom(ROOT_STEP, (lhs, rhs)), depth)
        # (C): one-step rewriting closed under contexts one argument at a time;
        # both the redex side and the contractum side must fit the size bound.
        for atom, depth in list(atoms.items()):
            if atom.predicate != ARROW:
                continue
            s, t = atom.args
            for context, hole in _one_hole_contexts(sig, terms, s, size_bound):
                name, index = hole
                if not sig.le(term_sort(sig, t), sig.functions[name][0][index]):
                    continue
                plugged = _plug(hole, context, s, t)
                if term_size(plugged) > size_bound:
                    continue
                changed |= add(Atom(ARROW, (context, plugged)), depth + 1)
        # (T): s ->* u from s -> t and t ->* u.
        steps = [(a.args, d) for a, d in atoms.items() if a.predicate == ARROW]
        many = [(a.args, d) for a, d in atoms.items() if a.predicate == MANY_STEPS]
        by_source: dict[Term, list[tuple[Term, int]]] = {}
        for (t, u), d in many:
            by_source.setdefault(t, []).append((u, d))
        for (s, t), d1 in steps:
            for u, d2 in by_source.get(t, ()):
                changed |= add(Atom(MANY_STEPS, (s, u)), 1 + max(d1, d2))
    return AtomSet(dict(atoms), size_bound, depth_bound)


def _substitution_candidates(
    sig: Signature, rule: ConditionalRule, terms: set[Term], size_bound: int
) -> Iterator[dict[Var, Term]]:
    """Ground substitutions under which every term of the rule fits the bound.

    Variables are assigned depth-first; a partial assignment is abandoned as
    soon as some instantiated template cannot stay within the size bound
    even with every remaining variable mapped to a size-1 term.
    """
    variables = rule.variables()
    templates = rule.terms()
    occurrences: list[dict[Var, int]] = []
    bases: list[int] = []
    for template in templates:
        counts: dict[Var, int] = {}
        _count(template, counts)
        occurrences.append(counts)
        bases.append(term_size(template))
    pools: dict[Var, list[Term]] = {}
    for v in variables:
        pool = [t for t in terms if sig.le(term_sort(sig, t), v.sort)]
        pool.sort(key=lambda t: (term_size(t), format_term(t)))
        pools[v] = pool
    if any(b > size_bound for b in bases) or any(not pools[v] for v in variables):
        return

    extra = [0] * len(templates)  # accumulated size beyond the template's base

    def feasible() -> bool:
        return all(b + e <= size_bound for b, e in zip(bases, extra))

    assignment: dict[Var, Term] = {}

    def assign(index: int) -> Iterator[dict[Var, Term]]:
        if index == len(variables):
            yield dict(assignment)
            return
        v = variables[index]
        for candidate in pools[v]:
            growth = term_size(candidate) - 1
            for i, counts in enumerate(occurrences):
                extra[i] += counts.get(v, 0) * growth
            ok = feasible()
            if ok:
                assignment[v] = candidate
                yield from assign(index + 1)
                del assignment[v]
            for i, counts in enumerate(occurrences):
                extra[i] -= counts.get(v, 0) * growth
            if not ok:
                # pool is sorted by size, so every later candidate also overflows
                break
    yield from assign(0)


def _count(term: Term, counts: dict[Var, int]) -> None:
    if isinstance(term, Var):
        counts[term] = counts.get(term, 0) + 1
    else:
        for a in term.args:
            _count(a, counts)


def _one_hole_contexts(
    sig: Signature, terms: set[Term], s: Term, size_bound: int
) -> Iterator[tuple[Term, tuple[str, int]]]:
    """Terms of the form ``f(..., s, ...)`` within the size bound.

    Yields the context applied to ``s`` together with the symbol and
    argument index of the hole, so the rewritten side can be rebuilt.
    """
    s_size = term_size(s)
    s_sort = term_sort(sig, s)
    for name, (arg_sorts, _result) in sig.functions.items():
        arity = len(arg_sorts)
        if arity == 0:
            continue
        for i in range(arity):
            if not sig.le(s_sort, arg_sorts[i]):
                continue
            other_indices = [j for j in range(arity) if j != i]
            pools = []
            for j in other_indices:
                pools.append(
                    [
                        t
                        for t in terms
                        if sig.le(term_sort(sig, t), arg_sorts[j])
                    ]
                )
            for others in itertools.product(*pools):
                args: list[Term] = [None] * arity  # type: ignore[list-item]
                for j, t in zip(other_indices, others):
                    args[j] = t
                args[i] = s
                total = 1 + s_size + sum(term_size(t) for t in others)
                if total > size_bound:
                    continue
                yield App(name, tuple(args)), (name, i)


def _plug(hole: tuple[str, int], context: Term, s: Term, t: Term) -> Term:
    """The context with ``t`` at the hole position instead of ``s``."""
    assert isinstance(context, App)
    _name, index = hole
    args = list(context.args)
    args[index] = t
    return App(context.symbol, tuple(args))
