"""Bounded bottom-up saturation of the rewriting inference rules.

Saturation derives ground atoms for ``->``, ``->*``, ``->^`` and ``|>``
over all ground terms within a size bound, to a fixpoint capped by a
derivation-depth bound (proof-tree height, condition subproofs included).
Instances whose terms exceed the size bound are discarded, which makes the
result an under-approximation of the actual rewrite relations: anything
derived here genuinely holds, while absence proves nothing.  That is the
right direction for cross-checking disproofs, where a derived atom would
contradict a claimed countermodel.

Evaluation is semi-naive and stratified by depth (Bancilhon 1986;
Abiteboul, Hull and Vianu, *Foundations of Databases*, ch. 13): round ``k``
joins only premises of depth at most ``k - 1``, at least one of them of
depth exactly ``k - 1``, so it derives exactly the atoms of minimal depth
``k``.  An atom's first depth is final, no round revisits an old atom, and
there are at most ``depth_bound`` rounds.
"""
from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator, Mapping

from .compiler import oriented_conditions
from .logic import Atom
from .terms import (
    ARROW,
    CTRS,
    MANY_STEPS,
    ROOT_STEP,
    SUBTERM,
    ConditionalRule,
    Signature,
    Term,
    Var,
    ground_terms,
    subterms,
    term_size,
    term_sort,
)


@dataclass(frozen=True)
class AtomSet:
    """Derived ground atoms with the minimal derivation depth of each.

    Holds every atom whose terms fit ``size_bound`` and whose minimal
    derivation depth is at most ``depth_bound``.
    """

    atoms: Mapping[Atom, int]
    size_bound: int
    depth_bound: int

    def __contains__(self, atom: Atom) -> bool:
        return atom in self.atoms

    def depth(self, atom: Atom) -> int | None:
        return self.atoms.get(atom)

    def with_predicate(self, predicate: str) -> tuple[Atom, ...]:
        return tuple(a for a in self.atoms if a.predicate == predicate)

    def __len__(self) -> int:
        return len(self.atoms)


def saturate(ctrs: CTRS, size_bound: int, depth_bound: int) -> AtomSet:
    """Atoms of the conditional-rewriting inference rules within bounds."""
    if size_bound < 1 or depth_bound < 1:
        raise ValueError("size and depth bounds must be >= 1")
    sig = ctrs.signature
    found: set[Term] = set()
    for sort in sig.sorts:
        found.update(ground_terms(sig, sort, size_bound))
    # Ground terms are numbered once, in order of size; an atom is a pair of
    # numbers until the end.
    terms = sorted(found, key=term_size)
    ids = {t: i for i, t in enumerate(terms)}
    sizes = [term_size(t) for t in terms]
    sorts = [term_sort(sig, t) for t in terms]
    apps = {(t.symbol, tuple(ids[a] for a in t.args)): i for t, i in ids.items()}
    fits = {sort: [i for i, s in enumerate(sorts) if sig.le(s, sort)] for sort in sig.sorts}

    steps: dict[tuple[int, int], int] = {}  # ->
    root_steps: dict[tuple[int, int], int] = {}  # ->^
    many: dict[tuple[int, int], int] = {}  # ->*
    steps_to: dict[int, list[int]] = defaultdict(list)  # target -> sources of ->
    many_from: dict[int, list[int]] = defaultdict(list)  # source -> targets of ->*

    # (Rp): each rule instance is built once and fires in the round after its
    # last missing ->* condition is derived; unconditional ones fire at depth 1.
    heads: list[tuple[int, int]] = []
    missing: list[int] = []
    waiting: dict[tuple[int, int], list[int]] = defaultdict(list)
    fired: set[tuple[int, int]] = set()
    for rule in ctrs.rules:
        # Joinability conditions read as reachability into a fresh shared variable.
        rule = ConditionalRule(rule.lhs, rule.rhs, oriented_conditions(sig, rule))
        for assignment in _substitution_candidates(rule, fits, sizes, size_bound):
            head = (_instance(rule.lhs, assignment, apps), _instance(rule.rhs, assignment, apps))
            conditions = {
                (_instance(s, assignment, apps), _instance(t, assignment, apps))
                for s, t in rule.conditions
            }
            if not conditions:
                fired.add(head)
                continue
            for condition in conditions:
                waiting[condition].append(len(heads))
            heads.append(head)
            missing.append(len(conditions))

    # Depth 1: unconditional rule instances and reflexivity of ->*.
    new_steps, new_roots, new_many = fired, fired, {(i, i) for i in range(len(terms))}
    frames: dict[tuple[str, str, int], list[tuple[str, tuple[int, ...], tuple[int, ...]]]] = {}
    depth = 1
    while True:
        for pair in new_steps:
            steps[pair] = depth
            steps_to[pair[1]].append(pair[0])
        for pair in new_roots:
            root_steps[pair] = depth
        for pair in new_many:
            many[pair] = depth
            many_from[pair[0]].append(pair[1])
        if depth == depth_bound or not (new_steps or new_many):
            break
        depth += 1
        delta_steps, delta_many = new_steps, new_many
        new_steps, new_roots, new_many = set(), set(), set()
        # (Rp)
        for condition in delta_many:
            for index in waiting.pop(condition, ()):
                missing[index] -= 1
                if not missing[index]:
                    head = heads[index]
                    if head not in steps:
                        new_steps.add(head)
                    if head not in root_steps:
                        new_roots.add(head)
        # (C): one-step rewriting closed under contexts one argument at a time;
        # both the redex side and the contractum side must fit the size bound.
        for s, t in delta_steps:
            key = (sorts[s], sorts[t], size_bound - 1 - max(sizes[s], sizes[t]))
            if key not in frames:
                frames[key] = list(_frames(sig, fits, sizes, *key))
            for symbol, before, after in frames[key]:
                pair = (apps[symbol, before + (s,) + after], apps[symbol, before + (t,) + after])
                if pair not in steps:
                    new_steps.add(pair)
        # (T): s ->* u from s -> t and t ->* u.
        for s, t in delta_steps:
            for u in many_from[t]:
                if (s, u) not in many:
                    new_many.add((s, u))
        for t, u in delta_many:
            for s in steps_to[t]:
                if (s, u) not in many:
                    new_many.add((s, u))

    # The subterm relation is a depth-1 fact, and no rule has it as a premise.
    atoms = {Atom(SUBTERM, (t, s)): 1 for t in terms for s in subterms(t)}
    for predicate, table in ((ARROW, steps), (ROOT_STEP, root_steps), (MANY_STEPS, many)):
        atoms.update((Atom(predicate, (terms[i], terms[j])), d) for (i, j), d in table.items())
    return AtomSet(atoms, size_bound, depth_bound)


def derivable(ctrs: CTRS, atom: Atom, size_bound: int, depth_bound: int) -> bool:
    return atom in saturate(ctrs, size_bound, depth_bound)


def _substitution_candidates(
    rule: ConditionalRule, fits: Mapping[str, list[int]], sizes: list[int], size_bound: int
) -> Iterator[dict[Var, int]]:
    """Ground substitutions under which every term of the rule fits the bound.

    Variables are mapped to numbered ground terms, ``fits[sort]`` listing
    those of each sort in order of size.  They are assigned depth-first; a
    partial assignment is abandoned as soon as some instantiated template
    cannot stay within the size bound even with every remaining variable
    mapped to a size-1 term.
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
    if any(b > size_bound for b in bases) or any(not fits[v.sort] for v in variables):
        return

    extra = [0] * len(templates)  # accumulated size beyond the template's base

    def feasible() -> bool:
        return all(b + e <= size_bound for b, e in zip(bases, extra))

    assignment: dict[Var, int] = {}

    def assign(index: int) -> Iterator[dict[Var, int]]:
        if index == len(variables):
            yield dict(assignment)
            return
        v = variables[index]
        for candidate in fits[v.sort]:
            growth = sizes[candidate] - 1
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


def _instance(
    template: Term, assignment: Mapping[Var, int], apps: Mapping[tuple[str, tuple[int, ...]], int]
) -> int:
    """The number of the template's ground instance under the assignment."""
    if isinstance(template, Var):
        return assignment[template]
    return apps[template.symbol, tuple(_instance(a, assignment, apps) for a in template.args)]


def _frames(
    sig: Signature,
    fits: Mapping[str, list[int]],
    sizes: list[int],
    redex_sort: str,
    contractum_sort: str,
    room: int,
) -> Iterator[tuple[str, tuple[int, ...], tuple[int, ...]]]:
    """Contexts ``f(before, [], after)`` whose other arguments' sizes sum to at most ``room``.

    The hole's argument sort must admit both the redex and the contractum sort.
    """
    for name, (arg_sorts, _result) in sig.functions.items():
        for i, hole in enumerate(arg_sorts):
            if not (sig.le(redex_sort, hole) and sig.le(contractum_sort, hole)):
                continue
            pools = [
                [j for j in fits[sort] if sizes[j] <= room]
                for sort in arg_sorts[:i] + arg_sorts[i + 1 :]
            ]
            for others in itertools.product(*pools):
                if sum(sizes[j] for j in others) <= room:
                    yield name, others[:i], others[i:]
