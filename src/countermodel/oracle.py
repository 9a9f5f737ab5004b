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

The work is done on numbered terms (``_Numbering``).  The ground terms
within the bound are enumerated and numbered once, in order of size: the
terms of one size are built from the numbers of smaller terms in the
numbering's own pools, so no term is hashed to find its number.  A term's
number is looked up from its symbol and its arguments' numbers, its
subterms are its own number plus its arguments' subterms, and an atom is
a pair of numbers until the result is built.
A term fits the size bound and the sorts exactly when it has a number.
Each term keeps a use list, the applications that take it as an argument
(Downey, Sethi and Tarjan 1980): a step ``s -> t`` is closed under
contexts by putting ``t`` in place of ``s`` in each and looking it up.

Each rule is compiled once (``_compile``), as a Datalog engine
compiles its rules (Soufflé; Jordan et al. 2016).  Its variables become
register slots and each distinct subterm a register, filled by one table
lookup as soon as the last slot it reads is assigned.  Instances are
enumerated slot by slot over the terms of each size, so that the size
bound cuts off all larger sizes at once.  They come in batches: for each
assignment of the variables that the head and the conditions share, the
heads under every assignment of the head-only variables, and one group of
conditions per assignment of the condition-only variables.  No term reads
variables of both kinds, so each head pairs with each group, and a batch
fires as soon as one of its groups is derived: the size of the work is
their sum, not their product.
"""
from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Hashable, Iterator, Mapping

from .compiler import oriented_conditions
from .errors import OptionError
from .logic import Atom
from .terms import (
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
    term_size,
    term_vars,
)


@dataclass(frozen=True)
class AtomSet:
    """Derived ground atoms with the minimal derivation depth of each."""

    atoms: Mapping[Atom, int]

    def __contains__(self, atom: Atom) -> bool:
        return atom in self.atoms

    def __len__(self) -> int:
        return len(self.atoms)


def saturate(ctrs: CTRS, size_bound: int, depth_bound: int) -> AtomSet:
    """Atoms of the conditional-rewriting inference rules within bounds."""
    if size_bound < 1 or depth_bound < 1:
        raise OptionError("size and depth bounds must be >= 1")
    sig = ctrs.signature
    numbering = _Numbering(sig, size_bound)

    steps: dict[tuple[int, int], int] = {}  # ->
    root_steps: dict[tuple[int, int], int] = {}  # ->^
    many: dict[tuple[int, int], int] = {}  # ->*
    steps_to: dict[int, list[int]] = defaultdict(list)  # target -> sources of ->
    many_from: dict[int, list[int]] = defaultdict(list)  # source -> targets of ->*

    # (Rp): a rule's instances come in batches (see ``_compile``): the
    # heads of one assignment of the variables its head shares with its
    # conditions, with one group of ->* conditions per assignment of the
    # variables only its conditions read.  The batch fires in the round after
    # its first group is complete; unconditional heads fire at depth 1.  A
    # group is [conditions not yet derived, the batch's heads until fired].
    waiting: dict[tuple[int, int], list[list]] = defaultdict(list)  # condition -> groups
    fired: set[tuple[int, int]] = set()

    def batch(heads: list[tuple[int, int]], groups: list[set[tuple[int, int]]]) -> None:
        if not groups[0]:
            fired.update(heads)
            return
        for conditions in groups:
            group = [len(conditions), heads]
            for condition in conditions:
                waiting[condition].append(group)

    for rule in ctrs.rules:
        # Joinability conditions read as reachability into a fresh shared variable.
        rule = ConditionalRule(rule.lhs, rule.rhs, oriented_conditions(sig, rule))
        instances = _compile(rule, numbering, size_bound)
        if instances is not None:
            instances(batch)

    # Depth 1: unconditional rule instances and reflexivity of ->*.
    new_steps, new_roots, new_many = fired, fired, {(i, i) for i in range(len(numbering.ground))}
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
            for group in waiting.pop(condition, ()):
                group[0] -= 1
                if not group[0]:
                    for head in group[1]:
                        if head not in steps:
                            new_steps.add(head)
                        if head not in root_steps:
                            new_roots.add(head)
                    group[1].clear()
        # (C): one-step rewriting closed under the contexts that take the
        # redex, one argument at a time; a miss is a context that overflows
        # the bound or a hole that does not admit the contractum's sort.
        for s, t in delta_steps:
            for i, table, before, after in numbering.uses[s]:
                j = table.get(before + (t,) + after if before or after else t)
                if j is not None and (i, j) not in steps:
                    new_steps.add((i, j))
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
    ground = numbering.ground
    atoms = {
        Atom(SUBTERM, (ground[i], ground[j])): 1
        for i, below in enumerate(numbering.below)
        for j in below
    }
    for predicate, table in ((ARROW, steps), (ROOT_STEP, root_steps), (MANY_STEPS, many)):
        atoms.update((Atom(predicate, (ground[i], ground[j])), d) for (i, j), d in table.items())
    return AtomSet(atoms)


def _key(args: tuple[int, ...]) -> Hashable:
    """A table key: one argument's number alone, else their tuple, as ``itemgetter`` gives."""
    return args[0] if len(args) == 1 else args


class _Numbering:
    """The ground terms within a size bound, numbered in order of size.

    The terms of one size are the applications of each symbol, in
    declaration order, to the argument numbers the pools of smaller sizes
    give, numbered grouped by result sort in order of each group's first
    term.  ``ground[i]`` is the term numbered ``i``; ``tables[f]`` maps
    the numbers of ``f``'s arguments to the number of the application,
    keyed as ``_key`` shapes them, so a lookup misses exactly when the
    application is ill-sorted or over the bound; ``pools[sort][k]`` lists
    the terms of size ``k`` whose sort is at most ``sort``; ``below[i]``
    holds the numbers of term ``i``'s subterms, ``i`` included; ``uses[i]``
    lists the applications that take term ``i`` as an argument, each as its
    number, its symbol's table and the argument numbers before and after
    ``i``.
    """

    __slots__ = ("ground", "tables", "pools", "below", "uses")

    def __init__(self, sig: Signature, size_bound: int):
        self.ground: list[Term] = []
        self.below: list[set[int]] = []
        self.uses: list[list[tuple[int, dict[Hashable, int], tuple, tuple]]] = []
        self.tables: dict[str, dict[Hashable, int]] = {name: {} for name in sig.functions}
        self.pools: dict[str, list[list[int]]] = {
            sort: [[] for _ in range(size_bound + 1)] for sort in sig.sorts
        }
        uppers = {sort: [up for up in sig.sorts if sig.le(sort, up)] for sort in sig.sorts}
        for size in range(1, size_bound + 1):
            # The applications of this size as symbols and argument numbers.
            by_sort: dict[str, list[tuple[str, tuple[int, ...]]]] = {}
            for name, (arg_sorts, result) in sig.functions.items():
                for split in _compositions(size - 1, len(arg_sorts)):
                    pools = [self.pools[s][k] for s, k in zip(arg_sorts, split)]
                    for args in itertools.product(*pools):
                        by_sort.setdefault(result, []).append((name, args))
            for sort, group in by_sort.items():
                pools = [self.pools[up][size] for up in uppers[sort]]
                for name, args in group:
                    i = len(self.ground)
                    table = self.tables[name]
                    table[_key(args)] = i
                    for k, a in enumerate(args):
                        self.uses[a].append((i, table, args[:k], args[k + 1 :]))
                    self.below.append({i}.union(*(self.below[a] for a in args)))
                    self.uses.append([])
                    self.ground.append(App(name, tuple(self.ground[a] for a in args)))
                    for pool in pools:
                        pool.append(i)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to write ``total`` as an ordered sum of ``parts`` positive integers."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


_Emit = Callable[[list[tuple[int, int]], list[set[tuple[int, int]]]], None]


def _compile(
    rule: ConditionalRule, numbering: _Numbering, size_bound: int
) -> Callable[[_Emit], None] | None:
    """The rule compiled over numbered terms, or None when a term of it cannot fit the bound.

    Slot ``k`` holds the number of the rule's ``k``-th variable, taken in
    three runs: the variables both the head and the conditions read (up to
    ``shared``), those only the conditions read (up to ``conditional``),
    and those only the head reads.  Every register past the slots holds the
    number of one distinct subterm of the rule: a ground one from the start,
    any other one filled by one of ``steps[k]`` (register, table, key getter)
    once slot ``k``, the last slot it reads, is assigned.  ``room`` is how
    much each term of the rule (left side, right side, then both sides of
    each condition) may grow past its size with every variable of size 1;
    ``uses[k]`` lists the terms that slot ``k`` occurs in, with its number
    of occurrences.

    The compiled rule, ``instances(emit)``, calls ``emit(heads, groups)``
    for each assignment of the shared slots: ``heads`` are the rule's
    heads under each assignment of the head-only slots, ``groups`` its
    condition sets under each assignment of the condition-only slots.  No
    term of the rule reads slots of both kinds, so every head and group pair
    is an instance within the bound, and a head holds as soon as one group
    does.  An assignment with no heads or no groups is not emitted.  Slots
    are assigned depth-first, each to the terms of its sort one size at a
    time, smallest first, up to the largest size that keeps every term of
    the rule within the bound.
    """
    rule_terms = rule.terms()
    room = [size_bound - term_size(t) for t in rule_terms]
    if min(room) < 0:
        return None
    head_vars = set(term_vars(rule.lhs, rule.rhs))
    condition_vars = set(term_vars(*rule_terms[2:]))
    variables = sorted(
        rule.variables(), key=lambda v: (v not in condition_vars, v not in head_vars)
    )
    slots = {v: k for k, v in enumerate(variables)}
    shared = len(head_vars & condition_vars)
    conditional = shared + len(condition_vars - head_vars)
    uses: list[list[tuple[int, int]]] = [[] for _ in slots]
    registers = [0] * len(slots)
    steps: list[list[tuple[int, Mapping[Hashable, int], Callable]]] = [[] for _ in slots]
    # Equal subterms share a register.  They are keyed by symbol and argument
    # registers, never by the term, so that no two deep terms are compared.
    known: dict[tuple[str, tuple[int, ...]], tuple[int, int]] = {}

    def place(t: Term, counts: dict[int, int]) -> tuple[int, int]:
        """The register of ``t``'s number, and the last slot it reads (-1 if ground).

        ``counts`` gains the occurrences of each slot in ``t``.
        """
        if isinstance(t, Var):
            counts[slots[t]] = counts.get(slots[t], 0) + 1
            return slots[t], slots[t]
        args = [place(a, counts) for a in t.args]
        refs = tuple(register for register, _ in args)
        if (t.symbol, refs) not in known:
            level = max((slot for _, slot in args), default=-1)
            table = numbering.tables[t.symbol]
            if level < 0:
                registers.append(table[_key(tuple(registers[r] for r in refs))])
            else:
                steps[level].append((len(registers), table, itemgetter(*refs)))
                registers.append(0)
            known[t.symbol, refs] = (len(registers) - 1, level)
        return known[t.symbol, refs]

    placed = []
    for i, t in enumerate(rule_terms):
        counts: dict[int, int] = {}
        placed.append(place(t, counts)[0])
        for k, count in counts.items():
            uses[k].append((i, count))
    head = itemgetter(placed[0], placed[1])
    conditions = [itemgetter(placed[i], placed[i + 1]) for i in range(2, len(placed), 2)]
    sorts = [v.sort for v in variables]

    def instances(emit: _Emit) -> None:
        def assign(k: int, end: int, found: Callable[[], None]) -> None:
            """Assign slots ``k`` to ``end - 1`` every way, calling ``found`` after each."""
            if k == end:
                found()
                return
            pool = numbering.pools[sorts[k]]
            growth_bound = min(room[i] // count for i, count in uses[k])
            for growth in range(growth_bound + 1):
                same_size = pool[growth + 1]
                if not same_size:
                    continue
                for i, count in uses[k]:
                    room[i] -= count * growth
                for term in same_size:
                    registers[k] = term
                    for register, table, key in steps[k]:
                        registers[register] = table[key(registers)]
                    if k + 1 == end:
                        found()
                    else:
                        assign(k + 1, end, found)
                for i, count in uses[k]:
                    room[i] += count * growth

        def batch() -> None:
            groups: list[set[tuple[int, int]]] = []
            heads: list[tuple[int, int]] = []

            assign(shared, conditional, lambda: groups.append({c(registers) for c in conditions}))
            if groups:
                assign(conditional, len(sorts), lambda: heads.append(head(registers)))
                if heads:
                    emit(heads, groups)

        assign(0, shared, batch)

    return instances
