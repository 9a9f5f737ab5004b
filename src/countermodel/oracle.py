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
within the bound are numbered once, in order of size, as they are
enumerated; a term's number is looked up from its symbol and its
arguments' numbers, its subterms are its own number plus its arguments'
subterms, and an atom is a pair of numbers until the result is built.

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
    ground_terms_by_size,
    term_size,
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
    numbering = _Numbering(sig, size_bound)
    sizes, sorts, tables = numbering.sizes, numbering.sorts, numbering.tables

    steps: dict[tuple[int, int], int] = {}  # ->
    root_steps: dict[tuple[int, int], int] = {}  # ->^
    many: dict[tuple[int, int], int] = {}  # ->*
    steps_to: dict[int, list[int]] = defaultdict(list)  # target -> sources of ->
    many_from: dict[int, list[int]] = defaultdict(list)  # source -> targets of ->*

    # (Rp): a rule's instances come in batches (see ``_compile``): the
    # heads of one assignment of the variables its head shares with its
    # conditions, with one group of ->* conditions per assignment of the
    # variables only its conditions read.  The batch fires in the round after
    # its first group is complete; unconditional heads fire at depth 1.
    pending: list[list[tuple[int, int]] | None] = []  # batch -> heads, until fired
    batch_of: list[int] = []  # group -> batch
    missing: list[int] = []  # group -> conditions not yet derived
    waiting: dict[tuple[int, int], list[int]] = defaultdict(list)  # condition -> groups
    fired: set[tuple[int, int]] = set()

    def batch(heads: list[tuple[int, int]], groups: list[set[tuple[int, int]]]) -> None:
        if not groups[0]:
            fired.update(heads)
            return
        for conditions in groups:
            for condition in conditions:
                waiting[condition].append(len(missing))
            batch_of.append(len(pending))
            missing.append(len(conditions))
        pending.append(heads)

    for rule in ctrs.rules:
        # Joinability conditions read as reachability into a fresh shared variable.
        rule = ConditionalRule(rule.lhs, rule.rhs, oriented_conditions(sig, rule))
        instances = _compile(rule, tables, size_bound)
        if instances is not None:
            instances(numbering.pools, batch)

    # Depth 1: unconditional rule instances and reflexivity of ->*.
    new_steps, new_roots, new_many = fired, fired, {(i, i) for i in range(len(sizes))}
    frames: dict[tuple[str, str, int], list[tuple[dict, tuple[int, ...], tuple[int, ...]]]] = {}
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
                missing[group] -= 1
                if not missing[group]:
                    heads, pending[batch_of[group]] = pending[batch_of[group]], None
                    for head in heads or ():
                        if head not in steps:
                            new_steps.add(head)
                        if head not in root_steps:
                            new_roots.add(head)
        # (C): one-step rewriting closed under contexts one argument at a time;
        # both the redex side and the contractum side must fit the size bound.
        for s, t in delta_steps:
            key = (sorts[s], sorts[t], size_bound - 1 - max(sizes[s], sizes[t]))
            if key not in frames:
                frames[key] = list(_frames(sig, numbering, *key))
            for table, before, after in frames[key]:
                if before or after:
                    pair = (table[before + (s,) + after], table[before + (t,) + after])
                else:
                    pair = (table[s], table[t])
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
    ground = numbering.ground
    atoms = {
        Atom(SUBTERM, (ground[i], ground[j])): 1
        for i, below in enumerate(numbering.below)
        for j in below
    }
    for predicate, table in ((ARROW, steps), (ROOT_STEP, root_steps), (MANY_STEPS, many)):
        atoms.update((Atom(predicate, (ground[i], ground[j])), d) for (i, j), d in table.items())
    return AtomSet(atoms, size_bound, depth_bound)


def derivable(ctrs: CTRS, atom: Atom, size_bound: int, depth_bound: int) -> bool:
    return atom in saturate(ctrs, size_bound, depth_bound)


def _key(args: tuple[int, ...]) -> Hashable:
    """A table key: the one argument's number alone, else the tuple of them.

    This is the shape ``itemgetter`` returns for one index and for several.
    """
    return args[0] if len(args) == 1 else args


class _Numbering:
    """The ground terms within a size bound, numbered in order of size.

    ``ground[i]`` is the term numbered ``i``, of size ``sizes[i]`` and
    declared sort ``sorts[i]``; ``tables[f]`` maps the numbers of ``f``'s
    arguments to the number of the application, keyed as ``_key`` shapes
    them; ``pools[sort][k]`` lists the terms of size ``k`` whose sort is at
    most ``sort``; ``below[i]`` holds the numbers of term ``i``'s subterms,
    ``i`` included.
    """

    __slots__ = ("ground", "sizes", "sorts", "tables", "pools", "below")

    def __init__(self, sig: Signature, size_bound: int):
        self.ground: list[Term] = []
        self.sizes: list[int] = []
        self.sorts: list[str] = []
        self.below: list[set[int]] = []
        self.tables: dict[str, dict[Hashable, int]] = {name: {} for name in sig.functions}
        numbers: dict[Term, int] = {}
        for size, by_sort in enumerate(ground_terms_by_size(sig, size_bound)):
            for sort, group in by_sort.items():
                for t in group:
                    i = numbers[t] = len(self.ground)
                    args = tuple(numbers[a] for a in t.args)
                    self.tables[t.symbol][_key(args)] = i
                    self.below.append({i}.union(*(self.below[a] for a in args)))
                    self.ground.append(t)
                    self.sizes.append(size)
                    self.sorts.append(sort)
        self.pools: dict[str, list[list[int]]] = {
            sort: [[] for _ in range(size_bound + 1)] for sort in sig.sorts
        }
        uppers = {sort: [up for up in sig.sorts if sig.le(sort, up)] for sort in sig.sorts}
        for i, (size, sort) in enumerate(zip(self.sizes, self.sorts)):
            for up in uppers[sort]:
                self.pools[up][size].append(i)


_Pools = Mapping[str, list[list[int]]]
_Emit = Callable[[list[tuple[int, int]], list[set[tuple[int, int]]]], None]


def _compile(
    rule: ConditionalRule, tables: Mapping[str, Mapping[Hashable, int]], size_bound: int
) -> Callable[[_Pools, _Emit], None] | None:
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

    The compiled rule, ``instances(pools, emit)``, calls ``emit(heads,
    groups)`` for each assignment of the shared slots: ``heads`` are the
    rule's heads under each assignment of the head-only slots, ``groups`` its
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
    occurrences: list[dict[Var, int]] = [{} for _ in rule_terms]
    for t, counts in zip(rule_terms, occurrences):
        _count(t, counts)
    head_vars = occurrences[0].keys() | occurrences[1].keys()
    condition_vars = set().union(*occurrences[2:])
    variables = sorted(
        rule.variables(), key=lambda v: (v not in condition_vars, v not in head_vars)
    )
    slots = {v: k for k, v in enumerate(variables)}
    shared = len(head_vars & condition_vars)
    conditional = shared + len(condition_vars - head_vars)
    uses: list[list[tuple[int, int]]] = [[] for _ in slots]
    for i, counts in enumerate(occurrences):
        for v, count in counts.items():
            uses[slots[v]].append((i, count))
    registers = [0] * len(slots)
    steps: list[list[tuple[int, Mapping[Hashable, int], Callable]]] = [[] for _ in slots]
    # Equal subterms share a register.  They are keyed by symbol and argument
    # registers, never by the term, so that no two deep terms are compared.
    known: dict[tuple[str, tuple[int, ...]], tuple[int, int]] = {}

    def place(t: Term) -> tuple[int, int]:
        """The register of ``t``'s number, and the last slot it reads (-1 if ground)."""
        if isinstance(t, Var):
            return slots[t], slots[t]
        args = [place(a) for a in t.args]
        refs = tuple(register for register, _ in args)
        if (t.symbol, refs) not in known:
            level = max((slot for _, slot in args), default=-1)
            table = tables[t.symbol]
            if level < 0:
                registers.append(table[_key(tuple(registers[r] for r in refs))])
            else:
                steps[level].append((len(registers), table, itemgetter(*refs)))
                registers.append(0)
            known[t.symbol, refs] = (len(registers) - 1, level)
        return known[t.symbol, refs]

    placed = [place(t)[0] for t in rule_terms]
    head = itemgetter(placed[0], placed[1])
    conditions = [itemgetter(placed[i], placed[i + 1]) for i in range(2, len(placed), 2)]
    sorts = [v.sort for v in variables]

    def instances(pools: _Pools, emit: _Emit) -> None:
        def assign(k: int, end: int, found: Callable[[], None]) -> None:
            """Assign slots ``k`` to ``end - 1`` every way, calling ``found`` after each."""
            if k == end:
                found()
                return
            pool = pools[sorts[k]]
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

            def group() -> None:
                groups.append({condition(registers) for condition in conditions})

            def one_head() -> None:
                heads.append(head(registers))

            assign(shared, conditional, group)
            if groups:
                assign(conditional, len(sorts), one_head)
                if heads:
                    emit(heads, groups)

        assign(0, shared, batch)

    return instances


def _count(term: Term, counts: dict[Var, int]) -> None:
    if isinstance(term, Var):
        counts[term] = counts.get(term, 0) + 1
    else:
        for a in term.args:
            _count(a, counts)


def _frames(
    sig: Signature, numbering: _Numbering, redex_sort: str, contractum_sort: str, room: int
) -> Iterator[tuple[dict[Hashable, int], tuple[int, ...], tuple[int, ...]]]:
    """Contexts ``f(before, [], after)`` whose other arguments' sizes sum to at most ``room``.

    Each comes as ``f``'s table with the numbers before and after the hole.
    The hole's argument sort must admit both the redex and the contractum sort.
    """
    pools, sizes = numbering.pools, numbering.sizes
    for name, (arg_sorts, _result) in sig.functions.items():
        for i, hole in enumerate(arg_sorts):
            if not (sig.le(redex_sort, hole) and sig.le(contractum_sort, hole)):
                continue
            others = [
                [j for size in range(1, room + 1) for j in pools[sort][size]]
                for sort in arg_sorts[:i] + arg_sorts[i + 1 :]
            ]
            for combination in itertools.product(*others):
                if sum(sizes[j] for j in combination) <= room:
                    yield numbering.tables[name], combination[:i], combination[i:]
