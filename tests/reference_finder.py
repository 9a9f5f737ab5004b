"""Finder code that ``countermodel.finder`` replaced, kept as its reference.

``_search`` is the chronological search without verdict memos that the
memoizing, backjumping, learning search replaced, kept verbatim apart from
absolute imports, its node count, which goes through ``_State.count``,
what it hands ``finish``: the candidate index of each slot, as a slot's
menu keeps its candidates in the form the checks read, and what it takes
back: a certificate, or, for a rejection, the slots it conflicts with,
which it ignores.  It re-runs every attached check on
every candidate and backtracks one slot at a time.  Run in its place, it
must hand ``finish`` a superset of the same complete candidates in the
same order: the learning search skips only those failing a check that
rejected an earlier one.  So it gives the same certificate bytes and
reasons from at least as many nodes (under a node cap, the learning
search may get further).

The finite menu builders below are the template and raw stages' own copies
that one stage builder replaced, and the walk that found the symbols each
check reads before the code generator reported them; their bodies are
verbatim, but that each candidate is an ``(interpretation, check form)``
pair.  Both stages must build the menus these build, in their order
(candidate ``k`` of a menu is ``(menu.interp(k), menu.fast[k])``), and
every check must read the symbols this walk finds.  The template stage now
takes its predicates from the symbolic relations, so
``_menu_predicates_finite``, which ranks the points of each pair template
and takes growing prefixes, is an independent computation of that menu.
"""
from __future__ import annotations

import itertools
import operator
from typing import Callable

from countermodel.checker import Certificate, _Refuter
from countermodel.finder import (
    BASE_RELATIONS,
    PAIR_COEFFS,
    PAIR_CONSTS,
    SearchBudget,
    _check_deadline,
    _latest_slot,
    _Slot,
    _State,
)
from countermodel.logic import Atom, sort_of_predicate
from countermodel.terms import App, Term

# A candidate as the menu builders below make it: (interpretation, what the checks read).
_Candidate = tuple[object, object]

_COMPARISONS = {
    "=": operator.eq, "<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt
}


def _search(
    slots: list[_Slot],
    checks: list[tuple[set[str], _Refuter]],
    state: _State,
    points: tuple[int, ...],
    finish: Callable[[dict[str, int]], Certificate | frozenset[str]],
) -> Certificate | None:
    position = {slot.name: index for index, slot in enumerate(slots)}
    checks_by_slot: list[list[_Refuter]] = [[] for _ in slots]
    for symbols, refuted in checks:
        index = _latest_slot(position, symbols)
        if index is not None:
            checks_by_slot[index].append(refuted)

    env: dict[str, object] = {}
    chosen: dict[str, int] = {}

    def descend(index: int) -> Certificate | None:
        if index == len(slots):
            state.count(state.nodes + 1)
            found = finish(chosen)
            return found if isinstance(found, Certificate) else None
        slot = slots[index]
        attached = checks_by_slot[index]
        for k, fast in enumerate(slot.menu.fast):
            state.count(state.nodes + 1)
            env[slot.name] = fast
            chosen[slot.name] = k
            for refuted in attached:
                if refuted(env, points):
                    break
            else:
                result = descend(index + 1)
                if result is not None:
                    return result
        env.pop(slot.name, None)
        chosen.pop(slot.name, None)
        return None

    return descend(0)


def _menu_predicates_finite(carrier: tuple[int, ...], deadline: float) -> list[_Candidate]:
    """The extensions of the menu relations over ``carrier``, in menu order, each once.

    Each extension is first a bit mask over the points.  A pair template's
    extensions for the constants ``c`` in ascending order are growing
    prefixes of the points sorted by ``a*x + b*y``.
    """
    points = [(x, y) for x in carrier for y in carrier]
    masks = [
        sum(1 << i for i, p in enumerate(points) if _COMPARISONS[rel](*p)) for rel in BASE_RELATIONS
    ]
    for a, b in itertools.product(PAIR_COEFFS, repeat=2):
        _check_deadline(deadline)
        values = [a * x + b * y for x, y in points]
        ranked = sorted(range(len(points)), key=values.__getitem__)
        mask, taken = 0, 0
        for c in PAIR_CONSTS:
            while taken < len(ranked) and values[ranked[taken]] <= c:
                mask |= 1 << ranked[taken]
                taken += 1
            masks.append(mask)
    out = []
    for mask in dict.fromkeys(masks):  # first occurrences, in menu order
        _check_deadline(deadline)
        extension = frozenset(itertools.compress(points, map(int, reversed(f"{mask:b}"))))
        out.append(_pair_candidate(extension, carrier))
    return out


def _raw_predicates(carrier: tuple[int, ...], deadline: float) -> list[_Candidate]:
    pairs = sorted(itertools.product(carrier, repeat=2))
    out = []
    for mask in range(1 << len(pairs)):
        _check_deadline(deadline)
        extension = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
        out.append(_pair_candidate(extension, carrier))
    return out


def _pair_candidate(extension: frozenset[tuple[int, int]], carrier: tuple[int, ...]) -> _Candidate:
    """A finite predicate candidate, read by the checks as ``{x: frozenset(ys)}`` over ``carrier``."""
    successors: dict[int, list[int]] = {x: [] for x in carrier}
    for x, y in extension:
        successors[x].append(y)
    return extension, {x: frozenset(ys) for x, ys in successors.items()}


def _table_candidate(table: dict[tuple[int, ...], int], arity: int) -> _Candidate:
    """A finite function candidate; the checks read a unary table keyed by the int itself."""
    return table, {x: v for (x,), v in table.items()} if arity == 1 else table


def _template_tables(
    arity: int, carrier: tuple[int, ...], budget: SearchBudget, deadline: float
) -> list[_Candidate]:
    lo, hi = carrier[0], carrier[-1]
    rng = range(budget.coeff_min, budget.coeff_max + 1)
    seen: set[tuple[int, ...]] = set()
    out = []
    for coeffs in itertools.product(rng, repeat=arity):
        for b in rng:
            _check_deadline(deadline)
            table = {}
            for point in itertools.product(carrier, repeat=arity):
                value = sum(a * x for a, x in zip(coeffs, point)) + b
                table[point] = min(max(value, lo), hi)
            # Every table has its points in the same (product) order, so the values identify it.
            key = tuple(table.values())
            if key in seen:
                continue
            seen.add(key)
            out.append(_table_candidate(table, arity))
    return out


def _raw_tables(arity: int, carrier: tuple[int, ...], deadline: float) -> list[_Candidate]:
    keys = sorted(itertools.product(carrier, repeat=arity))
    out = []
    for values in itertools.product(carrier, repeat=len(keys)):
        _check_deadline(deadline)
        out.append(_table_candidate(dict(zip(keys, values)), arity))
    return out


def _check_symbols(atoms: tuple[Atom, ...]) -> set[str]:
    symbols: set[str] = set()
    for atom in atoms:
        if sort_of_predicate(atom.predicate) is None:
            symbols.add(atom.predicate)
        for arg in atom.args:
            _term_symbols(arg, symbols)
    return symbols


def _term_symbols(term: Term, acc: set[str]) -> None:
    if isinstance(term, App):
        acc.add(term.symbol)
        for a in term.args:
            _term_symbols(a, acc)
