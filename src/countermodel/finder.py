"""Search for structures satisfying a theory and all obligations.

Both backends run one driver, ``_find``, and differ only in the stages they
yield.  A stage fixes the candidate menu of every slot, the grid the
pruning checks run on, the structure class and the carrier every sort
gets.  Both draw functions from one generator of affine template terms.
The finite finder's stages are interval carriers of at most
``MAX_FINITE_CARRIER`` values, interpreting constants as carrier elements
(the constant menu is the carrier), functions as the terms' carrier-clamped
tables, and predicates as the distinct extensions on the carrier of the
relations, in their order, then raw tables on tiny domains, both built by
one builder.  The symbolic finder's stages are ray carriers with the terms
that keep the carrier closed and the relations, both as data the checks
apply inline.  The relations read no input, so their list is built once
per process (``_relations``); other menu builders check the deadline per
entry.  A menu keeps each candidate in the one form the checks read (see
_Menu), and says how candidate ``k`` becomes an interpretation; only a
complete candidate is turned into one (see _finish), so completing one
needs no backend branch.

A menu depends only on its carrier or ray, its arity and the budget's menu
settings, never on the input.  So the second of consecutive searches under
the same menu settings keeps the menus it builds, and the searches after it
reuse them (see _menus_for).  The first keeps none, so a one-shot run frees
a carrier's menus once it moves past it.  Searches share kept menus, so
nothing mutates one: a structure copies the tables it is given.

Search runs depth-first over interpretation slots ordered predicates,
then constants, then functions.  Every theory clause and obligation
prunes partial assignments at the last slot interpreting one of its
symbols, as a check the verifier's generator compiles over the stage's
grid (the whole finite carrier, or the first integers of a ray).  Sort
atoms hold by construction of the candidates, so they are dropped and a
clause with a sort head is never attached.  Every complete candidate is
re-checked through the verifier, so no unverified structure is ever
returned.

A check's verdict depends only on the slots it reads, so the search keeps
a record of it, per check, keyed by the candidate index at the check's
slot: the conflict a rejection adds (see below), or a pass.  The memo
stays valid while every earlier slot the check reads keeps its value; those
values change only when the search re-enters the slot just after the
latest of them, so that is where the memo is cleared.  The memo of a check
that reads no earlier slot, such as reflexivity of ``->*``, is cleared at
slot 0, which is entered once per stage, so the check is computed at most
once per candidate and stage.  Each slot tries its checks longest-kept
memo first, and within one reset level obligations before theory clauses,
since they are usually the cheapest refuters.  The order cannot change
which candidates survive.

A check is compiled staged at its own slot, the one it is attached to (see
checker._check_source), when its loops from the first that reads that slot
on read just one subterm computed by the loops before: those loops become
a prefix yielding that subterm's distinct values, each with its first
valuation, and the check loops over these rows in their place.  The prefix
reads only the grid and earlier slots whose change clears the check's
memo, so the rows live in the memo, computed at its first miss and dropped
with it.  In the capped division-ccp search, the division obligation's
prefix runs 31 times where the check runs 835 (symbolic), 60 where it runs
839 (finite).

The search backjumps (conflict-directed backjumping, Prosser 1993).  When
every candidate of a slot fails, the slot's conflict set names earlier
slots whose values alone make it fail: the earlier slots read by each
check that rejected a candidate, and the conflict set of each failed
subtree below it, minus the slot itself.  A complete candidate that the
verifier rejects conflicts with the slots one failed check reads (see
_finish).  The search returns to the latest slot in the set, merges the
rest of the set into that slot's conflict set, and tries its next
candidate; the slots in between are left untried, since no value of
theirs can undo the failure (an empty set ends the stage).  The set is a
nogood, so the search also learns it (Dechter 1990), as one more memo of
that slot with no check behind it, tried before the slot's checks: the
slot rejects its candidate again, adding the rest of the set, while the
slots up to the latest of the rest keep their values, so the memo is
cleared on entering the slot after that one.
So the skipped subtrees hold no complete candidate the verifier accepts:
it sees the complete candidates of a chronological search in their order,
less some that fail a check an earlier one failed, so the first verified
model and its certificate are the same, reached in at most as many nodes;
under a node cap the search can only get further.
The walk keeps an explicit stack, so a search of more slots than Python's
recursion limit runs like any other.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .checker import CALL, HOLDS, INLINE, TABLES, VERIFIED, Certificate, _compile_check, _Refuter, verify
from .errors import OptionError
from .linear import compare
from .logic import HornClause, Theory, sort_of_predicate
from .model_format import MAX_FINITE_CARRIER
from .queries import required_predicates
from .structures import (
    AffineForm,
    FiniteStructure,
    Interval,
    PiecewiseFunction,
    PredicateInterp,
    SymbolicStructure,
)
from .terms import BUILTIN_PREDICATES, Signature


# The predicate menu: the five comparisons, then every pair template
# ``a*x + b*y <= c`` with ``a`` and ``b`` in PAIR_COEFFS and ``c`` in PAIR_CONSTS.
BASE_RELATIONS = ("=", "<=", ">=", "<", ">")
PAIR_COEFFS = range(-5, 6)
PAIR_CONSTS = range(-2, 3)
# Raw tables are tried only when every function has at most this many arguments.
RAW_TABLE_MAX_ARITY = 2


@dataclass(frozen=True)
class SearchBudget:
    """Knobs of the model search; the defaults cover the bundled corpus."""

    carriers: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (0, 3), (-1, 1))
    coeff_min: int = -2
    coeff_max: int = 2
    raw_table_max_size: int = 2
    ray_carriers: tuple[int, ...] = (0, -1, 1)
    time_limit: float = 60.0
    max_nodes: int = 2_000_000

    def __post_init__(self) -> None:
        # An inverted carrier or coefficient range silently empties every
        # menu built from it.
        for lo, hi in self.carriers:
            if lo > hi:
                raise OptionError(f"carriers: interval {lo}:{hi} is empty")
            # Wider, and the menus built over it outgrow the time limit and memory.
            if hi - lo >= MAX_FINITE_CARRIER:
                raise OptionError(f"carriers: {lo}:{hi} exceeds {MAX_FINITE_CARRIER} values")
        if self.coeff_min > self.coeff_max:
            raise OptionError(f"coeff_min {self.coeff_min} exceeds coeff_max {self.coeff_max}")
        # A NaN time limit would make a deadline that never passes.
        if not self.time_limit >= 0:
            raise OptionError(f"time_limit {self.time_limit} is not a number of seconds >= 0")
        if self.max_nodes < 0:
            raise OptionError(f"max_nodes {self.max_nodes} is negative")
        if self.raw_table_max_size < 0:
            raise OptionError(f"raw_table_max_size {self.raw_table_max_size} is negative")


@dataclass(frozen=True)
class FindOutcome:
    certificate: Certificate | None  # handed back only verified
    reason: str | None
    nodes: int

    @property
    def found(self) -> bool:
        return self.certificate is not None


class _Stop(Exception):
    def __init__(self, reason: str):
        self.reason = reason


def _check_deadline(deadline: float) -> None:
    if time.monotonic() > deadline:
        raise _Stop("budget exhausted: time cap")


@dataclass(frozen=True)
class _Menu:
    # Candidate k as the compiled checks read it: an int for a constant, else a table (keyed by
    # the int itself when unary), a successor map, or ``(*coeffs, b)`` or ``(e, a, b, c)`` data.
    fast: Sequence
    interp: Callable[[int], object]  # candidate k's interpretation in the structure


@dataclass
class _Slot:
    name: str
    menu: _Menu


@dataclass
class _State:
    budget: SearchBudget
    deadline: float  # time.monotonic() value at which the search stops
    # Finished menus by key, all built under ``budget``'s menu settings, or
    # None for a search that keeps no menu (see _menus_for).
    menus: dict[tuple, _Menu] | None = None
    nodes: int = 0
    check_at: int = 1  # the node count at which the deadline is next checked

    def count(self, nodes: int, stride: int = 256) -> int:
        """Record ``nodes``; stop past the node cap or the deadline; return when to call again.

        The deadline is checked at node 1, so a search begun past it stops at
        once, and again each time the count has grown by ``stride``.
        """
        cap = self.budget.max_nodes
        self.nodes = nodes
        if nodes > cap:
            raise _Stop("budget exhausted: candidate cap")
        if nodes >= self.check_at:
            _check_deadline(self.deadline)
            self.check_at = nodes + stride
        return min(self.check_at, cap + 1)


def find_model(
    theory: Theory,
    obligations: Iterable[HornClause],
    budget: SearchBudget | None = None,
    *,
    deadline: float | None = None,
) -> FindOutcome:
    """Search interval carriers for a verified finite structure.

    The search stops at ``deadline`` (a ``time.monotonic()`` value), by
    default ``budget.time_limit`` seconds from now.
    """
    return _find(theory, obligations, budget, deadline, _finite_stages, TABLES)


def find_symbolic_model(
    theory: Theory,
    obligations: Iterable[HornClause],
    budget: SearchBudget | None = None,
    *,
    deadline: float | None = None,
) -> FindOutcome:
    """Search ray carriers for a verified symbolic structure (``deadline`` as in find_model)."""
    return _find(theory, obligations, budget, deadline, _symbolic_stages, INLINE)


@dataclass(frozen=True)
class _Stage:
    """One search over fixed menus: every sort gets ``carrier``, pruning checks run on ``grid``."""

    slots: list[_Slot]
    grid: tuple[int, ...]
    structure_class: type
    carrier: object


def _find(
    theory: Theory,
    obligations: Iterable[HornClause],
    budget: SearchBudget | None,
    deadline: float | None,
    stages: Callable[[Signature, tuple[str, ...], _State], Iterator[_Stage]],
    spelling: str,
) -> FindOutcome:
    """Search each stage in turn until one yields a verified structure; ``spelling`` reads its menus."""
    budget = budget or SearchBudget()
    obligations = tuple(obligations)
    sig = theory.signature
    predicates = required_predicates(theory, obligations)
    checks = _compile_checks(theory, obligations, spelling, _slot_order(sig, predicates))
    if deadline is None:
        deadline = time.monotonic() + budget.time_limit
    state = _State(budget, deadline, _menus_for(budget))
    try:
        for stage in stages(sig, predicates, state):
            finish = lambda chosen: _finish(stage, sig, chosen, theory, obligations)  # noqa: E731
            found = _search(stage.slots, checks, state, stage.grid, finish)
            if found is not None:
                return FindOutcome(found, None, state.nodes)
    except _Stop as stop:
        return FindOutcome(None, stop.reason, state.nodes)
    return FindOutcome(None, "no model among the stages' candidates", state.nodes)


# -- stages and slot construction -------------------------------------------------

# The menu settings of the latest search, and the menus kept under them:
# None until a second search runs under the same settings.
_kept: tuple[object, dict[tuple, _Menu] | None] = ((), None)


def _menus_for(budget: SearchBudget) -> dict[tuple, _Menu] | None:
    """The menus a search under ``budget`` reuses and keeps, or None to keep none.

    The menu settings, every field but the node cap and time limit, key them.
    A search under other settings than the latest search's drops the kept
    menus and keeps none itself; the next one under the same settings starts
    keeping them.  So the process holds the menus of one set of settings.
    """
    global _kept
    settings = replace(budget, time_limit=0.0, max_nodes=0)
    if _kept[0] != settings:
        _kept = (settings, None)
    elif _kept[1] is None:
        _kept = (settings, {})
    return _kept[1]


def _menu(state: _State, key: tuple, build: Callable[[], _Menu]) -> _Menu:
    """The menu under ``key``, built on a miss; a search that keeps menus keeps it once complete.

    ``build`` checks the search's deadline; a build it stops keeps nothing.
    """
    if state.menus is None:
        return build()
    menu = state.menus.get(key)
    if menu is None:
        menu = state.menus[key] = build()
    return menu


def _finite_stages(sig: Signature, predicates: tuple[str, ...], state: _State) -> Iterator[_Stage]:
    """Per interval carrier: the template menus, then raw tables on tiny carriers."""
    budget, skipped = state.budget, False
    for lo, hi in budget.carriers:
        carrier, n = tuple(range(lo, hi + 1)), hi - lo + 1
        yield _finite_stage(sig, predicates, state, carrier, raw=False)
        if n <= budget.raw_table_max_size and all(
            len(args) <= RAW_TABLE_MAX_ARITY for args, _ in sig.functions.values()
        ):
            # A menu larger than the node cap could never be searched through, and
            # building it could exhaust memory first: its stage is skipped, and the
            # search ends at the cap once the later carriers have been searched.
            sizes = [n ** (n ** len(args)) for args, _ in sig.functions.values()]
            if predicates:
                sizes.append(2 ** (n * n))
            if max(sizes, default=0) > budget.max_nodes:
                skipped = True
                continue
            yield _finite_stage(sig, predicates, state, carrier, raw=True)
    if skipped:
        raise _Stop("budget exhausted: candidate cap")


def _finite_stage(
    sig: Signature, predicates: tuple[str, ...], state: _State, carrier: tuple[int, ...], raw: bool
) -> _Stage:
    """The template or, with ``raw``, the raw-table stage on ``carrier``, built the same way.

    From distinct predicate selectors, a row of successor indices per value of
    ``carrier``, and per arity table rows, values at ``product(carrier, repeat=arity)``.
    """
    # Menus over a wide carrier can take longer to build than the time limit.
    budget, deadline, n = state.budget, state.deadline, len(carrier)
    kind = "raw" if raw else "template"

    def predicate_menu() -> _Menu:
        if raw:
            selectors: Iterable[tuple] = (
                tuple(tuple(j for j in range(n) if m >> (i * n + j) & 1) for i in range(n))
                for m in range(1 << n * n)
            )
        else:
            # The symbolic relations' extensions; a Z² twin has its twin's on every carrier.
            selectors = (_relation_rows(relation, carrier) for relation in _relations())
        maps, seen = [], set()
        # Rows repeat across candidates, so each distinct row has one successor set.
        successors = functools.cache(lambda row: frozenset(carrier[j] for j in row))
        for selector in selectors:
            _check_deadline(deadline)
            if selector not in seen:  # an extension keeps its first place
                seen.add(selector)
                maps.append({x: successors(row) for x, row in zip(carrier, selector)})
        return _Menu(maps, lambda k: frozenset((x, y) for x, ys in maps[k].items() for y in ys))

    def tables(arity: int) -> _Menu:
        # A unary table is keyed by the int itself, a wider one by the tuple.
        keys = carrier if arity == 1 else list(itertools.product(carrier, repeat=arity))
        if raw:
            rows: Iterable[tuple] = itertools.product(carrier, repeat=n**arity)
        else:
            rows = _template_rows(arity, carrier, budget, deadline)
        out = []
        for row in rows:
            _check_deadline(deadline)
            out.append(dict(zip(keys, row)))
        unary = lambda k: {(x,): v for x, v in out[k].items()}  # noqa: E731
        return _Menu(out, unary if arity == 1 else out.__getitem__)

    slots = _slots(
        sig,
        predicates,
        _menu(state, (kind, carrier), predicate_menu),
        _Menu(carrier, lambda k: {(): carrier[k]}),
        lambda arity: _menu(state, (kind, carrier, arity), functools.partial(tables, arity)),
    )
    return _Stage(slots, carrier, FiniteStructure, carrier)


def _symbolic_stages(
    sig: Signature, predicates: tuple[str, ...], state: _State
) -> Iterator[_Stage]:
    """Per ray carrier: unclamped affine functions, checked on the ray's first integers."""
    relations = _relations()  # the same predicate menu for every carrier
    menu = _Menu(relations, lambda k: _relation_interp(relations[k]))
    for lo in state.budget.ray_carriers:
        def functions(arity: int) -> _Menu:  # kept per ray and arity
            build = functools.partial(_affine_candidates, arity, lo, state.budget, state.deadline)
            return _menu(state, ("affine", lo, arity), build)
        slots = _slots(sig, predicates, menu, functions(0), functions)
        yield _Stage(slots, tuple(range(lo, lo + 4)), SymbolicStructure, Interval(lo))


def _slot_order(sig: Signature, predicates: tuple[str, ...]) -> tuple[str, ...]:
    """The slots' names in search order: predicates, then constants, then functions."""
    functions = sig.functions
    return (*predicates, *sorted(functions, key=lambda name: bool(functions[name][0])))


def _slots(
    sig: Signature,
    predicates: tuple[str, ...],
    predicate_menu: _Menu,
    constant_menu: _Menu,
    function_menu: Callable[[int], _Menu],
) -> list[_Slot]:
    """The slots, each with its menu, in the order of _slot_order."""
    function_menu = functools.cache(function_menu)  # one menu per arity

    def menu(name: str) -> _Menu:
        if name not in sig.functions:
            return predicate_menu
        arity = len(sig.functions[name][0])
        return function_menu(arity) if arity else constant_menu

    return [_Slot(name, menu(name)) for name in _slot_order(sig, predicates)]


# The order relations as pair templates ``a*x + b*y <= c`` over the integers.
_PAIR_FORMS = {"<=": (1, -1, 0), ">=": (-1, 1, 0), "<": (1, -1, -1), ">": (-1, 1, -1)}
_ORDER_RELATIONS = {form: rel for rel, form in _PAIR_FORMS.items()}


@functools.cache
def _relations() -> tuple[tuple[bool, int, int, int], ...]:
    """The menu relations ``(e, a, b, c)``, ``x = y`` if ``e`` else ``a*x + b*y <= c``, each over Z² once.

    ``a*x + b*y <= c`` is the relation of ``a/g*x + b/g*y <= floor(c/g)``
    for ``g = gcd(a, b)``, and ``0*x + 0*y <= c`` holds everywhere or
    nowhere.  A later twin tests like the first on every grid and verifies
    as it does, so dropping it cannot change the first verified candidate.
    """
    relations = [(rel == "=", *_PAIR_FORMS.get(rel, (0, 0, 0))) for rel in BASE_RELATIONS]
    relations += [(False, *p) for p in itertools.product(PAIR_COEFFS, PAIR_COEFFS, PAIR_CONSTS)]
    first: dict[object, tuple] = {}
    for e, a, b, c in relations:
        g = math.gcd(a, b)
        first.setdefault("=" if e else (a // g, b // g, c // g) if g else c >= 0, (e, a, b, c))
    return tuple(first.values())


def _relation_interp(relation: tuple[bool, int, int, int]) -> PredicateInterp:
    """A menu relation as an interpretation; one with an order relation's template is that relation."""
    e, a, b, c = relation
    x, y = AffineForm.variable("x"), AffineForm.variable("y")
    rel = "=" if e else _ORDER_RELATIONS.get((a, b, c))  # the order relations come first
    if rel is None:
        x, rel, y = AffineForm.make({"x": a, "y": b}), "<=", AffineForm.const(c)
    return PredicateInterp(("x", "y"), compare(x, rel, y))


def _relation_rows(relation: tuple[bool, int, int, int], carrier: tuple[int, ...]) -> tuple[range, ...]:
    """A menu relation on an interval carrier by rows: per ``x``, the indices of its ``y``.

    Those are one point for ``x = y``, else a prefix, a suffix, all or none.
    """
    e, a, b, c = relation
    lo, n = carrier[0], len(carrier)
    if e:
        return tuple(range(i, i + 1) for i in range(n))
    if b > 0:  # y <= (c - a*x) / b
        return tuple(range(min(max((c - a * x) // b - lo + 1, 0), n)) for x in carrier)
    if b < 0:  # y >= (c - a*x) / b
        return tuple(range(min(max(-((c - a * x) // -b) - lo, 0), n), n) for x in carrier)
    return tuple(range(n if a * x <= c else 0) for x in carrier)


def _template_terms(arity: int, budget: SearchBudget, deadline: float) -> Iterator[tuple]:
    """The affine template terms of ``arity``, ``sum(coeffs[i] * x_i) + b`` as ``(coeffs, b)``."""
    rng = range(budget.coeff_min, budget.coeff_max + 1)
    for coeffs in itertools.product(rng, repeat=arity):
        for b in rng:
            _check_deadline(deadline)
            yield coeffs, b


def _template_rows(
    arity: int, carrier: tuple[int, ...], budget: SearchBudget, deadline: float
) -> list[tuple[int, ...]]:
    """The rows of the carrier-clamped affine tables, in menu order, each once."""
    lo, hi = carrier[0], carrier[-1]
    keys = list(itertools.product(carrier, repeat=arity))
    rows: dict[tuple[int, ...], None] = {}
    for coeffs, b in _template_terms(arity, budget, deadline):
        row = tuple(min(max(sum(map(operator.mul, coeffs, key)) + b, lo), hi) for key in keys)
        rows[row] = None  # a repeated row keeps its first place
    return list(rows)


def _affine_candidates(arity: int, lo: int, budget: SearchBudget, deadline: float) -> _Menu:
    """Affine functions that map the ray from ``lo`` into itself; constants at arity 0."""
    # No negative slope, and the value at the ray's infimum stays inside.
    fast = [
        (*coeffs, b) if arity else b for coeffs, b in _template_terms(arity, budget, deadline)
        if min(coeffs, default=0) >= 0 and sum(coeffs) * lo + b >= lo
    ]
    params = tuple(f"x{i + 1}" for i in range(arity))

    def interp(k: int) -> PiecewiseFunction:
        *coeffs, b = fast[k] if arity else (fast[k],)
        return PiecewiseFunction.affine(params, AffineForm.make(dict(zip(params, coeffs)), b))

    return _Menu(fast, interp)


# -- staged depth-first search ----------------------------------------------------


def _compile_checks(
    theory: Theory, obligations: tuple[HornClause, ...], spelling: str, order: tuple[str, ...]
) -> list[tuple[frozenset[str], _Refuter]]:
    """Each check with the symbols its code reads, obligations first, less its sort atoms.

    They hold by construction of the candidates, so a clause with a sort head,
    which can never refute, is left out (the verifier still checks both).
    Each is staged at its own slot in the slot ``order``.
    """
    checks = [
        (c.variables, tuple(a for a in c.body if sort_of_predicate(a.predicate) is None), c.head)
        for c in (*obligations, *theory.clauses)
        if c.head is None or sort_of_predicate(c.head.predicate) is None
    ]
    return [(symbols, refuted) for symbols, _, refuted in (_compile_check(*c, spelling, order) for c in checks)]


def _search(
    slots: list[_Slot],
    checks: list[tuple[frozenset[str], _Refuter]],
    state: _State,
    points: tuple[int, ...],
    finish: Callable[[dict[str, int]], Certificate | frozenset[str]],
) -> Certificate | None:
    """Hand ``finish`` each complete candidate, an index per slot, until it accepts one.

    ``finish`` returns what it accepts, or the slots its rejection conflicts with.
    """
    position = {slot.name: index for index, slot in enumerate(slots)}
    # A node's checks loop over the grid, so a wide grid checks the deadline
    # more often: every 256 nodes up to 4 points, every node from 46, and
    # from 46 also at each value a check's loop takes from the grid or from
    # a staged check's rows.
    stride = max(1, min(256, 4096 // max(1, len(points)) ** 2))
    grid: Callable[[Iterable], tuple] = tuple
    if stride == 1:
        grid = functools.partial(_TimedGrid, deadline=state.deadline)
        points = grid(points)
    # A check's memo maps a candidate index at its slot to the conflict bits a
    # rejection adds, ``reads``, the bit set of the earlier slots the check
    # reads, or to -1 for a pass.  It is cleared on entering ``level``, the
    # slot after the latest of them (slot 0, entered once per stage, if none).
    # A staged check's memo also keeps its prefix's rows, under None.
    attached: list[list[tuple[int, dict, _Refuter, int]]] = [[] for _ in slots]
    resets: list[list[dict]] = [[] for _ in slots]  # the memos each slot's entry clears
    for symbols, refuted in checks:
        index = _latest_slot(position, symbols)
        if index is not None:
            earlier = {position[s] for s in symbols} - {index}
            level = max(earlier, default=-1) + 1
            memo: dict = {}
            if getattr(refuted, "prefix", None) is not None:
                refuted = _staged(refuted, memo, grid)
            attached[index].append((level, memo, refuted, sum(1 << i for i in earlier)))
            resets[level].append(memo)
    # Longest-kept memos first; the sort is stable, so obligations stay first within a level.
    checks_by_slot: list[list[tuple[dict, _Refuter | None, int]]] = [
        [(memo, refuted, reads) for _, memo, refuted, reads in sorted(here, key=lambda c: c[0])]
        for here in attached
    ]
    # A slot's learned nogoods by reset level: memos with no check behind them,
    # ahead of its checks in the order they were made.
    learned: list[dict[int, dict[int, int]]] = [{} for _ in slots]

    env: dict[str, object] = {}
    chosen: dict[str, int] = {}
    # Nodes are counted in a local; ``state.count`` is the cap and deadline
    # check, called only once ``nodes`` reaches ``limit``.
    nodes = state.nodes
    limit = min(state.check_at, state.budget.max_nodes + 1)
    # The walk keeps, per slot on the current path, its candidate iterator
    # and the conflict set gathered from its rejected candidates so far.
    remaining: list[Iterator[tuple[int, object]]] = [iter(())] * len(slots)
    conflicts = [0] * len(slots)

    def enter(index: int) -> None:
        for memo in resets[index]:
            memo.clear()
        remaining[index] = enumerate(slots[index].menu.fast)
        conflicts[index] = 0

    index = 0
    if slots:
        enter(0)
    while True:
        if index == len(slots):
            nodes += 1
            if nodes >= limit:
                limit = state.count(nodes, stride)
            found = finish(chosen)
            if isinstance(found, Certificate):
                state.nodes = nodes
                return found
            failed = sum(1 << position[name] for name in found)
        else:
            name = slots[index].name
            here = checks_by_slot[index]
            gathered = conflicts[index]
            passed = None
            for k, fast in remaining[index]:
                nodes += 1
                if nodes >= limit:
                    limit = state.count(nodes, stride)
                # ``env`` gets the candidate only for a check computed here,
                # and for the slots after it once it passes.
                for memo, refuted, reads in here:
                    bits = memo.get(k)
                    if bits is None:
                        if refuted is None:
                            continue  # a nogood that does not name the candidate
                        env[name] = fast
                        bits = memo[k] = reads if refuted(env, points) else -1
                    if bits >= 0:
                        gathered |= bits
                        break
                else:
                    env[name] = fast
                    passed = k
                    break
            conflicts[index] = gathered
            if passed is not None:
                chosen[name] = passed
                index += 1
                if index < len(slots):
                    enter(index)
                continue
            failed = gathered  # every candidate of the slot is rejected
        # Back to the latest slot in the conflict set: no value of the slots
        # after it can undo the failure.  Nothing in the set: the stage fails.
        index = failed.bit_length() - 1
        if index < 0:
            state.nodes = nodes
            return None
        rest = failed ^ (1 << index)
        conflicts[index] |= rest
        # The set is a nogood: learn the slot's candidate as rejected while the
        # slots up to the latest in ``rest`` keep their values.  At the slot's
        # own level it would be dropped on its next entry anyway.
        level = rest.bit_length()
        if level < index:
            records = learned[index].get(level)
            if records is None:
                records = learned[index][level] = {}
                checks_by_slot[index].insert(len(learned[index]) - 1, (records, None, 0))
                resets[level].append(records)
            records[chosen[slots[index].name]] = rest


def _staged(refuted: _Refuter, memo: dict, grid: Callable[[Iterable], tuple]) -> _Refuter:
    """A staged check over its prefix's rows, computed at its memo's first miss and kept there.

    The prefix reads only the grid and earlier slots that the check reads,
    so its rows hold until a change of one clears the memo.
    """
    prefix = refuted.prefix  # type: ignore[attr-defined]

    def staged(env: Mapping[object, object], points: tuple[int, ...]) -> tuple[int, ...] | bool:
        rows = memo.get(None)
        if rows is None:
            rows = memo[None] = grid(prefix(env, points))
        return refuted(env, points, rows)  # type: ignore[call-arg]

    return staged


class _TimedGrid(tuple):
    """Values, a wide grid or the rows staged on one, that check ``deadline`` as each is yielded.

    So one long check call stops.
    """

    deadline: float

    def __new__(cls, values: Iterable, deadline: float) -> _TimedGrid:
        timed = super().__new__(cls, values)
        timed.deadline = deadline
        return timed

    def __iter__(self) -> Iterator:
        for value in tuple.__iter__(self):
            _check_deadline(self.deadline)
            yield value


def _latest_slot(position: Mapping[str, int], symbols: set[str]) -> int | None:
    indices = [position[s] for s in symbols if s in position]
    if len(indices) < len(symbols):
        return None  # mentions a symbol the search does not interpret
    return max(indices) if indices else None


# -- candidate completion -----------------------------------------------------------


def _finish(
    stage: _Stage,
    sig: Signature,
    chosen: Mapping[str, int],
    theory: Theory,
    obligations: tuple[HornClause, ...],
) -> Certificate | frozenset[str]:
    """``chosen``'s certificate, if the verifier accepts it: the only place interpretations are built.

    Otherwise the slots read by one check that did not hold: a closure
    violation reads its function, a clause or obligation the slot keys of
    its compiled code.  A symbol that is not a slot, such as a sort test's
    carrier, is fixed for the stage.  Of those checks, the one whose latest
    slot comes first is taken, the first in ``verify``'s order among ties.
    """
    interps = {slot.name: slot.menu.interp(chosen[slot.name]) for slot in stage.slots}
    structure = stage.structure_class(
        sig,
        {sort: stage.carrier for sort in sig.sorts},
        {name: interps[name] for name in sig.functions},
        {name: interp for name, interp in interps.items() if name in BUILTIN_PREDICATES},
    )
    certificate = verify(theory, obligations, structure)
    if certificate.overall == VERIFIED:
        return certificate
    position = {slot.name: index for index, slot in enumerate(stage.slots)}
    checks = zip((*theory.clauses, *obligations), certificate.verdicts)
    failed = [{v.symbol} for v in certificate.closure_violations]
    failed += [_compile_check(c.variables, c.body, c.head, CALL)[0] for c, v in checks if v.status != HOLDS]
    reads = [position.keys() & symbols for symbols in failed]
    return frozenset(min(reads, key=lambda slots: max(map(position.get, slots), default=-1)))
