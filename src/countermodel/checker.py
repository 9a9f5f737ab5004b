"""Decide whether a structure models a theory and satisfies all obligations.

An obligation is a headless clause ``body => false`` (the negation of one
disjunct of an existential positive query), so clauses and obligations go
through one check, ``check_clause(structure, clause)``.  A candidate valuation
fails a check only once direct evaluation confirms it (``_refutation``);
one it cannot confirm yields "unknown", so the checker never overclaims.

A finite check is compiled to Python (see _check_source), as the finder's
pruning checks are: each variable loops over the sorted union of the
carriers and is first tested for its sort, so the first refuting valuation
is the lexicographically first over the per-sort carriers.  A table that
misses (a kind-level term outside its domain) makes the check "unknown".
A symbolic check holds when, for every choice of function guard cases and
every goal, the system "carrier bounds and guards and body constraints and
goal" is infeasible: one goal per negated inequality of a clause's head,
the single empty goal for an obligation.  The choices are walked as a
tree that cuts every extension of an infeasible one; a feasible system
proposes the linear kernel's integer witness.
"""
from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .errors import ModelError
from .linear import LinearConstraint, drop_constant_rows, integer_tighten, solve
from .logic import Atom, HornClause, Theory, sort_of_predicate, sort_predicate
from .structures import (
    ClauseLowering,
    ClosureViolation,
    FiniteStructure,
    Structure,
    SymbolicStructure,
    closure_check,
    eval_atom,
    table_value,
)
from .terms import Term, Var, term_vars

HOLDS = "holds"
FAILS = "fails"
UNKNOWN = "unknown"

VERIFIED = "verified"
REFUTED = "refuted"


@dataclass(frozen=True)
class Verdict:
    status: str
    witness: tuple[tuple[str, int], ...] | None = None
    reason: str | None = None

    def __str__(self) -> str:
        if self.status == FAILS and self.witness is not None:
            binding = ", ".join(f"{n}={v}" for n, v in self.witness)
            return f"fails [{binding}]"
        if self.status == UNKNOWN and self.reason:
            return f"unknown ({self.reason})"
        return self.status


@dataclass(frozen=True)
class Certificate:
    """A re-checkable record of one verification run.

    ``verdicts`` has one per clause, then one per obligation.  ``overall`` is
    "verified" only when closure holds and every verdict is "holds"; any
    failure makes it "refuted" and any unresolved check makes it "unknown".
    """

    theory: Theory
    obligations: tuple[HornClause, ...]
    structure: Structure
    closure_violations: tuple[ClosureViolation, ...]
    verdicts: tuple[Verdict, ...]
    overall: str

    def first_failure(self) -> str | None:
        """Human-readable pointer to the first failing check, if any."""
        for violation in self.closure_violations:
            if violation.certain:
                return f"closure: {violation}"
        for clause, verdict in zip((*self.theory.clauses, *self.obligations), self.verdicts):
            if verdict.status == FAILS:
                kind = "obligation" if clause.head is None else f"clause [{clause.tag}]"
                return f"{kind} {clause}: {verdict}"
        return None


def verify(
    theory: Theory, obligations: Iterable[HornClause], structure: Structure
) -> Certificate:
    """Closure check, then every clause, then every obligation."""
    obligations = tuple(obligations)
    violations = closure_check(structure)
    if any(v.certain for v in violations):
        return Certificate(theory, obligations, structure, violations, (), REFUTED)
    clauses = [check_clause(structure, c) for c in theory.clauses]
    verdicts = (*clauses, *(check_obligation(structure, ob) for ob in obligations))
    statuses = [v.status for v in verdicts]
    overall = REFUTED if FAILS in statuses else UNKNOWN if violations or UNKNOWN in statuses else VERIFIED
    return Certificate(theory, obligations, structure, violations, verdicts, overall)


# -- one check for clauses and obligations (headless clauses) ------------------------


def _refutes(structure: Structure, valuation: Mapping[str, int], clause: HornClause) -> bool:
    """Whether the valuation makes every body atom true and the head (if any) false."""
    return all(eval_atom(structure, valuation, a) for a in clause.body) and (
        clause.head is None or not eval_atom(structure, valuation, clause.head)
    )


def _refutation(structure: Structure, witness: tuple, clause: HornClause, proposer: str) -> Verdict:
    """The check fails at the candidate ``witness`` once evaluation confirms it there."""
    try:
        if _refutes(structure, dict(witness), clause):
            return Verdict(FAILS, witness=witness)
    except ModelError:
        pass  # e.g. a guard gap outside the declared carriers: not confirmed
    return Verdict(UNKNOWN, reason=f"{proposer} not confirmed by evaluation")


def check_clause(structure: Structure, clause: HornClause) -> Verdict:
    """Whether ``clause``, or an obligation as a headless clause, holds in ``structure``."""
    if not isinstance(structure, FiniteStructure):
        return _check_symbolic(structure, clause)
    # Each variable is tested for its sort before anything else at its loop.
    sorts = (Atom(sort_predicate(v.sort), (v,)) for v in clause.variables)
    tests = tuple(dict.fromkeys((*sorts, *clause.body)))
    keys, names, refuted = _compile_check(clause.variables, tests, clause.head, CALL)
    points = tuple(sorted(set().union(*structure.carriers.values())))
    try:
        env = {key: _finite_value(structure, key) for key in keys}
        found = refuted(env, points)
    except ModelError as exc:  # a table silent on a kind-level term
        return Verdict(UNKNOWN, reason=str(exc))
    if found is False:
        return Verdict(HOLDS)
    return _refutation(structure, tuple(zip(names, found)) if names else (), clause, "valuation")


check_obligation = check_clause  # the name ``verify`` checks obligations under


def _finite_value(structure: FiniteStructure, key: object) -> object:
    """What a compiled check in the call spelling reads for slot ``key``."""
    if isinstance(key, tuple):  # (SORT, sort): a sort test reads the carrier
        return frozenset(structure.carrier(key[1])).__contains__
    if key in structure.signature.functions:
        table = structure.interp(key, "function")
        if not structure.signature.functions[key][0]:
            return table_value(key, table, ())  # a constant is read, not called
        return lambda *args: table_value(key, table, args)
    pairs = structure.interp(key, "predicate")
    return lambda *args: args in pairs


# -- symbolic backend ------------------------------------------------------------


def _check_symbolic(structure: SymbolicStructure, clause: HornClause) -> Verdict:
    """One system per guard-case choice left and goal; the check holds when all are infeasible.

    An obligation has one empty goal; a clause has one goal per negated head
    inequality.  The body is lowered before the head, which numbers the
    applications and so fixes the order of the choices (``leaves``); the
    systems follow in that order, goal by goal within a choice, and one
    with a false constant row is infeasible without a solve.  A feasible
    system proposes the kernel's integer witness to ``_refutation``.
    """
    body, head = clause.body, clause.head
    lowering = ClauseLowering(structure, clause.variables, body if head is None else (*body, head))
    unknown: Verdict | None = None
    for forms, guards in lowering.leaves():
        rows = drop_constant_rows(c for a in body for c in lowering.atom_constraints(a, forms))
        if rows is None:
            continue
        goals: list[list[LinearConstraint]] = [[]]
        if head is not None:  # no goal at all when the head is the trivially true relation
            negated = (drop_constant_rows([c.negate()]) for c in lowering.atom_constraints(head, forms))
            goals = [goal for goal in negated if goal is not None]
        for goal in goals:
            outcome = solve(integer_tighten(lowering.system(guards + rows + goal)))
            if outcome.status == "infeasible":
                continue
            if outcome.status == "unknown":
                unknown = unknown or Verdict(UNKNOWN, reason=outcome.reason)
                continue
            witness = tuple(sorted(outcome.witness.items()))
            verdict = _refutation(structure, witness, clause, "kernel witness")
            if verdict.status == FAILS:
                return verdict
            unknown = unknown or verdict
    return unknown or Verdict(HOLDS)


# -- compiled checks ------------------------------------------------------------

# refuted(env, points): the first valuation over the grid refuting the check
# under the slot values in env, as its loop variables' values (True with none), or False.
_Refuter = Callable[[Mapping[object, object], tuple[int, ...]], "tuple[int, ...] | bool"]

# A slot key says what it reads: a function's or rewriting predicate's name, or (SORT, sort).
SORT = "sort"

# How a compiled check reads its slots (see _check_source).
TABLES, CALL, INLINE = "tables", "call", "inline"

# Python rejects more than 20 statically nested blocks, so variables past
# this many share one ``product`` loop.
_OWN_LOOPS = 16

# A generated name a line reads: a slot value (an INLINE slot's unpacked
# names read as their slot's), a variable or a temporary.
_NAME = re.compile(r"\b[stv]\d+")


# Keyed on the check and slot order, so a warm process only looks it up; a corpus pass has
# over 128 checks.
@functools.lru_cache(maxsize=1024)
def _compile_check(
    variables: tuple[Var, ...],
    body: tuple[Atom, ...],
    head: Atom | None,
    spelling: str,
    order: tuple[str, ...] = (),
) -> tuple[frozenset[object], tuple[str, ...], _Refuter]:
    """Compile the check ``body => head`` (``head=None``: an obligation) to Python.

    The result decides exact grid falsification.  Spelled ``TABLES``, the grid
    must be the whole carrier the candidates were built over, since a driven
    loop (see _check_source) runs over a successor set instead of
    ``points``.  ``order`` is the finder's slot order, which fixes where the
    check is staged (see _check_source); the checker passes none.  Returns
    the slot keys the code reads, its loop variables and ``refuted``.
    """
    source, keys, names = _check_source(variables, body, head, spelling, order)
    namespace = {"product": itertools.product, **{f"n{i}": key for i, key in enumerate(keys)}}
    exec(compile(source, "<compiled check>", "exec"), namespace)
    return frozenset(keys), names, namespace["refuted"]  # type: ignore[return-value]


def _check_source(
    variables: tuple[Var, ...],
    body: tuple[Atom, ...],
    head: Atom | None,
    spelling: str,
    order: tuple[str, ...] = (),
) -> tuple[str, tuple[object, ...], tuple[str, ...]]:
    """The source of ``refuted`` for :func:`_compile_check`, its slot keys in order and its loop variables.

    ``refuted(env, points)`` reads slot ``sK = env[nK]``, the global ``nK``
    being its key, so no symbol name enters the source.  The identifiers are
    generated: ``nK`` keys, ``sK`` slot values, ``vK`` variables, ``tK``
    subterms.  Each distinct subterm is computed once, and each atom is
    tested, in the innermost loop binding its last variable; ground ones
    before any loop.  Terms become temporaries, never nested applications,
    so depth is not limited by the parser.  A constant's slot is its value;
    the ``spelling`` says how the others are read:

    - ``CALL``: called, ``s0(t0)`` and ``s1(t0, t1)``; sort atoms are tested too.
    - ``TABLES`` (the finder's finite candidates, tables and successor maps
      ``{x: frozenset(ys)}``): ``s0[t0]`` or ``s0[(t0, t1)]``, and ``t1 in
      s1[t0]``.  A loop binding one variable ``v`` is driven by the first body
      atom ``P(t, v)`` whose ``t`` is bound at a lower level: ``for v in
      s1[t]:`` replaces ``for v in points:`` and that atom's test, exact on
      the stage carrier.  ``P(v, v)``, the head and ``product`` never drive.
    - ``INLINE`` (the finder's symbolic candidates, ``(a1, ..., an, b)`` for
      ``a1*x1 + ... + an*xn + b``, ``(e, a, b, c)`` for ``x = y`` if ``e``,
      else ``a*x + b*y <= c``), unpacked once before the loops (``s0_0, s0_k
      = env[n0]``): ``s0_0 * t0 + s0_k`` and ``(t0 == t1 if s1_e else s1_a *
      t0 + s1_b * t1 <= s1_c)``.

    A check is staged at its own slot, the latest of its slots in ``order``:
    cut before the first level whose header or lines read it, and before
    the levels just above it that read nothing, when the levels from the
    cut on read exactly one value of the earlier ones, a subterm (no
    variable bound before the cut).  The earlier levels become
    a generator, ``prefix(env, points)``, of that subterm's distinct values
    in order of first occurrence, each with the first values of the
    earlier loops' variables.  ``refuted(env, points, rows=None)`` then
    loops over those rows, ``prefix``'s unless given, in place of the
    earlier loops, and carries ``prefix`` as ``refuted.prefix``.  Each row
    stands for every earlier valuation with its value, and none before its
    first refutes if the first does not, so the first refuting valuation is
    unchanged.  ``prefix`` reads no slot at or after the own slot, so the
    finder computes its rows once per verdict memo.  Any other check is
    one function, ``refuted(env, points)``.
    """
    tested = [*body, *(() if head is None else (head,))]
    tested_vars = [{v.name for v in term_vars(*atom.args)} for atom in tested]
    occurring = set().union(*tested_vars)
    names = list(dict.fromkeys(v.name for v in variables))
    loop_names = [name for name in names if name in occurring]
    level = {name: min(i, _OWN_LOOPS) + 1 for i, name in enumerate(loop_names)}
    local = {name: f"v{i}" for i, name in enumerate(loop_names)}
    depth = min(len(loop_names), _OWN_LOOPS + 1)
    lines: list[list[str]] = [[] for _ in range(depth + 1)]  # 0 is before any loop
    drivers: dict[int, str] = {}  # level -> the successor set its loop runs over
    slots: dict[object, str] = {}  # slot key -> its local, sK
    unpacked: dict[str, str] = {}  # an INLINE slot's local -> the names it is unpacked to
    temps: dict[str, tuple[str, int]] = {}  # call text -> (temporary, level)

    def slot(key: object) -> str:
        return slots.setdefault(key, f"s{len(slots)}")

    def test(predicate: str) -> object:  # the slot key of an atom's predicate
        sort = sort_of_predicate(predicate)
        return predicate if sort is None else (SORT, sort)

    def apply(key: object, values: list[tuple[str, int]], atom: bool) -> tuple[str, int]:
        """(expression, level) of slot ``key`` applied to ``values``, in the stage's spelling."""
        args, s = [name for name, _ in values], slot(key)
        if spelling == CALL:
            text = f"{s}({', '.join(args)})"
        elif spelling == INLINE and atom:
            unpacked[s] = f"{s}_e, {s}_a, {s}_b, {s}_c"
            x, y = args
            text = f"({x} == {y} if {s}_e else {s}_a * {x} + {s}_b * {y} <= {s}_c)"
        elif spelling == INLINE:
            unpacked[s] = ", ".join([*(f"{s}_{i}" for i in range(len(args))), f"{s}_k"])
            text = " + ".join([*(f"{s}_{i} * {arg}" for i, arg in enumerate(args)), f"{s}_k"])
        elif atom:
            text = f"{args[1]} in {s}[{args[0]}]"
        else:
            index = args[0] if len(args) == 1 else f"({', '.join(args)})"
            text = f"{s}[{index}]"
        return text, max((lvl for _, lvl in values), default=0)

    def value(term: Term) -> tuple[str, int]:
        """(expression, level) of a term, walked without recursion so depth is unbounded."""
        done: list[tuple[str, int]] = []
        todo: list[tuple[Term, bool]] = [(term, False)]
        while todo:
            t, expanded = todo.pop()
            if isinstance(t, Var):
                done.append((local[t.name], level[t.name]))
            elif not t.args:
                done.append((slot(t.symbol), 0))
            elif not expanded:
                todo.append((t, True))
                todo.extend((a, False) for a in reversed(t.args))
            else:
                text, lvl = apply(t.symbol, done[-len(t.args):], atom=False)
                del done[-len(t.args):]
                if text not in temps:
                    temps[text] = (f"t{len(temps)}", lvl)
                    lines[lvl].append(f"{temps[text][0]} = {text}")
                done.append(temps[text])
        return done[0]

    # Lower-level atoms first, so they prune before deeper subterms are
    # computed; zip stops before the head.
    ordered = sorted(zip(body, tested_vars), key=lambda av: max(map(level.get, av[1]), default=0))
    for atom, _ in ordered:
        values = [value(a) for a in atom.args]
        if spelling == TABLES and len(values) == 2 and isinstance(atom.args[1], Var):
            k = level[atom.args[1].name]
            if values[0][1] < k <= _OWN_LOOPS and k not in drivers:
                drivers[k] = f"{slot(test(atom.predicate))}[{values[0][0]}]"
                continue
        text, lvl = apply(test(atom.predicate), values, atom=True)
        lines[lvl].append(f"if not {text}: " + ("continue" if lvl else "return False"))
    found = f"({', '.join(local[name] for name in loop_names)},)" if loop_names else "True"
    head_test = ""
    if head is not None:
        head_test, _ = apply(test(head.predicate), [value(a) for a in head.args], atom=True)
    # The names each level's header and lines read, less the valuation returned.
    reads = [set(_NAME.findall(" ".join([drivers.get(k, ""), *lines[k]]))) for k in range(depth + 1)]
    reads[depth].update(_NAME.findall(head_test))
    lines[depth].append(f"if not {head_test}: return {found}" if head is not None else f"return {found}")

    # Staging: cut before the first level reading the own slot, the latest slot in
    # ``order``, and before the levels just above it that read nothing.
    own = slots.get(max((key for key in slots if key in order), key=order.index, default=None))
    cut = next((k for k in range(depth + 1) if own in reads[k]), 0)
    while cut > 1 and not reads[cut - 1]:
        cut -= 1
    outer = [local[name] for name in loop_names if level[name] < cut]
    computed = {t for t, lvl in temps.values() if 0 < lvl < cut}
    later = set().union(*reads[cut:])
    carried = later & computed if not later & set(outer) else set()

    def unpack(levels: Iterable[int]) -> list[str]:
        used = set().union(*(reads[k] for k in levels))
        return [f"    {unpacked.get(s, s)} = env[n{i}]" for i, s in enumerate(slots.values()) if s in used]

    def nest(first: int, last: int, indent: int) -> list[str]:
        """Levels ``first`` to ``last`` of the loop nest, the first one's header at ``indent``."""
        out = []
        for k in range(first, last + 1):
            bound = [local[name] for name in loop_names if level[name] == k]
            if len(bound) == 1:
                header = f"for {bound[0]} in {drivers.get(k, 'points')}:"
            else:
                header = f"for {', '.join(bound)} in product(points, repeat={len(bound)}):"
            pad = "    " * (indent + k - first)
            out += [pad + header, *(f"{pad}    {line}" for line in lines[k])]
        return out

    # An unused variable has no value on an empty grid.
    unused = ["    if not points: return False"] if len(loop_names) < len(names) else []
    ground = [f"    {line}" for line in lines[0]]
    if len(carried) != 1:
        source = ["def refuted(env, points):", *unpack(range(depth + 1)), *unused, *ground]
        source += [*nest(1, depth, 1), "    return False"]
    else:
        (kept,) = carried
        row, pad = ", ".join([kept, *outer]), "    " * cut
        source = ["def refuted(env, points, rows=None):", *unpack([0, *range(cut, depth + 1)]), *unused, *ground]
        source += ["    if rows is None: rows = prefix(env, points)", f"    for {row} in rows:"]
        source += [*nest(cut, depth, 2), "    return False"]
        source += ["def prefix(env, points):", *unpack(range(cut)), *ground, "    seen = set()", *nest(1, cut - 1, 1)]
        source += [f"{pad}if {kept} not in seen:", f"{pad}    seen.add({kept})", f"{pad}    yield {row}"]
        source.append("refuted.prefix = prefix")
    return "\n".join(source) + "\n", tuple(slots), tuple(loop_names)
