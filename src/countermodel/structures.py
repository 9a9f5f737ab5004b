"""Finite and symbolic piecewise-affine structures over the integers.

A structure is one record, ``Structure``: a signature, carriers for its
sorts and interpretations for its symbols, with one lookup of each that
names what is missing.  Its two subclasses differ only in what they hold
and how they normalise it.  A finite structure interprets each sort as an
explicit finite set of integers, each function symbol as a total table,
and each predicate as an explicit set of tuples.  A symbolic structure
interprets each sort as an ``Interval``: the integers ``[lo, hi]``, or
with no ``hi`` the ray ``{v >= lo}``; functions as guarded piecewise-affine
mappings (with clamping expanded into guard cases at construction time);
and predicates as conjunctions of linear inequalities over the argument
positions.  Either carrier, a value tuple or an interval, answers
``value in carrier``.  ``closure_check`` is one skeleton for both: the
carrier and subsort tests are shared, and only the check of each function
is per backend.

Evaluation follows structural recursion; for symbolic backends the module
also lowers atoms into exact linear constraint systems over the clause
variables, choosing one guard case per function application and
substituting its value, so the linear engine can decide them; the choices
are walked as a tree that cuts a subtree once its guards are infeasible.
The affine arithmetic itself (``AffineForm``, comparisons, negation,
substitution) belongs to ``linear``; ``AffineForm`` is re-exported here.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import ModelError
from .linear import AffineForm, ConstraintSystem, LinearConstraint, drop_constant_rows
from .linear import integer_tighten, solve
from .logic import Atom, sort_of_predicate
from .terms import App, Signature, Term, Var

# -- carriers -----------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """The integers from lo to hi inclusive; with no hi, the ray of integers >= lo."""

    lo: int
    hi: int | None = None

    def __post_init__(self) -> None:
        if self.hi is not None and self.lo > self.hi:
            raise ModelError(f"empty interval carrier [{self.lo}, {self.hi}]")

    def __contains__(self, value: int) -> bool:
        return self.lo <= value and (self.hi is None or value <= self.hi)


def carrier_subset(inner: Interval | tuple[int, ...], outer: Interval | tuple[int, ...]) -> bool:
    """Whether one carrier lies in another: two intervals, or two finite value tuples."""
    if isinstance(inner, tuple):
        return set(inner) <= set(outer)
    return inner.lo in outer and (outer.hi is None if inner.hi is None else inner.hi in outer)


def carrier_constraints(carrier: Interval, form: AffineForm) -> list[LinearConstraint]:
    """Linear constraints stating that the affine form lies in the carrier."""
    out = [form.negate().le(-carrier.lo)]
    if carrier.hi is not None:
        out.append(form.le(carrier.hi))
    return out


# -- interpretations -----------------------------------------------------------


@dataclass(frozen=True)
class PiecewiseCase:
    guard: tuple[LinearConstraint, ...]
    value: AffineForm


@dataclass(frozen=True)
class PiecewiseFunction:
    """Guarded piecewise-affine interpretation over named parameters.

    Guards must cover the carrier product and be pairwise disjoint; this is
    enforced by closure checking, not at construction.
    """

    params: tuple[str, ...]
    cases: tuple[PiecewiseCase, ...]

    @staticmethod
    def affine(params: Iterable[str], form: AffineForm) -> "PiecewiseFunction":
        return PiecewiseFunction(tuple(params), (PiecewiseCase((), form),))

    @staticmethod
    def clamped(
        params: Iterable[str], form: AffineForm, lo: int, hi: int
    ) -> "PiecewiseFunction":
        """``clamp(form, lo, hi)`` expanded into three affine guard cases."""
        if lo > hi:
            raise ModelError(f"clamp interval [{lo}, {hi}] is empty")
        below = form.le(lo, strict=True)
        at_least_lo = form.negate().le(-lo)
        at_most_hi = form.le(hi)
        above = form.negate().le(-hi, strict=True)
        cases = (
            PiecewiseCase((below,), AffineForm.const(lo)),
            PiecewiseCase((at_least_lo, at_most_hi), form),
            PiecewiseCase((above,), AffineForm.const(hi)),
        )
        return PiecewiseFunction(tuple(params), cases)

    def eval(self, args: tuple[int, ...]) -> int:
        assignment = dict(zip(self.params, args))
        for case in self.cases:
            if all(c.satisfied_by(assignment) for c in case.guard):
                return case.value.eval_int(assignment)
        raise ModelError(f"no guard case applies at {args}")


@dataclass(frozen=True)
class PredicateInterp:
    """A conjunction of linear inequalities over the argument positions."""

    params: tuple[str, ...]
    constraints: tuple[LinearConstraint, ...]

    def holds(self, args: tuple[int, ...]) -> bool:
        assignment = dict(zip(self.params, args))
        return all(c.satisfied_by(assignment) for c in self.constraints)


# -- the structure record --------------------------------------------------------


@dataclass(frozen=True)
class Structure:
    """Carriers for the sorts and interpretations for the symbols.

    A subclass per backend says what the mappings hold and normalises them.
    """

    signature: Signature
    carriers: Mapping[str, Interval | tuple[int, ...]]
    functions: Mapping[str, object]
    predicates: Mapping[str, object]

    def carrier(self, sort: str) -> Interval | tuple[int, ...]:
        if sort not in self.carriers:
            raise ModelError(f"no carrier for sort '{sort}'")
        return self.carriers[sort]

    def interp(self, symbol: str, kind: str) -> object:
        """The interpretation of ``symbol``, a "function" or a "predicate" by ``kind``."""
        found = (self.functions if kind == "function" else self.predicates).get(symbol)
        if found is None:
            raise ModelError(f"structure does not interpret {kind} '{symbol}'")
        return found


@dataclass(frozen=True)
class FiniteStructure(Structure):
    """Sorted value tuples as carriers, total tables as functions and sets of pairs as predicates."""

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "carriers", {s: tuple(sorted(set(v))) for s, v in self.carriers.items()}
        )
        object.__setattr__(self, "functions", {f: dict(t) for f, t in self.functions.items()})
        object.__setattr__(
            self, "predicates", {p: frozenset(t) for p, t in self.predicates.items()}
        )


@dataclass(frozen=True)
class SymbolicStructure(Structure):
    """``Interval`` carriers, ``PiecewiseFunction`` functions and ``PredicateInterp`` predicates."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "carriers", dict(self.carriers))
        object.__setattr__(self, "functions", dict(self.functions))
        object.__setattr__(self, "predicates", dict(self.predicates))


# -- evaluation ----------------------------------------------------------------


def table_value(symbol: str, table: Mapping[tuple[int, ...], int], args: tuple[int, ...]) -> int:
    """A finite function's value at ``args``; a table can be silent on kind-level terms."""
    try:
        return table[args]
    except KeyError:
        raise ModelError(f"table of '{symbol}' has no entry at {args}") from None


def eval_term(structure: Structure, valuation: Mapping[str, int], term: Term) -> int:
    """Value of a term under a valuation keyed by variable name."""
    if isinstance(term, Var):
        try:
            return valuation[term.name]
        except KeyError:
            raise ModelError(f"valuation does not cover variable '{term.name}'") from None
    args = tuple(eval_term(structure, valuation, a) for a in term.args)
    interp = structure.interp(term.symbol, "function")
    if isinstance(structure, FiniteStructure):
        return table_value(term.symbol, interp, args)
    return interp.eval(args)


def eval_atom(structure: Structure, valuation: Mapping[str, int], atom: Atom) -> bool:
    sort = sort_of_predicate(atom.predicate)
    if sort is not None:
        return eval_term(structure, valuation, atom.args[0]) in structure.carrier(sort)
    values = tuple(eval_term(structure, valuation, a) for a in atom.args)
    interp = structure.interp(atom.predicate, "predicate")
    if isinstance(structure, FiniteStructure):
        return values in interp
    return interp.holds(values)


# -- closure checking ----------------------------------------------------------


@dataclass(frozen=True)
class ClosureViolation:
    symbol: str
    detail: str
    point: tuple[int, ...] | None = None
    certain: bool = True

    def __str__(self) -> str:
        where = f" at {self.point}" if self.point is not None else ""
        return f"{self.symbol}: {self.detail}{where}"


def closure_check(structure: Structure) -> tuple[ClosureViolation, ...]:
    """Non-empty carriers, subsort inclusion, and totality and carrier closure of every function.

    A finite function is checked point by point over its argument carriers;
    a symbolic one with one linear feasibility query per guard case (plus
    guard disjointness and coverage).  An interval carrier is never empty, so it is always true.
    """
    sig = structure.signature
    violations = [ClosureViolation(s, "empty carrier") for s in sig.sorts if not structure.carrier(s)]
    for sub, sup in sig.subsort_pairs:
        if not carrier_subset(structure.carrier(sub), structure.carrier(sup)):
            violations.append(ClosureViolation(sub, f"carrier not included in '{sup}'"))
    per_function = _closure_finite if isinstance(structure, FiniteStructure) else _closure_symbolic
    for name in sig.functions:
        interp = structure.functions.get(name)
        if interp is None:
            violations.append(ClosureViolation(name, "missing interpretation"))
        else:
            violations.extend(per_function(structure, name, interp))
    return tuple(violations)


def _closure_finite(
    structure: FiniteStructure, name: str, table: Mapping[tuple[int, ...], int]
) -> Iterator[ClosureViolation]:
    """Each point of the argument carriers has a table entry in the result carrier."""
    arg_sorts, result = structure.signature.functions[name]
    result_carrier = set(structure.carrier(result))
    for point in itertools.product(*(structure.carrier(s) for s in arg_sorts)):
        if point not in table:
            yield ClosureViolation(name, "table has no entry", point)
        elif table[point] not in result_carrier:
            yield ClosureViolation(name, f"value {table[point]} outside carrier of '{result}'", point)


def _closure_symbolic(
    structure: SymbolicStructure, name: str, interp: PiecewiseFunction
) -> Iterator[ClosureViolation]:
    """Each guard case stays in the result carrier, no two overlap, and together they cover."""
    arg_sorts, result = structure.signature.functions[name]
    params = interp.params
    bounds = tuple(
        c
        for p, s in zip(params, arg_sorts)
        for c in carrier_constraints(structure.carrier(s), AffineForm.variable(p))
    )

    def probe(extra, detail, unknown_prefix="", at_point=True) -> tuple[ClosureViolation, ...]:
        """A certain violation at the kernel's integer witness of the bounds and ``extra``.

        An "unknown" system gives an uncertain violation naming the reason.
        """
        outcome = solve(integer_tighten(ConstraintSystem(params, bounds + extra)))
        if outcome.status == "feasible":
            at = tuple(outcome.witness[p] for p in params) if at_point else None
            return (ClosureViolation(name, detail, at),)
        if outcome.status == "unknown":
            return (ClosureViolation(name, f"{unknown_prefix}{outcome.reason}", certain=False),)
        return ()

    # Each case's value must lie in the result carrier over its guard.
    for index, case in enumerate(interp.cases):
        for requirement in carrier_constraints(structure.carrier(result), case.value):
            yield from probe(
                case.guard + (requirement.negate(),),
                f"case {index + 1} can leave the carrier of '{result}'",
                f"case {index + 1}: ",
            )
    # Pairwise disjointness of guards.
    for i, j in itertools.combinations(range(len(interp.cases)), 2):
        yield from probe(
            interp.cases[i].guard + interp.cases[j].guard,
            f"guards of cases {i + 1} and {j + 1} overlap",
            at_point=False,
        )
    # Coverage: no point of the carrier product may escape every guard.
    # A case with an empty guard covers everything, making the product
    # below empty, so the loop is skipped.
    for chosen in itertools.product(*(range(len(c.guard)) for c in interp.cases)):
        negated = tuple(case.guard[pick].negate() for case, pick in zip(interp.cases, chosen))
        found = probe(negated, "guards do not cover the carrier")
        yield from found
        if found:
            break


def tabulate(
    sig: Signature,
    carriers: Mapping[str, tuple[int, ...]],
    functions: Mapping[str, PiecewiseFunction],
    predicates: Mapping[str, PredicateInterp],
) -> tuple[dict[str, dict[tuple[int, ...], int]], dict[str, frozenset[tuple[int, ...]]]]:
    """Tables of the functions over their argument carriers, and extensions
    of the predicates over the union of the carriers to their arity.

    A point that no guard case covers raises a ``ModelError`` naming the function.
    """
    universe = sorted({v for vs in carriers.values() for v in vs})
    tables: dict[str, dict[tuple[int, ...], int]] = {}
    for name, interp in functions.items():
        points = itertools.product(*(carriers[s] for s in sig.functions[name][0]))
        try:
            tables[name] = {point: interp.eval(point) for point in points}
        except ModelError as exc:
            raise ModelError(f"'{name}': {exc}") from exc
    extensions = {
        name: frozenset(
            point
            for point in itertools.product(universe, repeat=len(interp.params))
            if interp.holds(point)
        )
        for name, interp in predicates.items()
    }
    return tables, extensions


# -- lowering atoms to constraint systems ---------------------------------------


class ClauseLowering:
    """Translate the atoms of one clause into linear systems over its variables.

    The applications of non-constant functions in ``atoms`` are numbered in
    post-order as first met, and ``leaves`` picks one guard case for each,
    the last varying fastest.  Under a choice an application's form is the
    picked case's value with the argument forms substituted, and the picked
    guard, substituted the same way, joins the system.  Constants are
    inlined, so every system ranges over the clause variables only.
    """

    def __init__(
        self, structure: SymbolicStructure, variables: tuple[Var, ...], atoms: tuple[Atom, ...]
    ):
        self.structure = structure
        self.variables = tuple(v.name for v in variables)
        self.applications: dict[App, PiecewiseFunction] = {}
        self._fixed: dict[Term, AffineForm] = {}
        self._base: list[LinearConstraint] = []
        for v in variables:
            self._fixed[v] = AffineForm.variable(v.name)
            self._base.extend(carrier_constraints(structure.carrier(v.sort), self._fixed[v]))
        for atom in atoms:
            for arg in atom.args:
                self._collect(arg)
        for atom in atoms:  # an uninterpreted predicate is an error even when no leaf is left
            if sort := sort_of_predicate(atom.predicate):
                structure.carrier(sort)
            else:
                structure.interp(atom.predicate, "predicate")
        feeds = {a for t, f in self.applications.items() if len(f.cases) > 1 for a in t.args}
        self._probes = [len(f.cases) > 1 and t in feeds for t, f in self.applications.items()]

    def _collect(self, term: Term) -> None:
        if term in self._fixed or term in self.applications:
            return
        assert isinstance(term, App)
        for arg in term.args:
            self._collect(arg)
        interp = self.structure.interp(term.symbol, "function")
        if term.args:
            self.applications[term] = interp
        else:
            self._fixed[term] = AffineForm.const(interp.eval(()))

    def leaves(self) -> Iterator[tuple[dict[Term, AffineForm], list[LinearConstraint]]]:
        """The form of every term and the picked guards, for each choice that is left.

        One explicit-stack walk shares one ``forms`` dict and one guard list,
        so each pair holds only until the next is asked for.  A guard with a
        false constant row cuts its case's subtree; true ones are dropped.
        After a case of a multi-case application that feeds a later one
        (``_probes``), the prefix is solved unless a known point of it
        satisfies the new rows; an "infeasible" prefix cuts the subtree
        ("unknown" keeps it).  A cut
        leaf holds every row of its prefix, so it is infeasible; the others
        come in the order of the full product of the cases.
        """
        applications = list(self.applications.items())
        forms = dict(self._fixed)
        guards: list[LinearConstraint] = []
        picks = [0] * len(applications)  # the next case to try at each depth
        # per depth: len(guards) on entering it, and an integer point of the prefix or None
        entered: list[tuple[int, Mapping[str, int] | None]] = [(0, None)] * (len(applications) + 1)
        depth = 0
        while depth >= 0:
            if depth == len(applications):
                yield forms, guards
                depth -= 1
                continue
            term, interp = applications[depth]
            pick = picks[depth]
            if pick == len(interp.cases):
                picks[depth] = 0
                depth -= 1
                continue
            picks[depth] = pick + 1
            mark, point = entered[depth]
            del guards[mark:]
            case = interp.cases[pick]
            mapping = dict(zip(interp.params, (forms[a] for a in term.args)))
            rows = drop_constant_rows(g.subst(mapping) for g in case.guard)
            if rows is None:
                continue
            guards.extend(rows)
            if rows and (point is None or not all(r.satisfied_by(point) for r in rows)):
                point = None
                if self._probes[depth]:
                    outcome = solve(self.system(guards))
                    if outcome.status == "infeasible":
                        continue
                    point = outcome.witness
            forms[term] = case.value.subst(mapping)
            depth += 1
            entered[depth] = (len(guards), point)

    def atom_constraints(
        self, atom: Atom, forms: Mapping[Term, AffineForm]
    ) -> list[LinearConstraint]:
        """Constraints stating that the atom holds at the given term forms."""
        sort = sort_of_predicate(atom.predicate)
        if sort is not None:
            return carrier_constraints(self.structure.carrier(sort), forms[atom.args[0]])
        interp = self.structure.predicates[atom.predicate]
        mapping = dict(zip(interp.params, (forms[a] for a in atom.args)))
        return [c.subst(mapping) for c in interp.constraints]

    def system(self, constraints: Iterable[LinearConstraint]) -> ConstraintSystem:
        """The carrier bounds of the variables conjoined with ``constraints``."""
        return ConstraintSystem(self.variables, tuple(self._base) + tuple(constraints))

