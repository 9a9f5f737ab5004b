"""Random single-point mutations of structures, plus an independent
sampled ground-truth probe used to audit checker verdicts on mutants."""
from __future__ import annotations

import itertools
import random

from countermodel.errors import ModelError
from countermodel.linear import LinearConstraint
from countermodel.logic import HornClause, Theory
from countermodel.structures import (
    FiniteStructure,
    PiecewiseCase,
    PiecewiseFunction,
    PredicateInterp,
    Structure,
    SymbolicStructure,
    eval_atom,
)


def mutate(structure: Structure, rng: random.Random) -> Structure:
    """Flip one table entry or one coefficient, chosen uniformly at random."""
    if isinstance(structure, FiniteStructure):
        return _mutate_finite(structure, rng)
    return _mutate_symbolic(structure, rng)


def _mutate_finite(structure: FiniteStructure, rng: random.Random) -> FiniteStructure:
    sites: list[tuple] = []
    for name, table in structure.functions.items():
        for key in table:
            sites.append(("table", name, key))
    universe = sorted({v for vs in structure.carriers.values() for v in vs})
    for name in structure.predicates:
        for pair in itertools.product(universe, repeat=2):
            sites.append(("pred", name, pair))
    kind, name, where = rng.choice(sites)
    if kind == "table":
        result_sort = structure.signature.functions[name][1]
        carrier = structure.carrier(result_sort)
        current = structure.functions[name][where]
        candidates = [v for v in carrier if v != current] + [max(carrier) + 1]
        tables = {k: dict(v) for k, v in structure.functions.items()}
        tables[name][where] = rng.choice(candidates)
        return FiniteStructure(structure.signature, structure.carriers, tables, structure.predicates)
    predicates = {k: set(v) for k, v in structure.predicates.items()}
    if where in predicates[name]:
        predicates[name].discard(where)
    else:
        predicates[name].add(where)
    return FiniteStructure(
        structure.signature,
        structure.carriers,
        structure.functions,
        {k: frozenset(v) for k, v in predicates.items()},
    )


def _mutate_symbolic(structure: SymbolicStructure, rng: random.Random) -> SymbolicStructure:
    sites: list[tuple] = []
    for name, interp in structure.functions.items():
        for index, case in enumerate(interp.cases):
            for param, _ in case.value.coeffs:
                sites.append(("func", name, index, param))
            sites.append(("func", name, index, None))  # the constant term
    for name, interp in structure.predicates.items():
        for index, constraint in enumerate(interp.constraints):
            for param, _ in constraint.terms:
                sites.append(("pred", name, index, param))
            sites.append(("pred", name, index, None))  # the bound
    kind, name, index, param = rng.choice(sites)
    delta = rng.choice((-1, 1))
    if kind == "func":
        functions = dict(structure.functions)
        interp = functions[name]
        cases = list(interp.cases)
        case = cases[index]
        coeffs = dict(case.value.coeffs)
        if param is None:
            value = type(case.value).make(coeffs, case.value.constant + delta)
        else:
            coeffs[param] = coeffs.get(param, 0) + delta
            value = type(case.value).make(coeffs, case.value.constant)
        cases[index] = PiecewiseCase(case.guard, value)
        functions[name] = PiecewiseFunction(interp.params, tuple(cases))
        return SymbolicStructure(structure.signature, structure.carriers, functions, structure.predicates)
    predicates = dict(structure.predicates)
    interp = predicates[name]
    constraints = list(interp.constraints)
    constraint = constraints[index]
    coeffs = dict(constraint.terms)
    bound = constraint.bound
    if param is None:
        bound += delta
    else:
        coeffs[param] = coeffs.get(param, 0) + delta
    constraints[index] = LinearConstraint.make(coeffs, bound, constraint.strict)
    predicates[name] = PredicateInterp(interp.params, tuple(constraints))
    return SymbolicStructure(structure.signature, structure.carriers, structure.functions, predicates)


def _sample_points(structure: Structure, sort: str) -> tuple[int, ...]:
    if isinstance(structure, FiniteStructure):
        return structure.carrier(sort)
    carrier = structure.carrier(sort)
    if carrier.hi is None:
        return tuple(range(carrier.lo, carrier.lo + 6))
    return tuple(range(carrier.lo, carrier.hi + 1))


def sampled_violation(
    theory: Theory, obligations: tuple[HornClause, ...], structure: Structure
) -> str | None:
    """A concrete breakage found by direct evaluation on sample points.

    For finite structures the sample is the whole carrier, so a None result
    means the structure genuinely is a verified countermodel.  For rays the
    probe is partial: it can only confirm violations, never their absence.
    """
    sig = structure.signature
    try:
        for name, (arg_sorts, result) in sig.functions.items():
            pools = [_sample_points(structure, s) for s in arg_sorts]
            interp = structure.functions[name]
            for point in itertools.product(*pools):
                if isinstance(structure, FiniteStructure):
                    if point not in interp:
                        return f"closure: {name}{point} undefined"
                    value = interp[point]
                    if value not in structure.carrier(result):
                        return f"closure: {name}{point} = {value}"
                else:
                    value = interp.eval(point)
                    if value not in structure.carrier(result):
                        return f"closure: {name}{point} = {value}"
        for clause in theory.clauses:
            names = [v.name for v in clause.variables]
            pools = [_sample_points(structure, v.sort) for v in clause.variables]
            for values in itertools.product(*pools):
                valuation = dict(zip(names, values))
                if all(eval_atom(structure, valuation, a) for a in clause.body) and not eval_atom(
                    structure, valuation, clause.head
                ):
                    return f"clause [{clause.tag}] at {valuation}"
        for obligation in obligations:
            names = [v.name for v in obligation.variables]
            pools = [_sample_points(structure, v.sort) for v in obligation.variables]
            for values in itertools.product(*pools):
                valuation = dict(zip(names, values))
                if all(eval_atom(structure, valuation, a) for a in obligation.body):
                    return f"obligation at {valuation}"
    except ModelError as exc:
        return f"evaluation breakage: {exc}"
    return None
