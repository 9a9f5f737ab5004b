"""Decide whether a structure models a theory and satisfies all obligations.

An obligation is a headless clause ``body => false`` (the negation of one
disjunct of an existential positive query), so clauses and obligations go
through one check, ``_check(structure, variables, body, head)`` with
``head=None`` for an obligation.  Finite structures are checked by
exhaustive valuation enumeration in lexicographic order over the sorted
carriers, so a failing check comes with the first counterexample
valuation.  Symbolic structures are checked through the linear engine: a
check holds when, for every combination of function guard cases and every
goal, the system "carrier bounds and body constraints and goal" is
infeasible; a clause has one goal per negated inequality of its head
predicate, an obligation the single empty goal.  One rule decides every
symbolic refutation: a feasible system refutes the check at the linear
kernel's own integer witness, once direct evaluation confirms it there; a
witness that evaluation cannot confirm yields "unknown" rather than
"fails".  The checker never overclaims in either direction.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import ModelError
from .linear import LinearConstraint, integer_tighten, solve
from .logic import Atom, HornClause, Theory, format_clause
from .queries import Obligation
from .structures import (
    ClauseLowering,
    ClosureViolation,
    FiniteStructure,
    Structure,
    SymbolicStructure,
    closure_check,
    eval_atom,
)
from .terms import Var

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

    ``overall`` is "verified" only when closure holds and every clause and
    obligation verdict is "holds"; any failure makes it "refuted" and any
    unresolved check makes it "unknown".
    """

    theory: Theory
    obligations: tuple[Obligation, ...]
    structure: Structure
    closure_violations: tuple[ClosureViolation, ...]
    clause_verdicts: tuple[Verdict, ...]
    obligation_verdicts: tuple[Verdict, ...]
    overall: str

    def first_failure(self) -> str | None:
        """Human-readable pointer to the first failing check, if any."""
        for violation in self.closure_violations:
            if violation.certain:
                return f"closure: {violation}"
        for clause, verdict in zip(self.theory.clauses, self.clause_verdicts):
            if verdict.status == FAILS:
                return f"clause [{clause.tag}] {format_clause(clause)}: {verdict}"
        for obligation, verdict in zip(self.obligations, self.obligation_verdicts):
            if verdict.status == FAILS:
                return f"obligation {obligation}: {verdict}"
        return None


def verify(
    theory: Theory, obligations: Iterable[Obligation], structure: Structure
) -> Certificate:
    """Closure check, then every clause, then every obligation."""
    obligations = tuple(obligations)
    violations = closure_check(structure)
    if any(v.certain for v in violations):
        return Certificate(theory, obligations, structure, violations, (), (), REFUTED)
    clause_verdicts = tuple(check_clause(structure, c) for c in theory.clauses)
    obligation_verdicts = tuple(check_obligation(structure, ob) for ob in obligations)
    statuses = [v.status for v in (*clause_verdicts, *obligation_verdicts)]
    if violations or FAILS in statuses or UNKNOWN in statuses:
        overall = REFUTED if FAILS in statuses else UNKNOWN
    else:
        overall = VERIFIED
    return Certificate(
        theory, obligations, structure, violations, clause_verdicts, obligation_verdicts, overall
    )


# -- one check for clauses and obligations (head=None) ------------------------------


def check_clause(structure: Structure, clause: HornClause) -> Verdict:
    return _check(structure, clause.variables, clause.body, clause.head)


def check_obligation(structure: Structure, obligation: Obligation) -> Verdict:
    return _check(structure, obligation.variables, obligation.atoms, None)


def _refutes(
    structure: Structure, valuation: Mapping[str, int], body: tuple[Atom, ...], head: Atom | None
) -> bool:
    """Whether the valuation makes every body atom true and the head (if any) false."""
    return all(eval_atom(structure, valuation, a) for a in body) and (
        head is None or not eval_atom(structure, valuation, head)
    )


def _valuations(
    structure: FiniteStructure, variables: tuple[Var, ...]
) -> Iterator[dict[str, int]]:
    pools = [structure.carrier(v.sort) for v in variables]
    for values in itertools.product(*pools):
        yield dict(zip((v.name for v in variables), values))


def _check(
    structure: Structure, variables: tuple[Var, ...], body: tuple[Atom, ...], head: Atom | None
) -> Verdict:
    if not isinstance(structure, FiniteStructure):
        return _check_symbolic(structure, variables, body, head)
    try:
        for valuation in _valuations(structure, variables):
            if _refutes(structure, valuation, body, head):
                return Verdict(FAILS, witness=tuple(valuation.items()))
    except ModelError as exc:
        # A table can be silent on kind-level terms outside its rank domain.
        return Verdict(UNKNOWN, reason=str(exc))
    return Verdict(HOLDS)


# -- symbolic backend ------------------------------------------------------------


def _check_symbolic(
    structure: SymbolicStructure,
    variables: tuple[Var, ...],
    body: tuple[Atom, ...],
    head: Atom | None,
) -> Verdict:
    """One system per guard-case choice and goal; the check holds when all are infeasible.

    An obligation has one empty goal; a clause has one goal per negated head
    inequality.  The body is lowered before the head, which numbers the
    applications and so fixes the order of the choices; the systems follow
    in that order, goal by goal within a choice.  A feasible system fails
    the check at the kernel's integer witness once ``_refutes`` confirms
    it there; a witness that evaluation cannot confirm leaves the check
    "unknown".
    """
    lowering = ClauseLowering(structure, variables, body if head is None else (*body, head))
    unknown: Verdict | None = None
    for choice in lowering.choices():
        forms, guards = lowering.lower(choice)
        body_constraints = guards + [
            c for atom in body for c in lowering.atom_constraints(atom, forms)
        ]
        goals: list[list[LinearConstraint]] = [[]]
        if head is not None:  # no goal at all when the head is the trivially true relation
            goals = [[c.negate()] for c in lowering.atom_constraints(head, forms)]
        for goal in goals:
            outcome = solve(integer_tighten(lowering.system(body_constraints + goal)))
            if outcome.status == "infeasible":
                continue
            if outcome.status == "unknown":
                unknown = unknown or Verdict(UNKNOWN, reason=outcome.reason)
                continue
            try:
                if _refutes(structure, outcome.witness, body, head):
                    return Verdict(FAILS, witness=tuple(sorted(outcome.witness.items())))
            except ModelError:
                pass  # e.g. a guard gap outside the declared carriers: not confirmed
            unconfirmed = "kernel witness not confirmed by evaluation"
            unknown = unknown or Verdict(UNKNOWN, reason=unconfirmed)
    return unknown or Verdict(HOLDS)
