"""The full-product symbolic check, kept as the reference for ``checker._check_symbolic``.

This is the ``_check_symbolic`` that the walk over a tree of guard-case
choices (``ClauseLowering.leaves``) replaced, kept as it was apart from
this docstring, absolute imports and the two ``ClauseLowering`` methods it
used, ``choices`` and ``lower``, which live on here as functions.  It
builds and solves one system for every guard-case choice and goal, with
no constant row dropped and no prefix solved.  Whenever it decides (holds
or fails), the checker must return the same ``Verdict``: the walk cuts
only choices whose systems are infeasible, and keeps the others in this
order.
"""
from __future__ import annotations

import itertools
from typing import Iterator

from countermodel.checker import FAILS, HOLDS, UNKNOWN, Verdict, _refutes
from countermodel.errors import ModelError
from countermodel.linear import AffineForm, LinearConstraint, integer_tighten, solve
from countermodel.logic import Atom
from countermodel.structures import ClauseLowering, SymbolicStructure
from countermodel.terms import Term, Var


def choices(lowering: ClauseLowering) -> Iterator[tuple[int, ...]]:
    counts = (len(interp.cases) for interp in lowering.applications.values())
    return itertools.product(*(range(n) for n in counts))


def lower(
    lowering: ClauseLowering, choice: tuple[int, ...]
) -> tuple[dict[Term, AffineForm], list[LinearConstraint]]:
    """The form of every term under the choice, and the chosen guards."""
    forms = dict(lowering._fixed)
    guards: list[LinearConstraint] = []
    for (term, interp), pick in zip(lowering.applications.items(), choice):
        case = interp.cases[pick]
        mapping = dict(zip(interp.params, (forms[a] for a in term.args)))
        guards.extend(g.subst(mapping) for g in case.guard)
        forms[term] = case.value.subst(mapping)
    return forms, guards


def check_symbolic(
    structure: SymbolicStructure,
    variables: tuple[Var, ...],
    body: tuple[Atom, ...],
    head: Atom | None,
) -> Verdict:
    """One system per guard-case choice and goal; the check holds when all are infeasible."""
    lowering = ClauseLowering(structure, variables, body if head is None else (*body, head))
    unknown: Verdict | None = None
    for choice in choices(lowering):
        forms, guards = lower(lowering, choice)
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
