"""End-to-end wiring: theory assembly, disproof search, oracle cross-checks.

A disproof of a property works in three steps: compile the system to its
Horn theory (plus the subterm or root-step theory when the property
mentions those predicates - without them a countermodel would be
meaningless), negate the query into per-disjunct obligations, and check or
synthesize a structure satisfying theory and obligations.  A verified
certificate witnesses that the property fails in the least Herbrand model,
i.e. for actual rewriting.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from .checker import Certificate
from .compiler import compile_ctrs, relativize_sorts, root_theory, subterm_theory
from .finder import SearchBudget, find_model, find_symbolic_model
from .logic import Theory
from .model_format import FINITE, SYMBOLIC
from .oracle import AtomSet, saturate
from .queries import Query, negate_to_obligations, required_predicates  # noqa: F401 (re-exported)
from .structures import eval_atom
from .terms import CTRS, ROOT_STEP, SUBTERM

BOTH = "both"

ORACLE_SIZE_BOUND = 4
ORACLE_DEPTH_BOUND = 5


def build_theory(ctrs: CTRS, *, with_subterm: bool = False, with_root: bool = False) -> Theory:
    """Compile and extend a system's theory, relativizing sorts when present."""
    base = compile_ctrs(ctrs)
    clauses = list(base.clauses)
    if with_subterm:
        clauses.extend(subterm_theory(ctrs.signature))
    if with_root:
        clauses.extend(root_theory(ctrs))
    return relativize_sorts(Theory(ctrs.signature, tuple(clauses)))


def theory_for_query(
    ctrs: CTRS, query: Query, *, with_subterm: bool = False, with_root: bool = False
) -> Theory:
    """Like :func:`build_theory`, forcing in the theories the query relies on."""
    predicates = query.predicates()
    return build_theory(
        ctrs,
        with_subterm=with_subterm or SUBTERM in predicates,
        with_root=with_root or ROOT_STEP in predicates,
    )


@dataclass(frozen=True)
class Disproof:
    certificate: Certificate | None
    backend: str | None
    reasons: tuple[str, ...]

    @property
    def succeeded(self) -> bool:
        return self.certificate is not None  # handed back only verified


def disprove(
    ctrs: CTRS,
    query: Query,
    budget: SearchBudget | None = None,
    backend: str = BOTH,
    *,
    with_subterm: bool = False,
    with_root: bool = False,
) -> Disproof:
    """Search for a verified countermodel of the query, finite first.

    Both backends share one deadline, ``budget.time_limit`` seconds from
    the start of the call.
    """
    budget = budget or SearchBudget()
    deadline = time.monotonic() + budget.time_limit
    theory = theory_for_query(ctrs, query, with_subterm=with_subterm, with_root=with_root)
    obligations = negate_to_obligations(query)
    reasons = []
    for name, find in ((FINITE, find_model), (SYMBOLIC, find_symbolic_model)):
        if backend not in (name, BOTH):
            continue
        outcome = find(theory, obligations, budget, deadline=deadline)
        if outcome.found:
            return Disproof(outcome.certificate, name, ())
        reasons.append(f"{name}: {outcome.reason}")
    return Disproof(None, None, tuple(reasons))


def oracle_cross_check(
    ctrs: CTRS,
    certificate: Certificate,
    size_bound: int = ORACLE_SIZE_BOUND,
    depth_bound: int = ORACLE_DEPTH_BOUND,
) -> tuple[str, ...]:
    """Consistency of a verified certificate with bounded saturation.

    Two independent invariants are checked and any breach reported: every
    derived ground atom over an interpreted predicate must evaluate to true
    in the certificate's structure (the homomorphism from the initial model
    into any model preserves atoms), and no ground obligation's conjunction
    may be fully derivable (otherwise the disproved property actually
    holds).  A non-empty result indicates an implementation bug, not an
    input problem.
    """
    atoms = saturate(ctrs, size_bound, depth_bound)
    return tuple(_oracle_violations(certificate, atoms))


def _oracle_violations(certificate: Certificate, atoms: AtomSet):
    structure = certificate.structure
    interpreted = set(structure.predicates)
    for atom in atoms.atoms:
        if atom.predicate not in interpreted:
            continue
        if not eval_atom(structure, {}, atom):
            yield f"derived atom {atom} is false in the structure"
    for obligation in certificate.obligations:
        if obligation.variables:
            continue
        if all(a.predicate in interpreted for a in obligation.body) and all(
            a in atoms for a in obligation.body
        ):
            yield f"obligation {obligation} is witnessed by the oracle"
