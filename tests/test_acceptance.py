"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""
from __future__ import annotations

import random
import time

import pytest

from countermodel.checker import REFUTED, VERIFIED, verify
from countermodel.compiler import compile_ctrs
from countermodel.errors import UnsupportedFragmentError
from countermodel.finder import find_model, find_symbolic_model
from countermodel.linear import ConstraintSystem, LinearConstraint, equality, solve
from countermodel.logic import Atom, HornClause
from countermodel.model_format import parse_model
from countermodel.oracle import saturate
from countermodel.pipeline import theory_for_query
from countermodel.queries import negate_to_obligations
from countermodel.query_format import parse_query
from countermodel.structures import eval_atom
from countermodel.terms import ARROW, MANY_STEPS, App, Var
from boxcheck import box_has_integer_point
from comparisons import alpha_key
from mutate import mutate, sampled_violation
from paperdata import (
    FINDER_CASES,
    INTERVAL_CHECKS,
    PAPER_CHECKS,
    model_text,
    paper_certificate,
    paper_instance,
    system,
)


def _report(criterion: int, label: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE criterion {criterion} ({label}): {status}")
    assert not failures, "; ".join(failures)


# -- criterion 1: theory compilation fidelity ------------------------------------


def test_criterion_1_theory_compilation_fidelity():
    failures: list[str] = []
    X, Y, Z = Var("x"), Var("y"), Var("z")
    A, B, C = App("a"), App("b"), App("c")
    intro = compile_ctrs(system("intro.trs").ctrs)
    intro_expected = [
        HornClause((X,), (), Atom(MANY_STEPS, (X, X))),
        HornClause((X, Y, Z), (Atom(ARROW, (X, Y)), Atom(MANY_STEPS, (Y, Z))), Atom(MANY_STEPS, (X, Z))),
        HornClause((), (), Atom(ARROW, (B, A))),
        HornClause((), (Atom(MANY_STEPS, (C, B)),), Atom(ARROW, (A, B))),
    ]
    if [alpha_key(c) for c in intro.clauses] != [alpha_key(c) for c in intro_expected]:
        failures.append("intro theory differs from the four expected sentences")

    f = lambda t: App("f", (t,))
    g = lambda t: App("g", (t,))
    fig3 = compile_ctrs(system("fig3.trs").ctrs)
    fig3_expected = [
        HornClause((X,), (), Atom(MANY_STEPS, (X, X))),
        HornClause((X, Y, Z), (Atom(ARROW, (X, Y)), Atom(MANY_STEPS, (Y, Z))), Atom(MANY_STEPS, (X, Z))),
        HornClause((X, Y), (Atom(ARROW, (X, Y)),), Atom(ARROW, (f(X), f(Y)))),
        HornClause((X, Y), (Atom(ARROW, (X, Y)),), Atom(ARROW, (g(X), g(Y)))),
        HornClause((), (), Atom(ARROW, (A, B))),
        HornClause((), (), Atom(ARROW, (f(A), B))),
        HornClause((X,), (Atom(MANY_STEPS, (f(X), X)),), Atom(ARROW, (g(X), g(A)))),
    ]
    if [alpha_key(c) for c in fig3.clauses] != [alpha_key(c) for c in fig3_expected]:
        failures.append("seven-sentence theory differs from the expected clauses")
    _report(1, "theory compilation fidelity", failures)


# -- criterion 2: paper-model verification ----------------------------------------


def test_criterion_2_paper_model_verification():
    failures: list[str] = []
    for check in PAPER_CHECKS:
        started = time.monotonic()
        cert = paper_certificate(check.name)
        elapsed = time.monotonic() - started
        if cert.overall != VERIFIED:
            failures.append(f"{check.name}: {cert.overall} ({cert.first_failure()})")
        limit = 300.0 if check.name == "division-ccp" else 60.0
        if elapsed > limit:
            failures.append(f"{check.name}: took {elapsed:.1f}s")
    _report(2, "paper-model verification", failures)


# -- criterion 3: mutation refutation ----------------------------------------------


def test_criterion_3_mutation_refutation():
    failures: list[str] = []
    per_model = 24
    for check in PAPER_CHECKS:
        _doc, theory, obligations, structure = paper_instance(check.name)
        rng = random.Random(f"mutations-{check.name}")
        caught = survived = unknown = 0
        for _ in range(per_model):
            mutant = mutate(structure, rng)
            if mutant == structure:
                continue
            cert = verify(theory, obligations, mutant)
            breakage = sampled_violation(theory, obligations, mutant)
            if cert.overall == VERIFIED:
                if breakage is not None:
                    failures.append(f"{check.name}: falsely verified mutant ({breakage})")
                survived += 1
            elif cert.overall == REFUTED:
                caught += 1
                if cert.first_failure() is None:
                    failures.append(f"{check.name}: refuted without a pinpointed failure")
            else:
                unknown += 1
            if breakage is not None and cert.overall == VERIFIED:
                failures.append(f"{check.name}: breakage not caught: {breakage}")
        print(
            f"  mutations {check.name}: caught={caught} unknown={unknown} "
            f"still-models={survived}"
        )
        if caught == 0:
            failures.append(f"{check.name}: no mutation was ever caught")
    _report(3, "mutation refutation", failures)


# -- criterion 4: finder success ----------------------------------------------------


def test_criterion_4_finder_success():
    failures: list[str] = []
    for case in FINDER_CASES:
        document = system(case.system)
        query = parse_query(case.query, document.ctrs.signature, document.var_sorts)
        theory = theory_for_query(document.ctrs, query)
        obligations = negate_to_obligations(query)
        started = time.monotonic()
        search = find_model if case.backend == "finite" else find_symbolic_model
        outcome = search(theory, obligations)
        elapsed = time.monotonic() - started
        if not outcome.found:
            failures.append(f"{case.name}: {outcome.reason}")
            continue
        if outcome.certificate.overall != VERIFIED:
            failures.append(f"{case.name}: unverified result")
        if elapsed > 60.0:
            failures.append(f"{case.name}: took {elapsed:.1f}s")
    _report(4, "finder success", failures)


# -- criterion 5: oracle bridge ------------------------------------------------------


def _criterion5_certificates():
    for check in PAPER_CHECKS:
        yield check.name, system(check.system).ctrs, paper_certificate(check.name)
    for case in FINDER_CASES:
        document = system(case.system)
        query = parse_query(case.query, document.ctrs.signature, document.var_sorts)
        theory = theory_for_query(document.ctrs, query)
        obligations = negate_to_obligations(query)
        search = find_model if case.backend == "finite" else find_symbolic_model
        outcome = search(theory, obligations)
        if outcome.found:
            yield f"finder:{case.name}", document.ctrs, outcome.certificate


def test_criterion_5_oracle_bridge():
    failures: list[str] = []
    for name, ctrs, cert in _criterion5_certificates():
        if cert.overall != VERIFIED:
            continue
        atoms = saturate(ctrs, 3, 5)
        interpreted = set(cert.structure.predicates)
        for atom in atoms.atoms:
            if atom.predicate in interpreted and not eval_atom(cert.structure, {}, atom):
                failures.append(f"{name}: derived atom {atom} false in structure")
        for obligation in cert.obligations:
            if obligation.variables:
                continue
            if all(a.predicate in interpreted for a in obligation.body) and all(
                a in atoms for a in obligation.body
            ):
                failures.append(f"{name}: disproved atom(s) derived: {obligation}")
    _report(5, "oracle bridge", failures)


# -- criterion 6: linear-engine soundness ---------------------------------------------


def _random_constraint_system(rng: random.Random) -> ConstraintSystem:
    k = rng.randint(1, 5)
    variables = tuple(f"x{i}" for i in range(k))
    constraints: list[LinearConstraint] = []
    for _ in range(rng.randint(1, 8)):
        coeffs = {v: rng.randint(-5, 5) for v in variables}
        bound = rng.randint(-5, 5)
        choice = rng.random()
        if choice < 0.1:
            constraints.extend(equality(coeffs, bound))
        elif choice < 0.3:
            constraints.append(LinearConstraint.make(coeffs, bound, strict=True))
        else:
            constraints.append(LinearConstraint.make(coeffs, bound))
    return ConstraintSystem(variables, tuple(constraints))


def test_criterion_6_linear_engine_soundness():
    failures: list[str] = []
    rng = random.Random("linear-soundness")
    tally = {"feasible": 0, "infeasible": 0, "unknown": 0}
    for index in range(1000):
        sys_ = _random_constraint_system(rng)
        outcome = solve(sys_)
        tally[outcome.status] += 1
        if outcome.status == "infeasible":
            if box_has_integer_point(sys_):
                failures.append(f"system {index}: infeasible verdict but box point exists")
        elif outcome.status == "feasible":
            witness = outcome.witness
            for c in sys_.constraints:
                total = sum(witness[v] * coeff for v, coeff in c.terms)
                ok = total < c.bound if c.strict else total <= c.bound
                if not ok:
                    failures.append(f"system {index}: witness violates {c}")
    print(f"  linear tallies: {tally}")
    if tally["infeasible"] < 100:
        failures.append("suspiciously few infeasible systems; generator broken?")
    _report(6, "linear-engine soundness", failures)


# -- criterion 7: fragment guard --------------------------------------------------------


def test_criterion_7_fragment_guard():
    failures: list[str] = []
    sig = system("fig3.trs").ctrs.signature
    rejected = [
        "FORALL x y z . x ->* y /\\ x ->* z => EXISTS u . y ->* u /\\ z ->* u",
        "EXISTS x . a -> x /\\ ~(x -> a)",
        "EXISTS x . !(a -> x)",
        "NOT (a -> b)",
        "EXISTS x . a -> x => x -> a",
        "EXISTS x . a -> x /\\ EXISTS y . x -> y",
    ]
    for text in rejected:
        with pytest.raises(UnsupportedFragmentError):
            parse_query(text, sig)
    _report(7, "fragment guard", failures)


# -- criterion 8: finite/symbolic cross-backend agreement ---------------------------------


def test_criterion_8_cross_backend_agreement():
    failures: list[str] = []
    cases = [
        (name, next(c for c in PAPER_CHECKS if c.name == name)) for name in INTERVAL_CHECKS
    ]
    for name, check in cases:
        document = system(check.system)
        query = parse_query(check.query, document.ctrs.signature, document.var_sorts)
        theory = theory_for_query(document.ctrs, query)
        obligations = negate_to_obligations(query)
        from countermodel.pipeline import required_predicates

        required = required_predicates(theory, obligations)
        finite = parse_model(model_text(check.model), document.ctrs.signature, "finite", required)
        symbolic = parse_model(model_text(check.model), document.ctrs.signature, "symbolic", required)
        cert_f = verify(theory, obligations, finite)
        cert_s = verify(theory, obligations, symbolic)
        if cert_f.overall != cert_s.overall:
            failures.append(f"{name}: {cert_f.overall} vs {cert_s.overall}")
        for i, (vf, vs) in enumerate(zip(cert_f.verdicts, cert_s.verdicts)):
            if vf.status != vs.status:
                failures.append(f"{name}: check {i} {vf.status} vs {vs.status}")
    # The printed duplicating-g structure must be rejected by both backends.
    sig = system("pair_gf.trs").ctrs.signature
    query = parse_query("FEASIBLE(g(x) == f(a, b))", sig)
    theory = theory_for_query(system("pair_gf.trs").ctrs, query)
    obligations = negate_to_obligations(query)
    for backend in ("finite", "symbolic"):
        structure = parse_model(model_text("pair_gf_printed.model"), sig, backend)
        cert = verify(theory, obligations, structure)
        if cert.overall != REFUTED:
            failures.append(f"printed pair-gf structure not refuted under {backend}")
    _report(8, "finite/symbolic agreement", failures)
