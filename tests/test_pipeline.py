from __future__ import annotations

import time

from countermodel.checker import VERIFIED
from countermodel.finder import SearchBudget
from countermodel.model_format import serialize_model
from countermodel.pipeline import disprove, oracle_cross_check, theory_for_query
from countermodel.query_format import parse_query
from countermodel.trs_format import parse_ctrs_document
from paperdata import query_text, system


def test_query_mentioning_subterm_pulls_in_subterm_theory():
    ctrs = system("loop_cb.trs").ctrs
    query = parse_query("LOOPING(a)", ctrs.signature)
    theory = theory_for_query(ctrs, query)
    assert any(c.tag == "Subterm" for c in theory.clauses)
    plain = theory_for_query(ctrs, parse_query("CYCLING()", ctrs.signature))
    assert not any(c.tag == "Subterm" for c in plain.clauses)


def test_query_mentioning_root_step_pulls_in_root_theory():
    ctrs = system("root_f.trs").ctrs
    query = parse_query("EXISTS x y . f(x) ->^ y", ctrs.signature)
    theory = theory_for_query(ctrs, query)
    assert any(c.tag.startswith("Root(") for c in theory.clauses)


def test_build_theory_orders_extensions_after_base():
    ctrs = system("root_f.trs").ctrs
    theory = theory_for_query(ctrs, with_subterm=True, with_root=True)
    tags = [c.tag for c in theory.clauses]
    base_end = max(i for i, t in enumerate(tags) if t.startswith(("Rf", "T", "C(", "Rp(")))
    subterm_span = [i for i, t in enumerate(tags) if t == "Subterm"]
    root_span = [i for i, t in enumerate(tags) if t.startswith("Root(")]
    assert base_end < subterm_span[0] < root_span[0]


def test_disprove_prefers_finite_then_symbolic():
    ctrs = system("fab.trs").ctrs
    query = parse_query("JOINABLE(a, b)", ctrs.signature)
    result = disprove(ctrs, query)
    assert result.succeeded and result.backend == "finite"
    symbolic_only = disprove(ctrs, query, backend="symbolic")
    assert symbolic_only.succeeded and symbolic_only.backend == "symbolic"


def test_symbolic_disprove_with_a_ternary_function():
    # Past two arguments the finder's affine candidates take any arity.
    ctrs = parse_ctrs_document(
        "(VAR x y z) (RULES f(x, y, z) -> g(z, y, x)  g(x, y, z) -> x  a -> a  b -> b  c -> c)"
    ).ctrs
    query = parse_query("REACHABLE(f(a, b, c), b)", ctrs.signature)
    result = disprove(ctrs, query, backend="symbolic")
    assert result.succeeded and result.certificate.overall == VERIFIED
    assert "(FUN f(x1, x2, x3) = x3)" in serialize_model(result.certificate.structure).splitlines()
    assert oracle_cross_check(ctrs, result.certificate) == ()


def test_disprove_falls_through_to_symbolic_when_no_finite_model_exists():
    # For the increasing-f feasibility instance every finite structure fails:
    # a finite fixed-point-free f propagates a cycle through the congruence
    # clauses, so only a ray carrier can witness the disproof.
    ctrs = system("fig3.trs").ctrs
    query = parse_query("FEASIBLE(f(x) == x)", ctrs.signature)
    result = disprove(ctrs, query)
    assert result.succeeded and result.backend == "symbolic"


def test_disprove_reports_reasons_for_both_backends():
    ctrs = system("intro.trs").ctrs
    query = parse_query("REACHABLE(b, a)", ctrs.signature)  # genuinely holds
    budget = SearchBudget(carriers=((0, 1),), ray_carriers=(0,), max_nodes=100_000)
    result = disprove(ctrs, query, budget)
    assert not result.succeeded
    # The finite search ends every stage with no model; the symbolic one runs out of nodes.
    assert result.reasons == (
        "finite: no model among the stages' candidates",
        "symbolic: budget exhausted: candidate cap",
    )


def test_oracle_cross_check_accepts_sound_disproofs():
    ctrs = system("fab.trs").ctrs
    query = parse_query("JOINABLE(a, b)", ctrs.signature)
    result = disprove(ctrs, query)
    assert result.succeeded
    assert oracle_cross_check(ctrs, result.certificate) == ()


def test_oracle_cross_check_flags_fabricated_certificates():
    # Hand-build a "certificate" for the false claim that b does not rewrite
    # to a: its obligation is witnessed by the oracle immediately.
    from countermodel.checker import Certificate, Verdict
    from countermodel.queries import negate_to_obligations

    ctrs = system("intro.trs").ctrs
    query = parse_query("b -> a", ctrs.signature)
    theory = theory_for_query(ctrs, query)
    obligations = negate_to_obligations(query)
    genuine = disprove(ctrs, parse_query("a -> b", ctrs.signature))
    forged = Certificate(
        theory,
        obligations,
        genuine.certificate.structure,
        (),
        (Verdict("holds"),),
        VERIFIED,
    )
    violations = oracle_cross_check(ctrs, forged)
    assert any("witnessed by the oracle" in v for v in violations)


def test_default_cross_check_sees_size_four_terms():
    # The ground rule's right side has size 4: the default bound derives
    # a -> f(f(f(b))), which is false where f increases and -> decreases.
    from countermodel.checker import Certificate
    from countermodel.model_format import parse_model

    ctrs = parse_ctrs_document("(RULES a -> f(f(f(b))))").ctrs
    structure = parse_model(
        "(DOMAIN >= 0) (FUN a = 0) (FUN b = 0) (FUN f(x) = x + 1)"
        " (PRED -> (x, y) = x > y) (PRED ->* (x, y) = x >= y)",
        ctrs.signature,
    )
    forged = Certificate(theory_for_query(ctrs), (), structure, (), (), VERIFIED)
    violations = oracle_cross_check(ctrs, forged)
    assert "derived atom a -> f(f(f(b))) is false in the structure" in violations
    assert oracle_cross_check(ctrs, forged, size_bound=3) == ()


def test_sorted_disprove_runs_cleanly():
    document = system("website.trs")
    query = parse_query(
        "FEASIBLE(wwv05(u) == submit(u))", document.ctrs.signature, document.var_sorts
    )
    budget = SearchBudget(carriers=((0, 1),), ray_carriers=(), max_nodes=300_000)
    result = disprove(document.ctrs, query, budget, backend="finite")
    # Whether or not a uniform-carrier model exists within this tiny budget,
    # the search must terminate and any success must be verified.
    if result.succeeded:
        assert result.certificate.overall == VERIFIED


def test_disprove_backends_share_one_deadline():
    # division-ccp has no countermodel within the default menus, so each
    # backend runs until the clock stops it; together they get one limit.
    document = system("division.trs")
    query = parse_query(query_text("division_ccp.q"), document.ctrs.signature, document.var_sorts)
    start = time.monotonic()
    result = disprove(document.ctrs, query, SearchBudget(time_limit=1.0))
    elapsed = time.monotonic() - start
    assert not result.succeeded
    assert any("time cap" in reason for reason in result.reasons)
    assert elapsed < 2.0
