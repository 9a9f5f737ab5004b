from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from countermodel.errors import CountermodelError, ParseError, UnsupportedFragmentError
from countermodel.logic import Atom
from countermodel.query_format import parse_query
from countermodel.terms import ARROW, MANY_STEPS, ROOT_STEP, SUBTERM, App, Var
from paperdata import system

SIG = system("fig3.trs").ctrs.signature
A, B = App("a"), App("b")
X = Var("x")


def test_feasible_template_parses_to_reachability_atoms():
    query = parse_query("FEASIBLE(f(x) == x)", SIG)
    assert query.variables == (X,)
    assert query.disjuncts == ((Atom(MANY_STEPS, (App("f", (X,)), X)),),)


def test_joinable_template_parses():
    query = parse_query("JOINABLE(a, b)", SIG)
    assert query.disjuncts == (
        (Atom(MANY_STEPS, (A, Var("x"))), Atom(MANY_STEPS, (B, Var("x")))),
    )


def test_negation_is_unsupported():
    with pytest.raises(UnsupportedFragmentError):
        parse_query("EXISTS x . a -> x /\\ ~(x -> a)", SIG)


def test_universal_quantifier_is_unsupported():
    with pytest.raises(UnsupportedFragmentError):
        parse_query(
            "FORALL x y z . x ->* y /\\ x ->* z => EXISTS u . y ->* u /\\ z ->* u", SIG
        )


def test_implication_is_unsupported():
    with pytest.raises(UnsupportedFragmentError):
        parse_query("EXISTS x . a ->* x => x ->* b", SIG)


def test_nested_quantifier_is_unsupported():
    with pytest.raises(UnsupportedFragmentError):
        parse_query("EXISTS x . a -> x /\\ EXISTS y . x -> y", SIG)


def test_unknown_symbol_rejected():
    with pytest.raises(ParseError):
        parse_query("REACHABLE(a, q(b))", SIG)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("REACHABLE(a)", "<input>:1:1-1:10: REACHABLE takes 2 term(s)"),
        ("CONVERTIBLE(a)", "<input>:1:1-1:12: CONVERTIBLE takes 2 term(s)"),
        ("REDUCIBLE()", "<input>:1:1-1:10: REDUCIBLE takes 1 term(s)"),
        ("CYCLING(a, b)", "<input>:1:1-1:8: CYCLING takes 0 or 1 term(s)"),
        ("LOOPING(a, b)", "<input>:1:1-1:8: LOOPING takes 0 or 1 term(s)"),
    ],
)
def test_a_template_error_names_the_template_at_its_name(text, expected):
    with pytest.raises(ParseError) as info:
        parse_query(text, SIG)
    assert str(info.value) == expected


def test_bare_ground_atom_query():
    query = parse_query("a -> b", SIG)
    assert query.variables == ()
    assert query.disjuncts == ((Atom(ARROW, (A, B)),),)


def test_disjunction_and_conjunction_nesting():
    query = parse_query("EXISTS x . a -> x /\\ x ->* b \\/ b -> x", SIG)
    assert len(query.disjuncts) == 2
    assert len(query.disjuncts[0]) == 2 and len(query.disjuncts[1]) == 1


def test_root_step_and_subterm_operators():
    query = parse_query("EXISTS x y . f(x) ->^ y \\/ y |> x", SIG)
    predicates = {a.predicate for d in query.disjuncts for a in d}
    assert predicates == {ROOT_STEP, SUBTERM}


def test_exists_variables_need_no_annotation_when_unsorted():
    query = parse_query("EXISTS x y . a -> x /\\ x -> y", SIG)
    assert [v.name for v in query.variables] == ["x", "y"]


def test_sorted_variables_from_declarations():
    document = system("website.trs")
    query = parse_query(
        "FEASIBLE(wwv05(u) == submit(u))", document.ctrs.signature, document.var_sorts
    )
    assert query.variables == (Var("u", "EventualUser"),)


def test_sorted_variables_from_inline_annotation():
    document = system("website.trs")
    query = parse_query(
        "FEASIBLE(wwv05(w:EventualUser) == submit(w:EventualUser))",
        document.ctrs.signature,
    )
    assert query.variables == (Var("w", "EventualUser"),)


def test_sorted_exists_requires_annotation():
    document = system("website.trs")
    with pytest.raises(ParseError):
        parse_query("EXISTS p . wwv05(smith) ->* p", document.ctrs.signature)
    query = parse_query("EXISTS p:WebPage . wwv05(smith) ->* p", document.ctrs.signature)
    assert query.variables == (Var("p", "WebPage"),)


def test_kind_level_query_terms_allowed_but_alien_sorts_rejected():
    document = system("website.trs")
    # submit applied outside its declared argument sort but within its
    # component parses; applying it to a page (another component) does not.
    parse_query("FEASIBLE(wwv05(u) == submit(u))", document.ctrs.signature, document.var_sorts)
    with pytest.raises(ParseError):
        parse_query(
            "EXISTS p:WebPage . submit(p) ->* p", document.ctrs.signature
        )


def test_feasible_requires_conditions():
    with pytest.raises(ParseError):
        parse_query("FEASIBLE()", SIG)


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_query("a -> b extra", SIG)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=50))
@example("f(²) -> a")
@example("½")
def test_query_parsing_is_total(text):
    try:
        parse_query(text, SIG)
    except CountermodelError:
        pass
