from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from countermodel.compiler import compile_ctrs
from countermodel.errors import CountermodelError, ParseError
from countermodel.logic import format_theory
from countermodel.terms import App, JOIN, ORIENTED, Var
from countermodel.trs_format import parse_ctrs, parse_ctrs_document
from paperdata import CORPUS

A, B, C = App("a"), App("b"), App("c")
X = Var("x")


def test_intro_rules():
    ctrs = parse_ctrs("(VAR x) (RULES b -> a  a -> b | c == b)")
    assert len(ctrs.rules) == 2
    assert ctrs.rules[0].lhs == B and ctrs.rules[0].rhs == A
    assert ctrs.rules[1].conditions == ((C, B),)
    assert set(ctrs.signature.functions) == {"a", "b", "c"}


def test_pair_gf_rules():
    ctrs = parse_ctrs("(RULES g(x) -> f(x,x)  g(x) -> g(x) | g(x) == f(a,b))")
    # without a VAR block, x is read as a constant; declare it to get a variable
    assert len(ctrs.rules) == 2
    ctrs = parse_ctrs("(VAR x) (RULES g(x) -> f(x,x)  g(x) -> g(x) | g(x) == f(a,b))")
    gx = App("g", (X,))
    assert ctrs.rules[0].lhs == gx and ctrs.rules[0].rhs == App("f", (X, X))
    assert ctrs.rules[1] .conditions == ((gx, App("f", (A, B))),)


def test_empty_rules_block_is_valid():
    ctrs = parse_ctrs("(RULES )")
    assert ctrs.rules == ()


def test_arity_inference_conflict_is_spanned():
    with pytest.raises(ParseError) as info:
        parse_ctrs("(VAR x)\n(RULES f(x) -> x  f(x, x) -> x)")
    assert info.value.span is not None
    assert info.value.span.line == 2


def test_variable_cannot_take_arguments():
    with pytest.raises(ParseError):
        parse_ctrs("(VAR f) (RULES f(f) -> f)")


def test_condition_type_join_recorded():
    document = parse_ctrs_document("(CONDITIONTYPE JOIN) (VAR x) (RULES a -> b | c == b)")
    assert document.ctrs.rules[0].condition_semantics == JOIN
    assert parse_ctrs("(VAR x) (RULES a -> b | c == b)").rules[0].condition_semantics == ORIENTED


def test_condition_type_oriented_compiles_as_the_default():
    text = (CORPUS / "division.trs").read_text()
    oriented = parse_ctrs("(CONDITIONTYPE ORIENTED)\n" + text)
    assert oriented == parse_ctrs(text)
    assert format_theory(compile_ctrs(oriented)) == format_theory(compile_ctrs(parse_ctrs(text)))


def test_sorted_input_round_trips_declarations():
    document = parse_ctrs_document(
        """
        (SORTS Nat Bool)
        (SIG zero : -> Nat  s : Nat -> Nat  is0 : Nat -> Bool  true : -> Bool)
        (VAR n:Nat)
        (RULES is0(zero) -> true)
        """
    )
    sig = document.ctrs.signature
    assert sig.sorts == ("Nat", "Bool")
    assert sig.functions["s"] == (("Nat",), "Nat")
    assert document.var_sorts == {"n": "Nat"}


def test_sorted_input_rejects_ill_sorted_rule():
    with pytest.raises(ParseError):
        parse_ctrs(
            """
            (SORTS Nat Bool)
            (SIG zero : -> Nat  true : -> Bool  s : Nat -> Nat)
            (RULES s(true) -> zero)
            """
        )


def test_sorted_input_requires_variable_annotations():
    with pytest.raises(ParseError):
        parse_ctrs(
            """
            (SORTS Nat)
            (SIG zero : -> Nat)
            (VAR n)
            (RULES )
            """
        )


def test_undeclared_symbol_rejected_in_typed_mode():
    with pytest.raises(ParseError):
        parse_ctrs("(SORTS Nat) (SIG zero : -> Nat) (RULES one -> zero)")


def test_undeclared_sort_rejected():
    with pytest.raises(CountermodelError):
        parse_ctrs("(SORTS Nat) (SIG zero : -> Unknown) (RULES )")


def test_subsort_chains():
    document = parse_ctrs_document(
        """
        (SORTS RegUser EventualUser User)
        (SUBSORTS RegUser EventualUser < User)
        (SIG slucas : -> RegUser  smith : -> EventualUser)
        (RULES )
        """
    )
    sig = document.ctrs.signature
    assert sig.le("RegUser", "User") and sig.le("EventualUser", "User")


def test_variable_lhs_rejected():
    with pytest.raises(ParseError):
        parse_ctrs("(VAR x) (RULES x -> a)")


def test_comment_blocks_are_skipped():
    ctrs = parse_ctrs("(COMMENT anything (even nested parens) goes)\n(RULES a -> b)")
    assert len(ctrs.rules) == 1


def test_line_comments_are_skipped():
    ctrs = parse_ctrs("; leading note\n(RULES a -> b) ; trailing\n")
    assert len(ctrs.rules) == 1


def test_rule_spans_attached():
    document = parse_ctrs_document("(RULES \n  a -> b\n  b -> a)")
    assert document.ctrs.rules[0].span.line == 2
    assert document.ctrs.rules[1].span.line == 3


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=60))
@example("(RULES ² -> a)")
@example("(VAR x½)")
def test_parsing_is_total(text):
    try:
        parse_ctrs(text)
    except CountermodelError:
        pass
