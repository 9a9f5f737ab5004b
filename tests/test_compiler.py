from __future__ import annotations

import pytest

from countermodel.compiler import compile_ctrs, relativize_sorts, root_theory, subterm_theory
from countermodel.errors import EmptySortError
from countermodel.logic import Atom, HornClause, sort_predicate
from countermodel.terms import (
    ARROW,
    CTRS,
    DEFAULT_SORT,
    JOIN,
    MANY_STEPS,
    ROOT_STEP,
    SUBTERM,
    App,
    ConditionalRule,
    Signature,
    Var,
)
from comparisons import alpha_key
from paperdata import system

X, Y, Z = Var("x"), Var("y"), Var("z")
A, B, C, D = App("a"), App("b"), App("c"), App("d")


def alpha_keys(clauses):
    return [alpha_key(c) for c in clauses]


def test_intro_theory_is_exactly_four_sentences():
    theory = compile_ctrs(system("intro.trs").ctrs)
    expected = [
        HornClause((X,), (), Atom(MANY_STEPS, (X, X))),
        HornClause(
            (X, Y, Z),
            (Atom(ARROW, (X, Y)), Atom(MANY_STEPS, (Y, Z))),
            Atom(MANY_STEPS, (X, Z)),
        ),
        HornClause((), (), Atom(ARROW, (B, A))),
        HornClause((), (Atom(MANY_STEPS, (C, B)),), Atom(ARROW, (A, B))),
    ]
    assert alpha_keys(theory.clauses) == alpha_keys(expected)
    assert [c.tag for c in theory.clauses] == ["Rf", "T", "Rp(1)", "Rp(2)"]


def test_fig3_theory_is_exactly_seven_sentences():
    theory = compile_ctrs(system("fig3.trs").ctrs)
    f = lambda t: App("f", (t,))
    g = lambda t: App("g", (t,))
    expected = [
        HornClause((X,), (), Atom(MANY_STEPS, (X, X))),
        HornClause(
            (X, Y, Z),
            (Atom(ARROW, (X, Y)), Atom(MANY_STEPS, (Y, Z))),
            Atom(MANY_STEPS, (X, Z)),
        ),
        HornClause((X, Y), (Atom(ARROW, (X, Y)),), Atom(ARROW, (f(X), f(Y)))),
        HornClause((X, Y), (Atom(ARROW, (X, Y)),), Atom(ARROW, (g(X), g(Y)))),
        HornClause((), (), Atom(ARROW, (A, B))),
        HornClause((), (), Atom(ARROW, (f(A), B))),
        HornClause((X,), (Atom(MANY_STEPS, (f(X), X)),), Atom(ARROW, (g(X), g(A)))),
    ]
    assert alpha_keys(theory.clauses) == alpha_keys(expected)
    assert [c.tag for c in theory.clauses] == [
        "Rf",
        "T",
        "C(f,1)",
        "C(g,1)",
        "Rp(1)",
        "Rp(2)",
        "Rp(3)",
    ]


def test_zero_rules_compile_to_reflexivity_and_transitivity_only():
    sig = Signature(functions={"a": ((), DEFAULT_SORT)})
    theory = compile_ctrs(CTRS(sig, ()))
    assert [c.tag for c in theory.clauses] == ["Rf", "T"]


@pytest.mark.parametrize(
    "name", ["intro.trs", "fig3.trs", "fab.trs", "hg.trs", "pair_gf.trs", "division.trs", "root_f.trs", "loop_cb.trs"]
)
def test_clause_count_formula(name):
    ctrs = system(name).ctrs
    theory = compile_ctrs(ctrs)
    arity_sum = sum(len(args) for args, _ in ctrs.signature.functions.values())
    assert len(theory.clauses) == 2 + arity_sum + len(ctrs.rules)


@pytest.mark.parametrize("name", ["division.trs", "website.trs", "loop_cb.trs"])
def test_every_clause_variable_is_quantified(name):
    ctrs = system(name).ctrs
    clauses = list(compile_ctrs(ctrs).clauses)
    clauses += subterm_theory(ctrs.signature)
    clauses += root_theory(ctrs)
    for clause in clauses:
        quantified = set(clause.variables)
        for atom in (*clause.body, clause.head):
            assert set(atom.variables()) <= quantified


def test_compilation_is_deterministic():
    ctrs = system("division.trs").ctrs
    assert compile_ctrs(ctrs) == compile_ctrs(ctrs)


def test_join_conditions_desugar_to_shared_fresh_variable():
    sig = Signature(functions={"a": ((), DEFAULT_SORT), "b": ((), DEFAULT_SORT), "c": ((), DEFAULT_SORT), "d": ((), DEFAULT_SORT)})
    rule = ConditionalRule(A, B, ((C, D),), condition_semantics=JOIN)
    theory = compile_ctrs(CTRS(sig, (rule,)))
    clause = theory.clauses[-1]
    w = Var("w1")
    assert clause.body == (Atom(MANY_STEPS, (C, w)), Atom(MANY_STEPS, (D, w)))
    assert clause.head == Atom(ARROW, (A, B))
    assert w in clause.variables


def test_join_fresh_names_avoid_rule_variables():
    sig = Signature(functions={"f": ((DEFAULT_SORT,), DEFAULT_SORT), "a": ((), DEFAULT_SORT)})
    w1 = Var("w1")
    rule = ConditionalRule(App("f", (w1,)), w1, ((w1, A),), condition_semantics=JOIN)
    theory = compile_ctrs(CTRS(sig, (rule,)))
    clause = theory.clauses[-1]
    fresh = {v.name for v in clause.variables} - {"w1"}
    assert fresh == {"w2"}


def test_subterm_theory_for_unary_signature():
    clauses = subterm_theory(system("loop_cb.trs").ctrs.signature)
    c = lambda t: App("c", (t,))
    expected = [
        HornClause((X,), (), Atom(SUBTERM, (X, X))),
        HornClause(
            (X, Y, Z),
            (Atom(SUBTERM, (X, Y)), Atom(SUBTERM, (Y, Z))),
            Atom(SUBTERM, (X, Z)),
        ),
        HornClause((X,), (), Atom(SUBTERM, (c(X), X))),
    ]
    assert alpha_keys(clauses) == alpha_keys(expected)


def test_subterm_theory_constants_only_has_no_projections():
    sig = Signature(functions={"a": ((), DEFAULT_SORT), "b": ((), DEFAULT_SORT)})
    clauses = subterm_theory(sig)
    assert len(clauses) == 2
    assert all(a.predicate == SUBTERM for c in clauses for a in (*c.body, c.head))


def test_subterm_theory_binary_symbol_projects_both_arguments():
    sig = Signature(functions={"f": ((DEFAULT_SORT, DEFAULT_SORT), DEFAULT_SORT), "a": ((), DEFAULT_SORT)})
    clauses = subterm_theory(sig)
    x1, x2 = Var("x1"), Var("x2")
    f = App("f", (x1, x2))
    heads = [c.head for c in clauses if not c.body and isinstance(c.head.args[0], App)]
    assert heads == [Atom(SUBTERM, (f, x1)), Atom(SUBTERM, (f, x2))]


def test_root_theory_of_conditional_system():
    clauses = root_theory(system("root_f.trs").ctrs)
    f = lambda t: App("f", (t,))
    expected = [
        HornClause((), (), Atom(ROOT_STEP, (A, B))),
        HornClause((), (), Atom(ROOT_STEP, (B, A))),
        HornClause(
            (X,),
            (Atom(MANY_STEPS, (C, D)), Atom(MANY_STEPS, (A, C))),
            Atom(ROOT_STEP, (f(X), X)),
        ),
    ]
    assert alpha_keys(clauses) == alpha_keys(expected)
    assert [c.tag for c in clauses] == ["Root(1)", "Root(2)", "Root(3)"]
    # No reflexivity, transitivity, or congruence for the root-step relation.
    assert all(c.head.predicate == ROOT_STEP for c in clauses)
    assert all(a.predicate == MANY_STEPS for c in clauses for a in c.body)


def test_root_theory_empty_system():
    sig = Signature(functions={"a": ((), DEFAULT_SORT)})
    assert root_theory(CTRS(sig, ())) == ()


def test_relativize_is_identity_on_single_sort():
    theory = compile_ctrs(system("intro.trs").ctrs)
    assert relativize_sorts(theory) is theory


def test_relativize_adds_subsort_membership():
    theory = relativize_sorts(compile_ctrs(system("website.trs").ctrs))
    reg_to_user = HornClause(
        (Var("x", "RegUser"),),
        (Atom(sort_predicate("RegUser"), (Var("x", "RegUser"),)),),
        Atom(sort_predicate("User"), (Var("x", "RegUser"),)),
    )
    assert alpha_key(reg_to_user) in alpha_keys(theory.clauses)


def test_relativize_adds_rank_membership():
    theory = relativize_sorts(compile_ctrs(system("website.trs").ctrs))
    x = Var("x", "RegUser")
    rank = HornClause(
        (x,),
        (Atom(sort_predicate("RegUser"), (x,)),),
        Atom(sort_predicate("SecureWebPage"), (App("submit", (x,)),)),
    )
    assert alpha_key(rank) in alpha_keys(theory.clauses)


def test_relativized_clauses_carry_sort_atoms():
    theory = relativize_sorts(compile_ctrs(system("website.trs").ctrs))
    for clause in theory.clauses:
        for v in clause.variables:
            assert Atom(sort_predicate(v.sort), (v,)) in clause.body or not clause.variables


def test_relativize_is_idempotent():
    theory = relativize_sorts(compile_ctrs(system("website.trs").ctrs))
    assert relativize_sorts(theory) is theory


def test_compile_rejects_uninhabited_quantified_sort():
    sig = Signature(functions={"f": ((DEFAULT_SORT,), DEFAULT_SORT)})  # no constants at all
    with pytest.raises(EmptySortError):
        compile_ctrs(CTRS(sig, ()))
