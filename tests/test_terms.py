from __future__ import annotations

import copy
import dataclasses
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from countermodel.errors import RuleError, SignatureError, SubstitutionError
from countermodel.lexer import MAX_NESTING
from countermodel.terms import (
    App,
    ConditionalRule,
    DEFAULT_SORT,
    Signature,
    Var,
    apply_substitution,
    ground_terms,
    subterms,
    term_size,
    term_vars,
)

X, Y = Var("x"), Var("y")
A, B, C = App("a"), App("b"), App("c")


def unsorted_signature(**functions: int) -> Signature:
    return Signature(functions={n: ((DEFAULT_SORT,) * k, DEFAULT_SORT) for n, k in functions.items()})


def test_substitution_identity():
    assert apply_substitution({}, App("f", (X,))) == App("f", (X,))


def test_substitution_direct():
    assert apply_substitution({X: A}, App("f", (X,))) == App("f", (A,))


def sequential_oracle(subst, term):
    # One variable at a time; agrees with the simultaneous form whenever the
    # images mention no domain variables.
    for var, image in subst.items():
        term = apply_substitution({var: image}, term)
    return term


def test_substitution_is_simultaneous():
    subst = {X: App("g", (Y,)), Y: B}
    term = App("f", (X, Y))
    assert apply_substitution(subst, term) == App("f", (App("g", (Y,)), B))
    # the sequential oracle differs precisely because g(y) mentions y
    assert sequential_oracle(subst, term) == App("f", (App("g", (B,)), B))


@given(st.integers(0, 2), st.integers(0, 2))
def test_substitution_matches_sequential_on_disjoint_images(i, j):
    images = [A, B, App("g", (C,))]
    subst = {X: images[i], Y: images[j]}
    term = App("f", (X, App("g", (Y,)), Y))
    assert apply_substitution(subst, term) == sequential_oracle(subst, term)


def test_substitution_sort_mismatch():
    sig = Signature(
        sorts=("Nat", "Bool"),
        functions={"true": ((), "Bool"), "f": (("Nat",), "Nat")},
    )
    with pytest.raises(SubstitutionError):
        apply_substitution({Var("x", "Nat"): App("true")}, Var("x", "Nat"), sig)


@given(st.deferred(lambda: terms))
def test_substitution_is_a_term_homomorphism(term):
    subst = {X: App("g", (A,)), Y: B}
    image = apply_substitution(subst, term)
    if isinstance(term, App):
        assert image == App(term.symbol, tuple(apply_substitution(subst, a) for a in term.args))


terms = st.recursive(
    st.sampled_from([X, Y, A, B]),
    lambda inner: st.builds(lambda args: App("f", tuple(args)), st.lists(inner, min_size=2, max_size=2))
    | st.builds(lambda arg: App("g", (arg,)), inner),
    max_leaves=6,
)


def test_ground_terms_intro_constants():
    sig = unsorted_signature(a=0, b=0, c=0)
    assert ground_terms(sig, DEFAULT_SORT, 1) == {A, B, C}


def test_ground_terms_unary_bound_two():
    sig = unsorted_signature(a=0, b=0, f=1, g=1)
    expected = {A, B, App("f", (A,)), App("f", (B,)), App("g", (A,)), App("g", (B,))}
    assert ground_terms(sig, DEFAULT_SORT, 2) == expected


def test_ground_terms_rejects_zero_bound():
    with pytest.raises(ValueError):
        ground_terms(unsorted_signature(a=0), DEFAULT_SORT, 0)


@given(st.integers(1, 4))
def test_ground_terms_monotone_in_bound(bound):
    sig = unsorted_signature(a=0, f=1, g=2)
    assert ground_terms(sig, DEFAULT_SORT, bound) <= ground_terms(sig, DEFAULT_SORT, bound + 1)


def test_subterms_constant():
    assert subterms(A) == {A}


def test_subterms_unary():
    assert subterms(App("c", (B,))) == {App("c", (B,)), B}


def positions_oracle(term):
    # Independent enumeration by positions instead of structural recursion.
    out = []
    stack = [term]
    while stack:
        t = stack.pop()
        out.append(t)
        if isinstance(t, App):
            stack.extend(t.args)
    return set(out)


def test_subterms_matches_position_enumeration():
    term = App("f", (App("g", (A,)), A))
    assert subterms(term) == positions_oracle(term)
    assert subterms(term) == {term, App("g", (A,)), A}


@given(st.deferred(lambda: terms))
def test_subterm_count_bounded_by_size(term):
    assert len(subterms(term)) <= term_size(term)


def test_rule_rejects_variable_lhs():
    with pytest.raises(RuleError):
        ConditionalRule(X, A)


def test_rule_allows_extra_variables():
    rule = ConditionalRule(App("f", (X,)), App("pair", (X, Y)))
    assert Y in rule.variables()


def test_signature_rejects_subsort_cycle():
    with pytest.raises(SignatureError):
        Signature(sorts=("A", "B"), subsort_pairs=(("A", "B"), ("B", "A")))


def test_signature_rejects_undeclared_rank_sort():
    with pytest.raises(SignatureError):
        Signature(sorts=("A",), functions={"f": (("B",), "A")})


def test_sorted_ground_terms_respect_subsorts():
    sig = Signature(
        sorts=("RegUser", "User", "Page"),
        subsort_pairs=(("RegUser", "User"),),
        functions={
            "slucas": ((), "RegUser"),
            "view": (("User",), "Page"),
        },
    )
    users = ground_terms(sig, "User", 1)
    assert users == {App("slucas")}
    pages = ground_terms(sig, "Page", 2)
    assert pages == {App("view", (App("slucas"),))}


def test_term_vars_first_occurrence_order():
    term = App("f", (Y, App("g", (X,)), Y))
    assert term_vars(term) == (Y, X)


# -- the cached hash of App -----------------------------------------------------


def _nested(depth: int) -> App:
    term = A
    for _ in range(depth):
        term = App("f", (term,))
    return term


def test_separately_built_equal_terms_are_equal_and_hash_equal():
    first = App("g", (App("f", (A,)), B))
    hash(first)  # cached on the first, not yet on the second
    second = App("g", (App("f", (A,)), B))
    assert first == second and first is not second
    assert hash(first) == hash(second) == hash(first)
    assert len({first, second, App("g", (App("f", (A,)), B))}) == 1
    assert first != App("g", (B, App("f", (A,))))


def test_the_cached_hash_is_no_field_and_not_in_the_repr():
    term = App("f", (A,))
    hash(term)
    assert [f.name for f in dataclasses.fields(App)] == ["symbol", "args"]
    assert repr(term) == "App(symbol='f', args=(App(symbol='a', args=()),))"
    assert dataclasses.asdict(term) == {"symbol": "f", "args": ({"symbol": "a", "args": ()},)}


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))])
def test_copies_and_pickles_stay_equal_and_hash_equal(clone):
    term = App("g", (App("f", (X,)), B))
    hash(term)
    cloned = clone(term)
    assert cloned == term and hash(cloned) == hash(term)


def test_a_pickled_term_hashes_afresh_in_another_process():
    # String hashes differ between processes, so a hash cached here must not
    # travel with the pickle.
    term = App("g", (App("f", (A,)), B))
    hash(term)
    script = (
        "import pickle, sys\n"
        "from countermodel.terms import App\n"
        "term = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = App('g', (App('f', (App('a'),)), App('b')))\n"
        "print(hash(term) == hash(fresh), {term: 1}.get(fresh))\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run(
        [sys.executable, "-c", script], input=pickle.dumps(term), env=env, capture_output=True, check=True
    )
    assert run.stdout.decode().split() == ["True", "1"]


def test_a_term_at_the_nesting_cap_hashes_without_recursion_error():
    deep = _nested(MAX_NESTING)
    assert hash(deep) == hash(_nested(MAX_NESTING)) == hash(deep)
    assert {deep: 1}[deep] == 1
