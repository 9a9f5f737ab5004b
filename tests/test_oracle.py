from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import naive_oracle
from countermodel.cli import EXIT_INPUT, main
from countermodel.compiler import compile_ctrs
from countermodel.errors import EmptySortError
from countermodel.logic import Atom
from countermodel.oracle import _Numbering, saturate
from countermodel.structures import eval_atom
from countermodel.terms import (
    ARROW,
    CTRS,
    DEFAULT_SORT,
    JOIN,
    MANY_STEPS,
    ORIENTED,
    ROOT_STEP,
    SUBTERM,
    App,
    ConditionalRule,
    Signature,
    Var,
    term_size,
)
from countermodel.trs_format import parse_ctrs
from paperdata import CORPUS, paper_certificate, system

A, B, C = App("a"), App("b"), App("c")


def test_intro_saturation_contents():
    ctrs = system("intro.trs").ctrs
    atoms = saturate(ctrs, 1, 5)
    for present in (
        Atom(ARROW, (B, A)),
        Atom(MANY_STEPS, (B, A)),
        Atom(MANY_STEPS, (A, A)),
        Atom(MANY_STEPS, (B, B)),
        Atom(MANY_STEPS, (C, C)),
    ):
        assert present in atoms
    for absent in (Atom(ARROW, (A, B)), Atom(MANY_STEPS, (C, B))):
        assert absent not in atoms


def test_fig3_saturation_contents():
    ctrs = system("fig3.trs").ctrs
    atoms = saturate(ctrs, 2, 4)
    fa, fb, ga = App("f", (A,)), App("f", (B,)), App("g", (A,))
    assert Atom(ARROW, (A, B)) in atoms
    assert Atom(ARROW, (fa, B)) in atoms
    assert Atom(ARROW, (fa, fb)) in atoms  # congruence below f
    assert Atom(MANY_STEPS, (fa, B)) in atoms
    # the conditional g-rule never fires: f(t) ->* t is underivable
    assert not [x for x in atoms.atoms if x.predicate == ARROW and x.args[1] == ga]


def test_zero_rule_system_yields_only_reflexive_atoms():
    sig = Signature(functions={"a": ((), DEFAULT_SORT), "b": ((), DEFAULT_SORT)})
    atoms = saturate(CTRS(sig, ()), 1, 3)
    assert set(atoms.atoms) == {
        Atom(MANY_STEPS, (A, A)),
        Atom(MANY_STEPS, (B, B)),
        Atom(SUBTERM, (A, A)),
        Atom(SUBTERM, (B, B)),
    }


def test_derivable_examples():
    ctrs = system("intro.trs").ctrs
    assert Atom(ARROW, (B, A)) in saturate(ctrs, 1, 2)
    assert Atom(ARROW, (A, B)) not in saturate(ctrs, 1, 50)
    assert Atom(MANY_STEPS, (C, C)) in saturate(ctrs, 1, 1)


def test_root_steps_are_not_context_closed():
    ctrs = system("fig3.trs").ctrs
    atoms = saturate(ctrs, 2, 4)
    fa, fb = App("f", (A,)), App("f", (B,))
    assert Atom(ROOT_STEP, (A, B)) in atoms
    assert Atom(ROOT_STEP, (fa, B)) in atoms
    assert Atom(ROOT_STEP, (fa, fb)) not in atoms  # would need congruence


def test_subterm_atoms_from_structure():
    ctrs = system("loop_cb.trs").ctrs
    atoms = saturate(ctrs, 2, 3)
    cb = App("c", (B,))
    assert Atom(SUBTERM, (cb, B)) in atoms
    assert Atom(SUBTERM, (cb, cb)) in atoms
    assert Atom(SUBTERM, (B, cb)) not in atoms


@pytest.mark.parametrize("name", ["intro.trs", "fig3.trs", "fab.trs", "loop_cb.trs"])
def test_saturation_monotone_in_bounds(name):
    ctrs = system(name).ctrs
    small = saturate(ctrs, 1, 2)
    medium = saturate(ctrs, 2, 3)
    large = saturate(ctrs, 2, 5)
    assert set(small.atoms) <= set(medium.atoms) <= set(large.atoms)


@pytest.mark.parametrize("name", ["intro.trs", "fig3.trs", "hg.trs", "fab.trs"])
def test_many_steps_contains_single_steps_and_is_transitive(name):
    ctrs = system(name).ctrs
    atoms = saturate(ctrs, 2, 6)
    steps = {a.args for a in atoms.atoms if a.predicate == ARROW}
    many = {a.args for a in atoms.atoms if a.predicate == MANY_STEPS}
    for s, t in steps:
        assert (s, t) in many
    for s, t in many:
        assert (s, s) in many and (t, t) in many
        for u, v in many:
            if t == u:
                assert (s, v) in many


def test_join_conditions_need_a_common_reduct():
    from countermodel.trs_format import parse_ctrs

    # d -> e fires only if a and b join; they do (both reach c), so the
    # joinability reading derives d -> e while the oriented reading of the
    # same text (a ->* b) does not.
    join = parse_ctrs(
        "(CONDITIONTYPE JOIN) (RULES a -> c  b -> c  d -> e | a == b)"
    )
    oriented = parse_ctrs("(RULES a -> c  b -> c  d -> e | a == b)")
    d, e = App("d"), App("e")
    assert Atom(ARROW, (d, e)) in saturate(join, 1, 6)
    assert Atom(ARROW, (d, e)) not in saturate(oriented, 1, 6)


NO_LUB_JOIN = """
(SORTS A B)
(SIG a : -> A  b : -> B  d : -> A  e : -> A)
(CONDITIONTYPE JOIN)
(RULES d -> e | a == b)
"""


def test_join_condition_without_lub_is_rejected_as_by_the_compiler(tmp_path, capsys):
    ctrs = parse_ctrs(NO_LUB_JOIN)
    with pytest.raises(EmptySortError, match="unrelated sorts 'A' and 'B'"):
        compile_ctrs(ctrs)
    with pytest.raises(EmptySortError, match="unrelated sorts 'A' and 'B'"):
        saturate(ctrs, 1, 3)
    path = tmp_path / "no_lub.trs"
    path.write_text(NO_LUB_JOIN)
    assert main(["derive", str(path), "--size", "1", "--depth", "3"]) == EXIT_INPUT
    assert "unrelated sorts" in capsys.readouterr().err


def test_depth_accounts_for_condition_subproofs():
    # g(x) -> a <= h(x) == b is never applicable, but h(x) -> a (depth 1)
    # feeds transitivity: h(a) ->* a needs depth 2.
    ctrs = system("hg.trs").ctrs
    atoms = saturate(ctrs, 2, 6)
    ha = App("h", (A,))
    assert atoms.atoms.get(Atom(ARROW, (ha, A))) == 1
    assert atoms.atoms.get(Atom(MANY_STEPS, (ha, A))) == 2


def test_derived_atoms_hold_in_verified_structures():
    for name in ("intro-restricted", "nonjoinability", "increasing-f", "non-cycling"):
        cert = paper_certificate(name)
        assert cert.overall == "verified"
        document = cert.theory.signature
        atoms = saturate(_ctrs_for(name), 3, 5)
        interpreted = set(cert.structure.predicates)
        for atom in atoms.atoms:
            if atom.predicate in interpreted:
                assert eval_atom(cert.structure, {}, atom), f"{name}: {atom}"


def _ctrs_for(name: str):
    from paperdata import PAPER_CHECKS

    check = next(c for c in PAPER_CHECKS if c.name == name)
    return system(check.system).ctrs


@pytest.mark.parametrize("name", ["fig3.trs", "loop_cb.trs"])
def test_ground_rules_respect_the_size_bound(name, capsys):
    # fig3 has the ground rule f(a) -> b, loop_cb has a -> c(b) and b -> c(b).
    atoms = saturate(system(name).ctrs, 1, 5)
    assert all(term_size(t) == 1 for atom in atoms.atoms for t in atom.args)
    assert main(["derive", str(CORPUS / name), "--size", "1"]) == 0
    # every term of size 1 is a constant, printed without parentheses
    assert "(" not in capsys.readouterr().out


def test_root_step_found_after_its_congruence_step_keeps_its_own_depth():
    # f(a) -> f(b) follows from a -> b under f at depth 2; the root step
    # needs the rule, whose condition a ->* b has depth 2, so it comes at 3.
    ctrs = parse_ctrs("(VAR x) (RULES a -> b  f(x) -> f(b) | x == b)")
    atoms = saturate(ctrs, 2, 5)
    fa, fb = App("f", (A,)), App("f", (B,))
    assert atoms.atoms.get(Atom(ARROW, (fa, fb))) == 2
    assert atoms.atoms.get(Atom(ROOT_STEP, (fa, fb))) == 3


SUPERSORT_CONTRACTUM = """
(SORTS N I)
(SUBSORTS N < I)
(SIG z : -> N  m : -> I  s : N -> N  p : I -> I)
(RULES z -> m)
"""


def test_contexts_admit_the_contractum_sort_only_where_declared():
    # z -> m rewrites into the supersort: p(z) -> p(m) is well-sorted, while
    # s(m) is not a term, so s(z) has no step below s.
    atoms = saturate(parse_ctrs(SUPERSORT_CONTRACTUM), 2, 5)
    z, m = App("z"), App("m")
    assert Atom(ARROW, (App("p", (z,)), App("p", (m,)))) in atoms
    assert not [a for a in atoms.atoms if a.predicate == ARROW and a.args[0] == App("s", (z,))]


# -- the semi-naive evaluation against the naive fixpoint it replaced ---------


def _assert_same_as_naive(ctrs, size: int, depth: int) -> None:
    assert dict(saturate(ctrs, size, depth).atoms) == dict(
        naive_oracle.saturate(ctrs, size, depth).atoms
    )


TERNARY = """
(SORTS N I)
(SUBSORTS N < I)
(SIG z : -> N  m : -> I  s : N -> N  p : I -> I  h : I N I -> I)
(VAR x:N y:I)
(RULES s(x) -> z  z -> m  p(y) -> s(z))
"""


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("name", ["ternary", *sorted(p.name for p in CORPUS.glob("*.trs"))])
def test_the_naive_enumeration_equals_the_numbered_one(name, size):
    # The reference enumerates on its own; a term of sort s is one whose
    # declared sort is at most s.
    sig = (parse_ctrs(TERNARY) if name == "ternary" else system(name).ctrs).signature
    numbering = _Numbering(sig, size)
    assert len(set(numbering.ground)) == len(numbering.ground)
    for sort in sig.sorts:
        pools = numbering.pools[sort]
        numbered = [numbering.ground[i] for pool in pools for i in pool]
        assert len(set(numbered)) == len(numbered)
        assert all(term_size(numbering.ground[i]) == k for k, pool in enumerate(pools) for i in pool)
        assert naive_oracle.ground_terms(sig, sort, size) == set(numbered)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_ternary_contexts_equal_the_naive_fixpoint(size):
    # h's middle argument admits only N: a step into I is not closed under it,
    # while the outer holes take both sorts.
    ctrs = parse_ctrs(TERNARY)
    _assert_same_as_naive(ctrs, size, 4)
    if size == 5:
        atoms = saturate(ctrs, size, 4)
        z, m = App("z"), App("m")
        assert Atom(ARROW, (App("h", (m, App("s", (z,)), m)), App("h", (m, z, m)))) in atoms
        assert Atom(ARROW, (App("h", (z, z, m)), App("h", (m, z, m)))) in atoms
        assert not [
            a
            for a in atoms.atoms
            if a.predicate == ARROW and a.args[0] == App("h", (m, z, m))
        ]


@pytest.mark.parametrize("size", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.trs")))
def test_corpus_depths_equal_the_naive_fixpoint(name, size):
    _assert_same_as_naive(system(name).ctrs, size, 5)


@pytest.mark.parametrize("size", [1, 2])
def test_join_depths_equal_the_naive_fixpoint(size):
    _assert_same_as_naive(
        parse_ctrs("(CONDITIONTYPE JOIN) (RULES a -> c  b -> c  d -> e | a == b)"), size, 6
    )


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_depth_cutoff_equals_the_naive_fixpoint(depth):
    _assert_same_as_naive(system("division.trs").ctrs, 3, depth)


_SIG = Signature(
    functions={
        "a": ((), DEFAULT_SORT),
        "b": ((), DEFAULT_SORT),
        "f": ((DEFAULT_SORT,), DEFAULT_SORT),
        "g": ((DEFAULT_SORT, DEFAULT_SORT), DEFAULT_SORT),
    }
)


def _terms(leaves):
    return st.recursive(
        st.sampled_from(leaves),
        lambda sub: st.one_of(
            st.builds(lambda t: App("f", (t,)), sub),
            st.builds(lambda s, t: App("g", (s, t)), sub, sub),
        ),
        max_leaves=3,
    )


_CONSTANTS = [App("a"), App("b")]
_LHS_VARIABLES = [Var("x"), Var("y")]
# z occurs only right of the left-hand side: a fresh variable
_ANY_VARIABLES = _LHS_VARIABLES + [Var("z")]

_RULES = st.builds(
    ConditionalRule,
    _terms(_CONSTANTS + _LHS_VARIABLES).filter(lambda t: isinstance(t, App)),
    _terms(_CONSTANTS + _ANY_VARIABLES),
    st.lists(
        st.tuples(_terms(_CONSTANTS + _ANY_VARIABLES), _terms(_CONSTANTS + _ANY_VARIABLES)),
        max_size=2,
    ).map(tuple),
    st.sampled_from([ORIENTED, JOIN]),
)


@settings(max_examples=80, deadline=None)
@given(
    rules=st.lists(_RULES, min_size=1, max_size=3),
    size=st.integers(1, 3),
    depth=st.integers(1, 5),
)
def test_random_systems_equal_the_naive_fixpoint(rules, size, depth):
    _assert_same_as_naive(CTRS(_SIG, tuple(rules)), size, depth)


# Order-sorted: N < I, with symbols ranked over both sorts and variables of each.
_SORTED_SIG = Signature(
    sorts=("N", "I"),
    subsort_pairs=(("N", "I"),),
    functions={
        "z": ((), "N"),
        "m": ((), "I"),
        "s": (("N",), "N"),
        "p": (("I",), "I"),
        "g": (("N", "I"), "I"),
    },
)


def _sorted_terms(variables):
    """Well-sorted terms of sort N and of sort I (which takes every N term too)."""
    n_terms = st.recursive(
        st.sampled_from([App("z")] + [v for v in variables if v.sort == "N"]),
        lambda sub: st.builds(lambda t: App("s", (t,)), sub),
        max_leaves=3,
    )
    i_terms = st.recursive(
        st.one_of(st.sampled_from([App("m")] + [v for v in variables if v.sort == "I"]), n_terms),
        lambda sub: st.one_of(
            st.builds(lambda t: App("p", (t,)), sub),
            st.builds(lambda s, t: App("g", (s, t)), n_terms, sub),
        ),
        max_leaves=3,
    )
    return st.one_of(n_terms, i_terms)


_SORTED_LHS_VARIABLES = [Var("x", "N"), Var("y", "I")]
# v and w occur only right of the left-hand side: fresh variables
_SORTED_ANY_VARIABLES = _SORTED_LHS_VARIABLES + [Var("v", "N"), Var("w", "I")]

_SORTED_RULES = st.builds(
    ConditionalRule,
    _sorted_terms(_SORTED_LHS_VARIABLES).filter(lambda t: isinstance(t, App)),
    _sorted_terms(_SORTED_ANY_VARIABLES),
    st.lists(
        st.tuples(_sorted_terms(_SORTED_ANY_VARIABLES), _sorted_terms(_SORTED_ANY_VARIABLES)),
        max_size=2,
    ).map(tuple),
    st.sampled_from([ORIENTED, JOIN]),
)


@settings(max_examples=80, deadline=None)
@given(
    rules=st.lists(_SORTED_RULES, min_size=1, max_size=3),
    size=st.integers(1, 3),
    depth=st.integers(1, 5),
)
def test_random_order_sorted_systems_equal_the_naive_fixpoint(rules, size, depth):
    _assert_same_as_naive(CTRS(_SORTED_SIG, tuple(rules)), size, depth)


def _f_nested(depth: int, inner) -> App:
    for _ in range(depth):
        inner = App("f", (inner,))
    return inner


def test_rule_terms_at_the_nesting_cap_compile_without_recursion_error():
    # The rule's two sides hold separately built equal subterms 254 deep,
    # which compiling must not compare structurally.
    sig = Signature(functions={"a": ((), DEFAULT_SORT), "f": ((DEFAULT_SORT,), DEFAULT_SORT)})
    x = Var("x")
    rule = ConditionalRule(_f_nested(255, x), _f_nested(254, x))
    atoms = saturate(CTRS(sig, (rule,)), 256, 2)
    assert [tuple(map(term_size, a.args)) for a in atoms.atoms if a.predicate == ARROW] == [(256, 255)]
    assert len([a for a in atoms.atoms if a.predicate == SUBTERM]) == 256 * 257 // 2
