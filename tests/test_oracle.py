from __future__ import annotations

import pytest

from countermodel.cli import EXIT_INPUT, main
from countermodel.compiler import compile_ctrs
from countermodel.errors import EmptySortError
from countermodel.logic import Atom
from countermodel.oracle import derivable, saturate
from countermodel.structures import eval_atom
from countermodel.terms import (
    ARROW,
    CTRS,
    DEFAULT_SORT,
    MANY_STEPS,
    ROOT_STEP,
    SUBTERM,
    App,
    Signature,
)
from countermodel.trs_format import parse_ctrs
from paperdata import paper_certificate, system

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
    assert derivable(ctrs, Atom(ARROW, (B, A)), 1, 2)
    assert not derivable(ctrs, Atom(ARROW, (A, B)), 1, 50)
    assert derivable(ctrs, Atom(MANY_STEPS, (C, C)), 1, 1)


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
    assert derivable(join, Atom(ARROW, (d, e)), 1, 6)
    assert not derivable(oriented, Atom(ARROW, (d, e)), 1, 6)


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
    assert atoms.depth(Atom(ARROW, (ha, A))) == 1
    assert atoms.depth(Atom(MANY_STEPS, (ha, A))) == 2


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
