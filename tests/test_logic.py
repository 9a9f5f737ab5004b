"""The tuple ``Atom``: its arity checks, its bulk constructor, its copies and its text."""
from __future__ import annotations

import copy
import pickle

import pytest

from countermodel.logic import Atom, sort_predicate
from countermodel.terms import ARROW, BUILTIN_PREDICATES, MANY_STEPS, SUBTERM, App, Var

X, Y = Var("x"), Var("y", "Nat")
A = App("a")
FAX = App("f", (A, X))


@pytest.mark.parametrize("predicate", BUILTIN_PREDICATES)
@pytest.mark.parametrize("args", [(A,), (A, X, A)], ids=["one argument", "three arguments"])
def test_a_rewriting_predicate_is_binary(predicate, args):
    with pytest.raises(ValueError) as raised:
        Atom(predicate, args)
    assert str(raised.value) == f"predicate '{predicate}' is binary"


@pytest.mark.parametrize("args", [(), (Y, Y)], ids=["no argument", "two arguments"])
def test_a_sort_predicate_is_unary(args):
    with pytest.raises(ValueError) as raised:
        Atom(sort_predicate("Nat"), args)
    assert str(raised.value) == "sort predicates are unary"


@pytest.mark.parametrize("predicate", [sort_predicate("Nat"), "p"])
def test_binary_takes_rewriting_predicates_only(predicate):
    # Rejected at the call, before a pair is read.
    with pytest.raises(ValueError) as raised:
        Atom.binary(predicate, iter(()), iter(()))
    assert str(raised.value) == f"predicate '{predicate}' is not a rewriting predicate"


def test_binary_builds_the_atoms_the_constructor_builds():
    atoms = list(Atom.binary(ARROW, iter([A, FAX]), (FAX, X)))
    assert atoms == [Atom(ARROW, (A, FAX)), Atom(ARROW, (FAX, X))]
    assert [type(atom) for atom in atoms] == [Atom, Atom]
    assert [hash(atom) for atom in atoms] == [hash(Atom(ARROW, (A, FAX))), hash(Atom(ARROW, (FAX, X)))]
    # Zipping stops at the shorter column, so no atom gets one argument.
    assert list(Atom.binary(SUBTERM, [A, A], [X])) == [Atom(SUBTERM, (A, X))]


@pytest.mark.parametrize(
    "atom",
    [
        Atom(MANY_STEPS, (FAX, A)),
        next(Atom.binary(ARROW, [FAX], [X])),
        Atom(sort_predicate("Nat"), (Y,)),
        Atom("p", (A, X, FAX)),
    ],
    ids=str,
)
def test_copies_are_equal_atoms(atom):
    for copied in (pickle.loads(pickle.dumps(atom)), copy.deepcopy(atom), copy.copy(atom)):
        assert copied == atom and hash(copied) == hash(atom)
        assert type(copied) is Atom


def test_an_atom_is_immutable():
    atom = Atom(ARROW, (A, X))
    with pytest.raises(AttributeError):
        atom.predicate = MANY_STEPS
    with pytest.raises(AttributeError):
        atom.extra = 1  # no instance dict
    assert (atom.predicate, atom.args) == (ARROW, (A, X))


def test_text_and_variables_are_unchanged():
    assert str(Atom(ARROW, (FAX, A))) == "f(a, x) -> a"
    assert str(Atom(sort_predicate("Nat"), (Y,))) == "S_Nat(y)"
    assert str(Atom("p", (A, FAX))) == "p(a, f(a, x))"
    assert Atom(MANY_STEPS, (FAX, Y)).format(lambda t: "<t>") == "<t> ->* <t>"
    assert Atom("p", (X, A)).format(lambda t: "<t>") == "p(<t>, <t>)"
    assert Atom(MANY_STEPS, (FAX, Y)).variables() == (X, Y)
    assert Atom(ARROW, (A, A)).variables() == ()
