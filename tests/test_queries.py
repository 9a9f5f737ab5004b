from __future__ import annotations

import itertools
import random

import pytest

from countermodel.errors import QueryError
from countermodel.logic import Atom, HornClause
from countermodel.queries import Query, negate_to_obligations, template
from countermodel.query_format import parse_query
from countermodel.structures import FiniteStructure, eval_atom
from countermodel.terms import (
    ARROW,
    DEFAULT_SORT,
    MANY_STEPS,
    SUBTERM,
    App,
    Signature,
    Var,
)
from paperdata import system

A, B = App("a"), App("b")
SIG = Signature(functions={"a": ((), DEFAULT_SORT), "b": ((), DEFAULT_SORT), "f": ((DEFAULT_SORT,), DEFAULT_SORT)})
X, Y = Var("x"), Var("y")


def test_joinable_template():
    q = template(SIG, "JOINABLE", A, B)
    assert q.variables == (X,)
    assert q.disjuncts == ((Atom(MANY_STEPS, (A, X)), Atom(MANY_STEPS, (B, X))),)


def test_looping_term_template():
    q = template(SIG, "LOOPING", A)
    assert q.variables == (X, Y)
    assert q.disjuncts == (
        (Atom(ARROW, (A, X)), Atom(MANY_STEPS, (X, Y)), Atom(SUBTERM, (Y, A))),
    )


def test_convertible_template_has_two_disjuncts():
    q = template(SIG, "CONVERTIBLE", A, B)
    assert q.disjuncts == ((Atom(ARROW, (A, B)),), (Atom(ARROW, (B, A)),))


def test_cycling_system_template():
    q = template(SIG, "CYCLING")
    assert q.variables == (X, Y)
    assert q.disjuncts == ((Atom(ARROW, (X, Y)), Atom(MANY_STEPS, (Y, X))),)


def test_looping_system_template():
    q = template(SIG, "LOOPING")
    z = Var("z")
    assert q.variables == (X, Y, z)
    assert q.disjuncts == (
        (Atom(ARROW, (X, Y)), Atom(MANY_STEPS, (Y, z)), Atom(SUBTERM, (z, X))),
    )


def test_an_unknown_template_name_is_a_query_error():
    with pytest.raises(QueryError, match="unknown query template 'NOPE'"):
        template(SIG, "NOPE")


def test_ground_templates_reject_variables():
    with pytest.raises(QueryError):
        template(SIG, "REACHABLE", X, B)
    with pytest.raises(QueryError):
        template(SIG, "REDUCIBLE", App("f", (X,)))


def test_negate_ground_atom_query():
    q = template(SIG, "REACHABLE", A, B)
    obligations = negate_to_obligations(q)
    assert len(obligations) == 1
    assert obligations[0].variables == ()
    assert obligations[0].body == (Atom(MANY_STEPS, (A, B)),)


def test_negate_convertible_gives_two_ground_obligations():
    obligations = negate_to_obligations(template(SIG, "CONVERTIBLE", A, B))
    assert [ob.variables for ob in obligations] == [(), ()]
    assert [ob.body for ob in obligations] == [
        (Atom(ARROW, (A, B)),),
        (Atom(ARROW, (B, A)),),
    ]


def test_negate_division_ccp_has_four_universals():
    document = system("division.trs")
    q = parse_query(
        "FEASIBLE(le(x, w) == true, div(sub(w, x), x) == pair(y, z), gt(x, w) == true)",
        document.ctrs.signature,
        document.var_sorts,
    )
    (obligation,) = negate_to_obligations(q)
    assert len(obligation.body) == 3
    assert sorted(v.name for v in obligation.variables) == ["w", "x", "y", "z"]


def test_obligations_are_headless_clauses_spelled_as_negations():
    u = Var("u", "User")
    query = Query((X, u, Y), ((Atom(ARROW, (X, u)),), (Atom(MANY_STEPS, (A, B)), Atom(ARROW, (B, A)))))
    first, second = negate_to_obligations(query)
    assert (type(first), first.head, first.variables) == (HornClause, None, (X, u))
    assert str(first) == "FORALL x, u:User . NOT (x -> u)"
    assert str(second) == "NOT (a ->* b /\\ b -> a)"


def test_query_requires_bound_variables():
    with pytest.raises(QueryError):
        Query((), ((Atom(ARROW, (X, A)),),))


def test_feasibility_template_binds_in_occurrence_order():
    q = template(SIG, "FEASIBLE", [(App("f", (Y,)), X), (X, A)])
    assert q.variables == (Y, X)


def random_finite_structure(rng: random.Random) -> FiniteStructure:
    carrier = tuple(range(rng.randint(1, 3)))
    functions = {
        "a": {(): rng.choice(carrier)},
        "b": {(): rng.choice(carrier)},
        "f": {(v,): rng.choice(carrier) for v in carrier},
    }
    def relation():
        return frozenset(p for p in itertools.product(carrier, repeat=2) if rng.random() < 0.5)
    predicates = {ARROW: relation(), MANY_STEPS: relation(), SUBTERM: relation()}
    return FiniteStructure(SIG, {DEFAULT_SORT: carrier}, functions, predicates)


def query_holds_directly(structure: FiniteStructure, query: Query) -> bool:
    # Direct evaluation of the existential closure of the DNF.
    carrier = structure.carrier(DEFAULT_SORT)
    names = [v.name for v in query.variables]
    for values in itertools.product(carrier, repeat=len(names)):
        valuation = dict(zip(names, values))
        for disjunct in query.disjuncts:
            if all(eval_atom(structure, valuation, atom) for atom in disjunct):
                return True
    return False


@pytest.mark.parametrize("seed", range(40))
def test_obligations_equivalent_to_negated_query_on_finite_structures(seed):
    rng = random.Random(seed)
    structure = random_finite_structure(rng)
    kind = rng.choice(["join", "loopsys", "cyclsys", "conv", "feas"])
    if kind == "join":
        query = template(SIG, "JOINABLE", A, B)
    elif kind == "loopsys":
        query = template(SIG, "LOOPING")
    elif kind == "cyclsys":
        query = template(SIG, "CYCLING")
    elif kind == "conv":
        query = template(SIG, "CONVERTIBLE", A, B)
    else:
        query = template(SIG, "FEASIBLE", [(App("f", (X,)), X), (X, B)])
    obligations = negate_to_obligations(query)
    all_hold = True
    for ob in obligations:
        names = [v.name for v in ob.variables]
        satisfied = any(
            all(eval_atom(structure, dict(zip(names, vals)), atom) for atom in ob.body)
            for vals in itertools.product(structure.carrier(DEFAULT_SORT), repeat=len(names))
        )
        if satisfied:
            all_hold = False
    assert all_hold == (not query_holds_directly(structure, query))


def test_template_round_trips_through_parser():
    cases = [
        ("JOINABLE(a, b)", template(SIG, "JOINABLE", A, B)),
        ("REACHABLE(a, b)", template(SIG, "REACHABLE", A, B)),
        ("CONVERTIBLE(a, b)", template(SIG, "CONVERTIBLE", A, B)),
        ("REDUCIBLE(a)", template(SIG, "REDUCIBLE", A)),
        ("CYCLING(a)", template(SIG, "CYCLING", A)),
        ("CYCLING()", template(SIG, "CYCLING")),
        ("LOOPING(a)", template(SIG, "LOOPING", A)),
        ("LOOPING()", template(SIG, "LOOPING")),
    ]
    for text, expected in cases:
        assert parse_query(text, SIG) == expected
