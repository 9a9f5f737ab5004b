from __future__ import annotations

import dataclasses
import itertools

import pytest

from countermodel.errors import ModelError
from countermodel.linear import solve, integer_tighten
from countermodel.logic import Atom, sort_predicate
from countermodel.model_format import parse_model
from countermodel.structures import (
    AffineForm,
    ClauseLowering,
    FiniteStructure,
    Interval,
    PiecewiseFunction,
    SymbolicStructure,
    closure_check,
    eval_atom,
    eval_term,
)
from countermodel.terms import ARROW, MANY_STEPS, ROOT_STEP, App, Signature, Var
from comparisons import materialize
from paperdata import model_text, paper_instance, system

A, B, C = App("a"), App("b"), App("c")
X, Y = Var("x"), Var("y")


def test_eval_term_identity_function():
    _doc, _theory, _ob, s = paper_instance("nonjoinability")
    assert eval_term(s, {}, App("f", (B,))) == 1
    assert eval_term(s, {}, App("f", (A,))) == 0


def test_eval_term_constant_function():
    _doc, _theory, _ob, s = paper_instance("root-irreducibility")
    assert eval_term(s, {}, App("f", (C,))) == 1
    assert eval_term(s, {"x": 0}, App("f", (X,))) == 1


def test_eval_atom_on_restricted_intro_model():
    _doc, _theory, _ob, s = paper_instance("intro-restricted")
    assert not eval_atom(s, {}, Atom(ARROW, (A, B)))
    assert eval_atom(s, {}, Atom(ARROW, (B, A)))
    for value in s.carrier("term"):
        assert eval_atom(s, {"x": value}, Atom(MANY_STEPS, (X, X)))


def lowered_systems(structure, atom):
    """The system of ``atom`` holding, one per guard-case choice ``leaves`` keeps, in its order."""
    lowering = ClauseLowering(structure, atom.variables(), (atom,))
    return [
        lowering.system(guards + lowering.atom_constraints(atom, forms))
        for forms, guards in lowering.leaves()
    ]


def test_symbolic_atom_constraints_doubling():
    _doc, _theory, _ob, s = paper_instance("non-cycling")
    (system,) = lowered_systems(s, Atom(MANY_STEPS, (App("c", (X,)), X)))
    # c(x) lowers to 2x + 2 in place: {2x + 2 <= x, x >= -1} has no solution
    assert solve(integer_tighten(system)).status == "infeasible"


def test_symbolic_atom_constraints_ground_false_atom():
    _doc, _theory, _ob, s = paper_instance("non-cycling")
    (system,) = lowered_systems(s, Atom(ARROW, (B, A)))  # -1 < -1
    assert solve(system).status == "infeasible"


def test_symbolic_atom_constraints_respects_case_choice():
    from countermodel.terms import MANY_STEPS as MS

    _doc, _theory, _ob, s = paper_instance("division-ccp")
    # le(x, w) ->* true: under the first guard case le yields 1 and 1 >= 1
    # holds, so the system is satisfiable; under the "otherwise" case le
    # yields 0 and 0 >= 1 makes it infeasible.
    atom = Atom(MS, (App("le", (X, Var("w"))), App("true")))
    first, second = lowered_systems(s, atom)
    assert solve(integer_tighten(first)).status == "feasible"
    assert solve(integer_tighten(second)).status == "infeasible"


def test_symbolic_atom_constraints_root_step():
    doc, _theory, _ob, _s = paper_instance("root-irreducibility")
    from countermodel.model_format import parse_model
    from paperdata import model_text

    s = parse_model(
        model_text("root_irred.model"),
        doc.ctrs.signature,
        backend="symbolic",
        required_predicates=("->", "->*", "->^"),
    )
    (system,) = lowered_systems(s, Atom(ROOT_STEP, (App("f", (X,)), Y)))
    # f(x) lowers to 1 in place: {5 + y <= 1, -1 <= x,y <= 1} has no solution
    assert solve(integer_tighten(system)).status == "infeasible"


def test_closure_of_paper_models_is_clean():
    for name in ("nonjoinability", "non-cycling", "division-ccp", "website-security"):
        _doc, _theory, _ob, s = paper_instance(name)
        assert closure_check(s) == ()


def test_closure_catches_out_of_carrier_table_entry():
    _doc, _theory, _ob, s = paper_instance("nonjoinability")
    tables = {k: dict(v) for k, v in s.functions.items()}
    tables["f"][(1,)] = 2
    broken = FiniteStructure(s.signature, s.carriers, tables, s.predicates)
    violations = closure_check(broken)
    assert any(v.symbol == "f" and v.point == (1,) for v in violations)


def test_closure_catches_missing_table_entry():
    _doc, _theory, _ob, s = paper_instance("nonjoinability")
    tables = {k: dict(v) for k, v in s.functions.items()}
    del tables["f"][(0,)]
    broken = FiniteStructure(s.signature, s.carriers, tables, s.predicates)
    violations = closure_check(broken)
    assert any(v.symbol == "f" and "no entry" in v.detail for v in violations)


def test_closure_catches_printed_pair_gf_model():
    # The structure as printed for the duplicating-g system maps (1, 0) to 2,
    # outside the declared domain {0, 1}.
    from countermodel.model_format import parse_model
    from paperdata import model_text, system

    sig = system("pair_gf.trs").ctrs.signature
    structure = parse_model(model_text("pair_gf_printed.model"), sig)
    violations = closure_check(structure)
    assert any(v.symbol == "f" and v.point == (1, 0) for v in violations)


def test_closure_symbolic_needs_an_integer_point_to_refute():
    # The first guard holds at rational points (x = 3/8, y = 2) but at no
    # integer one, so its value 9 never leaves [0, 5]; the four guards cover
    # the carrier without overlapping on the integers.
    from countermodel.model_format import parse_model
    from paperdata import system

    text = """
    (DOMAIN [0, 5]) (FUN a = 0) (FUN b = 1) (FUN g(x) = 0)
    (FUN f(x, y) = cases 4*x + y <= 4 /\\ -4*x + y <= 1 /\\ -2*x - 3*y <= -6 -> 9
                       | 4*x + y >= 5 -> 0
                       | 4*x + y <= 4 /\\ -4*x + y >= 2 -> 0
                       | 4*x + y <= 4 /\\ -4*x + y <= 1 /\\ -2*x - 3*y >= -5 -> 0)
    (PRED -> (x, y) = x - y <= 0 /\\ y - x <= 0) (PRED ->* (x, y) = x - y <= 0 /\\ y - x <= 0)
    """
    sig = system("pair_gf.trs").ctrs.signature
    assert closure_check(parse_model(text, sig, "finite")) == ()
    assert closure_check(parse_model(text, sig, "symbolic")) == ()


def test_closure_symbolic_ray_doubling_is_closed():
    _doc, _theory, _ob, s = paper_instance("non-cycling")
    assert closure_check(s) == ()  # 2x + 2 >= -1 whenever x >= -1


def test_closure_symbolic_catches_escaping_affine():
    _doc, _theory, _ob, s = paper_instance("non-cycling")
    funcs = dict(s.functions)
    funcs["c"] = PiecewiseFunction.affine(("x",), AffineForm.make({"x": 2}, -3))
    from countermodel.structures import SymbolicStructure

    broken = SymbolicStructure(s.signature, s.carriers, funcs, s.predicates)
    violations = closure_check(broken)
    assert any(v.symbol == "c" for v in violations)


def test_closure_symbolic_catches_overlapping_guards():
    _doc, _theory, _ob, s = paper_instance("division-ccp")
    from countermodel.linear import LinearConstraint
    from countermodel.structures import PiecewiseCase, SymbolicStructure

    overlapping = PiecewiseFunction(
        ("x", "y"),
        (
            PiecewiseCase((LinearConstraint.make({"x": 1, "y": -1}, 0),), AffineForm.const(1)),
            PiecewiseCase((LinearConstraint.make({"x": -1, "y": 1}, 0),), AffineForm.const(0)),
        ),
    )  # x <= y and x >= y overlap at x = y
    funcs = dict(s.functions)
    funcs["le"] = overlapping
    broken = SymbolicStructure(s.signature, s.carriers, funcs, s.predicates)
    assert any("overlap" in v.detail for v in closure_check(broken))


def test_closure_symbolic_catches_uncovered_guards():
    _doc, _theory, _ob, s = paper_instance("division-ccp")
    from countermodel.linear import LinearConstraint
    from countermodel.structures import PiecewiseCase, SymbolicStructure

    gappy = PiecewiseFunction(
        ("x", "y"),
        (
            PiecewiseCase(
                (LinearConstraint.make({"x": 1, "y": -1}, 0, strict=True),), AffineForm.const(1)
            ),
            PiecewiseCase(
                (LinearConstraint.make({"x": -1, "y": 1}, 0, strict=True),), AffineForm.const(0)
            ),
        ),
    )  # nothing covers x = y
    funcs = dict(s.functions)
    funcs["le"] = gappy
    broken = SymbolicStructure(s.signature, s.carriers, funcs, s.predicates)
    assert any("cover" in v.detail for v in closure_check(broken))


def _low_high(low: Interval, high: Interval) -> SymbolicStructure:
    """Sorts ``Low <= High`` on the given carriers, with one constant ``a = 0`` of sort ``Low``."""
    sig = Signature(("Low", "High"), (("Low", "High"),), {"a": ((), "Low")})
    carriers = {"Low": low, "High": high}
    return SymbolicStructure(sig, carriers, {"a": PiecewiseFunction.affine((), AffineForm.const(0))}, {})


def test_a_sort_atom_reads_both_ends_of_an_interval_and_the_lower_end_of_a_ray():
    s = _low_high(Interval(0, 3), Interval(-1))
    cases = [
        ("Low", -1, False),
        ("Low", 0, True),
        ("Low", 3, True),
        ("Low", 4, False),
        ("High", -2, False),
        ("High", -1, True),
        ("High", 10**30, True),
    ]
    for sort, value, inside in cases:
        assert eval_atom(s, {"x": value}, Atom(sort_predicate(sort), (X,))) is inside, (sort, value)
        assert (value in s.carrier(sort)) is inside
    finite = materialize(_low_high(Interval(0, 3), Interval(-1, 5)))
    low = Atom(sort_predicate("Low"), (X,))
    assert [eval_atom(finite, {"x": v}, low) for v in (-1, 0, 3, 4)] == [False, True, True, False]


@pytest.mark.parametrize(
    "low, high, included",
    [
        (Interval(0), Interval(-5, 5), False),  # a ray lies in no bounded interval
        (Interval(0, 6), Interval(-5, 5), False),
        (Interval(-6, 0), Interval(-5, 5), False),
        (Interval(-5, 5), Interval(-5, 5), True),
        (Interval(0), Interval(-1), True),
        (Interval(0, 9), Interval(0), True),
        (Interval(-1), Interval(0), False),
    ],
)
def test_subsort_inclusion_of_intervals_and_rays(low, high, included):
    expected = [] if included else ["Low: carrier not included in 'High'"]
    assert [str(v) for v in closure_check(_low_high(low, high))] == expected


def test_both_backends_report_the_shared_closure_violations_in_one_order():
    # User no longer holds RegUser or EventualUser, and two functions lose
    # their interpretations; every function that is left maps into its carrier.
    sig = system("website.trs").ctrs.signature
    text = (
        model_text("website.model")
        .replace("(DOMAIN User >= -1)", "(DOMAIN User [-1, 0])")
        .replace("(DOMAIN EventualUser [-1, -1])", "(DOMAIN EventualUser [-2, -1])")
    )
    expected = [
        "RegUser: carrier not included in 'User'",
        "EventualUser: carrier not included in 'User'",
        "sbmlink: missing interpretation",
        "submit: missing interpretation",
    ]
    for backend in ("finite", "symbolic"):
        structure = parse_model(text, sig, backend)
        functions = {n: f for n, f in structure.functions.items() if n not in ("sbmlink", "submit")}
        broken = dataclasses.replace(structure, functions=functions)
        assert [str(v) for v in closure_check(broken)] == expected, backend


def test_materialize_agrees_with_symbolic_evaluation_pointwise():
    from countermodel.model_format import parse_model
    from paperdata import model_text, system

    sig = system("root_f.trs").ctrs.signature
    symbolic = parse_model(
        model_text("root_irred.model"),
        sig,
        backend="symbolic",
        required_predicates=("->", "->*", "->^"),
    )
    finite = materialize(symbolic)
    carrier = finite.carrier("term")
    for name, (args, _result) in sig.functions.items():
        for point in itertools.product(carrier, repeat=len(args)):
            assert finite.functions[name][point] == symbolic.functions[name].eval(point)
    for pred, interp in symbolic.predicates.items():
        for point in itertools.product(carrier, repeat=2):
            assert (point in finite.predicates[pred]) == interp.holds(point)


def test_materialize_rejects_rays():
    _doc, _theory, _ob, s = paper_instance("non-cycling")
    with pytest.raises(ModelError):
        materialize(s)


def test_piecewise_eval_requires_a_matching_guard():
    from countermodel.linear import LinearConstraint

    from countermodel.structures import PiecewiseCase

    partial = PiecewiseFunction(
        ("x",),
        (PiecewiseCase((LinearConstraint.make({"x": 1}, 0),), AffineForm.variable("x")),),
    )
    assert partial.eval((0,)) == 0
    with pytest.raises(ModelError):
        partial.eval((1,))


def test_clamped_cases_partition_and_bound():
    clamped = PiecewiseFunction.clamped(("x",), AffineForm.make({"x": 1}, -1), 0, 1)
    for x in range(-4, 5):
        matches = [
            case
            for case in clamped.cases
            if all(c.satisfied_by({"x": x}) for c in case.guard)
        ]
        assert len(matches) == 1
        assert clamped.eval((x,)) == min(max(x - 1, 0), 1)


def test_interval_carrier_rejects_empty():
    with pytest.raises(ModelError):
        Interval(2, 1)
