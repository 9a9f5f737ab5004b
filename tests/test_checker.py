from __future__ import annotations

import itertools
import json
import math

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

import countermodel.checker as checker_module
import countermodel.structures as structures_module
import reference_checker
from countermodel import cli

from countermodel.checker import (
    FAILS,
    HOLDS,
    REFUTED,
    UNKNOWN,
    VERIFIED,
    check_clause,
    check_obligation,
    verify,
)
from countermodel.linear import AffineForm, Feasibility, LinearConstraint
from countermodel.logic import Atom, HornClause, Theory, sort_predicate
from countermodel.structures import (
    ClauseLowering,
    FiniteStructure,
    Interval,
    PiecewiseCase,
    PiecewiseFunction,
    PredicateInterp,
    SymbolicStructure,
    eval_atom,
)
from countermodel.terms import (
    ARROW,
    DEFAULT_SORT,
    MANY_STEPS,
    App,
    Signature,
    Var,
)
from comparisons import materialize
from paperdata import CORPUS, paper_instance, paper_certificate

A, B, C = App("a"), App("b"), App("c")
X, Y, Z = Var("x"), Var("y"), Var("z")


def test_transitivity_holds_in_equality_model():
    _doc, theory, _ob, s = paper_instance("nonjoinability")
    transitivity = next(c for c in theory.clauses if c.tag == "T")
    assert check_clause(s, transitivity).status == HOLDS


def test_ground_conditional_clause_fails_with_empty_witness():
    sig = Signature(functions={"a": ((), DEFAULT_SORT), "b": ((), DEFAULT_SORT), "c": ((), DEFAULT_SORT)})
    structure = FiniteStructure(
        sig,
        {DEFAULT_SORT: (0,)},
        {"a": {(): 0}, "b": {(): 0}, "c": {(): 0}},
        {ARROW: frozenset(), MANY_STEPS: frozenset({(0, 0)})},  # ->* is >=, -> is >
    )
    clause = HornClause((), (Atom(MANY_STEPS, (C, B)),), Atom(ARROW, (A, B)))
    verdict = check_clause(structure, clause)
    assert verdict.status == FAILS
    assert verdict.witness == ()


def test_congruence_holds_in_doubling_model():
    _doc, theory, _ob, s = paper_instance("non-cycling")
    congruence = next(c for c in theory.clauses if c.tag.startswith("C("))
    assert check_clause(s, congruence).status == HOLDS


def test_obligation_intro_example_holds():
    _doc, _theory, obligations, s = paper_instance("intro-restricted")
    (ob,) = obligations
    assert check_obligation(s, ob).status == HOLDS


def test_obligation_increasing_f_holds_symbolically():
    _doc, _theory, obligations, s = paper_instance("increasing-f")
    (ob,) = obligations
    assert check_obligation(s, ob).status == HOLDS


def test_obligation_root_reducibility_holds():
    _doc, _theory, obligations, s = paper_instance("root-irreducibility")
    (ob,) = obligations
    assert check_obligation(s, ob).status == HOLDS


def test_full_root_instance_verifies():
    assert paper_certificate("root-irreducibility").overall == VERIFIED


def test_root_mutation_d_to_zero_still_verifies():
    # Changing d from 1 to 0 leaves the conditional bodies unsatisfiable
    # (a ->* c is -1 >= 0), so the mutated structure is still a model.
    _doc, theory, obligations, s = paper_instance("root-irreducibility")
    tables = {k: dict(v) for k, v in s.functions.items()}
    tables["d"] = {(): 0}
    mutated = FiniteStructure(s.signature, s.carriers, tables, s.predicates)
    assert verify(theory, obligations, mutated).overall == VERIFIED


def test_root_mutation_f_to_zero_is_refuted_with_pinpointed_failure():
    # Collapsing f to 0 makes f(x) ->^ y satisfiable (5*0 + y <= 1), so the
    # obligation fails; the certificate names it with a witness valuation.
    _doc, theory, obligations, s = paper_instance("root-irreducibility")
    tables = {k: dict(v) for k, v in s.functions.items()}
    tables["f"] = {(-1,): 0, (0,): 0, (1,): 0}
    mutated = FiniteStructure(s.signature, s.carriers, tables, s.predicates)
    cert = verify(theory, obligations, mutated)
    assert cert.overall == REFUTED
    assert cert.first_failure() is not None
    assert "->^" in cert.first_failure()
    (verdict,) = cert.verdicts[len(theory.clauses):]
    assert verdict.status == FAILS and verdict.witness == (("x", -1), ("y", -1))


def test_empty_theory_and_obligations_verify():
    sig = Signature(functions={"a": ((), DEFAULT_SORT)})
    structure = FiniteStructure(sig, {DEFAULT_SORT: (0,)}, {"a": {(): 0}}, {})
    cert = verify(Theory(sig, ()), (), structure)
    assert cert.overall == VERIFIED
    assert cert.verdicts == ()


def test_closure_violation_short_circuits_to_refuted():
    sig = Signature(functions={"a": ((), DEFAULT_SORT)})
    structure = FiniteStructure(sig, {DEFAULT_SORT: (0,)}, {"a": {(): 5}}, {})
    cert = verify(Theory(sig, ()), (), structure)
    assert cert.overall == REFUTED
    assert cert.first_failure().startswith("closure")


def test_counterexample_valuations_are_lexicographically_first():
    sig = Signature(functions={"a": ((), DEFAULT_SORT)})
    structure = FiniteStructure(
        sig,
        {DEFAULT_SORT: (0, 1, 2)},
        {"a": {(): 0}},
        {ARROW: frozenset({(0, 0)}), MANY_STEPS: frozenset()},
    )
    # x -> y => x ->* y fails everywhere -> is true; first failure is (0, 0).
    clause = HornClause((X, Y), (Atom(ARROW, (X, Y)),), Atom(MANY_STEPS, (X, Y)))
    verdict = check_clause(structure, clause)
    assert verdict.status == FAILS
    assert verdict.witness == (("x", 0), ("y", 0))


def test_finite_table_miss_on_kind_level_term_is_unknown_not_a_crash():
    # A query may apply a symbol outside its rank (same subsort component);
    # a finite table is silent there, so the verdict is unknown.
    sig = Signature(
        sorts=("A", "B", "Top"),
        subsort_pairs=(("A", "Top"), ("B", "Top")),
        functions={"f": (("A",), "A"), "a0": ((), "A"), "b0": ((), "B")},
    )
    structure = FiniteStructure(
        sig,
        {"A": (0,), "B": (5,), "Top": (0, 5)},
        {"f": {(0,): 0}, "a0": {(): 0}, "b0": {(): 5}},
        {MANY_STEPS: frozenset({(0, 0), (5, 5)})},
    )
    x = Var("x", "B")
    obligation = HornClause((x,), (Atom(MANY_STEPS, (App("f", (x,)), x)),), None)
    verdict = check_obligation(structure, obligation)
    assert verdict.status == UNKNOWN
    assert "no entry" in verdict.reason


def test_unknown_overall_when_any_check_unknown():
    _doc, theory, obligations, s = paper_instance("increasing-f")
    from unittest import mock
    import countermodel.checker as checker_module

    with mock.patch.object(
        checker_module,
        "check_obligation",
        return_value=checker_module.Verdict(UNKNOWN, reason="stubbed"),
    ):
        cert = checker_module.verify(theory, obligations, s)
    assert cert.overall == UNKNOWN


@pytest.mark.parametrize("name", ["division-ccp", "website-security"])
def test_symbolic_systems_range_over_the_clause_variables_only(name, monkeypatch):
    # No lowering step may add a variable: every system the checker solves
    # declares exactly the variables of the clause or obligation it checks.
    _doc, theory, obligations, s = paper_instance(name)
    checked: list[tuple[str, ...]] = []
    declared: list[tuple[str, ...]] = []
    check_symbolic, solve = checker_module._check_symbolic, checker_module.solve

    def recording_check(structure, clause):
        checked.append(tuple(v.name for v in clause.variables))
        return check_symbolic(structure, clause)

    def recording_solve(system, **kwargs):
        declared.append(system.variables)
        assert system.variables == checked[-1]
        return solve(system, **kwargs)

    monkeypatch.setattr(checker_module, "_check_symbolic", recording_check)
    monkeypatch.setattr(checker_module, "solve", recording_solve)
    assert verify(theory, obligations, s).overall == VERIFIED
    assert len(checked) == len(theory.clauses) + len(obligations)
    assert declared


def _one_relation_structure(*constraints: LinearConstraint) -> SymbolicStructure:
    """``->`` as the given constraints over ``(x, y)``, on the carrier [0, 5]."""
    sig = Signature(functions={"a": ((), DEFAULT_SORT)})
    return SymbolicStructure(
        sig,
        {DEFAULT_SORT: Interval(0, 5)},
        {"a": PiecewiseFunction.affine((), AffineForm.const(0))},
        {ARROW: PredicateInterp(("x", "y"), constraints)},
    )


_EXISTS_STEP = HornClause((X, Y), (Atom(ARROW, (X, Y)),), None)


def test_a_triangle_with_no_integer_point_holds():
    # The pair_gf triangle holds at x = 3/8 but at no integer point.
    triangle = _one_relation_structure(
        LinearConstraint.make({"x": 4, "y": 1}, 4),
        LinearConstraint.make({"x": -4, "y": 1}, 1),
        LinearConstraint.make({"x": -2, "y": -3}, -6),
    )
    verdict = check_obligation(triangle, _EXISTS_STEP)
    assert str(verdict) == "holds"


def test_a_symbolic_failure_is_reported_at_the_kernel_point(monkeypatch):
    outcomes = []
    solve = checker_module.solve

    def recording_solve(system, **kwargs):
        outcomes.append(solve(system, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(checker_module, "solve", recording_solve)
    structure = _one_relation_structure(LinearConstraint.make({"x": -1, "y": -1}, -3))
    verdict = check_obligation(structure, _EXISTS_STEP)
    assert verdict.status == FAILS
    assert outcomes[-1].witness is not None
    assert verdict.witness == tuple(sorted(outcomes[-1].witness.items()))


# -- symbolic checks against the same check on the materialized structure ---------

_SIG = Signature(
    functions={
        "a": ((), DEFAULT_SORT),
        "b": ((), DEFAULT_SORT),
        "f": ((DEFAULT_SORT,), DEFAULT_SORT),
        "g": ((DEFAULT_SORT, DEFAULT_SORT), DEFAULT_SORT),
    }
)
_PARAMS = {"a": (), "b": (), "f": ("p",), "g": ("p", "q")}
_coefficients = st.integers(-2, 2)


def _affine(draw, params):
    return AffineForm.make({p: draw(_coefficients) for p in params}, draw(_coefficients))


@st.composite
def _piecewise(draw, params, lo, hi):
    """A closed interpretation with 2 or 3 cases: a clamp, or a split at a threshold."""
    form = _affine(draw, params)
    if draw(st.booleans()):
        return PiecewiseFunction.clamped(params, form, lo, hi)
    threshold = draw(st.integers(-3, 3))
    values = st.sampled_from(
        [AffineForm.const(v) for v in range(lo, hi + 1)]
        + [AffineForm.variable(p) for p in params]
    )
    below = PiecewiseCase((form.le(threshold),), draw(values))
    above = PiecewiseCase((form.negate().le(-threshold, strict=True),), draw(values))
    return PiecewiseFunction(params, (below, above))


@st.composite
def _relation(draw):
    constraints = tuple(
        LinearConstraint.make(
            {"x": draw(_coefficients), "y": draw(_coefficients)},
            draw(st.integers(-3, 3)),
            draw(st.booleans()),
        )
        for _ in range(draw(st.integers(0, 2)))
    )
    return PredicateInterp(("x", "y"), constraints)


@st.composite
def _symbolic_structures(draw):
    lo = draw(st.integers(-1, 0))
    hi = lo + draw(st.integers(1, 3))
    functions = {}
    for name, params in _PARAMS.items():
        if params:
            functions[name] = draw(_piecewise(params, lo, hi))
        else:
            functions[name] = PiecewiseFunction.affine((), AffineForm.const(draw(st.integers(lo, hi))))
    predicates = {p: draw(_relation()) for p in (ARROW, MANY_STEPS)}
    return SymbolicStructure(_SIG, {DEFAULT_SORT: Interval(lo, hi)}, functions, predicates)


_terms = st.recursive(
    st.sampled_from((X, Y, A, B)),
    lambda inner: st.one_of(
        st.builds(lambda t: App("f", (t,)), inner),
        st.builds(lambda s, t: App("g", (s, t)), inner, inner),
    ),
    max_leaves=4,
)
_atoms = st.builds(lambda p, s, t: Atom(p, (s, t)), st.sampled_from((ARROW, MANY_STEPS)), _terms, _terms)


@settings(max_examples=150, deadline=None)
@given(_symbolic_structures(), st.lists(_atoms, max_size=2), st.one_of(st.none(), _atoms))
def test_symbolic_verdicts_agree_with_the_materialized_structure(structure, body, head):
    body = tuple(body)
    atoms = (*body, *([head] if head else []))
    variables = tuple(v for v in (X, Y) if any(v in atom.variables() for atom in atoms))
    if head is None:
        check, item = check_obligation, HornClause(variables, body, None)
    else:
        check, item = check_clause, HornClause(variables, body, head)
    finite = materialize(structure)
    symbolic, expected = check(structure, item), check(finite, item)
    if symbolic.status == HOLDS:
        assert expected.status == HOLDS
    if symbolic.status == FAILS:
        assert expected.status == FAILS
        valuation = dict(symbolic.witness)
        assert all(eval_atom(finite, valuation, a) for a in body)
        assert head is None or not eval_atom(finite, valuation, head)


# -- the walk over guard-case choices against the full product ---------------------

_small_terms = st.recursive(
    st.sampled_from((X, Y, A, B)),
    lambda inner: st.one_of(
        st.builds(lambda t: App("f", (t,)), inner),
        st.builds(lambda s, t: App("g", (s, t)), inner, inner),
    ),
    max_leaves=3,
)
_small_atoms = st.builds(
    lambda p, s, t: Atom(p, (s, t)), st.sampled_from((ARROW, MANY_STEPS)), _small_terms, _small_terms
)
# The full product solves a system per guard-case choice: past this many
# choices one example took the reference up to a second, and one seed of
# 200 examples most of a minute.
_MAX_CHOICES = 512


@st.composite
def _guard_case_checks(draw):
    """(structure, variables, body, head) with at most _MAX_CHOICES guard-case choices."""
    structure = draw(_symbolic_structures())
    body = tuple(draw(st.lists(_small_atoms, max_size=2)))
    head = draw(st.one_of(st.none(), _small_atoms))
    atoms = (*body, *([head] if head else []))
    variables = tuple(v for v in (X, Y) if any(v in atom.variables() for atom in atoms))
    lowering = ClauseLowering(structure, variables, atoms)
    assume(math.prod(len(interp.cases) for interp in lowering.applications.values()) <= _MAX_CHOICES)
    return structure, variables, body, head


@settings(max_examples=200, deadline=None)
@given(_guard_case_checks())
def test_the_guard_tree_returns_the_full_product_verdict_whenever_it_decides(check):
    structure, variables, body, head = check
    expected = reference_checker.check_symbolic(structure, variables, body, head)
    verdict = checker_module._check_symbolic(structure, HornClause(variables, body, head))
    if expected.status == UNKNOWN:
        # A cut subtree holds only infeasible systems, though the product may
        # have given up on one of them; and a failure would be in both.
        assert verdict.status in (UNKNOWN, HOLDS)
    else:
        assert verdict == expected


def _count_solves(monkeypatch) -> list[object]:
    """Every system that ``checker`` or ``structures`` solves from now on."""
    systems: list[object] = []
    for module in (checker_module, structures_module):

        def counting(system, _solve=module.solve, **kwargs):
            systems.append(system)
            return _solve(system, **kwargs)

        monkeypatch.setattr(module, "solve", counting)
    return systems


def test_nested_sub_takes_few_solves(monkeypatch, capsys):
    # Each two-case sub feeds the next, so the full product has 2^12 choices;
    # the walk cuts each prefix whose guards are infeasible.
    term = "sub(x, y)"
    for _ in range(11):
        term = f"sub({term}, y)"
    systems = _count_solves(monkeypatch)
    argv = [
        "check",
        str(CORPUS / "division.trs"),
        "--model",
        str(CORPUS / "models" / "division.model"),
        "--query",
        f"EXISTS x y . {term} ->* s(x)",
    ]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["overall"] == VERIFIED
    assert len(systems) <= 200


def _two_case_structure(threshold: int) -> SymbolicStructure:
    """On [0, 3]: a = 1, f(p) = 0 when p <= threshold and p otherwise, g a min, ``->`` is ``x <= y``."""
    p, q = AffineForm.variable("p"), AffineForm.variable("q")
    f = PiecewiseFunction(
        ("p",),
        (
            PiecewiseCase((p.le(threshold),), AffineForm.const(0)),
            PiecewiseCase((p.negate().le(-threshold, strict=True),), p),
        ),
    )
    g = PiecewiseFunction(
        ("p", "q"),
        (
            PiecewiseCase((LinearConstraint.make({"p": 1, "q": -1}, 0),), p),
            PiecewiseCase((LinearConstraint.make({"p": -1, "q": 1}, 0, strict=True),), q),
        ),
    )
    functions = {
        "a": PiecewiseFunction.affine((), AffineForm.const(1)),
        "b": PiecewiseFunction.affine((), AffineForm.const(0)),
        "f": f,
        "g": g,
    }
    relation = PredicateInterp(("x", "y"), (LinearConstraint.make({"x": 1, "y": -1}, 0),))
    return SymbolicStructure(
        _SIG, {DEFAULT_SORT: Interval(0, 3)}, functions, {ARROW: relation, MANY_STEPS: relation}
    )


def test_a_guard_that_folds_to_a_false_constant_prunes_its_subtree_without_a_solve(monkeypatch):
    # f(a) is f(1): its first case's guard is the constant row 1 <= 0, which
    # cuts both cases of g below it; the second's, 1 > 0, is dropped.
    structure = _two_case_structure(0)
    atom = Atom(ARROW, (App("g", (App("f", (A,)), X)), X))
    systems = _count_solves(monkeypatch)
    lowering = ClauseLowering(structure, (X,), (atom,))
    leaves = [(forms[App("f", (A,))], list(guards)) for forms, guards in lowering.leaves()]
    assert systems == []
    assert [form for form, _ in leaves] == [AffineForm.const(1)] * 2
    assert [len(guards) for _, guards in leaves] == [1, 1]
    assert len(list(reference_checker.choices(lowering))) == 4


def test_a_prefix_whose_solve_is_unknown_never_prunes(monkeypatch):
    # f(x) feeds g, so the walk solves the prefix after each case of f; its
    # first case, x <= -1, is infeasible on [0, 3].
    structure = _two_case_structure(-1)
    atom = Atom(ARROW, (App("g", (App("f", (X,)), Y)), Y))
    lowering = ClauseLowering(structure, (X, Y), (atom,))
    assert len(list(lowering.leaves())) == 2
    systems = []

    def unknown(system, **kwargs):
        systems.append(system)
        return Feasibility("unknown", reason="budget exceeded (test)")

    monkeypatch.setattr(structures_module, "solve", unknown)
    assert len(list(lowering.leaves())) == 4
    assert len(systems) == 2


# -- compiled finite checks against the tree walk ------------------------------------

_UNIVERSE = range(-2, 3)
_SORTED = ("A", "B", "C")
# Terms over placeholder variables; a draw gives each name its sort.
_shapes = st.recursive(
    st.sampled_from((X, Y, Z, Var("w"), A)),
    lambda inner: st.one_of(
        st.builds(lambda t: App("f", (t,)), inner),
        st.builds(lambda s, t: App("g", (s, t)), inner, inner),
    ),
    max_leaves=3,
)
_shape_atoms = st.one_of(
    st.builds(lambda p, s, t: Atom(p, (s, t)), st.sampled_from((ARROW, MANY_STEPS)), _shapes, _shapes),
    st.builds(lambda s, t: Atom(sort_predicate(s), (t,)), st.sampled_from(_SORTED), _shapes),
)


def _sorted_atom(atom, sorts, sort_of, unary):
    """``atom`` with each variable given its sort, each sort atom one of ``sorts`` and "f" named ``unary``."""

    def term(t):
        if isinstance(t, Var):
            return Var(t.name, sort_of[t.name])
        return App(unary if t.symbol == "f" else t.symbol, tuple(map(term, t.args)))

    predicate = atom.predicate
    if predicate not in (ARROW, MANY_STEPS):
        predicate = sort_predicate(sorts[_SORTED.index(predicate[2:]) % len(sorts)])
    return Atom(predicate, tuple(map(term, atom.args)))


@st.composite
def _finite_checks(draw):
    """(structure, variables, body, head, total): 1-3 sorts, "A" a subsort of "B" when both occur.

    With ``total`` every table is defined on the whole universe, so no
    lookup can miss; otherwise each is defined on its declared argument
    sorts only, and kind-level terms can miss.  The unary function is
    sometimes named like the sort test of a drawn sort, which it must not
    be read as.
    """
    rnd = draw(st.randoms(use_true_random=False))
    sorts = _SORTED[: rnd.randint(1, 3)]
    carriers = {s: sorted(rnd.sample(_UNIVERSE, rnd.randint(1, len(_UNIVERSE)))) for s in sorts}
    if len(sorts) > 1:
        carriers["A"] = sorted(rnd.sample(carriers["B"], rnd.randint(1, len(carriers["B"]))))
    universe = sorted(set().union(*carriers.values()))
    unary = rnd.choice(("f", sort_predicate(rnd.choice(sorts))))
    ranks = {"a": (), unary: (rnd.choice(sorts),), "g": (rnd.choice(sorts), rnd.choice(sorts))}
    sig = Signature(
        sorts=sorts,
        subsort_pairs=(("A", "B"),) if len(sorts) > 1 else (),
        functions={name: (args, rnd.choice(sorts)) for name, args in ranks.items()},
    )
    total = rnd.random() < 0.5
    tables = {}
    for name, (args, result) in sig.functions.items():
        keys = itertools.product(*([universe] * len(args) if total else [carriers[s] for s in args]))
        tables[name] = {key: rnd.choice(carriers[result]) for key in keys}
    squares = list(itertools.product(universe, repeat=2))
    relations = {p: rnd.sample(squares, rnd.randint(0, len(squares))) for p in (ARROW, MANY_STEPS)}
    structure = FiniteStructure(sig, carriers, tables, relations)

    sort_of = {name: rnd.choice(sorts) for name in "xyzw"}
    body = [_sorted_atom(a, sorts, sort_of, unary) for a in draw(st.lists(_shape_atoms, max_size=3))]
    head = draw(st.one_of(st.none(), _shape_atoms))
    head = head and _sorted_atom(head, sorts, sort_of, unary)
    occurring = {v for atom in (*body, *([head] if head else [])) for v in atom.variables()}
    extra = {Var("w", sort_of["w"])} if rnd.random() < 0.3 else set()  # maybe unused
    variables = sorted(occurring | extra, key=lambda v: v.name)
    rnd.shuffle(variables)
    if rnd.random() < 0.5:  # relativized, as the compiler writes clause bodies
        body = [Atom(sort_predicate(v.sort), (v,)) for v in variables] + body
    return structure, tuple(variables), tuple(body), head, total


@seed(20261020)
@settings(max_examples=250, deadline=None)
@given(_finite_checks())
def test_compiled_finite_checks_match_the_tree_walk(check):
    structure, variables, body, head, total = check
    if head is None:
        verdict = check_obligation(structure, HornClause(variables, body, None))
    else:
        verdict = check_clause(structure, HornClause(variables, body, head))
    expected = reference_checker.check_finite(structure, variables, body, head)
    if total:
        assert UNKNOWN not in (verdict.status, expected.status)
    # A lookup that misses may be met at different valuations, or by one
    # evaluator only; two decided verdicts are always the same.
    if UNKNOWN not in (verdict.status, expected.status):
        assert verdict == expected


def test_a_wide_structure_verifies_without_evaluating_an_atom(monkeypatch):
    # The model that `disprove corpus/intro.trs --query 'a -> b' --backend
    # finite --carriers 0:99` finds: both relations are <= on 100 points.
    # Walking its transitivity clause alone evaluates 10^6 valuations.
    document, theory, obligations, _ = paper_instance("intro-restricted")
    points = range(100)
    order = frozenset((x, y) for x in points for y in points if x <= y)
    structure = FiniteStructure(
        document.ctrs.signature,
        {DEFAULT_SORT: tuple(points)},
        {"a": {(): 1}, "b": {(): 0}, "c": {(): 1}},
        {ARROW: order, MANY_STEPS: order},
    )
    calls = []

    def counted(*args):
        calls.append(None)
        return eval_atom(*args)

    monkeypatch.setattr(checker_module, "eval_atom", counted)
    certificate = verify(theory, obligations, structure)
    assert certificate.overall == VERIFIED
    assert len(calls) == 0
