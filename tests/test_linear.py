from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import boxcheck
import reference_linear
from countermodel import linear
from countermodel.linear import (
    DEFAULT_CONSTRAINT_BUDGET,
    AffineForm,
    ConstraintSystem,
    LinearConstraint,
    compare,
    drop_constant_rows,
    equality,
    integer_tighten,
    solve,
)


def le(coeffs, bound):
    return LinearConstraint.make(coeffs, bound)


def lt(coeffs, bound):
    return LinearConstraint.make(coeffs, bound, strict=True)


def system(variables, *constraints):
    flat = []
    for c in constraints:
        flat.extend(c if isinstance(c, tuple) else (c,))
    return ConstraintSystem(tuple(variables), tuple(flat))


def test_antisymmetry_is_infeasible():
    sys_ = system("xy", lt({"x": 1, "y": -1}, 0), le({"y": 1, "x": -1}, 0))
    assert solve(sys_).status == "infeasible"


def test_ordered_chain_into_negative_is_infeasible():
    # x >= 1, x <= y, y <= -1
    sys_ = system(
        "xy",
        le({"x": -1}, -1),
        le({"x": 1, "y": -1}, 0),
        le({"y": 1}, -1),
    )
    assert solve(sys_).status == "infeasible"


def test_doubling_equation_with_decrease_is_infeasible():
    # v = 2x + 2, v <= x, x >= -1; hand elimination: 2x + 2 <= x gives x <= -2.
    sys_ = system(
        "vx",
        equality({"v": 1, "x": -2}, 2),
        le({"v": 1, "x": -1}, 0),
        le({"x": -1}, 1),
    )
    assert solve(sys_).status == "infeasible"
    # cross-check by sampling the claimed-empty region
    for x in range(-10, 11):
        v = 2 * x + 2
        assert not (v <= x and x >= -1)


def test_feasible_witness_satisfies_every_constraint():
    sys_ = system(
        "xyz",
        le({"x": 1, "y": 1}, 3),
        lt({"y": -1, "z": 2}, 7),
        equality({"x": 1, "z": -1}, 0),
    )
    outcome = solve(sys_)
    assert outcome.status == "feasible"
    witness = outcome.witness
    for c in sys_.constraints:
        total = sum(witness[v] * coeff for v, coeff in c.terms)
        assert total < c.bound if c.strict else total <= c.bound


def test_equality_stored_as_two_inequalities():
    first, second = equality({"x": 1}, 3)
    assert not first.strict and not second.strict
    assert first.terms == (("x", 1),) and first.bound == 3
    assert second.terms == (("x", -1),) and second.bound == -3


def test_tighten_strict_integer():
    sys_ = system("xy", lt({"x": 1, "y": -1}, 0))
    (c,) = integer_tighten(sys_).constraints
    assert not c.strict and c.bound == -1  # x - y <= -1, i.e. x <= y - 1


def test_tighten_scales_fractional_coefficients():
    sys_ = system("x", lt({"x": 2}, 3))
    (c,) = integer_tighten(sys_).constraints
    # 2x < 3 is x < 3/2 and tightens to x <= 1
    assert c.terms == (("x", 1),) and c.bound == 1 and not c.strict
    for x in range(-5, 6):
        assert (2 * x < 3) == (x <= 1)


def test_tighten_keeps_nonstrict_systems_unchanged():
    sys_ = system("xy", le({"x": 1, "y": 1}, 2), le({"x": -1}, 0))
    assert integer_tighten(sys_) is sys_  # no second system is built
    strict = system("xy", le({"x": 1, "y": 1}, 2), lt({"x": -1}, 0))
    assert integer_tighten(strict) is not strict


def test_a_system_rejects_a_row_over_an_undeclared_variable():
    with pytest.raises(ValueError, match="^constraint mentions undeclared variable 'y'$"):
        system("x", le({"x": 1}, 0), le({"x": 1, "y": 1}, 0))


def test_constant_rows_are_dropped_when_true_and_reported_when_false():
    row = le({"x": 1}, 2)
    true_rows = [le({}, 0), lt({}, 1), row]
    assert drop_constant_rows(true_rows) == [row]
    assert drop_constant_rows([row, lt({}, 0)]) is None  # 0 < 0
    assert drop_constant_rows([le({}, -1), row]) is None  # 0 <= -1


def test_budget_exhaustion_reports_unknown_never_infeasible():
    variables = [f"x{i}" for i in range(9)]
    constraints = []
    for i, j in itertools.combinations(range(9), 2):
        constraints.append(le({variables[i]: 1, variables[j]: 1}, 1))
        constraints.append(le({variables[i]: -1, variables[j]: -1}, 1))
    sys_ = ConstraintSystem(tuple(variables), tuple(constraints))
    outcome = solve(sys_, max_constraints=200)
    assert outcome.status == "unknown"
    assert "budget" in outcome.reason
    assert solve(sys_, max_constraints=200).status != "infeasible"


def random_system(rng: random.Random) -> ConstraintSystem:
    k = rng.randint(1, 4)
    variables = tuple(f"x{i}" for i in range(k))
    constraints = []
    for _ in range(rng.randint(1, 6)):
        coeffs = {v: rng.randint(-5, 5) for v in variables}
        bound = rng.randint(-5, 5)
        kind = rng.random()
        if kind < 0.2:
            constraints.extend(equality(coeffs, bound))
        elif kind < 0.6:
            constraints.append(le(coeffs, bound))
        else:
            constraints.append(lt(coeffs, bound))
    return ConstraintSystem(variables, tuple(constraints))


@pytest.mark.parametrize("seed", range(60))
def test_infeasible_verdicts_confirmed_on_integer_box(seed):
    rng = random.Random(10_000 + seed)
    sys_ = random_system(rng)
    outcome = solve(sys_)
    if outcome.status == "infeasible":
        box = range(-6, 7)
        for point in itertools.product(box, repeat=len(sys_.variables)):
            assignment = dict(zip(sys_.variables, point))
            assert not sys_.satisfied_by(assignment)
    elif outcome.status == "feasible":
        assert sys_.satisfied_by(outcome.witness)


@pytest.mark.parametrize("seed", range(40))
def test_verdict_independent_of_elimination_order(seed):
    rng = random.Random(20_000 + seed)
    sys_ = random_system(rng)
    # The same constraints declared in reverse break the heuristic's ties the other way.
    backward = ConstraintSystem(tuple(reversed(sys_.variables)), sys_.constraints)
    assert solve(sys_).status == solve(backward).status


def test_trivially_false_constant_constraint():
    sys_ = ConstraintSystem((), (le({}, -1),))
    assert solve(sys_).status == "infeasible"
    assert solve(ConstraintSystem((), (lt({}, 0),))).status == "infeasible"
    assert solve(ConstraintSystem((), (le({}, 0),))).status == "feasible"


def test_unbounded_variable_gets_integer_witness():
    outcome = solve(system("x", le({"x": -1}, -3)))  # x >= 3
    assert outcome.status == "feasible"
    assert outcome.witness["x"] == 3


def test_point_is_the_witness_as_ints_only_when_it_is_integral():
    above_three = system("xy", le({"x": -1}, -3), le({"x": 1, "y": -1}, 0))  # 3 <= x <= y
    integral = solve(above_three)
    assert integral.witness == {"x": 3, "y": 3}
    assert all(type(value) is int for value in integral.witness.values())
    fractional = solve(system("x", le({"x": 2}, 1), le({"x": -2}, -1)))  # 2x = 1
    assert fractional.status == "infeasible" and fractional.witness is None
    infeasible = solve(system("x", lt({"x": 1}, 0), le({"x": -1}, 0)))
    assert infeasible.status == "infeasible" and infeasible.witness is None
    unknown = solve(above_three, max_constraints=1)
    assert unknown.status == "unknown" and unknown.witness is None


def test_an_unbounded_system_without_integer_points_runs_out_of_tries():
    # x - 2y = -1 and x - 2z = 0: x must be odd and even.  Every tight
    # projection is non-empty, no x leaves integers y and z, and x is
    # unbounded, so the search cannot end.
    parity = system("xyz", equality({"x": 1, "y": -2}, -1), equality({"x": 1, "z": -2}, 0))
    outcome = solve(parity)
    assert outcome.status == "unknown"
    assert outcome.reason == f"integer search budget exceeded ({linear.MAX_TRIES} tries)"


def test_an_even_sum_equal_to_an_odd_bound_is_infeasible():
    # x >= 0 and 2y - 2x = 1 tighten to y - x <= 0 and x - y <= -1.
    outcome = solve(system("xy", le({"x": -1}, 0), equality({"x": -2, "y": 2}, 1)))
    assert outcome.status == "infeasible"


@settings(max_examples=300, deadline=None)
@given(st.none() | st.integers(-8, 8), st.none() | st.integers(-8, 8), st.integers(0, 8))
def test_candidates_are_the_window_around_the_integer_nearest_zero(lo, hi, radius):
    inside = [v for v in range(-20, 21) if (lo is None or lo <= v) and (hi is None or v <= hi)]
    if not inside:
        expected, cut = [], False
    else:
        start = min(inside, key=lambda v: (abs(v), -v))
        window = (v for v in inside if abs(v - start) <= radius)
        expected = sorted(window, key=lambda v: (abs(v), -v))
        cut = lo is None or hi is None or any(abs(v - start) > radius for v in inside)
    values, narrowed = linear._candidates(lo, hi, radius)
    assert (list(values), narrowed) == (expected, cut)


def test_candidates_of_a_narrow_range_ignore_a_huge_radius():
    values, narrowed = linear._candidates(0, 2, 10**12)
    assert (list(values), narrowed) == ([0, 1, 2], False)


def test_compare_gives_the_canonical_constraints_of_each_relation():
    x, y = AffineForm.variable("x"), AffineForm.variable("y")
    assert compare(x, "=", y) == equality({"x": 1, "y": -1}, 0)
    assert compare(x, "<=", y) == (le({"x": 1, "y": -1}, 0),)
    assert compare(x, ">=", y) == (le({"x": -1, "y": 1}, 0),)
    assert compare(x, "<", y) == (lt({"x": 1, "y": -1}, 0),)
    assert compare(x, ">", y) == (lt({"x": -1, "y": 1}, 0),)
    # 2x + 1 <= y - 3  is  2x - y <= -4
    two_x = AffineForm.make({"x": 2}, 1)
    assert compare(two_x, "<=", AffineForm.make({"y": 1}, -3)) == (le({"x": 2, "y": -1}, -4),)
    with pytest.raises(ValueError):
        compare(x, "!=", y)


def test_negate_subst_and_le_stay_canonical():
    c = le({"x": 2, "y": -2}, 3)  # x - y <= 3/2
    assert c.negate() == lt({"x": -2, "y": 2}, -3)
    assert c.negate().negate() == c
    # x := 2u + 1, y := u  gives  2u <= 1
    mapping = {"x": AffineForm.make({"u": 2}, 1), "y": AffineForm.variable("u")}
    assert c.subst(mapping) == le({"u": 2}, 1)
    assert AffineForm.make({"x": 2}, 1).le(5, strict=True) == lt({"x": 1}, 2)
    assert str(c) == "2*x - 2*y <= 3"


def test_canonical_form_divides_coefficients_and_bound_by_their_gcd():
    assert le({"x": 4, "y": -6}, 8) == le({"x": 2, "y": -3}, 4)
    c = le({"x": 4, "y": -6}, 3)
    assert c.terms == (("x", 4), ("y", -6)) and c.bound == 3
    assert le({}, -4).bound == -4  # a constant row keeps its bound
    form = AffineForm.make({"x": 2, "y": 0}, -1)
    assert form.coeffs == (("x", 2),) and form.eval_int({"x": 3}) == 5
    numbers = [a for _, a in c.terms + form.coeffs] + [c.bound, form.constant]
    assert all(type(n) is int for n in numbers)


# Small coefficients over few variables, so that rows of one direction but
# different scale, bound and strictness meet in elimination.
_ROWS = st.lists(
    st.tuples(
        st.lists(st.integers(-2, 2), min_size=3, max_size=3),
        st.integers(1, 3),  # a factor the row's coefficients share
        st.integers(-6, 6),
        st.sampled_from(("<=", "<", "=")),
    ),
    min_size=1,
    max_size=8,
)


# x >= 1, 2x <= 2 and x < 1, in both orders: rows of one direction at two
# scales, one strict, meet on entry.  Tight, they read x <= 1 and x <= 0,
# and the lesser bound is kept, whatever the order.
_TIE = [([-1, 0, 0], 1, -1, "<="), ([1, 0, 0], 2, 2, "<="), ([1, 0, 0], 1, 1, "<")]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), _ROWS, st.sampled_from((8, 30, DEFAULT_CONSTRAINT_BUDGET)), st.booleans())
@example(1, _TIE, DEFAULT_CONSTRAINT_BUDGET, False)
@example(1, _TIE[::-1], DEFAULT_CONSTRAINT_BUDGET, False)
@example(2, [([1, 1, 0], 2, 1, "="), ([1, -1, 0], 1, 0, "=")], 8, False)
def test_integer_kernel_matches_the_rational_reference(k, rows, budget, tighten):
    variables = tuple(f"x{i}" for i in range(k))
    built = {}
    for kernel in (linear, reference_linear):
        system_ = _built(kernel, variables, rows)
        if tighten:
            system_ = kernel.integer_tighten(system_)
        built[kernel] = (system_, kernel.solve(system_, max_constraints=budget))
    (ours_system, ours), (reference_system, reference) = built.values()
    assert [str(c) for c in ours_system.constraints] == [str(c) for c in reference_system.constraints]
    if reference.status == "infeasible":
        assert ours.status == "infeasible"
    elif reference.status == "unknown":
        # Tight combinations can prove a system infeasible before the budget runs out.
        same = (ours.status, ours.reason) == (reference.status, reference.reason)
        assert same or ours.status == "infeasible"
    elif all(q.denominator == 1 for q in reference.witness.values()):
        assert ours.status == "feasible" and ours.witness == reference.witness
    if ours.status == "feasible":
        assert all(type(value) is int for value in ours.witness.values())
        assert ours_system.satisfied_by(ours.witness)


def _built(kernel, variables, rows):
    """The system of ``rows`` (see ``_ROWS``) over ``variables``, in ``kernel``'s types."""
    constraints = []
    for coeffs, factor, bound, relation in rows:
        coeffs = {v: factor * c for v, c in zip(variables, coeffs)}
        if relation == "=":
            constraints.extend(kernel.equality(coeffs, bound))
        else:
            constraints.append(kernel.LinearConstraint.make(coeffs, bound, relation == "<"))
    return kernel.ConstraintSystem(variables, tuple(constraints))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), _ROWS)
def test_solve_decides_as_it_does_on_the_integer_tightened_system(k, rows):
    system_ = _built(linear, tuple(f"x{i}" for i in range(k)), rows)
    for budget in (8, 30, DEFAULT_CONSTRAINT_BUDGET):
        tightened = integer_tighten(system_)
        assert solve(system_, max_constraints=budget) == solve(tightened, max_constraints=budget)


_BOX = 6


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), _ROWS)
def test_boxed_systems_are_decided_exactly_on_the_integers(k, rows):
    variables = tuple(f"x{i}" for i in range(k))
    box = tuple(c for v in variables for c in (le({v: 1}, _BOX), le({v: -1}, _BOX)))
    boxed = ConstraintSystem(variables, _built(linear, variables, rows).constraints + box)
    outcome = solve(boxed)
    assert outcome.status != "unknown"
    assert (outcome.status == "feasible") == boxcheck.box_has_integer_point(boxed, -_BOX, _BOX)
