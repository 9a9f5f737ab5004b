from __future__ import annotations

import ast
import dataclasses
import functools
import itertools
import math
import random
import re
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_finder
from comparisons import CheckCalls
from countermodel import finder, pipeline
from countermodel.certificates import serialize_certificate
from countermodel import checker
from countermodel.checker import (
    _OWN_LOOPS,
    CALL,
    INLINE,
    SORT,
    TABLES,
    VERIFIED,
    _check_source,
    _compile_check,
    verify,
)
from countermodel.finder import (
    SearchBudget,
    _affine_candidates,
    _compile_checks,
    _finite_stages,
    _Menu,
    _relation_interp,
    _relations,
    _search,
    _Slot,
    _State,
    find_model,
    find_symbolic_model,
)
from countermodel.logic import Atom, sort_of_predicate
from countermodel.pipeline import build_theory, theory_for_query
from countermodel.queries import negate_to_obligations
from countermodel.query_format import parse_query
from countermodel.linear import LinearConstraint, compare
from countermodel.structures import AffineForm, FiniteStructure, PiecewiseFunction, PredicateInterp
from countermodel.terms import CTRS, DEFAULT_SORT, App, ConditionalRule, Signature, Var
from countermodel.trs_format import parse_ctrs
from paperdata import FINDER_CASES, FinderCase, query_text, system


FLAGSHIPS = (
    FinderCase("division-ccp", "division.trs", query_text("division_ccp.q"), "symbolic"),
    FinderCase("website-security", "website.trs", query_text("website.q"), "symbolic"),
)


@pytest.fixture
def empty_menu_cache(monkeypatch):
    """No menu kept and no check compiled at the test's start.

    The process's kept menus are restored after; its compiled checks are not.
    """
    monkeypatch.setattr(finder, "_kept", ((), None))
    checker._compile_check.cache_clear()


@functools.cache
def _setup(case):
    document = system(case.system)
    query = parse_query(case.query, document.ctrs.signature, document.var_sorts)
    theory = theory_for_query(document.ctrs, query)
    return theory, negate_to_obligations(query)


@pytest.mark.parametrize("case", [c for c in FINDER_CASES if c.backend == "finite"], ids=lambda c: c.name)
def test_finite_finder_succeeds_with_default_budget(case):
    theory, obligations = _setup(case)
    outcome = find_model(theory, obligations)
    assert outcome.found, outcome.reason
    assert outcome.certificate.overall == VERIFIED
    # the returned structure re-verifies from scratch
    assert verify(theory, obligations, outcome.certificate.structure).overall == VERIFIED


@pytest.mark.parametrize("case", [c for c in FINDER_CASES if c.backend == "symbolic"], ids=lambda c: c.name)
def test_symbolic_finder_succeeds_with_default_budget(case):
    theory, obligations = _setup(case)
    outcome = find_symbolic_model(theory, obligations)
    assert outcome.found, outcome.reason
    assert outcome.certificate.overall == VERIFIED
    assert verify(theory, obligations, outcome.certificate.structure).overall == VERIFIED


def test_finder_is_deterministic():
    case = FINDER_CASES[0]
    theory, obligations = _setup(case)
    first = find_model(theory, obligations)
    second = find_model(theory, obligations)
    assert first.certificate.structure == second.certificate.structure


def test_budget_enlargement_keeps_success():
    case = FINDER_CASES[2]  # pair-gf
    theory, obligations = _setup(case)
    small = find_model(theory, obligations)
    big = find_model(
        theory,
        obligations,
        SearchBudget(coeff_min=-3, coeff_max=3),
    )
    assert small.found and big.found


def test_exhausted_budget_reports_reason():
    # No carrier to search and raw tables disabled: nothing to try.
    theory, obligations = _setup(FINDER_CASES[0])
    starved = SearchBudget(carriers=(), raw_table_max_size=0)
    outcome = find_model(theory, obligations, starved)
    assert not outcome.found
    assert outcome.reason == "no model among the stages' candidates"


def test_candidate_cap_reports_reason():
    theory, obligations = _setup(FINDER_CASES[2])
    outcome = find_model(theory, obligations, SearchBudget(max_nodes=3))
    assert not outcome.found
    assert outcome.reason == "budget exhausted: candidate cap"


@pytest.mark.parametrize(
    "field, budget",
    [
        ("time_limit", dict(time_limit=float("nan"))),
        ("time_limit", dict(time_limit=-1.0)),
        ("max_nodes", dict(max_nodes=-1)),
        ("raw_table_max_size", dict(raw_table_max_size=-1)),
        ("carriers", dict(carriers=((0, 1), (0, 1000)))),  # past MAX_FINITE_CARRIER values
    ],
)
def test_budget_rejects_nan_or_negative_limits(field, budget):
    # Each message begins with the field it rejects, not with a command-line flag.
    with pytest.raises(ValueError, match=rf"^{field}\b"):
        SearchBudget(**budget)


def test_raw_menu_past_the_node_cap_stops_before_it_is_built(monkeypatch):
    # As in the raw-table fallback below, no template fits; on three points
    # the raw menu of the binary f holds 3 ** 9 tables, one past the cap.
    # The stage builder makes a stage's menus and then the stage, so only
    # the template stage may be made.
    made = []
    stage = finder._Stage
    monkeypatch.setattr(finder, "_Stage", lambda *fields: made.append(fields) or stage(*fields))
    ctrs = parse_ctrs("(RULES a -> b  b -> a  f(a, b) -> a)")
    query = parse_query("EXISTS . a -> a \\/ b -> b", ctrs.signature)
    budget = SearchBudget(carriers=((0, 2),), raw_table_max_size=3, max_nodes=3**9 - 1)
    outcome = find_model(build_theory(ctrs), negate_to_obligations(query), budget)
    assert outcome.reason == "budget exhausted: candidate cap"
    assert outcome.nodes < budget.max_nodes
    assert len(made) == 1


def test_function_menus_are_built_once_per_stage_and_arity(empty_menu_cache, monkeypatch):
    calls = []

    def counted(build):
        def run(arity, *args, **kwargs):
            calls.append((build.__name__, arity, *args, *kwargs.values()))
            return build(arity, *args, **kwargs)

        return run

    for name in ("_template_rows", "_affine_candidates"):
        monkeypatch.setattr(finder, name, counted(getattr(finder, name)))
    theory, obligations = _setup(FLAGSHIPS[0])  # division: three functions of arity 2
    find_model(theory, obligations, SearchBudget(max_nodes=20_000))
    find_symbolic_model(theory, obligations, SearchBudget(max_nodes=20_000))
    assert {name for name, *_ in calls} == {"_template_rows", "_affine_candidates"}
    assert len(calls) == len(set(calls))


def test_raw_table_fallback_finds_non_convex_relation():
    # Facts a -> b and b -> a with irreflexivity obligations force the
    # one-step relation to relate exactly the two distinct points; no single
    # linear inequality over {0, 1} does that, so raw tables must kick in.
    ctrs = parse_ctrs("(RULES a -> b  b -> a)")
    theory = build_theory(ctrs)
    query = parse_query("REACHABLE(a, a)", ctrs.signature)
    # obligation: a ->* a must fail... which contradicts reflexivity, so use
    # one-step loops instead: neither a -> a nor b -> b.
    query = parse_query("EXISTS . a -> a \\/ b -> b", ctrs.signature)
    obligations = negate_to_obligations(query)
    templates_only = SearchBudget(raw_table_max_size=0)
    assert not find_model(theory, obligations, templates_only).found
    outcome = find_model(theory, obligations)
    assert outcome.found
    assert outcome.certificate.overall == VERIFIED


def test_found_structures_interpret_only_needed_predicates():
    theory, obligations = _setup(FINDER_CASES[0])
    outcome = find_model(theory, obligations)
    assert set(outcome.certificate.structure.predicates) == {"->", "->*"}


def _finite_stage_menus(carrier, arities, raw=False):
    """(grid, predicate, constant and per-arity function menus) of a finite stage on ``carrier``.

    The stage is the template stage, or with ``raw`` the raw-table stage
    after it, over a signature of one constant ``c`` and a function ``fK``
    of each arity ``K``.
    """
    functions = {f"f{k}": ((DEFAULT_SORT,) * k, DEFAULT_SORT) for k in arities}
    sig = Signature(functions={"c": ((), DEFAULT_SORT), **functions})
    budget = SearchBudget(carriers=(carrier,), raw_table_max_size=3)
    stages = _finite_stages(sig, ("->",), _State(budget, math.inf))
    stage = next(stages)
    if raw:
        stage = next(stages)
    menus = {slot.name: _entries(slot.menu) for slot in stage.slots}
    return stage.grid, menus["->"], menus["c"], {k: menus[f"f{k}"] for k in arities}


def _entries(menu):
    """A menu's candidates as (interpretation, what the checks read) pairs, in menu order."""
    return [(menu.interp(k), fast) for k, fast in enumerate(menu.fast)]


@pytest.mark.parametrize("arity", (1, 2, 3))
@pytest.mark.parametrize("carrier", ((0, 1), (0, 2), (0, 3), (-1, 1), (-3, 3)))
def test_both_finite_stages_build_the_menus_of_the_builders_they_replace(
    carrier, arity, monkeypatch
):
    monkeypatch.setattr(finder, "RAW_TABLE_MAX_ARITY", 3)  # a raw stage at arity 3 too
    points = tuple(range(carrier[0], carrier[1] + 1))
    grid, preds, consts, funcs = _finite_stage_menus(carrier, (arity,))
    assert grid == points
    assert consts == [({(): v}, v) for v in points]
    assert preds == reference_finder._menu_predicates_finite(points, math.inf)
    assert funcs[arity] == reference_finder._template_tables(arity, points, _BUDGET, math.inf)
    if len(points) > 3 or len(points) ** len(points) ** arity > _BUDGET.max_nodes:
        return  # no raw stage: more values than raw_table_max_size, or a menu past the node cap
    grid, preds, consts, funcs = _finite_stage_menus(carrier, (arity,), raw=True)
    assert grid == points
    assert consts == [({(): v}, v) for v in points]
    assert preds == reference_finder._raw_predicates(points, math.inf)
    assert funcs[arity] == reference_finder._raw_tables(arity, points, math.inf)


@pytest.mark.parametrize("lo", SearchBudget().ray_carriers)
def test_symbolic_constant_menu_is_the_affine_menu_at_arity_zero(lo):
    # The constants as the symbolic stage built them before, apart.
    constants = [
        (PiecewiseFunction.affine((), AffineForm.const(v)), v)
        for v in range(max(_BUDGET.coeff_min, lo), _BUDGET.coeff_max + 1)
    ]
    assert _entries(_affine_candidates(0, lo, _BUDGET, math.inf)) == constants


def _holds(relation, x, y):
    """Whether a menu relation ``(e, a, b, c)`` holds at ``(x, y)``: ``x = y`` if ``e``, else ``a*x + b*y <= c``."""
    e, a, b, c = relation
    return x == y if e else a * x + b * y <= c


def _reference_menu_extensions(carrier):
    """The construction the template predicate menu replaced: each relation's test at each point."""
    extensions = []
    for relation in _relations():
        extension = frozenset((x, y) for x in carrier for y in carrier if _holds(relation, x, y))
        if extension not in extensions:
            extensions.append(extension)
    return extensions


def test_symbolic_predicate_menu_keeps_the_first_of_each_relation_over_z2():
    # Every relation of the full menu, as the comparisons and pair templates
    # it was built from, against the kept ones, by extension on a box wide
    # enough to tell apart any two of these distinct relations.
    box = range(-12, 13)

    def extension(test):
        return frozenset((x, y) for x in box for y in box if test(x, y))

    def pair(a, b, c):
        return lambda x, y: a * x + b * y <= c

    x, y = AffineForm.variable("x"), AffineForm.variable("y")
    full = [
        (reference_finder._COMPARISONS[rel], PredicateInterp(("x", "y"), compare(x, rel, y)))
        for rel in finder.BASE_RELATIONS
    ] + [
        (pair(a, b, c), PredicateInterp(("x", "y"), (LinearConstraint.make({"x": a, "y": b}, c),)))
        for a, b, c in itertools.product(finder.PAIR_COEFFS, finder.PAIR_COEFFS, finder.PAIR_CONSTS)
    ]
    first = {}
    for test, interp in full:
        first.setdefault(extension(test), interp)
    relations = _relations()
    assert (len(full), len(relations)) == (610, 403)
    # Each kept relation holds where the first of its extension holds, and
    # prints as that one: the comparisons as comparisons.
    assert [extension(functools.partial(_holds, relation)) for relation in relations] == list(first)
    assert [_relation_interp(relation) for relation in relations] == list(first.values())


@pytest.mark.parametrize("carrier", SearchBudget().carriers)
def test_finite_predicate_menu_matches_the_pointwise_construction(carrier):
    points, menu, _, _ = _finite_stage_menus(carrier, ())
    assert [interp for interp, _ in menu] == _reference_menu_extensions(points)
    # The checks read a successor map over the whole carrier.
    for interp, fast in menu:
        assert set(fast) == set(points)
        assert all(ys <= set(points) for ys in fast.values())
        assert {(x, y) for x in points for y in points if y in fast[x]} == interp


def _reference_template_tables(arity, carrier, budget):
    """The template function menu as it deduplicated before: on the sorted items of each table."""
    rng = range(budget.coeff_min, budget.coeff_max + 1)
    seen, out = set(), []
    for coeffs in itertools.product(rng, repeat=arity):
        for b in rng:
            table = {
                point: min(max(sum(a * x for a, x in zip(coeffs, point)) + b, carrier[0]), carrier[-1])
                for point in itertools.product(carrier, repeat=arity)
            }
            key = tuple(sorted(table.items()))
            if key not in seen:
                seen.add(key)
                out.append(table)
    return out


@pytest.mark.parametrize("arity", (1, 2))
@pytest.mark.parametrize("carrier", SearchBudget().carriers)
def test_template_tables_match_the_sorted_items_deduplication(carrier, arity):
    points, _, _, menus = _finite_stage_menus(carrier, (arity,))
    menu = menus[arity]
    assert [interp for interp, _ in menu] == _reference_template_tables(arity, points, _BUDGET)
    # The checks read a unary table keyed by the int itself, a wider one as it is.
    for interp, fast in menu:
        if arity == 1:
            assert {(x,): v for x, v in fast.items()} == interp
        else:
            assert fast is interp


# Searches that outlast the limits below: the finite search for a cycle of
# loop_cb runs for seconds on 0..120 (4.4 million nodes).  Each builds its
# menus from an empty cache.
_CYCLING_WIDE = FinderCase("cycling-wide", "loop_cb.trs", "CYCLING()", "finite")


def test_the_time_limit_covers_building_the_finite_menus(empty_menu_cache):
    # On 121 points the menus take most of the first limit to build; on
    # 1,000, the widest carrier allowed, one pair template's sort takes most
    # of a second, so the limit can be passed by at most that much.
    theory, obligations = _setup(_CYCLING_WIDE)
    for hi, limit, bound in ((120, 0.5, 3), (999, 1.0, 2.0)):
        started = time.monotonic()
        budget = SearchBudget(carriers=((0, hi),), time_limit=limit)
        outcome = find_model(theory, obligations, budget)
        assert outcome.reason == "budget exhausted: time cap"
        assert time.monotonic() - started < bound


def test_the_time_limit_covers_building_the_symbolic_menus():
    # With coefficients in -90..90 the binary affine menu holds 1.5 million
    # candidates, about 17 s to build.
    theory, obligations = _setup(
        FinderCase("pair-gf-wide", "pair_gf.trs", "FEASIBLE(g(x) == f(a, b))", "symbolic")
    )
    limit = 1.0
    started = time.monotonic()
    budget = SearchBudget(coeff_min=-90, coeff_max=90, time_limit=limit)
    outcome = find_symbolic_model(theory, obligations, budget)
    assert outcome.reason == "budget exhausted: time cap"
    assert time.monotonic() - started < limit + 1


def test_the_time_limit_stops_a_search_on_a_wide_grid(empty_menu_cache):
    # On 121 points the menus take a fraction of the limit to build, and then
    # each node's checks loop over the grid, so the deadline is checked
    # every node rather than every 256.  No node cap ends the search first.
    theory, obligations = _setup(_CYCLING_WIDE)
    limit = 1.5
    started = time.monotonic()
    budget = SearchBudget(carriers=((0, 120),), time_limit=limit, max_nodes=10**9)
    outcome = find_model(theory, obligations, budget)
    assert outcome.reason == "budget exhausted: time cap"
    assert outcome.nodes > 0  # the search ran, so the menus were built within the limit
    assert time.monotonic() - started < limit + 1


def test_symbolic_predicate_interpretations_are_built_only_for_complete_candidates(
    empty_menu_cache, monkeypatch
):
    built, finished = [], []
    relation_interp, finish = finder._relation_interp, finder._finish
    relations = _relations()

    def counted_interp(relation):
        built.append(relation)
        return relation_interp(relation)

    def recorded_finish(stage, sig, chosen, *rest):
        predicates = [slot.name for slot in stage.slots if slot.name in ("->", "->*")]
        finished.extend(relations[chosen[name]] for name in predicates)
        return finish(stage, sig, chosen, *rest)

    monkeypatch.setattr(finder, "_relation_interp", counted_interp)
    monkeypatch.setattr(finder, "_finish", recorded_finish)
    theory, obligations = _setup(next(c for c in FINDER_CASES if c.name == "increasing-f"))
    assert find_symbolic_model(theory, obligations).found
    # The relation of each predicate slot of each complete candidate, and no other.
    assert finished and built == finished


@pytest.mark.parametrize("find", (find_model, find_symbolic_model))
@pytest.mark.parametrize("case", FINDER_CASES, ids=lambda c: c.name)
def test_interpretations_are_built_only_by_finish_for_the_candidates_it_verifies(
    case, find, monkeypatch
):
    # Each slot's menu counts its interp calls and whether _finish is running.
    calls, verified, finishing = [], [], []
    stage, finish, verify_ = finder._Stage, finder._finish, finder.verify

    def counted(interp):
        return lambda k: calls.append(bool(finishing)) or interp(k)

    def counted_stage(slots, *rest):
        return stage([_Slot(s.name, _Menu(s.menu.fast, counted(s.menu.interp))) for s in slots], *rest)

    def flagged_finish(*args):
        finishing.append(True)
        try:
            return finish(*args)
        finally:
            finishing.pop()

    def counted_verify(theory, obligations, structure):
        verified.append(len(structure.functions) + len(structure.predicates))  # the slots
        return verify_(theory, obligations, structure)

    monkeypatch.setattr(finder, "_Stage", counted_stage)
    monkeypatch.setattr(finder, "_finish", flagged_finish)
    monkeypatch.setattr(finder, "verify", counted_verify)
    theory, obligations = _setup(case)
    outcome = find(theory, obligations, SearchBudget(max_nodes=100_000))
    assert verified or not outcome.found
    assert all(calls)
    assert len(calls) == sum(verified)


# Menus are kept between searches (see finder._menu).


def _counted_find(find, nodes):
    def run(*args, **kwargs):
        outcome = find(*args, **kwargs)
        nodes.append(outcome.nodes)
        return outcome

    return run


def test_kept_menus_give_each_disprove_what_an_empty_cache_gives(monkeypatch):
    # Each finder case at the default budget and each flagship capped at
    # 1,000 nodes per backend, as the benchmark runs them: alone on an empty
    # cache, then in two orders on one cache.  A kept menu that was built for
    # another carrier, ray or arity than its key names shows here.
    calls, nodes = CheckCalls().install(monkeypatch), []
    for name in ("find_model", "find_symbolic_model"):
        monkeypatch.setattr(pipeline, name, _counted_find(getattr(pipeline, name), nodes))

    def run(case):
        document = system(case.system)
        query = parse_query(case.query, document.ctrs.signature, document.var_sorts)
        budget = SearchBudget(max_nodes=1_000) if case in FLAGSHIPS else None
        calls.calls, nodes[:] = 0, []
        result = pipeline.disprove(document.ctrs, query, budget)
        certificate = result.certificate and serialize_certificate(result.certificate)
        return certificate, sum(nodes), calls.calls, result.reasons

    cases = FINDER_CASES + FLAGSHIPS
    alone = {}
    for case in cases:
        monkeypatch.setattr(finder, "_kept", ((), None))
        alone[case] = run(case)
    for order in (cases, cases[::-1]):
        monkeypatch.setattr(finder, "_kept", ((), None))
        for case in order:
            assert run(case) == alone[case], case.name


_MENU_BUILDERS = ("_template_rows", "_affine_candidates")


def test_the_first_search_under_new_menu_settings_keeps_no_menu(empty_menu_cache):
    # So a one-shot run frees a carrier's menus once it moves past the carrier.
    theory, obligations = _setup(FINDER_CASES[2])  # pair-gf: unary g, binary f
    assert find_model(theory, obligations).found
    assert finder._kept == (_settings(SearchBudget()), None)
    assert find_model(theory, obligations).found
    assert {key[:2] for key in _kept_menus()} == {("template", (0, 1))}


def test_searches_after_the_second_under_the_same_menu_settings_build_no_menu(
    empty_menu_cache, monkeypatch
):
    # Increasing-f exhausts every finite stage, raw ones too, before the
    # symbolic search finds its model.  The first search keeps no menu, so
    # two rounds of both searches build and keep every menu.
    theory, obligations = _setup(next(c for c in FINDER_CASES if c.name == "increasing-f"))
    for _ in range(2):
        first = [find(theory, obligations) for find in (find_model, find_symbolic_model)]
    built = []
    for name in _MENU_BUILDERS:
        monkeypatch.setattr(finder, name, lambda *args, name=name: built.append(name))
    # The node cap and the time limit are no menu settings.
    budget = SearchBudget(max_nodes=1_000_000, time_limit=600.0)
    later = [find(theory, obligations, budget) for find in (find_model, find_symbolic_model)]
    assert built == []
    assert [(o.reason, o.nodes, o.certificate) for o in later] == [
        (o.reason, o.nodes, o.certificate) for o in first
    ]


def test_the_relation_list_is_enumerated_once_per_process(empty_menu_cache):
    # Increasing-f exhausts every finite stage, so each carrier builds its
    # predicate menu from the list, and the symbolic search reads it too.
    theory, obligations = _setup(next(c for c in FINDER_CASES if c.name == "increasing-f"))
    finder._relations.cache_clear()
    budget = SearchBudget(carriers=((0, 1), (0, 2)))
    assert not find_model(theory, obligations, budget).found
    assert find_symbolic_model(theory, obligations, budget).found
    info = finder._relations.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def _settings(budget: SearchBudget) -> SearchBudget:
    """What keys the kept menus: the budget less its node cap and time limit."""
    return dataclasses.replace(budget, time_limit=0.0, max_nodes=0)


def _kept_menus(budget: SearchBudget = SearchBudget()) -> dict:
    """The menus kept under ``budget``'s menu settings, which the latest search ran with."""
    settings, menus = finder._kept
    assert settings == _settings(budget) and menus is not None
    return menus


def test_a_menu_build_stopped_by_the_deadline_keeps_nothing(empty_menu_cache, monkeypatch):
    theory, obligations = _setup(FINDER_CASES[0])  # intro: one constant, no function
    for _ in range(2):  # the second search keeps what it builds
        outcome = find_model(theory, obligations, deadline=time.monotonic() - 1)
        assert outcome.reason == "budget exhausted: time cap"
    assert _kept_menus() == {}
    # Stopped while the first table menu is built, after the predicate menu
    # is complete: only it is kept (the constant menu is the carrier, never kept).
    theory, obligations = _setup(FINDER_CASES[2])  # pair-gf: unary g, binary f
    stopped = mock.Mock(side_effect=finder._Stop("budget exhausted: time cap"))
    with mock.patch.object(finder, "_template_rows", stopped):
        outcome = find_model(theory, obligations)
    assert outcome.reason == "budget exhausted: time cap"
    assert set(_kept_menus()) == {("template", (0, 1))}
    # A later search builds the rest and finds what an empty cache finds.
    found = find_model(theory, obligations)
    monkeypatch.setattr(finder, "_kept", ((), None))
    assert found.certificate == find_model(theory, obligations).certificate


def test_a_search_under_other_menu_settings_drops_the_kept_menus(empty_menu_cache):
    theory, obligations = _setup(FINDER_CASES[2])
    find_model(theory, obligations)
    find_symbolic_model(theory, obligations)
    assert ("affine", 0, 1) in _kept_menus()
    # Other settings drop the kept menus, and their first search keeps none.
    narrow = SearchBudget(carriers=((0, 1),), ray_carriers=(0,))
    assert find_model(theory, obligations, narrow).found
    assert finder._kept == (_settings(narrow), None)
    assert find_model(theory, obligations, narrow).found
    assert {key[:2] for key in _kept_menus(narrow)} == {("template", (0, 1))}
    # Each menu setting counts, and the node cap and time limit do not.
    kept = _kept_menus(narrow)
    find_model(theory, obligations, dataclasses.replace(narrow, max_nodes=9, time_limit=9.0))
    assert _kept_menus(narrow) is kept
    for other in (
        dict(carriers=((0, 2),)),
        dict(ray_carriers=(1,)),
        dict(coeff_min=-1),
        dict(coeff_max=3),
        dict(raw_table_max_size=1),
    ):
        budget = dataclasses.replace(narrow, **other)
        find_model(theory, obligations, budget)
        assert finder._kept == (_settings(budget), None)


def _random_unconditional_ctrs(rng: random.Random) -> CTRS:
    sig = Signature(
        functions={
            "a": ((), DEFAULT_SORT),
            "b": ((), DEFAULT_SORT),
            "f": ((DEFAULT_SORT,), DEFAULT_SORT),
        }
    )
    x = Var("x")
    pool = [App("a"), App("b"), x, App("f", (App("a"),)), App("f", (x,))]
    rules = []
    for _ in range(rng.randint(1, 3)):
        lhs = rng.choice([t for t in pool if isinstance(t, App)])
        rhs = rng.choice(pool)
        if isinstance(rhs, Var) and rhs not in lhs.args:
            rhs = App("a")
        rules.append(ConditionalRule(lhs, rhs))
    return CTRS(sig, tuple(rules))


@pytest.mark.parametrize("seed", range(12))
def test_fuzzed_searches_never_return_unverified_structures(seed):
    rng = random.Random(seed)
    ctrs = _random_unconditional_ctrs(rng)
    theory = build_theory(ctrs)
    query = parse_query(rng.choice(["REACHABLE(a, b)", "JOINABLE(a, b)", "REDUCIBLE(b)"]), ctrs.signature)
    obligations = negate_to_obligations(query)
    budget = SearchBudget(carriers=((0, 1), (0, 2)), max_nodes=60_000)
    outcome = find_model(theory, obligations, budget)
    if outcome.found:
        assert verify(theory, obligations, outcome.certificate.structure).overall == VERIFIED
    symbolic = find_symbolic_model(
        theory, obligations, SearchBudget(ray_carriers=(0,), max_nodes=60_000)
    )
    if symbolic.found:
        assert verify(theory, obligations, symbolic.certificate.structure).overall == VERIFIED


# -- compiled checks against the tree-walking reference -------------------------------


def _reference_refuted(env, points, variables, body, head):
    """The evaluator the compiled checks replace: walk every term at every valuation.

    Returns the first refuting valuation in lexicographic order, or None.
    """
    names = list(dict.fromkeys(v.name for v in variables))
    for values in itertools.product(points, repeat=len(names)):
        valuation = dict(zip(names, values))
        if not all(_reference_atom(env, valuation, atom) for atom in body):
            continue
        if head is None or not _reference_atom(env, valuation, head):
            return valuation
    return None


def _agrees(check, env, points, reference_env, spelling):
    """Whether the compiled check, as the finder compiles it, gives the reference's result.

    In the call and inline spellings it must return the reference's first
    refuting valuation (the values of its loop variables, True with none)
    or False.  In the table spelling only whether one exists is compared: a
    driven loop iterates a frozenset, whose order is not ascending.
    """
    variables, body, head = check
    body = tuple(a for a in body if sort_of_predicate(a.predicate) is None)
    _, names, refuted = _compile_check(variables, body, head, spelling)
    found = refuted(env, points)
    valuation = _reference_refuted(reference_env, points, *check)
    if spelling == TABLES:
        return bool(found) == (valuation is not None)
    return found == (valuation is not None and (tuple(valuation[n] for n in names) or True))


def _reference_atom(env, valuation, atom):
    if sort_of_predicate(atom.predicate) is not None:
        return True
    return env[atom.predicate](*(_reference_term(env, valuation, a) for a in atom.args))


def _reference_term(env, valuation, term):
    if isinstance(term, Var):
        return valuation[term.name]
    if not term.args:
        return env[term.symbol]
    return env[term.symbol](*(_reference_term(env, valuation, a) for a in term.args))


def _reference_value(interp):
    """An interpretation as the reference reads it: an int for a constant, else a callable."""
    if isinstance(interp, frozenset):
        return lambda *args: args in interp
    if isinstance(interp, dict):
        return interp[()] if () in interp else lambda *args: interp[args]
    if isinstance(interp, PiecewiseFunction):
        return interp.eval(()) if not interp.params else lambda *args: interp.eval(args)
    return lambda *args: interp.holds(args)  # a PredicateInterp


def _refuter(variables, body, head, spelling):
    return _compile_check(variables, body, head, spelling)[2]


_ARITIES = {"a": 0, "b": 0, "f": 1, "g": 2}
_VARS = (Var("x"), Var("y"), Var("z"))
_BUDGET = SearchBudget()


@functools.cache
def _menus(kind, param):
    """(points, predicate, constant and per-arity function candidates) of one finder menu.

    A candidate is an (interpretation, what the checks read) pair.
    """
    if kind == "symbolic":
        points = tuple(range(param, param + 4))
        consts = _entries(_affine_candidates(0, param, _BUDGET, math.inf))
        preds = [(_relation_interp(relation), relation) for relation in _relations()]
        funcs = {n: _entries(_affine_candidates(n, param, _BUDGET, math.inf)) for n in (1, 2)}
        return points, preds, consts, funcs
    return _finite_stage_menus(param, (1, 2), raw=kind == "raw")


_MENUS = [("template", c) for c in ((0, 1), (0, 2), (-1, 1))] + [
    ("raw", (0, 1)),
    *(("symbolic", lo) for lo in (0, -1, 1)),
]


@st.composite
def _grid_envs(draw):
    """(candidates by symbol, points, spelling): one draw from one menu, and its spelling."""
    kind, param = draw(st.sampled_from(_MENUS))
    points, preds, consts, funcs = _menus(kind, param)
    chosen = {p: draw(st.sampled_from(preds)) for p in ("->", "->*")}
    for name, arity in _ARITIES.items():
        chosen[name] = draw(st.sampled_from(funcs[arity] if arity else consts))
    return chosen, points, INLINE if kind == "symbolic" else TABLES


_terms = st.recursive(
    st.sampled_from((*_VARS, App("a"), App("b"))),
    lambda inner: st.one_of(
        st.builds(lambda t: App("f", (t,)), inner),
        st.builds(lambda s, t: App("g", (s, t)), inner, inner),
    ),
    max_leaves=5,
)
_relation_atoms = st.builds(
    lambda p, s, t: Atom(p, (s, t)), st.sampled_from(("->", "->*")), _terms, _terms
)
_atoms = st.one_of(_relation_atoms, st.builds(lambda t: Atom("S_s", (t,)), _terms))


@st.composite
def _checks(draw):
    """(variables, body, head): head None is an obligation; variables may include an unused one.

    Sort atoms occur in the body only: a sort-headed clause is never compiled.
    """
    body = tuple(draw(st.lists(_atoms, max_size=3)))
    head = draw(st.one_of(st.none(), _relation_atoms))
    occurring = {v for atom in (*body, *([head] if head else [])) for v in atom.variables()}
    extra = [Var("w")] if draw(st.booleans()) else []
    variables = draw(st.permutations([v for v in _VARS if v in occurring] + extra))
    return tuple(variables), body, head


def _example_grid(kind, param, arrow, star):
    """A grid of one menu, ``arrow`` and ``star`` picking "->" and "->*" by (pair set, points)."""
    points, preds, consts, funcs = _menus(kind, param)
    chosen = {
        "->": next(c for c in preds if arrow(c[0], points)),
        "->*": next(c for c in preds if star(c[0], points)),
        "a": consts[0],
        "b": consts[-1],
        "f": funcs[1][len(funcs[1]) // 2],
        "g": funcs[2][len(funcs[2]) // 2],
    }
    return chosen, points, INLINE if kind == "symbolic" else TABLES


def _f(t):
    return App("f", (t,))


_X, _Y, _Z = _VARS
# Checks whose finite spelling drives loops by successor sets, or must not.
_JOIN_CHECKS = (
    # transitivity: two driven loops
    (_VARS, (Atom("->*", (_X, _Y)), Atom("->*", (_Y, _Z))), Atom("->*", (_X, _Z))),
    # congruence x -> y => f(x) -> f(y)
    ((_X, _Y), (Atom("->", (_X, _Y)),), Atom("->", (_f(_X), _f(_Y)))),
    # a driver with a ground first argument
    ((_X,), (Atom("->", (App("a"), _X)),), Atom("->*", (_X, App("b")))),
    # a driver whose first argument is a nested term
    ((_X, _Y), (Atom("->", (App("g", (_f(_X), App("a"))), _Y)),), Atom("->*", (_Y, _X))),
    # x -> x binds x at its own level, so it is a test, never a driver
    ((_X,), (Atom("->", (_X, _X)),), Atom("->*", (_f(_X), _X))),
)
_FINITE_MENUS = [menu for menu in _MENUS if menu[0] != "symbolic"]
_ABOUT_HALF = lambda pairs, points: len(pairs) >= len(points) ** 2 // 2  # noqa: E731


def _not_transitive(pairs, points):
    return any((x, z) not in pairs for x, y in pairs for w, z in pairs if y == w)


# A chain of more than _OWN_LOOPS variables, so the last two share a product
# loop.  The reference walks every valuation, 3 ** 18 of them on three
# points, so there "->" holds at the first point and "->*" does not, and
# the first valuation refutes; on two points both are equality, so the
# check holds only if every atom of the chain is tested, and the reference
# walks all 2 ** 18.
_CHAIN = tuple(Var(f"w{i}") for i in range(_OWN_LOOPS + 2))
_CHAIN_CHECK = (
    _CHAIN,
    tuple(Atom("->", pair) for pair in zip(_CHAIN, _CHAIN[1:])),
    Atom("->*", (_CHAIN[0], _CHAIN[-1])),
)
_AT_FIRST = lambda pairs, points: (points[0], points[0]) in pairs  # noqa: E731
_NOT_AT_FIRST = lambda pairs, points: (points[0], points[0]) not in pairs  # noqa: E731
_EQUALITY = lambda pairs, points: pairs == {(x, x) for x in points}  # noqa: E731


def _join_examples(test):
    for menu in _FINITE_MENUS:
        for check in _JOIN_CHECKS:
            for arrow, star in ((_not_transitive, _ABOUT_HALF), (_ABOUT_HALF, _not_transitive)):
                test = example(check, _example_grid(*menu, arrow, star))(test)
        test = example(_CHAIN_CHECK, _example_grid(*menu, _AT_FIRST, _NOT_AT_FIRST))(test)
        if len(_menus(*menu)[0]) == 2:
            test = example(_CHAIN_CHECK, _example_grid(*menu, _EQUALITY, _EQUALITY))(test)
    return test


@settings(max_examples=400, deadline=None)
@_join_examples
@given(_checks(), _grid_envs())
def test_compiled_check_matches_reference(check, grid):
    # The check reads the candidates' fast values in the menu's spelling;
    # the reference evaluates their interpretations.
    variables, body, head = check
    chosen, points, spelling = grid
    env = {name: fast for name, (_, fast) in chosen.items()}
    reference_env = {name: _reference_value(interp) for name, (interp, _) in chosen.items()}
    assert _agrees(check, env, points, reference_env, spelling)


def _generated_identifiers(source):
    tree = ast.parse(source)
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}
    names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    return names


def test_symbol_names_never_enter_generated_source():
    x, y = Var("x"), Var("y")
    body = (Atom("->", (App("f'", (x,)), App("a''"))),)
    head = Atom("->*", (App("f'", (App("f'", (x,)),)), y))
    for spelling in (TABLES, CALL, INLINE):
        source, keys, names = _check_source((x, y), body, head, spelling)
        assert names == ("x", "y")
        # Slots are numbered in the order the generator first reads their symbols.
        assert keys == ("f'", "a''", "->", "->*")
        assert not any(key in source for key in keys)
        identifiers = _generated_identifiers(source)
        pattern = r"[nstv]\d+|s\d+_(\d+|[kabce])|env|points|product|refuted"
        assert all(re.fullmatch(pattern, n) for n in identifiers)
        assert {n for n in identifiers if n.startswith("n")} == {f"n{i}" for i in range(len(keys))}
        tree = ast.parse(source)
        assert not [n for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)]
        (refuted,) = tree.body
        assert [arg.arg for arg in refuted.args.args] == ["env", "points"]
    grid = range(3)
    interps = {
        "f'": {(v,): min(v + 1, 2) for v in grid},
        "a''": {(): 1},
        "->": frozenset((s, t) for s in grid for t in grid if s <= t),
        "->*": frozenset((v, v) for v in grid),
    }
    reference_env = {name: _reference_value(interp) for name, interp in interps.items()}
    # The finite spelling reads each interpretation as the finder's candidates carry it.
    fast = {
        "f'": reference_finder._table_candidate(interps["f'"], 1)[1],
        "->": reference_finder._pair_candidate(interps["->"], tuple(grid))[1],
        "->*": reference_finder._pair_candidate(interps["->*"], tuple(grid))[1],
    }
    for spelling in (TABLES, CALL):
        env = {**(fast if spelling == TABLES else reference_env), "a''": 1}
        for points in ((0, 1, 2), (0,), ()):
            assert _agrees(((x, y), body, head), env, points, reference_env, spelling)


def test_a_function_named_like_a_sort_test_reads_its_own_slot():
    # S_term(x) in the body is x's sort test; S_term(x) in the head applies
    # the function S_term.  Each slot key says which one it reads.
    x = Var("x")
    body = (Atom("S_term", (x,)),)
    head = Atom("->", (App("S_term", (x,)), App("a")))
    _, keys, _ = _check_source((x,), body, head, CALL)
    assert keys == ((SORT, "term"), "S_term", "a", "->")
    refuted = _refuter((x,), body, head, CALL)
    env = {"S_term": lambda v: 1 - v, "a": 0, "->": lambda s, t: s == t + 1}
    # x = 1 refutes the check, once it is inside the sort's carrier
    assert not refuted({**env, (SORT, "term"): {0}.__contains__}, (0, 1))
    assert refuted({**env, (SORT, "term"): {0, 1}.__contains__}, (0, 1)) == (1,)


def test_25_variable_clause_compiles_and_evaluates():
    xs = tuple(Var(f"x{i}") for i in range(25))
    body = tuple(Atom("->", (xs[i], xs[i + 1])) for i in range(24))
    head = Atom("->*", (xs[0], xs[-1]))
    refuted = _refuter(xs, body, head, CALL)
    le = lambda s, t: s <= t  # noqa: E731
    lt = lambda s, t: s < t  # noqa: E731
    eq = lambda s, t: s == t  # noqa: E731
    # a non-decreasing chain from 0 to 1 breaks x0 = x24
    assert refuted({"->": le, "->*": eq}, (0, 1))
    # every non-decreasing chain keeps x0 <= x24
    assert not refuted({"->": le, "->*": le}, (0, 1))
    # no strictly increasing chain of 24 steps over three points
    assert not refuted({"->": lt, "->*": eq}, (0, 1, 2))
    # obligation over the same chain; the reference is feasible on a single point
    assert _refuter(xs, body, None, CALL)({"->": le}, (0, 1))
    env = {"->": le, "->*": lt}
    assert _reference_refuted(env, (5,), xs, body, head) == {x.name: 5 for x in xs}
    assert refuted(env, (5,)) == (5,) * 25


def test_250_deep_term_compiles_and_evaluates():
    x, y = Var("x"), Var("y")
    deep = x
    for _ in range(250):
        deep = App("f", (deep,))
    body = (Atom("->", (deep, y)),)
    head = Atom("->*", (x, y))
    for step in (lambda v: v, lambda v: min(v + 1, 3), lambda v: max(v - 1, 0)):
        env = {"f": step, "->": lambda s, t: s == t, "->*": lambda s, t: s <= t}
        for points in ((0, 1, 2, 3), (2,)):
            assert _agrees(((x, y), body, head), env, points, env, CALL)


def test_ground_and_sort_headed_checks():
    x = Var("x")
    env = {"a": 0, "b": 1, "f": lambda v: 1 - v, "->": lambda s, t: s < t, "->*": lambda s, t: s <= t}
    ground = ((), (Atom("->", (App("a"), App("b"))),), Atom("->*", (App("f", (App("a"),)), App("b"))))
    unused = ((x,), *ground[1:])
    false_ground = ((), (Atom("->", (App("b"), App("a"))),), Atom("->*", (App("b"), App("a"))))
    refuted_ground = ((), (), Atom("->", (App("b"), App("a"))))
    refuted_unused = ((x,), *refuted_ground[1:])  # no valuation at all over no points
    checks = (ground, unused, false_ground, refuted_ground, refuted_unused)
    for variables, body, head in checks:
        for points in ((0, 1), ()):
            assert _agrees((variables, body, head), env, points, env, CALL)
    assert _refuter(*refuted_ground, CALL)(env, (0, 1))
    # A sort head holds of every candidate, so such a clause is never compiled;
    # website's subsort clauses have them.
    theory, obligations = _setup(FLAGSHIPS[1])
    sort_headed = [c for c in theory.clauses if sort_of_predicate(c.head.predicate) is not None]
    assert sort_headed
    compiled = _compile_checks(theory, obligations, TABLES)
    assert len(compiled) == len(obligations) + len(theory.clauses) - len(sort_headed)


@pytest.mark.parametrize("tables", (True, False))
@pytest.mark.parametrize("case", FINDER_CASES + FLAGSHIPS, ids=lambda c: c.name)
def test_each_check_reads_the_symbols_a_walk_of_its_atoms_finds(case, tables):
    # The code generator reports the symbols it reads; sort atoms are
    # dropped from the code, and the compiler puts only variables under them,
    # so every check is attached where a walk of all its atoms puts it.
    theory, obligations = _setup(case)
    atoms = [ob.body for ob in obligations] + [
        (*clause.body, clause.head)
        for clause in theory.clauses
        if sort_of_predicate(clause.head.predicate) is None
    ]
    compiled = _compile_checks(theory, obligations, TABLES if tables else INLINE)
    assert [symbols for symbols, _ in compiled] == list(map(reference_finder._check_symbols, atoms))


@pytest.mark.parametrize("case", FINDER_CASES + FLAGSHIPS, ids=lambda c: c.name)
def test_a_symbolic_stage_check_calls_no_slot(case):
    # The inline spelling applies each candidate's data in place: the only
    # call left in a symbolic stage's check is the shared ``product`` loop.
    theory, obligations = _setup(case)
    for clause in (*obligations, *theory.clauses):
        if clause.head is not None and sort_of_predicate(clause.head.predicate) is not None:
            continue
        body = tuple(a for a in clause.body if sort_of_predicate(a.predicate) is None)
        source, _, _ = _check_source(clause.variables, body, clause.head, INLINE)
        assert not re.search(r"\bs\d+\(", source)
        calls = [n.func for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call)]
        assert all(isinstance(f, ast.Name) and f.id == "product" for f in calls)


# -- the backjumping search against the chronological one -----------------------------

# Backjumping skips only subtrees that hold no complete candidate, so it hands
# ``finish`` the reference's complete candidates in the same order: the same
# certificate bytes and reasons, from at most as many nodes.

_CAP = "budget exhausted: candidate cap"
_WHOLE = SearchBudget(max_nodes=100_000, time_limit=3600.0)


def _search_outcome(search, case, backend, budget):
    """(certificate bytes, reason, nodes) of one finder call with ``search`` as its ``_search``."""
    theory, obligations = _setup(case)
    find = find_model if backend == "finite" else find_symbolic_model
    with mock.patch.object(finder, "_search", search):
        outcome = find(theory, obligations, budget)
    found = outcome.certificate and serialize_certificate(outcome.certificate)
    return found, outcome.reason, outcome.nodes


@functools.cache
def _whole_reference(case, backend):
    return _search_outcome(reference_finder._search, case, backend, _WHOLE)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(FINDER_CASES + FLAGSHIPS),
    st.sampled_from(("finite", "symbolic")),
    st.integers(1, 5_000),
)
def test_memoized_search_matches_the_reference_under_node_caps(case, backend, max_nodes):
    budget = SearchBudget(max_nodes=max_nodes, time_limit=3600.0)
    found, reason, nodes = _search_outcome(_search, case, backend, budget)
    reference = _search_outcome(reference_finder._search, case, backend, budget)
    assert nodes <= reference[2]
    if reference[1] == _CAP and reason != _CAP:
        # With fewer nodes the search got past the reference's cap, to what
        # the uncapped reference finds.
        assert (found, reason) == _whole_reference(case, backend)[:2]
        assert found is not None
    else:
        assert (found, reason) == reference[:2]


@pytest.mark.parametrize("backend", ("finite", "symbolic"))
@pytest.mark.parametrize("case", FINDER_CASES, ids=lambda c: c.name)
def test_memoized_search_matches_the_reference_on_whole_searches(case, backend):
    # Every search here ends within 100,000 nodes, but the symbolic
    # non-looping-a, which would run on to the default cap of 2,000,000.
    found, reason, nodes = _search_outcome(_search, case, backend, _WHOLE)
    reference = _whole_reference(case, backend)
    assert (found, reason) == reference[:2]
    assert nodes <= reference[2]


def _int_slot(name, size):
    """A slot whose candidates are the ints below ``size``; each index is its candidate."""
    return _Slot(name, _Menu(list(range(size)), lambda k: k))


def _hashed_check(reads, salt, modulus):
    """A check refuting a fixed pseudo-random share of the values of the slots it reads."""

    def refuted(env, points):
        return hash((salt, *(env[name] for name in reads))) % modulus == 0

    return refuted


@st.composite
def _slot_systems(draw):
    """Slots ``s0, s1, ...`` with menus of 0-3 integers, checks each reading some of them, and a rejection.

    The rejection is a hashed check over drawn slots, possibly none: a
    ``finish`` rejecting a candidate it refutes conflicts with those slots.
    """
    sizes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))
    names = [f"s{i}" for i in range(len(sizes))]
    slots = [_int_slot(name, size) for name, size in zip(names, sizes)]

    def hashed(min_size):
        reads = sorted(draw(st.sets(st.sampled_from(names), min_size=min_size)))
        salt, modulus = draw(st.integers(0, 1 << 16)), draw(st.integers(1, 4))
        return set(reads), _hashed_check(reads, salt, modulus)

    checks = [hashed(1) for _ in range(draw(st.integers(0, 6)))]
    return slots, checks, hashed(0)


def _complete_candidates(search, slots, checks, conflict=set):
    """The complete candidates handed to a ``finish`` that rejects each, and the nodes.

    ``conflict(chosen)`` names the slots each rejection conflicts with: by
    default every slot, as for a candidate rejected whatever its slots hold.
    """
    complete = []
    state = _State(SearchBudget(), math.inf)

    def finish(chosen):
        complete.append(dict(chosen))
        return frozenset(conflict(chosen))

    assert search(slots, checks, state, (), finish) is None
    return complete, state.nodes


@settings(max_examples=300, deadline=None)
@given(_slot_systems())
def test_backjumping_hands_finish_the_reference_sequence_of_complete_candidates(system):
    slots, checks, _ = system
    position = {slot.name: index for index, slot in enumerate(slots)}

    def level(check):
        """The slot after the latest earlier slot the check reads, where its memo is cleared."""
        reads = sorted(position[name] for name in check[0])
        return reads[-2] + 1 if len(reads) > 1 else 0

    # The reference tries each slot's checks in the walk's order, longest-kept
    # memo first, so the walk's calls are the reference's minus memo hits and
    # skipped subtrees.  (Neither's candidates depend on that order.)
    counted, reference_counted = CheckCalls(), CheckCalls()
    complete, nodes = _complete_candidates(
        _search, slots, [(reads, counted.wrap(refuted)) for reads, refuted in checks]
    )
    reference, reference_nodes = _complete_candidates(
        reference_finder._search,
        slots,
        [(reads, reference_counted.wrap(refuted)) for reads, refuted in sorted(checks, key=level)],
    )
    assert complete == reference
    assert nodes <= reference_nodes
    assert counted.calls <= reference_counted.calls


def test_a_dead_end_that_does_not_read_the_slot_before_it_skips_that_slot():
    # Slots a, b, c.  While a is 0, a check reading a and c rejects every
    # candidate of c whatever b is, so the search jumps from c back to a
    # without trying b = 1 and b = 2 (three nodes each).
    slots = [_int_slot(name, size) for name, size in (("a", 2), ("b", 3), ("c", 2))]
    checks = [({"a", "c"}, lambda env, points: env["a"] == 0)]
    complete, nodes = _complete_candidates(_search, slots, checks)
    reference, reference_nodes = _complete_candidates(reference_finder._search, slots, checks)
    assert complete == reference == [{"a": 1, "b": b, "c": c} for b in range(3) for c in range(2)]
    assert reference_nodes == 26
    assert nodes == reference_nodes - 2 * 3


@settings(max_examples=300, deadline=None)
@given(_slot_systems())
def test_a_rejection_by_finish_skips_later_candidates_only_where_they_agree_with_it(system):
    # ``finish`` rejects every candidate: one its hashed check refutes with
    # the conflict of that check's slots, any other with every slot.  A
    # rejection's conflict set is a nogood, so the walk hands ``finish`` the
    # reference's candidates minus some that agree on those slots with an
    # earlier refuted one.  It keeps the nogood at the conflict's latest slot
    # while the slots up to its second latest keep their values, so it skips
    # at least every candidate agreeing with an earlier refuted one on those
    # slots and on the latest.
    slots, checks, (reads, refuted) = system
    position = {slot.name: index for index, slot in enumerate(slots)}
    names = [slot.name for slot in slots]
    indices = sorted(position[name] for name in reads)
    kept = {names[i] for i in range(indices[-2] + 1 if len(indices) > 1 else 0)}
    kept |= {names[indices[-1]]} if indices else set()

    def conflict(chosen):
        return reads if refuted(chosen, ()) else chosen

    complete, nodes = _complete_candidates(_search, slots, checks, conflict)
    reference, reference_nodes = _complete_candidates(reference_finder._search, slots, checks)
    assert nodes <= reference_nodes
    values = lambda candidate, on: tuple(candidate[name] for name in sorted(on))  # noqa: E731
    handed = {values(c, names) for c in complete}
    # handed in the reference's order, each at most once
    assert complete == [c for c in reference if values(c, names) in handed]
    rejected: list[dict] = []  # the handed candidates refuted so far
    for candidate in reference:
        agrees = lambda on: any(values(candidate, on) == values(r, on) for r in rejected)  # noqa: E731
        if values(candidate, names) in handed:
            assert not agrees(kept)
            if refuted(candidate, ()):
                rejected.append(candidate)
        else:
            assert agrees(reads)


def test_a_dead_end_is_learned_and_skipped_under_the_next_value_of_an_earlier_slot():
    # Slots a, b, c.  While b is 0, a check reading b and c rejects every
    # candidate of c, so under a = 0 the walk learns that b = 0 fails
    # whatever a holds, and under a = 1 rejects b = 0 as one node without
    # entering c (three nodes).
    slots = [_int_slot(name, size) for name, size in (("a", 2), ("b", 2), ("c", 3))]
    checks = [({"b", "c"}, lambda env, points: env["b"] == 0)]
    complete, nodes = _complete_candidates(_search, slots, checks)
    reference, reference_nodes = _complete_candidates(reference_finder._search, slots, checks)
    assert complete == reference == [{"a": a, "b": 1, "c": c} for a in range(2) for c in range(3)]
    assert reference_nodes == 24
    assert nodes == reference_nodes - 3


def test_a_learned_nogood_is_dropped_when_an_earlier_slot_in_its_set_changes():
    # Slots a, b, c, d.  A check reading a, c and d rejects every d while
    # a = c = 0.  Under a = 0 the walk learns that c = 0 fails while a holds
    # its value, so under b = 1 it rejects c = 0 without entering d (two
    # nodes); once a changes the nogood is dropped, and c = 0 is entered
    # under both values of b.
    slots = [_int_slot(name, 2) for name in "abcd"]
    calls = []

    def a_and_c_zero(env, points):
        calls.append((env["a"], env["b"], env["c"], env["d"]))
        return env["a"] == env["c"] == 0

    checks = [({"a", "c", "d"}, a_and_c_zero)]

    def run(search):
        calls.clear()
        complete, nodes = _complete_candidates(search, slots, checks)
        return complete, nodes, list(calls)

    complete, nodes, walk_calls = run(_search)
    reference, reference_nodes, _ = run(reference_finder._search)
    assert complete == reference
    assert reference_nodes == 42
    assert nodes == reference_nodes - 2
    # d's check runs under (a, c) = (0, 0) for b = 0 only, and under a = 1 for every b and c
    assert [call for call in walk_calls if call[0] == 0 and call[2] == 0] == [(0, 0, 0, 0), (0, 0, 0, 1)]
    assert [call[1:3] for call in walk_calls if call[0] == 1 and call[3] == 0] == [
        (b, c) for b in range(2) for c in range(2)
    ]


def _handed(case, budget, search):
    """The outcome of a symbolic search with ``search`` as its walk, and what ``_finish`` was handed.

    Each handed candidate is its index per slot, with the slots a rejection
    conflicts with, or None once accepted.
    """
    theory, obligations = _setup(case)
    handed, finish = [], finder._finish

    def recorded_finish(stage, sig, chosen, *rest):
        found = finish(stage, sig, chosen, *rest)
        handed.append((dict(chosen), found if isinstance(found, frozenset) else None))
        return found

    with mock.patch.object(finder, "_finish", recorded_finish), mock.patch.object(finder, "_search", search):
        outcome = find_symbolic_model(theory, obligations, budget)
    return outcome, handed


def test_a_verifier_rejection_skips_only_candidates_failing_the_check_it_names():
    # On the ray from -1 the grid is -1..2, so candidates holding there can
    # fail transitivity of ->* (reading -> and ->*) or its reflexivity
    # (->* alone) at 3 or beyond.  The walk skips only later candidates that
    # agree with a rejected one on the slots its failed check reads.
    case = FinderCase("fab-reaches-a", "fab.trs", "REACHABLE(f(a), a)", "symbolic")
    budget = SearchBudget(ray_carriers=(-1,), coeff_min=0, coeff_max=2, time_limit=3600.0)
    outcome, handed = _handed(case, budget, _search)
    reference, reference_handed = _handed(case, budget, reference_finder._search)
    assert (outcome.found, outcome.reason) == (reference.found, reference.reason)
    assert outcome.nodes <= reference.nodes
    assert {conflict for _, conflict in handed} == {frozenset({"->", "->*"}), frozenset({"->*"})}
    walk = [candidate for candidate, _ in handed]
    assert walk == [c for c, _ in reference_handed if c in walk]
    assert len(walk) < len(reference_handed)
    earlier: list[tuple] = []  # the walk's rejections so far
    for candidate, _ in reference_handed:
        if candidate in walk:
            earlier.append(handed[walk.index(candidate)])
        else:
            assert any(all(candidate[s] == e[s] for s in conflict) for e, conflict in earlier)


_ONE_STEP = next(c for c in FINDER_CASES if c.name == "intro-one-step")
_FULL = frozenset(itertools.product((0, 1), repeat=2))
_INTRO_CONSTANTS = {"a": {(): 0}, "b": {(): 1}, "c": {(): 0}}


def _finish_conflict(interps):
    """What ``_finish`` returns on carrier 0..1 for the theory of intro's ``a -> b`` (clauses
    reflexivity and transitivity of ->*, ``b -> a`` and ``c ->* b => a -> b``; obligation
    ``NOT (a -> b)``), with one candidate per slot, in the order of ``interps``.
    """
    theory, obligations = _setup(_ONE_STEP)
    slots = [_Slot(name, _Menu([None], lambda k, v=interp: v)) for name, interp in interps.items()]
    stage = finder._Stage(slots, (0, 1), FiniteStructure, (0, 1))
    return finder._finish(stage, theory.signature, dict.fromkeys(interps, 0), theory, obligations)


def test_a_rejection_by_a_clause_conflicts_with_the_slots_it_reads():
    # Both relations empty: reflexivity of ->* fails, reading ->* alone, and
    # so does ``b -> a``, reading ->, a and b; ->* is the earlier slot.
    assert _finish_conflict({"->": frozenset(), "->*": frozenset(), **_INTRO_CONSTANTS}) == {"->*"}
    # With the constants first, ``b -> a``'s latest slot, b, comes before ->*.
    constants_first = {**_INTRO_CONSTANTS, "->": frozenset(), "->*": frozenset()}
    assert _finish_conflict(constants_first) == {"->", "a", "b"}
    # ->* = {(1, 1)} and -> = {(0, 1)}: reflexivity and transitivity both
    # fail with ->* their latest slot; reflexivity comes first in verify's order.
    assert _finish_conflict({"->": {(0, 1)}, "->*": {(1, 1)}, **_INTRO_CONSTANTS}) == {"->*"}


def test_a_rejection_by_an_obligation_conflicts_with_the_slots_it_reads():
    # Both relations full: every clause holds and NOT (a -> b) fails.
    assert _finish_conflict({"->": _FULL, "->*": _FULL, **_INTRO_CONSTANTS}) == {"->", "a", "b"}


def test_a_certain_closure_violation_conflicts_with_its_function_alone():
    out_of_carrier = {"->": _FULL, "->*": _FULL, **_INTRO_CONSTANTS, "c": {(): 5}}
    assert _finish_conflict(out_of_carrier) == {"c"}


def _capped_run(slots, checks, max_nodes):
    """(reason, nodes, complete candidates handed to a rejecting ``finish``) under a node cap."""
    complete = []
    state = _State(SearchBudget(max_nodes=max_nodes), math.inf)
    try:
        rejecting = lambda chosen: complete.append(dict(chosen)) or set(chosen)  # noqa: E731
        found = _search(slots, checks, state, (), rejecting)
    except finder._Stop as stop:
        return stop.reason, state.nodes, complete
    assert found is None
    return None, state.nodes, complete


def test_own_slot_refuted_runs_are_counted_in_bulk_as_one_by_one():
    # Slot b's own check refutes runs at the start, middle and end of its
    # menu.  The walk counts each refuted candidate as one node, its verdict
    # computed once per stage and read from the memo after that, so the
    # runs count as if tried one by one, and a cap falling inside any run
    # must stop at exactly max_nodes + 1.
    slots = [_int_slot(name, size) for name, size in (("a", 3), ("b", 10), ("c", 3))]
    checks = [
        ({"b"}, lambda env, points: env["b"] in {0, 1, 4, 5, 8, 9}),
        ({"a", "c"}, lambda env, points: (env["a"] + env["c"]) % 3 == 0),
    ]
    reason, total, every = _capped_run(slots, checks, 10_000)
    assert reason is None and every
    # the same nodes and candidates as the chronological search, which tries each
    assert (every, total) == _complete_candidates(reference_finder._search, slots, checks)
    for cap in range(1, total + 2):
        reason, nodes, complete = _capped_run(slots, checks, cap)
        assert (reason == _CAP) == (total > cap)
        assert nodes == min(total, cap + 1)
        assert complete == every[: len(complete)]


def test_verdict_memo_is_dropped_when_an_earlier_slot_it_reads_changes():
    # Slots a, b, c.  One check reads a and c: its latest earlier slot is
    # two back, so its verdicts hold while b varies and must be recomputed
    # once a changes.  The other reads c only and is computed once.
    slots = [_int_slot(name, size) for name, size in (("a", 3), ("b", 2), ("c", 3))]
    calls = []

    def a_plus_c(env, points):
        calls.append(("a+c", env["a"], env["c"]))
        return (env["a"] + env["c"]) % 3 == 0

    def c_only(env, points):
        calls.append(("c", env["c"]))
        return False

    checks = [({"a", "c"}, a_plus_c), ({"c"}, c_only)]

    def run(search):
        calls.clear()
        complete = []
        state = _State(SearchBudget(), math.inf)
        search(slots, checks, state, (), lambda chosen: complete.append(dict(chosen)) or set(chosen))
        return complete, state.nodes, list(calls)

    complete, nodes, memo_calls = run(_search)
    assert (complete, nodes) == run(reference_finder._search)[:2]
    assert len(complete) == 3 * 2 * 2
    # each (a, c) verdict once, and the c-only check once per candidate of c
    assert sorted(memo_calls) == sorted(
        [("a+c", a, c) for a in range(3) for c in range(3)] + [("c", c) for c in range(3)]
    )
