from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from countermodel.errors import CountermodelError, ParseError
from countermodel.model_format import MAX_FINITE_CARRIER, parse_model, serialize_model
from countermodel.structures import FiniteStructure, Interval, SymbolicStructure
from countermodel.trs_format import parse_ctrs_document
from paperdata import PAPER_CHECKS, model_text, paper_instance, system

SIG = system("fab.trs").ctrs.signature


def test_finite_model_parses_to_tables():
    structure = parse_model(model_text("fab_nonjoin.model"), SIG)
    assert isinstance(structure, FiniteStructure)
    assert structure.carrier("term") == (0, 1)
    assert structure.functions["f"] == {(0,): 0, (1,): 1}
    assert structure.predicates["->"] == frozenset({(0, 0), (1, 1)})


def test_ray_model_parses_to_symbolic():
    loop_sig = system("loop_cb.trs").ctrs.signature
    structure = parse_model(model_text("loop_noncycl.model"), loop_sig)
    assert isinstance(structure, SymbolicStructure)
    assert structure.carrier("term") == Interval(-1)


def test_interval_model_parses_to_either_backend():
    root_sig = system("root_f.trs").ctrs.signature
    required = ("->", "->*", "->^")
    finite = parse_model(model_text("root_irred.model"), root_sig, "finite", required)
    symbolic = parse_model(model_text("root_irred.model"), root_sig, "symbolic", required)
    assert isinstance(finite, FiniteStructure)
    assert isinstance(symbolic, SymbolicStructure)
    assert symbolic.carrier("term") == Interval(-1, 1)


def test_missing_function_interpretation_rejected():
    text = """
    (DOMAIN {0, 1})
    (FUN a = 0) (FUN b = 1)
    (PRED -> (x, y) = x = y)
    (PRED ->* (x, y) = x = y)
    """
    with pytest.raises(ParseError) as info:
        parse_model(text, SIG)
    assert "missing interpretation" in str(info.value)


def test_missing_required_predicate_rejected():
    text = """
    (DOMAIN {0, 1})
    (FUN a = 0) (FUN b = 1) (FUN f(x) = x)
    (PRED -> (x, y) = x = y)
    """
    with pytest.raises(ParseError) as info:
        parse_model(text, SIG)
    assert "missing interpretation" in str(info.value)


def test_table_value_outside_carrier_rejected():
    text = """
    (DOMAIN {0, 1})
    (FUN a = table () -> 0) (FUN b = table () -> 1)
    (FUN f = table (0) -> 0 | (1) -> 2)
    (PRED -> (x, y) = x = y)
    (PRED ->* (x, y) = x = y)
    """
    with pytest.raises(ParseError) as info:
        parse_model(text, SIG)
    assert "outside the declared carrier" in str(info.value)


def test_non_affine_expression_rejected():
    text = """
    (DOMAIN {0, 1})
    (FUN a = 0) (FUN b = 1) (FUN f(x) = x * x)
    (PRED -> (x, y) = x = y)
    (PRED ->* (x, y) = x = y)
    """
    with pytest.raises(ParseError):
        parse_model(text, SIG)


def test_duplicate_interpretation_rejected():
    text = """
    (DOMAIN {0, 1})
    (FUN a = 0) (FUN a = 1) (FUN b = 1) (FUN f(x) = x)
    (PRED -> (x, y) = x = y)
    (PRED ->* (x, y) = x = y)
    """
    with pytest.raises(ParseError):
        parse_model(text, SIG)


def test_otherwise_requires_single_inequality_guards():
    text = """
    (DOMAIN >= 0)
    (FUN a = 0) (FUN b = 1)
    (FUN f(x) = cases x >= 1 /\\ x <= 2 -> 1 | otherwise -> 0)
    (PRED -> (x, y) = x = y)
    (PRED ->* (x, y) = x = y)
    """
    with pytest.raises(ParseError) as info:
        parse_model(text, SIG)
    assert "otherwise" in str(info.value)


_WELL_SHAPED = (
    "(DOMAIN [0, 1]) (FUN a = 0) (FUN b = 1) (FUN f(x, y) = x) (FUN g(x) = x) "
    "(PRED -> (x, y) = x = y) (PRED ->* (x, y) = x = y)"
)
_BOTH = ("finite", "symbolic")


@pytest.mark.parametrize(
    "block, replacement, symbol, backends",
    [
        ("(PRED -> (x, y) = x = y)", "(PRED -> (x) = x < 1)", "->", _BOTH),
        ("(PRED -> (x, y) = x = y)", "(PRED -> (x, y, z) = x < y)", "->", _BOTH),
        ("(PRED -> (x, y) = x = y)", "(PRED -> (x, x) = x < x)", "->", _BOTH),
        ("(FUN f(x, y) = x)", "(FUN f(x, x) = x)", "f", _BOTH),
        ("(PRED -> (x, y) = x = y)", "(PRED -> = pairs (0, 1, 1))", "->", ("finite",)),
        ("(PRED ->* (x, y) = x = y)", "(PRED ->* = pairs (0, 0) (1))", "->*", ("finite",)),
        ("(PRED -> (x, y) = x = y)", "(PRED -> (x) = empty)", "->", ("finite",)),
        ("(FUN g(x) = x)", "(FUN g = table (0) -> 0 | (0) -> 1 | (1) -> 1)", "g", ("finite",)),
    ],
    ids=[
        "unary-pred",
        "ternary-pred",
        "repeated-pred-param",
        "repeated-fun-param",
        "triple-in-pairs",
        "single-in-pairs",
        "unary-empty-pred",
        "repeated-table-key",
    ],
)
def test_wrongly_shaped_interpretations_rejected(block, replacement, symbol, backends):
    # A unary '->' used to parse: the finite backend tabulated 1-tuples and
    # the symbolic one zip-truncated pairs, so the two read one file differently.
    sig = system("pair_gf.trs").ctrs.signature
    assert block in _WELL_SHAPED
    parse_model(_WELL_SHAPED, sig, backends[0])
    for backend in backends:
        with pytest.raises(ParseError) as info:
            parse_model(_WELL_SHAPED.replace(block, replacement), sig, backend)
        assert f"'{symbol}'" in str(info.value)


def test_non_contiguous_carrier_rejected_for_symbolic():
    text = """
    (DOMAIN {0, 2})
    (FUN a = 0) (FUN b = 2) (FUN f(x) = x)
    (PRED -> (x, y) = x = y)
    (PRED ->* (x, y) = x = y)
    """
    parse_model(text, SIG, "finite")
    with pytest.raises(ParseError):
        parse_model(text, SIG, "symbolic")


def test_ray_carrier_rejected_for_finite():
    loop_sig = system("loop_cb.trs").ctrs.signature
    with pytest.raises(ParseError):
        parse_model(model_text("loop_noncycl.model"), loop_sig, "finite")


def test_finite_carrier_past_the_cap_rejected_before_tabulation():
    root_sig = system("root_f.trs").ctrs.signature
    required = ("->", "->*", "->^")
    for hi in (MAX_FINITE_CARRIER, 10**9):
        text = model_text("root_irred.model").replace("[-1, 1]", f"[0, {hi}]")
        with pytest.raises(ParseError) as info:
            parse_model(text, root_sig, "finite", required)
        assert "sort 'term'" in str(info.value) and "--backend symbolic" in str(info.value)
        assert parse_model(text, root_sig, "symbolic", required).carrier("term") == Interval(0, hi)


def test_finite_carriers_past_the_cap_together_rejected():
    web = system("website.trs").ctrs.signature
    text = (
        model_text("website.model")
        .replace("(DOMAIN User >= -1)", "(DOMAIN User [-1, 600])")
        .replace("(DOMAIN WebPage [-1, -1])", "(DOMAIN WebPage [601, 1000])")
    )
    with pytest.raises(ParseError) as info:
        parse_model(text, web, "finite")
    assert f"1002 values together, more than the finite backend's {MAX_FINITE_CARRIER}" in str(
        info.value
    )


@pytest.mark.parametrize("check", PAPER_CHECKS, ids=lambda c: c.name)
def test_round_trip_on_whole_corpus(check):
    _doc, _theory, _obligations, structure = paper_instance(check.name)
    text = serialize_model(structure)
    again = parse_model(
        text,
        structure.signature,
        backend="finite" if isinstance(structure, FiniteStructure) else "symbolic",
        required_predicates=tuple(structure.predicates),
    )
    assert again == structure


def test_an_empty_relation_round_trips():
    structure = FiniteStructure(
        SIG,
        {"term": (0, 1)},
        {"a": {(): 0}, "b": {(): 1}, "f": {(0,): 0, (1,): 1}},
        {"->": frozenset(), "->*": frozenset({(0, 0), (1, 1)})},
    )
    text = serialize_model(structure)
    assert "(PRED -> = empty)" in text.splitlines()
    assert parse_model(text, SIG, "finite") == structure


def test_serialization_is_deterministic():
    _doc, _theory, _obligations, structure = paper_instance("division-ccp")
    assert serialize_model(structure) == serialize_model(structure)


def test_sorted_domains_require_sort_names():
    web = system("website.trs").ctrs.signature
    structure = parse_model(model_text("website.model"), web)
    assert structure.carrier("RegUser") == Interval(1, 1)
    assert structure.carrier("User") == Interval(-1)


def test_non_decimal_digit_is_a_spanned_parse_error():
    # '²' passes str.isdigit() but int() rejects it: it must not reach int().
    with pytest.raises(ParseError) as info:
        parse_model("(DOMAIN [0, ²])", SIG)
    assert str(info.value) == "<input>:1:13-1:14: unexpected character '²'"


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=60))
@example("(DOMAIN [0, ²])")
@example("(FUN a = ½)")
def test_model_parsing_is_total(text):
    try:
        parse_model(text, SIG)
    except CountermodelError:
        pass


_CLAMP_SIG = parse_ctrs_document("(VAR x) (RULES g(x) -> h(x))").ctrs.signature
_CLAMPED = (
    "(FUN g(x) = clamp(x - 1, 0, 1)) "
    "(FUN h(x) = cases x <= 0 -> 0 | otherwise -> clamp(2*x, 0, 3)) "
    "(PRED -> (x, y) = x = y) (PRED ->* (x, y) = x = y)"
)


@pytest.mark.parametrize(
    "domain, backend, points",
    [
        ("(DOMAIN [-2, 4])", "finite", range(-2, 5)),
        ("(DOMAIN [-2, 4])", "symbolic", range(-2, 5)),
        ("(DOMAIN >= -2)", "symbolic", range(-2, 12)),
    ],
)
def test_clamp_and_otherwise_read_from_a_model_file(domain, backend, points):
    structure = parse_model(f"{domain} {_CLAMPED}", _CLAMP_SIG, backend)
    for x in points:
        if isinstance(structure, FiniteStructure):
            g, h = structure.functions["g"][(x,)], structure.functions["h"][(x,)]
        else:
            g, h = structure.functions["g"].eval((x,)), structure.functions["h"].eval((x,))
        assert g == min(max(x - 1, 0), 1)
        assert h == (0 if x <= 0 else min(max(2 * x, 0), 3))
    text = serialize_model(structure)
    assert parse_model(text, _CLAMP_SIG, backend) == structure
    assert serialize_model(parse_model(text, _CLAMP_SIG, backend)) == text
