"""The exact text of every parse error, span included.

One malformed input per ``ParseError`` raise site of the tokenizer and the
three format parsers.  The texts are part of the command-line interface
(``check`` prints them after ``error:``), so a refactoring of the readers
must leave each of them unchanged.
"""
from __future__ import annotations

import pytest

from countermodel.errors import ParseError
from countermodel.model_format import parse_model
from countermodel.query_format import parse_query
from countermodel.trs_format import parse_ctrs
from paperdata import system

FAB = system("fab.trs").ctrs.signature
WEB = system("website.trs").ctrs.signature

SORTED = "(SORTS A B) (SIG c : -> A  d : -> B  h : A -> B)"
DOMAIN = "(DOMAIN {0, 1}) (FUN a = 0) (FUN b = 1) "
PREDS = "(PRED -> (x, y) = x <= y) (PRED ->* (x, y) = x <= y)"
WEB_FUNS = "".join(f"(FUN {name} = 0)" for name in WEB.functions)

PARSERS = {
    "trs": parse_ctrs,
    "query": lambda text: parse_query(text, FAB),
    "web-query": lambda text: parse_query(text, WEB),
    "model": lambda text: parse_model(text, FAB),
    "finite": lambda text: parse_model(text, FAB, "finite"),
    "symbolic": lambda text: parse_model(text, FAB, "symbolic"),
    "web-model": lambda text: parse_model(text, WEB),
}

# (id, parser, input, str(exc))
CASES = [
    # lexer
    ("nesting", "trs", "(" * 257, "<input>:1:257-1:258: parentheses nested deeper than 256 levels"),
    ("unexpected-character", "trs", "(RULES a -> b)\n  a # b", "<input>:2:5-2:6: unexpected character '#'"),
    ("end-of-input", "trs", "(RULES a -> b", "<input>:1:13-1:14: unexpected end of input"),
    ("expected-kind", "trs", "(SIG c -> A)", "<input>:1:8-1:10: expected ':', got '->'"),
    ("expected-identifier", "trs", "(1 2)", "<input>:1:2-1:3: expected identifier, got '1'"),
    ("expected-identifier-at-end", "trs", "(SORTS A", "<input>:1:8-1:9: expected identifier, got 'end of input'"),
    ("expected-identifier-no-tokens", "query", "", "expected identifier, got 'end of input'"),
    # trs_format
    ("trs-duplicate-declaration", "trs", "(SORTS A) (SIG c : -> A  c : -> A)", "<input>:1:26-1:27: duplicate declaration of 'c'"),
    ("trs-unknown-condition-type", "trs", "(CONDITIONTYPE SEMI)", "<input>:1:16-1:20: unknown condition type 'SEMI'"),
    ("trs-unknown-block", "trs", "(STRATEGY INNERMOST)", "<input>:1:11-1:20: unknown block 'STRATEGY'"),
    ("trs-sorts-needs-sig", "trs", "(SORTS A)", "a SORTS block requires a SIG block"),
    ("trs-sig-needs-sorts", "trs", "(SIG c : -> A)", "a SIG block requires a SORTS block"),
    ("trs-variable-needs-sort", "trs", SORTED + " (VAR x)", "variable 'x' needs a sort annotation in sorted input"),
    ("trs-sort-error", "trs", SORTED + " (RULES h(d) -> d)", "<input>:1:57-1:58: argument of 'h' has sort 'B', needs <= 'A'"),
    ("trs-rule-error", "trs", "(VAR x) (RULES x -> a)", "<input>:1:16-1:17: left-hand side of a rule must not be a variable"),
    ("trs-variable-arguments", "trs", "(VAR x) (RULES f(x(a)) -> a)", "<input>:1:18-1:19: variable 'x' cannot take arguments"),
    ("trs-undeclared-symbol", "trs", SORTED + " (RULES h(e) -> d)", "<input>:1:59-1:60: undeclared symbol 'e'"),
    ("trs-declared-arity", "trs", SORTED + " (RULES h(c, c) -> d)", "<input>:1:57-1:58: 'h' is declared with 1 argument(s), used with 2"),
    ("trs-inferred-arity", "trs", "(RULES f(a) -> f(a, b))", "<input>:1:16-1:17: 'f' was first used with 1 argument(s), now 2"),
    # query_format
    ("query-rejected-token", "query", "a -> b /\\ ~ b -> a", "<input>:1:11-1:12: unsupported fragment: negation is not allowed (queries are existential closures of positive atom combinations)"),
    ("query-rejected-word", "query", "FORALL x . f(x) -> a", "<input>:1:1-1:7: unsupported fragment: universal quantification is not allowed (queries are existential closures of positive atom combinations)"),
    ("query-trailing-input", "query", "a -> b extra", "<input>:1:8-1:13: trailing input after query"),
    ("query-feasible-empty", "query", "FEASIBLE()", "<input>:1:1-1:9: FEASIBLE needs at least one condition"),
    ("query-template-error", "query", "REACHABLE(a)", "<input>:1:1-1:10: REACHABLE takes 2 term(s)"),
    ("query-template-variable", "query", "JOINABLE(a, zz)", "<input>:1:13-1:15: JOINABLE takes ground terms, but 'zz' is a variable, not a function symbol of the system"),
    ("query-template-two-sorts", "web-query", "FEASIBLE(login(v:User) == login(v:RegUser))", "<input>:1:33-1:42: variable 'v' used with two sorts"),
    ("query-exists-two-sorts", "web-query", "EXISTS v:User . login(v:User) -> login(v:RegUser)", "<input>:1:40-1:49: variable 'v' used with two sorts"),
    ("query-undeclared-sort-prefix", "query", "EXISTS x:Foo . x -> a", "<input>:1:8-1:13: variable 'x' has undeclared sort 'Foo'"),
    ("query-undeclared-sort-inline", "query", "x:Foo -> a", "<input>:1:1-1:6: variable 'x' has undeclared sort 'Foo'"),
    ("query-bound-twice", "web-query", "EXISTS v:User v:RegUser . login(v) -> v", "<input>:1:15-1:24: variable 'v' is bound twice"),
    ("query-bound-twice-unannotated", "query", "EXISTS x x . x -> a", "<input>:1:10-1:11: variable 'x' is bound twice"),
    ("query-needs-sort", "web-query", "EXISTS x . login(x) -> x", "<input>:1:10-1:11: variable 'x' needs a sort annotation"),
    ("query-unbound", "query", "EXISTS x . y:term -> a", "variable 'y' is not existentially bound"),
    ("query-empty-disjunct", "query", "a -> b \\/ ", "<input>:1:8-1:10: expected identifier, got 'end of input'"),
    ("query-nested-quantifier", "query", "EXISTS x . EXISTS y . x -> y", "<input>:1:12-1:18: unsupported fragment: nested quantifiers are not allowed"),
    ("query-atom-operator", "query", "a == b", "<input>:1:3-1:5: expected one of '->', '->*', '->^', '|>' in atom"),
    ("query-unknown-symbol", "query", "a -> c", "<input>:1:6-1:7: unknown symbol 'c'"),
    ("query-unknown-function", "query", "REACHABLE(a, g(b))", "<input>:1:14-1:15: unknown function symbol 'g'"),
    ("query-check-term", "query", "f(a, b) -> a", "<input>:1:1-1:2: 'f' expects 1 argument(s), got 2"),
    # model_format
    ("model-missing-function", "model", "(DOMAIN {0, 1}) (FUN a = 0) (FUN b = 1) " + PREDS, "missing interpretation of function 'f'"),
    ("model-missing-predicate", "model", DOMAIN + "(FUN f(x) = x) (PRED -> (x, y) = x <= y)", "missing interpretation of predicate '->*'"),
    ("model-missing-domain", "model", "(FUN a = 0) (FUN b = 1) (FUN f(x) = x) " + PREDS, "missing DOMAIN for sort 'term'"),
    ("model-unknown-sort", "model", "(DOMAIN Foo {0})", "<input>:1:16-1:17: unknown sort 'Foo'"),
    ("model-duplicate-domain", "model", "(DOMAIN {0}) (DOMAIN {1})", "<input>:1:25-1:26: duplicate DOMAIN for sort 'term'"),
    ("model-duplicate-fun", "model", DOMAIN + "(FUN a = 1)", "<input>:1:51-1:52: duplicate interpretation of 'a'"),
    ("model-duplicate-pred", "model", PREDS + " (PRED -> (x, y) = x <= y)", "<input>:1:78-1:79: duplicate interpretation of '->'"),
    ("model-unknown-block", "model", "(SORT {0})", "<input>:1:7-1:8: unknown block 'SORT'"),
    ("model-empty-set", "model", "(DOMAIN {})", "<input>:1:11-1:12: empty DOMAIN set"),
    ("model-empty-interval", "model", "(DOMAIN [2, 1])", "<input>:1:15-1:16: empty interval [2, 1]"),
    ("model-domain-shape", "model", "(DOMAIN < 3)", "<input>:1:9-1:10: expected '{', '[', or '>=' in DOMAIN"),
    ("model-unknown-function", "model", "(FUN g = 0)", "<input>:1:6-1:7: unknown function symbol 'g'"),
    ("model-fun-arity", "model", "(FUN f(x, y) = x)", "<input>:1:6-1:7: 'f' has arity 1, got 2 parameter(s)"),
    ("model-table-key-arity", "model", "(FUN f = table (0, 1) -> 0)", "<input>:1:27-1:28: table key arity mismatch for 'f'"),
    ("model-table-repeated-key", "model", "(FUN f = table (0) -> 0 | (0) -> 1)", "<input>:1:35-1:36: table of 'f' repeats the key (0,)"),
    ("model-predicate-name", "model", "(PRED 3 = empty)", "<input>:1:7-1:8: expected a predicate name"),
    ("model-unknown-predicate", "model", "(PRED S_term = empty)", "<input>:1:7-1:13: unknown predicate 'S_term' (a PRED block interprets ->, ->*, ->^ or |>)"),
    ("model-predicate-arity", "model", "(PRED -> (x) = x <= 1)", "<input>:1:14-1:15: predicate '->' takes 2 parameters, got 1"),
    ("model-pairs-shape", "model", "(PRED -> = pairs (0, 1, 2))", "<input>:1:27-1:28: predicate '->' holds pairs, got (0, 1, 2)"),
    ("model-repeated-parameter", "model", "(FUN f(x, x) = x)", "<input>:1:14-1:15: 'f' repeats a parameter name in ('x', 'x')"),
    ("model-leading-plus", "model", "(FUN f(x) = + x)", "<input>:1:13-1:14: expression cannot start with '+'"),
    ("model-unknown-coefficient-parameter", "model", "(FUN f(x) = 2*y)", "<input>:1:16-1:17: unknown parameter 'y' (non-affine expressions are rejected)"),
    ("model-unknown-parameter", "model", "(FUN f(x) = x + y)", "<input>:1:18-1:19: unknown parameter 'y' (non-affine expressions are rejected)"),
    ("model-variable-product", "model", "(FUN f(x) = x * x)", "<input>:1:15-1:16: non-affine expression: variable products are not supported"),
    ("model-not-affine", "model", "(FUN f(x) = x + (1))", "<input>:1:17-1:18: expected an affine expression"),
    ("model-comparison", "model", "(FUN f(x) = cases x 0 -> 0)", "<input>:1:21-1:22: expected a comparison operator"),
    ("model-otherwise", "model", DOMAIN + "(FUN f(x) = cases x >= 0 /\\ x <= 0 -> 0 | otherwise -> 1) " + PREDS, "<input>:1:83-1:92: 'otherwise' in 'f' needs every previous guard to be a single inequality"),
    ("model-clamp", "model", DOMAIN + "(FUN f(x) = clamp(x, 1, 0)) " + PREDS, "<input>:1:66-1:67: clamp interval [1, 0] is empty"),
    ("model-noncontiguous", "symbolic", "(DOMAIN {0, 2}) (FUN a = 0) (FUN b = 2) (FUN f(x) = x) " + PREDS, "an explicit carrier must be a contiguous integer range for the symbolic backend"),
    ("model-symbolic-table", "symbolic", DOMAIN + "(FUN f = table (0) -> 0 | (1) -> 1) " + PREDS, "'f': explicit tables are not supported by the symbolic backend"),
    ("model-symbolic-pairs", "symbolic", DOMAIN + "(FUN f(x) = x) (PRED -> = pairs (0, 0)) (PRED ->* (x, y) = x <= y)", "'->': explicit pair sets are not supported by the symbolic backend"),
    ("model-finite-ray", "finite", "(DOMAIN >= 0) (FUN a = 0) (FUN b = 1) (FUN f(x) = x) " + PREDS, "sort 'term' has an infinite carrier; use the symbolic backend"),
    ("model-finite-size", "model", "(DOMAIN [0, 1000]) (FUN a = 0) (FUN b = 1) (FUN f(x) = x) " + PREDS, "sort 'term' has 1001 carrier values, more than the finite backend's 1000; use --backend symbolic"),
    ("model-finite-universe", "web-model", "(DOMAIN EventualUser [0, 600]) (DOMAIN RegUser [601, 1200]) (DOMAIN User [0, 0]) (DOMAIN WebPage [0, 0]) (DOMAIN SecureWebPage [0, 0]) " + WEB_FUNS + PREDS, "the carriers of sorts EventualUser, RegUser, User, WebPage, SecureWebPage hold 1201 values together, more than the finite backend's 1000; use --backend symbolic"),
    ("model-table-key-outside", "model", DOMAIN + "(FUN f = table (0) -> 0 | (2) -> 1) " + PREDS, "table key (2,) of 'f' is outside the declared carrier"),
    ("model-table-value-outside", "model", DOMAIN + "(FUN f = table (0) -> 0 | (1) -> 2) " + PREDS, "table value 2 of 'f' is outside the declared carrier"),
    ("model-guard-gap", "model", DOMAIN + "(FUN f(x) = cases x <= 0 -> 0) " + PREDS, "'f': no guard case applies at (1,)"),
]


@pytest.mark.parametrize(
    "parser, text, expected", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_parse_error_text(parser, text, expected):
    with pytest.raises(ParseError) as info:
        PARSERS[parser](text)
    assert str(info.value) == expected
