from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import time

import pytest

from countermodel import cli, query_format, trs_format
from countermodel.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_REFUTED, EXIT_UNKNOWN, main
from countermodel.lexer import MAX_NESTING
from countermodel.oracle import saturate
from countermodel.structures import SymbolicStructure
from paperdata import CORPUS


def corpus(name: str) -> str:
    return str(CORPUS / name)


def test_compile_prints_tagged_clauses(capsys):
    code = main(["compile", corpus("fig3.trs")])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert len(out) == 7
    tags = [line.rsplit("[", 1)[1].rstrip("]") for line in out]
    assert tags == ["Rf", "T", "C(f,1)", "C(g,1)", "Rp(1)", "Rp(2)", "Rp(3)"]


def test_disprove_reachability_exit_zero(capsys):
    code = main(["disprove", corpus("intro.trs"), "--query", "REACHABLE(a, b)"])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["overall"] == "verified"
    assert "oracle cross-check passed" in captured.err


def test_check_sorted_website_model(capsys):
    code = main(
        [
            "check",
            corpus("website.trs"),
            "--model",
            corpus("models/website.model"),
            "--query-file",
            corpus("queries/website.q"),
            "--sorted",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["overall"] == "verified"


def test_check_division_model(capsys):
    code = main(
        [
            "check",
            corpus("division.trs"),
            "--model",
            corpus("models/division.model"),
            "--query-file",
            corpus("queries/division_ccp.q"),
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["overall"] == "verified"


def test_check_refuted_model_exit_one(capsys):
    code = main(
        [
            "check",
            corpus("pair_gf.trs"),
            "--model",
            corpus("models/pair_gf_printed.model"),
            "--query",
            "FEASIBLE(g(x) == f(a, b))",
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    payload = json.loads(captured.out)
    assert payload["overall"] == "refuted"
    assert payload["first_failure"].startswith("closure")


def test_check_cross_backend_agreement(capsys):
    code = main(
        [
            "check",
            corpus("root_f.trs"),
            "--model",
            corpus("models/root_irred.model"),
            "--query",
            "EXISTS x y . f(x) ->^ y",
            "--backend",
            "both",
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["overall"] == "verified"


def test_check_cross_backend_disagreement_exits_unknown(monkeypatch, capsys):
    verify = cli.verify

    def symbolic_refuted(theory, obligations, structure):
        cert = verify(theory, obligations, structure)
        return dataclasses.replace(cert, overall="refuted") if isinstance(structure, SymbolicStructure) else cert

    monkeypatch.setattr(cli, "verify", symbolic_refuted)
    code = main(
        [
            "check",
            corpus("root_f.trs"),
            "--model",
            corpus("models/root_irred.model"),
            "--query",
            "EXISTS x y . f(x) ->^ y",
            "--backend",
            "both",
        ]
    )
    captured = capsys.readouterr()
    assert code == EXIT_UNKNOWN
    assert captured.out == ""
    assert captured.err == "error: finite and symbolic backends disagree (verified vs refuted)\n"


@pytest.mark.parametrize(
    "system, query, flags, err",
    [
        # Obligations with variables: the cross-check runs only when forced.
        ("fig3.trs", "FEASIBLE(f(x) == x)", [], ""),
        ("fig3.trs", "FEASIBLE(f(x) == x)", ["--oracle-check"], "oracle cross-check passed\n"),
        # Ground obligations: it runs unless switched off.
        ("intro.trs", "a -> b", ["--no-oracle-check"], ""),
    ],
)
def test_oracle_cross_check_flags(system, query, flags, err, capsys):
    code = main(["disprove", corpus(system), "--query", query, *flags])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["overall"] == "verified"
    assert captured.err == err


def test_a_failed_oracle_cross_check_exits_refuted_after_the_certificate(monkeypatch, capsys):
    argv = ["disprove", corpus("intro.trs"), "--query", "a -> b"]
    assert main([*argv, "--no-oracle-check"]) == 0
    certificate = capsys.readouterr().out
    monkeypatch.setattr(cli, "oracle_cross_check", lambda ctrs, certificate: ("planted",))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_REFUTED
    assert captured.err == "oracle cross-check FAILED: planted\n"
    assert captured.out == certificate


def test_disprove_budget_exhausted_exit_two(capsys):
    # joinability of a and b genuinely holds (both rewrite to a), so no
    # countermodel exists and every budget must come back empty-handed.
    code = main(
        [
            "disprove",
            corpus("intro.trs"),
            "--query",
            "JOINABLE(b, a)",
            "--carriers",
            "0:1",
            "--ray-carriers",
            "0",
            "--timeout",
            "5",
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "no countermodel" in captured.err


def test_an_exhausted_search_space_is_not_reported_as_an_exhausted_budget(capsys):
    # Every stage of both backends runs to its end within the default
    # budget: the answer is unknown, and the reason says why.
    argv = ["disprove", corpus("intro.trs"), "--query", "JOINABLE(b, a)"]
    code = main([*argv, "--carriers", "0:1", "--ray-carriers", "0"])
    assert code == EXIT_UNKNOWN
    assert capsys.readouterr().err == (
        "no countermodel: finite: no model among the stages' candidates\n"
        "no countermodel: symbolic: no model among the stages' candidates\n"
    )


def test_input_error_exit_three(capsys):
    code = main(["compile", corpus("does_not_exist.trs")])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_parse_error_exit_three(tmp_path, capsys):
    bad = tmp_path / "bad.trs"
    bad.write_text("(RULES a -> )")
    code = main(["compile", str(bad)])
    assert code == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, where, message",
    [
        (
            "(SORTS A B) (SIG f : A -> B  a : -> B) (RULES f(a) -> a)",
            "1:47-1:48",
            "argument of 'f' has sort 'B', needs <= 'A'",
        ),
        ("(VAR x:Foo) (RULES f(x) -> x)", "1:20-1:21", "variable 'x' has undeclared sort 'Foo'"),
        (
            "(SORTS A B) (SIG f : A -> B  a : -> B)\n(RULES a -> a\n  f(a) -> a)",
            "3:3-3:4",
            "argument of 'f' has sort 'B', needs <= 'A'",
        ),
    ],
    ids=["argument-sort", "undeclared-variable-sort", "second-rule"],
)
def test_a_sort_error_in_a_rule_names_the_rule_position(text, where, message, tmp_path, capsys):
    system = tmp_path / "sorts.trs"
    system.write_text(text)
    assert main(["compile", str(system)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {system}:{where}: {message}\n"


def test_a_pair_outside_the_carriers_is_a_parse_error(tmp_path, capsys):
    # Every valuation ranges over the carriers, so (0, 7) was never read,
    # and the model verified with that pair printed in its certificate.
    model = tmp_path / "outside.model"
    model.write_text(
        "(DOMAIN {0, 1}) (FUN a = 0) (FUN b = 1) (FUN c = 0)\n"
        "(PRED -> = pairs (1, 0) (0, 7)) (PRED ->* = pairs (0, 0) (1, 1) (1, 0))\n"
    )
    code = main(["check", corpus("intro.trs"), "--model", str(model), "--query", "a -> b"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "pair (0, 7) of '->' is outside the declared carriers" in captured.err


@pytest.mark.parametrize(
    "extra", ["(PRED foo = pairs (1, 2))", "(PRED S_term = empty)"], ids=["other-name", "sort-test-name"]
)
def test_a_pred_block_for_no_rewriting_predicate_exits_input_error(extra, tmp_path, capsys):
    # No check reads either block (a sort test reads its carrier), yet both
    # were printed into the certificate's structure.
    model = tmp_path / "extra.model"
    model.write_text((CORPUS / "models" / "intro_restricted.model").read_text() + extra + "\n")
    code = main(["check", corpus("intro.trs"), "--model", str(model), "--query", "a -> b"])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    name = extra.split()[1]
    assert f"8:7-8:{7 + len(name)}: unknown predicate '{name}'" in captured.err


# A function named like the sort test of its own sort: S_term(x) -> a fails
# at x = 1, where the table sends 1 to 0 and 0 -> 0 does not hold.
CLASH_TABLE = (
    "(DOMAIN{sort} {{0, 1}}) (FUN {f} = table (0) -> 1 | (1) -> 0) (FUN {a} = 0)\n"
    "(PRED -> = pairs (1, 0) (1, 1)) (PRED ->* = pairs (0, 0) (1, 1) (1, 0))\n"
)
CLASH_INTERVAL = (
    "(DOMAIN [0, 1]) (FUN S_term(x) = 1 - x) (FUN a = 0)\n"
    "(PRED -> (x, y) = x - y >= 0 /\\ x >= 1) (PRED ->* (x, y) = x - y >= 0)\n"
)
CLASH_CASES = [
    pytest.param(
        "(VAR x) (RULES S_term(x) -> a)",
        CLASH_TABLE.format(sort="", f="S_term", a="a"),
        "a -> S_term(a)",
        ("finite",),
        id="untyped-table",
    ),
    pytest.param(
        "(VAR x) (RULES S_term(x) -> a)",
        CLASH_INTERVAL,
        "a -> S_term(a)",
        ("finite", "symbolic", "both"),
        id="untyped-interval",
    ),
    pytest.param(
        "(SORTS Nat) (SIG S_Nat : Nat -> Nat  z : -> Nat) (VAR x:Nat) (RULES S_Nat(x) -> z)",
        CLASH_TABLE.format(sort=" Nat", f="S_Nat", a="z"),
        "z -> S_Nat(z)",
        ("finite",),
        id="sorted-table",
    ),
]


@pytest.mark.parametrize("system, model, query, backends", CLASH_CASES)
def test_a_function_named_like_a_sort_test_is_not_read_as_one(system, model, query, backends, tmp_path, capsys):
    (tmp_path / "s.trs").write_text(system)
    (tmp_path / "m.model").write_text(model)
    argv = ["check", str(tmp_path / "s.trs"), "--model", str(tmp_path / "m.model"), "--query", query]
    for backend in backends:
        assert main([*argv, "--backend", backend]) == EXIT_REFUTED, backend
        payload = json.loads(capsys.readouterr().out)
        assert payload["overall"] == "refuted"
        congruence, rule = payload["clause_verdicts"][2:]
        assert payload["first_failure"].startswith("clause [C(S_")
        if backend == "finite":  # the witnesses of the reference tree walk
            assert congruence == {"status": "fails", "witness": {"x": 1, "y": 0}}
            assert rule == {"status": "fails", "witness": {"x": 1}}


def test_unsupported_fragment_exit_three(capsys):
    code = main(
        ["disprove", corpus("intro.trs"), "--query", "EXISTS x . a -> x /\\ ~(x -> a)"]
    )
    assert code == 3
    assert "unsupported fragment" in capsys.readouterr().err


@pytest.mark.parametrize(
    "system, model, query, expected",
    [
        ("fab.trs", "fab_nonjoin", "EXISTS x:Foo . x -> a", "1:8-1:13: variable 'x' has undeclared sort 'Foo'"),
        ("fab.trs", "fab_nonjoin", "x:Foo -> a", "1:1-1:6: variable 'x' has undeclared sort 'Foo'"),
        ("website.trs", "website", "EXISTS v . login(v:User) -> login(v:RegUser)", "1:35-1:44: variable 'v' used with two sorts"),
        ("website.trs", "website", "FEASIBLE(login(v:User) == login(v:RegUser))", "1:33-1:42: variable 'v' used with two sorts"),
        ("website.trs", "website", "EXISTS v:User v:RegUser . login(v) -> v", "1:15-1:24: variable 'v' is bound twice"),
        ("fab.trs", "fab_nonjoin", "EXISTS x x . x -> a", "1:10-1:11: variable 'x' is bound twice"),
    ],
    ids=[
        "undeclared-prefix",
        "undeclared-inline",
        "two-sorts-exists",
        "two-sorts-template",
        "bound-twice-annotated",
        "bound-twice-unannotated",
    ],
)
def test_query_sort_errors_exit_three_with_the_annotation_span(system, model, query, expected, capsys):
    code = main(["check", corpus(system), "--model", corpus(f"models/{model}.model"), "--query", query])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == f"error: <query>:{expected}\n"


@pytest.mark.parametrize(
    "query, expected",
    [
        ("REACHABLE(a, g(b))", "1:14-1:15: unknown function symbol 'g'"),
        ("REACHABLE(a, g)", "1:14-1:15: REACHABLE takes ground terms, but 'g' is a variable, not a function symbol of the system"),
        ("JOINABLE(a, zz)", "1:13-1:15: JOINABLE takes ground terms, but 'zz' is a variable, not a function symbol of the system"),
    ],
    ids=["unknown-function", "reachable-unknown-name", "joinable-unknown-name"],
)
def test_a_query_naming_a_symbol_the_system_lacks_exits_three_naming_it(query, expected, capsys):
    code = main(["disprove", corpus("intro.trs"), "--query", query])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == f"error: <query>:{expected}\n"


def test_derive_prints_sorted_atoms(capsys):
    code = main(["derive", corpus("intro.trs"), "--size", "1", "--depth", "5"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert "b -> a  [depth 1]" in lines
    assert lines == sorted(lines)
    assert not any("a -> b" in line for line in lines)


def test_derive_spells_each_atom_as_str_does(capsys):
    # derive formats each distinct term once; the lines are the atoms' own spelling.
    assert main(["derive", corpus("division.trs"), "--size", "4", "--depth", "5"]) == 0
    atoms = saturate(trs_format.parse_ctrs((CORPUS / "division.trs").read_text()), 4, 5).atoms
    expected = sorted(f"{atom}  [depth {depth}]" for atom, depth in atoms.items())
    assert capsys.readouterr().out.splitlines() == expected


# s(x) -> x derives s(...s(z)...) -> s(...(z)...) at any size: derived terms
# are not bounded by the reader's nesting cap.
_PEEL = "(VAR x) (RULES s(x) -> x) (RULES z -> z)"


def test_derive_prints_terms_deeper_than_the_recursion_limit(tmp_path, capsys):
    (tmp_path / "peel.trs").write_text(_PEEL)
    code = main(["derive", str(tmp_path / "peel.trs"), "--size", "335", "--depth", "1"])
    assert "internal error" not in capsys.readouterr().err
    assert code == 0
    assert main(["derive", str(tmp_path / "peel.trs"), "--size", "60", "--depth", "1"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 2010
    digest = "67cd292b615183f7b20f944d4cd3eaf57bb9d1880a44c564d25a97de6f600286"
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_disprove_writes_certificate_file(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = main(
        ["disprove", corpus("fab.trs"), "--query", "JOINABLE(a, b)", "-o", str(out)]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(out.read_text())["overall"] == "verified"
    assert captured.out == out.read_text()


def test_disprove_pipeline_certificate_recheck(tmp_path, capsys):
    # a successful disprove run's certificate re-verifies via check
    out = tmp_path / "cert.json"
    assert main(["disprove", corpus("fab.trs"), "--query", "JOINABLE(a, b)", "-o", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    model_file = tmp_path / "model.struct"
    model_file.write_text(payload["structure"])
    code = main(
        ["check", corpus("fab.trs"), "--model", str(model_file), "--query", "JOINABLE(a, b)"]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["overall"] == "verified"


def test_sorted_flag_rejects_unsorted_input(capsys):
    code = main(["compile", corpus("intro.trs"), "--sorted"])
    assert code == 3


_ONE_SORT_MODEL = """(DOMAIN {0, 1})
(FUN zero = 0)
(FUN s = table (0) -> 1 | (1) -> 0)
(PRED -> = pairs (0, 0) (1, 1))
(PRED ->* = pairs (0, 0) (1, 1))
"""


@pytest.mark.parametrize(
    "command, extra",
    [
        ("compile", []),
        ("check", ["--model", "one_sort.model", "--query", "s(zero) ->* zero"]),
        ("disprove", ["--query", "s(zero) ->* zero"]),
    ],
    ids=["compile", "check", "disprove"],
)
def test_sorted_flag_accepts_a_system_that_declares_one_sort(command, extra, tmp_path, capsys):
    system = tmp_path / "one_sort.trs"
    system.write_text("(SORTS Nat) (SIG zero : -> Nat  s : Nat -> Nat) (VAR x:Nat) (RULES s(s(x)) -> x)\n")
    (tmp_path / "one_sort.model").write_text(_ONE_SORT_MODEL)
    extra = [str(tmp_path / arg) if arg.endswith(".model") else arg for arg in extra]
    code = main([command, str(system), *extra, "--sorted"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    if command != "compile":
        assert json.loads(captured.out)["overall"] == "verified"


_BOM = "\ufeff"


@pytest.mark.parametrize(
    "command",
    [
        ["disprove", "{intro.trs}", "--query", "a -> b"],
        ["disprove", corpus("intro.trs"), "--query-file", "{a_to_b.q}"],
        ["check", corpus("intro.trs"), "--model", "{intro.model}", "--query", "a -> b"],
    ],
    ids=["system", "query-file", "model"],
)
def test_a_byte_order_mark_at_the_start_of_a_file_is_read_past(command, tmp_path, capsys):
    texts = {
        "intro.trs": (CORPUS / "intro.trs").read_text(encoding="utf-8"),
        "a_to_b.q": "a -> b\n",
        "intro.model": (CORPUS / "models/intro_restricted.model").read_text(encoding="utf-8"),
    }
    runs = []
    for prefix in ("", _BOM):
        folder = tmp_path / ("bom" if prefix else "plain")
        folder.mkdir()
        argv = []
        for arg in command:
            if arg.startswith("{"):
                path = folder / arg.strip("{}")
                path.write_text(prefix + texts[path.name], encoding="utf-8")
                arg = str(path)
            argv.append(arg)
        runs.append((main(argv), capsys.readouterr().out))
    assert runs[0][0] == 0
    assert runs[1] == runs[0]


def test_a_byte_order_mark_inside_a_file_is_an_input_error(tmp_path, capsys):
    system = tmp_path / "intro.trs"
    system.write_text("(VAR x)\n(RULES b -> " + _BOM + "a)\n", encoding="utf-8")
    assert main(["compile", str(system)]) == EXIT_INPUT
    assert "2:13-2:14: unexpected character '\\ufeff'" in capsys.readouterr().err


def test_deeply_nested_query_never_exits_refuted(capsys):
    deep = "f(" * 3000 + "a" + ")" * 3000
    code = main(["disprove", corpus("root_f.trs"), "--query", f"REACHABLE({deep}, a)"])
    err = capsys.readouterr().err
    assert code != EXIT_REFUTED
    assert code in (EXIT_INPUT, EXIT_INTERNAL)
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def _nested(depth: int, inner: str = "a") -> str:
    return "f(" * depth + inner + ")" * depth


def test_deeply_nested_query_exits_input_error(capsys):
    code = main(["disprove", corpus("root_f.trs"), "--query", f"REACHABLE({_nested(3000)}, a)"])
    assert code == EXIT_INPUT
    assert f"nested deeper than {MAX_NESTING}" in capsys.readouterr().err


def _nested_rule_system(tmp_path, depth: int) -> str:
    # "(RULES" opens one level, so the rule's left side adds depth - 1 more.
    path = tmp_path / "deep.trs"
    path.write_text(f"(VAR x) (RULES a -> a  {_nested(depth - 1, 'x')} -> x)")
    return str(path)


def _nested_query_runs(depth: int) -> dict[str, list[str]]:
    query = ["--query", f"{_nested(depth)} ->* a", "--output", os.devnull]
    model = ["--model", corpus("models/root_irred.model")]
    return {
        "check": ["check", corpus("root_f.trs"), *model, *query],
        "disprove": ["disprove", corpus("root_f.trs"), *query],
    }


def test_nesting_one_past_the_cap_is_an_input_error(tmp_path, capsys):
    assert main(["compile", _nested_rule_system(tmp_path, MAX_NESTING + 1)]) == EXIT_INPUT
    for command, argv in _nested_query_runs(MAX_NESTING + 1).items():
        assert main(argv) == EXIT_INPUT, command
    assert capsys.readouterr().err.count(f"nested deeper than {MAX_NESTING}") == 3


def test_nesting_at_the_cap_never_exits_internal(tmp_path, capsys):
    assert main(["compile", _nested_rule_system(tmp_path, MAX_NESTING)]) == 0
    for command, argv in _nested_query_runs(MAX_NESTING).items():
        assert main(argv) not in (EXIT_INPUT, EXIT_INTERNAL), command
    assert "internal error" not in capsys.readouterr().err


def test_a_system_with_more_symbols_than_the_recursion_limit_is_disproved(tmp_path, capsys):
    # The finder has one slot per symbol and walks them without recursion.
    chain = "  ".join(f"c{i} -> c{i + 1}" for i in range(1200))
    path = tmp_path / "chain.trs"
    path.write_text(f"(RULES a -> a  {chain})")
    code = main(["disprove", str(path), "--query", "c0 -> a", "--output", os.devnull])
    assert "internal error" not in capsys.readouterr().err
    assert code == 0


def test_symbolic_check_at_the_nesting_cap_is_decided(capsys):
    # Each application's form is substituted into its context, so every
    # system ranges over the query's variables (none here), however deep.
    query = f"{_nested(MAX_NESTING)} ->* a"
    model = corpus("models/fig3_feas.model")
    assert main(["check", corpus("fig3.trs"), "--model", model, "--query", query]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["overall"] == "verified"
    assert [v["status"] for v in payload["obligation_verdicts"]] == ["holds"]


def test_reflexive_query_on_separately_parsed_deep_terms_is_refuted(capsys):
    # The two sides are equal terms 256 levels deep, built apart, so checking
    # the obligation compares them structurally.
    deep = _nested(MAX_NESTING - 1)
    model = corpus("models/fig3_feas.model")
    argv = ["check", corpus("fig3.trs"), "--model", model, "--query", f"{deep} ->* {deep}"]
    assert main([*argv, "--output", os.devnull]) == EXIT_REFUTED
    assert "internal error" not in capsys.readouterr().err


def test_huge_finite_carrier_exits_input_error(tmp_path, capsys):
    model = tmp_path / "huge.model"
    model.write_text(
        (CORPUS / "models" / "intro_restricted.model")
        .read_text()
        .replace("(DOMAIN {1, 2})", "(DOMAIN [0, 1000000000])")
    )
    argv = ["check", corpus("intro.trs"), "--query", "a -> b", "--model", str(model)]
    started = time.monotonic()
    assert main(argv) == EXIT_INPUT
    assert time.monotonic() - started < 1.0
    assert "--backend symbolic" in capsys.readouterr().err
    assert main([*argv, "--backend", "symbolic", "--output", os.devnull]) not in (
        EXIT_INPUT,
        EXIT_INTERNAL,
    )


def test_wrongly_shaped_model_exits_input_error(tmp_path, capsys):
    model = tmp_path / "unary.model"
    model.write_text(
        (CORPUS / "models" / "fab_nonjoin.model")
        .read_text()
        .replace("(PRED -> (x, y) = x = y)", "(PRED -> (x) = x < 1)")
    )
    argv = ["check", corpus("fab.trs"), "--query", "a -> b", "--model", str(model)]
    for backend in ("finite", "symbolic"):
        assert main([*argv, "--backend", backend]) == EXIT_INPUT
        assert "predicate '->' takes 2 parameters" in capsys.readouterr().err


@pytest.mark.parametrize(
    "value, expected",
    [
        ("clamp(x, 0, -1)", "4:27-4:28: clamp interval [0, -1] is empty"),
        (
            "cases x >= 0 /\\ x <= 1 -> x | otherwise -> 0",
            "4:43-4:52: 'otherwise' in 'f' needs every previous guard to be a single inequality",
        ),
    ],
    ids=["empty-clamp", "bad-otherwise"],
)
def test_bad_piecewise_value_exits_input_error_with_its_span(value, expected, tmp_path, capsys):
    model = tmp_path / "bad.model"
    model.write_text(
        (CORPUS / "models" / "fab_infeas.model")
        .read_text()
        .replace("(FUN f(x) = x)", f"(FUN f(x) = {value})")
    )
    query = "FEASIBLE(x == a, x == b)"
    argv = ["check", corpus("fab.trs"), "--query", query, "--model", str(model)]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {model}:{expected}\n"


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--carriers", "3:1"], "carriers: interval 3:1 is empty"),
        (["--carriers", "0:1,2:-2"], "carriers: interval 2:-2 is empty"),
        (["--coeff-range", "2:-2"], "coeff_min 2 exceeds coeff_max -2"),
        (["--carriers", "0:1:2"], "--carriers: cannot read '0:1:2'"),
        (["--ray-carriers", "0,x"], "--ray-carriers: cannot read '0,x'"),
        (["--coeff-range", "1"], "--coeff-range: cannot read '1'"),
        (["--timeout", "nan"], "time_limit nan is not a number of seconds >= 0"),
        (["--timeout", "-1"], "time_limit -1.0 is not a number of seconds >= 0"),
        (["--carriers="], "--carriers: cannot read ''"),
        (["--ray-carriers="], "--ray-carriers: cannot read ''"),
        (["--coeff-range="], "--coeff-range: cannot read ''"),
        (["--raw-table-max", "-1"], "raw_table_max_size -1 is negative"),
        (["--carriers", "0:1,0:1000"], "carriers: 0:1000 exceeds 1000 values"),
    ],
)
def test_empty_or_malformed_budget_exits_input_error(flags, named, capsys):
    code = main(["disprove", corpus("intro.trs"), "--query", "REACHABLE(a, b)", *flags])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {named}\n"


@pytest.mark.parametrize(
    "command",
    [
        ["check", corpus("intro.trs"), "--model", corpus("models/intro_restricted.model")],
        ["disprove", corpus("intro.trs")],
    ],
    ids=["check", "disprove"],
)
def test_an_empty_query_is_the_parse_error_of_an_empty_query_file(command, tmp_path, capsys):
    empty = tmp_path / "empty.q"
    empty.write_text("")
    assert main([*command, "--query-file", str(empty)]) == EXIT_INPUT
    from_file = capsys.readouterr()
    assert main([*command, "--query", ""]) == EXIT_INPUT
    inline = capsys.readouterr()
    assert inline.out == from_file.out == ""
    assert inline.err == from_file.err == "error: expected identifier, got 'end of input'\n"


@pytest.mark.parametrize(
    "flag, value, dest",
    [
        ("--coeff-range", "-2:2", "coeff_range"),
        ("--carriers", "-1:1", "carriers"),
        ("--ray-carriers", "-1,0", "ray_carriers"),
    ],
)
def test_a_value_that_starts_with_a_minus_and_a_digit_is_the_flags_value(flag, value, dest, capsys):
    # --timeout -1 still reaches the budget's time_limit message: see the budget errors above.
    argv = ["disprove", corpus("intro.trs"), "--query", "a -> b", flag, value]
    assert getattr(cli._build_parser().parse_args(argv), dest) == value
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["overall"] == "verified"


@pytest.mark.parametrize(
    "query, message",
    [
        ("CYCLING()", "system-wide cycling/looping templates need a unique top sort"),
        ("LOOPING()", "system-wide cycling/looping templates need a unique top sort"),
        ("JOINABLE(a, b)", "joinability arguments have no common supersort"),
    ],
)
def test_a_template_without_its_sort_exits_input_error(query, message, tmp_path, capsys):
    two_tops = tmp_path / "two_tops.trs"
    two_tops.write_text("(SORTS A B) (SIG a : -> A  b : -> B) (RULES)")
    assert main(["disprove", str(two_tops), "--query", query]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_the_readme_flag_examples_parse_on_disprove():
    # Each backticked ``--flag value`` span of the README, one argv per ``a|b`` choice.
    text = (CORPUS.parent / "README.md").read_text(encoding="utf-8")
    examples = [
        list(choice)
        for span in re.findall(r"`(--[a-z-]+ [^`]+)`", text)
        for choice in itertools.product(*(token.split("|") for token in span.split()))
    ]
    assert ["--coeff-range", "-2:2"] in examples
    assert ["--backend", "both"] in examples
    parser = cli._build_parser()
    for example in examples:
        args = parser.parse_args(["disprove", corpus("intro.trs"), "--query", "a -> b", *example])
        assert args.command == "disprove", example


def test_raw_table_menu_past_the_node_cap_ends_within_the_timeout(capsys):
    # On the carrier 0..3 the raw arity-2 menu holds 4 ** 16 tables, far past
    # the node cap: the search must stop before building it.
    started = time.monotonic()
    code = main(
        [
            "disprove",
            corpus("pair_gf.trs"),
            "--query",
            "FEASIBLE(g(x) == g(x))",
            "--carriers",
            "0:3",
            "--raw-table-max",
            "4",
            "--timeout",
            "2",
            "--backend",
            "finite",
        ]
    )
    assert code == EXIT_UNKNOWN
    assert time.monotonic() - started < 2.5
    assert capsys.readouterr().err == "no countermodel: finite: budget exhausted: candidate cap\n"


def test_a_raw_menu_past_the_node_cap_leaves_the_later_carriers_searched(tmp_path, capsys):
    # On 0:3 the raw menu of the binary h holds 4 ** 16 tables, past the node
    # cap, so that stage is skipped; the raw stage on 0:1 still finds h (xor).
    (tmp_path / "h.trs").write_text("(RULES a -> b  b -> a  a -> h(a, b))\n")
    query = "EXISTS . a -> a \\/ b -> b"
    argv = ["disprove", str(tmp_path / "h.trs"), "--query", query, "--backend", "finite", "--carriers", "0:3,0:1"]
    assert main(argv) == 0
    certificate = capsys.readouterr().out
    assert main([*argv, "--raw-table-max", "4"]) == 0
    assert capsys.readouterr().out == certificate


@pytest.mark.parametrize(
    "interval, code, bound, message",
    [
        ("0:999", EXIT_UNKNOWN, 2.5, "no countermodel: finite: budget exhausted: time cap"),
        ("0:1000000", EXIT_INPUT, 1.0, "error: carriers: 0:1000000 exceeds 1000 values"),
    ],
    ids=["0:999", "0:1000000"],
)
def test_a_wide_carrier_ends_within_the_timeout_or_is_rejected(interval, code, bound, message):
    # The whole process: a carrier of 1,000 values stops building its menus
    # at the deadline, and a wider one is an input error before any is built.
    root = CORPUS.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    argv = ["disprove", "corpus/intro.trs", "--query", "a -> b", "--backend", "finite"]
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "countermodel", *argv, "--timeout", "1", "--carriers", interval],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert time.monotonic() - started < bound
    assert done.returncode == code
    assert done.stderr == message + "\n"


def test_unexpected_exception_exits_internal(monkeypatch, capsys):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_run_compile", crash)
    code = main(["compile", corpus("intro.trs")])
    assert code == EXIT_INTERNAL
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


@pytest.mark.parametrize(
    "module, name, command",
    [
        (
            query_format,
            "check_term",
            ["disprove", corpus("intro.trs"), "--query", "REACHABLE(a, b)"],
        ),
        (trs_format, "ConditionalRule", ["compile", corpus("intro.trs")]),
    ],
)
def test_a_crash_inside_a_parse_step_exits_internal(module, name, command, monkeypatch, capsys):
    # Only the errors these callees document are input errors; a bug in one is not.
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(module, name, crash)
    assert main(command) == EXIT_INTERNAL
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


def test_a_value_error_inside_a_callee_exits_internal(monkeypatch, capsys):
    # A ValueError is an invariant breach, not bad input, unless it is an OptionError.
    def crash(*args, **kwargs):
        raise ValueError("constraint mentions undeclared variable 'x'")

    monkeypatch.setattr(cli, "build_theory", crash)
    assert main(["compile", corpus("intro.trs")]) == EXIT_INTERNAL
    assert capsys.readouterr().err == (
        "internal error: ValueError: constraint mentions undeclared variable 'x'\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["disprove", corpus("intro.trs"), "--query", "REACHABLE(a, b)", "--bogus"],
            "countermodel: error: unrecognized arguments: --bogus",
        ),
        (
            ["disprove", corpus("intro.trs"), "--query", "REACHABLE(a, b)", "--timeout", "abc"],
            "countermodel disprove: error: argument --timeout: invalid float value: 'abc'",
        ),
        (
            ["derive", corpus("intro.trs"), "--size", "abc"],
            "countermodel derive: error: argument --size: invalid int value: 'abc'",
        ),
        (
            ["check", corpus("intro.trs")],
            "countermodel check: error: the following arguments are required: --model",
        ),
        (["bogus"], "countermodel: error: argument command: invalid choice: 'bogus'"),
    ],
    ids=["unknown-flag", "bad-timeout", "bad-size", "missing-model", "unknown-command"],
)
def test_a_malformed_command_line_exits_input_error(argv, message, capsys):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("usage: countermodel")
    assert message in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["derive", "--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: countermodel derive")


@pytest.mark.parametrize("flag", ["--size", "--depth"])
def test_a_zero_saturation_bound_exits_input_error(flag, capsys):
    assert main(["derive", corpus("intro.trs"), flag, "0"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: size and depth bounds must be >= 1\n"


def test_a_system_file_that_is_not_utf8_exits_input_error(tmp_path, capsys):
    path = tmp_path / "utf16.trs"
    path.write_bytes(b"\xff\xfe(RULES a -> b)")
    assert main(["compile", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode byte 0xff")


def test_an_integer_past_the_conversion_limit_exits_input_error_with_its_span(tmp_path, capsys):
    path = tmp_path / "huge.model"
    path.write_text(f"(DOMAIN [0, {'9' * 5000}])")
    code = main(["check", corpus("intro.trs"), "--model", str(path)])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: {path}:1:13-1:5013: integer literal of 5000 digits is too long\n"
    )


def test_python_dash_m_runs_the_cli():
    root = CORPUS.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "countermodel", "compile", "corpus/intro.trs"],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "[Rf]" in done.stdout


@pytest.mark.parametrize("module", ["countermodel", "countermodel.cli"])
def test_both_module_spellings_run_the_cli(module):
    # ``-m countermodel.cli`` once printed nothing and exited 0, the verified code.
    root = CORPUS.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    argv = ["check", "corpus/intro.trs", "--model", "corpus/models/intro_restricted.model"]
    done = subprocess.run(
        [sys.executable, "-m", module, *argv, "--query", "b ->* b"],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == EXIT_REFUTED, done.stderr
    # the stdout pinned in test_golden.REFUTED_CHECKS["intro-ground"]
    digest = hashlib.sha256(done.stdout.encode("utf-8")).hexdigest()
    assert digest == "a0335bd3d96637350dd96365bdc75b203919edee915a9cdc816a591754725b40"
