from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from countermodel import cli, query_format, trs_format
from countermodel.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_REFUTED, EXIT_UNKNOWN, main
from countermodel.lexer import MAX_NESTING
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


def test_derive_prints_sorted_atoms(capsys):
    code = main(["derive", corpus("intro.trs"), "--size", "1", "--depth", "5"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert "b -> a  [depth 1]" in lines
    assert lines == sorted(lines)
    assert not any("a -> b" in line for line in lines)


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


def test_symbolic_check_at_the_nesting_cap_is_decided(capsys):
    # Each application's form is substituted into its context, so every
    # system ranges over the query's variables (none here), however deep.
    query = f"{_nested(MAX_NESTING)} ->* a"
    model = corpus("models/fig3_feas.model")
    assert main(["check", corpus("fig3.trs"), "--model", model, "--query", query]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["overall"] == "verified"
    assert [v["status"] for v in payload["obligation_verdicts"]] == ["holds"]


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
        (["--timeout", "nan"], "--timeout: nan is not a number of seconds >= 0"),
        (["--timeout", "-1"], "--timeout: -1.0 is not a number of seconds >= 0"),
        (["--carriers="], "--carriers: cannot read ''"),
        (["--ray-carriers="], "--ray-carriers: cannot read ''"),
        (["--coeff-range="], "--coeff-range: cannot read ''"),
    ],
)
def test_empty_or_malformed_budget_exits_input_error(flags, named, capsys):
    code = main(["disprove", corpus("intro.trs"), "--query", "REACHABLE(a, b)", *flags])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {named}\n"


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
