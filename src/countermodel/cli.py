"""Command-line interface.

Subcommands: ``compile`` prints a system's Horn theory with provenance
tags; ``check`` verifies a structure file against a system and query and
prints the certificate; ``disprove`` searches for a countermodel within a
budget and prints the certificate on success; ``derive`` prints the atoms
of a bounded saturation run.

Exit codes: 0 success/verified, 1 the check refuted the structure (or an
oracle cross-check failed), 2 unknown or budget exhausted, 3 input error,
4 internal error (an unexpected exception; a bug, never a verdict).

Run as ``countermodel`` or ``python -m countermodel``.
"""
from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

from .certificates import serialize_certificate
from .checker import REFUTED, VERIFIED, verify
from .errors import CountermodelError, OptionError
from .finder import SearchBudget
from .logic import format_term, format_theory
from .model_format import AUTO, FINITE, SYMBOLIC, parse_model
from .oracle import saturate
from .pipeline import (
    BOTH,
    build_theory,
    disprove,
    oracle_cross_check,
    required_predicates,
    theory_for_query,
)
from .queries import negate_to_obligations
from .query_format import parse_query
from .trs_format import parse_ctrs_document

EXIT_VERIFIED = 0
EXIT_REFUTED = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (CountermodelError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a crash must never pass for a verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors exit as input errors, not with argparse's 2 ("unknown").

    A token that starts with ``-`` and a digit is read as a value, such as
    ``--coeff-range -2:2``, since no option starts that way.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="countermodel",
        description="Disprove rewriting properties by checking or synthesizing countermodels.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    compile_cmd = commands.add_parser("compile", help="print the Horn theory of a system")
    _common_inputs(compile_cmd, query=False)
    compile_cmd.set_defaults(handler=_run_compile)

    check_cmd = commands.add_parser("check", help="verify a structure file against a query")
    _common_inputs(check_cmd)
    check_cmd.add_argument("--model", required=True, help="structure file to verify")
    check_cmd.add_argument(
        "--backend",
        choices=(AUTO, FINITE, SYMBOLIC, BOTH),
        default=AUTO,
        help="how to interpret the structure file",
    )
    check_cmd.add_argument("--output", "-o", help="also write the certificate to this file")
    check_cmd.set_defaults(handler=_run_check)

    disprove_cmd = commands.add_parser("disprove", help="search for a countermodel")
    _common_inputs(disprove_cmd)
    disprove_cmd.add_argument(
        "--backend", choices=(FINITE, SYMBOLIC, BOTH), default=BOTH
    )
    disprove_cmd.add_argument(
        "--carriers",
        help="finite carrier intervals, e.g. '0:1,0:2,-1:1'",
    )
    disprove_cmd.add_argument(
        "--ray-carriers", help="symbolic ray lower bounds, e.g. '0,-1,1'"
    )
    disprove_cmd.add_argument(
        "--coeff-range", help="affine coefficient range, e.g. '-2:2'"
    )
    disprove_cmd.add_argument("--timeout", type=float, help="wall-clock cap in seconds")
    disprove_cmd.add_argument(
        "--raw-table-max", type=int, help="largest carrier for raw-table search"
    )
    oracle = disprove_cmd.add_mutually_exclusive_group()
    oracle.add_argument(
        "--oracle-check",
        action="store_true",
        help="force the saturation cross-check after a successful disproof",
    )
    oracle.add_argument(
        "--no-oracle-check",
        action="store_true",
        help="skip the saturation cross-check even for ground obligations",
    )
    disprove_cmd.add_argument("--output", "-o", help="also write the certificate to this file")
    disprove_cmd.set_defaults(handler=_run_disprove)

    derive_cmd = commands.add_parser("derive", help="print bounded saturation atoms")
    derive_cmd.add_argument("system", help="rewrite system file")
    derive_cmd.add_argument("--size", type=int, default=3, help="ground term size bound")
    derive_cmd.add_argument("--depth", type=int, default=5, help="derivation depth bound")
    derive_cmd.set_defaults(handler=_run_derive)

    return parser


def _common_inputs(cmd: argparse.ArgumentParser, query: bool = True) -> None:
    cmd.add_argument("system", help="rewrite system file")
    cmd.add_argument(
        "--with-subterm-theory", action="store_true", help="include the subterm clauses"
    )
    cmd.add_argument(
        "--with-root-theory", action="store_true", help="include the root-step clauses"
    )
    cmd.add_argument(
        "--sorted",
        action="store_true",
        help="require the input to declare sorts (relativization is automatic)",
    )
    if query:
        group = cmd.add_mutually_exclusive_group()
        group.add_argument("--query", help="inline property query")
        group.add_argument("--query-file", help="file containing the property query")


def _load_system(args):
    text = Path(args.system).read_text(encoding="utf-8-sig")
    document = parse_ctrs_document(text, file=args.system)
    if getattr(args, "sorted", False) and not document.declares_sorts:
        raise CountermodelError("--sorted was given but the input declares no sorts")
    return document


def _load_query(args, document):
    source = None
    origin = None
    if args.query is not None:
        source, origin = args.query, "<query>"
    elif args.query_file is not None:
        source, origin = Path(args.query_file).read_text(encoding="utf-8-sig").strip(), args.query_file
    if source is None:
        return None
    return parse_query(source, document.ctrs.signature, document.var_sorts, file=origin)


def _run_compile(args) -> int:
    document = _load_system(args)
    theory = build_theory(
        document.ctrs,
        with_subterm=args.with_subterm_theory,
        with_root=args.with_root_theory,
    )
    print(format_theory(theory))
    return EXIT_VERIFIED


def _run_check(args) -> int:
    document = _load_system(args)
    query = _load_query(args, document)
    ctrs = document.ctrs
    extensions = dict(with_subterm=args.with_subterm_theory, with_root=args.with_root_theory)
    if query is None:
        theory, obligations = build_theory(ctrs, **extensions), ()
    else:
        theory = theory_for_query(ctrs, query, **extensions)
        obligations = negate_to_obligations(query)
    required = required_predicates(theory, tuple(obligations))
    model_text = Path(args.model).read_text(encoding="utf-8-sig")
    backends = (FINITE, SYMBOLIC) if args.backend == BOTH else (args.backend,)
    readings = [parse_model(model_text, ctrs.signature, b, required, file=args.model) for b in backends]
    cert, *others = (verify(theory, obligations, structure) for structure in readings)
    for other in others:
        if other.overall != cert.overall:
            print(
                f"error: finite and symbolic backends disagree ({cert.overall} vs {other.overall})",
                file=sys.stderr,
            )
            return EXIT_UNKNOWN
    return _emit_certificate(cert, args.output)


def _run_disprove(args) -> int:
    document = _load_system(args)
    query = _load_query(args, document)
    if query is None:
        raise CountermodelError("disprove needs a --query or --query-file")
    budget = _budget_from_args(args)
    result = disprove(
        document.ctrs,
        query,
        budget,
        backend=args.backend,
        with_subterm=args.with_subterm_theory,
        with_root=args.with_root_theory,
    )
    if not result.succeeded:
        for reason in result.reasons:
            print(f"no countermodel: {reason}", file=sys.stderr)
        return EXIT_UNKNOWN
    certificate = result.certificate
    obligations_ground = all(not ob.variables for ob in certificate.obligations)
    run_oracle = args.oracle_check or (obligations_ground and not args.no_oracle_check)
    code = _emit_certificate(certificate, args.output)
    if run_oracle:
        violations = oracle_cross_check(document.ctrs, certificate)
        if violations:
            for violation in violations:
                print(f"oracle cross-check FAILED: {violation}", file=sys.stderr)
            return EXIT_REFUTED
        print("oracle cross-check passed", file=sys.stderr)
    return code


def _run_derive(args) -> int:
    document = _load_system(args)
    atom_set = saturate(document.ctrs, args.size, args.depth)
    term_text = functools.cache(format_term)  # a term occurs in many atoms
    lines = sorted(
        f"{atom.format(term_text)}  [depth {depth}]" for atom, depth in atom_set.atoms.items()
    )
    for line in lines:
        print(line)
    print(f"{len(lines)} atoms (size <= {args.size}, depth <= {args.depth})", file=sys.stderr)
    return EXIT_VERIFIED


def _emit_certificate(cert, output: str | None) -> int:
    document = serialize_certificate(cert)
    print(document, end="")
    if output:
        Path(output).write_text(document, encoding="utf-8")
    if cert.overall == VERIFIED:
        return EXIT_VERIFIED
    if cert.overall == REFUTED:
        return EXIT_REFUTED
    return EXIT_UNKNOWN


def _budget_from_args(args) -> SearchBudget:
    kwargs = {}
    if args.carriers is not None:
        kwargs["carriers"] = tuple(
            _ints("--carriers", piece, ":", 2) for piece in args.carriers.split(",")
        )
    if args.ray_carriers is not None:
        kwargs["ray_carriers"] = _ints("--ray-carriers", args.ray_carriers, ",")
    if args.coeff_range is not None:
        kwargs["coeff_min"], kwargs["coeff_max"] = _ints("--coeff-range", args.coeff_range, ":", 2)
    if args.timeout is not None:
        kwargs["time_limit"] = args.timeout
    if args.raw_table_max is not None:
        kwargs["raw_table_max_size"] = args.raw_table_max
    return SearchBudget(**kwargs)


def _ints(flag: str, text: str, sep: str, count: int | None = None) -> tuple[int, ...]:
    """The integers ``text`` lists between ``sep``; an error naming ``flag`` otherwise."""
    try:
        values = tuple(int(part) for part in text.split(sep))
        if count is None or len(values) == count:
            return values
    except ValueError:
        pass
    raise OptionError(f"{flag}: cannot read {text!r}")


if __name__ == "__main__":
    raise SystemExit(main())
