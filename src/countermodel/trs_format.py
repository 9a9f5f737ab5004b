"""Parser for rewrite-system files.

The grammar is a block format in the style of the confluence-competition
databases::

    (SORTS User WebPage ...)                 ; optional; omitted => unsorted
    (SUBSORTS RegUser EventualUser < User)   ; optional chains
    (SIG f : s1 s2 -> s   a : -> s ...)      ; required when SORTS is given
    (CONDITIONTYPE ORIENTED)                 ; or JOIN
    (VAR x y:Sort ...)
    (RULES l -> r | s1 == t1, s2 == t2 ...)
    (COMMENT ...)

Blocks, lists and terms are read with the shared reader in ``lexer``; this
module decides what a name in a rule stands for.  A name declared in VAR is
a variable.  Any other name is a function symbol, checked against SIG in
sorted input.  Untyped input uses the single default sort, with arities
inferred from the first use of each symbol; later uses at a different arity
are rejected with the offending span.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .errors import ParseError, RuleError, TermError
from .lexer import Token, TokenStream, read_condition, read_term, tokenize
from .terms import (
    CTRS,
    DEFAULT_SORT,
    JOIN,
    ORIENTED,
    App,
    ConditionalRule,
    Signature,
    Term,
    Var,
)


@dataclass
class CTRSDocument:
    """A parsed system plus the declarations the rules were read under."""

    ctrs: CTRS
    var_sorts: dict[str, str] = field(default_factory=dict)
    declares_sorts: bool = False  # whether a SORTS block was read


def parse_ctrs(text: str, file: str | None = None) -> CTRS:
    return parse_ctrs_document(text, file).ctrs


def parse_ctrs_document(text: str, file: str | None = None) -> CTRSDocument:
    stream = TokenStream(tokenize(text, file), file)
    sorts: list[str] | None = None
    subsorts: list[tuple[str, str]] = []
    declared_functions: dict[str, tuple[tuple[str, ...], str]] | None = None
    condition_type = ORIENTED
    var_sorts: dict[str, str] = {}
    rule_blocks: list[list[Token]] = []

    for keyword in stream.blocks():
        if keyword == "SORTS":
            sorts = []
            while not stream.at(")"):
                sorts.append(stream.expect_ident().text)
        elif keyword == "SUBSORTS":
            while not stream.at(")"):
                lhs = [stream.expect_ident().text]
                while not stream.accept("<"):
                    lhs.append(stream.expect_ident().text)
                sup = stream.expect_ident().text
                subsorts.extend((sub, sup) for sub in lhs)
        elif keyword == "SIG":
            declared_functions = {}
            while not stream.at(")"):
                name_token = stream.expect_ident()
                stream.expect(":")
                arg_sorts: list[str] = []
                while not stream.accept("->"):
                    arg_sorts.append(stream.expect_ident().text)
                result = stream.expect_ident().text
                if name_token.text in declared_functions:
                    raise ParseError(
                        f"duplicate declaration of '{name_token.text}'",
                        name_token.span(file),
                    )
                declared_functions[name_token.text] = (tuple(arg_sorts), result)
        elif keyword == "CONDITIONTYPE":
            token = stream.expect_ident()
            kind = token.text.upper()
            if kind == "ORIENTED":
                condition_type = ORIENTED
            elif kind == "JOIN":
                condition_type = JOIN
            else:
                raise ParseError(f"unknown condition type '{token.text}'", token.span(file))
        elif keyword == "VAR":
            while not stream.at(")"):
                name = stream.expect_ident().text
                var_sorts[name] = stream.expect_ident().text if stream.accept(":") else DEFAULT_SORT
        elif keyword == "RULES":
            rule_blocks.append(stream.balanced())
        elif keyword == "COMMENT":
            stream.balanced()
        else:
            raise ParseError(f"unknown block '{keyword}'", stream.span_here())

    signature: Signature | None = None
    inferred: dict[str, int] | None = None
    if sorts is not None or declared_functions is not None:
        if declared_functions is None:
            raise ParseError("a SORTS block requires a SIG block")
        if sorts is None:
            raise ParseError("a SIG block requires a SORTS block")
        for name, sort in var_sorts.items():
            if sort == DEFAULT_SORT:
                raise ParseError(f"variable '{name}' needs a sort annotation in sorted input")
        signature = Signature(tuple(sorts), tuple(subsorts), declared_functions)
    else:
        inferred = {}
    rules = [
        rule
        for body in rule_blocks
        for rule in _parse_rules(body, file, var_sorts, signature, inferred, condition_type)
    ]
    if signature is None:
        signature = Signature(
            (DEFAULT_SORT,),
            (),
            {name: ((DEFAULT_SORT,) * arity, DEFAULT_SORT) for name, arity in inferred.items()},
        )

    try:
        ctrs = CTRS(signature, tuple(rules))
    except TermError:  # a sort error, raised again with the span of the first rule failing alone
        for rule in rules:
            try:
                CTRS(signature, (rule,))
            except TermError as exc:
                raise ParseError(str(exc), rule.span) from exc
        raise
    return CTRSDocument(ctrs, var_sorts, sorts is not None)


def _parse_rules(
    body: list[Token],
    file: str | None,
    var_sorts: dict[str, str],
    signature: Signature | None,
    inferred: dict[str, int] | None,
    condition_type: str,
) -> list[ConditionalRule]:
    """Rules ``l -> r`` or ``l -> r | s1 == t1, ...``, over declared or inferred symbols."""

    def variable(stream: TokenStream, token: Token) -> Var | None:
        if token.text not in var_sorts:
            return None
        if stream.at("("):
            raise ParseError(f"variable '{token.text}' cannot take arguments", token.span(file))
        return Var(token.text, var_sorts[token.text])

    def application(stream: TokenStream, token: Token, args: list[Term]) -> App:
        name = token.text
        if signature is not None:
            if name not in signature.functions:
                raise ParseError(f"undeclared symbol '{name}'", token.span(file))
            declared = len(signature.functions[name][0])
            if declared != len(args):
                raise ParseError(
                    f"'{name}' is declared with {declared} argument(s), used with {len(args)}",
                    token.span(file),
                )
        else:
            arity = inferred.setdefault(name, len(args))
            if arity != len(args):
                raise ParseError(
                    f"'{name}' was first used with {arity} argument(s), now {len(args)}",
                    token.span(file),
                )
        return App(name, tuple(args))

    def term(stream: TokenStream) -> Term:
        return read_term(stream, variable, application)

    condition = functools.partial(read_condition, term=term)
    stream = TokenStream(body, file)
    rules: list[ConditionalRule] = []
    while not stream.done():
        start = stream.peek()
        lhs = term(stream)
        stream.expect("->")
        rhs = term(stream)
        conditions = stream.separated(condition, ",") if stream.accept("|") else []
        span = start.span(file) if start else None
        try:
            rules.append(
                ConditionalRule(lhs, rhs, tuple(conditions), condition_type, span=span)
            )
        except RuleError as exc:
            raise ParseError(str(exc), span) from exc
    return rules
