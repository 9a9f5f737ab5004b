"""Parser for property queries.

Two input shapes are accepted: the explicit existential form ::

    EXISTS x:Sort y . s -> x /\\ x ->* y \\/ t ->^ y

and the template forms of ``queries.TEMPLATES``, REACHABLE(s, t),
FEASIBLE(s1 == t1, ...), JOINABLE(s, t), REDUCIBLE(t), CONVERTIBLE(s, t),
CYCLING(), CYCLING(t), LOOPING(), LOOPING(t), their names read in any case
unless the signature declares them.  Anything outside the existential
positive fragment (negation, universal quantification, implication, nested
quantifiers) is rejected with an unsupported-fragment error.

Terms and lists are read with the shared reader in ``lexer``; this module
decides what a name stands for.  Identifiers resolve to variables when bound
in the prefix, annotated inline (``x:Sort``), or listed in the caller's
variable declarations; otherwise they must be signature symbols, and each
application is checked against the signature as it is read.
"""
from __future__ import annotations

from typing import Mapping

from .errors import ParseError, QueryError, SourceSpan, TermError, UnsupportedFragmentError
from .lexer import Token, TokenStream, read_conditions, read_term, tokenize
from .logic import Atom
from .queries import TEMPLATES, Query, template
from .terms import (
    ARROW,
    MANY_STEPS,
    ROOT_STEP,
    SUBTERM,
    App,
    Signature,
    Term,
    Var,
    check_term,
)

_ATOM_OPERATORS = (ARROW, MANY_STEPS, ROOT_STEP, SUBTERM)

# The constructs outside the fragment, by operator token or upper-cased word.
_REJECTED = {"~": "negation", "!": "negation", "NOT": "negation", "=>": "implication",
             "FORALL": "universal quantification", "ALL": "universal quantification"}


def parse_query(
    text: str,
    sig: Signature,
    var_sorts: Mapping[str, str] | None = None,
    file: str | None = None,
) -> Query:
    tokens = tokenize(text, file)
    for token in tokens:
        rejected = _REJECTED.get(token.text.upper() if token.kind == "ident" else token.kind)
        if rejected is not None:
            raise UnsupportedFragmentError(
                f"unsupported fragment: {rejected} is not allowed "
                "(queries are existential closures of positive atom combinations)",
                token.span(file),
            )
    stream = TokenStream(tokens, file)
    declared = dict(var_sorts) if var_sorts else {}

    head = stream.peek()
    call = head is not None and head.kind == "ident" and stream.at("(", 1)
    if call and head.text.upper() in TEMPLATES and head.text not in sig.functions:
        query = _parse_template(stream, sig, declared)
    else:
        query = _parse_exists(stream, sig, declared)
    if not stream.done():
        raise stream.error("trailing input after query")
    return query


def _parse_template(stream: TokenStream, sig: Signature, declared: dict[str, str]) -> Query:
    head = stream.expect_ident()
    name = head.text.upper()
    scope = _Scope(sig, declared, bound=None, ground=None if name == "FEASIBLE" else name)
    if name == "FEASIBLE":
        stream.expect("(")
        if stream.at(")"):
            raise stream.error("FEASIBLE needs at least one condition")
        args = (read_conditions(stream, scope.term),)
        stream.expect(")")
    else:
        args = stream.items(scope.term)
    try:
        return template(sig, name, *args)
    except QueryError as exc:
        raise ParseError(str(exc), head.span(stream.file)) from exc


def _parse_exists(stream: TokenStream, sig: Signature, declared: dict[str, str]) -> Query:
    bound: dict[str, str] = {}
    order: list[Var] = []
    if stream.accept("ident", "EXISTS"):
        while not stream.accept("."):
            token = stream.expect_ident()
            name = token.text
            sort, span = None, token.span(stream.file)
            if stream.accept(":"):
                sort, span = _annotation(stream, sig, token)
            elif name in declared:
                sort = declared[name]
            elif sig.single_sorted:
                sort = sig.sorts[0]
            if name in bound:
                raise ParseError(f"variable '{name}' is bound twice", span)
            if sort is None:
                raise stream.error(f"variable '{name}' needs a sort annotation")
            bound[name] = sort
            order.append(Var(name, sort))
    scope = _Scope(sig, declared, bound, ground=None)

    def conjunction(stream: TokenStream) -> tuple[Atom, ...]:
        return tuple(stream.separated(scope.atom, "/\\"))

    disjuncts = stream.separated(conjunction, "\\/")
    variables = tuple(order) if order else tuple(scope.seen.values())
    try:
        return Query(variables, tuple(disjuncts))
    except QueryError as exc:
        raise ParseError(str(exc)) from exc


def _annotation(stream: TokenStream, sig: Signature, name: Token) -> tuple[str, SourceSpan]:
    """The declared sort after ``name:``, and the span of ``name:Sort``."""
    sort = stream.expect_ident()
    span = SourceSpan(stream.file, name.line, name.column, sort.line, sort.column + len(sort.text))
    if sort.text not in sig.sorts:
        raise ParseError(f"variable '{name.text}' has undeclared sort '{sort.text}'", span)
    return sort.text, span


class _Scope:
    """Resolution of identifiers to variables or signature symbols."""

    def __init__(
        self, sig: Signature, declared: Mapping[str, str], bound: dict[str, str] | None, ground: str | None
    ):
        self.sig = sig
        self.declared = declared
        self.bound = bound  # None, as in templates, means variables bind implicitly
        self.ground = ground  # the template, if it takes ground terms only
        self.seen: dict[str, Var] = {}

    def atom(self, stream: TokenStream) -> Atom:
        if stream.at_ident("EXISTS"):
            raise UnsupportedFragmentError(
                "unsupported fragment: nested quantifiers are not allowed", stream.span_here()
            )
        left = self.term(stream)
        token = stream.peek()
        if token is None or token.kind not in _ATOM_OPERATORS:
            raise stream.error("expected one of '->', '->*', '->^', '|>' in atom")
        stream.next()
        return Atom(token.kind, (left, self.term(stream)))

    def term(self, stream: TokenStream) -> Term:
        return read_term(stream, self._resolve, self._application)

    def _resolve(self, stream: TokenStream, token: Token) -> Var | None:
        """The variable ``token`` names, or None for a signature symbol."""
        name = token.text
        if stream.accept(":"):
            return self._variable(name, *_annotation(stream, self.sig, token))
        span = token.span(stream.file)
        if self.bound is not None and name in self.bound:
            return self._variable(name, self.bound[name], span)
        if self.bound is None and name in self.declared:
            return self._variable(name, self.declared[name], span)
        if name in self.sig.functions:
            return None
        if stream.at("("):
            raise ParseError(f"unknown function symbol '{name}'", span)
        if self.bound is None and self.sig.single_sorted:
            return self._variable(name, self.sig.sorts[0], span)
        raise ParseError(f"unknown symbol '{name}'", span)

    def _application(self, stream: TokenStream, token: Token, args: list[Term]) -> App:
        term = App(token.text, tuple(args))
        try:
            check_term(self.sig, term, strict=False)
        except TermError as exc:
            raise ParseError(str(exc), token.span(stream.file)) from exc
        return term

    def _variable(self, name: str, sort: str, span: SourceSpan) -> Var:
        """The variable ``name`` of ``sort``, occurring at ``span``."""
        if self.ground is not None:
            what = f"'{name}' is a variable, not a function symbol of the system"
            raise ParseError(f"{self.ground} takes ground terms, but {what}", span)
        var = Var(name, sort)
        previous = self.seen.get(name)
        if previous is not None and previous.sort != sort:
            raise ParseError(f"variable '{name}' used with two sorts", span)
        self.seen[name] = var
        return var
