"""Parser and serializer for structure (model) files.

A structure document lists one DOMAIN block per sort, one FUN block per
function symbol, and one PRED block per rewriting predicate (``->``,
``->*``, ``->^`` or ``|>``; a sort test reads its carrier)::

    (DOMAIN >= -1)                ; ray: an interval with no upper end
    (DOMAIN User [0, 3])          ; interval; sort name required when sorted
    (DOMAIN Flag {0, 1})          ; explicit finite set
    (FUN a = 1)
    (FUN c(x) = 2*x + 2)
    (FUN g(x) = clamp(x - 1, 0, 1))
    (FUN sub(x, y) = cases x - y >= 0 -> x - y | otherwise -> 0)
    (FUN f = table (0, 0) -> 0 | (0, 1) -> 1)
    (PRED -> (x, y) = x < y)
    (PRED ->* = pairs (0, 0) (1, 1))

Every predicate is binary: a PRED takes two parameters and lists pairs.
Parameter names are distinct and table keys do not repeat.
Expressions are affine with integer literals only.  ``otherwise`` stands
for the complement of the previous guards and is accepted only when that
complement is itself a single conjunction (every previous guard must be a
single inequality).

Each block is read straight into its interpretation: a DOMAIN into an
``Interval`` (``>= lo`` leaves ``hi`` unset) or the sorted values of a set;
a FUN into a table or a ``PiecewiseFunction`` (``clamp`` expanded into
three guard cases, ``otherwise`` resolved as the cases are read); a PRED
into a set of pairs or a ``PredicateInterp``.  The backend, unless
requested, is chosen once the document is read: symbolic when an interval
has no ``hi``, finite otherwise.  The finite backend rejects those and
tabulates the piecewise parts; the symbolic one rejects tables, pair sets
and non-contiguous sets.
"""
from __future__ import annotations

from typing import Iterable, Mapping

from .errors import ModelError, ParseError
from .lexer import Token, TokenStream, tokenize
from .linear import (
    RELATIONS,
    AffineForm,
    LinearConstraint,
    compare,
    format_affine,
    format_constraint,
)
from .structures import (
    FiniteStructure,
    Interval,
    PiecewiseCase,
    PiecewiseFunction,
    PredicateInterp,
    Structure,
    SymbolicStructure,
    tabulate,
)
from .terms import ARROW, BUILTIN_PREDICATES, MANY_STEPS, Signature

AUTO = "auto"
FINITE = "finite"
SYMBOLIC = "symbolic"

DEFAULT_REQUIRED_PREDICATES = (ARROW, MANY_STEPS)

# Most values a finite structure's carriers may hold, per sort and together.
# A finite structure tabulates every function over its carriers and every
# binary predicate over the universe squared, so 1,000 values keep a binary
# extension at or below 10**6 pairs; larger carriers need the symbolic backend.
MAX_FINITE_CARRIER = 1000


def parse_model(
    text: str,
    sig: Signature,
    backend: str = AUTO,
    required_predicates: Iterable[str] = DEFAULT_REQUIRED_PREDICATES,
    file: str | None = None,
) -> Structure:
    """Parse a structure document against a signature.

    Every function symbol of the signature and every required predicate
    must receive exactly one interpretation entry.
    """
    carriers, functions, predicates = _parse_document(text, sig, file)
    if backend not in (AUTO, FINITE, SYMBOLIC):
        raise ValueError(f"unknown backend '{backend}'")
    if backend == AUTO:
        unbounded = any(isinstance(c, Interval) and c.hi is None for c in carriers.values())
        backend = SYMBOLIC if unbounded else FINITE

    for name in sig.functions:
        if name not in functions:
            raise ParseError(f"missing interpretation of function '{name}'")
    for name in required_predicates:
        if name not in predicates:
            raise ParseError(f"missing interpretation of predicate '{name}'")
    for sort in sig.sorts:
        if sort not in carriers:
            raise ParseError(f"missing DOMAIN for sort '{sort}'")

    if backend == FINITE:
        return _assemble_finite(sig, carriers, functions, predicates)
    return _assemble_symbolic(sig, carriers, functions, predicates)


def _parse_document(text: str, sig: Signature, file: str | None):
    stream = TokenStream(tokenize(text, file), file)
    carriers: dict[str, Interval | tuple[int, ...]] = {}
    functions: dict[str, dict[tuple[int, ...], int] | PiecewiseFunction] = {}
    predicates: dict[str, frozenset[tuple[int, ...]] | PredicateInterp] = {}
    for keyword in stream.blocks():
        if keyword == "DOMAIN":
            sort, carrier = _parse_domain(stream)
            sort = sort if sort is not None else sig.sorts[0]
            if sort not in sig.sorts:
                raise stream.error(f"unknown sort '{sort}'")
            if sort in carriers:
                raise stream.error(f"duplicate DOMAIN for sort '{sort}'")
            carriers[sort] = carrier
        elif keyword == "FUN":
            name, function = _parse_fun(stream, sig)
            if name in functions:
                raise stream.error(f"duplicate interpretation of '{name}'")
            functions[name] = function
        elif keyword == "PRED":
            name, predicate = _parse_pred(stream)
            if name in predicates:
                raise stream.error(f"duplicate interpretation of '{name}'")
            predicates[name] = predicate
        else:
            raise stream.error(f"unknown block '{keyword}'")
    return carriers, functions, predicates


def _parse_domain(stream: TokenStream) -> tuple[str | None, Interval | tuple[int, ...]]:
    """The sort name, if given, and an interval (unbounded above for ``>=``) or a set's values."""
    token = stream.accept("ident")
    sort = token.text if token else None
    if stream.at("{"):
        values = stream.items(_parse_int, "{", "}")
        if not values:
            raise stream.error("empty DOMAIN set")
        return sort, tuple(sorted(set(values)))
    if stream.accept("["):
        lo = _parse_int(stream)
        stream.expect(",")
        hi = _parse_int(stream)
        stream.expect("]")
        if lo > hi:
            raise stream.error(f"empty interval [{lo}, {hi}]")
        return sort, Interval(lo, hi)
    if stream.accept(">="):
        return sort, Interval(_parse_int(stream))
    raise stream.error("expected '{', '[', or '>=' in DOMAIN")


def _parse_fun(
    stream: TokenStream, sig: Signature
) -> tuple[str, dict[tuple[int, ...], int] | PiecewiseFunction]:
    name_token = stream.expect_ident()
    name = name_token.text
    if name not in sig.functions:
        raise ParseError(f"unknown function symbol '{name}'", name_token.span(stream.file))
    params = _parse_params(stream, name) or []
    arity = len(sig.functions[name][0])
    if params and len(params) != arity:
        raise ParseError(
            f"'{name}' has arity {arity}, got {len(params)} parameter(s)",
            name_token.span(stream.file),
        )
    if not params:
        params = [f"x{i + 1}" for i in range(arity)]
    stream.expect("=")
    if stream.accept("ident", "table"):
        table: dict[tuple[int, ...], int] = {}

        def entry(stream: TokenStream) -> None:
            key = tuple(stream.items(_parse_int))
            stream.expect("->")
            value = _parse_int(stream)
            if len(key) != arity:
                raise stream.error(f"table key arity mismatch for '{name}'")
            if key in table:
                raise stream.error(f"table of '{name}' repeats the key {key}")
            table[key] = value

        stream.separated(entry, "|")
        return name, table
    if not stream.accept("ident", "cases"):
        return name, PiecewiseFunction(tuple(params), _parse_case_value(stream, params, ()))
    previous: list[tuple[LinearConstraint, ...]] = []

    def case(stream: TokenStream) -> tuple[PiecewiseCase, ...]:
        if stream.at_ident("otherwise"):
            if any(len(g) != 1 for g in previous):
                raise stream.error(
                    f"'otherwise' in '{name}' needs every previous guard to be "
                    "a single inequality"
                )
            stream.next()
            guard = tuple(g[0].negate() for g in previous)
        else:
            guard = tuple(_parse_constraints(stream, params))
            previous.append(guard)
        stream.expect("->")
        return _parse_case_value(stream, params, guard)

    cases = stream.separated(case, "|")
    return name, PiecewiseFunction(tuple(params), tuple(c for part in cases for c in part))


def _parse_case_value(
    stream: TokenStream, params: list[str], guard: tuple[LinearConstraint, ...]
) -> tuple[PiecewiseCase, ...]:
    """The cases of one value under ``guard``: three for a clamp, one otherwise."""
    if not stream.accept("ident", "clamp"):
        return (PiecewiseCase(guard, _parse_affine(stream, params)),)
    stream.expect("(")
    form = _parse_affine(stream, params)
    stream.expect(",")
    lo = _parse_int(stream)
    stream.expect(",")
    hi = _parse_int(stream)
    try:
        clamped = PiecewiseFunction.clamped(params, form, lo, hi)
    except ModelError as exc:
        raise stream.error(str(exc)) from exc
    stream.expect(")")
    return tuple(PiecewiseCase(guard + sub.guard, sub.value) for sub in clamped.cases)


def _parse_pred(stream: TokenStream) -> tuple[str, frozenset[tuple[int, ...]] | PredicateInterp]:
    token = stream.peek()
    if token is not None and token.kind == "ident":  # a sort test reads its carrier
        raise stream.error(f"unknown predicate '{token.text}' (a PRED block interprets ->, ->*, ->^ or |>)")
    if token is None or token.kind not in BUILTIN_PREDICATES:
        raise stream.error("expected a predicate name")
    stream.next()
    name = token.text
    params = _parse_params(stream, name)
    if params is None:
        params = ["x", "y"]
    elif len(params) != 2:
        raise stream.error(f"predicate '{name}' takes 2 parameters, got {len(params)}")
    stream.expect("=")
    if stream.accept("ident", "empty"):
        return name, frozenset()
    if stream.accept("ident", "pairs"):
        pairs: set[tuple[int, ...]] = set()
        while stream.at("("):
            pair = tuple(stream.items(_parse_int))
            if len(pair) != 2:
                raise stream.error(f"predicate '{name}' holds pairs, got {pair}")
            pairs.add(pair)
        return name, frozenset(pairs)
    return name, PredicateInterp(tuple(params), tuple(_parse_constraints(stream, params)))


def _parse_params(stream: TokenStream, name: str) -> list[str] | None:
    """A parenthesized list of distinct parameter names; None when absent."""
    if not stream.at("("):
        return None
    params = stream.items(lambda s: s.expect_ident().text)
    if len(set(params)) != len(params):
        raise stream.error(f"'{name}' repeats a parameter name in {tuple(params)}")
    return params


# -- expression and constraint parsing ------------------------------------------


def _parse_int(stream: TokenStream) -> int:
    sign = -1 if stream.accept("-") else 1
    return sign * _int(stream, stream.expect("int"))


def _int(stream: TokenStream, token: Token) -> int:
    """The value of an ``int`` token, or a spanned error past Python's digit limit."""
    try:
        return int(token.text)
    except ValueError as exc:  # more digits than ``int`` converts
        raise ParseError(
            f"integer literal of {len(token.text)} digits is too long", token.span(stream.file)
        ) from exc


def _parse_affine(stream: TokenStream, params: Iterable[str]) -> AffineForm:
    """Terms ``n``, ``x`` or ``n*x`` joined by '+' and '-'; a run of signs multiplies."""
    if stream.at("+"):
        raise stream.error("expression cannot start with '+'")
    allowed = set(params)
    coeffs: dict[str, int] = {}
    constant = 0
    more = True
    while more:
        sign = 1
        while sign_token := stream.accept("-") or stream.accept("+"):
            sign = -sign if sign_token.kind == "-" else sign
        number = stream.accept("int")
        if number and not stream.accept("*"):
            constant += sign * _int(stream, number)
        elif number or stream.at("ident"):
            name = stream.expect_ident().text
            if name not in allowed:
                raise stream.error(f"unknown parameter '{name}' (non-affine expressions are rejected)")
            if not number and stream.at("*"):
                raise stream.error("non-affine expression: variable products are not supported")
            coeffs[name] = coeffs.get(name, 0) + sign * (_int(stream, number) if number else 1)
        else:
            raise stream.error("expected an affine expression")
        more = stream.at("+") or stream.at("-")
    return AffineForm.make(coeffs, constant)


def _parse_constraints(stream: TokenStream, params: Iterable[str]) -> list[LinearConstraint]:
    """``left REL right /\\ ...``, each comparison lowered to canonical constraints."""

    def comparison(stream: TokenStream) -> list[LinearConstraint]:
        left = _parse_affine(stream, params)
        token = stream.peek()
        if token is None or token.kind not in RELATIONS:
            raise stream.error("expected a comparison operator")
        stream.next()
        return compare(left, token.kind, _parse_affine(stream, params))

    return [c for part in stream.separated(comparison, "/\\") for c in part]


# -- assembly --------------------------------------------------------------------


def _assemble_symbolic(
    sig: Signature,
    carriers: Mapping[str, Interval | tuple[int, ...]],
    functions: Mapping[str, dict[tuple[int, ...], int] | PiecewiseFunction],
    predicates: Mapping[str, frozenset[tuple[int, ...]] | PredicateInterp],
) -> SymbolicStructure:
    ranges: dict[str, Interval] = {}
    for sort, carrier in carriers.items():
        if isinstance(carrier, tuple):
            if carrier != tuple(range(carrier[0], carrier[-1] + 1)):
                raise ParseError(
                    "an explicit carrier must be a contiguous integer range for the "
                    "symbolic backend"
                )
            carrier = Interval(carrier[0], carrier[-1])
        ranges[sort] = carrier
    for name, function in functions.items():
        if isinstance(function, dict):
            raise ParseError(
                f"'{name}': explicit tables are not supported by the symbolic backend"
            )
    for name, predicate in predicates.items():
        if isinstance(predicate, frozenset):
            raise ParseError(
                f"'{name}': explicit pair sets are not supported by the symbolic backend"
            )
    return SymbolicStructure(sig, ranges, functions, predicates)


def _assemble_finite(
    sig: Signature,
    carriers: Mapping[str, Interval | tuple[int, ...]],
    functions: Mapping[str, dict[tuple[int, ...], int] | PiecewiseFunction],
    predicates: Mapping[str, frozenset[tuple[int, ...]] | PredicateInterp],
) -> FiniteStructure:
    values: dict[str, tuple[int, ...]] = {}
    for sort, carrier in carriers.items():
        if isinstance(carrier, Interval) and carrier.hi is None:
            raise ParseError(f"sort '{sort}' has an infinite carrier; use the symbolic backend")
        size = carrier.hi - carrier.lo + 1 if isinstance(carrier, Interval) else len(carrier)
        if size > MAX_FINITE_CARRIER:  # before an interval is enumerated
            raise ParseError(
                f"sort '{sort}' has {size} carrier values, more than the finite backend's "
                f"{MAX_FINITE_CARRIER}; use --backend symbolic"
            )
        values[sort] = (
            tuple(range(carrier.lo, carrier.hi + 1)) if isinstance(carrier, Interval) else carrier
        )
    universe = {v for vs in values.values() for v in vs}
    if len(universe) > MAX_FINITE_CARRIER:
        raise ParseError(
            f"the carriers of sorts {', '.join(values)} hold {len(universe)} values together, "
            f"more than the finite backend's {MAX_FINITE_CARRIER}; use --backend symbolic"
        )
    tables: dict[str, dict[tuple[int, ...], int]] = {}
    for name, function in functions.items():
        if isinstance(function, PiecewiseFunction):
            continue
        arg_sorts, result = sig.functions[name]
        for key, value in function.items():
            for v, s in zip(key, arg_sorts):
                if v not in values[s]:
                    raise ParseError(f"table key {key} of '{name}' is outside the declared carrier")
            if value not in values[result]:
                raise ParseError(f"table value {value} of '{name}' is outside the declared carrier")
        tables[name] = function
    pairs = {n: p for n, p in predicates.items() if isinstance(p, frozenset)}
    for name, p in pairs.items():
        if outside := sorted(t for t in p if not universe.issuperset(t)):
            raise ParseError(f"pair {outside[0]} of '{name}' is outside the declared carriers")
    piecewise = {n: f for n, f in functions.items() if isinstance(f, PiecewiseFunction)}
    linear = {n: p for n, p in predicates.items() if isinstance(p, PredicateInterp)}
    try:
        tabulated, extensions = tabulate(sig, values, piecewise, linear)
    except ModelError as exc:
        raise ParseError(str(exc)) from exc
    return FiniteStructure(sig, values, tables | tabulated, pairs | extensions)


# -- serialization ----------------------------------------------------------------


def serialize_model(structure: Structure) -> str:
    """Canonical text for a structure; stable under re-serialization."""
    sig = structure.signature
    lines: list[str] = []
    if isinstance(structure, FiniteStructure):
        for sort in sig.sorts:
            values = ", ".join(str(v) for v in structure.carrier(sort))
            lines.append(_domain_line(sig, sort, "{" + values + "}"))
        for name in sig.functions:
            table = structure.functions[name]
            if () in table:
                lines.append(f"(FUN {name} = {table[()]})")
                continue
            entries = " | ".join(
                f"({', '.join(str(v) for v in key)}) -> {value}"
                for key, value in sorted(table.items())
            )
            lines.append(f"(FUN {name} = table {entries})")
        for name in _predicate_order(structure.predicates):
            tuples = sorted(structure.predicates[name])
            if not tuples:
                lines.append(f"(PRED {name} = empty)")
                continue
            shown = " ".join(f"({', '.join(str(v) for v in t)})" for t in tuples)
            lines.append(f"(PRED {name} = pairs {shown})")
        return "\n".join(lines) + "\n"
    for sort in sig.sorts:
        carrier = structure.carrier(sort)
        spec = f">= {carrier.lo}" if carrier.hi is None else f"[{carrier.lo}, {carrier.hi}]"
        lines.append(_domain_line(sig, sort, spec))
    for name in sig.functions:
        interp = structure.functions[name]
        params = ", ".join(interp.params)
        head = f"(FUN {name}({params}) = " if interp.params else f"(FUN {name} = "
        if len(interp.cases) == 1 and not interp.cases[0].guard:
            lines.append(head + format_affine(interp.cases[0].value) + ")")
        else:
            shown = " | ".join(
                f"{_format_guard(case.guard)} -> {format_affine(case.value)}"
                for case in interp.cases
            )
            lines.append(head + "cases " + shown + ")")
    for name in _predicate_order(structure.predicates):
        interp = structure.predicates[name]
        params = ", ".join(interp.params)
        body = (
            _format_guard(interp.constraints)
            if interp.constraints
            else "0 <= 0"
        )
        lines.append(f"(PRED {name} ({params}) = {body})")
    return "\n".join(lines) + "\n"


def _predicate_order(predicates: Mapping[str, object]) -> list[str]:
    return [p for p in BUILTIN_PREDICATES if p in predicates]


def _domain_line(sig: Signature, sort: str, spec: str) -> str:
    if sig.single_sorted:
        return f"(DOMAIN {spec})"
    return f"(DOMAIN {sort} {spec})"


def _format_guard(constraints: tuple[LinearConstraint, ...]) -> str:
    return " /\\ ".join(format_constraint(c) for c in constraints)
