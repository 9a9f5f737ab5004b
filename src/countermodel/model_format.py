"""Parser and serializer for structure (model) files.

A structure document lists one DOMAIN block per sort, one FUN block per
function symbol, and one PRED block per predicate::

    (DOMAIN >= -1)                ; ray; sort name required when sorted
    (DOMAIN User [0, 3])          ; interval
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
single inequality).  Documents whose carriers are all finite parse to a
finite structure by default; any ray carrier forces the symbolic backend,
and the backend can also be requested explicitly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import ModelError, ParseError
from .lexer import TokenStream, tokenize
from .linear import (
    RELATIONS,
    AffineForm,
    LinearConstraint,
    compare,
    format_affine,
    format_constraint,
)
from .structures import (
    Carrier,
    FiniteStructure,
    Interval,
    PiecewiseCase,
    PiecewiseFunction,
    PredicateInterp,
    Ray,
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


# -- document form -------------------------------------------------------------


@dataclass
class _Domain:
    sort: str | None
    kind: str  # "set" | "interval" | "ray"
    values: tuple[int, ...] = ()
    lo: int = 0
    hi: int = 0


@dataclass
class _Case:
    guard: tuple[LinearConstraint, ...] | None  # None means "otherwise"
    value: AffineForm | None = None
    clamp: tuple[AffineForm, int, int] | None = None


@dataclass
class _Fun:
    name: str
    params: tuple[str, ...]
    cases: list[_Case] | None = None
    table: dict[tuple[int, ...], int] | None = None


@dataclass
class _Pred:
    name: str
    params: tuple[str, ...]
    constraints: tuple[LinearConstraint, ...] | None = None
    pairs: frozenset[tuple[int, ...]] | None = None


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
    domains, funs, preds = _parse_document(text, sig, file)
    if backend not in (AUTO, FINITE, SYMBOLIC):
        raise ValueError(f"unknown backend '{backend}'")
    if backend == AUTO:
        backend = SYMBOLIC if any(d.kind == "ray" for d in domains.values()) else FINITE

    for name in sig.functions:
        if name not in funs:
            raise ParseError(f"missing interpretation of function '{name}'")
    for name in required_predicates:
        if name not in preds:
            raise ParseError(f"missing interpretation of predicate '{name}'")
    for sort in sig.sorts:
        if sort not in domains:
            raise ParseError(f"missing DOMAIN for sort '{sort}'")

    if backend == FINITE:
        return _assemble_finite(sig, domains, funs, preds)
    return _assemble_symbolic(sig, domains, funs, preds)


def _parse_document(text: str, sig: Signature, file: str | None):
    stream = TokenStream(tokenize(text, file), file)
    domains: dict[str, _Domain] = {}
    funs: dict[str, _Fun] = {}
    preds: dict[str, _Pred] = {}
    for keyword in stream.blocks():
        if keyword == "DOMAIN":
            domain = _parse_domain(stream)
            sort = domain.sort if domain.sort is not None else sig.sorts[0]
            if sort not in sig.sorts:
                raise stream.error(f"unknown sort '{sort}'")
            if sort in domains:
                raise stream.error(f"duplicate DOMAIN for sort '{sort}'")
            domains[sort] = domain
        elif keyword == "FUN":
            fun = _parse_fun(stream, sig)
            if fun.name in funs:
                raise stream.error(f"duplicate interpretation of '{fun.name}'")
            funs[fun.name] = fun
        elif keyword == "PRED":
            pred = _parse_pred(stream)
            if pred.name in preds:
                raise stream.error(f"duplicate interpretation of '{pred.name}'")
            preds[pred.name] = pred
        else:
            raise stream.error(f"unknown block '{keyword}'")
    return domains, funs, preds


def _parse_domain(stream: TokenStream) -> _Domain:
    token = stream.accept("ident")
    sort = token.text if token else None
    if stream.at("{"):
        values = stream.items(_parse_int, "{", "}")
        if not values:
            raise stream.error("empty DOMAIN set")
        return _Domain(sort, "set", values=tuple(sorted(set(values))))
    if stream.accept("["):
        lo = _parse_int(stream)
        stream.expect(",")
        hi = _parse_int(stream)
        stream.expect("]")
        if lo > hi:
            raise stream.error(f"empty interval [{lo}, {hi}]")
        return _Domain(sort, "interval", lo=lo, hi=hi)
    if stream.accept(">="):
        return _Domain(sort, "ray", lo=_parse_int(stream))
    raise stream.error("expected '{', '[', or '>=' in DOMAIN")


def _parse_fun(stream: TokenStream, sig: Signature) -> _Fun:
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
        return _Fun(name, tuple(params), table=table)
    if stream.accept("ident", "cases"):

        def case(stream: TokenStream) -> _Case:
            otherwise = stream.accept("ident", "otherwise")
            guard = None if otherwise else tuple(_parse_constraints(stream, params))
            stream.expect("->")
            return _parse_case_value(stream, params, guard)

        return _Fun(name, tuple(params), cases=stream.separated(case, "|"))
    case = _parse_case_value(stream, params, guard=())
    return _Fun(name, tuple(params), cases=[case])


def _parse_case_value(
    stream: TokenStream, params: list[str], guard: tuple[LinearConstraint, ...] | None
) -> _Case:
    if stream.accept("ident", "clamp"):
        stream.expect("(")
        form = _parse_affine(stream, params)
        stream.expect(",")
        lo = _parse_int(stream)
        stream.expect(",")
        hi = _parse_int(stream)
        stream.expect(")")
        return _Case(guard, clamp=(form, lo, hi))
    return _Case(guard, value=_parse_affine(stream, params))


def _parse_pred(stream: TokenStream) -> _Pred:
    token = stream.peek()
    if token is None or not (token.kind == "ident" or token.kind in BUILTIN_PREDICATES):
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
        return _Pred(name, tuple(params), pairs=frozenset())
    if stream.accept("ident", "pairs"):
        pairs: set[tuple[int, ...]] = set()
        while stream.at("("):
            pair = tuple(stream.items(_parse_int))
            if len(pair) != 2:
                raise stream.error(f"predicate '{name}' holds pairs, got {pair}")
            pairs.add(pair)
        return _Pred(name, tuple(params), pairs=frozenset(pairs))
    constraints = tuple(_parse_constraints(stream, params))
    return _Pred(name, tuple(params), constraints=constraints)


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
    return sign * int(stream.expect("int").text)


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
            constant += sign * int(number.text)
        elif number or stream.at("ident"):
            name = stream.expect_ident().text
            if name not in allowed:
                raise stream.error(f"unknown parameter '{name}' (non-affine expressions are rejected)")
            if not number and stream.at("*"):
                raise stream.error("non-affine expression: variable products are not supported")
            coeffs[name] = coeffs.get(name, 0) + sign * (int(number.text) if number else 1)
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


def _resolve_cases(fun: _Fun, params: tuple[str, ...]) -> tuple[PiecewiseCase, ...]:
    assert fun.cases is not None
    resolved: list[PiecewiseCase] = []
    previous: list[tuple[LinearConstraint, ...]] = []
    for case in fun.cases:
        if case.guard is None:
            for g in previous:
                if len(g) != 1:
                    raise ParseError(
                        f"'otherwise' in '{fun.name}' needs every previous guard to be "
                        "a single inequality"
                    )
            guard = tuple(g[0].negate() for g in previous)
        else:
            guard = case.guard
            previous.append(guard)
        if case.clamp is not None:
            form, lo, hi = case.clamp
            try:
                clamped = PiecewiseFunction.clamped(params, form, lo, hi)
            except ModelError as exc:
                raise ParseError(str(exc)) from exc
            for sub in clamped.cases:
                resolved.append(PiecewiseCase(guard + sub.guard, sub.value))
        else:
            assert case.value is not None
            resolved.append(PiecewiseCase(guard, case.value))
    return tuple(resolved)


def _carrier_of(domain: _Domain) -> Carrier:
    if domain.kind == "ray":
        return Ray(domain.lo)
    if domain.kind == "interval":
        return Interval(domain.lo, domain.hi)
    values = domain.values
    if values == tuple(range(values[0], values[-1] + 1)):
        return Interval(values[0], values[-1])
    raise ParseError(
        "an explicit carrier must be a contiguous integer range for the symbolic backend"
    )


def _assemble_symbolic(
    sig: Signature,
    domains: dict[str, _Domain],
    funs: dict[str, _Fun],
    preds: dict[str, _Pred],
) -> SymbolicStructure:
    carriers = {sort: _carrier_of(domain) for sort, domain in domains.items()}
    functions: dict[str, PiecewiseFunction] = {}
    for name, fun in funs.items():
        if fun.table is not None:
            raise ParseError(
                f"'{name}': explicit tables are not supported by the symbolic backend"
            )
        functions[name] = PiecewiseFunction(fun.params, _resolve_cases(fun, fun.params))
    predicates: dict[str, PredicateInterp] = {}
    for name, pred in preds.items():
        if pred.pairs is not None:
            raise ParseError(
                f"'{name}': explicit pair sets are not supported by the symbolic backend"
            )
        assert pred.constraints is not None
        predicates[name] = PredicateInterp(pred.params, pred.constraints)
    return SymbolicStructure(sig, carriers, functions, predicates)


def _assemble_finite(
    sig: Signature,
    domains: dict[str, _Domain],
    funs: dict[str, _Fun],
    preds: dict[str, _Pred],
) -> FiniteStructure:
    carriers: dict[str, tuple[int, ...]] = {}
    for sort, domain in domains.items():
        if domain.kind == "ray":
            raise ParseError(
                f"sort '{sort}' has an infinite carrier; use the symbolic backend"
            )
        size = domain.hi - domain.lo + 1 if domain.kind == "interval" else len(domain.values)
        if size > MAX_FINITE_CARRIER:
            raise ParseError(
                f"sort '{sort}' has {size} carrier values, more than the finite backend's "
                f"{MAX_FINITE_CARRIER}; use --backend symbolic"
            )
        if domain.kind == "interval":
            carriers[sort] = tuple(range(domain.lo, domain.hi + 1))
        else:
            carriers[sort] = domain.values
    universe = sorted({v for vs in carriers.values() for v in vs})
    if len(universe) > MAX_FINITE_CARRIER:
        raise ParseError(
            f"the carriers of sorts {', '.join(carriers)} hold {len(universe)} values together, "
            f"more than the finite backend's {MAX_FINITE_CARRIER}; use --backend symbolic"
        )
    functions: dict[str, dict[tuple[int, ...], int]] = {}
    piecewise: dict[str, PiecewiseFunction] = {}
    for name, fun in funs.items():
        arg_sorts, result = sig.functions[name]
        if fun.table is not None:
            for key, value in fun.table.items():
                for v, s in zip(key, arg_sorts):
                    if v not in carriers[s]:
                        raise ParseError(
                            f"table key {key} of '{name}' is outside the declared carrier"
                        )
                if value not in carriers[result]:
                    raise ParseError(
                        f"table value {value} of '{name}' is outside the declared carrier"
                    )
            functions[name] = dict(fun.table)
            continue
        piecewise[name] = PiecewiseFunction(fun.params, _resolve_cases(fun, fun.params))
    predicates = {name: pred.pairs for name, pred in preds.items() if pred.pairs is not None}
    linear = {
        name: PredicateInterp(pred.params, pred.constraints)
        for name, pred in preds.items()
        if pred.constraints is not None
    }
    try:
        tables, extensions = tabulate(sig, carriers, piecewise, linear)
    except ModelError as exc:
        raise ParseError(str(exc)) from exc
    return FiniteStructure(sig, carriers, functions | tables, predicates | extensions)


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
        if isinstance(carrier, Ray):
            lines.append(_domain_line(sig, sort, f">= {carrier.lo}"))
        else:
            lines.append(_domain_line(sig, sort, f"[{carrier.lo}, {carrier.hi}]"))
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
    order = [p for p in BUILTIN_PREDICATES if p in predicates]
    order.extend(sorted(p for p in predicates if p not in BUILTIN_PREDICATES))
    return order


def _domain_line(sig: Signature, sort: str, spec: str) -> str:
    if sig.single_sorted:
        return f"(DOMAIN {spec})"
    return f"(DOMAIN {sort} {spec})"


def _format_guard(constraints: tuple[LinearConstraint, ...]) -> str:
    return " /\\ ".join(format_constraint(c) for c in constraints)
