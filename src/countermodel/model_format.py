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

Expressions are affine with integer literals only.  ``otherwise`` stands
for the complement of the previous guards and is accepted only when that
complement is itself a single conjunction (every previous guard must be a
single inequality).  Documents whose carriers are all finite parse to a
finite structure by default; any ray carrier forces the symbolic backend,
and the backend can also be requested explicitly.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import ModelError, ParseError
from .lexer import TokenStream, tokenize
from .linear import LinearConstraint
from .structures import (
    AffineForm,
    Carrier,
    FiniteStructure,
    Interval,
    PiecewiseCase,
    PiecewiseFunction,
    PredicateInterp,
    Ray,
    Structure,
    SymbolicStructure,
    negate_constraint,
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
    while not stream.done():
        stream.expect("(")
        keyword = stream.expect_ident().text.upper()
        if keyword == "DOMAIN":
            domain = _parse_domain(stream, sig)
            sort = domain.sort if domain.sort is not None else sig.sorts[0]
            if sort not in sig.sorts:
                raise stream.error(f"unknown sort '{sort}'")
            if sort in domains:
                raise stream.error(f"duplicate DOMAIN for sort '{sort}'")
            domains[sort] = domain
            stream.expect(")")
        elif keyword == "FUN":
            fun = _parse_fun(stream, sig)
            if fun.name in funs:
                raise stream.error(f"duplicate interpretation of '{fun.name}'")
            funs[fun.name] = fun
            stream.expect(")")
        elif keyword == "PRED":
            pred = _parse_pred(stream)
            if pred.name in preds:
                raise stream.error(f"duplicate interpretation of '{pred.name}'")
            preds[pred.name] = pred
            stream.expect(")")
        else:
            raise stream.error(f"unknown block '{keyword}'")
    return domains, funs, preds


def _parse_domain(stream: TokenStream, sig: Signature) -> _Domain:
    sort: str | None = None
    if stream.at("ident"):
        sort = stream.expect_ident().text
    if stream.at("{"):
        stream.expect("{")
        values = [_parse_int(stream)]
        while stream.at(","):
            stream.expect(",")
            values.append(_parse_int(stream))
        stream.expect("}")
        return _Domain(sort, "set", values=tuple(sorted(set(values))))
    if stream.at("["):
        stream.expect("[")
        lo = _parse_int(stream)
        stream.expect(",")
        hi = _parse_int(stream)
        stream.expect("]")
        if lo > hi:
            raise stream.error(f"empty interval [{lo}, {hi}]")
        return _Domain(sort, "interval", lo=lo, hi=hi)
    if stream.at(">="):
        stream.expect(">=")
        lo = _parse_int(stream)
        return _Domain(sort, "ray", lo=lo)
    raise stream.error("expected '{', '[', or '>=' in DOMAIN")


def _parse_fun(stream: TokenStream, sig: Signature) -> _Fun:
    name_token = stream.expect_ident()
    name = name_token.text
    if name not in sig.functions:
        raise ParseError(f"unknown function symbol '{name}'", name_token.span(stream.file))
    params: list[str] = []
    if stream.at("("):
        stream.expect("(")
        if not stream.at(")"):
            params.append(stream.expect_ident().text)
            while stream.at(","):
                stream.expect(",")
                params.append(stream.expect_ident().text)
        stream.expect(")")
    arity = len(sig.functions[name][0])
    if params and len(params) != arity:
        raise ParseError(
            f"'{name}' has arity {arity}, got {len(params)} parameter(s)",
            name_token.span(stream.file),
        )
    if not params:
        params = [f"x{i + 1}" for i in range(arity)]
    stream.expect("=")
    if stream.at_ident("table"):
        stream.expect_ident("table")
        table: dict[tuple[int, ...], int] = {}
        while True:
            stream.expect("(")
            key: list[int] = []
            if not stream.at(")"):
                key.append(_parse_int(stream))
                while stream.at(","):
                    stream.expect(",")
                    key.append(_parse_int(stream))
            stream.expect(")")
            stream.expect("->")
            value = _parse_int(stream)
            if len(key) != arity:
                raise stream.error(f"table key arity mismatch for '{name}'")
            table[tuple(key)] = value
            if stream.at("|"):
                stream.expect("|")
            else:
                break
        return _Fun(name, tuple(params), table=table)
    if stream.at_ident("cases"):
        stream.expect_ident("cases")
        cases: list[_Case] = []
        while True:
            if stream.at_ident("otherwise"):
                stream.expect_ident("otherwise")
                guard = None
            else:
                guard = tuple(_parse_constraints(stream, params))
            stream.expect("->")
            cases.append(_parse_case_value(stream, params, guard))
            if stream.at("|"):
                stream.expect("|")
            else:
                break
        return _Fun(name, tuple(params), cases=cases)
    case = _parse_case_value(stream, params, guard=())
    return _Fun(name, tuple(params), cases=[case])


def _parse_case_value(
    stream: TokenStream, params: list[str], guard: tuple[LinearConstraint, ...] | None
) -> _Case:
    if stream.at_ident("clamp"):
        stream.expect_ident("clamp")
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
    params: list[str] = []
    if stream.at("("):
        stream.expect("(")
        params.append(stream.expect_ident().text)
        while stream.at(","):
            stream.expect(",")
            params.append(stream.expect_ident().text)
        stream.expect(")")
    stream.expect("=")
    if stream.at_ident("pairs") or stream.at_ident("empty"):
        if stream.at_ident("empty"):
            stream.expect_ident("empty")
            return _Pred(name, tuple(params) or ("x", "y"), pairs=frozenset())
        stream.expect_ident("pairs")
        pairs: set[tuple[int, ...]] = set()
        while stream.at("("):
            stream.expect("(")
            tup = [_parse_int(stream)]
            while stream.at(","):
                stream.expect(",")
                tup.append(_parse_int(stream))
            stream.expect(")")
            pairs.add(tuple(tup))
        return _Pred(name, tuple(params) or ("x", "y"), pairs=frozenset(pairs))
    if not params:
        params = ["x", "y"]
    constraints = tuple(_parse_constraints(stream, params))
    return _Pred(name, tuple(params), constraints=constraints)


# -- expression and constraint parsing ------------------------------------------


def _parse_int(stream: TokenStream) -> int:
    sign = 1
    if stream.at("-"):
        stream.expect("-")
        sign = -1
    token = stream.expect("int")
    return sign * int(token.text)


def _parse_affine(stream: TokenStream, params: Iterable[str]) -> AffineForm:
    allowed = set(params)
    coeffs: dict[str, Fraction] = {}
    constant = Fraction(0)
    sign = 1
    first = True
    while True:
        if stream.at("-"):
            stream.expect("-")
            sign = -sign
            first = False
            continue
        if stream.at("+"):
            if first:
                raise stream.error("expression cannot start with '+'")
            stream.expect("+")
            continue
        if stream.at("int"):
            value = int(stream.expect("int").text)
            if stream.at("*"):
                stream.expect("*")
                name = stream.expect_ident().text
                if name not in allowed:
                    raise stream.error(f"unknown parameter '{name}' (non-affine expressions are rejected)")
                coeffs[name] = coeffs.get(name, Fraction(0)) + sign * value
            else:
                constant += sign * value
        elif stream.at("ident"):
            name = stream.expect_ident().text
            if name not in allowed:
                raise stream.error(f"unknown parameter '{name}' (non-affine expressions are rejected)")
            if stream.at("*"):
                raise stream.error("non-affine expression: variable products are not supported")
            coeffs[name] = coeffs.get(name, Fraction(0)) + sign
        else:
            raise stream.error("expected an affine expression")
        first = False
        sign = 1
        token = stream.peek()
        if token is None or token.kind not in ("+", "-"):
            break
    return AffineForm.make(coeffs, constant)


_RELATIONS = ("<=", "<", ">=", ">", "=")


def _parse_constraints(stream: TokenStream, params: Iterable[str]) -> list[LinearConstraint]:
    params = list(params)
    out: list[LinearConstraint] = []
    while True:
        left = _parse_affine(stream, params)
        token = stream.peek()
        if token is None or token.kind not in _RELATIONS:
            raise stream.error("expected a comparison operator")
        stream.next()
        right = _parse_affine(stream, params)
        out.extend(_comparison(left, token.kind, right))
        if stream.at("/\\"):
            stream.expect("/\\")
        else:
            break
    return out


def _comparison(left: AffineForm, relation: str, right: AffineForm) -> list[LinearConstraint]:
    """``left REL right`` as constraints ``sum <= / < bound``."""
    if relation in (">=", ">"):
        left, right = right, left
        relation = "<=" if relation == ">=" else "<"
    diff_coeffs: dict[str, Fraction] = dict(left.coeffs)
    for v, c in right.coeffs:
        diff_coeffs[v] = diff_coeffs.get(v, Fraction(0)) - c
    bound = right.constant - left.constant
    if relation == "=":
        first = LinearConstraint.make(diff_coeffs, bound)
        second = LinearConstraint.make({v: -c for v, c in diff_coeffs.items()}, -bound)
        return [first, second]
    return [LinearConstraint.make(diff_coeffs, bound, strict=(relation == "<"))]


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
            guard = tuple(negate_constraint(g[0]) for g in previous)
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
        piecewise = PiecewiseFunction(fun.params, _resolve_cases(fun, fun.params))
        table = {}
        for point in itertools.product(*(carriers[s] for s in arg_sorts)):
            try:
                table[point] = piecewise.eval(point)
            except ModelError as exc:
                raise ParseError(f"'{name}': {exc}") from exc
        functions[name] = table
    predicates: dict[str, frozenset[tuple[int, ...]]] = {}
    for name, pred in preds.items():
        if pred.pairs is not None:
            predicates[name] = pred.pairs
            continue
        assert pred.constraints is not None
        interp = PredicateInterp(pred.params, pred.constraints)
        arity = len(pred.params)
        predicates[name] = frozenset(
            point
            for point in itertools.product(universe, repeat=arity)
            if interp.holds(point)
        )
    return FiniteStructure(sig, carriers, functions, predicates)


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


def format_affine(form: AffineForm) -> str:
    parts: list[str] = []
    for v, c in form.coeffs:
        if c.denominator != 1:
            raise ModelError(f"cannot serialize non-integer coefficient {c}")
        c = int(c)
        if not parts:
            if c == 1:
                parts.append(v)
            elif c == -1:
                parts.append(f"-{v}")
            else:
                parts.append(f"{c}*{v}")
        else:
            sign = "+" if c > 0 else "-"
            magnitude = abs(c)
            parts.append(f"{sign} {v}" if magnitude == 1 else f"{sign} {magnitude}*{v}")
    constant = form.constant
    if constant.denominator != 1:
        raise ModelError(f"cannot serialize non-integer constant {constant}")
    constant = int(constant)
    if not parts:
        return str(constant)
    if constant > 0:
        parts.append(f"+ {constant}")
    elif constant < 0:
        parts.append(f"- {-constant}")
    return " ".join(parts)


def format_constraint(constraint: LinearConstraint) -> str:
    # Scale away a fractional bound so the printed form stays integer-only;
    # parsing normalizes back to the same canonical constraint.
    scale = constraint.bound.denominator
    terms = tuple((v, c * scale) for v, c in constraint.terms)
    lhs = format_affine(AffineForm(terms, Fraction(0)))
    relation = "<" if constraint.strict else "<="
    return f"{lhs} {relation} {int(constraint.bound * scale)}"


def _format_guard(constraints: tuple[LinearConstraint, ...]) -> str:
    return " /\\ ".join(format_constraint(c) for c in constraints)
