"""Integer affine arithmetic and Fourier-Motzkin elimination.

This module is the one owner of affine arithmetic.  ``AffineForm`` is a
term ``sum(c * x) + constant``; ``LinearConstraint`` is
``sum(coeff_i * x_i) <= bound`` or ``< bound``.  Coefficients, constants
and bounds are ints, as in the input formats, and a constraint is kept in
one canonical form: coefficients and bound divided by their gcd.  Turning a
comparison of two forms into constraints (``compare``, ``AffineForm.le``),
negating (``LinearConstraint.negate``), substituting forms for variables
(``subst``) and printing (``format_affine``, ``format_constraint``) live
here, so the rest of the package never reads coefficients itself.  An
equality is stored as two opposite ``<=`` constraints.

Feasibility is decided over the integers, the carriers of every structure
here.  The kernel holds every row tight (``_tighten``): non-strict, its
coefficients divided by their gcd and its bound floored, which keeps every
integer solution.  It tightens each row on entry and each Fourier-Motzkin
combination as it is made, so elimination projects the integer rows one
variable at a time and an empty projection proves that there is no integer
solution.  Integer back-substitution then searches the projections for an
integer point, backtracking out of empty ranges, so a "feasible" answer
always comes with an integer witness and an exhausted search is
"infeasible".  Two budgets guard the work: a constraint budget against the
doubly exponential blowup of elimination, and ``MAX_TRIES`` against an
unbounded search; exhausting either yields "unknown", never "infeasible".

``integer_tighten`` applies the same tightening to a whole system: a strict
``a.x < b`` becomes ``a.x <= b - 1``, which is equisatisfiable over the
integers and at least as constrained over the rationals.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator, Mapping

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNKNOWN = "unknown"

DEFAULT_CONSTRAINT_BUDGET = 50_000
MAX_TRIES = 10_000  # candidate values tried by integer back-substitution


@dataclass(frozen=True)
class LinearConstraint:
    """``sum(c * x for x, c in terms) REL bound`` with REL ``<`` or ``<=``.

    Stored in a canonical form: the gcd of the coefficients and the bound
    is divided out, so constraints that differ by a positive factor are
    also dataclass-equal.
    """

    terms: tuple[tuple[str, int], ...]
    bound: int
    strict: bool = False

    @staticmethod
    def make(coeffs: Mapping[str, int], bound: int, strict: bool = False) -> "LinearConstraint":
        terms = tuple(sorted((v, c) for v, c in coeffs.items() if c))
        if terms:
            g = gcd(bound, *(c for _, c in terms))
            if g != 1:
                terms = tuple((v, c // g) for v, c in terms)
                bound //= g
        return LinearConstraint(terms, bound, strict)

    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.terms)

    def coefficient(self, var: str) -> int:
        for v, c in self.terms:
            if v == var:
                return c
        return 0

    def satisfied_by(self, assignment: Mapping[str, int]) -> bool:
        total = sum(assignment[v] * c for v, c in self.terms)
        return total < self.bound if self.strict else total <= self.bound

    def negate(self) -> "LinearConstraint":
        """Complement of ``t <= b`` is ``-t < -b``; of ``t < b`` is ``-t <= -b``."""
        coeffs = {v: -c for v, c in self.terms}
        return LinearConstraint.make(coeffs, -self.bound, strict=not self.strict)

    def subst(self, mapping: Mapping[str, "AffineForm"]) -> "LinearConstraint":
        """Substitute affine forms for the constraint's variables."""
        coeffs, shift = _substitute(self.terms, mapping)
        return LinearConstraint.make(coeffs, self.bound - shift, self.strict)

    def __str__(self) -> str:
        return format_constraint(self)


@dataclass(frozen=True)
class AffineForm:
    """``sum(c * v) + constant`` with integer coefficients."""

    coeffs: tuple[tuple[str, int], ...]
    constant: int

    @staticmethod
    def make(coeffs: Mapping[str, int], constant: int = 0) -> "AffineForm":
        return AffineForm(tuple(sorted((v, c) for v, c in coeffs.items() if c)), constant)

    @staticmethod
    def variable(name: str) -> "AffineForm":
        return AffineForm(((name, 1),), 0)

    @staticmethod
    def const(value: int) -> "AffineForm":
        return AffineForm((), value)

    def negate(self) -> "AffineForm":
        return AffineForm(tuple((v, -c) for v, c in self.coeffs), -self.constant)

    def subst(self, mapping: Mapping[str, "AffineForm"]) -> "AffineForm":
        coeffs, shift = _substitute(self.coeffs, mapping)
        return AffineForm.make(coeffs, self.constant + shift)

    def le(self, bound: int, strict: bool = False) -> LinearConstraint:
        """``self <= bound`` (``<`` when strict) as a canonical constraint."""
        return LinearConstraint.make(dict(self.coeffs), bound - self.constant, strict)

    def eval_int(self, assignment: Mapping[str, int]) -> int:
        return sum((c * assignment[v] for v, c in self.coeffs), self.constant)


def _substitute(
    terms: tuple[tuple[str, int], ...], mapping: Mapping[str, AffineForm]
) -> tuple[dict[str, int], int]:
    """``sum(c * mapping[v])`` as its coefficients and its constant."""
    coeffs: dict[str, int] = {}
    shift = 0
    for v, c in terms:
        image = mapping[v]
        shift += c * image.constant
        for u, d in image.coeffs:
            coeffs[u] = coeffs.get(u, 0) + c * d
    return coeffs, shift


def equality(coeffs: Mapping[str, int], bound: int) -> tuple[LinearConstraint, LinearConstraint]:
    """``sum = bound`` as the pair of opposite ``<=`` constraints."""
    le = LinearConstraint.make(coeffs, bound)
    ge = LinearConstraint.make({v: -c for v, c in coeffs.items()}, -bound)
    return le, ge


RELATIONS = ("<=", "<", ">=", ">", "=")


def compare(left: AffineForm, relation: str, right: AffineForm) -> tuple[LinearConstraint, ...]:
    """``left REL right``, REL one of ``RELATIONS``, as canonical constraints."""
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation '{relation}'")
    if relation in (">=", ">"):
        left, right = right, left
        relation = "<=" if relation == ">=" else "<"
    diff = dict(left.coeffs)
    for v, c in right.coeffs:
        diff[v] = diff.get(v, 0) - c
    bound = right.constant - left.constant
    if relation == "=":
        return equality(diff, bound)
    return (LinearConstraint.make(diff, bound, strict=relation == "<"),)


def format_affine(form: AffineForm) -> str:
    """The form in model-file syntax, e.g. ``2*x - y + 1``."""
    parts: list[str] = []
    for v, c in form.coeffs:
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
    if not parts:
        return str(constant)
    if constant > 0:
        parts.append(f"+ {constant}")
    elif constant < 0:
        parts.append(f"- {-constant}")
    return " ".join(parts)


def format_constraint(constraint: LinearConstraint) -> str:
    """The constraint in model-file syntax, e.g. ``x - y <= 0``."""
    lhs = format_affine(AffineForm(constraint.terms, 0))
    relation = "<" if constraint.strict else "<="
    return f"{lhs} {relation} {constraint.bound}"


@dataclass(frozen=True)
class ConstraintSystem:
    variables: tuple[str, ...]
    constraints: tuple[LinearConstraint, ...]

    def __post_init__(self) -> None:
        declared = set(self.variables)
        for c in self.constraints:
            for v in c.variables():
                if v not in declared:
                    raise ValueError(f"constraint mentions undeclared variable '{v}'")

    def satisfied_by(self, assignment: Mapping[str, int]) -> bool:
        return all(c.satisfied_by(assignment) for c in self.constraints)


@dataclass(frozen=True)
class Feasibility:
    status: str
    witness: dict[str, int] | None = None
    reason: str | None = None


def solve(system: ConstraintSystem, *, max_constraints: int = DEFAULT_CONSTRAINT_BUDGET) -> Feasibility:
    """Decide integer feasibility by Fourier-Motzkin elimination and integer back-substitution.

    Each step eliminates the remaining variable with the fewest
    lower-times-upper bound combinations (a standard blowup heuristic),
    the first declared on a tie, so the run is deterministic.
    """
    constraints = _dedupe(map(_tighten, system.constraints))
    if constraints is None:
        return Feasibility(INFEASIBLE)
    generated = len(constraints)
    frames: list[tuple[str, tuple[LinearConstraint, ...]]] = []
    remaining = list(system.variables)
    while remaining:
        var = min(remaining, key=lambda v: _combination_count(constraints, v))
        remaining.remove(var)
        lowers, uppers, rest = [], [], []
        for c in constraints:
            a = c.coefficient(var)
            if a > 0:
                uppers.append(c)
            elif a < 0:
                lowers.append(c)
            else:
                rest.append(c)
        frames.append((var, tuple(lowers + uppers)))
        new = list(rest)
        for lo in lowers:
            for up in uppers:
                new.append(_combine(lo, up, var))
        generated += len(new)
        if generated > max_constraints:
            return Feasibility(UNKNOWN, reason=f"budget exceeded ({max_constraints} constraints)")
        constraints = _dedupe(new)
        if constraints is None:
            return Feasibility(INFEASIBLE)
    outcome = _back_substitute(frames)
    assert outcome.witness is None or system.satisfied_by(outcome.witness), "internal error"
    return outcome


def _combination_count(constraints: tuple[LinearConstraint, ...], var: str) -> int:
    lowers = uppers = 0
    for c in constraints:
        a = c.coefficient(var)
        if a > 0:
            uppers += 1
        elif a < 0:
            lowers += 1
    return lowers * uppers


def _combine(lower: LinearConstraint, upper: LinearConstraint, var: str) -> LinearConstraint:
    """Positive combination of a lower and an upper bound eliminating ``var``."""
    cl = lower.coefficient(var)  # < 0
    cu = upper.coefficient(var)  # > 0
    coeffs: dict[str, int] = {}
    for v, c in lower.terms:
        if v != var:
            coeffs[v] = coeffs.get(v, 0) + cu * c
    for v, c in upper.terms:
        if v != var:
            coeffs[v] = coeffs.get(v, 0) + (-cl) * c
    return _tighten(LinearConstraint.make(coeffs, cu * lower.bound + (-cl) * upper.bound))


def _tighten(c: LinearConstraint) -> LinearConstraint:
    """``c`` as a tight row: non-strict, coefficients divided by their gcd, bound floored.

    The tight row has the same integer solutions as ``c``; ``c`` itself is
    returned when it is already tight.
    """
    g = gcd(*(a for _, a in c.terms)) or 1
    if g == 1 and not c.strict:
        return c
    return LinearConstraint(tuple((v, a // g) for v, a in c.terms), (c.bound - c.strict) // g)


def _dedupe(constraints: Iterable[LinearConstraint]) -> tuple[LinearConstraint, ...] | None:
    """Keep the least bound of each direction; None when a constant row is false.

    The rows are tight (``_tighten``), so rows of one direction have equal
    terms and the least bound dominates the others.
    """
    best: dict[tuple[tuple[str, int], ...], LinearConstraint] = {}
    for c in constraints:
        if not c.terms:
            if c.bound < 0:
                return None
            continue
        kept = best.get(c.terms)
        if kept is None or c.bound < kept.bound:
            best[c.terms] = c
    return tuple(best.values())


def _back_substitute(frames: list[tuple[str, tuple[LinearConstraint, ...]]]) -> Feasibility:
    """Search integer values for the eliminated variables, last eliminated first.

    A variable ranges over the integers its frame's rows allow, given the
    values already chosen, and tries them nearest 0 first; an empty range
    backtracks to the previous variable's next candidate (Land & Doig
    1960).  The search runs in rounds of growing radius, each variable
    trying only the integers within the radius of its first candidate, so
    that no unbounded range hides a point behind it (iterative deepening).
    Every integer solution lies within some radius, so a round that cut no
    range short and found none proves "infeasible"; more than
    ``MAX_TRIES`` candidates in all end "unknown".
    """
    order = frames[::-1]
    tries = radius = 0
    while True:
        values: dict[str, int] = {}
        chosen: list[tuple[str, Iterator[int]]] = []  # assigned variables, candidates left
        cut = False
        while len(chosen) < len(order):
            var, rows = order[len(chosen)]
            candidates, narrowed = _candidates(*_integer_range(var, rows, values), radius)
            cut = cut or narrowed
            chosen.append((var, candidates))
            while chosen and (value := next(chosen[-1][1], None)) is None:
                chosen.pop()
            if not chosen:
                break
            tries += 1
            if tries > MAX_TRIES:
                return Feasibility(UNKNOWN, reason=f"integer search budget exceeded ({MAX_TRIES} tries)")
            values[chosen[-1][0]] = value
        else:
            return Feasibility(FEASIBLE, witness=values)
        if not cut:
            return Feasibility(INFEASIBLE)
        radius = 2 * radius + 1


def _integer_range(
    var: str, rows: tuple[LinearConstraint, ...], values: Mapping[str, int]
) -> tuple[int | None, int | None]:
    """The least and greatest integer ``var`` may take; ``None`` where unbounded."""
    lo = hi = None
    for c in rows:
        a = c.coefficient(var)
        slack = c.bound - sum(values[v] * k for v, k in c.terms if v != var)
        if a > 0:
            top = slack // a
            hi = top if hi is None else min(hi, top)
        else:
            bottom = -(slack // -a)
            lo = bottom if lo is None else max(lo, bottom)
    return lo, hi


def _candidates(lo: int | None, hi: int | None, radius: int) -> tuple[Iterator[int], bool]:
    """The integers of ``[lo, hi]`` within ``radius`` of its integer nearest 0; whether any are cut.

    ``None`` leaves a side unbounded.  The candidates come nearest 0 first,
    the greater first on a tie.
    """
    if lo is not None and hi is not None and lo > hi:
        return iter(()), False
    start = 0 if lo is None else max(0, lo)
    if hi is not None:
        start = min(start, hi)
    low = start - radius if lo is None else max(lo, start - radius)
    high = start + radius if hi is None else min(hi, start + radius)
    reach = max(high - start, start - low)
    offsets = itertools.chain.from_iterable((d, -d) for d in range(1, reach + 1))
    values = itertools.chain((start,), (start + d for d in offsets if low <= start + d <= high))
    return values, (low, high) != (lo, hi)


def integer_tighten(system: ConstraintSystem) -> ConstraintSystem:
    """The system with every constraint tight (``_tighten``).

    The result has the same integer solutions and no more rational ones;
    ``solve`` tightens its input the same way, so the two decide alike.
    """
    return ConstraintSystem(system.variables, tuple(map(_tighten, system.constraints)))
