"""Rational Fourier-Motzkin kernel, kept as the reference for ``linear``.

This is the ``Fraction``-based kernel that the integer rows of
``countermodel.linear`` replaced, kept verbatim apart from this docstring
and an absolute import.  Its canonical constraints keep integral
coefficients but a rational bound; the integer kernel divides coefficients
and bound by their common gcd instead.  Statuses, witnesses, reasons and
printed constraints of the two kernels must agree.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, lcm
from typing import Iterable, Mapping

from countermodel.errors import ModelError

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNKNOWN = "unknown"

DEFAULT_CONSTRAINT_BUDGET = 50_000


@dataclass(frozen=True)
class LinearConstraint:
    """``sum(c * x for x, c in terms) REL bound`` with REL ``<`` or ``<=``.

    Stored in a canonical integral form: coefficients and bound are scaled
    to integers with the coefficients' gcd divided out, so structurally
    equal constraints are also dataclass-equal.
    """

    terms: tuple[tuple[str, Fraction], ...]
    bound: Fraction
    strict: bool = False

    @staticmethod
    def make(
        coeffs: Mapping[str, Fraction | int], bound: Fraction | int, strict: bool = False
    ) -> "LinearConstraint":
        terms = tuple(
            sorted((v, Fraction(c)) for v, c in coeffs.items() if Fraction(c) != 0)
        )
        bound = Fraction(bound)
        if terms:
            scale = lcm(*(f.denominator for _, f in terms), bound.denominator)
            ints = [int(c * scale) for _, c in terms]
            g = gcd(*ints)
            factor = Fraction(scale, g)
            terms = tuple((v, c * factor) for v, c in terms)
            bound = bound * factor
        return LinearConstraint(terms, bound, strict)

    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.terms)

    def coefficient(self, var: str) -> Fraction:
        for v, c in self.terms:
            if v == var:
                return c
        return Fraction(0)

    def satisfied_by(self, assignment: Mapping[str, Fraction | int]) -> bool:
        total = sum((Fraction(assignment[v]) * c for v, c in self.terms), Fraction(0))
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
    """``sum(c * v) + constant`` with exact rational coefficients."""

    coeffs: tuple[tuple[str, Fraction], ...]
    constant: Fraction

    @staticmethod
    def make(coeffs: Mapping[str, Fraction | int], constant: Fraction | int = 0) -> "AffineForm":
        cleaned = tuple(
            sorted((v, Fraction(c)) for v, c in coeffs.items() if Fraction(c) != 0)
        )
        return AffineForm(cleaned, Fraction(constant))

    @staticmethod
    def variable(name: str) -> "AffineForm":
        return AffineForm(((name, Fraction(1)),), Fraction(0))

    @staticmethod
    def const(value: Fraction | int) -> "AffineForm":
        return AffineForm((), Fraction(value))

    def negate(self) -> "AffineForm":
        return AffineForm(tuple((v, -c) for v, c in self.coeffs), -self.constant)

    def subst(self, mapping: Mapping[str, "AffineForm"]) -> "AffineForm":
        coeffs, shift = _substitute(self.coeffs, mapping)
        return AffineForm.make(coeffs, self.constant + shift)

    def le(self, bound: Fraction | int, strict: bool = False) -> LinearConstraint:
        """``self <= bound`` (``<`` when strict) as a canonical constraint."""
        return LinearConstraint.make(dict(self.coeffs), bound - self.constant, strict)

    def eval_int(self, assignment: Mapping[str, int]) -> int:
        value = sum((c * assignment[v] for v, c in self.coeffs), self.constant)
        if value.denominator != 1:
            raise ModelError(f"affine form evaluates to non-integer {value}")
        return int(value)


def _substitute(
    terms: tuple[tuple[str, Fraction], ...], mapping: Mapping[str, AffineForm]
) -> tuple[dict[str, Fraction], Fraction]:
    """``sum(c * mapping[v])`` as its coefficients and its constant."""
    coeffs: dict[str, Fraction] = {}
    shift = Fraction(0)
    for v, c in terms:
        image = mapping[v]
        shift += c * image.constant
        for u, d in image.coeffs:
            coeffs[u] = coeffs.get(u, Fraction(0)) + c * d
    return coeffs, shift


def equality(coeffs: Mapping[str, Fraction | int], bound: Fraction | int) -> tuple[LinearConstraint, LinearConstraint]:
    """``sum = bound`` as the pair of opposite ``<=`` constraints."""
    le = LinearConstraint.make(coeffs, bound)
    ge = LinearConstraint.make({v: -c for v, c in coeffs.items()}, -Fraction(bound))
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
        diff[v] = diff.get(v, Fraction(0)) - c
    bound = right.constant - left.constant
    if relation == "=":
        return equality(diff, bound)
    return (LinearConstraint.make(diff, bound, strict=relation == "<"),)


def format_affine(form: AffineForm) -> str:
    """The form in model-file syntax, e.g. ``2*x - y + 1``; integers only."""
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
    """The constraint in model-file syntax, e.g. ``x - y <= 0``."""
    # Scale away a fractional bound so the printed form stays integer-only;
    # parsing normalizes back to the same canonical constraint.
    scale = constraint.bound.denominator
    terms = tuple((v, c * scale) for v, c in constraint.terms)
    lhs = format_affine(AffineForm(terms, Fraction(0)))
    relation = "<" if constraint.strict else "<="
    return f"{lhs} {relation} {int(constraint.bound * scale)}"


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

    def satisfied_by(self, assignment: Mapping[str, Fraction | int]) -> bool:
        return all(c.satisfied_by(assignment) for c in self.constraints)


@dataclass(frozen=True)
class Feasibility:
    status: str
    witness: dict[str, Fraction] | None = None
    reason: str | None = None

    @property
    def is_infeasible(self) -> bool:
        return self.status == INFEASIBLE


def is_infeasible(system: ConstraintSystem, **kwargs) -> bool:
    """True only when the system provably has no rational solution."""
    return solve(system, **kwargs).is_infeasible


def solve(
    system: ConstraintSystem,
    *,
    elimination_order: Iterable[str] | None = None,
    max_constraints: int = DEFAULT_CONSTRAINT_BUDGET,
) -> Feasibility:
    """Decide rational feasibility by Fourier-Motzkin elimination.

    The verdict is independent of the elimination order.  By default each
    step eliminates the remaining variable with the fewest lower-times-upper
    bound combinations (a standard blowup heuristic, still deterministic);
    an explicit order can be forced.  The witness is the deterministic
    back-substitution result for the order actually used.
    """
    forced = tuple(elimination_order) if elimination_order is not None else None
    if forced is not None and (
        set(forced) != set(system.variables) or len(forced) != len(system.variables)
    ):
        raise ValueError("elimination order must be a permutation of the system's variables")

    constraints = _dedupe(system.constraints)
    if constraints is None:
        return Feasibility(INFEASIBLE)
    generated = len(constraints)
    frames: list[tuple[str, tuple[LinearConstraint, ...]]] = []
    remaining = list(forced if forced is not None else system.variables)
    for step in range(len(remaining)):
        if forced is not None:
            var = remaining[step]
        else:
            var = min(
                remaining[step:],
                key=lambda v: (_combination_count(constraints, v), remaining.index(v)),
            )
            remaining.remove(var)
            remaining.insert(step, var)
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
    witness = _back_substitute(frames)
    assert system.satisfied_by(witness), "internal error: witness does not satisfy system"
    return Feasibility(FEASIBLE, witness=witness)


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
    coeffs: dict[str, Fraction] = {}
    for v, c in lower.terms:
        if v != var:
            coeffs[v] = coeffs.get(v, Fraction(0)) + cu * c
    for v, c in upper.terms:
        if v != var:
            coeffs[v] = coeffs.get(v, Fraction(0)) + (-cl) * c
    bound = cu * lower.bound + (-cl) * upper.bound
    return LinearConstraint.make(coeffs, bound, strict=lower.strict or upper.strict)


def _dedupe(constraints: Iterable[LinearConstraint]) -> tuple[LinearConstraint, ...] | None:
    """Drop trivial and dominated constraints; None when one is trivially false."""
    best: dict[tuple[tuple[str, Fraction], ...], tuple[Fraction, bool]] = {}
    for c in constraints:
        if not c.terms:
            if c.bound < 0 or (c.strict and c.bound == 0):
                return None
            continue
        prev = best.get(c.terms)
        if prev is None:
            best[c.terms] = (c.bound, c.strict)
        else:
            bound, strict = prev
            if c.bound < bound or (c.bound == bound and c.strict and not strict):
                best[c.terms] = (c.bound, c.strict)
    return tuple(LinearConstraint(t, b, s) for t, (b, s) in best.items())


def _back_substitute(frames: list[tuple[str, tuple[LinearConstraint, ...]]]) -> dict[str, Fraction]:
    values: dict[str, Fraction] = {}
    for var, constraints in reversed(frames):
        lo: Fraction | None = None
        hi: Fraction | None = None
        lo_strict = hi_strict = False
        for c in constraints:
            a = c.coefficient(var)
            rest = sum(
                (values[v] * coeff for v, coeff in c.terms if v != var), Fraction(0)
            )
            limit = (c.bound - rest) / a
            if a > 0:
                if hi is None or limit < hi or (limit == hi and c.strict):
                    hi, hi_strict = limit, c.strict
            else:
                if lo is None or limit > lo or (limit == lo and c.strict):
                    lo, lo_strict = limit, c.strict
        values[var] = _pick(lo, lo_strict, hi, hi_strict)
    return values


def _pick(lo: Fraction | None, lo_strict: bool, hi: Fraction | None, hi_strict: bool) -> Fraction:
    """A deterministic rational in the interval, preferring small integers."""
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        top = floor(hi) if not (hi_strict and hi.denominator == 1) else int(hi) - 1
        return Fraction(min(0, top))
    if hi is None:
        bottom = ceil(lo) if not (lo_strict and lo.denominator == 1) else int(lo) + 1
        return Fraction(max(0, bottom))
    int_lo = ceil(lo) if not (lo_strict and lo.denominator == 1) else int(lo) + 1
    int_hi = floor(hi) if not (hi_strict and hi.denominator == 1) else int(hi) - 1
    if int_lo <= int_hi:
        if int_lo <= 0 <= int_hi:
            return Fraction(0)
        return Fraction(int_lo if int_lo > 0 else int_hi)
    return (lo + hi) / 2


def integer_tighten(system: ConstraintSystem) -> ConstraintSystem:
    """Sharpen a system whose variables are integer-valued.

    Every constraint is scaled to integer coefficients; strict bounds become
    non-strict ones one unit lower, non-integral bounds are floored.  The
    result has the same integer solutions and no more rational ones.
    """
    tightened = []
    for c in system.constraints:
        # Canonical form already has integral coefficients.
        bound = c.bound
        if c.strict:
            bound = Fraction(int(bound) - 1) if bound.denominator == 1 else Fraction(floor(bound))
            tightened.append(LinearConstraint(c.terms, bound, strict=False))
        elif bound.denominator != 1:
            tightened.append(LinearConstraint(c.terms, Fraction(floor(bound)), strict=False))
        else:
            tightened.append(c)
    return ConstraintSystem(system.variables, tuple(tightened))
