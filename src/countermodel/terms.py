"""Many-sorted signatures, terms, rules, and rewrite systems.

The unsorted case is represented by a signature with the single sort
``DEFAULT_SORT`` and no subsort pairs, so every other module has exactly one
code path for sorted and unsorted systems.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import RuleError, SignatureError, SourceSpan, TermError

DEFAULT_SORT = "term"

#: Built-in binary predicate symbols, in canonical order: one-step rewriting,
#: many-step rewriting, root-step rewriting, and the subterm relation.
ARROW = "->"
MANY_STEPS = "->*"
ROOT_STEP = "->^"
SUBTERM = "|>"
BUILTIN_PREDICATES = (ARROW, MANY_STEPS, ROOT_STEP, SUBTERM)

ORIENTED = "oriented"
JOIN = "join"


@dataclass(frozen=True)
class Var:
    name: str
    sort: str = DEFAULT_SORT


@dataclass(frozen=True)
class App:
    """A function symbol applied to argument terms.

    The hash is computed on first use and kept on the object, the cached
    hash of hash-consing (Filliâtre & Conchon 2006) without its shared
    table: a term is immutable, so its hash never goes stale, and hashing a
    term whose arguments were hashed before costs one tuple hash.  The
    cache is not a field, so ``fields``, ``repr`` and ``==`` see ``symbol``
    and ``args`` only, and ``__reduce__`` leaves it out of copies and
    pickles, because string hashes differ between processes.  ``==`` also
    compares the hashes, which unequal terms rarely share.
    """

    symbol: str
    args: tuple["Term", ...] = ()
    _hash = None

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self.__dict__["_hash"] = hash((self.symbol, self.args))
        return h

    def __eq__(self, other: object) -> bool:
        """Structural equality, walked with a stack so that deep terms need no recursion."""
        if self is other:
            return True
        if other.__class__ is not App:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            s, t = pairs.pop()
            if s is t:
                continue
            if s.__class__ is not App or t.__class__ is not App:
                if s != t:
                    return False
            elif s.symbol != t.symbol or len(s.args) != len(t.args) or hash(s) != hash(t):
                return False
            else:
                pairs.extend(zip(s.args, t.args))
        return True

    def __reduce__(self) -> tuple[type["App"], tuple[str, tuple["Term", ...]]]:
        return App, (self.symbol, self.args)


Term = Var | App


@dataclass(frozen=True)
class Signature:
    """Function symbols with ranks over a partial order of sorts.

    ``functions`` maps each symbol to ``(argument_sorts, result_sort)``;
    insertion order is the declaration order used by deterministic clause
    generation.  The four built-in predicates are implicit and binary.
    """

    sorts: tuple[str, ...] = (DEFAULT_SORT,)
    subsort_pairs: tuple[tuple[str, str], ...] = ()
    functions: Mapping[str, tuple[tuple[str, ...], str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(set(self.sorts)) != len(self.sorts):
            raise SignatureError("duplicate sort names")
        declared = set(self.sorts)
        for sub, sup in self.subsort_pairs:
            if sub not in declared or sup not in declared:
                raise SignatureError(f"subsort pair ({sub}, {sup}) mentions undeclared sorts")
            if sub == sup:
                raise SignatureError(f"reflexive subsort pair ({sub}, {sub})")
        object.__setattr__(self, "functions", dict(self.functions))
        for name, (arg_sorts, result) in self.functions.items():
            for s in (*arg_sorts, result):
                if s not in declared:
                    raise SignatureError(f"rank of '{name}' mentions undeclared sort '{s}'")
        # Reflexive-transitive closure of the subsort pairs; reject cycles
        # between distinct sorts so that <= is a partial order.
        le: dict[str, set[str]] = {s: {s} for s in self.sorts}
        changed = True
        while changed:
            changed = False
            for sub, sup in self.subsort_pairs:
                for top in list(le[sup]):
                    if top not in le[sub]:
                        le[sub].add(top)
                        changed = True
        for s in self.sorts:
            for t in le[s] - {s}:
                if s in le[t]:
                    raise SignatureError(f"subsort cycle between '{s}' and '{t}'")
        object.__setattr__(self, "_le", le)
        # Kinds, the connected components of the subsort graph: the sorts of
        # one kind share one frozenset.
        kinds = {s: frozenset((s,)) for s in self.sorts}
        for sub, sup in self.subsort_pairs:
            kind = kinds[sub] | kinds[sup]
            kinds.update(dict.fromkeys(kind, kind))
        object.__setattr__(self, "_kinds", kinds)

    # -- sort order -------------------------------------------------------

    def le(self, sub: str, sup: str) -> bool:
        """Reflexive-transitive subsort order."""
        return sup in self._le[sub]  # type: ignore[attr-defined]

    def lub(self, s: str, t: str) -> str | None:
        """Least upper bound of two sorts, or None if there is no unique one."""
        uppers = [u for u in self.sorts if self.le(s, u) and self.le(t, u)]
        minimal = [u for u in uppers if not any(v != u and self.le(v, u) for v in uppers)]
        return minimal[0] if len(minimal) == 1 else None

    def same_kind(self, s: str, t: str) -> bool:
        """Whether two sorts lie in the same connected component of the subsort graph."""
        return self._kinds[s] == self._kinds[t]  # type: ignore[attr-defined]

    def maximal_sorts(self, sorts: Iterable[str]) -> tuple[str, ...]:
        """The maximal sorts of the kinds of ``sorts``.

        Kinds come in the order ``sorts`` first reaches them, each kind's
        maximal sorts in declaration order, and each sort once.
        """
        kinds = dict.fromkeys(self._kinds[s] for s in sorts)  # type: ignore[attr-defined]
        le = self._le  # type: ignore[attr-defined]
        return tuple(s for kind in kinds for s in self.sorts if s in kind and le[s] == {s})

    @property
    def single_sorted(self) -> bool:
        return len(self.sorts) == 1

    def inhabited_sorts(self) -> frozenset[str]:
        """Sorts that have at least one ground term (including via subsorts)."""
        inhabited: set[str] = set()
        changed = True
        while changed:
            changed = False
            for name, (arg_sorts, result) in self.functions.items():
                if all(any(self.le(s, a) for s in inhabited) or a in inhabited for a in arg_sorts):
                    for sup in self.sorts:
                        if self.le(result, sup) and sup not in inhabited:
                            inhabited.add(sup)
                            changed = True
        return frozenset(inhabited)

# -- term utilities ---------------------------------------------------------


def term_size(t: Term) -> int:
    """Node count of a term."""
    if isinstance(t, Var):
        return 1
    return 1 + sum(term_size(a) for a in t.args)


def term_vars(*terms: Term) -> tuple[Var, ...]:
    """Variables of the terms, in order of first occurrence, the terms read in argument order."""
    seen: dict[Var, None] = {}

    def walk(u: Term) -> None:
        if isinstance(u, Var):
            seen.setdefault(u)
        else:
            for a in u.args:
                walk(a)

    for t in terms:
        walk(t)
    return tuple(seen)


def is_ground(t: Term) -> bool:
    return not term_vars(t)


def term_sort(sig: Signature, t: Term) -> str:
    if isinstance(t, Var):
        return t.sort
    if t.symbol not in sig.functions:
        raise TermError(f"undeclared function symbol '{t.symbol}'")
    return sig.functions[t.symbol][1]


def check_term(sig: Signature, t: Term, *, strict: bool = True) -> None:
    """Validate arities and sorts of a term against the signature.

    With ``strict`` each argument sort must be <= the declared argument sort.
    Without it, arguments only need to lie in the same subsort component,
    which is the discipline used for query terms (a query may apply a symbol
    to a term of a sibling sort in order to state that no such value exists).
    """
    if isinstance(t, Var):
        if t.sort not in sig.sorts:
            raise TermError(f"variable '{t.name}' has undeclared sort '{t.sort}'")
        return
    if t.symbol not in sig.functions:
        raise TermError(f"undeclared function symbol '{t.symbol}'")
    arg_sorts, _ = sig.functions[t.symbol]
    if len(arg_sorts) != len(t.args):
        raise TermError(
            f"'{t.symbol}' expects {len(arg_sorts)} argument(s), got {len(t.args)}"
        )
    for arg, declared in zip(t.args, arg_sorts):
        check_term(sig, arg, strict=strict)
        actual = term_sort(sig, arg)
        if strict:
            if not sig.le(actual, declared):
                raise TermError(
                    f"argument of '{t.symbol}' has sort '{actual}', needs <= '{declared}'"
                )
        elif not sig.same_kind(actual, declared):
            raise TermError(
                f"argument of '{t.symbol}' has sort '{actual}', "
                f"unrelated to declared '{declared}'"
            )


# -- rules and systems --------------------------------------------------------


@dataclass(frozen=True)
class ConditionalRule:
    """A rule ``lhs -> rhs`` guarded by an ordered list of condition pairs.

    Extra variables in the right-hand side or conditions are permitted; the
    compiled Horn clause quantifies them universally.
    """

    lhs: Term
    rhs: Term
    conditions: tuple[tuple[Term, Term], ...] = ()
    condition_semantics: str = ORIENTED
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if isinstance(self.lhs, Var):
            raise RuleError("left-hand side of a rule must not be a variable")
        if self.condition_semantics not in (ORIENTED, JOIN):
            raise RuleError(f"unknown condition semantics '{self.condition_semantics}'")

    def variables(self) -> tuple[Var, ...]:
        return term_vars(*self.terms())

    def terms(self) -> tuple[Term, ...]:
        out = [self.lhs, self.rhs]
        for s, t in self.conditions:
            out.extend((s, t))
        return tuple(out)


@dataclass(frozen=True)
class CTRS:
    """A conditional term rewriting system: a signature plus rules."""

    signature: Signature
    rules: tuple[ConditionalRule, ...] = ()

    def __post_init__(self) -> None:
        for rule in self.rules:
            for t in rule.terms():
                check_term(self.signature, t, strict=True)
