"""Many-sorted signatures, terms, substitutions, rules, and rewrite systems.

The unsorted case is represented by a signature with the single sort
``DEFAULT_SORT`` and no subsort pairs, so every other module has exactly one
code path for sorted and unsorted systems.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .errors import (
    RuleError,
    SignatureError,
    SourceSpan,
    SubstitutionError,
    TermError,
)

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
    pickles, because string hashes differ between processes.
    """

    symbol: str
    args: tuple["Term", ...] = ()
    _hash = None

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self.__dict__["_hash"] = hash((self.symbol, self.args))
        return h

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
        return self.kind_of(s) == self.kind_of(t)

    def kind_of(self, sort: str) -> frozenset[str]:
        comps = self._kind_components()
        return comps[sort]

    def _kind_components(self) -> dict[str, frozenset[str]]:
        cached = getattr(self, "_kinds", None)
        if cached is not None:
            return cached
        parent = {s: s for s in self.sorts}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for sub, sup in self.subsort_pairs:
            parent[find(sub)] = find(sup)
        groups: dict[str, set[str]] = {}
        for s in self.sorts:
            groups.setdefault(find(s), set()).add(s)
        comps = {s: frozenset(groups[find(s)]) for s in self.sorts}
        object.__setattr__(self, "_kinds", comps)
        return comps

    def maximal_sorts(self, component: frozenset[str]) -> tuple[str, ...]:
        """Sorts of the component with no strict supersort, in declaration order."""
        return tuple(
            s
            for s in self.sorts
            if s in component and not any(t != s and self.le(s, t) for t in component)
        )

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


def term_vars(t: Term) -> tuple[Var, ...]:
    """Variables of a term, in order of first occurrence."""
    seen: dict[Var, None] = {}

    def walk(u: Term) -> None:
        if isinstance(u, Var):
            seen.setdefault(u)
        else:
            for a in u.args:
                walk(a)

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
        if t.sort not in sig._le:  # type: ignore[attr-defined]
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


def subterms(t: Term) -> frozenset[Term]:
    """Reflexive-transitive subterm set."""
    acc: set[Term] = set()

    def walk(u: Term) -> None:
        acc.add(u)
        if isinstance(u, App):
            for a in u.args:
                walk(a)

    walk(t)
    return frozenset(acc)


def apply_substitution(subst: Mapping[Var, Term], t: Term, sig: Signature | None = None) -> Term:
    """Simultaneous, capture-free replacement of variables.

    Variables outside the substitution's domain are unchanged.  When a
    signature is given, each image's sort must be <= its variable's sort.
    """
    if sig is not None:
        for var, image in subst.items():
            if not sig.le(term_sort(sig, image), var.sort):
                raise SubstitutionError(
                    f"cannot substitute a '{term_sort(sig, image)}' term "
                    f"for variable '{var.name}:{var.sort}'"
                )
    return _subst(subst, t)


def _subst(subst: Mapping[Var, Term], t: Term) -> Term:
    if isinstance(t, Var):
        return subst.get(t, t)
    return App(t.symbol, tuple(_subst(subst, a) for a in t.args))


def ground_terms(sig: Signature, sort: str, size_bound: int) -> frozenset[Term]:
    """All ground terms of the sort (or any subsort) with at most ``size_bound`` nodes."""
    if size_bound < 1:
        raise ValueError("size_bound must be >= 1")
    by_size = ground_terms_by_size(sig, size_bound)
    out: set[Term] = set()
    for k in range(1, size_bound + 1):
        for s, terms in by_size[k].items():
            if sig.le(s, sort):
                out.update(terms)
    return frozenset(out)


def ground_terms_by_size(sig: Signature, bound: int) -> list[dict[str, list[Term]]]:
    """``by_size[k][s]``: the ground terms of ``k`` nodes whose declared sort is ``s``, each once.

    ``k`` runs up to ``bound``; ``by_size[0]`` is empty.
    """
    by_size: list[dict[str, list[Term]]] = [dict() for _ in range(bound + 1)]

    def terms_le(sort: str, size: int) -> list[Term]:
        return [t for s, ts in by_size[size].items() if sig.le(s, sort) for t in ts]

    for k in range(1, bound + 1):
        for name, (arg_sorts, result) in sig.functions.items():
            arity = len(arg_sorts)
            if arity == 0:
                if k == 1:
                    by_size[k].setdefault(result, []).append(App(name))
                continue
            remaining = k - 1
            if remaining < arity:
                continue
            for split in _compositions(remaining, arity):
                pools = [terms_le(s, n) for s, n in zip(arg_sorts, split)]
                for args in itertools.product(*pools):
                    by_size[k].setdefault(result, []).append(App(name, args))
    return by_size


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to write ``total`` as an ordered sum of ``parts`` positive integers."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


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
        seen: dict[Var, None] = {}
        for t in self.terms():
            for v in term_vars(t):
                seen.setdefault(v)
        return tuple(seen)

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
