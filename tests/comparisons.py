"""Views that tests compare the package's results through.

``alpha_key`` identifies a clause up to renaming of its variables, so the
compiler's output can be compared with clauses written out by hand.
``materialize`` evaluates a symbolic structure pointwise into a finite one,
so the symbolic checks can be compared with the finite checks of the same
structure.  ``CheckCalls`` counts how often the finder's compiled checks
run, so a search change can be shown to evaluate the same checks.
"""
from __future__ import annotations

from countermodel import finder
from countermodel.logic import Atom, HornClause
from countermodel.errors import ModelError
from countermodel.structures import FiniteStructure, SymbolicStructure, tabulate
from countermodel.terms import Term, Var


def alpha_key(clause: HornClause) -> tuple:
    """Structural key identifying a clause up to renaming of its variables.

    Variables are numbered by first occurrence scanning the body atoms and
    then the head; unused prefix variables follow in prefix order.  Sorts
    are preserved.
    """
    numbering: dict[Var, int] = {}

    def visit(t: Term) -> None:
        if isinstance(t, Var):
            numbering.setdefault(t, len(numbering))
        else:
            for a in t.args:
                visit(a)

    for atom in (*clause.body, clause.head):
        for arg in atom.args:
            visit(arg)
    for v in clause.variables:
        numbering.setdefault(v, len(numbering))

    def key_term(t: Term) -> tuple:
        if isinstance(t, Var):
            return ("v", numbering[t], t.sort)
        return ("f", t.symbol, tuple(key_term(a) for a in t.args))

    def key_atom(a: Atom) -> tuple:
        return (a.predicate, tuple(key_term(arg) for arg in a.args))

    return (
        tuple(sorted((numbering[v], v.sort) for v in clause.variables)),
        tuple(key_atom(a) for a in clause.body),
        key_atom(clause.head),
    )


def materialize(structure: SymbolicStructure) -> FiniteStructure:
    """Evaluate a symbolic structure with finite interval carriers pointwise."""
    sig = structure.signature
    carriers = {}
    for sort in sig.sorts:
        carrier = structure.carrier(sort)
        if carrier.hi is None:
            raise ModelError("a ray carrier cannot be enumerated")
        carriers[sort] = tuple(range(carrier.lo, carrier.hi + 1))
    functions, predicates = tabulate(sig, carriers, structure.functions, structure.predicates)
    return FiniteStructure(sig, carriers, functions, predicates)


class CheckCalls:
    """A count of check calls: ``wrap`` one check, or ``install`` on every compiled one."""

    def __init__(self) -> None:
        self.calls = 0

    def wrap(self, refuted):
        """``refuted`` counted; a staged check keeps its prefix and takes its rows."""

        def counted(env, points, *rows):
            self.calls += 1
            return refuted(env, points, *rows)

        counted.prefix = getattr(refuted, "prefix", None)
        return counted

    def install(self, monkeypatch) -> "CheckCalls":
        """Count every check the finder compiles while patched, and none that ``verify`` does.

        The finder calls the generator through its own name for it,
        ``finder._compile_check``, so ``checker.check_clause`` is left uncounted.
        """
        compile_check = finder._compile_check

        def compiled(*args, **kwargs):
            symbols, names, refuted = compile_check(*args, **kwargs)
            return symbols, names, self.wrap(refuted)

        monkeypatch.setattr(finder, "_compile_check", compiled)
        return self
