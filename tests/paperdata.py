"""Shared corpus loaders and the instance tables used across test modules."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from pathlib import Path

from countermodel.checker import Certificate, verify
from countermodel.model_format import parse_model
from countermodel.pipeline import required_predicates, theory_for_query
from countermodel.queries import negate_to_obligations
from countermodel.query_format import parse_query
from countermodel.trs_format import CTRSDocument, parse_ctrs_document

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@cache
def system(name: str) -> CTRSDocument:
    return parse_ctrs_document((CORPUS / name).read_text(), file=name)


@cache
def model_text(name: str) -> str:
    return (CORPUS / "models" / name).read_text()


@cache
def query_text(name: str) -> str:
    return (CORPUS / "queries" / name).read_text().strip()


@dataclass(frozen=True)
class PaperCheck:
    """One displayed-structure verification instance."""

    name: str
    system: str
    query: str
    model: str
    backend: str  # backend the model file is checked under


# The displayed structures; each must verify as a model of its theory plus
# the negated query.
PAPER_CHECKS: tuple[PaperCheck, ...] = (
    PaperCheck("intro-restricted", "intro.trs", "a -> b", "intro_restricted.model", "finite"),
    PaperCheck("nonjoinability", "fab.trs", "JOINABLE(a, b)", "fab_nonjoin.model", "finite"),
    PaperCheck(
        "root-irreducibility",
        "root_f.trs",
        "EXISTS x y . f(x) ->^ y",
        "root_irred.model",
        "finite",
    ),
    PaperCheck("increasing-f", "fig3.trs", "FEASIBLE(f(x) == x)", "fig3_feas.model", "symbolic"),
    PaperCheck("h-never-b", "hg.trs", "FEASIBLE(h(x) == b)", "hg_feas.model", "symbolic"),
    PaperCheck("non-looping", "loop_cb.trs", "LOOPING(a)", "loop_nonloop.model", "finite"),
    PaperCheck("non-cycling", "loop_cb.trs", "CYCLING()", "loop_noncycl.model", "symbolic"),
    PaperCheck(
        "division-ccp",
        "division.trs",
        query_text("division_ccp.q"),
        "division.model",
        "symbolic",
    ),
    PaperCheck(
        "website-security",
        "website.trs",
        query_text("website.q"),
        "website.model",
        "symbolic",
    ),
    PaperCheck("collapse-infeasible", "fab.trs", "FEASIBLE(x == a, x == b)", "fab_infeas.model", "symbolic"),
)

# Names of PaperCheck entries whose carriers are all finite, so the finite
# and symbolic backends must agree on them.
INTERVAL_CHECKS = ("intro-restricted", "nonjoinability", "root-irreducibility", "non-looping")


@dataclass(frozen=True)
class FinderCase:
    name: str
    system: str
    query: str
    backend: str  # "finite" | "symbolic"


FINDER_CASES: tuple[FinderCase, ...] = (
    FinderCase("intro-one-step", "intro.trs", "a -> b", "finite"),
    FinderCase("intro-reachability", "intro.trs", "REACHABLE(a, b)", "finite"),
    FinderCase("pair-gf-infeasible", "pair_gf.trs", "FEASIBLE(g(x) == f(a, b))", "finite"),
    FinderCase("hg-infeasible", "hg.trs", "FEASIBLE(h(x) == b)", "finite"),
    FinderCase("fab-nonjoinable", "fab.trs", "JOINABLE(a, b)", "finite"),
    FinderCase("fab-infeasible", "fab.trs", "FEASIBLE(x == a, x == b)", "finite"),
    FinderCase("non-looping-a", "loop_cb.trs", "LOOPING(a)", "finite"),
    FinderCase("increasing-f", "fig3.trs", "FEASIBLE(f(x) == x)", "symbolic"),
    FinderCase("non-cycling", "loop_cb.trs", "CYCLING()", "symbolic"),
)


@cache
def paper_instance(name: str):
    """(document, theory, obligations, structure) for a PAPER_CHECKS entry."""
    check = next(c for c in PAPER_CHECKS if c.name == name)
    document = system(check.system)
    query = parse_query(check.query, document.ctrs.signature, document.var_sorts)
    theory = theory_for_query(document.ctrs, query)
    obligations = negate_to_obligations(query)
    required = required_predicates(theory, obligations)
    structure = parse_model(
        model_text(check.model), document.ctrs.signature, check.backend, required
    )
    return document, theory, obligations, structure


@cache
def paper_certificate(name: str) -> Certificate:
    _document, theory, obligations, structure = paper_instance(name)
    return verify(theory, obligations, structure)
