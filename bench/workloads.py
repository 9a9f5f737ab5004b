"""The benchmark's workloads: instance tables, one op per instance, and checks.

An op is one instance, end to end.  It starts from the corpus texts read at
set-up and drives the library's public API the way the ``countermodel
check``, ``disprove`` and ``derive`` commands do, so every op pays for
parsing and compiling.  Module attributes are looked up at call time
(``program.pipeline.disprove``), so a traced pass goes through the wrappers
that ``tracing.py`` installs.

The instance tables mirror ``PAPER_CHECKS`` and ``FINDER_CASES`` of the test
suite but are kept here, so that the workloads stay fixed when the tests
grow.  Each row carries its expected outcome: the verdicts are the paper's
known answers, and the SHA-256 digests (of a certificate's serialized bytes,
or of a saturation's atom->depth map) were recorded from the seed
implementation.  A later change that moves a verdict or a certificate byte
fails the benchmark.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

DIVISION_CCP = "queries/division_ccp.q"
WEBSITE_QUERY = "queries/website.q"

# Node cap of the two flagship searches.  Neither backend reaches a model
# within it, so both end "unknown: candidate cap" after exactly this many
# nodes each; the time limit is far above what the cap takes.
FLAGSHIP_MAX_NODES = 1000
FLAGSHIP_TIME_LIMIT = 3600.0

SATURATION_DEPTH = 5

# The structure ``disprove`` finds for pair-gf-infeasible.  The structure
# printed in the literature (corpus/models/pair_gf_printed.model) is not
# closed, so it cannot serve as the reference model of pair_gf.trs.
PAIR_GF_MODEL = """\
(DOMAIN {0, 1})
(FUN g = table (0) -> 0 | (1) -> 0)
(FUN f = table (0, 0) -> 0 | (0, 1) -> 1 | (1, 0) -> 0 | (1, 1) -> 0)
(FUN a = 0)
(FUN b = 1)
(PRED -> = pairs (0, 0) (1, 1))
(PRED ->* = pairs (0, 0) (1, 1))
"""


@dataclass(frozen=True)
class Check:
    """Verify a displayed structure; it must verify, byte for byte."""

    name: str
    system: str
    query: str  # query text, or a path under corpus/ ending in ".q"
    model: str
    backend: str
    digest: str


@dataclass(frozen=True)
class Disprove:
    """Search for a countermodel; ``backend`` None means it must end unknown."""

    name: str
    system: str
    query: str
    backend: str | None
    digest: str | None
    max_nodes: int | None = None  # None: the default SearchBudget


@dataclass(frozen=True)
class Saturate:
    """Bounded saturation; every interpreted atom must hold in ``model``."""

    name: str
    system: str
    size: int
    model: str  # path under corpus/models, or "" for PAIR_GF_MODEL
    backend: str
    atoms: int
    digest: str


CHECKS = (
    Check("intro-restricted", "intro.trs", "a -> b", "intro_restricted.model", "finite",
          "2529aa7fe7d8e44c7a92df4b0030d54bf23f2e4e8ccd87865a785ee6c06017dd"),
    Check("nonjoinability", "fab.trs", "JOINABLE(a, b)", "fab_nonjoin.model", "finite",
          "3426770a4bb0cf0d42dfac7d3cba10cc75be59ae49cae85af2648153a6df8d97"),
    Check("root-irreducibility", "root_f.trs", "EXISTS x y . f(x) ->^ y", "root_irred.model",
          "finite", "ce24f455b153d0e43b5755d9207eed25da22d574c5d484d445725d1c97a67bce"),
    Check("increasing-f", "fig3.trs", "FEASIBLE(f(x) == x)", "fig3_feas.model", "symbolic",
          "27e31702115657f27d2c67caf50b5f4b9eb3585ce16c50dad3ed40fd19aee8ad"),
    Check("h-never-b", "hg.trs", "FEASIBLE(h(x) == b)", "hg_feas.model", "symbolic",
          "3d57cacc935d508de5fc695c6e508fc50a288d88c2793261750063d5cb543602"),
    Check("non-looping", "loop_cb.trs", "LOOPING(a)", "loop_nonloop.model", "finite",
          "94026cf8137520812ecd6699d570f02de75e77be41d110396b338213bf5d9d66"),
    Check("non-cycling", "loop_cb.trs", "CYCLING()", "loop_noncycl.model", "symbolic",
          "31fad128a66f10962d969dced6100aeb634e6c964e0b8747c605e0bfe004a36d"),
    Check("division-ccp", "division.trs", DIVISION_CCP, "division.model", "symbolic",
          "e55c956d49b0a6d91493aea3094308e5014798e2242fba765c289b3ba8e029bc"),
    Check("website-security", "website.trs", WEBSITE_QUERY, "website.model", "symbolic",
          "7c8622861c680a919424d8b1970bd59f1f0974b22a10c4142ef8e469bf3c201b"),
    Check("collapse-infeasible", "fab.trs", "FEASIBLE(x == a, x == b)", "fab_infeas.model",
          "symbolic", "3c4ef5c6392b97f1a0e18e3d277eab5a9f9fff0928eaf242aec8f9591b2312e1"),
)

DISPROVES = (
    Disprove("intro-one-step", "intro.trs", "a -> b", "finite",
             "07452ad2d7f12c7eb448ddfe4ba3aac3f210fdf7bebf47de5563624c713c4711"),
    Disprove("intro-reachability", "intro.trs", "REACHABLE(a, b)", "finite",
             "ad97f948f04ec2cfaf3fa75a847e2af0e5215973455b289ed3a597e997aa8f50"),
    Disprove("pair-gf-infeasible", "pair_gf.trs", "FEASIBLE(g(x) == f(a, b))", "finite",
             "383d5bf29c54eaa652c885a20963a18f392ae6d902127f5b20352b4390d7ffbf"),
    Disprove("hg-infeasible", "hg.trs", "FEASIBLE(h(x) == b)", "finite",
             "15a80e79fe0201c650413607fde88ebf0a3447d5233e28a67cced5f51790c918"),
    Disprove("fab-nonjoinable", "fab.trs", "JOINABLE(a, b)", "finite",
             "3426770a4bb0cf0d42dfac7d3cba10cc75be59ae49cae85af2648153a6df8d97"),
    Disprove("fab-infeasible", "fab.trs", "FEASIBLE(x == a, x == b)", "finite",
             "dedd71850ccf21472e9f5695258abe12ac79daf4c29c7c3ce4983d4c3d09526c"),
    Disprove("non-looping-a", "loop_cb.trs", "LOOPING(a)", "finite",
             "4b913884f93bdcca4bb4b33242e0ca14eea792f7504b9416e7dff65ccbb697bb"),
    Disprove("increasing-f", "fig3.trs", "FEASIBLE(f(x) == x)", "symbolic",
             "67e0d5d47d3501ba36172b75176f228a481837994c252e2f79b968bd9343a920"),
    Disprove("non-cycling", "loop_cb.trs", "CYCLING()", "symbolic",
             "a4477a342f2bceccdca3ee9b315b28db7ff1b2d8151161e6c63f39e669e7931c"),
    Disprove("division-ccp-capped", "division.trs", DIVISION_CCP, None, None,
             FLAGSHIP_MAX_NODES),
    Disprove("website-security-capped", "website.trs", WEBSITE_QUERY, None, None,
             FLAGSHIP_MAX_NODES),
)

# division.trs at size 5 takes about 15 s per op, longer than one run, so
# the workload stops at size 4.
SATURATIONS = (
    Saturate("division-3", "division.trs", 3, "division.model", "symbolic", 103,
             "7e3837a9d1930bf4c73ea5e75a314e524469729b39f997e8d4f3e0e8f44999fd"),
    Saturate("division-4", "division.trs", 4, "division.model", "symbolic", 423,
             "75ec65cb6bb10b7ce44c88f56d2a6de07dbf862f49d581e0040654ec471254c9"),
    Saturate("hg-5", "hg.trs", 5, "hg_feas.model", "symbolic", 1259,
             "168813640afd021690148b751248374a7366e51bbec92df93c34333d7678d65d"),
    Saturate("fig3-5", "fig3.trs", 5, "fig3_feas.model", "symbolic", 398,
             "62c463eb8c73d4f24a8016da9354c94c2fdd94764d3f7956e061d06e8a35d682"),
    Saturate("pair-gf-5", "pair_gf.trs", 5, "", "finite", 350,
             "b7c4af8ce4cfc3aa6887d1dc60d4f4631e1f92c1b1c8f0487773feefc575df62"),
)


def corpus_files() -> list[str]:
    """Every corpus file an op reads, relative to corpus/."""
    files = set()
    for c in CHECKS:
        files.update((c.system, f"models/{c.model}"))
    for d in DISPROVES:
        files.add(d.system)
    for s in SATURATIONS:
        files.add(s.system)
        if s.model:
            files.add(f"models/{s.model}")
    for q in (*CHECKS, *DISPROVES):
        if q.query.endswith(".q"):
            files.add(q.query)
    return sorted(files)


def read_corpus(corpus: Path) -> dict[str, str]:
    return {name: (corpus / name).read_text(encoding="utf-8") for name in corpus_files()}


@dataclass
class Outcome:
    """What one op produced, as far as the checks need it."""

    verdict: str
    decided: bool
    digest: str | None = None
    backend: str | None = None
    reasons: tuple[str, ...] = ()
    violations: tuple[str, ...] = ()
    atoms: Any = None  # the AtomSet of a saturation, for the model check


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _query(texts: dict[str, str], query: str) -> tuple[str, str]:
    if query.endswith(".q"):
        return texts[query].strip(), query
    return query, "<query>"


def _parse_system_and_query(program, texts, system: str, query: str):
    document = program.trs_format.parse_ctrs_document(texts[system], file=system)
    source, origin = _query(texts, query)
    parsed = program.query_format.parse_query(
        source, document.ctrs.signature, document.var_sorts, file=origin
    )
    return document, parsed


def check_op(program, texts: dict[str, str], inst: Check) -> Outcome:
    """``countermodel check SYSTEM --query Q --model M``: parse, compile, verify, serialize."""
    document, query = _parse_system_and_query(program, texts, inst.system, inst.query)
    theory = program.pipeline.theory_for_query(document.ctrs, query)
    obligations = program.queries.negate_to_obligations(query)
    required = program.pipeline.required_predicates(theory, obligations)
    model = f"models/{inst.model}"
    structure = program.model_format.parse_model(
        texts[model], document.ctrs.signature, inst.backend, required, file=model
    )
    certificate = program.checker.verify(theory, obligations, structure)
    serialized = program.certificates.serialize_certificate(certificate)
    return Outcome(certificate.overall, certificate.overall == "verified", sha256(serialized))


def disprove_op(program, texts: dict[str, str], inst: Disprove) -> Outcome:
    """``countermodel disprove SYSTEM --query Q``, oracle cross-check included."""
    document, query = _parse_system_and_query(program, texts, inst.system, inst.query)
    if inst.max_nodes is None:
        budget = program.finder.SearchBudget()
    else:
        budget = program.finder.SearchBudget(
            max_nodes=inst.max_nodes, time_limit=FLAGSHIP_TIME_LIMIT
        )
    result = program.pipeline.disprove(document.ctrs, query, budget)
    if not result.succeeded:
        return Outcome("unknown", False, reasons=result.reasons)
    certificate = result.certificate
    serialized = program.certificates.serialize_certificate(certificate)
    violations: tuple[str, ...] = ()
    if all(not ob.variables for ob in certificate.obligations):
        violations = program.pipeline.oracle_cross_check(document.ctrs, certificate)
    return Outcome(
        certificate.overall, True, sha256(serialized), result.backend, violations=violations
    )


def saturate_op(program, texts: dict[str, str], inst: Saturate) -> Outcome:
    """``countermodel derive SYSTEM --size N --depth 5``."""
    document = program.trs_format.parse_ctrs_document(texts[inst.system], file=inst.system)
    atoms = program.oracle.saturate(document.ctrs, inst.size, SATURATION_DEPTH)
    return Outcome("saturated", True, atoms=atoms)


def saturation_digest(atoms) -> str:
    return sha256("\n".join(sorted(f"{atom}\t{depth}" for atom, depth in atoms.atoms.items())))


def check_problems(program, texts, inst: Check, outcome: Outcome, deep: bool) -> list[str]:
    problems = []
    if outcome.verdict != "verified":
        problems.append(f"verdict {outcome.verdict}, expected verified")
    if outcome.digest != inst.digest:
        problems.append(f"certificate digest {outcome.digest}")
    return problems


def disprove_problems(program, texts, inst: Disprove, outcome: Outcome, deep: bool) -> list[str]:
    problems = [f"finder reason {r!r}" for r in outcome.reasons if "time cap" in r]
    if inst.backend is None:
        if outcome.verdict != "unknown" or len(outcome.reasons) != 2 or not all(
            r.endswith("candidate cap") for r in outcome.reasons
        ):
            problems.append(f"{outcome.verdict} {outcome.reasons}, expected two candidate caps")
        return problems
    if outcome.verdict != "verified" or outcome.backend != inst.backend:
        problems.append(
            f"{outcome.verdict} by {outcome.backend} {outcome.reasons}, "
            f"expected verified by {inst.backend}"
        )
    if outcome.digest != inst.digest:
        problems.append(f"certificate digest {outcome.digest}")
    problems.extend(f"oracle: {v}" for v in outcome.violations)
    return problems


def saturate_problems(program, texts, inst: Saturate, outcome: Outcome, deep: bool) -> list[str]:
    """Digest and size of the atom->depth map; with ``deep``, the model check.

    The model check is independent of the oracle: every derived atom over an
    interpreted predicate must be true in a model of the system, because the
    least Herbrand model maps homomorphically into every model.
    """
    atoms = outcome.atoms
    problems = []
    digest = saturation_digest(atoms)
    if len(atoms) != inst.atoms or digest != inst.digest:
        problems.append(f"{len(atoms)} atoms, digest {digest}")
    if deep:
        sig = program.trs_format.parse_ctrs_document(texts[inst.system]).ctrs.signature
        text = texts[f"models/{inst.model}"] if inst.model else PAIR_GF_MODEL
        model = program.model_format.parse_model(text, sig, inst.backend, ("->", "->*"))
        false = [
            atom
            for atom in atoms.atoms
            if atom.predicate in model.predicates
            and not program.structures.eval_atom(model, {}, atom)
        ]
        if false:
            problems.append(f"{len(false)} derived atoms false in the model, e.g. {false[0]}")
    return problems


@dataclass(frozen=True)
class Workload:
    instances: tuple
    op: Callable[..., Outcome]
    problems: Callable[..., list[str]]


WORKLOADS = {
    "check-paper": Workload(CHECKS, check_op, check_problems),
    "disprove-corpus": Workload(DISPROVES, disprove_op, disprove_problems),
    "saturate-oracle": Workload(SATURATIONS, saturate_op, saturate_problems),
}
