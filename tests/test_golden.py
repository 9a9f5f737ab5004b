"""Byte-identical outputs: certificate and saturation digests pinned.

Refactors of the checker, finder, compiler and oracle must keep every
serialized certificate byte and every atom->depth map.  The digests below
are SHA-256 of the serialized certificate (for each displayed paper
structure and each finder case's ``disprove``) and of the sorted
``"atom\\tdepth"`` lines of a saturation.  The finder's node counts are
pinned too: a search change may make nodes cheaper, not more numerous.
"""
from __future__ import annotations

import hashlib

import pytest

from countermodel import pipeline
from countermodel.certificates import serialize_certificate
from countermodel.finder import SearchBudget
from countermodel.oracle import saturate
from countermodel.pipeline import disprove
from countermodel.query_format import parse_query
from countermodel.trs_format import parse_ctrs
from paperdata import FINDER_CASES, PAPER_CHECKS, paper_certificate, query_text, system

CHECK_DIGESTS = {
    "intro-restricted": "2529aa7fe7d8e44c7a92df4b0030d54bf23f2e4e8ccd87865a785ee6c06017dd",
    "nonjoinability": "3426770a4bb0cf0d42dfac7d3cba10cc75be59ae49cae85af2648153a6df8d97",
    "root-irreducibility": "ce24f455b153d0e43b5755d9207eed25da22d574c5d484d445725d1c97a67bce",
    "increasing-f": "27e31702115657f27d2c67caf50b5f4b9eb3585ce16c50dad3ed40fd19aee8ad",
    "h-never-b": "3d57cacc935d508de5fc695c6e508fc50a288d88c2793261750063d5cb543602",
    "non-looping": "94026cf8137520812ecd6699d570f02de75e77be41d110396b338213bf5d9d66",
    "non-cycling": "31fad128a66f10962d969dced6100aeb634e6c964e0b8747c605e0bfe004a36d",
    "division-ccp": "e55c956d49b0a6d91493aea3094308e5014798e2242fba765c289b3ba8e029bc",
    "website-security": "7c8622861c680a919424d8b1970bd59f1f0974b22a10c4142ef8e469bf3c201b",
    "collapse-infeasible": "3c4ef5c6392b97f1a0e18e3d277eab5a9f9fff0928eaf242aec8f9591b2312e1",
}

DISPROVE_DIGESTS = {
    "intro-one-step": "07452ad2d7f12c7eb448ddfe4ba3aac3f210fdf7bebf47de5563624c713c4711",
    "intro-reachability": "ad97f948f04ec2cfaf3fa75a847e2af0e5215973455b289ed3a597e997aa8f50",
    "pair-gf-infeasible": "383d5bf29c54eaa652c885a20963a18f392ae6d902127f5b20352b4390d7ffbf",
    "hg-infeasible": "15a80e79fe0201c650413607fde88ebf0a3447d5233e28a67cced5f51790c918",
    "fab-nonjoinable": "3426770a4bb0cf0d42dfac7d3cba10cc75be59ae49cae85af2648153a6df8d97",
    "fab-infeasible": "dedd71850ccf21472e9f5695258abe12ac79daf4c29c7c3ce4983d4c3d09526c",
    "non-looping-a": "4b913884f93bdcca4bb4b33242e0ca14eea792f7504b9416e7dff65ccbb697bb",
    "increasing-f": "67e0d5d47d3501ba36172b75176f228a481837994c252e2f79b968bd9343a920",
    "non-cycling": "a4477a342f2bceccdca3ee9b315b28db7ff1b2d8151161e6c63f39e669e7931c",
}

# Nodes that ``pipeline.disprove`` spends over both backends (finite first)
# with the default budget, and on each flagship at a 1,000-node cap, where
# both backends end "candidate cap" after 1,001 ticks each.
DISPROVE_NODES = {
    "intro-one-step": 49,
    "intro-reachability": 49,
    "pair-gf-infeasible": 71,
    "hg-infeasible": 22,
    "fab-nonjoinable": 10,
    "fab-infeasible": 10,
    "non-looping-a": 789,
    "increasing-f": 91_830,
    "non-cycling": 34_526,
    "division-ccp": 2_002,
    "website-security": 2_002,
}
FLAGSHIPS = {
    "division-ccp": ("division.trs", "division_ccp.q"),
    "website-security": ("website.trs", "website.q"),
}
FLAGSHIP_MAX_NODES = 1000

JOIN_SYSTEM = "(CONDITIONTYPE JOIN) (RULES a -> c  b -> c  d -> e | a == b)"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _saturation_digest(atoms) -> str:
    return _sha256("\n".join(sorted(f"{atom}\t{depth}" for atom, depth in atoms.atoms.items())))


def test_digest_tables_cover_every_instance():
    assert set(CHECK_DIGESTS) == {c.name for c in PAPER_CHECKS}
    assert set(DISPROVE_DIGESTS) == {c.name for c in FINDER_CASES}
    assert set(DISPROVE_NODES) == set(DISPROVE_DIGESTS) | set(FLAGSHIPS)


@pytest.mark.parametrize("check", PAPER_CHECKS, ids=lambda c: c.name)
def test_paper_check_certificate_bytes(check):
    serialized = serialize_certificate(paper_certificate(check.name))
    assert _sha256(serialized) == CHECK_DIGESTS[check.name]


@pytest.mark.parametrize("case", FINDER_CASES, ids=lambda c: c.name)
def test_disprove_certificate_bytes(case):
    document = system(case.system)
    query = parse_query(case.query, document.ctrs.signature, document.var_sorts)
    result = disprove(document.ctrs, query, backend=case.backend)
    assert result.succeeded, result.reasons
    assert result.backend == case.backend
    assert _sha256(serialize_certificate(result.certificate)) == DISPROVE_DIGESTS[case.name]


@pytest.mark.parametrize("name", DISPROVE_NODES)
def test_disprove_node_totals(name, monkeypatch):
    nodes = []

    def counted(find):
        def run(*args, **kwargs):
            outcome = find(*args, **kwargs)
            nodes.append(outcome.nodes)
            return outcome

        return run

    monkeypatch.setattr(pipeline, "find_model", counted(pipeline.find_model))
    monkeypatch.setattr(pipeline, "find_symbolic_model", counted(pipeline.find_symbolic_model))
    if name in FLAGSHIPS:
        source, query_file = FLAGSHIPS[name]
        document = system(source)
        query = parse_query(query_text(query_file), document.ctrs.signature, document.var_sorts)
        budget = SearchBudget(max_nodes=FLAGSHIP_MAX_NODES)
    else:
        case = next(c for c in FINDER_CASES if c.name == name)
        document = system(case.system)
        query = parse_query(case.query, document.ctrs.signature, document.var_sorts)
        budget = None
    result = pipeline.disprove(document.ctrs, query, budget)
    assert result.succeeded == (name not in FLAGSHIPS), result.reasons
    assert sum(nodes) == DISPROVE_NODES[name]


@pytest.mark.parametrize(
    "ctrs, size, depth, count, digest",
    [
        pytest.param(
            lambda: parse_ctrs(JOIN_SYSTEM), 1, 6, 19,
            "5ac59c9001130c23c9bdde48c321a34a3077d3e0565a8082c23bc188123bcd6d",
            id="join",
        ),
        pytest.param(
            lambda: system("division.trs").ctrs, 3, 5, 103,
            "7e3837a9d1930bf4c73ea5e75a314e524469729b39f997e8d4f3e0e8f44999fd",
            id="division-3",
        ),
        pytest.param(
            lambda: system("division.trs").ctrs, 5, 5, 3475,
            "175ecdb65cf888291084f9f8e3064aeb1926fb7ff537252e63b65d3d5ee4e29a",
            id="division-5",
        ),
        pytest.param(
            lambda: system("division.trs").ctrs, 6, 5, 18303,
            "cc11ee1ce03ab85e55b7d3b20855120af071ac30e3e9e4608bca6119845664a0",
            id="division-6",
        ),
    ],
)
def test_saturation_atom_depths(ctrs, size, depth, count, digest):
    atoms = saturate(ctrs(), size, depth)
    assert len(atoms) == count
    assert _saturation_digest(atoms) == digest
