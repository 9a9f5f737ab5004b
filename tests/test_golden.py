"""Byte-identical outputs: certificate and saturation digests pinned.

Refactors of the checker, finder, compiler and oracle must keep every
serialized certificate byte and every atom->depth map.  The digests below
are SHA-256 of the serialized certificate (for each displayed paper
structure and each finder case's ``disprove``), of the sorted
``"atom\\tdepth"`` lines of a saturation and of those lines in the map's
insertion order, and of ``derive``'s standard output.  The finder's node
counts are pinned too: a search change may make nodes cheaper, not more
numerous.  So are its compiled-check calls and the distinct check sources
it compiles.
"""
from __future__ import annotations

import hashlib

import pytest

from countermodel import checker, pipeline
from countermodel.certificates import serialize_certificate
from countermodel.checker import verify
from countermodel.cli import main
from countermodel.finder import SearchBudget
from countermodel.oracle import saturate
from countermodel.pipeline import disprove
from countermodel.query_format import parse_query
from countermodel.trs_format import parse_ctrs
from comparisons import CheckCalls
from paperdata import (
    CORPUS,
    FINDER_CASES,
    PAPER_CHECKS,
    paper_certificate,
    paper_instance,
    query_text,
    system,
)

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
    "intro-one-step": 17,
    "intro-reachability": 49,
    "pair-gf-infeasible": 71,
    "hg-infeasible": 17,
    "fab-nonjoinable": 10,
    "fab-infeasible": 10,
    "non-looping-a": 464,
    "increasing-f": 14_707,
    "non-cycling": 15_249,
    "division-ccp": 2_002,
    "website-security": 2_002,
}
# Compiled-check calls over the same runs: a change to the walk's
# bookkeeping alone evaluates the same checks; one that skips more nodes,
# such as learning dead ends, evaluates fewer.
DISPROVE_CHECK_CALLS = {
    "intro-one-step": 16,
    "intro-reachability": 46,
    "pair-gf-infeasible": 111,
    "hg-infeasible": 22,
    "fab-nonjoinable": 14,
    "fab-infeasible": 14,
    "non-looping-a": 208,
    "increasing-f": 3_482,
    "non-cycling": 4_663,
    "division-ccp": 2_219,
    "website-security": 1_425,
}
# Checks that the same runs compile from an empty cache: the compiled-check
# cache is keyed on the check, so a check met twice is compiled once.  A
# finite case's verify compiles its own call-spelling checks, with sort
# tests, on top of the finder's table-spelling ones.
DISPROVE_CHECK_SHAPES = {
    "intro-one-step": 10,
    "intro-reachability": 10,
    "pair-gf-infeasible": 16,
    "hg-infeasible": 18,
    "fab-nonjoinable": 12,
    "fab-infeasible": 12,
    "non-looping-a": 18,
    "increasing-f": 16,
    "non-cycling": 12,
    "division-ccp": 46,
    "website-security": 32,
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
    assert set(DISPROVE_CHECK_CALLS) == set(DISPROVE_NODES)


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


def _disprove_case(name):
    """``pipeline.disprove`` on a finder case or a capped flagship, as the benchmark runs it."""
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
    return result


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
    result = _disprove_case(name)
    assert sum(nodes) == DISPROVE_NODES[name]
    if name in FLAGSHIPS:
        # A pruning change that lets a flagship exhaust its space shows here first.
        assert len(result.reasons) == 2, result.reasons
        assert all(reason.endswith("candidate cap") for reason in result.reasons), result.reasons


@pytest.mark.parametrize("name", DISPROVE_CHECK_CALLS)
def test_disprove_check_calls(name, monkeypatch):
    counter = CheckCalls().install(monkeypatch)
    _disprove_case(name)
    assert counter.calls == DISPROVE_CHECK_CALLS[name]


@pytest.mark.parametrize("name", DISPROVE_NODES)
def test_disprove_check_shapes(name):
    checker._compile_check.cache_clear()
    _disprove_case(name)
    assert checker._compile_check.cache_info().misses == DISPROVE_CHECK_SHAPES[name]


def test_a_second_pass_compiles_nothing():
    # The finder cases and the paper checks, as the benchmark's disprove and
    # check workloads run them: every check of the second pass is a hit.
    def one_pass():
        for case in FINDER_CASES:
            _disprove_case(case.name)
        for check in PAPER_CHECKS:
            verify(*paper_instance(check.name)[1:])

    checker._compile_check.cache_clear()
    one_pass()
    compiled = checker._compile_check.cache_info().misses
    assert compiled > 0
    one_pass()
    assert checker._compile_check.cache_info().misses == compiled


# Each saturation's atom count, the digest of its sorted atom->depth lines,
# and the digest of the same lines in the map's insertion order.  The
# division-4, hg-5, fig3-5 and pair-gf-5 rows are the benchmark's
# saturations that division-3 and division-5 do not already cover.
@pytest.mark.parametrize(
    "ctrs, size, depth, count, digest, order",
    [
        pytest.param(
            lambda: parse_ctrs(JOIN_SYSTEM), 1, 6, 19,
            "5ac59c9001130c23c9bdde48c321a34a3077d3e0565a8082c23bc188123bcd6d",
            "4776fe0d0562e5126285f47297f75b47a7cb715ce8894eb50b7d44f27d52fe4c",
            id="join",
        ),
        pytest.param(
            lambda: system("division.trs").ctrs, 3, 5, 103,
            "7e3837a9d1930bf4c73ea5e75a314e524469729b39f997e8d4f3e0e8f44999fd",
            "01a7863d77775e1aa19a53ac5ec42299bf065fe29f1fb543ca01e777a92d55b8",
            id="division-3",
        ),
        pytest.param(
            lambda: system("division.trs").ctrs, 4, 5, 423,
            "75ec65cb6bb10b7ce44c88f56d2a6de07dbf862f49d581e0040654ec471254c9",
            "689770d0e1460198a5812c13be675b2abb82a30bcdb763995f44142c9d174aa6",
            id="division-4",
        ),
        pytest.param(
            lambda: system("division.trs").ctrs, 5, 5, 3475,
            "175ecdb65cf888291084f9f8e3064aeb1926fb7ff537252e63b65d3d5ee4e29a",
            "fde76991fd8706e56fb6efed6bd3435ba0f6585961f202ed359daf00e6de168a",
            id="division-5",
        ),
        pytest.param(
            lambda: system("division.trs").ctrs, 6, 5, 18303,
            "cc11ee1ce03ab85e55b7d3b20855120af071ac30e3e9e4608bca6119845664a0",
            "30467512eba15b505fd3ea427cf6e8deb490a75457364c1c3420b1beb29a65d1",
            id="division-6",
        ),
        pytest.param(
            lambda: system("hg.trs").ctrs, 5, 5, 1259,
            "168813640afd021690148b751248374a7366e51bbec92df93c34333d7678d65d",
            "29f192c25608b8c956987a82569ed0058d4ecb152ddb661149473de76766bef5",
            id="hg-5",
        ),
        pytest.param(
            lambda: system("fig3.trs").ctrs, 5, 5, 398,
            "62c463eb8c73d4f24a8016da9354c94c2fdd94764d3f7956e061d06e8a35d682",
            "e8db8ef7dc2cbc60f548aa5713df617cf19c74cc6bb4380dabbf31ae1819100a",
            id="fig3-5",
        ),
        pytest.param(
            lambda: system("pair_gf.trs").ctrs, 5, 5, 350,
            "b7c4af8ce4cfc3aa6887d1dc60d4f4631e1f92c1b1c8f0487773feefc575df62",
            "36234ea61e503955c883271f864ded686988c4ec046ac0af8e38f1b578348047",
            id="pair-gf-5",
        ),
    ],
)
def test_saturation_atom_depths(ctrs, size, depth, count, digest, order):
    atoms = saturate(ctrs(), size, depth)
    assert len(atoms) == count
    assert _saturation_digest(atoms) == digest
    assert _sha256("\n".join(f"{atom}\t{d}" for atom, d in atoms.atoms.items())) == order


def test_derive_output_bytes(capsys):
    assert main(["derive", str(CORPUS / "division.trs"), "--size", "5", "--depth", "5"]) == 0
    out = capsys.readouterr().out
    assert _sha256(out) == "761592ec4bcdcd114cc4a03a70915261c8e7176d2e15e8bd74f6ce970f6a5f4f"
