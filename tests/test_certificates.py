from __future__ import annotations

import json

from hypothesis import example, given, seed, settings, strategies as st

from countermodel.certificates import _json, serialize_certificate
from countermodel.checker import verify
from countermodel.logic import Theory
from countermodel.model_format import parse_model
from countermodel.structures import FiniteStructure
from countermodel.terms import DEFAULT_SORT, Signature
from paperdata import paper_certificate, paper_instance


def test_structure_section_round_trips():
    cert = paper_certificate("intro-restricted")
    document = serialize_certificate(cert)
    again = parse_model(
        json.loads(document)["structure"],
        cert.theory.signature,
        backend="finite",
        required_predicates=set(),
    )
    assert again == cert.structure


def test_symbolic_structure_section_round_trips():
    cert = paper_certificate("non-cycling")
    document = serialize_certificate(cert)
    again = parse_model(
        json.loads(document)["structure"],
        cert.theory.signature,
        backend="symbolic",
        required_predicates=set(),
    )
    assert again == cert.structure


def test_serialization_is_byte_identical():
    cert = paper_certificate("division-ccp")
    assert serialize_certificate(cert) == serialize_certificate(cert)


def test_zero_clause_certificate_is_valid():
    sig = Signature(functions={"a": ((), DEFAULT_SORT)})
    structure = FiniteStructure(sig, {DEFAULT_SORT: (0,)}, {"a": {(): 0}}, {})
    cert = verify(Theory(sig, ()), (), structure)
    payload = json.loads(serialize_certificate(cert))
    assert payload["theory"] == []
    assert payload["obligations"] == []
    assert payload["overall"] == "verified"


def test_certificate_payload_shape():
    cert = paper_certificate("root-irreducibility")
    payload = json.loads(serialize_certificate(cert))
    assert payload["format"].startswith("countermodel-certificate/")
    assert set(payload["inputs"]) == {"theory_sha256", "obligations_sha256", "structure_sha256"}
    assert len(payload["theory"]) == len(cert.theory.clauses)
    assert len(payload["clause_verdicts"]) == len(cert.theory.clauses)
    assert payload["overall"] == "verified"
    assert all(v["status"] == "holds" for v in payload["clause_verdicts"])
    tags = [entry["tag"] for entry in payload["theory"]]
    assert "Rf" in tags and "T" in tags and any(t.startswith("Root(") for t in tags)


def test_failed_certificate_reports_first_failure():
    _doc, theory, obligations, structure = paper_instance("nonjoinability")
    tables = {k: dict(v) for k, v in structure.functions.items()}
    tables["b"] = {(): 0}  # now a and b coincide, so joinability holds
    mutated = FiniteStructure(structure.signature, structure.carriers, tables, structure.predicates)
    cert = verify(theory, obligations, mutated)
    payload = json.loads(serialize_certificate(cert))
    assert payload["overall"] == "refuted"
    assert payload["first_failure"]


# Strings with quotes, backslashes, control characters and non-ASCII letters
# (symbol names may be non-ASCII identifiers), besides any character at all.
_TEXT = st.text(
    st.one_of(st.sampled_from(list('"\\\n\t\x00\x1f\x7f aZ_é中ß\u2028\ufeff')), st.characters()),
    max_size=10,
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-(10**20), max_value=10**20) | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=16,
)


@seed(20261020)
@settings(max_examples=60, deadline=None)
@given(_JSON)
@example({"status": "fails", "witness": {"y": -1, "x": 2, "X": 0}, "reason": None})
@example({"b": [], "a": {}, "c": [{}, [], [[]]], "d": [True, False, None, -0]})
def test_the_writer_prints_what_json_dumps_prints(value):
    assert _json(value, "\n") == json.dumps(value, indent=2, sort_keys=True)
