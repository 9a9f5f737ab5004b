"""Self-contained certificate documents for verification runs.

A certificate records the clause list of the theory, the obligations, the
structure (as a structure document that re-parses to an equal structure),
and one verdict per clause and per obligation.  Serialization is
deterministic: two serializations of the same certificate are
byte-identical, and a certificate is printed exactly as
``json.dumps(payload, indent=2, sort_keys=True)`` would print it.
"""
from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii
from typing import Any

from .checker import Certificate
from .logic import format_clause
from .model_format import serialize_model

FORMAT = "countermodel-certificate/1"


def serialize_certificate(cert: Certificate) -> str:
    clauses = list(map(format_clause, cert.theory.clauses))
    obligations = list(map(str, cert.obligations))
    structure_doc = serialize_model(cert.structure)
    verdicts = list(map(_verdict_json, cert.verdicts))
    split = len(cert.theory.clauses)
    payload: dict[str, Any] = {
        "format": FORMAT,
        "inputs": {
            "theory_sha256": _sha256("\n".join(clauses)),
            "obligations_sha256": _sha256("\n".join(obligations)),
            "structure_sha256": _sha256(structure_doc),
        },
        "theory": [
            {"tag": clause.tag, "clause": text} for clause, text in zip(cert.theory.clauses, clauses)
        ],
        "obligations": obligations,
        "structure": structure_doc,
        "closure_violations": list(map(str, cert.closure_violations)),
        "clause_verdicts": verdicts[:split],
        "obligation_verdicts": verdicts[split:],
        "overall": cert.overall,
        "first_failure": cert.first_failure(),
    }
    return _json(payload, "\n") + "\n"


def _json(value: Any, newline: str) -> str:
    """``value``, of dicts with string keys, lists, strings and scalars, as JSON.

    It is printed as ``json.dumps(value, indent=2, sort_keys=True)`` prints
    it; ``newline`` is the line end and indentation of the line ``value``
    starts on.  The stdlib indents with its pure-Python encoder; here the C
    encoder prints the strings, the scalars and the empty containers.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if not value or not isinstance(value, (dict, list)):
        return json.dumps(value)
    inner = newline + "  "
    if isinstance(value, dict):
        items = [encode_basestring_ascii(key) + ": " + _json(value[key], inner) for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return "[" + inner + ("," + inner).join([_json(item, inner) for item in value]) + newline + "]"


def _verdict_json(verdict) -> dict[str, Any]:
    out: dict[str, Any] = {"status": verdict.status}
    if verdict.witness is not None:
        out["witness"] = dict(verdict.witness)
    if verdict.reason is not None:
        out["reason"] = verdict.reason
    return out


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
