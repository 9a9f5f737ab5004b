"""Self-contained certificate documents for verification runs.

A certificate records the clause list of the theory, the obligations, the
structure (as a structure document that re-parses to an equal structure),
and one verdict per clause and per obligation.  Serialization is
deterministic: two serializations of the same certificate are
byte-identical.
"""
from __future__ import annotations

import hashlib
import json
from typing import Any

from .checker import Certificate
from .logic import format_clause
from .model_format import serialize_model

FORMAT = "countermodel-certificate/1"


def serialize_certificate(cert: Certificate) -> str:
    theory_lines = [
        {"tag": clause.tag, "clause": format_clause(clause)}
        for clause in cert.theory.clauses
    ]
    obligations = [str(ob) for ob in cert.obligations]
    structure_doc = serialize_model(cert.structure)
    payload: dict[str, Any] = {
        "format": FORMAT,
        "inputs": {
            "theory_sha256": _sha256("\n".join(c["clause"] for c in theory_lines)),
            "obligations_sha256": _sha256("\n".join(obligations)),
            "structure_sha256": _sha256(structure_doc),
        },
        "theory": theory_lines,
        "obligations": obligations,
        "structure": structure_doc,
        "closure_violations": [str(v) for v in cert.closure_violations],
        "clause_verdicts": [_verdict_json(v) for v in cert.clause_verdicts],
        "obligation_verdicts": [_verdict_json(v) for v in cert.obligation_verdicts],
        "overall": cert.overall,
        "first_failure": cert.first_failure(),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _verdict_json(verdict) -> dict[str, Any]:
    out: dict[str, Any] = {"status": verdict.status}
    if verdict.witness is not None:
        out["witness"] = {name: value for name, value in verdict.witness}
    if verdict.reason is not None:
        out["reason"] = verdict.reason
    return out


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
