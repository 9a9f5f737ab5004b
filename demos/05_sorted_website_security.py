"""Order-sorted disproof: no eventual user reaches the submission page.

Site navigation is modeled as rewriting on page terms p(u); the sort of u
controls access.  The security claim "no eventual user can reach submit"
is the failure of an existential reachability property, disproved by a
sorted structure whose carriers separate registered from eventual users.

Relaxing the submit rule to accept any user breaks the property, and the
toolchain shows it from both sides: the sorted model no longer checks, and
the bounded oracle derives a concrete breach for the eventual user.
"""
from pathlib import Path

from countermodel import parse_model, parse_query, verify
from countermodel.logic import Atom
from countermodel.oracle import saturate
from countermodel.pipeline import required_predicates, theory_for_query
from countermodel.queries import negate_to_obligations
from countermodel.terms import MANY_STEPS, App
from countermodel.trs_format import parse_ctrs_document

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

document = parse_ctrs_document((CORPUS / "website.trs").read_text())
query = parse_query(
    "FEASIBLE(wwv05(u) == submit(u))", document.ctrs.signature, document.var_sorts
)
theory = theory_for_query(document.ctrs, query)
obligations = negate_to_obligations(query)
structure = parse_model(
    (CORPUS / "models" / "website.model").read_text(),
    document.ctrs.signature,
    required_predicates=required_predicates(theory, obligations),
)
cert = verify(theory, obligations, structure)
print(f"secure site: certificate is {cert.overall}")
print(f"  ({len(theory.clauses)} clauses checked, including sort membership)")

print()
print("Now let submit accept any user (vlogin(v) => submit(v) with v:User):")
insecure_text = (CORPUS / "website.trs").read_text().replace(
    "submit : RegUser -> SecureWebPage", "submit : User -> SecureWebPage"
).replace("vlogin(r) -> submit(r)", "vlogin(v) -> submit(v)")
insecure = parse_ctrs_document(insecure_text)
bad_query = parse_query(
    "FEASIBLE(wwv05(u) == submit(u))", insecure.ctrs.signature, insecure.var_sorts
)
bad_theory = theory_for_query(insecure.ctrs, bad_query)
bad_obligations = negate_to_obligations(bad_query)
bad_cert = verify(
    bad_theory,
    bad_obligations,
    parse_model(
        (CORPUS / "models" / "website.model").read_text(),
        insecure.ctrs.signature,
        required_predicates=required_predicates(bad_theory, bad_obligations),
    ),
)
print(f"  the old structure is now {bad_cert.overall}:")
print(f"    {bad_cert.first_failure()}")

smith = App("smith")
breach = Atom(MANY_STEPS, (App("wwv05", (smith,)), App("submit", (smith,))))
witnessed = breach in saturate(insecure.ctrs, size_bound=3, depth_bound=10)
print(f"  and the oracle derives the breach {breach}: {witnessed}")
