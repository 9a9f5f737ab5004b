"""``linear.py`` is the one owner of affine arithmetic.

No other module of the package reads the coefficients of a constraint
(``.terms``) or of an affine form (``.coeffs``), or does rational arithmetic
itself (``fractions``); they go through ``compare``, ``AffineForm.le``,
``LinearConstraint.negate``/``subst`` and the printers instead.  A change to
how constraints store their coefficients then touches ``linear.py`` only.

Inside ``linear.py`` coefficients and bounds are ints: ``Fraction`` is
called only where a rational witness is built, in ``_back_substitute`` and
``_pick``.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "countermodel"
OWNER = "linear.py"
COEFFICIENT_FIELDS = {"terms", "coeffs"}
RATIONAL_WITNESS_BUILDERS = {"_back_substitute", "_pick"}


def layering_breaches(source: str) -> list[str]:
    """Coefficient reads and ``fractions`` imports in a module's source."""
    tree = ast.parse(source)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    breaches = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in COEFFICIENT_FIELDS
            and id(node) not in called
        ):
            breaches.append(f"line {node.lineno}: reads .{node.attr}")
        elif isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names):
            breaches.append(f"line {node.lineno}: imports fractions")
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            breaches.append(f"line {node.lineno}: imports fractions")
    return breaches


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in PACKAGE.glob("*.py") if p.name != OWNER),
)
def test_only_linear_reads_coefficients(module):
    assert layering_breaches((PACKAGE / module).read_text()) == []


def test_the_owner_itself_would_be_flagged():
    assert layering_breaches((PACKAGE / OWNER).read_text())


def test_method_calls_named_terms_are_not_reads():
    assert layering_breaches("rule.terms()\nform.coeffs()\n") == []
    assert layering_breaches("c.terms\n") == ["line 1: reads .terms"]
    assert layering_breaches("x = form.coeffs[0]\n") == ["line 1: reads .coeffs"]
    assert layering_breaches("import fractions\n") == ["line 1: imports fractions"]
    assert layering_breaches("from fractions import Fraction\n") == [
        "line 1: imports fractions"
    ]


def fraction_calls_outside(source: str, allowed: set[str]) -> list[str]:
    """``Fraction(...)`` calls that lie outside every function named in ``allowed``."""
    tree = ast.parse(source)
    inside = {
        id(node)
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef) and function.name in allowed
        for node in ast.walk(function)
    }
    return [
        f"line {node.lineno}: calls Fraction"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Fraction"
        and id(node) not in inside
    ]


def test_linear_calls_fraction_only_to_build_witnesses():
    source = (PACKAGE / OWNER).read_text()
    assert fraction_calls_outside(source, RATIONAL_WITNESS_BUILDERS) == []


def test_fraction_calls_elsewhere_would_be_flagged():
    source = "def _pick():\n    return Fraction(0)\n\ndef make():\n    return Fraction(1)\n"
    assert fraction_calls_outside(source, RATIONAL_WITNESS_BUILDERS) == ["line 5: calls Fraction"]
    # the rational kernel that integer rows replaced
    reference = (Path(__file__).parent / "reference_linear.py").read_text()
    assert fraction_calls_outside(reference, RATIONAL_WITNESS_BUILDERS)
