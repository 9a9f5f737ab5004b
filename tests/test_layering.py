"""``linear.py`` is the one owner of affine arithmetic, and it is integer arithmetic.

No other module of the package reads the coefficients of a constraint
(``.terms``) or of an affine form (``.coeffs``); they go through
``compare``, ``AffineForm.le``, ``LinearConstraint.negate``/``subst`` and
the printers instead.  A change to how constraints store their
coefficients then touches ``linear.py`` only.

No module, ``linear.py`` included, does rational arithmetic (``fractions``),
rounds (``floor``, ``ceil``) or reads a ``.denominator``: coefficients,
bounds and witnesses are ints throughout.

Every function, class and method the package defines is run by a command,
a demo or a benchmark workload: each is named somewhere in the package
itself (outside ``__init__.py``), in ``demos/`` or in ``bench/``.  A helper
only tests use belongs next to those tests.  Likewise every field of a
dataclass or NamedTuple the package defines is read as an attribute there:
state only tests read is not kept.

Every finder function that builds a candidate menu (returns a ``_Menu``)
in a ``for`` loop checks the deadline.

Exactly one module runs generated source (``exec``, ``eval`` or
``compile``), and it is ``checker.py``: the finder's pruning checks and
the verifier's finite checks come from its one generator, so a second
evaluator cannot come back as a fork.  ``checker.py`` keeps exactly one
``functools`` cache, the compiled checks keyed on the check, so a second
cache or factory for the same job cannot come back either.

One function of ``finder.py`` reads the predicate menu's constants
(``BASE_RELATIONS``, ``PAIR_COEFFS``, ``PAIR_CONSTS``): ``_relations``,
the one list of relations, which the symbolic stages read as it is and the
finite stages restrict to their carriers, so a second enumeration of the
relations cannot come back as a fork either.  Likewise one ``finder.py``
function reads the coefficient range (``coeff_min``, ``coeff_max``): the
generator of the affine template terms that both backends' function menus
are built from.

Only ``logic.py`` builds an ``Atom`` past its arity check (through
``tuple.__new__`` or ``Atom._make``), in ``Atom.binary``, which checks its
predicate once for a whole stream of pairs.

Every name a module of the package, of ``tests/`` or of ``demos/``
imports is used in it, unless its line says ``# noqa: F401`` (a
re-export).  ``__init__.py`` imports only to export.

The backends are told apart in a fixed set of functions: only
``checker.check_clause``, ``structures.eval_term``, ``eval_atom``,
``closure_check`` and ``model_format.serialize_model`` test whether a
structure is finite or symbolic, so a backend difference cannot spread.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "countermodel"
OWNER = "linear.py"
COEFFICIENT_FIELDS = {"terms", "coeffs"}
ROUNDING = {"floor", "ceil", "denominator"}


def layering_breaches(source: str, owner: bool = False) -> list[str]:
    """Coefficient reads (unless ``owner``), ``fractions`` imports and rounding in a module's source."""
    tree = ast.parse(source)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    breaches = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in COEFFICIENT_FIELDS
            and id(node) not in called
            and not owner
        ):
            breaches.append(f"line {node.lineno}: reads .{node.attr}")
        elif isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names):
            breaches.append(f"line {node.lineno}: imports fractions")
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            breaches.append(f"line {node.lineno}: imports fractions")
        elif isinstance(node, ast.ImportFrom) and any(a.name in ROUNDING for a in node.names):
            breaches.append(f"line {node.lineno}: imports a rounding function")
        elif isinstance(node, ast.Attribute) and node.attr in ROUNDING:
            breaches.append(f"line {node.lineno}: uses .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in ROUNDING:
            breaches.append(f"line {node.lineno}: uses {node.id}")
    return breaches


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in PACKAGE.glob("*.py") if p.name != OWNER),
)
def test_only_linear_reads_coefficients(module):
    assert layering_breaches((PACKAGE / module).read_text()) == []


def test_the_owner_reads_coefficients_but_does_no_rational_arithmetic():
    source = (PACKAGE / OWNER).read_text()
    assert layering_breaches(source, owner=True) == []
    # the rational kernel that integer rows and witnesses replaced
    reference = (Path(__file__).parent / "reference_linear.py").read_text()
    assert layering_breaches(reference, owner=True)


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


def test_rounding_outside_the_owner_would_be_flagged():
    assert layering_breaches("from math import floor\n") == [
        "line 1: imports a rounding function"
    ]
    assert layering_breaches("n = floor(q)\n") == ["line 1: uses floor"]
    assert layering_breaches("n = math.ceil(q)\n") == ["line 1: uses .ceil"]
    assert layering_breaches("whole = q.denominator == 1\n") == ["line 1: uses .denominator"]
    assert layering_breaches("from fractions import Fraction\n", owner=True) == [
        "line 1: imports fractions"
    ]
    assert layering_breaches("n = floor(q)\n", owner=True) == ["line 1: uses floor"]
    assert layering_breaches("c.terms\n", owner=True) == []


# -- no test-only code in the package ----------------------------------------


def definitions(source: str) -> list[str]:
    """Top-level functions and classes, and the methods not named ``__x__``."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names.extend(
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (item.name.startswith("__") and item.name.endswith("__"))
            )
    return names


def referenced_names(source: str) -> set[str]:
    """Names a source reads, as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def unreferenced(modules: dict[str, str], users: list[str]) -> list[str]:
    """``module.name`` for each definition of ``modules`` that no user source names."""
    used = set().union(*map(referenced_names, users))
    return [
        f"{module}.{name}"
        for module, source in sorted(modules.items())
        for name in definitions(source)
        if name.rpartition(".")[2] not in used
    ]


def test_every_definition_is_run_outside_the_tests():
    package = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    modules = {p.stem: p.read_text() for p in package if p.name != "__main__.py"}
    users = package + sorted((ROOT / "demos").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    assert unreferenced(modules, [p.read_text() for p in users]) == []


def test_a_definition_only_exports_or_tests_name_would_be_flagged():
    module = (
        "def used(): pass\n"
        "def unused(): pass\n"
        "class C:\n"
        "    def method(self): pass\n"
        "    def __eq__(self, other): pass\n"
    )
    assert definitions(module) == ["used", "unused", "C", "C.method"]
    assert unreferenced({"m": module}, ["from m import used\nm.C()\n"]) == [
        "m.unused",
        "m.C.method",
    ]
    assert unreferenced({"m": module}, ["used(); unused; C().method()\n"]) == []


def record_fields(source: str) -> list[str]:
    """``Class.field`` for each annotated field of a dataclass or NamedTuple in a source."""
    fields = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = {ast.unparse(d).partition("(")[0].rpartition(".")[2] for d in node.decorator_list}
        bases = {ast.unparse(b).rpartition(".")[2] for b in node.bases}
        if "dataclass" in decorators or "NamedTuple" in bases:
            fields.extend(
                f"{node.name}.{item.target.id}"
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            )
    return fields


def unread_fields(modules: dict[str, str], users: list[str]) -> list[str]:
    """``module.Class.field`` for each record field that no user source reads as an attribute.

    The rule matches by name, so a field escapes it when any attribute of
    that name is read, such as a method of another class with the same name.
    """
    read = {
        node.attr
        for source in users
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{module}.{field}"
        for module, source in sorted(modules.items())
        for field in record_fields(source)
        if field.rpartition(".")[2] not in read
    ]


def test_every_record_field_is_read_outside_the_tests():
    package = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    modules = {p.stem: p.read_text() for p in package}
    users = package + sorted((ROOT / "demos").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    assert unread_fields(modules, [p.read_text() for p in users]) == []


def test_a_field_only_tests_read_would_be_flagged():
    module = (
        "@dataclass(frozen=True)\n"
        "class D:\n"
        "    read: int\n"
        "    written: int = 0\n"
        "class N(typing.NamedTuple):\n"
        "    kept: str\n"
        "class Plain:\n"
        "    ignored: int\n"
    )
    assert record_fields(module) == ["D.read", "D.written", "N.kept"]
    user = "d.read + n.kept\nD(written=1).written = 2\nsetattr(d, 'written', 3)\n"
    assert unread_fields({"m": module}, [user]) == ["m.D.written"]
    assert unread_fields({"m": module}, [user + "d.written\n"]) == []


# -- menu builders honour the deadline ----------------------------------------


def unchecked_menu_builders(source: str) -> list[str]:
    """Functions returning ``_Menu`` with a ``for`` loop but no ``_check_deadline`` call.

    A menu can take longer to build than the whole time limit, so each loop
    building one checks the deadline.
    """
    names = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.returns is None:
            continue
        if ast.unparse(node.returns) != "_Menu":
            continue
        inside = list(ast.walk(node))
        loops = any(isinstance(n, (ast.For, ast.AsyncFor)) for n in inside)
        checks = any(
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name)
            and n.func.id == "_check_deadline"
            for n in inside
        )
        if loops and not checks:
            names.append(node.name)
    return names


def test_every_finder_menu_builder_checks_the_deadline():
    source = (PACKAGE / "finder.py").read_text()
    assert "-> _Menu:" in source
    assert unchecked_menu_builders(source) == []


def test_a_menu_builder_that_never_checks_the_deadline_would_be_flagged():
    # The symbolic function menu as it was before it checked the deadline.
    unchecked = '''
def _affine_candidates(arity: int, lo: int, budget: SearchBudget) -> _Menu:
    rng = range(budget.coeff_min, budget.coeff_max + 1)
    params = tuple(f"x{i + 1}" for i in range(arity))
    fast, forms = [], []
    for coeffs in itertools.product(rng, repeat=arity):
        if any(a < 0 for a in coeffs):
            continue  # negative slope escapes a ray carrier
        for b in rng:
            if sum(a * lo for a in coeffs) + b < lo:
                continue  # value at the carrier infimum must stay inside
            fast.append(_affine_fast(coeffs, b))
            forms.append((coeffs, b))

    def interp(k: int) -> PiecewiseFunction:
        coeffs, b = forms[k]
        return PiecewiseFunction.affine(params, AffineForm.make(dict(zip(params, coeffs)), b))

    return _Menu(fast, interp)
'''
    assert unchecked_menu_builders(unchecked) == ["_affine_candidates"]
    # A comprehension is no ``for`` statement, and another return type is not a menu.
    comprehension = "def m() -> _Menu:\n    return _Menu([c for c in x], f)\n"
    assert unchecked_menu_builders(comprehension) == []
    assert unchecked_menu_builders("def m() -> list[int]:\n    for c in x:\n        pass\n") == []
    nested = "def f():\n    def m() -> _Menu:\n        for c in x:\n            pass\n"
    assert unchecked_menu_builders(nested) == ["m"]


# -- one module runs generated source ------------------------------------------

CODE_RUNNERS = {"exec", "eval", "compile"}


def compiling_modules(modules: dict[str, str]) -> list[str]:
    """The modules, by name, whose source calls ``exec``, ``eval`` or ``compile``."""
    return [
        name
        for name, source in sorted(modules.items())
        if any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in CODE_RUNNERS
            for node in ast.walk(ast.parse(source))
        )
    ]


def test_only_the_checker_runs_generated_source():
    modules = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert compiling_modules(modules) == ["checker.py"]


def test_a_second_module_running_generated_source_would_be_flagged():
    checker = (PACKAGE / "checker.py").read_text()
    fork = 'namespace = {}\nexec(compile(source, "<check>", "exec"), namespace)\n'
    assert compiling_modules({"checker.py": checker, "finder.py": fork}) == ["checker.py", "finder.py"]
    assert compiling_modules({"finder.py": "value = eval(text)\n"}) == ["finder.py"]
    # A method named like one, such as a compiled pattern's, runs no generated source.
    assert compiling_modules({"lexer.py": "pattern = re.compile(text)\n"}) == []


# -- one cache of compiled checks ----------------------------------------------

CACHES = {"cache", "lru_cache", "cached_property"}


def functools_caches(source: str) -> list[str]:
    """``line N: name`` for each ``functools`` cache a module's source applies."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
        if alias.name in CACHES
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            name = node.attr if node.value.id == "functools" and node.attr in CACHES else None
        else:
            name = imported.get(node.id) if isinstance(node, ast.Name) else None
        if name is not None:
            found.append(f"line {node.lineno}: {name}")
    return found


def test_the_checker_keeps_one_cache():
    assert len(functools_caches((PACKAGE / "checker.py").read_text())) == 1


def test_a_second_cache_in_the_checker_would_be_flagged():
    checker = (PACKAGE / "checker.py").read_text()
    # the per-shape factory cache that the per-check cache replaced
    shape_cache = "\n@functools.lru_cache\ndef _check_maker(source):\n    return source\n"
    assert len(functools_caches(checker + shape_cache)) == 2
    assert functools_caches("from functools import cache as memo\n@memo\ndef f(): pass\n") == [
        "line 2: cache"
    ]
    assert functools_caches("make = functools.lru_cache(maxsize=8)(build)\n") == ["line 1: lru_cache"]
    # a name that is no functools cache is not one
    assert functools_caches("cache = {}\ncache.clear()\nitertools.cache\n") == []


# -- one enumeration of the predicate relations ----------------------------------

RELATION_CONSTANTS = {"BASE_RELATIONS", "PAIR_COEFFS", "PAIR_CONSTS"}


def relation_readers(source: str) -> list[str]:
    """The top-level definitions, by name, that read a relation constant; ``<module>`` for other code."""
    readers = set()
    for node in ast.parse(source).body:
        name = getattr(node, "name", "<module>")
        if any(
            isinstance(n, ast.Name) and n.id in RELATION_CONSTANTS and isinstance(n.ctx, ast.Load)
            for n in ast.walk(node)
        ):
            readers.add(name)
    return sorted(readers)


def test_one_finder_function_enumerates_the_predicate_relations():
    assert relation_readers((PACKAGE / "finder.py").read_text()) == ["_relations"]


def test_a_second_reader_of_the_relation_constants_would_be_flagged():
    finder = (PACKAGE / "finder.py").read_text()
    # the finite stages' own enumeration that the symbolic relations replaced
    fork = (
        "\ndef _template_selectors(points, deadline):\n"
        "    selectors = [bytes(itertools.starmap(_COMPARISONS[rel], points)) for rel in BASE_RELATIONS]\n"
        "    for a, b in itertools.product(PAIR_COEFFS, repeat=2):\n"
        "        selectors += [bytes(a * x + b * y <= c for x, y in points) for c in PAIR_CONSTS]\n"
        "    return list(dict.fromkeys(selectors))\n"
    )
    assert relation_readers(finder + fork) == ["_relations", "_template_selectors"]
    # Code outside a function counts too; defining a constant is no read.
    assert relation_readers("WIDE = PAIR_CONSTS\n") == ["<module>"]
    assert relation_readers("PAIR_CONSTS = range(-2, 3)\n") == []
    assert relation_readers("class C:\n    def m(self):\n        return BASE_RELATIONS\n") == ["C"]


# -- one enumeration of the affine template terms --------------------------------

COEFFICIENT_RANGE = {"coeff_min", "coeff_max"}


def coefficient_range_readers(source: str) -> list[str]:
    """The top-level functions, by name, that read ``.coeff_min`` or ``.coeff_max``."""
    return sorted(
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            isinstance(n, ast.Attribute) and n.attr in COEFFICIENT_RANGE and isinstance(n.ctx, ast.Load)
            for n in ast.walk(node)
        )
    )


def test_one_finder_function_enumerates_the_template_terms():
    assert coefficient_range_readers((PACKAGE / "finder.py").read_text()) == ["_template_terms"]


def test_a_second_reader_of_the_coefficient_range_would_be_flagged():
    finder = (PACKAGE / "finder.py").read_text()
    # the symbolic function menu's own enumeration that the one generator replaced
    fork = (
        "\ndef _affine_forms(arity, budget):\n"
        "    rng = range(budget.coeff_min, budget.coeff_max + 1)\n"
        "    return list(itertools.product(rng, repeat=arity + 1))\n"
    )
    assert coefficient_range_readers(finder + fork) == ["_affine_forms", "_template_terms"]
    # The budget's own validation is no enumeration, and setting a field is no read.
    source = "class B:\n    def check(self):\n        return self.coeff_min\n"
    assert coefficient_range_readers(source) == []
    assert coefficient_range_readers("def f(b):\n    b.coeff_min = 0\n") == []


# -- atoms are built through their check ---------------------------------------

UNCHECKED_BUILDERS = {("tuple", "__new__"), ("Atom", "_make")}


def unchecked_atom_builders(source: str) -> list[str]:
    """``line N: name`` for each way past ``Atom.__new__`` in a source that names ``Atom``.

    ``tuple.__new__`` and the named tuple's ``_make`` build an ``Atom``
    without its arity check, so only ``logic.py`` may use them on atoms:
    there ``Atom.binary`` checks its predicate once for a stream of pairs.
    A module that names no ``Atom`` may build its own tuples that way.
    """
    if "Atom" not in referenced_names(source):
        return []
    return [
        f"line {node.lineno}: {node.value.id}.{node.attr}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and (node.value.id, node.attr) in UNCHECKED_BUILDERS
    ]


def test_only_logic_builds_atoms_past_their_check():
    modules = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert [name for name, source in sorted(modules.items()) if unchecked_atom_builders(source)] == [
        "logic.py"
    ]


def test_an_atom_built_past_its_check_would_be_flagged():
    oracle = (PACKAGE / "oracle.py").read_text()
    per_pair = "\natoms = dict(zip(map(tuple.__new__, repeat(Atom), pairs), depths))\n"
    assert unchecked_atom_builders(oracle) == []
    assert len(unchecked_atom_builders(oracle + per_pair)) == 1
    assert unchecked_atom_builders(
        "from .logic import Atom\nnew = tuple.__new__\natom = Atom._make((p, args))\n"
    ) == ["line 2: tuple.__new__", "line 3: Atom._make"]
    # The lexer builds its tokens that way, and names no atom.
    lexer = (PACKAGE / "lexer.py").read_text()
    assert "tuple.__new__" in lexer
    assert unchecked_atom_builders(lexer) == []


# -- every import is used ---------------------------------------------------------

REEXPORT = "# noqa: F401"


def unused_imports(source: str) -> list[str]:
    """``line N: name`` for each name the source imports and never reads, outside re-export lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"line {alias.lineno}: {name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
        for name in [alias.asname or alias.name.partition(".")[0]]
        if name not in read and REEXPORT not in lines[alias.lineno - 1]
    ]


def test_every_import_of_the_package_is_used():
    modules = {p.name: p.read_text() for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    assert {name: unused_imports(source) for name, source in sorted(modules.items())} == {
        name: [] for name in sorted(modules)
    }
    assert [name for name, source in sorted(modules.items()) if REEXPORT in source] == ["pipeline.py"]


@pytest.mark.parametrize("folder", ("tests", "demos"))
def test_every_import_of_the_tests_and_demos_is_used(folder):
    modules = {p.name: p.read_text() for p in (ROOT / folder).glob("*.py")}
    assert modules
    assert {name: unused_imports(source) for name, source in sorted(modules.items())} == {
        name: [] for name in sorted(modules)
    }


def test_an_unused_import_would_be_flagged():
    checker = (PACKAGE / "checker.py").read_text()
    # an import left behind when the code that used the name is gone
    assert unused_imports(checker + "from .queries import Obligation\n") == [
        f"line {len(checker.splitlines()) + 1}: Obligation"
    ]
    # A name counts at its own line; ``import a.b`` binds ``a``; ``annotations`` is a directive.
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from a import (\n    b,\n    c as d,\n)\n"
        "d()\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: b"]
    assert unused_imports("import os.path\nos.path.join\n") == []
    assert unused_imports("from a import b  # noqa: F401 (re-exported)\n") == []


# -- backends are told apart in few places ------------------------------------------

STRUCTURE_CLASSES = {"FiniteStructure", "SymbolicStructure"}
BACKEND_SITES = [
    "checker.check_clause",
    "model_format.serialize_model",
    "structures.closure_check",
    "structures.eval_atom",
    "structures.eval_term",
]


def _names(node: ast.AST) -> set[str]:
    """The names and attribute names read anywhere in ``node``."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _called(node: ast.AST, *functions: str) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in functions


def _tests_a_structure_class(node: ast.AST) -> bool:
    """``isinstance``/``issubclass`` against a structure class, or ``type(...)`` compared with one."""
    if _called(node, "isinstance", "issubclass") and len(node.args) == 2:
        return bool(_names(node.args[1]) & STRUCTURE_CLASSES)
    if isinstance(node, ast.Compare):
        sides = (node.left, *node.comparators)
        named = set().union(*map(_names, sides))
        return any(_called(n, "type") for n in sides) and bool(named & STRUCTURE_CLASSES)
    return False


def _scopes(tree: ast.Module):
    """(name, node): each top-level function, each method as ``Class.method``, other code as ``<module>``."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for item in top.body:
                yield (f"{top.name}.{item.name}" if isinstance(item, functions) else top.name), item
        else:
            yield (top.name if isinstance(top, functions) else "<module>"), top


def structure_class_tests(modules: dict[str, str]) -> list[str]:
    """``module.name`` for each definition (see ``_scopes``) that tests a structure's class."""
    return sorted(
        {
            f"{module}.{name}"
            for module, source in modules.items()
            for name, scope in _scopes(ast.parse(source))
            if any(map(_tests_a_structure_class, ast.walk(scope)))
        }
    )


def test_the_backends_are_told_apart_in_five_functions():
    modules = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert structure_class_tests(modules) == BACKEND_SITES


def test_a_sixth_place_telling_the_backends_apart_would_be_flagged():
    modules = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    # a sixth function dispatching on the structure's class
    fork = "\ndef _closure(structure):\n    return isinstance(structure, (FiniteStructure,))\n"
    planted = {**modules, "structures": modules["structures"] + fork}
    assert structure_class_tests(planted) == sorted([*BACKEND_SITES, "structures._closure"])
    method = "class C:\n    def f(self, s):\n        return type(s) is m.SymbolicStructure\n"
    assert structure_class_tests({"m": method}) == ["m.C.f"]
    assert structure_class_tests({"m": "finite = isinstance(s, FiniteStructure)\n"}) == ["m.<module>"]
    # Building a structure, or testing another class, tells nothing apart.
    builds = "def f(c):\n    return SymbolicStructure(c) if isinstance(c, tuple) else c\n"
    assert structure_class_tests({"m": builds}) == []
