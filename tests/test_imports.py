"""Every name a module of ``src/dulac`` or ``tests`` imports is used in
that module, ``tests/certify.py`` imports the standard library alone, and
``dulac.__all__`` lists exactly the names the package ``__init__``
imports, each of which resolves.

A name counts as used when the module reads it (``name`` or
``name.attr``) or lists it in ``__all__``.  An import on a line marked
``# noqa: F401`` is exempt: it is kept on purpose although the module
never reads it.  ``from __future__`` imports are not names.
"""

import ast
import sys
from pathlib import Path

import pytest

import dulac

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "dulac"
MODULES = sorted(PACKAGE.glob("*.py"))
TEST_MODULES = sorted(TESTS.glob("*.py"))


def unused_imports(source: str):
    """(line, name) of every imported name that ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize(
    "path", MODULES + TEST_MODULES,
    ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TEST_MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_caught_unless_marked():
    source = ("from os import path, sep\n"
              "from sys import argv  # noqa: F401\n"
              "import json\n"
              "print(sep, json.dumps)\n")
    assert unused_imports(source) == [(1, "path")]


def test_certificate_imports_the_standard_library_alone():
    # CI runs it under python -S, but only there would a stray import show
    tree = ast.parse((TESTS / "certify.py").read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import names no standard module
            modules.add("." * node.level + (node.module or "").split(".")[0])
    assert modules
    assert "dulac" not in modules
    assert modules <= sys.stdlib_module_names


def test_package_exports_exactly_what_it_imports():
    # a name left in __all__ after its definition is gone would fail
    # only at `from dulac import *`
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(dulac.__all__) == sorted(imported)
    for name in dulac.__all__:
        assert hasattr(dulac, name), name
