"""Every name a ``repro`` package exports must have a caller outside the tests.

An exported name is *reached* when some module under ``src/`` (other than
a package ``__init__.py``, which only re-exports), ``examples/``,
``benchmarks/`` or ``scripts/`` mentions it as code: a bare name, an
attribute or an import.  The scan walks the syntax tree, so docstrings,
comments and string annotations do not count, and neither does a
definition's mention of itself inside its own body.  A name that only the
tests reach is either deleted with its tests or listed in ``ALLOWED`` with
the reason it stays.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_TREES = ("src", "examples", "benchmarks", "scripts")

# name -> why it stays without a caller outside the tests.
ALLOWED = {
    "numerical_gradient": "reference finite-difference gradient the gradchecks compare against",
    "relative_error": "reference error metric the gradchecks compare against",
    "registered_ops": "op-registry enumeration the per-op gradcheck sweep iterates",
    "select_first_transforms": "shield-depth selector; ROADMAP item 3 decides it",
    "select_by_memory_budget": "shield-depth selector; ROADMAP item 3 decides it",
    "mse_loss": "stem-fitting loss for ROADMAP item 1's fitted attacker",
    "unregister_scenario": "scenario registry's hook for tests that register a scenario",
}


def _exports(init: Path) -> list[str]:
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def _packages() -> dict[str, list[str]]:
    """Dotted package name -> its ``__all__``, for every package defining one."""
    packages = {}
    for init in sorted(PACKAGE.rglob("__init__.py")):
        exports = _exports(init)
        if exports:
            packages[".".join(init.parent.relative_to(PACKAGE.parent).parts)] = exports
    return packages


class _References(ast.NodeVisitor):
    """Collects the identifiers a module mentions as code."""

    def __init__(self) -> None:
        self.names: set[str] = set()
        self._defining: list[str] = []

    def _note(self, name: str) -> None:
        if name not in self._defining:
            self.names.add(name)

    def _visit_definition(self, node: ast.AST) -> None:
        self._defining.append(node.name)
        self.generic_visit(node)
        self._defining.pop()

    visit_ClassDef = _visit_definition
    visit_FunctionDef = _visit_definition
    visit_AsyncFunctionDef = _visit_definition

    def visit_Name(self, node: ast.Name) -> None:
        self._note(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._note(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node: ast.alias) -> None:
        for part in node.name.split("."):
            self._note(part)


@functools.cache
def _referenced() -> frozenset[str]:
    names: set[str] = set()
    for tree in CALLER_TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            if tree == "src" and path.name == "__init__.py":
                continue
            visitor = _References()
            visitor.visit(ast.parse(path.read_text(), filename=str(path)))
            names |= visitor.names
    return frozenset(names)


PACKAGES = _packages()


@pytest.mark.parametrize("package", sorted(PACKAGES))
def test_every_export_has_a_caller(package):
    unreached = [
        name for name in PACKAGES[package] if name not in _referenced() and name not in ALLOWED
    ]
    assert not unreached, f"{package} exports names only the tests reach: {unreached}"


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allowed_name_is_exported_and_still_unreached(name):
    assert any(name in exports for exports in PACKAGES.values()), (
        f"{name} is no longer exported; drop it from ALLOWED"
    )
    assert name not in _referenced(), f"{name} now has a caller; drop it from ALLOWED"


def test_scan_ignores_docstrings_string_annotations_and_self_mentions():
    visitor = _References()
    visitor.visit(
        ast.parse(
            '"""Mentions Documented."""\n'
            "class Own:\n"
            "    def copy(self) -> 'Annotated':\n"
            "        return Own()\n"
            "caller(helper.attr)\n"
            "import pkg.sub\n"
            "from mod import imported\n"
        )
    )
    assert {"Documented", "Own", "Annotated"}.isdisjoint(visitor.names)
    assert {"caller", "helper", "attr", "pkg", "sub", "imported"} <= visitor.names
