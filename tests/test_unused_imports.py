"""Every name a ``src/repro`` module imports is used in that module.

An ``ast`` scan stands in for a linter, which this project does not
depend on. Package ``__init__`` files import to re-export and are
skipped, as are ``from __future__`` imports and names a module lists
in ``__all__``. A name read only inside a string annotation (``x:
"Foo"``) counts as used.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

MODULES = sorted(
    path for path in SRC.rglob("*.py") if path.name != "__init__.py"
)


def _imports(tree):
    """``(bound name, line)`` for every import binding in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        if annotation is not None:
            yield annotation


def _names(tree):
    return {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    }


def _used(tree):
    used = _names(tree)
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names(ast.parse(node.value, mode="eval"))
    return used


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES]
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used(tree) | _exported(tree)
    unused = [
        f"line {line}: {name}"
        for name, line in _imports(tree) if name not in used
    ]
    assert not unused, f"{path.relative_to(SRC)} imports unused {unused}"


def test_scan_counts_string_annotations_and_flags_the_rest():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "from typing import Dict, List\n"
        "import os, json\n"
        "__all__ = ['json']\n"
        "def f(a: 'Dict[str, int]') -> None: ...\n"
    )
    used = _used(tree) | _exported(tree)
    assert [n for n, _ in _imports(tree) if n not in used] == ["List", "os"]
