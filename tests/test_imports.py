"""Every import in ``src/seqloc`` is used.

No linter is installed offline, so this is the gate for unused imports: a
static scan with the standard library's ``ast``.  A name counts as used
when any code of its module reads it, also inside a quoted annotation.
Exempt are ``from __future__`` imports, import statements marked
``# noqa: F401`` on their first line (names other tools patch by module
path), and the names ``seqloc/__init__.py`` re-exports through
``__all__``.
"""

import ast
from pathlib import Path

import pytest

import seqloc

SRC = Path(seqloc.__file__).resolve().parent


def _annotations(tree):
    """The quoted annotations of ``tree``, parsed."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes = [arg.annotation for arg in (
                *node.args.posonlyargs, *node.args.args,
                *node.args.kwonlyargs, node.args.vararg, node.args.kwarg)
                if arg is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        else:
            continue
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                yield ast.parse(note.value, mode="eval")


def unused_imports(path: Path, exported=()) -> list[str]:
    """``line: name`` for each imported name in ``path`` that nothing in
    the module reads, apart from the exemptions above."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if (isinstance(node, ast.ImportFrom) and node.module == "__future__"
                or "# noqa: F401" in lines[node.lineno - 1]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound[name] = node.lineno
    read = {node.id for root in (tree, *_annotations(tree))
            for node in ast.walk(root) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for line, name in sorted(
        (line, name) for name, line in bound.items())
        if name not in read and name not in exported]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_import(path):
    exported = seqloc.__all__ if path.name == "__init__.py" else ()
    assert unused_imports(path, exported) == []


def test_the_scan_sees_an_unused_import(tmp_path):
    """The scan itself: an unused name is reported, a used one, one read
    only in a quoted annotation and a marked statement are not."""
    module = tmp_path / "module.py"
    module.write_text(
        "from os import path, sep\n"
        "import json\n"
        "from math import (  # noqa: F401\n"
        "    pi,\n"
        ")\n"
        "from typing import Any\n\n"
        "def f(x: 'Any'):\n"
        "    return sep\n", encoding="utf-8")
    assert unused_imports(module) == ["1: path", "2: json"]
