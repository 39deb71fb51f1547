#!/usr/bin/env python3
"""Dead-definition gate: every ``def`` / ``class`` in ``src/`` has a user.

Static, stdlib ``ast`` only (run by CI's ``server`` job)::

    python tools/check_unreferenced.py

A definition counts as referenced when its name occurs anywhere under
``src/ examples/ bench/ tests/ benchmarks/`` other than as the name of a
definition: as a variable, an attribute (``obj.name``), an imported
name, a keyword argument, or a string that is exactly the name
(``getattr(obj, "name")``, ``tracer.wrap(backend, "drain", ...)``).
Being listed in ``__all__`` is not a use.  The check is by name, not by
binding, so it cannot prove a definition live -- only catch one that
nothing in the repository could be calling.

Dunder methods are not reported: the interpreter calls them.

Exits non-zero with one line per unreferenced definition.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFINED_UNDER = ("src",)
REFERENCED_UNDER = ("src", "examples", "bench", "tests", "benchmarks")


class _Names(ast.NodeVisitor):
    """Definitions and name uses of one module."""

    def __init__(self) -> None:
        self.defined: List[Tuple[str, int]] = []
        self.used: Set[str] = set()

    def _define(self, node) -> None:
        self.defined.append((node.name, node.lineno))
        self.generic_visit(node)

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _define

    def visit_Name(self, node: ast.Name) -> None:
        self.used.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.used.add(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node: ast.alias) -> None:
        self.used.add(node.name.rpartition(".")[2])

    def visit_keyword(self, node: ast.keyword) -> None:
        if node.arg:
            self.used.add(node.arg)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and node.value.isidentifier():
            self.used.add(node.value)

    def visit_Assign(self, node: ast.Assign) -> None:
        exports = any(isinstance(target, ast.Name) and target.id == "__all__"
                      for target in node.targets)
        if not exports:
            self.generic_visit(node)


def _scan(folders) -> Dict[Path, _Names]:
    modules = {}
    for folder in folders:
        for path in sorted((REPO_ROOT / folder).rglob("*.py")):
            names = _Names()
            names.visit(ast.parse(path.read_text(), filename=str(path)))
            modules[path] = names
    return modules


def main() -> int:
    modules = _scan(REFERENCED_UNDER)
    used = set().union(*(names.used for names in modules.values()))
    problems = []
    for path, names in modules.items():
        relative = path.relative_to(REPO_ROOT)
        if relative.parts[0] not in DEFINED_UNDER:
            continue
        for name, line in names.defined:
            dunder = name.startswith("__") and name.endswith("__")
            if name not in used and not dunder:
                problems.append(f"{relative}:{line}: {name} is defined but "
                                f"referenced nowhere")
    for problem in problems:
        print(f"FAIL: {problem}")
    if problems:
        return 1
    print(f"OK: every def/class under {'/'.join(DEFINED_UNDER)} is "
          f"referenced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
