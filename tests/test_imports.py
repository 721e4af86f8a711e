"""Every name a module of the package imports is used in that module.

``__init__.py`` is skipped: its imports are the package's public names.
"""
import ast
from pathlib import Path

import hedonic_lab

PACKAGE = Path(hedonic_lab.__file__).parent
# Kept on purpose: perfbench/tracing.py wraps experiments.exists_stable by name.
ALLOWED = {("experiments", "exists_stable")}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_one():
    assert unused_imports("import os, sys\nfrom math import pi, tau as t\nsys.exit(t)\n") == [
        "os", "pi"]


def test_no_module_imports_a_name_it_does_not_use():
    unused = [(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"
              for name in unused_imports(path.read_text())]
    assert [u for u in unused if u not in ALLOWED] == []
