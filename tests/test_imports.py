"""Every name a module of the package imports is used in that module, and
every private module-level name it defines is named somewhere.

``__init__.py`` is skipped by the import check: its imports are the package's
public names.  The traced benchmark swaps some of the package's module-level
names by name; a last test checks that each of them exists and is restored.
"""
import ast
import importlib.util
from pathlib import Path

import hedonic_lab
from hedonic_lab import clustering, experiments, oracle

PACKAGE = Path(hedonic_lab.__file__).parent
ROOT = PACKAGE.parent.parent
# The trees whose code may name a private helper of the package.
READERS = ("src", "tests", "perfbench")
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


def private_definitions(source: str) -> set[str]:
    """Module-level private names bound by ``def``, ``class`` or an assignment."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def named(source: str) -> set[str]:
    """Every name a source reads: loads, attributes, imported names and string constants.

    Strings count because a test may swap a helper by name (``monkeypatch.setattr``).
    """
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_private_definitions_finds_the_unnamed_one():
    source = ("_A = 1\n_B, _C = 2, 3\ndef _f():\n    return _A\nclass _K:\n    pass\n"
              "__all__ = []\n_D: int = 4\n")
    defined = private_definitions(source)
    assert defined == {"_A", "_B", "_C", "_D", "_f", "_K"}
    assert sorted(defined - named(source + "x = _B + _C\nsetattr(m, '_D', 0)\n")) == ["_K", "_f"]


def test_every_private_helper_is_named_somewhere():
    readers = set()
    for tree in READERS:
        for path in sorted((ROOT / tree).rglob("*.py")):
            readers |= named(path.read_text())
    dead = [(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
            for name in sorted(private_definitions(path.read_text()) - readers)]
    assert dead == []


def test_tracer_swaps_names_that_exist_and_restores_them():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = (clustering, experiments, oracle)
    before = [dict(vars(m)) for m in modules]
    # Entering fails with AttributeError when a name the tracer swaps is gone.
    with tracing.instrument(tracing.Tracer()):
        swapped = {(m.__name__, name) for m, old in zip(modules, before)
                   for name, value in vars(m).items() if old.get(name) is not value}
    assert {("hedonic_lab.experiments", "exists_stable"),
            ("hedonic_lab.experiments", "rgs_strings"),
            ("hedonic_lab.experiments", "nash_existence_by_k"),
            ("hedonic_lab.clustering", "is_compatible")} <= swapped
    for m, old in zip(modules, before):
        assert vars(m).keys() == old.keys()
        assert [name for name, value in old.items() if vars(m)[name] is not value] == []
