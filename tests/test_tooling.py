"""Static checks of the package and of the benchmark tracer, read with `ast`.

The tracer names only functions the package still has.  Its tuple is
read with `ast`, not by importing the tracer, so a removed name fails
here, at tier 1, rather than only in the traced benchmark run.

No package module imports a name it never uses.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
PACKAGE = ROOT / "src" / "rtwlogic"


def _assigned_literal(tree: ast.Module, name: str):
    """The literal value assigned to `name` at module level, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def _traced_names() -> tuple[str, ...]:
    names = _assigned_literal(ast.parse(TRACER.read_text(encoding="utf-8")), "TRACED")
    if names is None:
        raise AssertionError(f"no TRACED tuple in {TRACER.name}")
    return names


def test_every_traced_name_resolves_to_a_package_function() -> None:
    names = _traced_names()
    assert names
    for name in names:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"rtwlogic.{module}")
        for attr in attrs:
            assert hasattr(obj, attr), f"{name}: rtwlogic.{module} has no {'.'.join(attrs)}"
            obj = getattr(obj, attr)
        assert callable(obj), f"{name} is not callable"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import (bar `__future__`), with its line."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def test_no_module_imports_an_unused_name() -> None:
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            # the package's __init__ imports names to re-export them
            used |= set(_assigned_literal(tree, "__all__") or ())
        unused += [
            f"{path.name}:{line} imports {name} and never uses it"
            for name, line in _imported_names(tree).items()
            if name not in used
        ]
    assert not unused, "\n".join(unused)
