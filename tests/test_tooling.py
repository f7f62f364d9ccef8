"""The benchmark tracer names only functions the package still has.

The tuple is read with `ast`, not by importing the tracer, so a removed
name fails here, at tier 1, rather than only in the traced benchmark run.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_names() -> tuple[str, ...]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED tuple in {TRACER.name}")


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
