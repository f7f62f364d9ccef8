"""Static checks of the package and of the benchmark tracer, read with `ast`.

The tracer names only functions the package still has.  Its tuple is
read with `ast`, not by importing the tracer, so a removed name fails
here, at tier 1, rather than only in the traced benchmark run.

No package module imports a name it never uses, no package function
or lambda takes a parameter it never reads, and no private module-level
function or method goes without a caller in the package.
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


def _unread_parameters(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(function, parameter, line) for each parameter its function never reads.

    A read is a load of the name anywhere in the body, nested functions
    and lambdas included; `self` and `cls` are exempt.
    """
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            sub.id
            for stmt in body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        name = getattr(node, "name", "lambda")
        unread += [
            (name, p.arg, node.lineno)
            for p in params
            if p.arg not in read and p.arg not in ("self", "cls")
        ]
    return unread


def test_no_function_has_an_unread_parameter() -> None:
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    unread = [
        f"{path.name}:{line} {func} never reads its parameter {param}"
        for path in modules
        for func, param, line in _unread_parameters(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not unread, "\n".join(unread)


def test_unread_parameter_check_sees_functions_and_lambdas() -> None:
    tree = ast.parse(
        "def f(a, b, *args, c, **kw):\n"
        "    g = lambda x, y: x + c\n"
        "    def h(z):\n"
        "        return a\n"
        "    return g(kw, h)\n"
        "class K:\n"
        "    def m(self, v):\n"
        "        return None\n"
    )
    assert sorted(_unread_parameters(tree)) == [
        ("f", "args", 1), ("f", "b", 1), ("h", "z", 3), ("lambda", "y", 2), ("m", "v", 7)
    ]


def _uncalled_private_functions(trees: dict[str, ast.Module]) -> list[tuple[str, str, int]]:
    """(module, function, line) for each private function no module references.

    Private means a module-level function or a method whose name starts
    with `_` and is not a dunder.  A reference is a load of the name or an
    attribute of that name anywhere in any of the modules.
    """
    defined, referenced = [], set()
    for module, tree in trees.items():
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            defined += [
                (module, f.name, f.lineno)
                for f in members
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                and f.name.startswith("_")
                and not f.name.endswith("__")
            ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return [d for d in defined if d[1] not in referenced]


def test_every_private_function_has_a_caller() -> None:
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert trees
    uncalled = [
        f"{module}:{line} {name} has no caller in the package"
        for module, name, line in _uncalled_private_functions(trees)
    ]
    assert not uncalled, "\n".join(uncalled)


def test_uncalled_private_check_sees_functions_and_methods() -> None:
    trees = {
        "a.py": ast.parse(
            "def _used(): pass\n"
            "def _unused(): pass\n"
            "def public(): return _used\n"
            "class K:\n"
            "    def __init__(self): self._m()\n"
            "    def _m(self): pass\n"
            "    def _n(self): pass\n"
        ),
        "b.py": ast.parse("def _other(): pass\nx = K()._n\n"),
    }
    assert sorted(_uncalled_private_functions(trees)) == [
        ("a.py", "_unused", 2), ("b.py", "_other", 1)
    ]
