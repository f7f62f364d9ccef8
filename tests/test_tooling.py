"""Static checks of the package and of the benchmark tracer, read with `ast`.

The tracer names only functions the package still has.  Its tuple is
read with `ast`, not by importing the tracer, so a removed name fails
here, at tier 1, rather than only in the traced benchmark run.

No package module imports a name it never uses, no package function
or lambda takes a parameter it never reads, no private module-level
function or method goes without a caller in the package, every public
draw of `rng` has a caller in the package or is traced, neither
`engines` nor `experiments` reads an `rng.sign_*` draw, no module but
`rng` names a SplitMix64 primitive or derives a seed from more than one
tag, no module but `algebra` calls the 2^N-term `expand`, each of the
memory counts of `engines` and `experiments` is used by one call that
both sizes and refuses, and `engines` imports nothing from `experiments`,
so the report builders depend on the engines and not the other way.
`engines` packs its bits by word shifts: it names neither np.unpackbits
nor np.packbits and converts to no big-endian dtype.  Every
`functools.lru_cache` or `functools.cache` in the package is bounded by a
named module constant or wraps a function without parameters.  The CI job
that tests the oldest numpy the package accepts pins the floor that
`pyproject.toml` states.  Every name that the README or a package
docstring or comment gives as a module's attribute, in backticks with an
underscore, as a private name or as an UPPER_CASE constant, resolves to
an attribute of the package.  Every hypothesis test runs under the one
derandomized profile that `tests/conftest.py` loads, with no example
database.
"""

from __future__ import annotations

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
PACKAGE = ROOT / "src" / "rtwlogic"
README = ROOT / "README.md"
PYPROJECT = ROOT / "pyproject.toml"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


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


def _package_trees() -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _references(trees: dict[str, ast.Module]) -> set[str]:
    """Names referenced anywhere in the modules: each load of a name, each attribute."""
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return referenced


def _uncalled_private_functions(trees: dict[str, ast.Module]) -> list[tuple[str, str, int]]:
    """(module, function, line) for each private function no module references.

    Private means a module-level function or a method whose name starts
    with `_` and is not a dunder.  A reference is a load of the name or an
    attribute of that name anywhere in any of the modules.
    """
    defined = []
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
    referenced = _references(trees)
    return [d for d in defined if d[1] not in referenced]


def test_every_private_function_has_a_caller() -> None:
    trees = _package_trees()
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


def test_every_public_rng_function_has_a_caller_or_is_traced() -> None:
    # a public draw that no package module calls and the tracer does not
    # wrap is dead code; sign_at is exempt as the one definition of the
    # sign stream, which every numpy draw mirrors and the tests pin them to,
    # though no engine needs one sign at a time
    trees = _package_trees()
    traced = {name.partition(".")[2] for name in _traced_names() if name.startswith("rng.")}
    kept = _references(trees) | traced | {"sign_at"}
    public = [
        node for node in trees["rng.py"].body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert public
    dead = [
        f"rng.py:{node.lineno} {node.name} has no caller in the package and is not traced"
        for node in public
        if node.name not in kept
    ]
    assert not dead, "\n".join(dead)


def _sign_draws(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each rng.sign_* attribute read, or sign_* name imported from rng."""
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("sign_")
            and isinstance(node.value, ast.Name)
            and node.value.id == "rng"
        ):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module in ("rng", "rtwlogic.rng"):
            found += [(a.name, node.lineno) for a in node.names if a.name.startswith("sign_")]
    return found


def test_experiments_reads_signs_only_as_role_words() -> None:
    # every Monte Carlo engine reads rng.role_words, the one packed layout;
    # the exact twins and not-demo reach sign_matrix only through
    # rtw.build_reference_system
    trees = _package_trees()
    found = [
        f"{module}:{line} reads rng.{name}"
        for module in ("engines.py", "experiments.py")
        for name, line in _sign_draws(trees[module])
    ]
    assert not found, "\n".join(found)


def test_sign_draw_check_sees_attributes_and_imports() -> None:
    tree = ast.parse(
        "from . import rng\n"
        "from .rng import role_words, sign_block\n"
        "a = rng.sign_matrix(1, 2, 3)\n"
        "b = rng.role_words(a, 4)\n"
        "c = other.sign_tensor\n"
    )
    assert sorted(_sign_draws(tree)) == [("sign_block", 2), ("sign_matrix", 3)]


# the SplitMix64 mixer, the seed fold and their constants
_PRIMITIVES = {"mix64", "_mix", "_fold", "_GAMMA", "_NP_GAMMA"}


def _is_primitive(name: str) -> bool:
    return name in _PRIMITIVES or name.startswith(("_MIX", "_NP_MIX"))


def _primitive_references(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each SplitMix64 primitive named, read as an attribute or imported."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and _is_primitive(node.id):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and _is_primitive(node.attr):
            found.append((node.attr, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(a.name, node.lineno) for a in node.names if _is_primitive(a.name)]
    return found


def test_splitmix64_primitives_stay_in_rng() -> None:
    # every seed a package module needs comes from an rng derivation, so no
    # module holds a second copy of the mix or the fold
    found = [
        f"{module}:{line} references {name}"
        for module, tree in _package_trees().items()
        if module != "rng.py"
        for name, line in _primitive_references(tree)
    ]
    assert not found, "\n".join(found)


def test_primitive_check_sees_attributes_and_imports() -> None:
    tree = ast.parse(
        "from . import rng\n"
        "from .rng import derive_seed, mix64\n"
        "a = rng._mix(rng.role_words(x, 4))\n"
        "_GAMMA = 0x9E3779B97F4A7C15\n"
        "b = (t + 1) * rng._NP_GAMMA * _MIX1 + rng.derive_seed(1)\n"
        "c = other._fold\n"
    )
    assert sorted(_primitive_references(tree)) == [
        ("_GAMMA", 4), ("_MIX1", 5), ("_NP_GAMMA", 5), ("_fold", 6), ("_mix", 3), ("mix64", 2)
    ]


def _call_name(node: ast.Call) -> str | None:
    """The name a call calls, by name or as an attribute."""
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _multi_tag_seeds(tree: ast.Module) -> list[int]:
    """Line of each derive_seed call, by name or as an attribute, with more than one tag.

    A starred argument may hold any number of tags, so it counts as more.
    """
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        tags = node.args[1:]
        if _call_name(node) == "derive_seed" and (
            len(tags) > 1 or any(isinstance(tag, ast.Starred) for tag in tags)
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_rng_derives_a_seed_from_more_than_one_tag() -> None:
    # a seed chain (a trial's tag seeds, a hidden string's nested words) is
    # stated once, in rng; other modules take sub-seeds of one tag each
    found = [
        f"{module}:{line} calls derive_seed with more than one tag"
        for module, tree in _package_trees().items()
        if module != "rng.py"
        for line in _multi_tag_seeds(tree)
    ]
    assert not found, "\n".join(found)


def test_multi_tag_check_sees_names_attributes_and_starred_tags() -> None:
    tree = ast.parse(
        "from .rng import derive_seed\n"
        "a = rng.derive_seed(seed, 2 * n)\n"
        "b = rng.derive_seed(seed, tag, w)\n"
        "c = derive_seed(seed, t, 0, k)\n"
        "d = derive_seed(seed, *tags)\n"
        "e = other.derive_seed_np(seed, 1, 2)\n"
        "f = derive_seed(seed)\n"
    )
    assert _multi_tag_seeds(tree) == [3, 4, 5]


def _expand_calls(tree: ast.Module) -> list[int]:
    """Line of each call of expand, by name or as an attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _call_name(node) == "expand"
    )


def test_only_algebra_expands() -> None:
    # every report works on factored superpositions, O(N); the 2^N-term
    # expansion is for library callers and the tests
    found = [
        f"{module}:{line} calls expand"
        for module, tree in _package_trees().items()
        if module != "algebra.py"
        for line in _expand_calls(tree)
    ]
    assert not found, "\n".join(found)


def test_expand_check_sees_names_and_attributes() -> None:
    tree = ast.parse(
        "from .algebra import expand\n"
        "a = expand(uni)\n"
        "b = algebra.expand(apply_not(uni, 1, lam))\n"
        "c = expanded(uni)\n"
        "d = other.expand\n"
    )
    assert _expand_calls(tree) == [2, 3]


# the one memory rule of `engines` and `experiments`: the batch helper
# refuses work above the cap and sizes its batches from the same count
_CAP, _CHECK, _BATCH = "ENGINE_TRIAL_BYTES_CAP", "_check_memory", "_batch_trials"
_BATCHED = ("run_identification_trials", "run_baseline_trials", "_period_histogram")


def _memory_rule_breaches(*trees: ast.Module) -> list[str]:
    """Where the modules state their memory rule other than once per path.

    Only _check_memory reads ENGINE_TRIAL_BYTES_CAP; only _batch_trials and
    not_gate_demo, once each, call _check_memory; each _BATCHED engine calls
    _batch_trials once; and every _batch_trials call takes its count from a
    call of a `*_bytes` function.  Calls and reads are attributed to the
    module-level function or class they sit in.
    """
    breaches, calls = [], {}
    for top in (top for tree in trees for top in tree.body):
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id == _CAP and isinstance(node.ctx, ast.Load):
                if owner != _CHECK:
                    breaches.append(f"{owner} reads {_CAP}")
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            calls.setdefault(owner, []).append(node.func.id)
            count = node.args[1] if len(node.args) > 1 else None
            if node.func.id == _BATCH and not (
                isinstance(count, ast.Call)
                and isinstance(count.func, ast.Name)
                and count.func.id.endswith("_bytes")
            ):
                breaches.append(f"{owner} sizes a batch by a count no *_bytes function states")
    checks = sorted(name for name, called in calls.items() for c in called if c == _CHECK)
    if checks != [_BATCH, "not_gate_demo"]:
        breaches.append(f"{_CHECK} is called by {checks}")
    for name in _BATCHED:
        if calls.get(name, []).count(_BATCH) != 1:
            breaches.append(f"{name} calls {_BATCH} {calls.get(name, []).count(_BATCH)} times")
    return breaches


def test_each_memory_count_sizes_and_refuses_in_one_call() -> None:
    trees = _package_trees()
    breaches = _memory_rule_breaches(trees["engines.py"], trees["experiments.py"])
    assert not breaches, "\n".join(breaches)


def test_memory_rule_check_sees_second_refusals_and_literal_counts() -> None:
    engines = ast.parse(
        "ENGINE_TRIAL_BYTES_CAP = 1\n"
        "def _check_memory(what, need):\n"
        "    return need > ENGINE_TRIAL_BYTES_CAP\n"
        "def _batch_trials(what, count):\n"
        "    return _check_memory(what, count)\n"
        "def run_identification_trials(n):\n"
        "    _batch_trials('a', _trial_bytes(n))\n"
        "    _check_memory('a', _trial_bytes(n))\n"
        "def run_baseline_trials(n):\n"
        "    _batch_trials('b', 16 * n)\n"
        "    _batch_trials('b', _trial_bytes(n))\n"
        "def _period_histogram(n):\n"
        "    return ENGINE_TRIAL_BYTES_CAP // 64\n"
    )
    experiments = ast.parse(
        "from .engines import _check_memory\n"
        "def not_gate_demo(n):\n"
        "    _check_memory('c', n)\n"
    )
    assert _memory_rule_breaches(experiments) == [
        "_check_memory is called by ['not_gate_demo']",
        "run_identification_trials calls _batch_trials 0 times",
        "run_baseline_trials calls _batch_trials 0 times",
        "_period_histogram calls _batch_trials 0 times",
    ]
    assert sorted(_memory_rule_breaches(engines, experiments)) == [
        "_check_memory is called by ['_batch_trials', 'not_gate_demo', "
        "'run_identification_trials']",
        "_period_histogram calls _batch_trials 0 times",
        "_period_histogram reads ENGINE_TRIAL_BYTES_CAP",
        "run_baseline_trials calls _batch_trials 2 times",
        "run_baseline_trials sizes a batch by a count no *_bytes function states",
    ]


def _imports_of(tree: ast.Module, module: str) -> list[int]:
    """Line of each import of the package module `module`, or of a name from it."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            named = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # `from . import experiments` names the module among the names
            from_package = node.module in (None, "rtwlogic")
            named = [alias.name for alias in node.names] if from_package else [node.module]
        else:
            continue
        if any(name in (module, f"rtwlogic.{module}") for name in named):
            lines.append(node.lineno)
    return lines


def test_engines_import_nothing_from_experiments() -> None:
    # dependencies run one way, report builders -> engines -> rng: the
    # builders import the engines, and an engine needs no report
    found = _imports_of(_package_trees()["engines.py"], "experiments")
    assert not found, "\n".join(f"engines.py:{line} imports from experiments" for line in found)


def test_import_check_sees_relative_absolute_and_module_imports() -> None:
    tree = ast.parse(
        "from . import rng\n"
        "from .experiments import ExperimentReport\n"
        "from . import algebra, experiments\n"
        "import rtwlogic.experiments\n"
        "from rtwlogic.experiments import three_sigma\n"
        "from rtwlogic import experiments as exp\n"
        "from .experiments_old import x\n"
        "from other import experiments\n"
        "def f():\n"
        "    from .experiments import fit_slope\n"
    )
    assert _imports_of(tree, "experiments") == [2, 3, 4, 5, 6, 10]


# a byte round trip of bit packing: unpack, pack, or a big-endian byte order
_ROUND_TRIP_NAMES = {"unpackbits", "packbits", "newbyteorder"}
_BIG_ENDIAN_DTYPE = re.compile(r">[A-Za-z]")


def _byte_round_trips(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each round-trip function named or imported, and each big-endian dtype."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in _ROUND_TRIP_NAMES:
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr in _ROUND_TRIP_NAMES:
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            found += [(a.name, node.lineno) for a in node.names if a.name in _ROUND_TRIP_NAMES]
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _BIG_ENDIAN_DTYPE.match(node.value)
        ):
            found.append((node.value, node.lineno))
    return found


def test_engines_pack_bits_without_a_byte_round_trip() -> None:
    # the baseline's columns are moved into place by word shifts and one
    # multiply; a big-endian copy with np.unpackbits and np.packbits held
    # a byte per bit and period and took up to a third of a baseline op
    found = _byte_round_trips(_package_trees()["engines.py"])
    assert not found, "\n".join(f"engines.py:{line} names {name}" for name, line in found)


def test_round_trip_check_sees_calls_imports_and_big_endian_dtypes() -> None:
    tree = ast.parse(
        "import numpy as np\n"
        "from numpy import packbits\n"
        "a = np.unpackbits(x, axis=1)\n"
        "b = x.astype('>u8')\n"
        "c = x.view('<u4').astype(np.uint8)\n"
        "d = x.astype(np.dtype('>i4'))\n"
        "e = x.dtype.newbyteorder('S')\n"
        "f = 'a > b' + '>'\n"
        "g = packbits(y, bitorder='little')\n"
    )
    assert sorted(_byte_round_trips(tree), key=lambda f: (f[1], f[0])) == [
        ("packbits", 2), ("unpackbits", 3), (">u8", 4), (">i4", 6), ("newbyteorder", 7),
        ("packbits", 9),
    ]


def _takes_parameters(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    a = fn.args
    return bool(a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg)


def _caches(tree: ast.Module) -> list[tuple[int, str | None, bool]]:
    """(line, wrapped function, bounded) for each functools.lru_cache or cache.

    A cache is bounded when it is `lru_cache(maxsize=K)` or `lru_cache(K)`,
    K a name assigned an int literal at module level, or when the function
    it wraps, as a decorator or as the argument of a call, takes no
    parameters.  The wrapped function is None where it is no def of the
    module.  `functools` and the two names are followed through imports
    and aliases.
    """
    modules, names = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name: a.name for a in node.names
                      if a.name in ("lru_cache", "cache")}
    constants = {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        and type(node.value.value) is int
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    defs = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    by_name = {d.name: d for d in defs}
    decorated = {id(dec): d for d in defs for dec in d.decorator_list}
    parent = {id(child): node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def called_with_a_def(node: ast.AST) -> ast.FunctionDef | None:
        call = parent.get(id(node))
        if (isinstance(call, ast.Call) and call.func is node and len(call.args) == 1
                and not call.keywords and isinstance(call.args[0], ast.Name)):
            return by_name.get(call.args[0].id)
        return None

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules and node.attr in ("lru_cache", "cache"):
            kind = node.attr
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in names:
            kind = names[node.id]
        else:
            continue
        site, named_bound = node, False
        call = parent.get(id(node))
        if isinstance(call, ast.Call) and call.func is node and called_with_a_def(node) is None:
            # a factory call, lru_cache(maxsize=...): its result wraps the function
            sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
            named_bound = kind == "lru_cache" and len(sizes) == 1 and (
                isinstance(sizes[0], ast.Name) and sizes[0].id in constants
            )
            site = call
        wrapped = decorated.get(id(site)) or called_with_a_def(site)
        bounded = named_bound or (wrapped is not None and not _takes_parameters(wrapped))
        found.append((node.lineno, wrapped.name if wrapped else None, bounded))
    return sorted(found, key=lambda site: site[0])


def test_every_cache_is_bounded_by_a_named_constant() -> None:
    # a cache holds its entries between runs, outside every memory count, so
    # each states its bound by name or caches the one value of a function
    # without parameters
    found = {
        f"{module}:{line} {name}": bounded
        for module, tree in _package_trees().items()
        for line, name, bounded in _caches(tree)
    }
    wrapped = {key.split()[1] for key in found}
    assert {"_shared", "uniform_superposition", "slot_keys", "build_parser", "role_mask",
            "_draw_steps", "_tick_offsets", "_key_tags", "from_epsilon"} <= wrapped
    unbounded = [key for key, bounded in found.items() if not bounded]
    assert not unbounded, "\n".join(f"{key} is not bounded by a named constant" for key in unbounded)


def test_cache_check_sees_decorators_calls_and_aliases() -> None:
    tree = ast.parse(
        "import functools\n"
        "import functools as ft\n"
        "from functools import cache, lru_cache as memo\n"
        "_KEEP = 16\n"
        "_NONE = None\n"
        "@functools.lru_cache(maxsize=_KEEP)\n"
        "def a(n): pass\n"
        "@memo(_KEEP)\n"
        "def b(n): pass\n"
        "@ft.cache\n"
        "def c(): pass\n"
        "d = functools.cache(c)\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def e(n): pass\n"
        "@functools.lru_cache\n"
        "def f(n): pass\n"
        "@cache\n"
        "def g(*n): pass\n"
        "h = functools.lru_cache(maxsize=128)(g)\n"
        "i = memo(g)\n"
        "j = ft.lru_cache(_NONE)(a)\n"
        "k = functools.cache\n"
        "def outer():\n"
        "    @functools.lru_cache(maxsize=_KEEP)\n"
        "    def inner(x): pass\n"
        "    @functools.cache\n"
        "    def inner2(*, y): pass\n"
        "cache_hits = other.cache\n"
    )
    assert _caches(tree) == [
        (6, "a", True), (8, "b", True), (10, "c", True), (12, "c", True),
        (13, "e", False), (15, "f", False), (17, "g", False), (19, "g", False),
        (20, "g", False), (21, "a", False), (22, None, False),
        (24, "inner", True), (26, "inner2", False),
    ]


# the comment above the CI matrix entry that installs the oldest numpy
_OLDEST_NUMPY = "# the oldest numpy that pyproject.toml accepts"


def _numpy_floor_breaches(pyproject: str, workflow: str) -> list[str]:
    """Where pyproject.toml's numpy floor and the CI entry that pins it disagree.

    The floor is the one `"numpy>=X"` dependency; the pin is the first
    `numpy: "numpy==Y.*"` after the _OLDEST_NUMPY comment.
    """
    floors = re.findall(r'"numpy>=([0-9.]+)"', pyproject)
    if len(floors) != 1:
        return [f"pyproject.toml states {len(floors)} numpy floors"]
    _, found, after = workflow.partition(_OLDEST_NUMPY)
    pin = re.search(r'numpy: "numpy==([0-9.]+)\.\*"', after)
    if not found or pin is None:
        return ["no CI entry pins the oldest numpy"]
    if pin.group(1) != floors[0]:
        return [f"pyproject.toml accepts numpy >= {floors[0]}; CI pins numpy=={pin.group(1)}.*"]
    return []


def test_ci_tests_the_numpy_floor() -> None:
    breaches = _numpy_floor_breaches(
        PYPROJECT.read_text(encoding="utf-8"), WORKFLOW.read_text(encoding="utf-8")
    )
    assert not breaches, "\n".join(breaches)


def test_numpy_floor_check_sees_a_stale_pin_and_a_missing_entry() -> None:
    pyproject = 'dependencies = [\n    "numpy>=2.0",\n]\n'
    entry = (
        '        numpy: ["numpy"]\n'
        "        include:\n"
        f"          {_OLDEST_NUMPY}\n"
        '          - python-version: "3.10"\n'
        '            numpy: "numpy=={}.*"\n'
    )
    assert _numpy_floor_breaches(pyproject, entry.format("2.0")) == []
    assert _numpy_floor_breaches(pyproject, entry.format("1.24")) == [
        "pyproject.toml accepts numpy >= 2.0; CI pins numpy==1.24.*"
    ]
    unmarked = entry.format("2.0").replace(_OLDEST_NUMPY, "# another entry")
    assert _numpy_floor_breaches(pyproject, unmarked) == ["no CI entry pins the oldest numpy"]
    assert _numpy_floor_breaches('"numpy"\n', entry.format("2.0")) == [
        "pyproject.toml states 0 numpy floors"
    ]


def _documented_texts() -> list[tuple[str, str]]:
    """(where, text) for the README and each docstring and comment of the package."""
    texts = [("README.md", README.read_text(encoding="utf-8"))]
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node, clean=False)
                if doc:
                    texts.append((f"{path.name}:{getattr(node, 'lineno', 1)}", doc))
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                texts.append((f"{path.name}:{token.start[0]}", token.string))
    return texts


def _package_attributes() -> tuple[dict[str, object], set[str]]:
    """The package's modules by name, and the attributes of the package, its modules and classes."""
    modules = {path.stem: importlib.import_module(f"rtwlogic.{path.stem}")
               for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}
    names = set(dir(importlib.import_module("rtwlogic")))
    for module in modules.values():
        names |= set(dir(module))
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                names |= set(dir(cls)) | set(getattr(cls, "__annotations__", {}))
    return modules, names


def _stale_names(texts: list[tuple[str, str]], modules: dict[str, object],
                 names: set[str]) -> list[str]:
    """Each name in texts that resolves to nothing, with where it is.

    A name is a package module's `module.attr` (a file name such as
    `rng.py` is none), a backticked identifier with an underscore, or a
    bare private `_name` (not a pattern such as `_*_bytes`) or UPPER_CASE
    constant; the last two resolve to any attribute of the package, its
    modules or its classes.
    """
    dotted = re.compile(rf"\b({'|'.join(modules)})\.([A-Za-z_]\w*)")
    bare = re.compile(r"(?<![\w.*])(_[A-Za-z]\w*|[A-Z][A-Z0-9]+_[A-Z0-9_]+)\b")
    stale = []
    for where, text in texts:
        stale += [f"{where}: {module}.{attr}" for module, attr in dotted.findall(text)
                  if attr != "py" and not hasattr(modules[module], attr)]
        spans = [span for span in re.findall(r"`([^`\n]+)`", text)
                 if re.fullmatch(r"[A-Za-z_]\w*", span) and "_" in span]
        stale += [f"{where}: {name}" for name in dict.fromkeys(spans + bare.findall(text))
                  if name not in names]
    return stale


def test_documented_names_exist() -> None:
    stale = _stale_names(_documented_texts(), *_package_attributes())
    assert not stale, "\n".join(stale)


def test_stale_name_check_sees_dotted_backticked_and_bare_names() -> None:
    text = ("engines._candidate_words gathers `no_such_helper`, _gone and GONE_CAP; "
            "rng.py, `rng.role_words`, `_half_tables`, ENGINE_TRIAL_BYTES_CAP, "
            "`complete_trials` and A_1 resolve or are no names")
    assert _stale_names([("planted", text)], *_package_attributes()) == [
        "planted: engines._candidate_words", "planted: no_such_helper",
        "planted: _gone", "planted: GONE_CAP",
    ]


def test_property_tests_run_under_the_tier1_profile() -> None:
    # a per-test @settings built after conftest loaded the profile keeps its
    # derandomize, deadline and database, so reruns draw the same examples
    from hypothesis import settings

    for current in (settings.default, settings(max_examples=3)):
        assert current.derandomize is True
        assert current.deadline is None
        assert current.database is None
