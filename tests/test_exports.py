import ast
import importlib
import inspect
import os
import pkgutil
import re
import types

import pytest

import spintrack

MODULES = sorted(m.name for m in pkgutil.iter_modules(spintrack.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"spintrack.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_each_class_and_function_is_listed_by_the_module_that_defines_it(name):
    """A module's `__all__` lists no class or function of another module,
    so each public name has one home."""
    module = importlib.import_module(f"spintrack.{name}")
    assert module.__all__
    borrowed = [n for n in module.__all__
                if (inspect.isclass(getattr(module, n)) or inspect.isfunction(getattr(module, n)))
                and getattr(module, n).__module__ != module.__name__]
    assert borrowed == []


def test_package_root_defines_only_its_version_and_submodules():
    public = {n: v for n, v in vars(spintrack).items() if not n.startswith("_")}
    other = [n for n, v in public.items()
             if not (isinstance(v, types.ModuleType) and v.__name__ == f"spintrack.{n}")]
    assert other == []
    assert spintrack.__version__


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = spintrack.__path__[0]
#: the code outside the tests: the package and the benchmark
CALLERS = (PACKAGE, os.path.join(ROOT, "perfbench"))
#: public names kept without a caller: `protocol.recurrence_matrix` is the
#: exact map that the unbiased strength model, the strength sweep and the
#: moment oracle are to build on (ROADMAP items 6, 8 and 10); drop it here
#: once one of them calls it
UNCALLED = {"protocol.recurrence_matrix"}
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _parse(path) -> ast.Module:
    with open(path) as fh:
        return ast.parse(fh.read())


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _uses(node, inside=frozenset()):
    """The names a tree uses: loaded names, attributes, imported names and
    each part of a string that spells a dotted name, as perfbench's
    `fn("ro", "PhotonTrace.from_csv")` looks one up.  A name used inside its
    own def or class does not count, and neither do the strings of `__all__`."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    if _is_all(node):
        return set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        found = {node.id}
    elif isinstance(node, ast.Attribute):
        found = {node.attr}
    elif isinstance(node, ast.alias):
        found = set(node.name.split("."))
    elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _DOTTED.fullmatch(node.value):
        found = set(node.value.split("."))
    else:
        found = set()
    found -= inside
    for child in ast.iter_child_nodes(node):
        found |= _uses(child, inside)
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    """Each name in a package module's `__all__` is used by the package or
    the benchmark, so code that only the tests call lives in the tests."""
    trees = {os.path.join(folder, name): _parse(os.path.join(folder, name))
             for folder in CALLERS for name in os.listdir(folder) if name.endswith(".py")}
    used = set().union(*map(_uses, trees.values()))
    public = {f"{module}.{name}" for module in MODULES
              for node in trees[os.path.join(PACKAGE, f"{module}.py")].body if _is_all(node)
              for name in ast.literal_eval(node.value)}
    assert sorted(n for n in public if n.split(".")[1] not in used) == sorted(UNCALLED)
