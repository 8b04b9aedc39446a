import importlib
import inspect
import pkgutil
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
