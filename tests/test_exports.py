import importlib
import pkgutil

import pytest

import spintrack

MODULES = sorted(m.name for m in pkgutil.iter_modules(spintrack.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"spintrack.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", [m for m in MODULES if m != "cli"])
def test_package_reexports_each_library_module(name):
    """Each name of a library module's `__all__` is the same object as
    `spintrack.<name>`, so the package lists no name of its own."""
    module = importlib.import_module(f"spintrack.{name}")
    assert module.__all__
    differ = [n for n in module.__all__ if getattr(spintrack, n, None) is not getattr(module, n)]
    assert differ == []
