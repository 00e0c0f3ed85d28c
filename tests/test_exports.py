"""Every public name a module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import oddwaves

MODULES = ["oddwaves"] + [f"oddwaves.{info.name}"
                          for info in pkgutil.iter_modules(oddwaves.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(getattr(module, "__all__", ())) <= set(namespace)
