"""Package hygiene: every public name a module exports exists."""

import importlib
import pkgutil

import pytest

import dockinv

MODULES = sorted(m.name for m in pkgutil.iter_modules(dockinv.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"dockinv.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"dockinv.{name}.__all__ lists undefined names {missing}"
