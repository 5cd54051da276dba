"""Package hygiene: exported names exist, and neighbour search lives in one module."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import dockinv

MODULES = sorted(m.name for m in pkgutil.iter_modules(dockinv.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"dockinv.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"dockinv.{name}.__all__ lists undefined names {missing}"


def test_neighbour_search_has_one_implementation():
    """Distance matrices and neighbour order are built in neighbors.py only."""
    src = Path(dockinv.__file__).parent
    patterns = ('kind="stable"', "[:, None, :] -")
    offenders = [
        f"{path.name}: {pattern}"
        for path in sorted(src.glob("*.py")) if path.name != "neighbors.py"
        for pattern in patterns if pattern in path.read_text()
    ]
    assert not offenders, f"use dockinv.neighbors instead of {offenders}"
