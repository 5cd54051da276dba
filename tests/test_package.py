"""Package hygiene: exported names exist, neighbour search lives in one module,
and the benchmark's span wrappers still fit the functions they wrap."""

import importlib
import importlib.util
import inspect
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


def test_benchmark_spans_fit_dockinv():
    """perfbench/spans.py wraps dockinv functions by name and its hooks read
    their arguments by name; a rename or deletion must fail here."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    from dockinv import inversion, surface

    hooked = {
        surface.sdf_value_grad: {"points", "coords"},
        surface.project_to_isosurface: {"candidates", "r_iso", "tol"},
        surface.build_surface: {"structure"},
        inversion.composite_objective: {"need_grad"},
        inversion.run_inversion: {"cfg", "steps"},
    }
    tracer = spans.Tracer()
    try:
        spans.install_dockinv_spans(tracer)
    finally:
        tracer.uninstall()
    for fn, names in hooked.items():
        missing = names - set(inspect.signature(fn).parameters)
        assert not missing, f"{fn.__name__} lost the arguments {missing} a span hook reads"
