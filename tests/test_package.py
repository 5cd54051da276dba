"""Package hygiene: exported names exist and have callers, neighbour search
and the complex objective each have one implementation, and the benchmark's
span wrappers still fit the functions they wrap."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import dockinv

MODULES = sorted(m.name for m in pkgutil.iter_modules(dockinv.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"dockinv.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"dockinv.{name}.__all__ lists undefined names {missing}"


# The autodiff API that gradient tests use; no stage needs to call it.
CALLER_ALLOW_LIST = {"autodiff.param"}


def _references(module: str, tree: ast.Module) -> list:
    """(statement, the (module, name) pairs it reads) per top-level statement.

    A bare name is the module's own or one it imported with ``from .x import
    name``; an attribute counts on a module imported with ``from . import x``.
    """
    aliases, imported = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module is None:
                    aliases[a.asname or a.name] = a.name
                else:
                    imported[a.asname or a.name] = (node.module, a.name)

    def reads(stmt) -> set:
        out = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                out.add(imported.get(node.id, (module, node.id)))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                out.add((aliases[node.value.id], node.attr))
        return out

    return [(stmt, reads(stmt)) for stmt in tree.body]


def _defines(stmt, name: str) -> bool:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return stmt.name == name
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return any(isinstance(t, ast.Name) and t.id in (name, "__all__") for t in targets)


def test_public_names_have_callers():
    """Each name in a module's ``__all__`` is read in src/dockinv/ outside its own
    definition and ``__all__``, or named in perfbench/."""
    src = Path(dockinv.__file__).parent
    bench = "\n".join(p.read_text() for p in sorted((src.parents[1] / "perfbench").glob("*.py")))
    refs = {p.stem: _references(p.stem, ast.parse(p.read_text())) for p in sorted(src.glob("*.py"))}
    uncalled = []
    for module in refs:
        for name in getattr(importlib.import_module(f"dockinv.{module}"), "__all__", ()):
            called = any((module, name) in names for other, stmts in refs.items()
                         for stmt, names in stmts if other != module or not _defines(stmt, name))
            if not (called or re.search(rf"\b{name}\b", bench)
                    or f"{module}.{name}" in CALLER_ALLOW_LIST):
                uncalled.append(f"{module}.{name}")
    assert not uncalled, f"public names without a caller: {uncalled}"


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


def test_complex_objective_has_one_implementation():
    """The complex heads and their three loss terms are called from
    finetune.complex_terms only, so stages 3 and 4 share one objective."""
    src = Path(dockinv.__file__).parent
    guarded = {"complex_heads", "pocket_loss", "interaction_loss", "affinity_loss"}
    callers = set()
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            for scope in stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]:
                for node in ast.walk(scope):
                    if isinstance(node, ast.Call):
                        func = node.func
                        name = getattr(func, "attr", None) or getattr(func, "id", None)
                        if name in guarded:
                            callers.add(f"{path.stem}.{getattr(scope, 'name', '<module>')}")
    assert callers == {"finetune.complex_terms"}


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


def _primitive_ops() -> dict:
    """{op name: files} of every ``ad.primitive(values, "op", ...)`` call in src/dockinv/."""
    src = Path(dockinv.__file__).parent
    ops: dict = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "primitive"):
                op = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "op"), None)
                assert isinstance(op, ast.Constant), \
                    f"{path.name}:{node.lineno} names its op with a non-literal"
                ops.setdefault(op.value, set()).add(path.name)
    return ops


def test_every_hand_vjp_op_has_a_registry_entry():
    """Each op built with ad.primitive in src/ is checked against its op graph
    by tests/test_hand_vjp.py, through an entry in per_op.REGISTRY."""
    import per_op

    ops = _primitive_ops()
    assert "state-features" in ops and "conv" in ops      # the scan finds the calls
    missing = sorted(set(ops) - set(per_op.REGISTRY))
    assert not missing, f"hand-VJP ops without a per_op.REGISTRY entry: {missing}"


def test_scatters_go_through_one_helper():
    """Gradient scatters use ad.scatter_add, which is bitwise np.add.at and
    several times faster; np.add.at itself appears nowhere in src/dockinv/."""
    src = Path(dockinv.__file__).parent
    offenders = [path.name for path in sorted(src.glob("*.py"))
                 if re.search(r"\.add\.at\b", path.read_text())]
    assert not offenders, f"np.add.at in {offenders}; use ad.scatter_add"
