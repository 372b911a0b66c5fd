"""The package names the benchmark in ``perfbench/`` relies on still exist.

The span tracer reports a listed function that no longer exists as missing
instead of failing, and the by-hand ``panel`` workload is not run by the
suite, so a renamed or deleted public name would otherwise go unnoticed.
The benchmark files are read, not changed: ``spans.py`` is imported from its
path (it imports only the standard library) and ``workloads.py`` is parsed.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def package_references(path):
    """Every dotted ``rc.*`` / ``regcca.*`` chain used in a file, and every
    ``from regcca... import name``, as (module path, attribute path)."""
    tree = ast.parse(path.read_text())
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            parts = []
            base = node
            while isinstance(base, ast.Attribute):
                parts.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in ("rc", "regcca"):
                refs.add(("regcca", tuple(reversed(parts))))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("regcca"):
            for alias in node.names:
                refs.add((node.module, (alias.name,)))
    return sorted(refs)


@pytest.mark.parametrize("module, function", [
    (module, function) for module, functions in load_layers().items() for function in functions
])
def test_traced_spans_exist(module, function):
    target = importlib.import_module(f"regcca.{module}")
    assert callable(getattr(target, function, None)), f"regcca.{module}.{function}"


def resolve(module, attrs):
    obj = importlib.import_module(module)
    for attr in attrs:
        if inspect.ismodule(obj) and not hasattr(obj, attr):
            # a submodule the workloads import themselves (``import regcca.cli``)
            importlib.import_module(f"{obj.__name__}.{attr}")
        obj = getattr(obj, attr)
    return obj


def test_workload_names_resolve():
    refs = package_references(PERFBENCH / "workloads.py")
    assert ("regcca", ("sym_matrix_power",)) in refs
    for module, attrs in refs:
        resolve(module, attrs)
