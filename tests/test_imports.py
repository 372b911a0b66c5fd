"""The package's modules use each other's public names only.

An underscore-prefixed name is private to the module that defines it: a
sibling that imports one depends on a detail its owner may change without
notice.  Dunder names such as ``__version__`` are public.  A module's
``__all__`` names only what it defines or imports.  Only ``datamodel``
imports ``csv``: every table is read and written by its one reader and
one writer.  Only ``experiments`` names a preset: its ``PRESETS`` table
is the one place a preset's rules are looked up.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "regcca"


def private_sibling_imports(source):
    """(module, name) of every private name that the module with this
    ``source`` imports from another module of the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level > 0
                                                 or (node.module or "").startswith("regcca")):
            found += [(node.module, alias.name) for alias in node.names
                      if alias.name.startswith("_") and not alias.name.startswith("__")]
    return found


def test_walker_finds_a_private_import():
    source = ("import numpy as np\nfrom numpy import _globals\n"
              "from .metrics import _vector_sin2, cv_cc_agg\nfrom . import __version__\n"
              "from regcca.linalg import _require_finite\n")
    assert private_sibling_imports(source) == [("metrics", "_vector_sin2"),
                                               ("regcca.linalg", "_require_finite")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_sibling_imports(path):
    assert private_sibling_imports(path.read_text()) == []


def imported_modules(source):
    """The top-level name of every module that ``source`` imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module.split(".")[0])
    return found


def test_walker_finds_a_csv_import():
    source = ("import json, csv\nfrom csv import reader\nfrom .datamodel import read_csv_table\n"
              "def f():\n    import csv as c\n")
    assert imported_modules(source).count("csv") == 3


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "datamodel.py"),
                         ids=lambda p: p.name)
def test_only_datamodel_imports_csv(path):
    assert "csv" not in imported_modules(path.read_text())


PRESET_NAMES = ["canonical-pair", "bootstrap-panel"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_experiments_names_a_preset(path):
    named = [name for name in PRESET_NAMES if name in path.read_text()]
    assert named == (PRESET_NAMES if path.name == "experiments.py" else [])


def unresolved_exports(module):
    """The names in ``module.__all__`` that the module does not bind."""
    return [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]


def test_a_stale_export_is_found():
    module = types.ModuleType("stale")
    module.cv_table = object()
    module.__all__ = ["cv_table", "MetricReport"]
    assert unresolved_exports(module) == ["MetricReport"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_exported_names_resolve(path):
    name = "regcca" if path.stem == "__init__" else f"regcca.{path.stem}"
    assert unresolved_exports(importlib.import_module(name)) == []
