"""The package names the benchmark in ``perfbench/`` relies on still exist.

The span tracer reports a listed function that no longer exists as missing
instead of failing, and the by-hand ``panel`` workload is not run by the
suite, so a renamed or deleted public name would otherwise go unnoticed.
The ``cli_session`` workload counts the CLI's fits through the outermost
``fit_estimator`` and ``sweep_trajectory`` calls, so a command that fitted
around them would read as fewer fits per CPU second.  The workloads also
read solver diagnostics from ``provenance.info``; a renamed key would zero a
counter or fail every gcca output check.  The benchmark files
are read, not changed: ``spans.py`` is imported from its path (it imports
only the standard library) and ``workloads.py`` is parsed.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import regcca as rc
import regcca.cli
from regcca import estimators
from test_cli import toy_csv, write_config  # noqa: F401  (toy_csv is a fixture)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_layers():
    return load_spans().LAYERS


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


ESTIMATORS = [{"kind": "rcca", "penalty": 0.5, "K": 2}, {"kind": "spls", "penalty": 1.5, "K": 2},
              {"kind": "scca", "penalty": 0.05, "K": 2}, {"kind": "gcca", "penalty": 0.1, "K": 2}]


@pytest.mark.parametrize("command, listed, jobs, fits", [
    ("fit", ESTIMATORS, 1, len(ESTIMATORS)),
    ("compare", ESTIMATORS, 1, len(ESTIMATORS)),
    # the biplot shows the first listed estimator
    ("biplot", ESTIMATORS, 1, 1),
    # one sweep per listed kind, whose cells run inside it
    ("sweep", [{"kind": "rcca", "K": 2}, {"kind": "spls", "K": 2}], 1, 2),
    ("sweep", [{"kind": "rcca", "K": 2}, {"kind": "gcca", "K": 2}], 2, 2),
])
def test_cli_fits_pass_through_the_captured_calls(tmp_path, toy_csv, command, listed, jobs,
                                                  fits):
    """Every fit of a command is one outermost call of ``fit_estimator`` or
    ``sweep_trajectory``, as the ``cli_session`` workload's capture counts
    them, wherever those functions are bound."""
    captured = []
    depth = [0]

    def make(name):
        def make_wrapper(fn):
            def counted(*args, **kwargs):
                depth[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1
                    if depth[0] == 0:
                        captured.append(name)
            counted.__wrapped__ = fn
            return counted
        return make_wrapper

    interposer = load_spans().Interposer()
    try:
        for name in ("fit_estimator", "sweep_trajectory"):
            assert interposer.wrap("estimators", name, make(name))
        cfg = write_config(tmp_path, "cfg.json", {
            "data": {"x_csv": toy_csv[0], "y_csv": toy_csv[1]}, "estimators": listed,
            "grid": {"values": [0.3, 1.5]}, "folds": {"V": 2},
            "registration": {"comparison_k": 2}})
        argv = [command, "--config", cfg, "--out", str(tmp_path / "out"), "--jobs", str(jobs)]
        assert regcca.cli.main(argv) == 0
    finally:
        interposer.restore()
    assert captured == [("sweep_trajectory" if command == "sweep" else "fit_estimator")] * fits
    assert regcca.cli.fit_estimator is estimators.fit_estimator


def provenance_info_reads(source):
    """Every key path that ``source`` reads from an estimate's
    ``provenance.info``, by constant subscripts and a closing ``.get(key, ...)``."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    reads = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and node.attr == "info"
                and isinstance(node.value, ast.Attribute) and node.value.attr == "provenance"):
            continue
        keys = []
        parent = parents.get(node)
        while (isinstance(parent, ast.Subscript) and parent.value is node
               and isinstance(parent.slice, ast.Constant)):
            keys.append(parent.slice.value)
            node, parent = parent, parents.get(parent)
        if isinstance(parent, ast.Attribute) and parent.attr == "get":
            call = parents.get(parent)
            if isinstance(call, ast.Call) and isinstance(call.args[0], ast.Constant):
                keys.append(call.args[0].value)
        reads.add(tuple(keys))
    return reads


# what the workloads' solver counts and output checks read, per estimator kind
BENCHMARK_INFO_READS = {"gcca": {("glasso", "iterations"), ("glasso", "kkt_residual")},
                        "scca": {("total_inner_iterations",)}}


def test_the_info_reader_finds_subscripts_and_get():
    source = ("a = est.provenance.info['glasso']['iterations']\n"
              "b = sum(e.provenance.info.get('steps', 0) for e in ests)\n"
              "c = est.provenance.algorithm\n")
    assert provenance_info_reads(source) == {("glasso", "iterations"), ("steps",)}


def test_the_benchmark_reads_the_listed_diagnostics():
    reads = provenance_info_reads((PERFBENCH / "workloads.py").read_text())
    assert reads == set.union(*BENCHMARK_INFO_READS.values())


@pytest.mark.parametrize("kind, penalty", [("gcca", 0.1), ("scca", 0.05)])
def test_fits_carry_the_diagnostics_the_benchmark_reads(kind, penalty):
    cov, _ = rc.canonical_pair_covariance(6, 5, [0.8], 2, seed=3)
    data, _ = rc.center_and_covariance(rc.mvn_sample(cov, 60, seed=4))
    est = rc.fit_estimator(rc.EstimatorSpec(kind=kind, penalty=penalty, K=1), data)
    for path in BENCHMARK_INFO_READS[kind]:
        value = est.provenance.info
        for key in path:
            value = value[key]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), path


def test_the_one_penalty_cv_criteria_are_python_floats():
    # the panel workload stores cv_cc_agg values in its records and takes
    # max over them; cv_instability is the other one-penalty float form
    cov, _ = rc.canonical_pair_covariance(6, 5, [0.8, 0.5], 2, seed=3)
    data, _ = rc.center_and_covariance(rc.mvn_sample(cov, 60, seed=4))
    folds = rc.make_folds(data.n, 3, seed=5)
    ests = rc.sweep_trajectory("rcca", data, [0.3], folds, 2).fold_estimates(0)
    values = [rc.cv_cc_agg("successive", "sq_sum", data, ests, folds, 2),
              *rc.cv_cc_agg("subspace", "sq_sum", data, ests, folds, 2, return_dispersion=True),
              *rc.cv_instability(data, ests, 2).values()]
    assert len(values) == 7 and all(type(v) is float for v in values)
