"""Smoke tests of the experiment scripts under scripts/, run as a user runs
them: a separate interpreter with the package on PYTHONPATH."""

import csv
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from regcca.experiments import CANONICAL_PAIR_FIELDS

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          text=True, timeout=600)


@pytest.mark.parametrize("name", ["single_pair_experiment.py", "bootstrap_panel.py",
                                  "bench_pairs.py"])
def test_help(name):
    done = run_script(name, "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")


def test_single_pair_experiment_writes_records_and_summary(tmp_path):
    done = run_script("single_pair_experiment.py", "--seeds", "1", "--n", "60",
                      "--kinds", "spls", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    with open(tmp_path / "records.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CANONICAL_PAIR_FIELDS and len(rows) > 1
    assert set(json.loads((tmp_path / "summary.json").read_text())) == {"spls@n=60"}


def test_an_unknown_kind_exits_2(tmp_path):
    done = run_script("single_pair_experiment.py", "--kinds", "foo", "--out", str(tmp_path))
    assert done.returncode == 2
    assert "invalid choice: 'foo'" in done.stderr and "Traceback" not in done.stderr


@pytest.mark.parametrize("name", ["single_pair_experiment.py", "bootstrap_panel.py"])
def test_a_rejected_sample_size_exits_2(tmp_path, name):
    done = run_script(name, "--n", "1", "--seeds", "1", "--out", str(tmp_path))
    assert done.returncode == 2
    assert "error: need at least 2 samples, got 1" in done.stderr
    assert "Traceback" not in done.stderr


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_summarises_quartiles_and_wins():
    bench_pairs = load_bench_pairs()
    runs = [{side: {"metrics": {"cpu_s": {"value": value}, "success_frac": {"value": 1.0}}}
             for side, value in zip(("parent", "change"), values)}
            for values in ((1.0, 0.8), (1.2, 0.9), (0.9, 1.0), (1.1, 1.1))]
    summary = bench_pairs.summarise(runs, {"cpu_s": "lower", "success_frac": "higher"})
    # a lower cpu_s wins, a tie counts for neither side
    assert summary["cpu_s"]["change_wins"] == 2
    assert summary["cpu_s"]["parent"] == {"q1": 0.975, "median": 1.05, "q3": 1.125}
    assert summary["cpu_s"]["change"]["median"] == 0.95
    assert summary["success_frac"]["change_wins"] == 0


def test_bench_pairs_alternates_the_first_tree():
    calls = []

    def measure(side, i):
        calls.append((side, i))
        return {"metrics": {"cpu_s": {"value": float(i)}}}

    runs = load_bench_pairs().alternating(3, measure, "cpu_s")
    assert calls == [("parent", 0), ("change", 0), ("change", 1), ("parent", 1),
                     ("parent", 2), ("change", 2)]
    assert [run["first"] for run in runs] == ["parent", "change", "parent"]
    assert runs[1]["change"] == {"metrics": {"cpu_s": {"value": 1.0}}}
