import csv
import hashlib
import json
import warnings

import numpy as np
import pytest

import regcca.experiments
import regcca.metrics
from regcca import estimators
from regcca.cli import main
from regcca.compare import overlap_matrix, registered_overlaps, trajectory_comparison
from regcca.datamodel import (
    DataError,
    center_and_covariance,
    load_two_view_csv,
    make_folds,
    save_two_view_csv,
)
from regcca.estimators import EstimatorSpec, fit_estimator, sweep_trajectory
from regcca.experiments import (
    run_bootstrap_panel_bench,
    run_canonical_pair_bench,
    summarise_bootstrap_panel,
    summarise_canonical_pair,
)
from regcca.linalg import thin_svd
from regcca.metrics import METRIC_FAMILIES, cv_cc_agg
from regcca.synth import canonical_pair_covariance, mvn_sample
from test_metrics import assert_rows_match, reference_sweep_rows


@pytest.fixture
def toy_csv(tmp_path):
    cov, _ = canonical_pair_covariance(5, 4, [0.8, 0.5], 2, seed=201)
    data = mvn_sample(cov, 60, seed=202)
    x_path = tmp_path / "x.csv"
    y_path = tmp_path / "y.csv"
    save_two_view_csv(data, x_path, y_path)
    return str(x_path), str(y_path)


@pytest.fixture
def undefined_criterion(monkeypatch):
    """The presets' estimation_error raising on every estimate, healthy or not."""
    def undefined(*args):
        raise ValueError("undefined criterion")

    monkeypatch.setattr(regcca.experiments, "estimation_error", undefined)


def write_config(tmp_path, name, config):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def hash_tree(root):
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class TestFit:
    def test_pls_manifest_rho_matches_cross_covariance_svd(self, tmp_path, toy_csv):
        cfg = write_config(tmp_path, "fit.json", {
            "data": {"x_csv": toy_csv[0], "y_csv": toy_csv[1]},
            "estimators": [{"kind": "rcca", "penalty": 1.0, "K": 2}],
        })
        out = tmp_path / "out"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "fit_00_rcca.json").read_text())
        data = load_two_view_csv(*toy_csv)
        _, cov = center_and_covariance(data)
        expected = thin_svd(cov.sxy)[1][:2]
        np.testing.assert_allclose(manifest["rho"], expected, atol=1e-12)

    def test_generator_data_exported_on_request(self, tmp_path):
        cfg = write_config(tmp_path, "gen.json", {
            "generator": {"name": "canonical_pair", "n": 40, "sample_seed": 3,
                          "params": {"p": 5, "q": 4, "rhos": [0.8], "support_size": 2,
                                     "seed": 1}},
            "estimators": [{"kind": "rcca", "penalty": 0.5, "K": 1}],
            "output": {"export_data": True},
        })
        out = tmp_path / "out"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
        exported = load_two_view_csv(out / "data_x.csv", out / "data_y.csv")
        assert exported.x.shape == (40, 5)

    def test_run_manifest_records_hash_and_versions(self, tmp_path, toy_csv):
        cfg = write_config(tmp_path, "fit.json", {
            "data": {"x_csv": toy_csv[0], "y_csv": toy_csv[1]},
            "estimators": [{"kind": "rcca", "penalty": 0.5, "K": 1}],
        })
        out = tmp_path / "out"
        main(["fit", "--config", cfg, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert len(manifest["config_hash"]) == 64
        assert "numpy" in manifest["versions"]


class TestSweepDeterminism:
    def test_rerun_byte_identical(self, tmp_path, toy_csv):
        cfg = write_config(tmp_path, "sweep.json", {
            "data": {"x_csv": toy_csv[0], "y_csv": toy_csv[1]},
            "estimators": [{"kind": "rcca", "K": 2}, {"kind": "scca", "K": 1}],
            "grid": {"values": [0.05, 0.2]},
            "folds": {"V": 3, "seed": 1},
            "metrics": {"k_list": [1, 2]},
            "seed": 4,
        })
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
        assert hash_tree(out1) == hash_tree(out2)

    def test_parallel_jobs_match_serial(self, tmp_path, toy_csv):
        # 6 penalties x (3 folds + full) = 24 cells: two workers take
        # several chunks each
        cfg = write_config(tmp_path, "sweep.json", {
            "data": {"x_csv": toy_csv[0], "y_csv": toy_csv[1]},
            "estimators": [{"kind": "rcca", "K": 2}],
            "grid": {"values": [0.05, 0.1, 0.2, 0.4, 0.6, 0.9]},
            "folds": {"V": 3, "seed": 3},
            "metrics": {"k_list": [1, 2]},
            "seed": 2,
        })
        serial, parallel = tmp_path / "s", tmp_path / "p"
        assert main(["sweep", "--config", cfg, "--out", str(serial)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(parallel), "--jobs", "2"]) == 0
        assert hash_tree(serial) == hash_tree(parallel)

    def test_cell_failures_warn_but_exit_zero(self, tmp_path, toy_csv, capsys):
        cfg = write_config(tmp_path, "warn.json", {
            "data": {"x_csv": toy_csv[0], "y_csv": toy_csv[1]},
            "estimators": [{"kind": "gcca", "K": 1,
                            "options": {"glasso_max_iter": 1}}],
            "grid": {"values": [0.05]},
            "folds": {"V": 2},
        })
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert "warning:" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["warnings"] == 3  # 2 folds + full sample

    def test_metric_fault_on_healthy_cell_raises(self, tmp_path, toy_csv, monkeypatch):
        # only degenerate fold estimates excuse a criterion's ValueError
        def broken(*args, **kwargs):
            raise ValueError("metric fault")

        monkeypatch.setattr(regcca.metrics.CvCriteria, "cc_agg", broken)
        cfg = write_config(tmp_path, "sweep.json", {
            "data": {"x_csv": toy_csv[0], "y_csv": toy_csv[1]},
            "estimators": [{"kind": "rcca", "K": 1}],
            "grid": {"values": [0.3]},
            "folds": {"V": 2},
        })
        with pytest.raises(ValueError, match="metric fault"):
            main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")])

    def test_degenerate_cell_metrics_skipped_with_warning(self, tmp_path, toy_csv, capsys):
        cfg = write_config(tmp_path, "sweep.json", {
            "data": {"x_csv": toy_csv[0], "y_csv": toy_csv[1]},
            "estimators": [{"kind": "scca", "K": 1}],
            "grid": {"values": [50.0]},
            "folds": {"V": 2},
        })
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert "metrics skipped" in capsys.readouterr().err
        assert json.loads((out / "manifest.json").read_text())["warnings"] == 1

    def test_degenerate_fold_rows_and_warnings_match_per_k_calls(self, tmp_path, toy_csv,
                                                                  capsys):
        # scca at these penalties zeroes some fold directions: every row and
        # warning must be the ones the per-(criterion, k) calls give
        grid, k_list = [0.3, 1.0, 1.5, 3.0], [3, 1, 2]
        cfg = write_config(tmp_path, "sweep.json", {
            "data": {"x_csv": toy_csv[0], "y_csv": toy_csv[1]},
            "estimators": [{"kind": "scca", "K": 2}],
            "grid": {"values": grid},
            "folds": {"V": 3, "seed": 5},
            "metrics": {"k_list": k_list},
        })
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        warns = [ln for ln in capsys.readouterr().err.splitlines() if ln]
        data, _ = center_and_covariance(load_two_view_csv(*toy_csv))
        folds = make_folds(data.n, 3, seed=5)
        traj = sweep_trajectory("scca", data, grid, folds, 2)
        ref_rows, ref_warns = reference_sweep_rows("scca", data, traj, folds, k_list)
        assert ref_warns and warns == ref_warns
        with open(out / "metrics.csv", newline="") as fh:
            rows = [(float(r[1]), r[3], int(r[4]), float(r[5])) for r in list(csv.reader(fh))[1:]]
        assert_rows_match(rows, ref_rows)
        assert json.loads((out / "manifest.json").read_text())["warnings"] == len(ref_warns)

    def test_grid_values_outside_a_kind_domain_warn(self, tmp_path, toy_csv, capsys):
        # rcca takes [0, 1], spls takes [1, inf): each kind loses one value
        cfg = write_config(tmp_path, "sweep.json", {
            "data": {"x_csv": toy_csv[0], "y_csv": toy_csv[1]},
            "estimators": [{"kind": "rcca", "K": 1}, {"kind": "spls", "K": 1}],
            "grid": {"values": [0.5, 2.0]},
            "folds": {"V": 2},
            "metrics": {"k_list": [1]},
        })
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        warns = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("warning:")]
        assert warns == [
            "warning: rcca grid values outside its penalty domain dropped: 2.0",
            "warning: spls grid values outside its penalty domain dropped: 0.5",
        ]
        assert json.loads((out / "manifest.json").read_text())["warnings"] == 2
        with open(out / "metrics.csv", newline="") as fh:
            kept = {(r[0], r[1]) for r in list(csv.reader(fh))[1:]}
        assert kept == {("rcca", "0.5"), ("spls", "2.0")}

    def test_metrics_csv_layout(self, tmp_path, toy_csv):
        cfg = write_config(tmp_path, "sweep.json", {
            "data": {"x_csv": toy_csv[0], "y_csv": toy_csv[1]},
            "estimators": [{"kind": "rcca", "K": 1}],
            "grid": {"values": [0.3]},
            "folds": {"V": 2},
            "metrics": {"k_list": [1]},
        })
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "algorithm,penalty,fold,metric,k,value"
        assert [ln.rsplit(",", 1)[0] for ln in lines[1:]] == [
            f"rcca,0.3,cv,{family}1-cv,1" for family in METRIC_FAMILIES]

    def test_input_files_unchanged(self, tmp_path, toy_csv):
        before = (open(toy_csv[0], "rb").read(), open(toy_csv[1], "rb").read())
        cfg = write_config(tmp_path, "sweep.json", {
            "data": {"x_csv": toy_csv[0], "y_csv": toy_csv[1]},
            "estimators": [{"kind": "rcca", "K": 1}],
            "grid": {"values": [0.3]},
            "folds": {"V": 2},
        })
        main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")])
        after = (open(toy_csv[0], "rb").read(), open(toy_csv[1], "rb").read())
        assert before == after


class TestDegenerateEstimates:
    # scca at tau = 5 zeroes every direction of the toy data; in a biplot
    # both variates then have zero variance, and each masked one warns too
    @pytest.mark.parametrize("command", ["fit", "biplot"])
    def test_degenerate_estimate_warns_and_counts(self, tmp_path, toy_csv, capsys, command):
        cfg = write_config(tmp_path, f"{command}.json", {
            "data": {"x_csv": toy_csv[0], "y_csv": toy_csv[1]},
            "estimators": [{"kind": "scca", "penalty": 5.0, "K": 2}],
        })
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        warns = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("warning:")]
        expected = ["warning: estimators[0] scca@5 is degenerate"]
        if command == "biplot":
            expected += [f"warning: variate {k} has near-zero variance; coordinate masked"
                         for k in (1, 2)]
        assert warns == expected
        assert json.loads((out / "manifest.json").read_text())["warnings"] == len(expected)
        if command == "fit":
            assert json.loads((out / "fit_00_scca.json").read_text())["degenerate"] is True
        else:
            lines = (out / "biplot.csv").read_text().splitlines()
            assert lines == ["view,name,coord_1,coord_2,sq_norm"]

    def test_only_degenerate_estimates_warn(self, tmp_path, toy_csv, capsys):
        cfg = write_config(tmp_path, "fit.json", {
            "data": {"x_csv": toy_csv[0], "y_csv": toy_csv[1]},
            "estimators": [{"kind": "rcca", "penalty": 0.2, "K": 2},
                           {"kind": "scca", "penalty": 5.0, "K": 1}],
        })
        out = tmp_path / "out"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: estimators[1] scca@5 is degenerate"]
        assert json.loads((out / "manifest.json").read_text())["warnings"] == 1


class TestConfigErrors:
    def test_missing_data_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {"estimators": []})
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_penalty_reports_field(self, tmp_path, toy_csv, capsys):
        cfg = write_config(tmp_path, "bad.json", {
            "data": {"x_csv": toy_csv[0], "y_csv": toy_csv[1]},
            "estimators": [{"kind": "rcca", "penalty": 7.0, "K": 1}],
        })
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "estimators[0]" in capsys.readouterr().err

    def test_unparseable_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["fit", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_solver_hard_failure_exits_3(self, tmp_path, toy_csv, capsys):
        cfg = write_config(tmp_path, "hard.json", {
            "data": {"x_csv": toy_csv[0], "y_csv": toy_csv[1]},
            "estimators": [{"kind": "gcca", "penalty": 0.05, "K": 1,
                            "options": {"glasso_max_iter": 1}}],
        })
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "solver failure" in capsys.readouterr().err

    def test_unknown_aggregation_rejected(self, tmp_path, toy_csv):
        cfg = write_config(tmp_path, "bad.json", {
            "data": {"x_csv": toy_csv[0], "y_csv": toy_csv[1]},
            "estimators": [{"kind": "rcca", "K": 1}],
            "grid": {"values": [0.3]},
            "metrics": {"k_list": [1], "aggregations": ["geometric"]},
        })
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    # each case used to end in exit 1 with a traceback, or, where marked,
    # in exit 0 (the toy views have p = 5, q = 4)
    @pytest.mark.parametrize("command, section, field", [
        ("fit", {"estimators": [{"kind": "rcca", "penalty": 0.5, "K": 1,
                                 "options": {"tol": 1e-8}}]},
         "estimators[0].options.tol"),
        ("sweep", {"estimators": [{"kind": "scca", "K": 1, "options": {"max_outerr": 5}}]},
         "estimators[0].options.max_outerr"),
        ("fit", {"estimators": [{"kind": "gcca", "penalty": 0.1, "K": 1, "options": [1]}]},
         "estimators[0].options"),
        ("fit", {"estimators": [{"kind": "rcca", "penalty": 0.5, "K": 5}]}, "estimators[0].K"),
        ("compare", {"estimators": [{"kind": "gcca", "penalty": 0.1, "K": 5}]},
         "estimators[0].K"),
        ("fit", {"estimators": [{"kind": "scca", "penalty": 0.1, "K": 5}]}, "estimators[0].K"),
        ("sweep", {"estimators": [{"kind": "scca", "K": 5}]}, "estimators[0].K"),
        # exit 0 with every cell failed
        ("sweep", {"estimators": [{"kind": "rcca", "K": 5}]}, "estimators[0].K"),
        ("sweep", {"grid": {"values": [0.1, "0.3"]}}, "grid.values"),
        ("sweep", {"grid": {"values": [0.1, 0.5, 0.3]}}, "grid.values"),
        # exit 0 with a header-only metrics.csv
        ("sweep", {"metrics": {"k_list": []}}, "metrics.k_list"),
        ("compare", {"registration": {"mode": "rotation"}}, "registration.mode"),
        ("compare", {"registration": {"comparison_metric": "vt_uk"}},
         "registration.comparison_metric"),
        ("compare", {"registration": {"reference": "first"}}, "registration.reference"),
        ("biplot", {"output": {"variate_view": "z"}}, "output.variate_view"),
        # exit 0, the parameter ignored
        ("synth-bench", {"generator": {"preset": "canonical-pair",
                                       "params": {"n_seed": 1}}}, "generator.params"),
        ("fit", {"estimators": [{"kind": "scca", "penalty": 0.1, "K": 1,
                                 "options": {"tol": "small"}}]},
         "estimators[0].options.tol"),
        ("fit", {"estimators": [{"kind": "scca", "penalty": 0.1, "K": 1,
                                 "options": {"max_outer": 20.5}}]},
         "estimators[0].options.max_outer"),
        ("fit", {"estimators": [{"kind": "scca", "penalty": 0.1, "K": 1,
                                 "options": {"recycle_duals": 1}}]},
         "estimators[0].options.recycle_duals"),
        ("sweep", {"grid": {"log10_from": "a", "log10_to": 0}}, "grid.log10_from"),
        ("sweep", {"grid": {"log10_from": -1, "log10_to": None}}, "grid.log10_to"),
        # exit 0 with a two-point grid
        ("sweep", {"grid": {"log10_from": -2, "log10_to": 0, "per_decade": 0}},
         "grid.per_decade"),
        ("sweep", {"grid": {"log10_from": -2, "log10_to": 0, "per_decade": 2.5}},
         "grid.per_decade"),
        ("sweep", {"folds": {"V": "x"}}, "folds.V"),
        # exit 0 with V = 2
        ("sweep", {"folds": {"V": 2.7}}, "folds.V"),
        ("sweep", {"folds": {"V": True}}, "folds.V"),
        ("sweep", {"folds": {"V": 2, "seed": "s"}}, "folds.seed"),
        ("compare", {"registration": {"comparison_k": 0}}, "registration.comparison_k"),
        ("compare", {"registration": {"comparison_k": "x"}}, "registration.comparison_k"),
        # exit 0 with an all-NaN comparison table
        ("compare", {"estimators": [{"kind": "rcca", "penalty": 0.5, "K": 2}],
                     "registration": {"comparison_k": 5}}, "registration.comparison_k"),
        ("compare", {"estimators": [{"kind": "rcca", "penalty": 0.5, "K": 2}],
                     "metrics": {"k_list": [1, 3]}}, "registration.comparison_k"),
        ("fit", {"seed": "x"}, "seed"),
        ("fit", {"seed": -1}, "seed"),
        ("sweep", {"seed": -1}, "seed"),
        ("sweep", {"seed": 1.5}, "seed"),
        ("sweep", {"seed": True}, "seed"),
        ("sweep", {"folds": {"V": 2, "seed": -3}}, "folds.seed"),
        # a section set to None is left out of the config
        ("fit", {"data": None, "generator": {
            "name": "canonical_pair", "n": 40, "sample_seed": -1,
            "params": {"p": 5, "q": 4, "rhos": [0.8], "support_size": 2, "seed": 1}}},
         "generator.sample_seed"),
        ("fit", {"data": None, "generator": {
            "name": "canonical_pair", "n": 40, "sample_seed": "3",
            "params": {"p": 5, "q": 4, "rhos": [0.8], "support_size": 2, "seed": 1}}},
         "generator.sample_seed"),
        ("sweep", {"metrics": {"k_list": [True]}}, "metrics.k_list"),
        ("sweep", {"metrics": [1]}, "config.metrics"),
        ("sweep", {"metrics": {"aggregations": 1}}, "metrics.aggregations"),
        ("sweep", {"folds": 2}, "config.folds"),
        ("compare", {"registration": "orthogonal"}, "config.registration"),
        ("biplot", {"output": ["x"]}, "config.output"),
        ("fit", {"estimators": [0.5]}, "estimators[0]"),
        ("biplot", {"output": {"biplot_threshold": "x"}}, "output.biplot_threshold"),
        ("fit", {"data": None, "generator": {"name": "canonical_pair", "n": 40,
                                            "params": [5, 4]}}, "generator.params"),
        ("fit", {"data": None, "generator": {
            "name": "canonical_pair", "n": True,
            "params": {"p": 5, "q": 4, "rhos": [0.8], "support_size": 2, "seed": 1}}},
         "generator.n"),
        ("fit", {"data": None, "generator": {
            "name": "canonical_pair", "n": -5,
            "params": {"p": 5, "q": 4, "rhos": [0.8], "support_size": 2, "seed": 1}}},
         "generator.n"),
        ("synth-bench", {"generator": {"preset": "canonical-pair",
                                       "params": {"n_seeds": "x"}}}, "generator.params.n_seeds"),
        # exit 0, the value taken as 1, 1.0, 0.5 or true
        ("fit", {"estimators": [{"kind": "rcca", "penalty": 0.5, "K": True}]}, "estimators[0].K"),
        ("fit", {"estimators": [{"kind": "rcca", "penalty": True, "K": 1}]},
         "estimators[0].penalty"),
        ("fit", {"estimators": [{"kind": "rcca", "penalty": "0.5", "K": 1}]},
         "estimators[0].penalty"),
        ("fit", {"output": {"export_data": "no"}}, "output.export_data"),
        # a TypeError traceback inside the preset
        ("synth-bench", {"generator": {"preset": "canonical-pair", "params": {
            "n_seeds": 1, "n_list": ["x"], "kinds": ["rcca"], "grids": {"rcca": [0.2]}}}},
         "generator.params.n_list"),
        ("synth-bench", {"generator": {"preset": "canonical-pair", "params": {
            "n_seeds": 1, "n_list": [40], "kinds": ["rcca"], "grids": {"rcca": ["a"]}}}},
         "generator.params.grids.rcca"),
        # the default registration.comparison_k read an unchecked k_list
        ("compare", {"metrics": {"k_list": ["a"]}}, "metrics.k_list"),
        ("compare", {"metrics": {"k_list": [0]}}, "metrics.k_list"),
        ("compare", {"metrics": {"k_list": [True]}}, "metrics.k_list"),
        ("compare", {"metrics": {"k_list": "abc"}}, "metrics.k_list"),
        # options that are now constants of their fits
        ("fit", {"estimators": [{"kind": "scca", "penalty": 0.1, "K": 1,
                                 "options": {"lambda_step": 1.0}}]},
         "estimators[0].options.lambda_step"),
        ("fit", {"estimators": [{"kind": "gcca", "penalty": 0.1, "K": 1,
                                 "options": {"glasso_tol": 1e-7}}]},
         "estimators[0].options.glasso_tol"),
        # options outside their ranges: exit 0 with converged false, or
        # exit 3 (gcca)
        ("fit", {"estimators": [{"kind": "scca", "penalty": 0.1, "K": 1,
                                 "options": {"max_outer": 0}}]},
         "estimators[0].options.max_outer"),
        ("fit", {"estimators": [{"kind": "scca", "penalty": 0.1, "K": 1,
                                 "options": {"max_outer": -3}}]},
         "estimators[0].options.max_outer"),
        ("fit", {"estimators": [{"kind": "scca", "penalty": 0.1, "K": 1,
                                 "options": {"n_steps_admm": 0}}]},
         "estimators[0].options.n_steps_admm"),
        ("fit", {"estimators": [{"kind": "scca", "penalty": 0.1, "K": 1,
                                 "options": {"tol": -1}}]},
         "estimators[0].options.tol"),
        ("sweep", {"estimators": [{"kind": "scca", "K": 1, "options": {"max_outer": 0}}]},
         "estimators[0].options.max_outer"),
        ("fit", {"estimators": [{"kind": "gcca", "penalty": 0.1, "K": 1,
                                 "options": {"glasso_max_iter": 0}}]},
         "estimators[0].options.glasso_max_iter"),
        ("compare", {"estimators": [{"kind": "spls", "penalty": 2.0, "K": 1,
                                     "options": {"tol": 0.0}}]},
         "estimators[0].options.tol"),
        # a KeyError or ValueError traceback inside the preset
        ("synth-bench", {"generator": {"preset": "canonical-pair", "params": {
            "n_seeds": 1, "n_list": [40], "kinds": ["foo"]}}}, "generator.params.kinds"),
        ("synth-bench", {"generator": {"preset": "canonical-pair", "params": {
            "n_seeds": 1, "n_list": [40], "kinds": ["scca"], "grids": {"gcca": [0.1]}}}},
         "generator.params.grids.scca"),
        ("synth-bench", {"generator": {"preset": "bootstrap-panel", "params": {
            "n_seeds": 1, "kinds": ["gcca"], "grids": {"gcca": [-0.1]}}}},
         "generator.params.grids.gcca"),
        # the bootstrap-panel preset sweeps its grids, as the canonical-pair one does not
        ("synth-bench", {"generator": {"preset": "bootstrap-panel", "params": {
            "n_seeds": 1, "kinds": ["rcca"], "grids": {"rcca": []}}}},
         "generator.params.grids.rcca"),
        ("synth-bench", {"generator": {"preset": "bootstrap-panel", "params": {
            "n_seeds": 1, "kinds": ["rcca"], "grids": {"rcca": [0.1, 0.5, 0.3]}}}},
         "generator.params.grids.rcca"),
        # a one-point log grid, and a NaN bound: a traceback from sweep_trajectory
        # or from the point count
        ("sweep", {"grid": {"log10_from": -1, "log10_to": -1}}, "grid"),
        ("sweep", {"grid": {"log10_from": float("nan"), "log10_to": 0}}, "grid"),
        # parameters the preset itself rejects: a ValueError traceback
        ("synth-bench", {"generator": {"preset": "bootstrap-panel", "params": {
            "n_seeds": 1, "kinds": ["rcca"], "V": 1}}}, "generator.params"),
        ("synth-bench", {"generator": {"preset": "bootstrap-panel", "params": {
            "n_seeds": 1, "kinds": ["rcca"], "K": 0}}}, "generator.params"),
        ("synth-bench", {"generator": {"preset": "canonical-pair", "params": {
            "n_seeds": 1, "n_list": [1]}}}, "generator.params"),
        ("synth-bench", {"generator": {"preset": "canonical-pair", "params": {
            "n_seeds": 1, "support_size": 100}}}, "generator.params"),
        ("synth-bench", {"generator": {"preset": "canonical-pair", "params": {
            "n_seeds": 1, "rho1": 1.5}}}, "generator.params"),
        ("sweep", {"metrics": {"k_list": [1, 1]}}, "metrics.k_list"),
        ("fit", {"data": {"x_csv": "no_such_x.csv", "y_csv": "no_such_y.csv"}}, "data:"),
        ("sweep", {"grid": {"per_decade": 3}}, "grid: need either"),
        ("fit", {"estimators": []}, "estimators: must list"),
        ("fit", {"estimators": [{"kind": "pls", "penalty": 0.5, "K": 1}]}, "estimators[0].kind"),
        ("fit", {"estimators": [{"kind": "rcca", "K": 1}]}, "estimators[0].penalty"),
        ("sweep", {"estimators": [{"kind": "spls", "K": 1}]}, "grid: no legal penalties"),
        ("fit", {"data": None, "generator": {"name": "gaussian", "n": 40}}, "generator.name"),
        # powerlaw's d and p were cast by int(): exit 0 as d=20, p=12 or d=1,
        # and a NumPy message for p >= d or p = 0
        ("fit", {"data": None, "generator": {"name": "powerlaw", "n": 40,
                                            "params": {"d": 20.7, "p": 12, "gamma": 3.0}}},
         "generator.params.d"),
        ("fit", {"data": None, "generator": {"name": "powerlaw", "n": 40,
                                            "params": {"d": 20, "p": 12.9, "gamma": 3.0}}},
         "generator.params.p"),
        ("fit", {"data": None, "generator": {"name": "powerlaw", "n": 40,
                                            "params": {"d": True, "p": 1, "gamma": 3.0}}},
         "generator.params.d"),
        ("fit", {"data": None, "generator": {"name": "powerlaw", "n": 40,
                                            "params": {"d": 20, "p": 20, "gamma": 3.0}}},
         "generator.params.p"),
        ("fit", {"data": None, "generator": {"name": "powerlaw", "n": 40,
                                            "params": {"d": 20, "p": 0, "gamma": 3.0}}},
         "generator.params.p"),
        ("fit", {"data": None, "generator": {"name": "powerlaw", "n": 40,
                                            "params": {"p": 5, "gamma": 3.0}}},
         "generator.params.d"),
    ])
    def test_config_faults_exit_2(self, tmp_path, toy_csv, capsys, command, section, field):
        config = {"data": {"x_csv": toy_csv[0], "y_csv": toy_csv[1]},
                  "estimators": [{"kind": "rcca", "penalty": 0.5, "K": 1}],
                  "grid": {"values": [0.1, 0.3]}, "folds": {"V": 2}, **section}
        config = {key: value for key, value in config.items() if value is not None}
        cfg = write_config(tmp_path, "bad.json", config)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [ln for ln in err.splitlines() if ln.startswith("config error:")
                and field in ln]

    def test_a_fit_on_the_powerlaw_generator(self, tmp_path):
        cfg = write_config(tmp_path, "ok.json", {
            "generator": {"name": "powerlaw", "n": 60, "sample_seed": 4,
                          "params": {"d": 9, "p": 5, "gamma": 3.0, "seed": 1}},
            "estimators": [{"kind": "rcca", "penalty": 0.5, "K": 2}]})
        out = tmp_path / "o"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
        # the first p = 5 of the d = 9 variables are x, the other 4 are y
        for name, rows in (("U", 5), ("V", 4)):
            with open(out / f"fit_00_rcca_{name}.csv", newline="") as fh:
                table = list(csv.reader(fh))
            assert table[0] == ["variable", "comp_1", "comp_2"] and len(table) == rows + 1
        assert json.loads((out / "fit_00_rcca.json").read_text())["converged"]

    @pytest.mark.parametrize("command", ["fit", "sweep"])
    def test_negative_seed_flag_exits_2(self, tmp_path, toy_csv, capsys, command):
        cfg = write_config(tmp_path, "ok.json", {
            "data": {"x_csv": toy_csv[0], "y_csv": toy_csv[1]},
            "estimators": [{"kind": "rcca", "penalty": 0.5, "K": 1}],
            "grid": {"values": [0.1, 0.3]}, "folds": {"V": 2}, "seed": 3})
        argv = [command, "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "-1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["config error: --seed: expected a non-negative int, got -1"]

    # both used to run serially with exit 0
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_nonpositive_jobs_flag_exits_2(self, tmp_path, toy_csv, capsys, jobs):
        cfg = write_config(tmp_path, "ok.json", {
            "data": {"x_csv": toy_csv[0], "y_csv": toy_csv[1]},
            "estimators": [{"kind": "rcca", "K": 1}],
            "grid": {"values": [0.1, 0.3]}, "folds": {"V": 2}})
        argv = ["sweep", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", jobs]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"config error: --jobs: expected a positive int, got {jobs}"]


class TestCompareAndBiplot:
    def test_compare_outputs(self, tmp_path, toy_csv):
        cfg = write_config(tmp_path, "cmp.json", {
            "data": {"x_csv": toy_csv[0], "y_csv": toy_csv[1]},
            "estimators": [
                {"kind": "rcca", "penalty": 0.1, "K": 2},
                {"kind": "rcca", "penalty": 0.6, "K": 2},
            ],
            "registration": {"mode": "orthogonal", "reference": 0, "comparison_k": 2},
        })
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "comparison_vt_Uk_2.csv").exists()
        overlaps = list(out.glob("overlap_*.csv"))
        assert len(overlaps) == 2

    def test_compare_signed_permutation(self, tmp_path, toy_csv):
        cfg = write_config(tmp_path, "cmp.json", {
            "data": {"x_csv": toy_csv[0], "y_csv": toy_csv[1]},
            "estimators": [
                {"kind": "rcca", "penalty": 0.1, "K": 2},
                {"kind": "spls", "penalty": 1.5, "K": 2},
            ],
            "registration": {"mode": "signed_permutation", "reference": 0,
                             "comparison_k": 2},
        })
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        data, _ = center_and_covariance(load_two_view_csv(*toy_csv))
        ests = [fit_estimator(EstimatorSpec(kind="rcca", penalty=0.1, K=2), data),
                fit_estimator(EstimatorSpec(kind="spls", penalty=1.5, K=2), data)]

        def read_table(name):
            with open(out / name, newline="") as fh:
                return np.array([[float(v) for v in r[1:]] for r in list(csv.reader(fh))[1:]])

        np.testing.assert_array_equal(read_table("comparison_vt_Uk_2.csv"),
                                      trajectory_comparison(ests, data, "vt_Uk", 2))
        tables, _ = registered_overlaps(ests, data, 2, 0, "signed_permutation")
        np.testing.assert_array_equal(read_table("overlap_rcca@0.1_vs_spls@1.5.csv"), tables[1])

    def test_compare_masks_degenerate_estimate(self, tmp_path, toy_csv, capsys):
        # scca at tau=5 zeroes the directions: its overlap table is all NaN
        cfg = write_config(tmp_path, "cmp.json", {
            "data": {"x_csv": toy_csv[0], "y_csv": toy_csv[1]},
            "estimators": [
                {"kind": "rcca", "penalty": 0.1, "K": 2},
                {"kind": "scca", "penalty": 5.0, "K": 2},
            ],
            "registration": {"mode": "orthogonal", "reference": 0, "comparison_k": 2},
        })
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.splitlines() == ["warning: scca@5 is degenerate; its overlap is masked"]
        assert json.loads((out / "manifest.json").read_text())["warnings"] == 1
        masked = np.genfromtxt(out / "overlap_rcca@0.1_vs_scca@5.csv", delimiter=",",
                               skip_header=1)[:, 1:]
        assert masked.shape == (3, 3) and np.all(np.isnan(masked))
        own = np.genfromtxt(out / "overlap_rcca@0.1_vs_rcca@0.1.csv", delimiter=",",
                            skip_header=1)[:, 1:]
        assert np.all(np.isfinite(own[:2, :2]))
        comparison = np.genfromtxt(out / "comparison_vt_Uk_2.csv", delimiter=",",
                                   skip_header=1)[:, 1:]
        assert comparison[0, 0] == 0.0 and np.isnan(comparison[0, 1])

    def test_compare_self_overlap_is_the_general_product(self, tmp_path):
        # the reference against itself is the product of two equal blocks
        # held apart, to the last bit; NumPy rounds z.T @ z on one buffer
        # differently (a symmetric product), which shows at this size
        cov, _ = canonical_pair_covariance(60, 30, [0.8, 0.5], 2, seed=201)
        raw = mvn_sample(cov, 400, seed=202)
        save_two_view_csv(raw, tmp_path / "x.csv", tmp_path / "y.csv")
        cfg = write_config(tmp_path, "cmp.json", {
            "data": {"x_csv": str(tmp_path / "x.csv"), "y_csv": str(tmp_path / "y.csv")},
            "estimators": [{"kind": "rcca", "penalty": 0.1, "K": 3}],
            "registration": {"reference": 0, "comparison_k": 3},
        })
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        own = np.genfromtxt(out / "overlap_rcca@0.1_vs_rcca@0.1.csv", delimiter=",",
                            skip_header=1)[:3, 1:4]
        data, _ = center_and_covariance(load_two_view_csv(tmp_path / "x.csv", tmp_path / "y.csv"))
        est = fit_estimator(EstimatorSpec(kind="rcca", penalty=0.1, K=3), data)
        blocks = [data.x @ est.u_dirs for _ in range(2)]
        blocks = [b / np.linalg.norm(b, axis=0) for b in blocks]
        assert np.array_equal(own, overlap_matrix(*blocks, squared=True).matrix)

    @pytest.mark.parametrize("metrics, k", [(None, 3), ({}, 3), ({"k_list": [1, 2]}, 2)])
    def test_comparison_k_defaults(self, tmp_path, toy_csv, metrics, k):
        # the last metrics.k_list entry, or 3 without one
        config = {"data": {"x_csv": toy_csv[0], "y_csv": toy_csv[1]},
                  "estimators": [{"kind": "rcca", "penalty": 0.1, "K": 3}]}
        if metrics is not None:
            config["metrics"] = metrics
        out = tmp_path / "out"
        assert main(["compare", "--config", write_config(tmp_path, "cmp.json", config),
                     "--out", str(out)]) == 0
        assert (out / f"comparison_vt_Uk_{k}.csv").is_file()

    def test_biplot_threshold_respected(self, tmp_path, toy_csv):
        cfg = write_config(tmp_path, "bip.json", {
            "data": {"x_csv": toy_csv[0], "y_csv": toy_csv[1]},
            "estimators": [{"kind": "rcca", "penalty": 0.2, "K": 2}],
            "output": {"biplot_threshold": 1.01},
        })
        out = tmp_path / "out"
        assert main(["biplot", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "biplot.csv").read_text().strip().splitlines()
        assert len(lines) == 1  # header only at an impossible threshold


# (kinds, grids, T, preset): a fault that a direct run of the preset raises
# as a ValueError with text T, and that synth-bench prints as
# "config error: generator.params.T"
PRESET_FAULTS = [(*fault, preset) for fault in [
    (["rcca"], {"rcca": [1.5, 2.0]}, "grids.rcca[0]: rcca penalty 1.5 outside [0.0, 1.0]"),
    (["foo"], {"foo": [0.1, 0.2]}, "kinds[0]: unknown estimator kind 'foo'"),
    (["foo"], {"foo": []}, "kinds[0]: unknown estimator kind 'foo'"),
    (["rcca"], {"spls": [1.5]}, "grids.rcca: missing, but kinds lists rcca"),
] for preset in ["bootstrap-panel", "canonical-pair"]] + [
    # the panel alone sweeps its grids
    (["rcca"], {"rcca": []}, "grids.rcca: penalty grid must be nonempty", "bootstrap-panel"),
    (["rcca"], {"rcca": [0.1, 0.5, 0.3]}, "grids.rcca: penalty grid must be strictly monotone",
     "bootstrap-panel"),
]


class TestSynthBench:
    def test_canonical_pair_preset_runs_small(self, tmp_path):
        cfg = write_config(tmp_path, "bench.json", {
            "generator": {"preset": "canonical-pair", "params": {
                "n_seeds": 2, "n_list": [60], "kinds": ["rcca"],
                "grids": {"rcca": [0.2, 0.6]},
            }},
        })
        out = tmp_path / "out"
        assert main(["synth-bench", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "bench_canonical-pair.csv").read_text().strip().splitlines()
        # 2 seeds x 1 n x 1 kind x 2 penalties x 3 metrics + header
        assert len(lines) == 13

    @pytest.mark.parametrize("grid", [[], [0.1, 0.5, 0.3]])
    def test_canonical_pair_preset_fits_penalties_one_by_one(self, tmp_path, grid):
        # no sweep, so a grid the bootstrap-panel preset rejects is accepted
        cfg = write_config(tmp_path, "bench.json", {
            "generator": {"preset": "canonical-pair", "params": {
                "n_seeds": 1, "n_list": [60], "kinds": ["rcca"], "grids": {"rcca": grid}}},
        })
        out = tmp_path / "out"
        assert main(["synth-bench", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "bench_canonical-pair.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3 * len(grid)

    def test_canonical_pair_skips_degenerate_estimates(self):
        # scca at tau=5 zeroes the directions, so its criteria are undefined
        kw = {"n_seeds": 1, "n_list": [100], "kinds": ["scca", "gcca"],
              "grids": {"scca": [5.0], "gcca": [5.0]}}
        records = run_canonical_pair_bench(**kw)
        assert {(r["kind"], r["metric"]) for r in records} == {
            ("gcca", "rho_oracle"), ("gcca", "wt_u1"), ("gcca", "vt_u1")}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = summarise_canonical_pair(records, ["scca", "gcca"], [100])
        assert summary[("scca", 100)] == {"seeds_used": 0}
        assert summary[("gcca", 100)]["seeds_used"] == 1
        assert set(summary[("gcca", 100)]) == {"seeds_used", "median_rho_oracle",
                                               "median_wt_u1", "median_vt_u1"}

    def test_canonical_pair_counts_nonconverged_fits(self, tmp_path):
        kw = {"n_seeds": 1, "n_list": [60], "kinds": ["rcca"], "grids": {"rcca": [0.2, 0.5]}}
        records = run_canonical_pair_bench(**kw)
        assert len(records) == 6 and all(r["converged"] is True for r in records)
        assert "nonconverged_fits" not in summarise_canonical_pair(records, ["rcca"], [60])[
            ("rcca", 60)]
        # the three records of the fit at 0.5 are one fit
        for r in records:
            r["converged"] = r["penalty"] != 0.5
        summary = summarise_canonical_pair(records, ["rcca"], [60])
        assert summary[("rcca", 60)]["nonconverged_fits"] == 1
        # the CSV keeps its columns
        cfg = write_config(tmp_path, "bench.json", {
            "generator": {"preset": "canonical-pair", "params": kw}})
        assert main(["synth-bench", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        header = (tmp_path / "out" / "bench_canonical-pair.csv").read_text().splitlines()[0]
        assert header == "kind,penalty,n,seed,metric,value"

    def test_canonical_pair_raises_on_a_healthy_estimate(self, undefined_criterion):
        with pytest.raises(RuntimeError, match="rcca at penalty 0.2: undefined criterion"):
            run_canonical_pair_bench(n_seeds=1, n_list=[60], kinds=["rcca"],
                                     grids={"rcca": [0.2]})

    def test_bootstrap_panel_raises_on_a_healthy_estimate(self, undefined_criterion):
        with pytest.raises(RuntimeError, match="rcca at penalty 0.2: undefined criterion"):
            run_bootstrap_panel_bench(n_seeds=1, kinds=["rcca"], grids={"rcca": [0.2]})

    def test_a_criterion_fault_is_not_a_config_error(self, tmp_path, undefined_criterion, capsys):
        # a program fault, not a parameter: it propagates and does not exit 2
        cfg = write_config(tmp_path, "bench.json", {
            "generator": {"preset": "canonical-pair", "params": {
                "n_seeds": 1, "n_list": [60], "kinds": ["rcca"], "grids": {"rcca": [0.2]}}},
        })
        with pytest.raises(RuntimeError, match="undefined criterion"):
            main(["synth-bench", "--config", cfg, "--out", str(tmp_path / "out")])
        assert "config error" not in capsys.readouterr().err

    @pytest.mark.parametrize("run, preset", [(run_canonical_pair_bench, "canonical-pair"),
                                             (run_bootstrap_panel_bench, "bootstrap-panel")])
    def test_an_unknown_keyword_is_rejected_before_any_fit(self, monkeypatch, run, preset):
        def no_sample(*args, **kwargs):
            raise AssertionError("sampled before the keywords were checked")

        monkeypatch.setattr(regcca.experiments, "mvn_sample", no_sample)
        with pytest.raises(ValueError, match=f"^kind, n_seed not a parameter of {preset}$"):
            run(n_seed=1, kind="rcca")

    @pytest.mark.parametrize("kinds, grids, message, preset", PRESET_FAULTS)
    def test_bootstrap_panel_rejects_an_impossible_cell_before_any_fit(
            self, tmp_path, monkeypatch, capsys, kinds, grids, message, preset):
        # both entry points report one text before any sample: the panel's
        # sweep would drop each impossible cell as failed, without a record
        def no_sample(*args, **kwargs):
            raise AssertionError("sampled before the cells were checked")

        monkeypatch.setattr(regcca.experiments, "mvn_sample", no_sample)
        params = {"n_seeds": 1, "kinds": kinds, "grids": grids,
                  **({"n_list": [60]} if preset == "canonical-pair" else {})}
        run = {"bootstrap-panel": run_bootstrap_panel_bench,
               "canonical-pair": run_canonical_pair_bench}[preset]
        with pytest.raises(ValueError) as raised:
            run(**params)
        assert str(raised.value) == message
        cfg = write_config(tmp_path, "bench.json", {
            "generator": {"preset": preset, "params": params}})
        assert main(["synth-bench", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: generator.params.{message}"]

    def test_canonical_pair_samples_every_dataset_before_a_fit(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before every dataset was sampled")

        monkeypatch.setattr(regcca.experiments, "fit_estimator", no_fit)
        with pytest.raises(DataError, match="^need at least 2 samples, got 1$"):
            run_canonical_pair_bench(n_seeds=1, n_list=[60, 1], kinds=["rcca"],
                                     grids={"rcca": [0.2]})

    @pytest.mark.parametrize("grid, message", [
        ([], "^grids.rcca: penalty grid must be nonempty$"),
        ([0.1, 0.5, 0.3], "^grids.rcca: penalty grid must be strictly monotone$")])
    def test_bootstrap_panel_rejects_an_unsweepable_grid_before_any_sample(self, monkeypatch,
                                                                          grid, message):
        def no_sample(*args, **kwargs):
            raise AssertionError("sampled before the grids were checked")

        monkeypatch.setattr(regcca.experiments, "mvn_sample", no_sample)
        with pytest.raises(ValueError, match=message):
            run_bootstrap_panel_bench(n_seeds=1, kinds=["rcca"], grids={"rcca": grid})

    def test_bootstrap_panel_cv_fault_is_a_program_fault(self, monkeypatch):
        # a CV criterion undefined on healthy fold estimates: not a skip,
        # and not a ValueError that synth-bench would report as a config error
        def broken(self, mode, kind, K):
            raise ValueError("broken criterion")

        monkeypatch.setattr(regcca.metrics.CvCriteria, "cc_agg", broken)
        with pytest.raises(RuntimeError, match="^rcca at penalty 0.2: broken criterion$"):
            run_bootstrap_panel_bench(n_seeds=1, kinds=["rcca"], grids={"rcca": [0.2]})

    @pytest.mark.parametrize("K", [3, 2])
    def test_bootstrap_panel_cv_columns_are_the_sweep_criteria(self, monkeypatch, K):
        # r2s3_cv and R2s3_cv hold k = K whatever K is
        sweeps = {}

        def sweep(kind, data, grid, folds, K, **kwargs):
            traj = sweep_trajectory(kind, data, grid, folds, K, **kwargs)
            sweeps[kind] = (data, folds, traj)
            return traj

        monkeypatch.setattr(regcca.experiments, "sweep_trajectory", sweep)
        records = run_bootstrap_panel_bench(n_seeds=1, kinds=["rcca", "spls"], K=K)
        assert {r["kind"] for r in records} == {"rcca", "spls"}
        for r in records:
            data, folds, traj = sweeps[r["kind"]]
            ests = traj.fold_estimates(traj.grid.index(r["penalty"]))
            for column, mode, k in (("r2s1_cv", "successive", 1), ("r2s3_cv", "successive", K),
                                    ("R2s3_cv", "subspace", K)):
                ref = cv_cc_agg(mode, "sq_sum", data, ests, folds, k)
                assert abs(r[column] - ref) <= 1e-12, (r["kind"], r["penalty"], column)

    def test_bootstrap_panel_skips_degenerate_cell(self):
        # scca at tau=5 zeroes the directions, so the cell's criteria are undefined
        records = run_bootstrap_panel_bench(n_seeds=1, kinds=["scca"], grids={"scca": [5.0]})
        assert records == []

    def test_bootstrap_summary_of_all_skipped_kind(self):
        records = run_bootstrap_panel_bench(n_seeds=1, kinds=["scca"], grids={"scca": [5.0]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = summarise_bootstrap_panel(records, ["scca"])
        assert summary == {"scca": {"seeds_used": 0}}

    def test_bootstrap_panel_counts_nonconverged_cells(self, monkeypatch):
        kw = {"n_seeds": 1, "kinds": ["spls"], "grids": {"spls": [1.5, 4.0]}}
        records = run_bootstrap_panel_bench(**kw)
        assert [r["converged"] for r in records] == [True, True]
        assert summarise_bootstrap_panel(records, ["spls"])["spls"]["nonconverged_cells"] == 0
        # one alternation sweep never converges
        fit = estimators.spls_fit
        monkeypatch.setattr(estimators, "spls_fit",
                            lambda data, s, K: fit(data, s, K, max_sweeps=1))
        records = run_bootstrap_panel_bench(**kw)
        assert [r["converged"] for r in records] == [False, False]
        assert summarise_bootstrap_panel(records, ["spls"])["spls"]["nonconverged_cells"] == 2

    def test_unknown_preset_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "bench.json", {
            "generator": {"preset": "nope"},
        })
        assert main(["synth-bench", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
