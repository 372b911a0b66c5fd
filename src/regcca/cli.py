"""Config-driven command line: fit, sweep, compare, biplot, synth-bench.

One JSON config schema serves all commands, with sections
{data | generator, estimators[], grid, folds, metrics, registration, output}.
Every run writes a manifest recording the config hash, effective seed and
library versions; outputs are deterministic functions of (config, seed), so
reruns are byte-identical.

Exit codes: 0 success, 2 config error, 3 solver hard-failure.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .biplot import export_biplot, structure_correlations
from .cca_core import cca_from_covariance
from .compare import overlap_matrix, register, trajectory_comparison, write_labelled_matrix_csv
from .datamodel import (
    CovarianceModel,
    DataError,
    center_and_covariance,
    load_two_view_csv,
    make_folds,
)
from .estimators import (
    KINDS,
    EstimatorSpec,
    fit_estimator,
    penalty_in_domain,
    save_estimate,
    sweep_trajectory,
)
from .glasso import GlassoConvergenceError
from .metrics import (
    CvCriteria,
    MetricReport,
    estimation_error,
    metric_name,
    succ_cc_agg,
    validation_splits,
)
from .synth import bootstrap_covariance, canonical_pair_covariance, mvn_sample, powerlaw_precision

COMMANDS = ("fit", "sweep", "compare", "biplot", "synth-bench")


class ConfigError(ValueError):
    """Config failed schema validation; message names the offending field."""


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _config_hash(config):
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _require(config, field, typ, where="config"):
    if field not in config:
        raise ConfigError(f"{where}.{field}: missing required field")
    val = config[field]
    if typ is not None and not isinstance(val, typ):
        raise ConfigError(f"{where}.{field}: expected {typ.__name__}, got {type(val).__name__}")
    return val


def log_grid(log10_from, log10_to, per_decade=9):
    """Log-spaced penalty grid with a fixed number of points per decade."""
    n = int(round((log10_to - log10_from) * per_decade)) + 1
    return [float(10.0**e) for e in np.linspace(log10_from, log10_to, max(n, 2))]


def _parse_grid(section):
    if "values" in section:
        vals = section["values"]
        if not isinstance(vals, list) or not vals:
            raise ConfigError("grid.values: must be a nonempty list")
        return [float(v) for v in vals]
    if "log10_from" in section and "log10_to" in section:
        return log_grid(
            float(section["log10_from"]),
            float(section["log10_to"]),
            int(section.get("per_decade", 9)),
        )
    raise ConfigError("grid: need either 'values' or 'log10_from'/'log10_to'")


def _load_dataset(config, seed):
    if "data" in config:
        sec = config["data"]
        x_path = _require(sec, "x_csv", str, "data")
        y_path = _require(sec, "y_csv", str, "data")
        try:
            return load_two_view_csv(x_path, y_path)
        except (DataError, OSError) as exc:
            raise ConfigError(f"data: {exc}") from exc
    if "generator" in config:
        sec = config["generator"]
        name = _require(sec, "name", str, "generator")
        params = dict(sec.get("params", {}))
        n = int(_require(sec, "n", int, "generator"))
        sample_seed = int(sec.get("sample_seed", seed))
        cov = _generator_covariance(name, params)
        return mvn_sample(cov, n, seed=sample_seed)
    raise ConfigError("config: need a 'data' or 'generator' section")


def _generator_covariance(name, params):
    try:
        if name == "canonical_pair":
            cov, _ = canonical_pair_covariance(**params)
            return cov
        if name == "powerlaw":
            d = int(params.pop("d"))
            p = int(params.pop("p"))
            omega = powerlaw_precision(d=d, **params)
            sigma = np.linalg.inv(omega)
            return CovarianceModel(sxx=sigma[:p, :p], sxy=sigma[:p, p:], syy=sigma[p:, p:])
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"generator.params: {exc}") from exc
    raise ConfigError(f"generator.name: unknown generator {name!r}")


def _parse_estimators(config):
    specs = []
    ests = _require(config, "estimators", list)
    if not ests:
        raise ConfigError("estimators: must list at least one estimator")
    for i, e in enumerate(ests):
        kind = _require(e, "kind", str, f"estimators[{i}]")
        if kind not in KINDS:
            raise ConfigError(f"estimators[{i}].kind: unknown kind {kind!r}")
        K = int(_require(e, "K", int, f"estimators[{i}]"))
        if K < 1:
            raise ConfigError(f"estimators[{i}].K: must be at least 1")
        penalty = e.get("penalty")
        options = dict(e.get("options", {}))
        spec = None
        if penalty is not None:
            try:
                spec = EstimatorSpec(kind=kind, penalty=float(penalty), K=K, options=options)
            except ValueError as exc:
                raise ConfigError(f"estimators[{i}]: {exc}") from exc
        specs.append((kind, penalty, K, options, spec))
    return specs


def _parse_metrics(config):
    sec = config.get("metrics", {})
    k_list = sec.get("k_list", [1, 3, 5])
    if not isinstance(k_list, list) or not all(isinstance(k, int) and k >= 1 for k in k_list):
        raise ConfigError("metrics.k_list: must be a list of positive integers")
    aggs = sec.get("aggregations", ["sq_sum"])
    for a in aggs:
        if a != "sq_sum":
            raise ConfigError(
                "metrics.aggregations: only 'sq_sum' is reportable in the metric CSV; "
                "other aggregations are available through the library API"
            )
    return k_list


def _write_manifest(outdir, command, config, seed, warning_count):
    manifest = {
        "command": command,
        "config_hash": _config_hash(config),
        "seed": seed,
        "warnings": warning_count,
        "versions": {
            "regcca": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
    }
    with open(Path(outdir) / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_fit(config, outdir, seed, jobs):
    raw = _load_dataset(config, seed)
    if config.get("output", {}).get("export_data", False):
        from .datamodel import save_two_view_csv

        save_two_view_csv(raw, Path(outdir) / "data_x.csv", Path(outdir) / "data_y.csv")
    data, _ = center_and_covariance(raw)
    specs = _parse_estimators(config)
    for i, (kind, penalty, K, options, _) in enumerate(specs):
        if penalty is None:
            raise ConfigError(f"estimators[{i}].penalty: required for fit")
    warning_count = 0
    for i, (kind, penalty, K, options, spec) in enumerate(specs):
        est = fit_estimator(spec, data)
        est.provenance.seed = seed
        warning_count += _warn_if_degenerate(est, f"estimators[{i}] {kind}@{spec.penalty:g}")
        save_estimate(
            est, outdir, f"fit_{i:02d}_{kind}", x_names=data.x_names, y_names=data.y_names
        )
    return warning_count


def _warn_if_degenerate(est, label):
    """Print one warning for an estimate flagged degenerate; returns the
    number of warnings printed (0 or 1)."""
    if not est.provenance.degenerate:
        return 0
    print(f"warning: {label} is degenerate", file=sys.stderr)
    return 1


def _fold_plan(config, data, seed):
    sec = config.get("folds", {})
    V = int(sec.get("V", 5))
    fold_seed = int(sec.get("seed", seed))
    try:
        return make_folds(data.n, V, seed=fold_seed)
    except DataError as exc:
        raise ConfigError(f"folds: {exc}") from exc


def _cmd_sweep(config, outdir, seed, jobs):
    data = _load_dataset(config, seed)
    data, _ = center_and_covariance(data)
    grid = _parse_grid(_require(config, "grid", dict))
    specs = _parse_estimators(config)
    k_list = _parse_metrics(config)
    folds = _fold_plan(config, data, seed)

    report = MetricReport()
    warning_count = 0
    validation = validation_splits(data, folds)
    for kind, _, K, options, _spec in specs:
        kind_grid = [g for g in grid if penalty_in_domain(kind, g)]
        dropped = [g for g in grid if not penalty_in_domain(kind, g)]
        if not kind_grid:
            raise ConfigError(f"grid: no legal penalties for {kind}")
        if dropped:
            warning_count += 1
            print(f"warning: {kind} grid values outside its penalty domain dropped: "
                  f"{', '.join(repr(g) for g in dropped)}", file=sys.stderr)
        traj = sweep_trajectory(kind, data, kind_grid, folds, K, options=options,
                                seed=seed, jobs=jobs)
        est_dir = Path(outdir) / "estimates" / kind
        for (i, fold), est in sorted(traj.estimates.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
            save_estimate(est, est_dir, f"p{i:02d}_{fold}",
                          x_names=data.x_names, y_names=data.y_names)
        for (i, fold), msg in sorted(traj.failures.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
            warning_count += 1
            print(f"warning: {kind} penalty[{i}] fold {fold} failed: {msg}", file=sys.stderr)

        for i, penalty in enumerate(kind_grid):
            fold_ests = traj.fold_estimates(i)
            if any(e is None for e in fold_ests):
                continue
            k_avail = min(e.k for e in fold_ests)
            ks = [k for k in k_list if k <= k_avail]
            if not ks:
                continue
            crit = CvCriteria(data, fold_ests, max(ks), validation)
            for k in ks:
                try:
                    val, disp = crit.cc_agg("successive", "sq_sum", k)
                    report.add(algorithm=kind, penalty=penalty, fold="cv",
                               metric=metric_name("r2s", k, cv=True), k=k, value=val,
                               dispersion=disp)
                    val, disp = crit.cc_agg("subspace", "sq_sum", k)
                    report.add(algorithm=kind, penalty=penalty, fold="cv",
                               metric=metric_name("R2s", k, cv=True), k=k, value=val,
                               dispersion=disp)
                    inst = crit.instability(k)
                    for family, key in (("wt-u", "wt_uk_cv"), ("vt-u", "vt_uk_cv"),
                                        ("wt-U", "wt_Uk_cv"), ("vt-U", "vt_Uk_cv")):
                        report.add(algorithm=kind, penalty=penalty, fold="cv",
                                   metric=metric_name(family, k, cv=True), k=k,
                                   value=inst[key])
                except ValueError as exc:
                    # degenerate fold estimates make some criteria undefined
                    if not any(e.provenance.degenerate for e in fold_ests):
                        raise
                    warning_count += 1
                    print(f"warning: {kind} penalty[{i}] k={k} metrics skipped: {exc}",
                          file=sys.stderr)
    report.to_csv(Path(outdir) / "metrics.csv")
    return warning_count


def _cmd_compare(config, outdir, seed, jobs):
    data = _load_dataset(config, seed)
    data, _ = center_and_covariance(data)
    specs = _parse_estimators(config)
    reg_sec = config.get("registration", {})
    mode = reg_sec.get("mode", "orthogonal")
    ref_idx = int(reg_sec.get("reference", 0))
    comp_metric = reg_sec.get("comparison_metric", "vt_Uk")
    comp_k = int(reg_sec.get("comparison_k", config.get("metrics", {}).get("k_list", [3])[-1]))

    estimates, labels = [], []
    for i, (kind, penalty, K, options, spec) in enumerate(specs):
        if penalty is None:
            raise ConfigError(f"estimators[{i}].penalty: required for compare")
        estimates.append(fit_estimator(spec, data))
        labels.append(f"{kind}@{penalty:g}")
    if not 0 <= ref_idx < len(estimates):
        raise ConfigError("registration.reference: index out of range")

    mat = trajectory_comparison(estimates, data, metric=comp_metric, k=comp_k)
    write_labelled_matrix_csv(Path(outdir) / f"comparison_{comp_metric}_{comp_k}.csv", mat, labels)

    # a degenerate estimate, or one with a zero variate among the first k_ov,
    # has no unit variates to register: its overlap table is masked (NaN)
    k_ov = min(comp_k, min(e.k for e in estimates))
    warning_count = 0
    variates = []
    for label, est in zip(labels, estimates):
        z = data.x @ est.u_dirs[:, :k_ov]
        norms = np.linalg.norm(z, axis=0)
        if est.provenance.degenerate or np.any(norms == 0):
            warning_count += 1
            print(f"warning: {label} is degenerate; its overlap is masked", file=sys.stderr)
            variates.append(None)
        else:
            variates.append(z / norms)
    # a copy: NumPy takes z.T @ z on one buffer as a symmetric product,
    # which rounds differently from the general product of the self-overlap
    z_ref = None if variates[ref_idx] is None else variates[ref_idx].copy()
    for i, z in enumerate(variates):
        if z_ref is None or z is None:
            table = np.full((k_ov + 1, k_ov + 1), np.nan)
        else:
            if i != ref_idx:
                z = z @ register(z_ref, z, mode)
            ov = overlap_matrix(z_ref, z, squared=True)
            table = np.vstack([np.hstack([ov.matrix, ov.row_sums[:, None]]),
                               np.hstack([ov.col_sums, [np.nan]])])
        write_labelled_matrix_csv(
            Path(outdir) / f"overlap_{labels[ref_idx]}_vs_{labels[i]}.csv",
            table,
            [f"comp_{j + 1}" for j in range(k_ov)] + ["sum"],
        )
    return warning_count


def _cmd_biplot(config, outdir, seed, jobs):
    data = _load_dataset(config, seed)
    data, _ = center_and_covariance(data)
    specs = _parse_estimators(config)
    kind, penalty, K, options, spec = specs[0]
    if penalty is None:
        raise ConfigError("estimators[0].penalty: required for biplot")
    est = fit_estimator(spec, data)
    warning_count = _warn_if_degenerate(est, f"estimators[0] {kind}@{spec.penalty:g}")
    out_sec = config.get("output", {})
    coords = structure_correlations(
        data, est, variate_view=out_sec.get("variate_view", "x"), K=K
    )
    export_biplot(coords, float(out_sec.get("biplot_threshold", 0.0)),
                  Path(outdir) / "biplot.csv")
    for message in coords.warnings:
        print(f"warning: {message}", file=sys.stderr)
    return warning_count + len(coords.warnings)


# ---------------------------------------------------------------------------
# synth-bench presets
# ---------------------------------------------------------------------------

CANONICAL_PAIR_DEFAULTS = {
    "p": 30,
    "q": 30,
    "rho1": 0.9,
    "support_size": 5,
    "n_list": [100, 400],
    "n_seeds": 10,
    "kinds": ["scca", "gcca", "spls"],
    "grids": {
        "scca": [0.02, 0.05, 0.1, 0.2],
        "gcca": [0.05, 0.1, 0.2, 0.4],
        "spls": [1.5, 2.5, 4.0],
        "rcca": [0.05, 0.2, 0.5, 0.9],
    },
    "model_seed": 7,
}


def run_canonical_pair_bench(**overrides):
    """Error-versus-n experiment on the single-canonical-pair model.

    Returns long-format records (kind, penalty, n, seed, metric, value)
    with the oracle first-pair correlation and the weight/variate errors of
    the first pair, for every grid point.
    """
    cfg = {**CANONICAL_PAIR_DEFAULTS, **overrides}
    cov, truth = canonical_pair_covariance(
        cfg["p"], cfg["q"], [cfg["rho1"]], cfg["support_size"],
        within_view="suo_sp", seed=cfg["model_seed"],
    )
    records = []
    for n in cfg["n_list"]:
        for s in range(cfg["n_seeds"]):
            data = mvn_sample(cov, n, seed=1000 * s + n)
            data, _ = center_and_covariance(data)
            for kind in cfg["kinds"]:
                for penalty in cfg["grids"][kind]:
                    spec = EstimatorSpec(kind=kind, penalty=penalty, K=1)
                    try:
                        est = fit_estimator(spec, data)
                    except (GlassoConvergenceError, np.linalg.LinAlgError) as exc:
                        records.append(dict(kind=kind, penalty=penalty, n=n, seed=s,
                                            metric="failure", value=str(exc)))
                        continue
                    rho_or = abs(succ_cc_agg("l1_sum", cov, est.u_dirs[:, :1], est.v_dirs[:, :1]))
                    err = estimation_error(cov, truth, est, 1)
                    for mname, mval in (("rho_oracle", rho_or),
                                        ("wt_u1", err["wt_uk"]),
                                        ("vt_u1", err["vt_uk"])):
                        records.append(dict(kind=kind, penalty=penalty, n=n, seed=s,
                                            metric=mname, value=mval))
    return records


def summarise_canonical_pair(records, kinds, n_list):
    """Per (kind, n): median over seeds of the grid-best oracle correlation,
    and the weight/variate errors at that oracle-best penalty."""
    out = {}
    for kind in kinds:
        for n in n_list:
            by_seed = {}
            for r in records:
                if r["kind"] != kind or r["n"] != n or r["metric"] == "failure":
                    continue
                by_seed.setdefault(r["seed"], {}).setdefault(r["penalty"], {})[r["metric"]] = r["value"]
            best_rho, best_wt, best_vt = [], [], []
            for seed, by_pen in sorted(by_seed.items()):
                pen = max(by_pen, key=lambda p: by_pen[p]["rho_oracle"])
                best_rho.append(by_pen[pen]["rho_oracle"])
                best_wt.append(by_pen[pen]["wt_u1"])
                best_vt.append(by_pen[pen]["vt_u1"])
            out[(kind, n)] = {
                "median_rho_oracle": float(np.median(best_rho)),
                "median_wt_u1": float(np.median(best_wt)),
                "median_vt_u1": float(np.median(best_vt)),
            }
    return out


BOOTSTRAP_PANEL_DEFAULTS = {
    "p": 60,
    "q": 30,
    "n": 500,
    "V": 5,
    "n_seeds": 10,
    "seed_data_n": 400,
    "seed_data_seed": 3,
    "graph_gamma": 3.0,
    "cross_boost": 4.0,
    "boot_lam": 0.03,
    "kinds": ["rcca", "spls", "scca", "gcca"],
    "grids": {
        "rcca": [0.01, 0.05, 0.2, 0.6],
        "spls": [1.5, 2.5, 4.0, 6.0],
        "scca": [0.005, 0.015, 0.04, 0.1],
        "gcca": [0.02, 0.05, 0.12, 0.3],
    },
    "K": 3,
}


def _bootstrap_truth(cfg):
    """Fixed oracle covariance: glasso bootstrap of synthetic seed data.

    The seed model is a power-law sparse-precision graph with its
    cross-view interactions strengthened (diagonal dominance re-applied, so
    positive definiteness is preserved); without the boost the graph's
    canonical correlations are too weak to mimic real paired data.  Each
    view is then mixed through a banded factor, which leaves the canonical
    correlations untouched but gives the within-view covariances realistic
    structure (otherwise weight and variate geometry coincide and PLS is
    indistinguishable from CCA).
    """
    from .linalg import sym_matrix_power
    from .synth import banded_within_view_precision

    p, q = cfg["p"], cfg["q"]
    d = p + q
    omega = powerlaw_precision(d, cfg["graph_gamma"], seed=cfg["seed_data_seed"])
    omega[:p, p:] *= cfg["cross_boost"]
    omega[p:, :p] *= cfg["cross_boost"]
    off = omega - np.diag(np.diagonal(omega))
    np.fill_diagonal(omega, 1.1 * np.sum(np.abs(off), axis=1) + 0.5)
    sigma = np.linalg.inv(omega)
    mix_x = sym_matrix_power(banded_within_view_precision(p), -0.5)
    mix_y = sym_matrix_power(banded_within_view_precision(q), -0.5)
    seed_cov = CovarianceModel(
        sxx=mix_x @ sigma[:p, :p] @ mix_x.T,
        sxy=mix_x @ sigma[:p, p:] @ mix_y.T,
        syy=mix_y @ sigma[p:, p:] @ mix_y.T,
    )
    seed_data = mvn_sample(seed_cov, cfg["seed_data_n"], seed=cfg["seed_data_seed"] + 1)
    return bootstrap_covariance(seed_data, "glasso", cfg["boot_lam"])


def run_bootstrap_panel_bench(**overrides):
    """Four-estimator sweep on data sampled from a bootstrap covariance.

    The oracle covariance is fixed across seeds; each seed redraws the n
    samples.  Records carry CV and oracle correlation criteria plus the
    top-3 subspace errors, per (kind, penalty, seed).
    """
    cfg = {**BOOTSTRAP_PANEL_DEFAULTS, **overrides}
    boot_cov = _bootstrap_truth(cfg)
    kmax = cfg["K"]
    truth = cca_from_covariance(boot_cov, kmax)
    records = []
    for s in range(cfg["n_seeds"]):
        data = mvn_sample(boot_cov, cfg["n"], seed=500 + s)
        data, _ = center_and_covariance(data)
        folds = make_folds(data.n, cfg["V"], seed=s)
        validation = validation_splits(data, folds)
        for kind in cfg["kinds"]:
            traj = sweep_trajectory(kind, data, cfg["grids"][kind], folds, kmax, seed=s)
            for i, penalty in enumerate(traj.grid):
                fold_ests = traj.fold_estimates(i)
                full = traj.full_estimate(i)
                if full is None or any(e is None for e in fold_ests):
                    continue
                row = dict(kind=kind, penalty=penalty, seed=s)
                crit = CvCriteria(data, fold_ests, kmax, validation)
                try:
                    row["r2s1_cv"] = crit.cc_agg("successive", "sq_sum", 1)[0]
                    row["r2s3_cv"] = crit.cc_agg("successive", "sq_sum", kmax)[0]
                    row["R2s3_cv"] = crit.cc_agg("subspace", "sq_sum", kmax)[0]
                    row["r2s1"] = succ_cc_agg("sq_sum", boot_cov, full.u_dirs[:, :1],
                                              full.v_dirs[:, :1])
                    err = estimation_error(boot_cov, truth, full, kmax)
                except ValueError:
                    # degenerate estimates make some criteria undefined; sweep skips them too
                    if not any(e.provenance.degenerate for e in fold_ests + [full]):
                        raise
                    continue
                row["vt_U3"] = err["vt_Uk"]
                row["wt_U3"] = err["wt_Uk"]
                records.append(row)
    return records


def summarise_bootstrap_panel(records, kinds):
    """Medians over seeds of the panel's acceptance quantities.

    ``seeds_used`` counts the seeds with at least one record of the kind;
    the medians are present only when it is positive (a kind whose cells
    were all skipped has none).
    """
    out = {}
    seeds = sorted({r["seed"] for r in records})
    for kind in kinds:
        gap, vt3, wt3, best_R = [], [], [], []
        for s in seeds:
            rows = [r for r in records if r["kind"] == kind and r["seed"] == s]
            if not rows:
                continue
            star1 = max(rows, key=lambda r: r["r2s1_cv"])
            gap.append(abs(star1["r2s1_cv"] - star1["r2s1"]))
            star3 = max(rows, key=lambda r: r["r2s3_cv"])
            vt3.append(star3["vt_U3"])
            wt3.append(star3["wt_U3"])
            best_R.append(max(r["R2s3_cv"] for r in rows))
        out[kind] = {"seeds_used": len(gap)}
        if gap:
            out[kind].update(
                median_cv_oracle_gap_r2s1=float(np.median(gap)),
                median_vt_U3=float(np.median(vt3)),
                median_wt_U3=float(np.median(wt3)),
                median_best_R2s3_cv=float(np.median(best_R)),
            )
    return out


def _cmd_synth_bench(config, outdir, seed, jobs):
    sec = _require(config, "generator", dict)
    preset = _require(sec, "preset", str, "generator")
    overrides = dict(sec.get("params", {}))
    if preset == "canonical-pair":
        records = run_canonical_pair_bench(**overrides)
        fields = ["kind", "penalty", "n", "seed", "metric", "value"]
    elif preset == "bootstrap-panel":
        records = run_bootstrap_panel_bench(**overrides)
        fields = sorted({k for r in records for k in r})
    else:
        raise ConfigError(f"generator.preset: unknown preset {preset!r}")
    import csv as _csv

    with open(Path(outdir) / f"bench_{preset}.csv", "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(fields)
        for r in records:
            writer.writerow([_fmt_cell(r.get(f)) for f in fields])
    return 0


def _fmt_cell(v):
    if isinstance(v, float):
        return repr(v)
    return v


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="regcca",
        description="Regularised CCA toolbox: fit, sweep, compare, biplot, synth-bench",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--jobs", type=int, default=1, help="parallel sweep cells")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))

    handlers = {
        "fit": _cmd_fit,
        "sweep": _cmd_sweep,
        "compare": _cmd_compare,
        "biplot": _cmd_biplot,
        "synth-bench": _cmd_synth_bench,
    }
    try:
        warning_count = handlers[args.command](config, outdir, seed, args.jobs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (GlassoConvergenceError, np.linalg.LinAlgError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    _write_manifest(outdir, args.command, config, seed, warning_count or 0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
