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
from .cca_core import require_pairs
from .compare import COMPARISON_METRICS, MODES, registered_overlaps, trajectory_comparison
from .datamodel import (
    CovarianceModel,
    DataError,
    center_and_covariance,
    load_two_view_csv,
    make_folds,
    save_two_view_csv,
    write_csv_table,
    write_json,
)
from .estimators import (
    KINDS,
    EstimatorSpec,
    fit_estimator,
    fit_options,
    penalty_in_domain,
    require_grid,
    require_options,
    save_estimate,
    sweep_trajectory,
)
from . import experiments as ex
from .glasso import GlassoConvergenceError
from .metrics import cv_tables, validation_splits
from .synth import canonical_pair_covariance, mvn_sample, powerlaw_precision


class ConfigError(ValueError):
    """Config failed schema validation; message names the offending field."""


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _config_hash(config):
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _require(config, field, like, where="config", default=None):
    """``config[field]``, checked by ``_check_like`` against the prototype
    ``like``; a field without a ``default`` must be present."""
    if field not in config:
        if default is None:
            raise ConfigError(f"{where}.{field}: missing required field")
        return default
    return _check_like(f"{where}.{field}", config[field], like)


# a bool is an int to Python, but never a number to a config
def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _check_like(where, value, like):
    """``value``, of the type of ``like`` (a bool for a bool, an int for an
    int, any number for a float, else ``like``'s type), as are its parts:
    each element of a list checked against ``like``'s first, each value of a
    dict against ``like``'s under the same key (or its first value)."""
    if isinstance(like, bool):
        ok, name = isinstance(value, bool), "bool"
    elif isinstance(like, int):
        ok, name = _is_int(value), "int"
    elif isinstance(like, float):
        ok, name = _is_int(value) or isinstance(value, float), "number"
    else:
        ok, name = isinstance(value, type(like)), type(like).__name__
    if not ok:
        raise ConfigError(f"{where}: expected {name}, got {type(value).__name__}")
    if isinstance(like, list) and like:
        for i, item in enumerate(value):
            _check_like(f"{where}[{i}]", item, like[0])
    elif isinstance(like, dict) and like:
        for key, item in value.items():
            _check_like(f"{where}.{key}", item, like.get(key, next(iter(like.values()))))
    return value


def _checked(where, check, *args, **kwargs):
    """``check(*args, **kwargs)``, whose ValueError is a config fault at
    ``where``; NumPy's LinAlgError, a ValueError too, stays a solver failure."""
    try:
        return check(*args, **kwargs)
    except np.linalg.LinAlgError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _check_int(where, value, positive=False):
    """A non-negative int, as NumPy's generators take a seed, or with
    ``positive`` an int of at least 1."""
    _check_like(where, value, 0)
    if value < int(positive):
        raise ConfigError(f"{where}: expected a {'positive' if positive else 'non-negative'} "
                          f"int, got {value}")
    return value


def _parse_grid(section):
    """The penalty grid of either form, checked by ``require_grid``."""
    if "values" in section:
        values = _check_like("grid.values", section["values"], [0.0])
        return _checked("grid.values", require_grid, [float(v) for v in values])
    if "log10_from" in section and "log10_to" in section:
        # log-spaced, with a fixed number of points per decade
        for name in ("log10_from", "log10_to"):
            _check_like(f"grid.{name}", section[name], 0.0)
        per_decade = _check_int("grid.per_decade", section.get("per_decade", 9), positive=True)
        lo, hi = float(section["log10_from"]), float(section["log10_to"])
        # a non-finite span has no point count; its two points are not monotone
        n = int(round((hi - lo) * per_decade)) + 1 if np.isfinite(hi - lo) else 2
        grid = [float(10.0**e) for e in np.linspace(lo, hi, max(n, 2))]
        return _checked("grid", require_grid, grid)
    raise ConfigError("grid: need either 'values' or 'log10_from'/'log10_to'")


def _load_dataset(config, seed):
    if "data" in config:
        sec = _require(config, "data", {})
        x_path = _require(sec, "x_csv", "", "data")
        y_path = _require(sec, "y_csv", "", "data")
        try:
            return load_two_view_csv(x_path, y_path)
        except (DataError, OSError) as exc:
            raise ConfigError(f"data: {exc}") from exc
    if "generator" in config:
        sec = _require(config, "generator", {})
        name = _require(sec, "name", "", "generator")
        params = dict(_require(sec, "params", {}, "generator", {}))
        n = _check_int("generator.n", _require(sec, "n", 0, "generator"), positive=True)
        sample_seed = _check_int("generator.sample_seed", sec.get("sample_seed", seed))
        cov = _generator_covariance(name, params)
        return mvn_sample(cov, n, seed=sample_seed)
    raise ConfigError("config: need a 'data' or 'generator' section")


def _generator_covariance(name, params):
    if name == "powerlaw":
        # the joint dimension d, of which the first p variables are x
        d, p = (_check_int(f"generator.params.{key}", _require(params, key, 0, "generator.params"),
                           positive=True) for key in ("d", "p"))
        del params["d"], params["p"]
        if p >= d:
            raise ConfigError(f"generator.params.p: expected an int below d={d}, got {p}")
    try:
        if name == "canonical_pair":
            cov, _ = canonical_pair_covariance(**params)
            return cov
        if name == "powerlaw":
            return CovarianceModel.from_joint(np.linalg.inv(powerlaw_precision(d=d, **params)), p)
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"generator.params: {exc}") from exc
    raise ConfigError(f"generator.name: unknown generator {name!r}")


def _parse_estimators(config, data):
    """The ``estimators`` section, checked against the dimensions of the
    dataset ``data``: one (kind, penalty, K, options) per entry, in
    ``EstimatorSpec``'s field order, with penalty None where the entry gives
    none (a sweep takes the grid's)."""
    listed = []
    ests = _require(config, "estimators", [])
    if not ests:
        raise ConfigError("estimators: must list at least one estimator")
    for i, e in enumerate(ests):
        where = f"estimators[{i}]"
        _check_like(where, e, {})
        kind = _require(e, "kind", "", where)
        if kind not in KINDS:
            raise ConfigError(f"{where}.kind: unknown kind {kind!r}")
        K = _require(e, "K", 0, where)
        _checked(f"{where}.K", require_pairs, data, K)
        options = _require(e, "options", {}, where, {})
        known = fit_options(kind)
        for name, value in options.items():
            if name not in known:
                raise ConfigError(f"{where}.options.{name}: not an option of {kind} "
                                  f"(options: {', '.join(known) or 'none'})")
            _check_like(f"{where}.options.{name}", value, known[name])
        try:
            require_options(kind, options)
        except ValueError as exc:
            raise ConfigError(f"{where}.options.{exc}") from exc
        penalty = e.get("penalty")
        if penalty is not None:
            _check_like(f"{where}.penalty", penalty, 0.0)
            penalty = _checked(where, EstimatorSpec, kind, float(penalty), K).penalty
        listed.append((kind, penalty, K, dict(options)))
    return listed


def _fit_listed(listed, data, seed, command):
    """Fit every listed estimator on the centred ``data``; each needs a
    penalty.  Returns (label ``kind@penalty``, estimate) pairs."""
    for i, (_, penalty, _, _) in enumerate(listed):
        if penalty is None:
            raise ConfigError(f"estimators[{i}].penalty: required for {command}")
    fits = []
    for kind, penalty, K, options in listed:
        est = fit_estimator(EstimatorSpec(kind, penalty, K, options), data)
        est.provenance.seed = seed
        fits.append((f"{kind}@{penalty:g}", est))
    return fits


def _k_list(config, default):
    """``metrics.k_list``, or ``default`` where the config gives none."""
    k_list = _require(config, "metrics", {}, default={}).get("k_list", default)
    if (not isinstance(k_list, list) or not all(_is_int(k) and k >= 1 for k in k_list)
            or not k_list or len(set(k_list)) < len(k_list)):
        raise ConfigError("metrics.k_list: must be a nonempty list of distinct positive integers")
    return k_list


def _parse_metrics(config):
    k_list = _k_list(config, [1, 3, 5])
    aggs = _require(config.get("metrics", {}), "aggregations", [], "metrics", ["sq_sum"])
    if any(a != "sq_sum" for a in aggs):
        raise ConfigError("metrics.aggregations: only 'sq_sum' is reportable in the metric CSV; "
                          "other aggregations are available through the library API")
    return k_list


def _parse_registration(config, listed):
    sec = _require(config, "registration", {}, default={})
    mode = sec.get("mode", "orthogonal")
    if mode not in MODES:
        raise ConfigError(f"registration.mode: {mode!r} is not one of {', '.join(MODES)}")
    metric = sec.get("comparison_metric", "vt_Uk")
    if metric not in COMPARISON_METRICS:
        raise ConfigError(f"registration.comparison_metric: {metric!r} is not one of "
                          f"{', '.join(COMPARISON_METRICS)}")
    ref = sec.get("reference", 0)
    if not _is_int(ref) or not 0 <= ref < len(listed):
        raise ConfigError("registration.reference: index out of range")
    # by default the last metrics.k_list entry, or 3 without one
    k = sec["comparison_k"] if "comparison_k" in sec else _k_list(config, [3])[-1]
    k_max = min(K for _, _, K, _ in listed)
    if not _is_int(k) or not 1 <= k <= k_max:
        raise ConfigError(f"registration.comparison_k: {k!r} is not an int in [1, {k_max}], "
                          "the smallest listed K")
    return mode, metric, ref, k


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
    write_json(Path(outdir) / "manifest.json", manifest)


def _warn(message):
    """Print one warning line; returns 1, the count it adds."""
    print(f"warning: {message}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_fit(config, outdir, seed, jobs):
    raw = _load_dataset(config, seed)
    export = _require(config, "output", {}, default={}).get("export_data", False)
    if _check_like("output.export_data", export, False):
        save_two_view_csv(raw, Path(outdir) / "data_x.csv", Path(outdir) / "data_y.csv")
    data, _ = center_and_covariance(raw)
    fits = _fit_listed(_parse_estimators(config, data), data, seed, "fit")
    warning_count = 0
    for i, (label, est) in enumerate(fits):
        if est.provenance.degenerate:
            warning_count += _warn(f"estimators[{i}] {label} is degenerate")
        save_estimate(est, outdir, f"fit_{i:02d}_{est.provenance.algorithm}",
                      x_names=data.x_names, y_names=data.y_names)
    return warning_count


def _fold_plan(config, data, seed):
    sec = _require(config, "folds", {}, default={})
    V = _check_like("folds.V", sec.get("V", 5), 0)
    fold_seed = _check_int("folds.seed", sec.get("seed", seed))
    return _checked("folds", make_folds, data.n, V, seed=fold_seed)


def _cmd_sweep(config, outdir, seed, jobs):
    data, _ = center_and_covariance(_load_dataset(config, seed))
    grid = _parse_grid(_require(config, "grid", {}))
    listed = _parse_estimators(config, data)
    k_list = _parse_metrics(config)
    folds = _fold_plan(config, data, seed)

    rows = []
    warning_count = 0
    validation = validation_splits(data, folds)
    for kind, _, K, options in listed:
        kind_grid = [g for g in grid if penalty_in_domain(kind, g)]
        dropped = [g for g in grid if not penalty_in_domain(kind, g)]
        if not kind_grid:
            raise ConfigError(f"grid: no legal penalties for {kind}")
        if dropped:
            warning_count += _warn(f"{kind} grid values outside its penalty domain dropped: "
                                   f"{', '.join(repr(g) for g in dropped)}")
        traj = sweep_trajectory(kind, data, kind_grid, folds, K, options=options,
                                seed=seed, jobs=jobs)
        est_dir = Path(outdir) / "estimates" / kind
        for (i, fold), est in sorted(traj.estimates.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
            save_estimate(est, est_dir, f"p{i:02d}_{fold}",
                          x_names=data.x_names, y_names=data.y_names)
        for (i, fold), msg in sorted(traj.failures.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
            warning_count += _warn(f"{kind} penalty[{i}] fold {fold} failed: {msg}")

        tables = cv_tables(data, [traj.fold_estimates(i) for i in range(len(kind_grid))],
                           validation, k_list)
        for i, (penalty, (table, skipped)) in enumerate(zip(kind_grid, tables)):
            for k, exc in skipped:
                warning_count += _warn(f"{kind} penalty[{i}] k={k} metrics skipped: {exc}")
            rows += [[kind, penalty, "cv", metric, k, value] for metric, k, value, _ in table]
    write_csv_table(Path(outdir) / "metrics.csv",
                    ["algorithm", "penalty", "fold", "metric", "k", "value"], rows)
    return warning_count


def _write_labelled(path, matrix, labels):
    """A matrix with ``labels`` heading its columns and rows (heat maps)."""
    write_csv_table(path, [""] + list(labels),
                    [[label] + row for label, row in zip(labels, matrix.tolist())])


def _cmd_compare(config, outdir, seed, jobs):
    data, _ = center_and_covariance(_load_dataset(config, seed))
    listed = _parse_estimators(config, data)
    mode, comp_metric, ref_idx, comp_k = _parse_registration(config, listed)
    labels, estimates = zip(*_fit_listed(listed, data, seed, "compare"))

    mat = trajectory_comparison(estimates, data, metric=comp_metric, k=comp_k)
    _write_labelled(Path(outdir) / f"comparison_{comp_metric}_{comp_k}.csv", mat, labels)

    # a degenerate estimate, or one with a zero variate among the first
    # comp_k, has no unit variates to register: its overlap table is masked
    # (NaN)
    tables, masked = registered_overlaps(estimates, data, comp_k, ref_idx, mode)
    warning_count = sum(_warn(f"{label} is degenerate; its overlap is masked")
                        for label, off in zip(labels, masked) if off)
    names = [f"comp_{j + 1}" for j in range(comp_k)] + ["sum"]
    for label, table in zip(labels, tables):
        _write_labelled(Path(outdir) / f"overlap_{labels[ref_idx]}_vs_{label}.csv", table, names)
    return warning_count


def _cmd_biplot(config, outdir, seed, jobs):
    data, _ = center_and_covariance(_load_dataset(config, seed))
    listed = _parse_estimators(config, data)
    out_sec = _require(config, "output", {}, default={})
    view = out_sec.get("variate_view", "x")
    if view not in ("x", "y"):
        raise ConfigError(f"output.variate_view: {view!r} is not 'x' or 'y'")
    threshold = _check_like("output.biplot_threshold", out_sec.get("biplot_threshold", 0.0), 0.0)
    # the biplot shows the first listed estimator
    [(label, est)] = _fit_listed(listed[:1], data, seed, "biplot")
    degenerate = est.provenance.degenerate
    warning_count = _warn(f"estimators[0] {label} is degenerate") if degenerate else 0
    coords = structure_correlations(data, est, variate_view=view)
    export_biplot(coords, float(threshold), Path(outdir) / "biplot.csv")
    return warning_count + sum(_warn(message) for message in coords.warnings)


def _cmd_synth_bench(config, outdir, seed, jobs):
    sec = _require(config, "generator", {})
    name = _require(sec, "preset", "", "generator")
    if name not in ex.PRESETS:
        raise ConfigError(f"generator.preset: unknown preset {name!r}")
    preset = ex.PRESETS[name]
    params = _require(sec, "params", {}, "generator", {})
    cfg = _checked("generator.params", ex.preset_config, name, params)
    _check_like("generator.params", params, preset["defaults"])
    try:
        ex.check_cells(name, cfg)
    except ValueError as exc:
        raise ConfigError(f"generator.params.{exc}") from exc
    records = _checked("generator.params", preset["run"], **params)
    write_csv_table(Path(outdir) / f"bench_{name}.csv", preset["fields"],
                    [[r.get(f) for f in preset["fields"]] for r in records])
    return 0


_HANDLERS = {
    "fit": _cmd_fit,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
    "biplot": _cmd_biplot,
    "synth-bench": _cmd_synth_bench,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="regcca",
        description="Regularised CCA toolbox: fit, sweep, compare, biplot, synth-bench",
    )
    parser.add_argument("command", choices=list(_HANDLERS))
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel sweep cells (an rcca path runs in-process)")
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

    try:
        seed = (_check_int("--seed", args.seed) if args.seed is not None
                else _check_int("seed", config.get("seed", 0)))
        jobs = _check_int("--jobs", args.jobs, positive=True)
        warning_count = _HANDLERS[args.command](config, outdir, seed, jobs)
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
