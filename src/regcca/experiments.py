"""The experiment presets of ``regcca synth-bench`` and ``scripts/``:
canonical-pair (acceptance criterion 3) and bootstrap-panel (criterion 4).

Each is a ``*_DEFAULTS`` dict that keyword overrides update, a ``run_*``
function returning records with the columns in ``*_FIELDS``, and a
``summarise_*`` function taking medians over seeds, named in ``PRESETS``.
"""

import numpy as np

from .cca_core import cca_from_covariance
from .datamodel import CovarianceModel, center_and_covariance, make_folds
from .estimators import (
    KINDS,
    EstimatorSpec,
    fit_estimator,
    require_grid,
    require_penalty,
    sweep_trajectory,
)
from .glasso import GlassoConvergenceError
from .linalg import sym_matrix_power
from .metrics import cv_tables, estimation_error, metric_name, succ_cc_agg, validation_splits
from .synth import (
    banded_within_view_precision,
    bootstrap_covariance,
    canonical_pair_covariance,
    mvn_sample,
    powerlaw_precision,
)


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

CANONICAL_PAIR_FIELDS = ["kind", "penalty", "n", "seed", "metric", "value"]


def preset_config(preset, overrides):
    """``preset``'s defaults updated by ``overrides``, each of which must be
    one of their keys: a preset takes no keyword it would ignore."""
    unknown = sorted(set(overrides) - set(PRESETS[preset]["defaults"]))
    if unknown:
        raise ValueError(f"{', '.join(unknown)} not a parameter of {preset}")
    return {**PRESETS[preset]["defaults"], **overrides}


def check_cells(preset, cfg):
    """Check, before any sample or fit, that each kind ``cfg`` lists is known
    and has a grid, nonempty and strictly monotone if ``preset`` sweeps it,
    each penalty in the kind's domain (a sweep drops a cell it cannot fit
    without a word); a message starts with the parameter it names."""
    for i, kind in enumerate(cfg["kinds"]):
        if kind not in KINDS:
            raise ValueError(f"kinds[{i}]: unknown estimator kind {kind!r}")
        if kind not in cfg["grids"]:
            raise ValueError(f"grids.{kind}: missing, but kinds lists {kind}")
        where = f"grids.{kind}"
        try:
            if PRESETS[preset]["sweeps"]:
                require_grid(cfg["grids"][kind])
            for j, penalty in enumerate(cfg["grids"][kind]):
                where = f"grids.{kind}[{j}]"
                require_penalty(kind, penalty)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None


def run_canonical_pair_bench(**overrides):
    """Error-versus-n experiment on the single-canonical-pair model.

    Returns long-format records (kind, penalty, n, seed, metric, value)
    with the oracle first-pair correlation and the weight/variate errors of
    the first pair, for every grid point, and its fit's ``converged`` (not
    a CSV column).  A degenerate estimate whose criteria are undefined gets
    no record, as in the panel; an undefined criterion of a healthy
    estimate is a RuntimeError.
    """
    cfg = preset_config("canonical-pair", overrides)
    check_cells("canonical-pair", cfg)
    cov, truth = canonical_pair_covariance(
        cfg["p"], cfg["q"], [cfg["rho1"]], cfg["support_size"],
        within_view="suo_sp", seed=cfg["model_seed"],
    )
    # sample every dataset first: center_and_covariance rejects an n below 2
    datasets = [(n, s, center_and_covariance(mvn_sample(cov, n, seed=1000 * s + n))[0])
                for n in cfg["n_list"] for s in range(cfg["n_seeds"])]
    records = []
    for n, s, data in datasets:
        for kind in cfg["kinds"]:
            for penalty in cfg["grids"][kind]:
                spec = EstimatorSpec(kind=kind, penalty=penalty, K=1)
                try:
                    est = fit_estimator(spec, data)
                except (GlassoConvergenceError, np.linalg.LinAlgError) as exc:
                    records.append(dict(kind=kind, penalty=penalty, n=n, seed=s,
                                        metric="failure", value=str(exc)))
                    continue
                try:
                    rho_or = abs(succ_cc_agg("l1_sum", cov, est.u_dirs[:, :1],
                                             est.v_dirs[:, :1]))
                    err = estimation_error(cov, truth, est, 1)
                except ValueError as exc:
                    # degenerate estimates make the criteria undefined; on a
                    # healthy one that is a program fault, not a parameter
                    if not est.provenance.degenerate:
                        raise RuntimeError(f"{kind} at penalty {penalty}: {exc}") from exc
                    continue
                for mname, mval in (("rho_oracle", rho_or),
                                    ("wt_u1", err["wt_uk"]),
                                    ("vt_u1", err["vt_uk"])):
                    records.append(dict(kind=kind, penalty=penalty, n=n, seed=s,
                                        metric=mname, value=mval,
                                        converged=est.provenance.converged))
    return records


def summarise_canonical_pair(records, kinds, n_list):
    """Per (kind, n): ``seeds_used``, the seeds with a scored penalty, and when
    it is positive the medians over them of the grid-best oracle correlation
    and of the weight/variate errors at that oracle-best penalty.
    ``nonconverged_fits`` counts the scored fits with ``converged`` false,
    present only when it is positive."""
    out = {}
    for kind in kinds:
        for n in n_list:
            by_seed, nonconverged = {}, set()
            for r in records:
                if r["kind"] != kind or r["n"] != n or r["metric"] == "failure":
                    continue
                by_seed.setdefault(r["seed"], {}).setdefault(r["penalty"], {})[r["metric"]] = r["value"]
                if not r["converged"]:
                    nonconverged.add((r["seed"], r["penalty"]))
            # each seed's metrics at its oracle-best penalty
            best = [max(by_pen.values(), key=lambda m: m["rho_oracle"])
                    for _, by_pen in sorted(by_seed.items())]
            out[(kind, n)] = {"seeds_used": len(best)}
            if best:
                out[(kind, n)].update({f"median_{name}": float(np.median([m[name] for m in best]))
                                       for name in ("rho_oracle", "wt_u1", "vt_u1")})
            if nonconverged:
                out[(kind, n)]["nonconverged_fits"] = len(nonconverged)
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

BOOTSTRAP_PANEL_FIELDS = ["kind", "penalty", "seed", "r2s1_cv", "r2s1", "r2s3_cv", "R2s3_cv",
                          "vt_U3", "wt_U3", "converged"]


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
    top-3 subspace errors, per (kind, penalty, seed) cell, and
    ``converged``: whether every fit of the cell (its V fold fits and the
    full-sample fit) converged.  The CV criteria are ``cv_tables`` rows, and
    a cell lacking one gets no record.  An undefined criterion is a
    RuntimeError unless a degenerate estimate (for CV, a fold one) explains it.
    """
    cfg = preset_config("bootstrap-panel", overrides)
    check_cells("bootstrap-panel", cfg)
    kmax = cfg["K"]
    boot_cov = _bootstrap_truth(cfg)
    truth = cca_from_covariance(boot_cov, kmax)
    cv_rows = {col: metric_name(family, k, cv=True) for col, family, k in
               (("r2s1_cv", "r2s", 1), ("r2s3_cv", "r2s", kmax), ("R2s3_cv", "R2s", kmax))}
    records = []
    for s in range(cfg["n_seeds"]):
        data = mvn_sample(boot_cov, cfg["n"], seed=500 + s)
        data, _ = center_and_covariance(data)
        folds = make_folds(data.n, cfg["V"], seed=s)
        validation = validation_splits(data, folds)
        for kind in cfg["kinds"]:
            traj = sweep_trajectory(kind, data, cfg["grids"][kind], folds, kmax, seed=s)
            by_penalty = [traj.fold_estimates(i) for i in range(len(traj.grid))]
            tables = cv_tables(data, by_penalty, validation, sorted({1, kmax}))
            for i, (penalty, fold_ests) in enumerate(zip(traj.grid, by_penalty)):
                try:
                    cv = {metric: value for metric, _, value, _ in next(tables)[0]}
                except ValueError as exc:  # on healthy fold estimates: a program fault
                    raise RuntimeError(f"{kind} at penalty {penalty}: {exc}") from exc
                full = traj.full_estimate(i)
                if full is None or any(m not in cv for m in cv_rows.values()):
                    continue
                try:
                    r2s1 = succ_cc_agg("sq_sum", boot_cov, full.u_dirs[:, :1], full.v_dirs[:, :1])
                    err = estimation_error(boot_cov, truth, full, kmax)
                except ValueError as exc:
                    # a degenerate estimate makes the oracle criteria undefined
                    if not any(e.provenance.degenerate for e in fold_ests + [full]):
                        raise RuntimeError(f"{kind} at penalty {penalty}: {exc}") from exc
                    continue
                records.append(dict(
                    kind=kind, penalty=penalty, seed=s, **{c: cv[m] for c, m in cv_rows.items()},
                    r2s1=r2s1, vt_U3=err["vt_Uk"], wt_U3=err["wt_Uk"],
                    converged=all(e.provenance.converged for e in fold_ests + [full])))
    return records


def summarise_bootstrap_panel(records, kinds):
    """Medians over seeds of the panel's acceptance quantities.

    ``seeds_used`` counts the seeds with at least one record of the kind;
    the medians, and ``nonconverged_cells`` (the kind's records over all
    seeds with ``converged`` false), are present only when it is positive
    (a kind whose cells were all skipped has none).
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
                nonconverged_cells=sum(not r["converged"] for r in records if r["kind"] == kind),
            )
    return out


PRESETS = {
    "canonical-pair": {"defaults": CANONICAL_PAIR_DEFAULTS, "sweeps": False,
                       "run": run_canonical_pair_bench, "fields": CANONICAL_PAIR_FIELDS},
    "bootstrap-panel": {"defaults": BOOTSTRAP_PANEL_DEFAULTS, "sweeps": True,
                        "run": run_bootstrap_panel_bench,
                        "fields": sorted(BOOTSTRAP_PANEL_FIELDS)},
}
