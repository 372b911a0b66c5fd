"""The three benchmark workloads, driven through regcca's public API.

Each workload is a closed loop with one caller: ``build`` makes the fixed
inputs (timed as set-up), ``run_pass`` is one timed region, and
``check_pass`` validates that pass's outputs outside the timed region.

panel           criterion-4 traffic: fixed glasso-bootstrap oracle covariance
                (n=500, p=60, q=30, K=3, V=5); each pass redraws the sample
                and the folds and sweeps rcca, spls, scca and gcca over their
                grids, then computes the CV and oracle criteria.  The
                solvers, scca above all, do the work.  Not listed in
                BENCHMARK.json: one sample takes 40-50 CPU seconds, so a
                run holds one sample and its time moves with the sample
                and the host by more than the bound.  Run it by hand for
                its exact solver counts.
canonical_pair  criterion-3 traffic: p=q=30, one planted pair, K=1, n in
                {100, 400}, scca/gcca/spls over their grids with no folds.
                Many short fits at d=60 with n close to p+q; glasso dominates.
cli_session     the user path: ``regcca.cli.main`` in-process for
                ``sweep --jobs 2`` (rcca, K=5, 37-point log grid, V=5),
                ``compare`` and ``biplot``, cycling over eight datasets whose
                CSVs and configs are written at set-up.  No glasso and no
                scca; CV metrics, persistence and the process pool dominate.
"""

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import regcca as rc
import regcca.cli
import regcca.synth
from regcca.glasso import GlassoConvergenceError

# gcca_fit's glasso tolerance; a fit must certify its KKT residual below it.
GLASSO_TOL = 1e-7
UNIT_VAR_TOL = 1e-8
RHO_TOL = 1e-9


@dataclass
class PassResult:
    """What one timed pass produced, read from the in-memory estimates."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    sample_seed: int = 0
    fits_attempted: int = 0
    fits_failed: int = 0
    commands: int = 0
    commands_failed: int = 0
    # (estimate, training view x, training view y) for every completed fit
    estimates: list = field(default_factory=list)
    oracle_errors: list = field(default_factory=list)
    records: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    failed_checks: int = 0
    problems: list = field(default_factory=list)
    # workload-private outputs handed from run_pass to check_pass
    raw: dict = field(default_factory=dict)


def _solver_counts(ests):
    """Exact solver counts of a pass, for citing as counts, not speed."""
    scca = [e for e in ests if e.provenance.algorithm == "scca"]
    gcca = [e for e in ests if e.provenance.algorithm == "gcca"]
    return {
        "fits": len(ests),
        "nonconverged": sum(not e.provenance.converged for e in ests),
        "degenerate": sum(bool(e.provenance.degenerate) for e in ests),
        "scca_fits": len(scca),
        "scca_inner_iterations": sum(e.provenance.info.get("total_inner_iterations", 0)
                                     for e in scca),
        "scca_converged": sum(bool(e.provenance.converged) for e in scca),
        "glasso_fits": len(gcca),
        "glasso_iterations": sum(e.provenance.info["glasso"]["iterations"] for e in gcca),
        "rho_above_1": sum(bool(np.any(np.abs(e.rho) > 1.0 + RHO_TOL)) for e in ests),
    }


def _rho_is_correlation(est):
    """rcca documents rho as the singular values of the regularised whitened
    target, which are correlations only at c=0; every other estimator
    reports correlations."""
    return est.provenance.algorithm != "rcca" or est.provenance.penalty == 0.0


def check_estimate(est, x_train, y_train):
    """Output checks on one estimate; returns a list of problems."""
    tag = f"{est.provenance.algorithm}@{est.provenance.penalty} fold {est.provenance.fold}"
    problems = []
    if not (np.all(np.isfinite(est.u_dirs)) and np.all(np.isfinite(est.v_dirs))):
        return [f"{tag}: non-finite directions"]
    for dirs, view in ((est.u_dirs, x_train), (est.v_dirs, y_train)):
        live = np.linalg.norm(dirs, axis=0) > 0
        var = np.mean((view @ dirs[:, live]) ** 2, axis=0)
        if np.any(np.abs(var - 1.0) > UNIT_VAR_TOL):
            problems.append(f"{tag}: training variate variance {var.tolist()} is not 1")
    if _rho_is_correlation(est) and np.any(np.abs(est.rho) > 1.0 + RHO_TOL):
        problems.append(f"{tag}: |rho| > 1")
    if est.provenance.algorithm == "gcca":
        kkt = est.provenance.info["glasso"]["kkt_residual"]
        if not kkt <= GLASSO_TOL:
            problems.append(f"{tag}: glasso kkt_residual {kkt:.3e} > {GLASSO_TOL:g}")
    return problems


def _fail(result, problems):
    if problems:
        result.failed_checks += 1
        result.problems.extend(problems)


def _check_all(result):
    for est, x, y in result.estimates:
        _fail(result, check_estimate(est, x, y))


# ---------------------------------------------------------------------------
# panel
# ---------------------------------------------------------------------------

PANEL = {
    "p": 60, "q": 30, "n": 500, "V": 5, "K": 3,
    "grids": {
        "rcca": [0.01, 0.05, 0.2, 0.6],
        "spls": [1.5, 2.5, 4.0, 6.0],
        "scca": [0.005, 0.015, 0.04, 0.1],
        "gcca": [0.02, 0.05, 0.12, 0.3],
    },
}


def bootstrap_truth():
    """Oracle covariance of the panel: glasso bootstrap of power-law seed
    data with boosted cross-view edges and banded within-view mixing."""
    p, q = PANEL["p"], PANEL["q"]
    omega = rc.powerlaw_precision(p + q, 3.0, seed=3)
    omega[:p, p:] *= 4.0
    omega[p:, :p] *= 4.0
    off = omega - np.diag(np.diagonal(omega))
    np.fill_diagonal(omega, 1.1 * np.sum(np.abs(off), axis=1) + 0.5)
    sigma = np.linalg.inv(omega)
    mix_x = rc.sym_matrix_power(regcca.synth.banded_within_view_precision(p), -0.5)
    mix_y = rc.sym_matrix_power(regcca.synth.banded_within_view_precision(q), -0.5)
    seed_cov = rc.CovarianceModel(
        sxx=mix_x @ sigma[:p, :p] @ mix_x.T,
        sxy=mix_x @ sigma[:p, p:] @ mix_y.T,
        syy=mix_y @ sigma[p:, p:] @ mix_y.T,
    )
    seed_data = rc.mvn_sample(seed_cov, 400, seed=4)
    return rc.bootstrap_covariance(seed_data, "glasso", 0.03)


class Panel:
    min_passes = 1

    def build(self, seed, workdir):
        cov = bootstrap_truth()
        return {"cov": cov, "truth": rc.cca_from_covariance(cov, PANEL["K"])}

    def sample_seed(self, seed, j):
        return 1000 * seed + j

    def run_pass(self, inputs, s):
        """One panel seed: redraw, sweep the four kinds, CV and oracle criteria.
        Records match the criterion-4 preset at sample seed s."""
        cov, truth, kmax = inputs["cov"], inputs["truth"], PANEL["K"]
        res = PassResult()
        data = rc.mvn_sample(cov, PANEL["n"], seed=500 + s)
        data, _ = rc.center_and_covariance(data)
        folds = rc.make_folds(data.n, PANEL["V"], seed=s)
        trajs = []
        for kind, grid in PANEL["grids"].items():
            traj = rc.sweep_trajectory(kind, data, grid, folds, kmax, seed=s)
            trajs.append(traj)
            for i, penalty in enumerate(traj.grid):
                fold_ests = traj.fold_estimates(i)
                full = traj.full_estimate(i)
                if full is None or any(e is None for e in fold_ests):
                    continue
                row = dict(kind=kind, penalty=penalty, seed=s)
                try:
                    row["r2s1_cv"] = rc.cv_cc_agg("successive", "sq_sum", data, fold_ests,
                                                  folds, 1)
                    row["r2s3_cv"] = rc.cv_cc_agg("successive", "sq_sum", data, fold_ests,
                                                  folds, kmax)
                    row["R2s3_cv"] = rc.cv_cc_agg("subspace", "sq_sum", data, fold_ests,
                                                  folds, kmax)
                    row["r2s1"] = rc.succ_cc_agg("sq_sum", cov, full.u_dirs[:, :1],
                                                 full.v_dirs[:, :1])
                    err = rc.estimation_error(cov, truth, full, kmax)
                except ValueError:
                    # undefined on degenerate estimates; the CLI skips them too
                    if not any(e.provenance.degenerate for e in fold_ests + [full]):
                        raise
                    res.counts["criteria_skipped"] = res.counts.get("criteria_skipped", 0) + 1
                    continue
                row["vt_U3"] = err["vt_Uk"]
                row["wt_U3"] = err["wt_Uk"]
                res.records.append(row)
        res.raw.update(trajs=trajs, data=data, folds=folds)
        return res

    def check_pass(self, inputs, res):
        data, folds = res.raw["data"], res.raw["folds"]
        trains = {v: rc.split_fold(data, folds, v)[0] for v in range(folds.V)}
        trains["full"] = data
        for traj in res.raw["trajs"]:
            res.fits_attempted += len(traj.estimates) + len(traj.failures)
            res.fits_failed += len(traj.failures)
            for (_, fold), est in sorted(traj.estimates.items(), key=lambda kv: str(kv[0])):
                res.estimates.append((est, trains[fold].x, trains[fold].y))
        res.oracle_errors = [r["vt_U3"] for r in res.records]
        res.counts.update(_solver_counts([e for e, _, _ in res.estimates]))
        res.counts["sweep_failures"] = res.fits_failed
        _check_all(res)

    def summary(self, records):
        """Criterion-4 quantities of one pass, per kind."""
        out = {}
        for kind in PANEL["grids"]:
            rows = [r for r in records if r["kind"] == kind]
            if not rows:
                continue
            star1 = max(rows, key=lambda r: r["r2s1_cv"])
            star3 = max(rows, key=lambda r: r["r2s3_cv"])
            out[kind] = {
                "cv_oracle_gap_r2s1": abs(star1["r2s1_cv"] - star1["r2s1"]),
                "vt_U3": star3["vt_U3"],
                "wt_U3": star3["wt_U3"],
                "best_R2s3_cv": max(r["R2s3_cv"] for r in rows),
            }
        return out


# ---------------------------------------------------------------------------
# canonical_pair
# ---------------------------------------------------------------------------

CANONICAL = {
    "p": 30, "q": 30, "rho1": 0.9, "support_size": 5, "n_list": [100, 400],
    "grids": {
        "scca": [0.02, 0.05, 0.1, 0.2],
        "gcca": [0.05, 0.1, 0.2, 0.4],
        "spls": [1.5, 2.5, 4.0],
    },
    "model_seed": 7,
}


class CanonicalPair:
    min_passes = 1

    def build(self, seed, workdir):
        c = CANONICAL
        cov, truth = rc.canonical_pair_covariance(c["p"], c["q"], [c["rho1"]], c["support_size"],
                                                  within_view="suo_sp", seed=c["model_seed"])
        return {"cov": cov, "truth": truth}

    def sample_seed(self, seed, j):
        return 1000 * seed + j

    def run_pass(self, inputs, s):
        """One sample seed at every n: fit each kind over its grid (K=1) and
        score the first pair.  Records match the criterion-3 preset at s."""
        cov, truth = inputs["cov"], inputs["truth"]
        res = PassResult()
        for n in CANONICAL["n_list"]:
            data = rc.mvn_sample(cov, n, seed=1000 * s + n)
            data, _ = rc.center_and_covariance(data)
            for kind, grid in CANONICAL["grids"].items():
                for penalty in grid:
                    res.fits_attempted += 1
                    spec = rc.EstimatorSpec(kind=kind, penalty=penalty, K=1)
                    try:
                        est = rc.fit_estimator(spec, data)
                    except (GlassoConvergenceError, np.linalg.LinAlgError):
                        res.fits_failed += 1
                        continue
                    res.estimates.append((est, data.x, data.y))
                    if est.provenance.degenerate:
                        continue
                    rho_or = abs(rc.succ_cc_agg("l1_sum", cov, est.u_dirs[:, :1],
                                                est.v_dirs[:, :1]))
                    err = rc.estimation_error(cov, truth, est, 1)
                    for mname, mval in (("rho_oracle", rho_or), ("wt_u1", err["wt_uk"]),
                                        ("vt_u1", err["vt_uk"])):
                        res.records.append(dict(kind=kind, penalty=penalty, n=n, seed=s,
                                                metric=mname, value=mval))
        return res

    def check_pass(self, inputs, res):
        res.oracle_errors = [r["value"] for r in res.records if r["metric"] == "vt_u1"]
        res.counts.update(_solver_counts([e for e, _, _ in res.estimates]))
        _check_all(res)

    def summary(self, records):
        """Criterion-3 quantities of one pass: per (kind, n), the grid-best
        oracle correlation and the errors at that penalty."""
        out = {}
        for kind in CANONICAL["grids"]:
            for n in CANONICAL["n_list"]:
                by_pen = {}
                for r in records:
                    if r["kind"] == kind and r["n"] == n:
                        by_pen.setdefault(r["penalty"], {})[r["metric"]] = r["value"]
                if not by_pen:
                    continue
                best = max(by_pen.values(), key=lambda m: m["rho_oracle"])
                out[f"{kind}_n{n}"] = {"rho_oracle": best["rho_oracle"],
                                       "wt_u1": best["wt_u1"], "vt_u1": best["vt_u1"]}
        return out


# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------

# Several datasets per run, because the oracle error of one n=400 dataset
# varies by about 10% from sample to sample: with four, the run's oracle
# error still spread by 0.10 over five seeds.
CLI = {"p": 60, "q": 30, "rhos": [0.9, 0.8, 0.7], "support_size": 5, "n": 400, "V": 5,
       "model_seed": 11, "jobs": 2, "datasets": 8}

COMMANDS = ("sweep", "compare", "biplot")


def _dir_digest(path):
    digest = hashlib.sha256()
    n_files = n_bytes = 0
    for f in sorted(q for q in path.rglob("*") if q.is_file()):
        blob = f.read_bytes()
        digest.update(str(f.relative_to(path)).encode())
        digest.update(blob)
        n_files += 1
        n_bytes += len(blob)
    return digest.hexdigest(), n_files, n_bytes


class Capture:
    """Keeps the estimates the CLI computes in memory: the outermost
    ``sweep_trajectory`` and ``fit_estimator`` results, wherever bound."""

    def __init__(self, interposer):
        self.results = []
        self._depth = 0
        for name in ("sweep_trajectory", "fit_estimator"):
            if not interposer.wrap("estimators", name, self._make):
                raise RuntimeError(f"regcca.estimators.{name} not found")

    def _make(self, fn):
        def captured(*args, **kwargs):
            self._depth += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                self._depth -= 1
            if self._depth == 0:
                self.results.append(out)
            return out
        captured.__wrapped__ = fn
        return captured

    def take(self):
        out, self.results = self.results, []
        return out


class CliSession:
    # every dataset once, then the first again: byte-identity is checked
    # between passes on the same dataset
    min_passes = CLI["datasets"] + 1

    def __init__(self, interposer):
        self.capture = Capture(interposer)

    def _session(self, cov, data_seed, workdir):
        """CSVs and one config per command for one dataset."""
        c = CLI
        data = rc.mvn_sample(cov, c["n"], seed=data_seed)
        x_csv, y_csv = workdir / f"x{data_seed}.csv", workdir / f"y{data_seed}.csv"
        rc.save_two_view_csv(data, x_csv, y_csv)
        base = {"data": {"x_csv": str(x_csv), "y_csv": str(y_csv)}, "seed": data_seed}
        configs = {
            "sweep": {**base,
                      "estimators": [{"kind": "rcca", "K": 5}],
                      "grid": {"log10_from": -4, "log10_to": 0, "per_decade": 9},
                      "folds": {"V": c["V"], "seed": data_seed},
                      "metrics": {"k_list": [1, 3, 5]}},
            "compare": {**base,
                        "estimators": [{"kind": "rcca", "penalty": 0.05, "K": 3},
                                       {"kind": "rcca", "penalty": 0.5, "K": 3},
                                       {"kind": "spls", "penalty": 3.0, "K": 3},
                                       {"kind": "spls", "penalty": 5.0, "K": 3}],
                        "registration": {"mode": "orthogonal", "reference": 0,
                                         "comparison_metric": "vt_Uk", "comparison_k": 3}},
            "biplot": {**base,
                       "estimators": [{"kind": "rcca", "penalty": 0.2, "K": 3}],
                       "output": {"variate_view": "x", "biplot_threshold": 0.05}},
        }
        paths = {}
        for cmd, cfg in configs.items():
            paths[cmd] = workdir / f"{cmd}{data_seed}.json"
            paths[cmd].write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        centred, _ = rc.center_and_covariance(data)
        return {"configs": paths, "data": centred,
                "folds": rc.make_folds(c["n"], c["V"], seed=data_seed)}

    def build(self, seed, workdir):
        c = CLI
        cov, truth = rc.canonical_pair_covariance(c["p"], c["q"], c["rhos"], c["support_size"],
                                                  within_view="suo_sp", seed=c["model_seed"])
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        sessions = [self._session(cov, 1000 * seed + d, workdir) for d in range(c["datasets"])]
        return {"cov": cov, "truth": truth, "sessions": sessions, "workdir": workdir,
                "digests": {}}

    def sample_seed(self, seed, j):
        return j

    def run_pass(self, inputs, s):
        """The three commands on dataset s mod datasets, each into a fresh
        output directory."""
        res = PassResult()
        configs = inputs["sessions"][s % CLI["datasets"]]["configs"]
        outdir = res.raw["outdir"] = inputs["workdir"] / f"out_{s}"
        codes = res.raw["codes"] = {}
        for cmd in COMMANDS:
            argv = [cmd, "--config", str(configs[cmd]), "--out", str(outdir / cmd)]
            if cmd == "sweep":
                argv += ["--jobs", str(CLI["jobs"])]
            codes[cmd] = regcca.cli.main(argv)
        return res

    def check_pass(self, inputs, res):
        d = res.sample_seed % CLI["datasets"]
        first_visit = d not in inputs["digests"]
        session = inputs["sessions"][d]
        data, folds = session["data"], session["folds"]
        trains = {v: rc.split_fold(data, folds, v)[0] for v in range(folds.V)}
        trains["full"] = data
        full = []
        for out in self.capture.take():
            if isinstance(out, rc.TrajectoryResult):
                res.fits_attempted += len(out.estimates) + len(out.failures)
                res.fits_failed += len(out.failures)
                items = sorted(out.estimates.items(), key=lambda kv: str(kv[0]))
                ests = [(e, fold) for (_, fold), e in items]
            else:
                res.fits_attempted += 1
                ests = [(out, "full")]
            for est, fold in ests:
                res.estimates.append((est, trains[fold].x, trains[fold].y))
                if fold == "full":
                    full.append(est)
        if first_visit:  # later passes on the dataset repeat the same estimates
            res.oracle_errors = [
                rc.estimation_error(inputs["cov"], inputs["truth"], e, 3)["vt_Uk"]
                for e in full if not e.provenance.degenerate]
        res.counts.update(_solver_counts([e for e, _, _ in res.estimates]))
        res.counts["sweep_failures"] = res.fits_failed
        res.commands = len(COMMANDS)
        res.counts.update(output_files=0, output_bytes=0)
        digests = inputs["digests"].setdefault(d, {})
        for cmd in COMMANDS:
            outdir = res.raw["outdir"] / cmd
            code = res.raw["codes"][cmd]
            if code != 0:
                res.commands_failed += 1
                res.problems.append(f"{cmd}: exit code {code}")
                continue
            digest, files, nbytes = _dir_digest(outdir)
            res.counts["output_files"] += files
            res.counts["output_bytes"] += nbytes
            problems = []
            if not (outdir / "manifest.json").is_file():
                problems.append(f"{cmd}: no manifest.json")
            if digest != digests.setdefault(cmd, digest):
                problems.append(f"{cmd}: outputs differ from the first pass on dataset {d}")
            _fail(res, problems)
        _check_all(res)
        shutil.rmtree(res.raw["outdir"])

    def summary(self, records):
        return {}


def make(name, interposer):
    if name == "panel":
        return Panel()
    if name == "canonical_pair":
        return CanonicalPair()
    if name == "cli_session":
        return CliSession(interposer)
    raise KeyError(name)
