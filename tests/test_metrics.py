import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import random_joint_covariance
from regcca.cca_core import CcaEstimate, cca_from_covariance, empirical_canonical_correlations
from regcca.datamodel import (
    CovarianceModel,
    PairedDataset,
    center_and_covariance,
    make_folds,
    split_fold,
)
from regcca.estimators import rcca_fit, sweep_trajectory
from regcca.linalg import (
    LinalgError,
    canonical_angles,
    gram_schmidt_metric,
    gram_schmidt_reduce,
    sym_matrix_power,
)
from regcca.metrics import (
    METRIC_FAMILIES,
    CvCriteria,
    aggregate,
    cv_cc_agg,
    cv_instability,
    cv_table,
    cv_tables,
    estimation_error,
    gauss_mutual_info,
    metric_name,
    mutual_information,
    oracle_corr,
    subsp_cc_agg,
    succ_cc_agg,
    validation_splits,
)
from regcca.synth import canonical_pair_covariance, mvn_sample


class TestOracleCorr:
    def test_direct_substitution(self):
        cov = CovarianceModel(sxx=np.eye(3), sxy=0.9 * np.outer(np.eye(3)[0], np.eye(3)[0]),
                              syy=np.eye(3))
        assert abs(oracle_corr(cov, np.eye(3)[0], np.eye(3)[0]) - 0.9) <= 1e-14

    def test_sign_flips_with_direction(self, rng):
        cov = random_joint_covariance(rng, 3, 3)
        u = rng.standard_normal(3)
        v = rng.standard_normal(3)
        assert oracle_corr(cov, u, -v) == -oracle_corr(cov, u, v)

    def test_true_pair_attains_rho(self):
        cov, truth = canonical_pair_covariance(8, 6, [0.85, 0.55], 2, seed=61)
        for k, r in enumerate(truth.rho):
            got = oracle_corr(cov, truth.u_dirs[:, k], truth.v_dirs[:, k])
            assert abs(got - r) <= 1e-10

    def test_bounded_by_one(self, rng):
        for _ in range(50):
            cov = random_joint_covariance(rng, 4, 3)
            u = rng.standard_normal(4)
            v = rng.standard_normal(3)
            assert abs(oracle_corr(cov, u, v)) <= 1 + 1e-10

    def test_zero_variance_rejected(self, rng):
        cov = CovarianceModel(sxx=np.diag([1.0, 0.0]), sxy=np.zeros((2, 2)), syy=np.eye(2))
        with pytest.raises(ValueError):
            oracle_corr(cov, np.array([0.0, 1.0]), np.ones(2))


class TestAggregations:
    def test_known_values(self):
        assert aggregate("l1_sum", [0.5, 0.3]) == pytest.approx(0.8)
        assert aggregate("sq_sum", [0.5, 0.3]) == pytest.approx(0.34)
        assert mutual_information([0.0]) == 0.0
        # frozen value of -0.5 * ln(1 - 0.81)
        assert mutual_information([0.9]) == pytest.approx(0.830366, abs=5e-7)

    def test_clamped_at_one(self):
        assert np.isfinite(mutual_information([1.0]))

    @settings(max_examples=30, deadline=None)
    @given(
        rho=st.lists(st.floats(0.05, 0.9), min_size=1, max_size=4),
        idx=st.integers(0, 3),
        bump=st.floats(0.01, 0.05),
    )
    def test_coordinatewise_increasing(self, rho, idx, bump):
        idx = idx % len(rho)
        bumped = list(rho)
        bumped[idx] = min(bumped[idx] + bump, 0.95)
        if bumped[idx] <= rho[idx]:
            return
        for kind in ("l1_sum", "sq_sum", "mutual_info"):
            assert aggregate(kind, bumped) > aggregate(kind, rho)

    def test_mutual_info_equivalence_with_determinant_formula(self, rng):
        for _ in range(25):
            cov = random_joint_covariance(rng, 3, 3)
            rho = cca_from_covariance(cov, 3).rho
            assert abs(mutual_information(rho) - gauss_mutual_info(cov)) <= 1e-8


class TestSuccAndSubspace:
    def test_true_pairs_sq_sum(self):
        cov, truth = canonical_pair_covariance(8, 6, [0.85, 0.55], 2, seed=62)
        got = succ_cc_agg("sq_sum", cov, truth.u_dirs, truth.v_dirs)
        assert abs(got - (0.85**2 + 0.55**2)) <= 1e-10

    def test_no_signal_gives_zero(self, rng):
        cov, truth = canonical_pair_covariance(8, 6, [0.85], 1, seed=63)
        # directions orthogonal to the planted signal under the metric
        full = cca_from_covariance(cov, 6)
        u = full.u_dirs[:, -1:]
        v = full.v_dirs[:, -1:]
        assert abs(succ_cc_agg("sq_sum", cov, u, v)) <= 1e-8

    def test_subspace_equals_truth_on_true_block(self):
        cov, truth = canonical_pair_covariance(8, 6, [0.85, 0.55], 2, seed=64)
        got = subsp_cc_agg("sq_sum", cov, truth.u_dirs, truth.v_dirs, 2)
        assert abs(got - (0.85**2 + 0.55**2)) <= 1e-9

    def test_subspace_rotation_invariant(self, rng):
        cov, truth = canonical_pair_covariance(8, 6, [0.85, 0.55], 2, seed=65)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        got = subsp_cc_agg("sq_sum", cov, truth.u_dirs @ q, truth.v_dirs @ q, 2)
        assert abs(got - (0.85**2 + 0.55**2)) <= 1e-9

    def test_subspace_never_double_counts(self, rng):
        # subspace aggregation dominates the successive aggregation of the
        # metric-orthonormalised block
        for _ in range(10):
            cov = random_joint_covariance(rng, 5, 4)
            u = rng.standard_normal((5, 2))
            v = rng.standard_normal((4, 2))
            uo = gram_schmidt_metric(u, cov.sxx)
            vo = gram_schmidt_metric(v, cov.syy)
            sub = subsp_cc_agg("sq_sum", cov, uo, vo, 2)
            suc = succ_cc_agg("sq_sum", cov, uo, vo)
            assert sub >= suc - 1e-9

    def test_rotation_grid_brute_force_attains_optimum(self):
        # planted two-pair model: scanning metric-orthonormal frames on a
        # one-degree grid should reach sum f(rho_k) for every aggregation
        cov, truth = canonical_pair_covariance(2, 2, [0.8, 0.5], 1,
                                               within_view="identity", seed=66)
        rx = sym_matrix_power(cov.sxx, -0.5)
        ry = sym_matrix_power(cov.syy, -0.5)
        t = rx @ cov.sxy @ ry
        angles = np.deg2rad(np.arange(0, 360))
        cu, su = np.cos(angles), np.sin(angles)
        rots = np.array([[cu, -su], [su, cu]]).transpose(2, 0, 1)
        m = np.einsum("aji,jk,bkl->abil", rots, t, rots)
        diag = np.stack([m[..., 0, 0], m[..., 1, 1]], axis=-1)
        for kind in ("l1_sum", "sq_sum", "mutual_info"):
            target = aggregate(kind, truth.rho)
            if kind == "l1_sum":
                vals = np.sum(np.abs(diag), axis=-1)
            elif kind == "sq_sum":
                vals = np.sum(diag**2, axis=-1)
            else:
                r = np.clip(np.abs(diag), 0, 1 - 1e-9)
                vals = -0.5 * np.sum(np.log1p(-(r**2)), axis=-1)
            best = float(np.max(vals))
            assert best <= target + 1e-9
            assert best >= target - 1e-3


@pytest.fixture
def cv_setup():
    cov, truth = canonical_pair_covariance(6, 5, [0.8, 0.5], 2, seed=71)
    data = mvn_sample(cov, 150, seed=72)
    data, _ = center_and_covariance(data)
    folds = make_folds(data.n, 3, seed=7)
    traj = sweep_trajectory("rcca", data, [0.2], folds, 2)
    return cov, data, folds, traj.fold_estimates(0)


class TestCvMetrics:
    def test_duplicated_views_near_perfect(self, rng):
        x = rng.standard_normal((60, 3))
        data, _ = center_and_covariance(PairedDataset(x=x, y=x.copy()))
        folds = make_folds(60, 3, seed=1)
        traj = sweep_trajectory("rcca", data, [0.1], folds, 2)
        val = cv_cc_agg("successive", "sq_sum", data, traj.fold_estimates(0), folds, 2)
        assert val >= 2 - 0.05

    def test_null_level_for_independent_views(self):
        # independent Gaussian views: the CV criterion stays near zero
        vals = []
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            data = PairedDataset(x=rng.standard_normal((200, 3)),
                                 y=rng.standard_normal((200, 3)))
            data, _ = center_and_covariance(data)
            folds = make_folds(200, 3, seed=seed)
            traj = sweep_trajectory("rcca", data, [0.1], folds, 1)
            val = cv_cc_agg("successive", "l1_sum", data, traj.fold_estimates(0), folds, 1)
            vals.append(abs(val))
        assert max(vals) <= 0.25

    def test_fold_estimate_mismatch_rejected(self, cv_setup):
        cov, data, folds, ests = cv_setup
        with pytest.raises(ValueError):
            cv_cc_agg("successive", "sq_sum", data, ests[:-1], folds, 2)

    def test_subspace_version_runs(self, cv_setup):
        cov, data, folds, ests = cv_setup
        val, disp = cv_cc_agg("subspace", "sq_sum", data, ests, folds, 2,
                              return_dispersion=True)
        assert 0 <= val <= 2 + 1e-9
        assert disp >= 0


class TestEstimationError:
    def test_exact_estimate_zero_error(self):
        cov, truth = canonical_pair_covariance(6, 5, [0.8, 0.5], 2, seed=73)
        err = estimation_error(cov, truth, truth, 2)
        for key in ("wt_uk", "vt_uk", "wt_Uk", "vt_Uk"):
            assert err[key] <= 1e-10

    def test_metric_orthogonal_estimate_maximal(self):
        cov, truth = canonical_pair_covariance(6, 5, [0.8, 0.5, 0.3], 1, seed=74)
        full = cca_from_covariance(cov, 3)
        est_k1 = cca_from_covariance(cov, 3)
        swapped = type(truth)(
            u_dirs=full.u_dirs[:, ::-1],
            v_dirs=full.v_dirs[:, ::-1],
            rho=full.rho[::-1],
            provenance=truth.provenance,
        )
        err = estimation_error(cov, full, swapped, 1)
        # first estimated direction is metric-orthogonal to the true one
        assert err["vt_uk"] >= 1 - 1e-9

    def test_single_pair_matches_scalar_formula(self, rng):
        cov, truth = canonical_pair_covariance(5, 4, [0.8], 1, seed=75)
        est_u = rng.standard_normal((5, 1))
        est_v = rng.standard_normal((4, 1))
        est = type(truth)(u_dirs=est_u, v_dirs=est_v, rho=np.array([0.5]),
                          provenance=truth.provenance)
        err = estimation_error(cov, truth, est, 1)
        u, e = truth.u_dirs[:, 0], est_u[:, 0]
        cos2 = (u @ e) ** 2 / (u @ u) / (e @ e)
        assert abs(err["wt_uk"] - (1 - cos2)) <= 1e-10

    def test_values_in_range(self, rng):
        cov, truth = canonical_pair_covariance(6, 5, [0.8, 0.5], 2, seed=76)
        for _ in range(10):
            est = type(truth)(
                u_dirs=rng.standard_normal((6, 2)),
                v_dirs=rng.standard_normal((5, 2)),
                rho=np.array([0.5, 0.2]),
                provenance=truth.provenance,
            )
            err = estimation_error(cov, truth, est, 2)
            assert 0 <= err["wt_uk"] <= 1 and 0 <= err["vt_uk"] <= 1
            assert 0 <= err["wt_Uk"] <= 2 + 1e-12 and 0 <= err["vt_Uk"] <= 2 + 1e-12

    def test_r2sk_equals_R2sk_for_exact_decomposition(self, rng):
        for _ in range(10):
            cov = random_joint_covariance(rng, 5, 4)
            est = cca_from_covariance(cov, 3)
            r = succ_cc_agg("sq_sum", cov, est.u_dirs, est.v_dirs)
            big_r = subsp_cc_agg("sq_sum", cov, est.u_dirs, est.v_dirs, 3)
            assert abs(r - big_r) <= 1e-9


class TestCvInstability:
    def test_identical_estimates_zero(self, cv_setup):
        cov, data, folds, ests = cv_setup
        same = [ests[0]] * 3
        inst = cv_instability(data, same, 2)
        for v in inst.values():
            assert v <= 1e-12

    def test_orthogonal_directions_give_one(self, rng):
        data, _ = center_and_covariance(
            PairedDataset(x=rng.standard_normal((30, 4)), y=rng.standard_normal((30, 3)))
        )
        base = rcca_fit(data, 0.5, 2)
        a = type(base)(u_dirs=np.eye(4)[:, [0, 1]], v_dirs=base.v_dirs,
                       rho=base.rho, provenance=base.provenance)
        b = type(base)(u_dirs=np.eye(4)[:, [2, 3]], v_dirs=base.v_dirs,
                       rho=base.rho, provenance=base.provenance)
        inst = cv_instability(data, [a, b], 1)
        assert abs(inst["wt_uk_cv"] - 1.0) <= 1e-12

    def test_single_fold_rejected(self, cv_setup):
        cov, data, folds, ests = cv_setup
        with pytest.raises(ValueError):
            cv_instability(data, ests[:1], 1)

    def test_instability_lower_bounds_pairwise_error_sum(self):
        # trend over seeds: instability between fold estimates stays below
        # the summed oracle errors of each fold pair (subspace distances
        # obey a triangle-type inequality through the truth), evaluated at
        # the CV-optimal penalty
        cov, truth = canonical_pair_covariance(10, 8, [0.8, 0.6], 3, seed=300)
        grid = [0.05, 0.15, 0.4]
        inst_vals, sum_vals = [], []
        for seed in range(10):
            data = mvn_sample(cov, 150, seed=900 + seed)
            data, _ = center_and_covariance(data)
            folds = make_folds(data.n, 3, seed=seed)
            traj = sweep_trajectory("rcca", data, grid, folds, 2)
            best_i = max(
                range(len(grid)),
                key=lambda i: cv_cc_agg(
                    "successive", "sq_sum", data, traj.fold_estimates(i), folds, 1
                ),
            )
            ests = traj.fold_estimates(best_i)
            inst_vals.append(cv_instability(data, ests, 2)["vt_Uk_cv"])
            errs = [estimation_error(cov, truth, e, 2)["vt_Uk"] for e in ests]
            pairs = [errs[i] + errs[j] for i in range(3) for j in range(i + 1, 3)]
            sum_vals.append(np.mean(pairs))
        assert np.median(inst_vals) <= np.median(sum_vals)

    def test_gcca_cv_correlation_tracks_oracle_on_bootstrap_data(self):
        # reduced-dimension parametric-bootstrap check: the CV sum of top-3
        # squared correlations stays within 0.15 of its oracle counterpart
        # at the same penalty
        from regcca.synth import bootstrap_covariance

        seed_cov, _ = canonical_pair_covariance(12, 8, [0.85, 0.7, 0.55], 2, seed=310)
        seed_data = mvn_sample(seed_cov, 300, seed=311)
        seed_data, _ = center_and_covariance(seed_data)
        boot = bootstrap_covariance(seed_data, "glasso", 0.03)
        gaps = []
        for seed in range(3):
            data = mvn_sample(boot, 250, seed=320 + seed)
            data, _ = center_and_covariance(data)
            folds = make_folds(data.n, 3, seed=seed)
            traj = sweep_trajectory("gcca", data, [0.02, 0.06], folds, 3)
            for i in range(2):
                cv_val = cv_cc_agg(
                    "successive", "sq_sum", data, traj.fold_estimates(i), folds, 3
                )
                full = traj.full_estimate(i)
                oracle = succ_cc_agg("sq_sum", boot, full.u_dirs[:, :3], full.v_dirs[:, :3])
                gaps.append(abs(cv_val - oracle))
        assert np.median(gaps) <= 0.15


# ---------------------------------------------------------------------------
# per-k reference: the criteria as computed one (criterion, k) at a time,
# re-splitting the folds and re-orthonormalising every block on each call
# ---------------------------------------------------------------------------

def _ref_corr(z, w):
    nz, nw = np.linalg.norm(z), np.linalg.norm(w)
    if nz == 0.0 or nw == 0.0:
        return 0.0
    return float(z @ w / (nz * nw))


def reference_cv_cc_agg(mode, kind, data, fold_estimates, folds, K):
    if len(fold_estimates) != folds.V:
        raise ValueError(f"need one estimate per fold: got {len(fold_estimates)} for V={folds.V}")
    vals = []
    for v, est in enumerate(fold_estimates):
        if est is None:
            raise ValueError(f"missing estimate for fold {v}")
        if est.k < K:
            raise ValueError(f"fold {v} estimate has {est.k} pairs, need {K}")
        _, val = split_fold(data, folds, v)
        z = val.x @ est.u_dirs[:, :K]
        w = val.y @ est.v_dirs[:, :K]
        if mode == "successive":
            vals.append(aggregate(kind, [_ref_corr(z[:, k], w[:, k]) for k in range(K)]))
        else:
            vals.append(aggregate(kind, empirical_canonical_correlations(z, w)))
    return float(np.mean(vals)), float(np.std(vals))


def _ref_vector_sin2(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("zero vector in angle computation")
    return max(0.0, 1.0 - float(a @ b / (na * nb)) ** 2)


def _ref_subspace_sin2(a, b):
    qa, _ = gram_schmidt_reduce(a)
    qb, _ = gram_schmidt_reduce(b)
    keff = min(qa.shape[1], qb.shape[1])
    if keff == 0:
        raise ValueError("zero-dimensional subspace in angle computation")
    return float(keff - np.sum(canonical_angles(qa, qb)[:keff] ** 2))


def reference_cv_instability(data, fold_estimates, k):
    ests = [e for e in fold_estimates if e is not None]
    if len(ests) < 2:
        raise ValueError("need at least 2 fold estimates")
    out = {"wt_uk_cv": [], "vt_uk_cv": [], "wt_Uk_cv": [], "vt_Uk_cv": []}
    for i in range(len(ests)):
        for j in range(i + 1, len(ests)):
            ua, ub = ests[i].u_dirs, ests[j].u_dirs
            out["wt_uk_cv"].append(_ref_vector_sin2(ua[:, k - 1], ub[:, k - 1]))
            out["vt_uk_cv"].append(
                _ref_vector_sin2(data.x @ ua[:, k - 1], data.x @ ub[:, k - 1]))
            out["wt_Uk_cv"].append(_ref_subspace_sin2(ua[:, :k], ub[:, :k]))
            out["vt_Uk_cv"].append(_ref_subspace_sin2(data.x @ ua[:, :k], data.x @ ub[:, :k]))
    return {key: float(np.mean(vals)) for key, vals in out.items()}


INSTABILITY_FAMILIES = (("wt-u", "wt_uk_cv"), ("vt-u", "vt_uk_cv"),
                        ("wt-U", "wt_Uk_cv"), ("vt-U", "vt_Uk_cv"))


def reference_sweep_rows(kind, data, traj, folds, k_list):
    """``metrics.csv`` rows (penalty, metric, k, value) and skip warnings of
    one swept kind, one (criterion, k) call at a time, in the order the
    sweep writes them."""
    rows, warns = [], []
    for i, penalty in enumerate(traj.grid):
        fold_ests = traj.fold_estimates(i)
        if any(e is None for e in fold_ests):
            continue
        for k in k_list:
            if k > min(e.k for e in fold_ests):
                continue
            try:
                for mode, family in (("successive", "r2s"), ("subspace", "R2s")):
                    val, _ = reference_cv_cc_agg(mode, "sq_sum", data, fold_ests, folds, k)
                    rows.append((penalty, metric_name(family, k, cv=True), k, val))
                inst = reference_cv_instability(data, fold_ests, k)
                for family, key in INSTABILITY_FAMILIES:
                    rows.append((penalty, metric_name(family, k, cv=True), k, inst[key]))
            except ValueError as exc:
                warns.append(f"warning: {kind} penalty[{i}] k={k} metrics skipped: {exc}")
    return rows, warns


def core_sweep_rows(kind, data, fold_ests_by_penalty, folds, k_list):
    """The same rows through one ``cv_table`` call per penalty."""
    rows, warns = [], []
    validation = validation_splits(data, folds)
    for i, (penalty, fold_ests) in enumerate(fold_ests_by_penalty):
        table, skipped = cv_table(data, fold_ests, validation, k_list)
        rows += [(penalty, metric, k, value) for metric, k, value, _ in table]
        warns += [f"warning: {kind} penalty[{i}] k={k} metrics skipped: {exc}"
                  for k, exc in skipped]
    return rows, warns


def assert_rows_match(rows, ref_rows, atol=1e-12):
    assert [r[:3] for r in rows] == [r[:3] for r in ref_rows]
    np.testing.assert_allclose([r[3] for r in rows], [r[3] for r in ref_rows],
                               rtol=0, atol=atol)


def _replace_u(est, u):
    return CcaEstimate(u_dirs=u, v_dirs=est.v_dirs, rho=est.rho, provenance=est.provenance)


@pytest.fixture
def k3_setup():
    cov, _ = canonical_pair_covariance(8, 6, [0.85, 0.6, 0.4], 2, seed=81)
    data = mvn_sample(cov, 120, seed=82)
    data, _ = center_and_covariance(data)
    folds = make_folds(data.n, 4, seed=8)
    traj = sweep_trajectory("rcca", data, [0.05, 0.3, 0.8], folds, 3)
    return data, folds, traj


class TestCvCriteria:
    def test_prefixes_match_per_k_calls(self, k3_setup):
        data, folds, traj = k3_setup
        k_list = [3, 1, 2]  # unsorted, as configs may give it
        ests = [(p, traj.fold_estimates(i)) for i, p in enumerate(traj.grid)]
        rows, warns = core_sweep_rows("rcca", data, ests, folds, k_list)
        ref_rows, ref_warns = reference_sweep_rows("rcca", data, traj, folds, k_list)
        assert len(rows) == 3 * 3 * 6 and warns == ref_warns == []
        assert_rows_match(rows, ref_rows)

    def test_k_beyond_estimate_dropped(self, k3_setup):
        data, folds, traj = k3_setup
        k_list = [4, 2, 1]  # the estimates hold 3 pairs
        ests = [(p, traj.fold_estimates(i)) for i, p in enumerate(traj.grid)]
        rows, _ = core_sweep_rows("rcca", data, ests, folds, k_list)
        ref_rows, _ = reference_sweep_rows("rcca", data, traj, folds, k_list)
        assert {r[2] for r in rows} == {1, 2}
        assert_rows_match(rows, ref_rows)
        with pytest.raises(ValueError, match="fold 0 estimate has 3 pairs, need 4"):
            cv_cc_agg("successive", "sq_sum", data, traj.fold_estimates(0), folds, 4)

    def test_public_functions_match_reference(self, k3_setup):
        data, folds, traj = k3_setup
        ests = traj.fold_estimates(1)
        for k in (1, 2, 3):
            for mode in ("successive", "subspace"):
                got = cv_cc_agg(mode, "sq_sum", data, ests, folds, k, return_dispersion=True)
                ref = reference_cv_cc_agg(mode, "sq_sum", data, ests, folds, k)
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
            got = cv_instability(data, ests, k)
            ref = reference_cv_instability(data, ests, k)
            for key in ref:
                assert abs(got[key] - ref[key]) <= 1e-12

    def test_rank_deficient_block_drops_a_column(self, k3_setup):
        data, folds, traj = k3_setup
        ests = list(traj.fold_estimates(1))
        u = ests[2].u_dirs.copy()
        u[:, 2] = u[:, 0] - 0.5 * u[:, 1]  # dependent third column
        ests[2] = _replace_u(ests[2], u)
        assert gram_schmidt_reduce(u)[1] == [0, 1]
        assert gram_schmidt_reduce(data.x @ u)[1] == [0, 1]
        crit = CvCriteria(data, [ests], 3, validation_splits(data, folds))
        for k in (1, 2, 3):
            ref = reference_cv_instability(data, ests, k)
            got = crit.instability(k)
            for key in ref:
                assert abs(got[key][0] - ref[key]) <= 1e-12
            for mode in ("successive", "subspace"):
                np.testing.assert_allclose(
                    [values[0] for values in crit.cc_agg(mode, "sq_sum", k)],
                    reference_cv_cc_agg(mode, "sq_sum", data, ests, folds, k),
                    rtol=0, atol=1e-12)

    def test_degenerate_fold_rows_and_errors_unchanged(self, k3_setup):
        # a zero second column: r2s-cv is still defined at k >= 2, the
        # subspace criterion raises, and k = 1 keeps every row
        data, folds, traj = k3_setup
        ests = list(traj.fold_estimates(0))
        u = ests[1].u_dirs.copy()
        u[:, 1] = 0.0
        ests[1] = _replace_u(ests[1], u)
        ests[1].provenance.degenerate = True
        k_list = [2, 1, 3]
        rows, warns = core_sweep_rows("rcca", data, [(traj.grid[0], ests)], folds, k_list)

        class OnePenalty:
            grid = [traj.grid[0]]

            def fold_estimates(self, i):
                return ests

        ref_rows, ref_warns = reference_sweep_rows("rcca", data, OnePenalty(), folds, k_list)
        assert warns == ref_warns == [
            "warning: rcca penalty[0] k=2 metrics skipped: zero-variance column 1 in first block",
            "warning: rcca penalty[0] k=3 metrics skipped: zero-variance column 1 in first block",
        ]
        assert [r[1] for r in rows] == ["r2s2-cv", "r2s1-cv", "R2s1-cv", "wt-u1-cv",
                                        "vt-u1-cv", "wt-U1-cv", "vt-U1-cv", "r2s3-cv"]
        assert_rows_match(rows, ref_rows)
        crit = CvCriteria(data, [ests], 3)
        with pytest.raises(ValueError, match="zero vector"):
            crit.instability(2)
        with pytest.raises(ValueError, match="zero vector"):
            reference_cv_instability(data, ests, 2)

    def test_zero_vector_and_dropped_column_match_per_pair_loop(self, k3_setup):
        # fold 1 loses its third weight column, fold 3 reduces to two
        # columns: k < 3 is defined everywhere, k = 3 raises on pair (0, 1)
        data, folds, traj = k3_setup
        ests = list(traj.fold_estimates(2))
        u = ests[1].u_dirs.copy()
        u[:, 2] = 0.0
        ests[1] = _replace_u(ests[1], u)
        u = ests[3].u_dirs.copy()
        u[:, 1] = 2.0 * u[:, 0]
        ests[3] = _replace_u(ests[3], u)
        crit = CvCriteria(data, [ests], 3)
        for k in (1, 2):
            ref = reference_cv_instability(data, ests, k)
            got = crit.instability(k)
            for key in ref:
                assert abs(got[key][0] - ref[key]) <= 1e-12
        with pytest.raises(ValueError, match="zero vector"):
            reference_cv_instability(data, ests, 3)
        with pytest.raises(ValueError, match="zero vector"):
            crit.instability(3)

    @staticmethod
    def _first_error(fn, *args):
        try:
            fn(*args)
        except ValueError as exc:
            return type(exc), str(exc)
        return None

    def test_first_failing_fold_or_stack_check_wins(self, k3_setup):
        # fold 2 has a NaN in its second column and fold 3 is all zero.
        # instability checks the whole stack: a zero k-th column anywhere
        # wins at every k (the per-pair loop raises for the NaN of pair
        # (0, 2) from k = 2 on); cc_agg still raises for the first failing
        # fold
        data, folds, traj = k3_setup
        ests = list(traj.fold_estimates(0))
        u = ests[2].u_dirs.copy()
        u[0, 1] = np.nan
        ests[2] = _replace_u(ests[2], u)
        healthy_fold_3 = ests[3]
        u = ests[3].u_dirs.copy()
        u[:, :] = 0.0
        ests[3] = _replace_u(ests[3], u)
        crit = CvCriteria(data, [ests], 3, validation_splits(data, folds))
        assert (self._first_error(reference_cv_instability, data, ests, 1)
                == (ValueError, "zero vector in angle computation"))
        for k in (2, 3):
            assert (self._first_error(reference_cv_instability, data, ests, k)
                    == (LinalgError, "second block contains non-finite entries"))
        for k in (1, 2, 3):
            assert (self._first_error(crit.instability, k)
                    == (ValueError, "zero vector in angle computation"))
        for mode in ("successive", "subspace"):
            for k in (1, 2, 3):
                got = self._first_error(crit.cc_agg, mode, "sq_sum", k)
                ref = self._first_error(reference_cv_cc_agg, mode, "sq_sum", data, ests, folds, k)
                assert got == ref
        # the NaN alone: k = 1 reads only first columns and is defined, the
        # prefix blocks from k = 2 on hold the NaN of the stack's block 2
        ests[3] = healthy_fold_3
        crit = CvCriteria(data, [ests], 3)
        ref = reference_cv_instability(data, ests, 1)
        got = crit.instability(1)
        for key in ref:
            assert abs(got[key][0] - ref[key]) <= 1e-12
        for k in (2, 3):
            assert (self._first_error(crit.instability, k)
                    == (LinalgError, "block 2 contains non-finite entries"))
        ests[1] = None
        crit = CvCriteria(data, [ests], 3, validation_splits(data, folds))
        assert (self._first_error(crit.cc_agg, "subspace", "sq_sum", 2)
                == (ValueError, "missing estimate for fold 1"))

    def test_unequal_fold_sizes(self):
        # 121 samples in 4 folds: validation blocks of 31 and 30 rows
        cov, _ = canonical_pair_covariance(8, 6, [0.85, 0.6, 0.4], 2, seed=83)
        data, _ = center_and_covariance(mvn_sample(cov, 121, seed=84))
        folds = make_folds(data.n, 4, seed=9)
        assert len({val.n for val in validation_splits(data, folds)}) == 2
        traj = sweep_trajectory("rcca", data, [0.05, 0.5], folds, 3)
        ests = [(p, traj.fold_estimates(i)) for i, p in enumerate(traj.grid)]
        rows, warns = core_sweep_rows("rcca", data, ests, folds, [1, 2, 3])
        ref_rows, ref_warns = reference_sweep_rows("rcca", data, traj, folds, [1, 2, 3])
        assert warns == ref_warns == []
        assert_rows_match(rows, ref_rows)

    def test_k_above_k_max_or_missing_splits_rejected(self, k3_setup):
        data, folds, traj = k3_setup
        crit = CvCriteria(data, [traj.fold_estimates(0)], 2, validation_splits(data, folds))
        with pytest.raises(ValueError, match="exceeds k_max"):
            crit.cc_agg("successive", "sq_sum", 3)
        with pytest.raises(ValueError, match="exceeds k_max"):
            crit.instability(3)
        with pytest.raises(ValueError, match="validation splits"):
            CvCriteria(data, [traj.fold_estimates(0)], 2).cc_agg("subspace", "sq_sum", 1)

    def test_table_rows_carry_the_correlation_dispersion(self, k3_setup):
        data, folds, traj = k3_setup
        validation = validation_splits(data, folds)
        ests = traj.fold_estimates(1)
        rows, skipped = cv_table(data, ests, validation, [2, 1])
        assert skipped == []
        assert [r[0] for r in rows] == [f"{family}{k}-cv" for k in (2, 1)
                                        for family in METRIC_FAMILIES]
        crit = CvCriteria(data, [ests], 2, validation)
        for metric, k, value, spread in rows:
            if metric.startswith(("r2s", "R2s")):
                mode = "successive" if metric.startswith("r2s") else "subspace"
                mean, dispersion = crit.cc_agg(mode, "sq_sum", k)
                assert (value, spread) == (mean[0], dispersion[0])
            else:
                assert spread is None
        # a penalty with a failed fold cell has no rows
        ests[2] = None
        assert cv_table(data, ests, validation, [1, 2]) == ([], [])


def per_penalty_tables(data, by_penalty, validation, k_list):
    return [cv_table(data, ests, validation, k_list) for ests in by_penalty]


def assert_tables_match(tables, ref_tables, atol=1e-12):
    assert len(tables) == len(ref_tables)
    for (rows, skipped), (ref_rows, ref_skipped) in zip(tables, ref_tables):
        assert [r[:2] for r in rows] == [r[:2] for r in ref_rows]
        assert [r[3] is None for r in rows] == [r[3] is None for r in ref_rows]
        values = [v for r in rows for v in r[2:] if v is not None]
        ref_values = [v for r in ref_rows for v in r[2:] if v is not None]
        assert all(type(v) is float for v in values)
        np.testing.assert_allclose(values, ref_values, rtol=0, atol=atol)
        assert [(k, type(e), str(e)) for k, e in skipped] == [
            (k, type(e), str(e)) for k, e in ref_skipped]


def twenty_penalty_sweep():
    # 20 penalties: more than one stacked chunk
    cov, _ = canonical_pair_covariance(8, 6, [0.85, 0.6, 0.4], 2, seed=81)
    data, _ = center_and_covariance(mvn_sample(cov, 120, seed=82))
    folds = make_folds(data.n, 4, seed=8)
    traj = sweep_trajectory("rcca", data, list(np.linspace(0.0, 1.0, 20)), folds, 3)
    by_penalty = [traj.fold_estimates(i) for i in range(len(traj.grid))]
    return data, validation_splits(data, folds), by_penalty


@pytest.fixture
def long_sweep():
    return twenty_penalty_sweep()


class TestStackedTables:
    def test_stacked_rows_match_per_penalty_tables(self, long_sweep):
        data, validation, by_penalty = long_sweep
        for k_list in ([1, 3, 5], [2, 1], [4]):
            tables = list(cv_tables(data, by_penalty, validation, k_list))
            assert_tables_match(tables, per_penalty_tables(data, by_penalty, validation, k_list))
        assert len(tables[0][0]) == 0

    def test_missing_and_degenerate_penalties_are_scored_alone(self, long_sweep):
        data, validation, by_penalty = long_sweep
        by_penalty[3] = list(by_penalty[3])
        by_penalty[3][2] = None
        # a zero second column: the subspace criterion at k >= 2 is undefined
        by_penalty[17] = list(by_penalty[17])
        u = by_penalty[17][1].u_dirs.copy()
        u[:, 1] = 0.0
        by_penalty[17][1] = _replace_u(by_penalty[17][1], u)
        by_penalty[17][1].provenance.degenerate = True
        tables = list(cv_tables(data, by_penalty, validation, [1, 2, 3]))
        ref = per_penalty_tables(data, by_penalty, validation, [1, 2, 3])
        assert tables[3] == ref[3] == ([], [])
        # k = 1 whole, and r2s-cv before the subspace criterion raises at k = 2, 3
        assert tables[17][0] == ref[17][0] and len(tables[17][0]) == 8
        assert [k for k, _ in tables[17][1]] == [2, 3]
        assert_tables_match(tables, ref)

    def test_estimates_of_unequal_k_are_scored_alone(self, long_sweep):
        data, validation, by_penalty = long_sweep
        # penalty 4 holds two pairs, the others three
        by_penalty[4] = [CcaEstimate(e.u_dirs[:, :2], e.v_dirs[:, :2], e.rho[:2], e.provenance)
                         for e in by_penalty[4]]
        tables = list(cv_tables(data, by_penalty, validation, [1, 2, 3]))
        assert {r[1] for r in tables[4][0]} == {1, 2} and {r[1] for r in tables[5][0]} == {1, 2, 3}
        assert_tables_match(tables, per_penalty_tables(data, by_penalty, validation, [1, 2, 3]))

    def test_an_error_propagates_at_its_penalty(self, long_sweep):
        # the same zero column on an estimate not flagged degenerate
        data, validation, by_penalty = long_sweep
        by_penalty[5] = list(by_penalty[5])
        u = by_penalty[5][1].u_dirs.copy()
        u[:, 1] = 0.0
        by_penalty[5][1] = _replace_u(by_penalty[5][1], u)
        with pytest.raises(ValueError) as ref:
            cv_table(data, by_penalty[5], validation, [1, 2])
        tables = cv_tables(data, by_penalty, validation, [1, 2])
        before = [next(tables) for _ in range(5)]
        assert_tables_match(before, per_penalty_tables(data, by_penalty[:5], validation, [1, 2]))
        with pytest.raises(ValueError) as got:
            next(tables)
        assert (type(got.value), str(got.value)) == (type(ref.value), str(ref.value))
        assert str(got.value) == "zero-variance column 1 in first block"


# built once for all examples: the property copies an estimate before changing it
shared_sweep = functools.lru_cache(twenty_penalty_sweep)


def perturbed(est, pattern, column):
    """A copy of ``est`` missing, cut to ``column + 1`` pairs, or with a
    zero weight column flagged degenerate or not, or flagged degenerate
    with no zero column."""
    if pattern == "missing":
        return None
    if pattern == "short":
        return CcaEstimate(est.u_dirs[:, :column + 1], est.v_dirs[:, :column + 1],
                           est.rho[:column + 1], est.provenance)
    u = est.u_dirs.copy()
    if pattern != "flagged":
        u[:, column] = 0.0
    return CcaEstimate(u, est.v_dirs, est.rho,
                       dataclasses.replace(est.provenance, degenerate=pattern != "zero"))


class TestStackedTablesProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        penalties=st.lists(st.integers(0, 19), min_size=1, max_size=20),
        changes=st.lists(st.tuples(st.integers(0, 19), st.integers(0, 3),
                                   st.sampled_from(["missing", "short", "degenerate", "zero",
                                                    "flagged"]),
                                   st.integers(0, 2)), max_size=6),
        k_list=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    )
    def test_stacked_tables_are_the_per_penalty_tables(self, penalties, changes, k_list):
        # up to 20 penalties, so that the healthy ones may fill two stacked passes
        data, validation, base = shared_sweep()
        by_penalty = [list(base[i]) for i in penalties]
        for slot, fold, pattern, column in changes:
            if slot < len(by_penalty) and by_penalty[slot][fold] is not None:
                by_penalty[slot][fold] = perturbed(by_penalty[slot][fold], pattern, column)
        ref, ref_error = [], None
        for ests in by_penalty:
            try:
                ref.append(cv_table(data, ests, validation, k_list))
            except ValueError as exc:
                ref_error = (type(exc), str(exc))
                break
        tables, error = [], None
        try:
            for table in cv_tables(data, by_penalty, validation, k_list):
                tables.append(table)
        except ValueError as exc:
            error = (type(exc), str(exc))
        # the same error at the same penalty, after the same tables
        assert error == ref_error
        assert_tables_match(tables, ref)


@st.composite
def swept_grids(draw, kind, sizes):
    """A drawn small dataset, fold plan, K, k_list and strictly increasing
    grid in the kind's domain with ``sizes`` penalties."""
    p, q = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    data = mvn_sample(random_joint_covariance(rng, p, q), draw(st.integers(4 * (p + q), 80)),
                      seed=seed)
    data, _ = center_and_covariance(data)
    folds = make_folds(data.n, draw(st.integers(2, 4)), seed=seed)
    K = draw(st.integers(1, min(p, q, 2)))
    k_list = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True))
    points = sorted(draw(st.lists(st.integers(0, 1000), min_size=sizes[0], max_size=sizes[1],
                                  unique=True)))
    lo = {"rcca": 0.0, "spls": 1.0, "scca": 0.0}[kind]
    return data, folds, K, k_list, [lo + point / 1000 for point in points]


@pytest.mark.parametrize("kind", ["rcca", "spls", "scca"])
@pytest.mark.parametrize("sizes", [(2, 16), (17, 24)], ids=["one-stack", "two-stacks"])
class TestGridOrderProperty:
    """Reversing the grid reverses a sweep, for rcca's stacked path and the
    per-cell path of spls and of scca, whose pairs the Newton finish ends.
    More than 16 penalties move the boundaries of the stacked CV passes."""

    # no shrink phase: each shrink step refits two sweeps, so shrinking a
    # failure takes minutes where reporting it takes seconds
    @settings(max_examples=10, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
    @given(draw=st.data())
    def test_a_reversed_grid_reverses_the_sweep(self, kind, sizes, draw):
        data, folds, K, k_list, grid = draw.draw(swept_grids(kind, sizes))
        last = len(grid) - 1
        # the property holds for any options: a cap on scca's outer
        # iterations bounds the time of a slow drawn pair
        options = {"max_outer": 200} if kind == "scca" else None
        fwd = sweep_trajectory(kind, data, grid, folds, K, options)
        rev = sweep_trajectory(kind, data, grid[::-1], folds, K, options)
        # the same estimate at each (penalty, fold), bit for bit; only the
        # derived seed, which follows the grid index, differs
        assert set(rev.failures) == {(last - i, fold) for i, fold in fwd.failures}
        assert set(rev.estimates) == {(last - i, fold) for i, fold in fwd.estimates}
        for (i, fold), est in fwd.estimates.items():
            other = rev.estimates[(last - i, fold)]
            for name in ("u_dirs", "v_dirs", "rho"):
                assert np.array_equal(getattr(other, name), getattr(est, name))
            for name in ("penalty", "fold", "degenerate", "converged"):
                assert getattr(other.provenance, name) == getattr(est.provenance, name)
        # the same CV rows for each penalty, in reverse order
        validation = validation_splits(data, folds)
        tables = list(cv_tables(data, [fwd.fold_estimates(i) for i in range(len(grid))],
                                validation, k_list))
        rev_tables = list(cv_tables(data, [rev.fold_estimates(i) for i in range(len(grid))],
                                    validation, k_list))
        assert_tables_match(rev_tables[::-1], tables)


class TestReport:
    def test_metric_name_builder(self):
        assert metric_name("r2s", 5, cv=True) == "r2s5-cv"
        assert metric_name("R2s", 1) == "R2s1"
        assert metric_name("wt-U", 3, cv=True) == "wt-U3-cv"
        with pytest.raises(ValueError):
            metric_name("xx", 1)
