import concurrent.futures
import multiprocessing

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from regcca import cca_core, estimators, glasso
from regcca.cca_core import cca_from_covariance, sample_cca
from regcca.datamodel import (
    CovarianceModel,
    PairedDataset,
    center_and_covariance,
    make_folds,
    split_fold,
)
from regcca.estimators import (
    EstimatorSpec,
    _l1_ball_unit_vector,
    _pmd_pair,
    fit_estimator,
    gcca_fit,
    load_estimate,
    rcca_fit,
    save_estimate,
    scca_fit,
    scca_kkt_residuals,
    spls_fit,
    sweep_trajectory,
)
from regcca.experiments import CANONICAL_PAIR_DEFAULTS
from regcca.linalg import HandOff, signed_corrs, soft_threshold, thin_svd
from regcca.synth import canonical_pair_covariance, mvn_sample
from test_cca_core import reference_cca_from_covariance
from test_metrics import _ref_subspace_sin2


@pytest.fixture
def toy_data(rng):
    cov, _ = canonical_pair_covariance(6, 5, [0.8, 0.5], 2, seed=21)
    data = mvn_sample(cov, 120, seed=22)
    data, _ = center_and_covariance(data)
    return data


def sin2_theta(a, b):
    return _ref_subspace_sin2(a, b)


def variate_angle(data, est_a, est_b, k=1):
    return sin2_theta(data.x @ est_a.u_dirs[:, :k], data.x @ est_b.u_dirs[:, :k])


class TestRcca:
    def test_penalty_off_equals_sample_cca(self, toy_data):
        ridge = rcca_fit(toy_data, 0.0, 2)
        classic = sample_cca(toy_data, 2)
        np.testing.assert_allclose(ridge.rho, classic.rho, atol=1e-8)
        np.testing.assert_allclose(ridge.u_dirs, classic.u_dirs, atol=1e-8)

    def test_full_penalty_is_pls(self, toy_data):
        # c=1 drops the within-view metric: an SVD of the cross-covariance
        est = rcca_fit(toy_data, 1.0, 2)
        _, cov = center_and_covariance(toy_data)
        left, sv, _ = thin_svd(cov.sxy)
        np.testing.assert_allclose(est.rho, sv[:2], atol=1e-10)
        for k in range(2):
            cos = abs(est.u_dirs[:, k] @ left[:, k]) / np.linalg.norm(est.u_dirs[:, k])
            assert cos >= 1 - 1e-10

    def test_matches_plugin_construction(self, toy_data):
        # oracle: build the regularised model by hand and decompose it
        c = 0.5
        est = rcca_fit(toy_data, c, 2)
        _, cov = center_and_covariance(toy_data)
        reg = CovarianceModel(
            sxx=(1 - c) * cov.sxx + c * np.eye(toy_data.p),
            sxy=cov.sxy,
            syy=(1 - c) * cov.syy + c * np.eye(toy_data.q),
        )
        oracle = cca_from_covariance(reg, 2)
        np.testing.assert_allclose(est.rho, oracle.rho, atol=1e-12)
        for k in range(2):
            cos = abs(est.u_dirs[:, k] @ oracle.u_dirs[:, k]) / (
                np.linalg.norm(est.u_dirs[:, k]) * np.linalg.norm(oracle.u_dirs[:, k])
            )
            assert cos >= 1 - 1e-12

    def test_penalty_out_of_range_rejected(self, toy_data):
        with pytest.raises(ValueError):
            rcca_fit(toy_data, 1.5, 1)

    def test_rho_continuous_in_penalty(self, toy_data):
        for c in (0.1, 0.5, 0.9):
            a = rcca_fit(toy_data, c, 2).rho
            b = rcca_fit(toy_data, c + 1e-3, 2).rho
            assert np.max(np.abs(a - b)) <= 0.05


# ---------------------------------------------------------------------------
# rcca from one eigendecomposition per view, against the plug-in construction
# ---------------------------------------------------------------------------

def reference_rcca_fit(data, c, K):
    """rcca as plug-in CCA on the regularised blocks, through their
    reconstructed inverse roots: two fresh eigendecompositions per
    penalty."""
    _, cov = center_and_covariance(data)
    reg = CovarianceModel(
        sxx=(1.0 - c) * cov.sxx + c * np.eye(data.p),
        sxy=cov.sxy,
        syy=(1.0 - c) * cov.syy + c * np.eye(data.q),
    )
    u, v, rho = reference_cca_from_covariance(reg, K)
    return (estimators._unit_variance_columns(u, data.x),
            estimators._unit_variance_columns(v, data.y), rho)


def assert_columns_close(got, ref, rtol):
    """Entries within rtol of each reference column's largest magnitude."""
    scale = np.max(np.abs(ref), axis=0)
    assert np.all(np.abs(got - ref) <= rtol * scale), np.max(np.abs(got - ref) / scale)


def assert_matches_reference(data, c, K, rtol=1e-10):
    est = rcca_fit(data, c, K)
    u, v, rho = reference_rcca_fit(data, c, K)
    assert_columns_close(est.u_dirs, u, rtol)
    assert_columns_close(est.v_dirs, v, rtol)
    np.testing.assert_allclose(est.rho, rho, rtol=rtol, atol=rtol * rho[0])


def planted_sample(p, q, n, seed, rhos=(0.9, 0.7, 0.5), support=2):
    cov, _ = canonical_pair_covariance(p, q, list(rhos), support, seed=seed)
    data, _ = center_and_covariance(mvn_sample(cov, n, seed=seed + 1))
    return data


class TestRccaSpectral:
    @pytest.mark.parametrize("c", [0.0, 1e-4, 0.1, 0.5, 1.0])
    def test_matches_plugin_reference_at_every_pair(self, c):
        data = planted_sample(12, 8, 150, seed=61)
        assert_matches_reference(data, c, min(data.p, data.q))

    def test_cli_session_shape(self):
        cov, _ = canonical_pair_covariance(60, 30, [0.9, 0.8, 0.7], 5,
                                           within_view="suo_sp", seed=11)
        data, _ = center_and_covariance(mvn_sample(cov, 400, seed=1000))
        for c in (1e-4, 0.03, 1.0):
            assert_matches_reference(data, c, 5)

    def test_rank_of_target_below_k(self):
        # the last y variable is orthogonal to every x variable, so T has
        # rank q - 1 < K = q and its null space is one-dimensional on each
        # side: the null pair is unique up to the sign of v
        rng = np.random.default_rng(64)
        x = rng.standard_normal((100, 5))
        y = 0.6 * x @ rng.standard_normal((5, 5)) + rng.standard_normal((100, 5))
        xc = x - x.mean(axis=0)
        last = y[:, -1] - y[:, -1].mean()
        y[:, -1] = last - xc @ np.linalg.lstsq(xc, last, rcond=None)[0]
        data, _ = center_and_covariance(PairedDataset(x=x, y=y))
        est = rcca_fit(data, 0.2, 5)
        u, v, rho = reference_rcca_fit(data, 0.2, 5)
        assert rho[-1] < 1e-12 and est.rho[-1] < 1e-12
        np.testing.assert_allclose(est.rho, rho, rtol=0, atol=1e-12)
        assert_columns_close(est.u_dirs, u, 1e-10)
        assert_columns_close(est.v_dirs[:, :4], v[:, :4], 1e-10)
        sign = np.sign(est.v_dirs[:, 4] @ v[:, 4])
        assert_columns_close(sign * est.v_dirs[:, 4:], v[:, 4:], 1e-10)

    def test_more_variables_than_samples(self):
        # at p >= n and c = 0 every correlation saturates and the pairs are
        # not unique: compare rho and the variate subspaces
        rng = np.random.default_rng(65)
        x = rng.standard_normal((30, 40))
        y = rng.standard_normal((30, 5))
        data, _ = center_and_covariance(PairedDataset(x=x, y=y))
        est = rcca_fit(data, 0.0, 5)
        _, _, rho = reference_rcca_fit(data, 0.0, 5)
        ref = sample_cca(data, 5)
        np.testing.assert_allclose(est.rho, rho, rtol=0, atol=1e-8)
        assert sin2_theta(data.x @ est.u_dirs, data.x @ ref.u_dirs) <= 1e-8
        assert sin2_theta(data.y @ est.v_dirs, data.y @ ref.v_dirs) <= 1e-8

    def test_shared_spectra_equal_fresh_fit(self, toy_data):
        # a path shares one CovarianceSpectra and one stacked solve
        grid = [0.0, 0.3, 1.0]
        for c, shared in zip(grid, estimators._rcca_path(toy_data, grid, 3)):
            fresh = rcca_fit(toy_data, c, 3)
            np.testing.assert_array_equal(shared.u_dirs, fresh.u_dirs)
            np.testing.assert_array_equal(shared.v_dirs, fresh.v_dirs)
            np.testing.assert_array_equal(shared.rho, fresh.rho)

    def test_k_outside_range_rejected(self, toy_data):
        with pytest.raises(ValueError, match="outside"):
            rcca_fit(toy_data, 0.5, 6)

    def test_stacked_solve_is_rcca_fit_penalty_by_penalty(self):
        # a fold's training split has n = 24 rows for p = 30 x variables,
        # and every pair is asked for: K = min(p, q)
        rng = np.random.default_rng(67)
        data, _ = center_and_covariance(PairedDataset(x=rng.standard_normal((36, 30)),
                                                      y=rng.standard_normal((36, 8))))
        folds = make_folds(data.n, 3, seed=2)
        grid = [0.0, 1e-4, 0.5, 1.0]
        train = split_fold(data, folds, 0)[0]
        assert train.p >= train.n
        spectra = cca_core.CovarianceSpectra(center_and_covariance(train)[1])
        us, vs, rhos = spectra.solve(8, grid)
        assert us.shape == (4, 30, 8) and vs.shape == (4, 8, 8) and rhos.shape == (4, 8)
        traj = sweep_trajectory("rcca", data, grid, folds, 8)
        for i, c in enumerate(grid):
            [u], [v], [rho] = spectra.solve(8, [c])
            np.testing.assert_array_equal(us[i], u)
            np.testing.assert_array_equal(vs[i], v)
            np.testing.assert_array_equal(rhos[i], rho)
            for fold in (0, 1, 2, "full"):
                fold_train = data if fold == "full" else split_fold(data, folds, fold)[0]
                alone = rcca_fit(fold_train, c, 8)
                est = traj.estimates[(i, fold)]
                np.testing.assert_array_equal(est.u_dirs, alone.u_dirs)
                np.testing.assert_array_equal(est.v_dirs, alone.v_dirs)
                np.testing.assert_array_equal(est.rho, alone.rho)
                assert est.provenance.degenerate == alone.provenance.degenerate

    def test_sweep_decomposes_each_fold_once(self, toy_data, monkeypatch):
        calls = []
        real = cca_core.sym_eig

        def counting(a):
            calls.append(a.shape)
            return real(a)

        monkeypatch.setattr(cca_core, "sym_eig", counting)
        folds = make_folds(toy_data.n, 3, seed=1)
        grid = [0.01, 0.05, 0.1, 0.3, 0.6, 0.9]
        traj = sweep_trajectory("rcca", toy_data, grid, folds, 2)
        assert len(traj.estimates) == len(grid) * (folds.V + 1)
        # one (Cxx, Cyy) pair per training split, whatever the grid length
        assert calls == [(toy_data.p, toy_data.p), (toy_data.q, toy_data.q)] * (folds.V + 1)
        assert list(traj.estimates) == [(i, fold) for i in range(len(grid))
                                        for fold in [0, 1, 2, "full"]]


_invariance = settings(max_examples=25, deadline=None)


@st.composite
def rcca_problems(draw):
    p, q = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    n = draw(st.integers(6 * (p + q), 300))
    seed = draw(st.integers(0, 10_000))
    c = draw(st.sampled_from([0.0, 0.01, 0.2, 0.7, 1.0]))
    K = draw(st.integers(1, 2))
    return planted_sample(p, q, n, seed, rhos=(0.9, 0.6), support=1), c, K, seed


class TestRccaInvariances:
    @_invariance
    @given(problem=rcca_problems())
    def test_row_permutation_changes_nothing(self, problem):
        data, c, K, seed = problem
        perm = np.random.default_rng(seed).permutation(data.n)
        moved, _ = center_and_covariance(PairedDataset(x=data.x[perm], y=data.y[perm]))
        a, b = rcca_fit(data, c, K), rcca_fit(moved, c, K)
        assert_columns_close(b.u_dirs, a.u_dirs, 1e-10)
        assert_columns_close(b.v_dirs, a.v_dirs, 1e-10)
        np.testing.assert_allclose(b.rho, a.rho, rtol=1e-10)

    @_invariance
    @given(problem=rcca_problems())
    def test_variable_permutation_permutes_direction_rows(self, problem):
        data, c, K, seed = problem
        rng = np.random.default_rng(seed)
        px, py = rng.permutation(data.p), rng.permutation(data.q)
        moved, _ = center_and_covariance(PairedDataset(x=data.x[:, px], y=data.y[:, py]))
        a, b = rcca_fit(data, c, K), rcca_fit(moved, c, K)
        assert_columns_close(b.u_dirs, a.u_dirs[px], 1e-10)
        assert_columns_close(b.v_dirs, a.v_dirs[py], 1e-10)
        np.testing.assert_allclose(b.rho, a.rho, rtol=1e-10)

    @_invariance
    @given(problem=rcca_problems())
    def test_unpenalised_variates_ignore_view_scaling(self, problem):
        data, _, K, seed = problem
        rng = np.random.default_rng(seed)
        sx, sy = np.exp(rng.uniform(-2, 2, data.p)), np.exp(rng.uniform(-2, 2, data.q))
        scaled, _ = center_and_covariance(PairedDataset(x=data.x * sx, y=data.y * sy))
        a, b = rcca_fit(data, 0.0, K), rcca_fit(scaled, 0.0, K)
        np.testing.assert_allclose(b.rho, a.rho, rtol=1e-10)
        for za, zb in ((data.x @ a.u_dirs, scaled.x @ b.u_dirs),
                       (data.y @ a.v_dirs, scaled.y @ b.v_dirs)):
            # unit-variance variates, up to the sign convention of each basis
            signs = np.sign(np.sum(za * zb, axis=0))
            np.testing.assert_allclose(zb * signs, za, rtol=0, atol=1e-10)


_SPARSE_PENALTIES = {"scca": [0.01, 0.05], "spls": [1.2, 2.0], "gcca": [0.02, 0.1]}
_sparse_invariance = settings(max_examples=8, deadline=None)


def fit_kind(kind, penalty, data, K):
    return fit_estimator(EstimatorSpec(kind=kind, penalty=penalty, K=K), data)


def assert_same_estimate(b, a, px=slice(None), py=slice(None)):
    """b equals a, with a's direction rows taken in the order px, py."""
    assert_columns_close(b.u_dirs, a.u_dirs[px], 1e-10)
    assert_columns_close(b.v_dirs, a.v_dirs[py], 1e-10)
    np.testing.assert_allclose(b.rho, a.rho, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("kind", ["scca", "spls", "gcca"])
class TestIterativeEstimatorInvariances:
    """rcca's invariances for the iterative estimators, on converged fits."""

    @_sparse_invariance
    @given(draw=st.data())
    def test_row_permutation_changes_nothing(self, kind, draw):
        data, _, K, seed = draw.draw(rcca_problems())
        penalty = draw.draw(st.sampled_from(_SPARSE_PENALTIES[kind]))
        perm = np.random.default_rng(seed).permutation(data.n)
        moved, _ = center_and_covariance(PairedDataset(x=data.x[perm], y=data.y[perm]))
        a, b = fit_kind(kind, penalty, data, K), fit_kind(kind, penalty, moved, K)
        assume(a.provenance.converged and b.provenance.converged)
        assert_same_estimate(b, a)

    @_sparse_invariance
    @given(draw=st.data())
    def test_variable_permutation_permutes_direction_rows(self, kind, draw):
        data, _, K, seed = draw.draw(rcca_problems())
        penalty = draw.draw(st.sampled_from(_SPARSE_PENALTIES[kind]))
        rng = np.random.default_rng(seed)
        px, py = rng.permutation(data.p), rng.permutation(data.q)
        moved, _ = center_and_covariance(PairedDataset(x=data.x[:, px], y=data.y[:, py]))
        a, b = fit_kind(kind, penalty, data, K), fit_kind(kind, penalty, moved, K)
        assume(a.provenance.converged and b.provenance.converged)
        assert_same_estimate(b, a, px, py)

    @_sparse_invariance
    @given(draw=st.data())
    def test_more_variables_than_samples(self, kind, draw):
        # p + q >= n: rank-deficient sample covariances, no exception
        p, q = draw.draw(st.integers(5, 30)), draw.draw(st.integers(5, 20))
        n = draw.draw(st.integers(10, p + q))
        data = planted_sample(p, q, n, draw.draw(st.integers(0, 10_000)), rhos=(0.9, 0.6),
                              support=1)
        penalty = draw.draw(st.sampled_from(_SPARSE_PENALTIES[kind]))
        est = fit_kind(kind, penalty, data, draw.draw(st.integers(1, 2)))
        assert np.all(np.isfinite(est.u_dirs)) and np.all(np.isfinite(est.v_dirs))
        assert np.all(np.abs(est.rho) <= 1.0)


class TestSpls:
    def test_slack_constraint_recovers_svd(self, toy_data):
        s = float(np.sqrt(max(toy_data.p, toy_data.q)))
        est = spls_fit(toy_data, s, 1)
        _, cov = center_and_covariance(toy_data)
        left, _, _ = thin_svd(cov.sxy)
        cos = abs(est.u_dirs[:, 0] @ left[:, 0]) / np.linalg.norm(est.u_dirs[:, 0])
        assert cos >= 1 - 1e-6

    def test_zero_cross_covariance_gives_zero_pairs(self):
        # centred, mutually orthogonal columns of a Hadamard matrix: the
        # sample cross-covariance is exactly zero, and each pair returns
        # before the alternation starts
        h2 = np.array([[1.0, 1.0], [1.0, -1.0]])
        h8 = np.kron(np.kron(h2, h2), h2)
        data, cov = center_and_covariance(PairedDataset(x=h8[:, 1:4], y=h8[:, 4:7]))
        np.testing.assert_array_equal(cov.sxy, 0.0)
        # one sweep of the alternation would not converge
        u, v, d, converged = _pmd_pair(cov.sxy, 1.5, max_sweeps=1)
        assert converged and d == 0.0 and not u.any() and not v.any()
        est = spls_fit(data, 1.5, 2)
        assert est.provenance.converged and est.provenance.degenerate
        np.testing.assert_array_equal(est.u_dirs, 0.0)
        np.testing.assert_array_equal(est.v_dirs, 0.0)
        np.testing.assert_array_equal(est.rho, 0.0)

    def test_rank_one_axis_aligned(self, rng):
        # sample cross-covariance proportional to e1 e1': columns drawn
        # mean-zero and mutually orthogonal, with only the first shared
        n = 40
        raw = rng.standard_normal((n, 5))
        raw -= raw.mean(axis=0)
        basis, _ = np.linalg.qr(raw)
        x = np.column_stack([basis[:, 0], basis[:, 1], basis[:, 2]])
        y = np.column_stack([basis[:, 0], basis[:, 3], basis[:, 4]])
        data = PairedDataset(x=x, y=y)
        data, cov = center_and_covariance(data)
        for s in (1.0, 1.5, 2.0):
            est = spls_fit(data, s, 1)
            u = est.u_dirs[:, 0] / np.linalg.norm(est.u_dirs[:, 0])
            assert abs(abs(u[0]) - 1.0) <= 1e-6

    def test_pmd_pair_unit_norm_and_objective(self, rng):
        # the solver-level pair honours the unit l2 constraint, and beats a
        # large random sample of feasible points on the objective
        a = rng.standard_normal((4, 4))
        cmat = a / np.max(np.abs(a))
        s = 1.2
        u, v, d, ok = _pmd_pair(cmat, s)
        assert ok
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-8
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-8
        assert np.sum(np.abs(u)) <= s + 1e-8

        rng2 = np.random.default_rng(7)
        best = -np.inf
        for _ in range(100_000 // 200):
            g = rng2.standard_normal((200, 4))
            deltas = rng2.uniform(0, np.max(np.abs(g), axis=1))[:, None]
            cand = np.sign(g) * np.maximum(np.abs(g) - deltas, 0.0)
            norms = np.linalg.norm(cand, axis=1, keepdims=True)
            cand = np.divide(cand, norms, out=np.zeros_like(cand), where=norms > 0)
            cand = cand[np.sum(np.abs(cand), axis=1) <= s]
            if len(cand) < 2:
                continue
            half = len(cand) // 2
            scores = cand[:half] @ cmat @ cand[half:].T
            best = max(best, float(np.max(scores)))
        assert u @ cmat @ v >= best - 1e-9

    def test_l1_ball_solver_binds_constraint(self, rng):
        z = rng.standard_normal(6)
        u = _l1_ball_unit_vector(z, 1.3)
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-10
        assert abs(np.sum(np.abs(u)) - 1.3) <= 1e-8

    def test_radius_below_one_rejected(self, toy_data):
        with pytest.raises(ValueError):
            spls_fit(toy_data, 0.5, 1)

    def test_nonconvergence_flagged(self, toy_data):
        est = spls_fit(toy_data, 1.5, 1, max_sweeps=1, tol=1e-15)
        assert not est.provenance.converged

    def test_no_covariance_metric_orthogonality_enforced(self, toy_data):
        # spls constrains Euclidean norms, not the within-view metric; the
        # returned columns are only rescaled to unit variance
        est = spls_fit(toy_data, 1.5, 2)
        _, cov = center_and_covariance(toy_data)
        gram = est.u_dirs.T @ cov.sxx @ est.u_dirs
        np.testing.assert_allclose(np.diag(gram), 1.0, atol=1e-6)


def reference_l1_ball_unit_vector(z, s, bisect_iters=100):
    """The l1-ball unit vector by bisection on the threshold: the solver the
    exact sort-based threshold replaces."""
    z = np.asarray(z, dtype=float)
    zmax = float(np.max(np.abs(z)))
    if zmax == 0.0:
        return np.zeros_like(z)

    def candidate(delta):
        u = soft_threshold(z, delta)
        nrm = np.linalg.norm(u)
        return u / nrm if nrm > 0 else u

    u0 = candidate(0.0)
    if np.sum(np.abs(u0)) <= s:
        return u0
    lo, hi = 0.0, zmax
    for _ in range(bisect_iters):
        mid = 0.5 * (lo + hi)
        if np.sum(np.abs(candidate(mid))) > s:
            lo = mid
        else:
            hi = mid
    return candidate(hi)


def criterion_3_sample(n, seed):
    """The centred sample run_canonical_pair_bench fits at (n, seed)."""
    cfg = CANONICAL_PAIR_DEFAULTS
    cov, _ = canonical_pair_covariance(cfg["p"], cfg["q"], [cfg["rho1"]], cfg["support_size"],
                                       within_view="suo_sp", seed=cfg["model_seed"])
    data, _ = center_and_covariance(mvn_sample(cov, n, seed=1000 * seed + n))
    return data


class TestExactL1Threshold:
    def assert_matches_bisection(self, z, s, same_support=True):
        u = _l1_ball_unit_vector(z, s)
        ref = reference_l1_ball_unit_vector(z, s)
        if same_support:
            np.testing.assert_array_equal(u != 0.0, ref != 0.0)
        np.testing.assert_allclose(u, ref, rtol=0.0, atol=1e-12)
        return u

    def test_random_inputs(self):
        rng = np.random.default_rng(3)
        for trial in range(400):
            p = int(rng.integers(2, 80))
            z = rng.standard_normal(p)
            if trial % 2:
                z *= np.exp(rng.uniform(-20.0, 20.0))
            s = rng.uniform(1.0, np.sqrt(p))
            u = self.assert_matches_bisection(z, s)
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
            assert np.sum(np.abs(u)) <= s + 1e-12

    def test_ties_in_magnitude(self):
        rng = np.random.default_rng(4)
        z = np.array([3.0, -3.0, 2.0, 2.0, -2.0, 2.0, 1.0, -1.0, 0.5, 0.0])
        for s in (1.5, 1.8, 2.0, 2.2, 2.5, 2.8):
            self.assert_matches_bisection(z, s)
        for _ in range(200):
            z = np.round(rng.standard_normal(int(rng.integers(2, 40))), 1)
            s = rng.uniform(1.0, np.sqrt(z.size))
            top = np.abs(z) == np.max(np.abs(z))
            m = np.count_nonzero(top)
            if m > s * s:
                # no threshold reaches the radius: see the test below
                np.testing.assert_array_equal(_l1_ball_unit_vector(z, s),
                                              np.where(top, np.sign(z) * (s / m), 0.0))
            else:
                self.assert_matches_bisection(z, s)

    def test_more_ties_at_the_top_than_the_radius_allows(self):
        # sqrt(3) > 1.5: no threshold reaches the radius (bisection tends to
        # zero); sign(z)*s/m on the m = 3 tied entries attains the l1-ball
        # bound s*max|z| inside the unit sphere
        z = np.array([2.0, -2.0, 2.0, 1.0])
        u = _l1_ball_unit_vector(z, 1.5)
        np.testing.assert_array_equal(u, [0.5, -0.5, 0.5, 0.0])
        assert u @ z == 1.5 * 2.0 and np.linalg.norm(u) < 1.0

    def test_unit_radius_is_one_hot(self):
        # bisection stops where the runner-up entry is below rounding of the
        # l1 norm, not always at zero, so only the values are compared
        rng = np.random.default_rng(5)
        for _ in range(50):
            z = rng.standard_normal(int(rng.integers(2, 40)))
            u = self.assert_matches_bisection(z, 1.0, same_support=False)
            expected = np.zeros_like(z)
            i = int(np.argmax(np.abs(z)))
            expected[i] = np.sign(z[i])
            np.testing.assert_array_equal(u, expected)

    def test_slack_radius_returns_normalised_input(self):
        rng = np.random.default_rng(6)
        for p in (1, 2, 7, 30):
            z = rng.standard_normal(p)
            u = self.assert_matches_bisection(z, np.sqrt(p))
            np.testing.assert_array_equal(u, z / np.linalg.norm(z))

    def test_zero_vector(self):
        np.testing.assert_array_equal(self.assert_matches_bisection(np.zeros(5), 1.5), 0.0)

    def test_one_hot_input(self):
        z = np.zeros(6)
        z[2] = -4.0
        for s in (1.0, 1.5, 3.0):
            u = self.assert_matches_bisection(z, s)
            np.testing.assert_array_equal(u, [0.0, 0.0, -1.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("K", [1, 3])
    def test_spls_supports_match_bisection_on_criterion_3(self, monkeypatch, K):
        samples = [criterion_3_sample(n, seed) for n in (100, 400) for seed in (0, 1)]
        fits = {}
        for solver in (_l1_ball_unit_vector, reference_l1_ball_unit_vector):
            monkeypatch.setattr(estimators, "_l1_ball_unit_vector", solver)
            fits[solver] = [spls_fit(data, s, K) for data in samples
                            for s in CANONICAL_PAIR_DEFAULTS["grids"]["spls"]]
        for est, ref in zip(fits[_l1_ball_unit_vector], fits[reference_l1_ball_unit_vector]):
            np.testing.assert_array_equal(est.u_dirs != 0.0, ref.u_dirs != 0.0)
            np.testing.assert_array_equal(est.v_dirs != 0.0, ref.v_dirs != 0.0)
            np.testing.assert_allclose(est.u_dirs, ref.u_dirs, rtol=0.0, atol=1e-10)
            np.testing.assert_allclose(est.v_dirs, ref.v_dirs, rtol=0.0, atol=1e-10)
            assert est.provenance.converged == ref.provenance.converged


def _scca_objective(cov, tau, u, v):
    return float(-u @ cov.sxy @ v + tau * (np.sum(np.abs(u)) + np.sum(np.abs(v))))


def _scca_polar_oracle(cov, tau, n_grid=720):
    """Brute force over direction angles with exact radius optimisation.

    For fixed directions the objective is bilinear in the radii, so the
    optimum sits at a corner of the feasible box; scanning all angle pairs
    at the grid resolution bounds the true optimum from above.
    """
    angles = np.linspace(0, 2 * np.pi, n_grid, endpoint=False)
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    ru = 1.0 / np.sqrt(np.einsum("ij,jk,ik->i", dirs, cov.sxx, dirs))
    rv = 1.0 / np.sqrt(np.einsum("ij,jk,ik->i", dirs, cov.syy, dirs))
    g = dirs @ cov.sxy @ dirs.T
    l1u = np.sum(np.abs(dirs), axis=1) * ru
    l1v = np.sum(np.abs(dirs), axis=1) * rv
    corner = -g * np.outer(ru, rv) + tau * (l1u[:, None] + l1v[None, :])
    return min(0.0, float(np.min(corner)))


class TestScca:
    def test_unpenalised_matches_sample_cca(self, toy_data):
        est = scca_fit(toy_data, 0.0, 1)
        classic = sample_cca(toy_data, 1)
        assert variate_angle(toy_data, est, classic) <= 1e-4

    def test_over_penalisation_flags_degenerate(self, toy_data):
        est = scca_fit(toy_data, 50.0, 1)
        assert est.provenance.degenerate
        np.testing.assert_array_equal(est.u_dirs, 0.0)

    def test_objective_matches_polar_grid_brute_force(self, rng):
        n, tau = 50, 0.05
        x = rng.standard_normal((n, 2))
        y = 0.6 * x + 0.8 * rng.standard_normal((n, 2))
        data, cov = center_and_covariance(PairedDataset(x=x, y=y))
        est = scca_fit(data, tau, 1, tol=1e-8)
        ours = _scca_objective(cov, tau, est.u_dirs[:, 0], est.v_dirs[:, 0])
        oracle = _scca_polar_oracle(cov, tau)
        assert ours <= oracle + 1e-3

    def test_successive_pairs_metric_orthogonal(self, rng):
        cov, _ = canonical_pair_covariance(10, 8, [0.85, 0.6, 0.4], 2, seed=31)
        data = mvn_sample(cov, 150, seed=32)
        data, c = center_and_covariance(data)
        est = scca_fit(data, 0.02, 3)
        gram = est.u_dirs.T @ c.sxx @ est.u_dirs
        off = np.max(np.abs(gram - np.diag(np.diag(gram))))
        assert off <= 1e-5
        gram_v = est.v_dirs.T @ c.syy @ est.v_dirs
        assert np.max(np.abs(gram_v - np.diag(np.diag(gram_v)))) <= 1e-5

    def test_dual_recycling_halves_inner_iterations(self, toy_data):
        fast = scca_fit(toy_data, 0.02, 1, n_steps_admm=5, recycle_duals=True)
        slow = scca_fit(toy_data, 0.02, 1, n_steps_admm=1000, recycle_duals=False)
        fi = fast.provenance.info["total_inner_iterations"]
        si = slow.provenance.info["total_inner_iterations"]
        assert fi <= 0.5 * si
        assert variate_angle(toy_data, fast, slow) <= 1e-6

    def test_nonconvergence_flagged_with_residuals(self, toy_data):
        est = scca_fit(toy_data, 0.02, 1, max_outer=1, tol=1e-14)
        assert not est.provenance.converged
        moves = est.provenance.info["last_outer_moves"]
        assert len(moves) == 1 and moves[0][0] > 1e-14


class TestSccaCertificate:
    def test_sample_cca_is_stationary_without_penalty(self, toy_data):
        classic = sample_cca(toy_data, 1)
        [kkt] = scca_kkt_residuals(toy_data, 0.0, classic.u_dirs, classic.v_dirs)
        assert kkt <= 1e-8

    def test_perturbed_direction_fails(self, toy_data):
        est = scca_fit(toy_data, 0.02, 1)
        [kkt] = scca_kkt_residuals(toy_data, 0.02, est.u_dirs, est.v_dirs)
        assert est.provenance.converged and kkt <= 1e-6
        bad = est.u_dirs.copy()
        bad[np.argmax(np.abs(bad[:, 0])), 0] *= 1.01
        [kkt] = scca_kkt_residuals(toy_data, 0.02, bad, est.v_dirs)
        assert kkt > 1e-6

    def test_three_pairs_certified_with_orthogonality_multipliers(self):
        cov, _ = canonical_pair_covariance(10, 8, [0.85, 0.6, 0.4], 2, seed=31)
        data, _ = center_and_covariance(mvn_sample(cov, 150, seed=32))
        est = scca_fit(data, 0.02, 3)
        stored = est.provenance.info["kkt_residuals"]
        assert est.provenance.converged and len(stored) == 3
        assert max(stored) <= 1e-6
        again = scca_kkt_residuals(data, 0.02, est.u_dirs, est.v_dirs)
        np.testing.assert_allclose(again, stored, rtol=1e-6, atol=1e-12)
        # without the pairs before it (no eta), a later pair is not stationary
        for k in (1, 2):
            [alone] = scca_kkt_residuals(data, 0.02, est.u_dirs[:, k:k + 1],
                                         est.v_dirs[:, k:k + 1])
            assert alone > 1e-3

    def test_one_outer_iteration_is_not_certified(self, toy_data):
        est = scca_fit(toy_data, 0.02, 1, max_outer=1)
        info = est.provenance.info
        assert not est.provenance.converged
        assert info["outer_iterations"] == [1] and info["kkt_residuals"][0] > 1e-6
        [kkt] = scca_kkt_residuals(toy_data, 0.02, est.u_dirs, est.v_dirs)
        assert kkt == pytest.approx(info["kkt_residuals"][0], rel=1e-6)

    @pytest.mark.parametrize("n, p, rows", [(150, 10, 0), (150, 10, 2), (24, 30, 1)])
    def test_ladmm_block_on_the_thin_factor(self, rng, n, p, rows):
        # z and xi in the column span of the data: the block on R = Q'X
        # runs the iterates of the block on X in Q-coordinates
        xd = rng.standard_normal((n, p)) / np.sqrt(n)
        q, r = np.linalg.qr(xd)
        np.testing.assert_array_equal(estimators._thin_factor(xd), r)
        m = r.shape[0]
        cons = 0.3 * rng.standard_normal((rows, p))
        u = 0.3 * rng.standard_normal(p)
        z = xd @ u / max(1.0, np.linalg.norm(xd @ u))
        xi = q @ (0.1 * rng.standard_normal(m))
        xi_cons = 0.1 * rng.standard_normal(rows)
        c = 0.5 * rng.standard_normal(p)
        mu = 0.5 / estimators._step_bound(np.vstack([xd, cons]))
        full = estimators._ladmm_block(u, z, np.r_[xi, xi_cons], np.vstack([xd, cons]), xd,
                                       c, 0.05, mu, 20)
        thin = estimators._ladmm_block(u, q.T @ z, np.r_[q.T @ xi, xi_cons],
                                       np.vstack([r, cons]), r, c, 0.05, mu, 20)
        np.testing.assert_allclose(thin[0], full[0], rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(q @ thin[1], full[1], rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(np.r_[q @ thin[2][:m], thin[2][m:]], full[2],
                                   rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("n", [100, 400])
    def test_thin_factor_keeps_the_work_on_criterion_3(self, monkeypatch, n):
        # the fit on the n-row blocks makes the same decisions
        for seed in range(3):
            data = criterion_3_sample(n, seed)
            for tau in (0.02, 0.05, 0.1, 0.2):
                est = scca_fit(data, tau, 1)
                monkeypatch.setattr(estimators, "_thin_factor", lambda block: block)
                ref = scca_fit(data, tau, 1)
                monkeypatch.undo()
                for key in ("total_inner_iterations", "outer_iterations"):
                    assert est.provenance.info[key] == ref.provenance.info[key]
                assert est.provenance.converged == ref.provenance.converged
                for a, b in ((est.u_dirs, ref.u_dirs), (est.v_dirs, ref.v_dirs)):
                    np.testing.assert_array_equal(a != 0.0, b != 0.0)
                    np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-9)


def pair_variate_sin2(data, a, b, j):
    """The larger over the two views of the variate sin^2 Theta between
    pair j of estimates a and b."""
    out = 0.0
    for view, da, db in ((data.x, a.u_dirs, b.u_dirs), (data.y, a.v_dirs, b.v_dirs)):
        za, zb = view @ da[:, j], view @ db[:, j]
        out = max(out, 1.0 - (za @ zb) ** 2 / ((za @ za) * (zb @ zb)))
    return out


def sample_covariances(data):
    """Cxx, Cyy and Cxy of centred data, divisor n."""
    return data.x.T @ data.x / data.n, data.y.T @ data.y / data.n, data.x.T @ data.y / data.n


class TestSccaFinish:
    def test_the_hand_off_rule(self):
        # one rule, shared by glasso's polish and the scca finish
        assert glasso.HandOff is estimators.HandOff is HandOff
        handoff = HandOff(0.1)
        assert not handoff.due(0.2) and handoff.due(0.08)
        # a retry waits until the residual has fallen tenfold below 0.08
        assert not handoff.due(0.05) and not handoff.due(0.0081)
        assert handoff.due(0.0079)
        assert not handoff.due(0.0008) and handoff.due(0.00078)
        assert not HandOff(0.0).due(1e-300)

    @pytest.mark.slow
    def test_criterion_3_pairs_match_the_plain_reference(self, monkeypatch):
        # each (n, seed, tau) of the criterion-3 grid at K=3, whose first pair
        # is the K=1 fit, against the LADMM alone at tol 1e-8 (at 1e-6 the
        # reference itself can sit 1.2e-8 from the exact pair); a pair is
        # compared where both fits certify it and every pair before it, so
        # that both solved one problem
        uncertified = slow = 0
        for seed in range(10):
            for n in (100, 400):
                data = criterion_3_sample(n, seed)
                for tau in (0.02, 0.05, 0.1, 0.2):
                    est = scca_fit(data, tau, 3)
                    first = scca_fit(data, tau, 1)
                    monkeypatch.setattr(estimators, "_SCCA_HANDOFF", 0.0)
                    ref = scca_fit(data, tau, 3, tol=1e-8, max_outer=100_000)
                    plain = scca_fit(data, tau, 3, max_outer=20_000)
                    monkeypatch.undo()
                    # the same pair; only the rescaling of three columns
                    # against one may round differently
                    for key in ("kkt_residuals", "outer_iterations", "returned"):
                        assert first.provenance.info[key][0] == est.provenance.info[key][0]
                    np.testing.assert_allclose(first.u_dirs[:, 0], est.u_dirs[:, 0], rtol=1e-13)
                    np.testing.assert_allclose(first.v_dirs[:, 0], est.v_dirs[:, 0], rtol=1e-13)
                    assert ref.provenance.converged
                    info = est.provenance.info
                    assert info["kkt_residuals"][0] <= 1e-6
                    for j in range(3):
                        if info["kkt_residuals"][j] > 1e-6:
                            assert info["returned"][j] == "capped"
                            uncertified += 1
                            break
                        zero = not est.u_dirs[:, j].any(), not ref.u_dirs[:, j].any()
                        assert zero[0] == zero[1]
                        if not zero[0]:
                            assert pair_variate_sin2(data, est, ref, j) <= 1e-8
                    slow += sum(it > 2000 for it in plain.provenance.info["outer_iterations"])
        # the finish leaves no more pairs uncertified than the LADMM alone
        # would at max_outer=2000
        assert uncertified <= slow

    def test_a_far_finish_is_rejected(self, monkeypatch, toy_data):
        # at tau=0 the second canonical pair is a certified KKT point of the
        # first pair's problem, and far from it: the LADMM continues
        # untouched, and the fit is the LADMM's bit for bit
        far = sample_cca(toy_data, 2)
        tries = []

        def lands_far(*args):
            tries.append(args)
            return far.u_dirs[:, 1], far.v_dirs[:, 1], True, 0, 0

        monkeypatch.setattr(estimators, "_pair_newton", lands_far)
        est = scca_fit(toy_data, 0.0, 1)
        cxx, cyy, cxy = sample_covariances(toy_data)
        assert estimators._pair_kkt(cxx, cyy, cxy, far.u_dirs[:, 1], far.v_dirs[:, 1],
                                    np.zeros((6, 0)), np.zeros((5, 0)), 0.0) <= 1e-6
        monkeypatch.setattr(estimators, "_SCCA_HANDOFF", 0.0)
        plain = scca_fit(toy_data, 0.0, 1)
        assert tries and est.provenance.info["returned"] == ["certified"]
        np.testing.assert_array_equal(est.u_dirs, plain.u_dirs)
        np.testing.assert_array_equal(est.v_dirs, plain.v_dirs)
        np.testing.assert_array_equal(est.rho, plain.rho)
        assert est.provenance.info == plain.provenance.info

    def test_the_rounds_tell_a_minimum_from_a_saddle(self, toy_data):
        # at tau=0 each canonical pair is a KKT point of the first pair's
        # problem; only the first is a minimum
        pairs = sample_cca(toy_data, 2)
        cxx, cyy, cxy = sample_covariances(toy_data)
        for j, minimum in ((0, True), (1, False)):
            u, v = pairs.u_dirs[:, j], pairs.v_dirs[:, j]
            u_new, v_new, settled, _, rounds = estimators._pair_newton(
                cxx, cyy, cxy, u, v, np.zeros((6, 0)), np.zeros((5, 0)), 0.0)
            assert settled is minimum and rounds == 1
            # Newton stays at the KKT point it starts from
            assert max(estimators._variate_sin2(cxx, u, u_new),
                       estimators._variate_sin2(cyy, v, v_new)) <= 1e-12

    def test_a_start_near_a_saddle_is_not_drawn_to_it(self, monkeypatch, toy_data):
        # near the second canonical pair (a saddle of the first pair's
        # problem at tau=0) the Jacobian has the wrong inertia: the shifted
        # step does not reduce the residual and no step is taken; unshifted
        # steps (a first shift above the largest variance) go to the saddle
        pairs = sample_cca(toy_data, 2)
        cxx, cyy, cxy = sample_covariances(toy_data)
        u = estimators._unit_variance(pairs.u_dirs[:, 1] + 0.1 * pairs.u_dirs[:, 0], cxx)
        v = estimators._unit_variance(pairs.v_dirs[:, 1] + 0.1 * pairs.v_dirs[:, 0], cyy)
        args = (cxx, cyy, cxy, u, v, np.zeros((6, 0)), np.zeros((5, 0)), 0.0)
        assert estimators._pair_newton(*args)[2:] == (False, 0, 1)
        monkeypatch.setattr(estimators, "_SCCA_SHIFT", 10.0)
        u_new, _, settled, steps, _ = estimators._pair_newton(*args)
        assert not settled and steps > 0
        assert estimators._variate_sin2(cxx, u_new, pairs.u_dirs[:, 1]) <= 1e-12

    def test_a_shrinking_iterate_is_not_finished(self, toy_data):
        # an iterate of small variance is heading for the zero pair, which
        # the LADMM certifies; the finish, which fixes unit variance, is
        # not tried
        est = scca_fit(toy_data, 0.02, 1)
        cxx, cyy, cxy = sample_covariances(toy_data)
        u, v = est.u_dirs[:, 0], est.v_dirs[:, 0]
        args = (np.zeros((6, 0)), np.zeros((5, 0)), 0.02, 1e-6)
        assert estimators._finish(cxx, cyy, cxy, u, v, *args)[0] is not None
        assert estimators._finish(cxx, cyy, cxy, 0.5 * u, v, *args) == (None, 0, 0)

    def test_a_zero_variate_is_far_from_any_finish(self, toy_data):
        # an LADMM iterate that shrinks to zero after a finish was found
        # lies at no angle to it, so never within reach of it
        cxx, _, _ = sample_covariances(toy_data)
        u = np.arange(1.0, 7.0)
        assert estimators._variate_sin2(cxx, np.zeros(6), u) == 1.0
        assert estimators._variate_sin2(cxx, u, 2.0 * u) == pytest.approx(0.0, abs=1e-15)

    def test_a_capped_pair_returns_its_last_iterate(self, monkeypatch, toy_data):
        # 33 outer iterations make six checks, none certified, and end
        # between checks: the pair is the last iterate, with its
        # certificate evaluated there
        checks = []
        pair_kkt = estimators._pair_kkt

        def recorded(*args):
            checks.append(pair_kkt(*args))
            return checks[-1]

        monkeypatch.setattr(estimators, "_pair_kkt", recorded)
        monkeypatch.setattr(estimators, "_SCCA_HANDOFF", 0.0)
        est = scca_fit(toy_data, 0.02, 1, max_outer=33, tol=1e-300)
        info = est.provenance.info
        assert len(checks) == 7 and info["outer_iterations"] == [33]
        assert info["returned"] == ["capped"] and info["kkt_residuals"] == [checks[-1]]
        monkeypatch.undo()
        [kkt] = scca_kkt_residuals(toy_data, 0.02, est.u_dirs, est.v_dirs)
        assert kkt == pytest.approx(checks[-1], rel=1e-6)

    def test_pairs_record_their_finish(self, toy_data):
        est = scca_fit(toy_data, 0.02, 2)
        info = est.provenance.info
        assert info["returned"] == ["finish", "finish"]
        assert all(steps > 0 for steps in info["newton_steps"])
        assert all(rounds >= 1 for rounds in info["rounds"])
        cxx, cyy, cxy = sample_covariances(toy_data)
        for j, objective in enumerate(info["objective"]):
            u, v = est.u_dirs[:, j], est.v_dirs[:, j]
            assert objective == pytest.approx(estimators._objective(cxy, u, v, 0.02), abs=1e-12)
            assert objective < 0.0


def reference_ladmm_block(u, z, xi, xt, xdata, c, tau, mu, n_steps):
    """The linearised-ADMM block with four mat-vecs per step: the textbook
    form the fused block must reproduce bit for bit."""
    n = xdata.shape[0]
    for _ in range(n_steps):
        r = xt @ u
        r[:n] -= z
        u = soft_threshold(u - mu * (xt.T @ (r + xi)) + mu * c, mu * tau)
        w = xdata @ u + xi[:n]
        nw = np.linalg.norm(w)
        z = w / nw if nw > 1.0 else w
        r = xt @ u
        r[:n] -= z
        xi = xi + r
    return u, z, xi


class TestFusedLadmm:
    def assert_bit_identical(self, monkeypatch, data, tau, K, **options):
        est = scca_fit(data, tau, K, **options)
        monkeypatch.setattr(estimators, "_ladmm_block", reference_ladmm_block)
        ref = scca_fit(data, tau, K, **options)
        monkeypatch.undo()
        np.testing.assert_array_equal(est.u_dirs, ref.u_dirs)
        np.testing.assert_array_equal(est.v_dirs, ref.v_dirs)
        np.testing.assert_array_equal(est.rho, ref.rho)
        assert est.provenance.info == ref.provenance.info
        assert est.provenance.converged == ref.provenance.converged
        return est

    @pytest.mark.parametrize("n", [100, 400])
    def test_first_pair_on_criterion_3(self, monkeypatch, n):
        data = criterion_3_sample(n, seed=0)
        for tau in (0.02, 0.1):
            self.assert_bit_identical(monkeypatch, data, tau, 1)

    def test_fresh_duals(self, monkeypatch, toy_data):
        # the fixed point of the fresh-dual map with few inner steps is not
        # a KKT point, so the LADMM alone never certifies; the Newton finish
        # from a check near it does
        est = self.assert_bit_identical(monkeypatch, toy_data, 0.02, 1, n_steps_admm=50,
                                        recycle_duals=False, max_outer=10)
        info = est.provenance.info
        assert est.provenance.converged and info["returned"] == ["finish"]
        assert max(info["kkt_residuals"]) <= 1e-6

    def test_more_variables_than_samples(self, monkeypatch):
        cov, _ = canonical_pair_covariance(30, 30, [0.9], 5, within_view="suo_sp", seed=7)
        data, _ = center_and_covariance(mvn_sample(cov, 24, seed=8))
        assert data.p >= data.n
        self.assert_bit_identical(monkeypatch, data, 0.05, 1, max_outer=300)

    @pytest.mark.parametrize("recycle", [True, False])
    def test_three_pairs_agree_to_rounding(self, monkeypatch, recycle):
        # from the second pair on, constraint rows sit below the data rows,
        # and BLAS may round the leading n entries of that stacked product
        # differently from the data-only product the reference's z-update
        # reads (here n=150 is not a multiple of the 4-row gemv block)
        cov, _ = canonical_pair_covariance(10, 8, [0.85, 0.6, 0.4], 2, seed=31)
        data, _ = center_and_covariance(mvn_sample(cov, 150, seed=32))
        # fresh duals never certify here by the LADMM alone (see
        # test_fresh_duals): the finish certifies each pair
        options = ({} if recycle
                   else {"n_steps_admm": 50, "recycle_duals": False, "max_outer": 64})
        est = scca_fit(data, 0.02, 3, **options)
        if not recycle:
            assert est.provenance.converged
            assert est.provenance.info["returned"] == ["finish"] * 3
            assert max(est.provenance.info["kkt_residuals"]) <= 1e-6
        monkeypatch.setattr(estimators, "_ladmm_block", reference_ladmm_block)
        ref = scca_fit(data, 0.02, 3, **options)
        assert est.provenance.info["total_inner_iterations"] == \
            ref.provenance.info["total_inner_iterations"]
        assert est.provenance.converged == ref.provenance.converged
        np.testing.assert_allclose(est.provenance.info["last_outer_moves"],
                                   ref.provenance.info["last_outer_moves"], rtol=1e-6, atol=1e-13)
        for a, b in ((est.u_dirs, ref.u_dirs), (est.v_dirs, ref.v_dirs)):
            np.testing.assert_array_equal(a != 0.0, b != 0.0)
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(est.rho, ref.rho, rtol=0.0, atol=1e-13)


def reference_operator_norm_sq(mat, tol=1e-8, max_iter=500):
    """Top eigenvalue of mat.T @ mat by power iteration from a deterministic
    start: the step bound scca took before the exact eigenvalue."""
    p = mat.shape[1]
    b = np.ones(p) / np.sqrt(p)
    val = 0.0
    for _ in range(max_iter):
        w = mat.T @ (mat @ b)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        new_val = float(b @ w)
        b = w / nw
        if abs(new_val - val) <= tol * max(new_val, 1.0):
            return new_val
        val = new_val
    return val


class TestStepBound:
    @pytest.mark.parametrize("shape", [(40, 30), (41, 30), (24, 30), (1, 5), (5, 1)])
    def test_is_the_squared_spectral_norm(self, rng, shape):
        block = rng.standard_normal(shape)
        bound = estimators._step_bound(block)
        assert bound == pytest.approx(np.linalg.norm(block, 2) ** 2, rel=1e-12)
        assert bound >= reference_operator_norm_sq(block) * (1.0 - 1e-12)

    def test_zero_block(self):
        assert estimators._step_bound(np.zeros((4, 3))) == 0.0

    @pytest.mark.slow
    @pytest.mark.parametrize("n", [40, 100, 400])
    def test_scca_keeps_the_power_iteration_work_on_criterion_3(self, monkeypatch, n):
        samples = [criterion_3_sample(n, seed) for seed in range(3)]
        fits = {}
        for bound in (estimators._step_bound, reference_operator_norm_sq):
            monkeypatch.setattr(estimators, "_step_bound", bound)
            fits[bound] = [scca_fit(data, tau, K) for data in samples
                           for tau in (0.02, 0.1, 0.2) for K in (1, 3)]
        for est, ref in zip(fits[estimators._step_bound], fits[reference_operator_norm_sq]):
            assert est.provenance.info["total_inner_iterations"] == \
                ref.provenance.info["total_inner_iterations"]
            assert est.provenance.converged == ref.provenance.converged
            assert est.provenance.degenerate == ref.provenance.degenerate
            for a, b in ((est.u_dirs, ref.u_dirs), (est.v_dirs, ref.v_dirs)):
                np.testing.assert_array_equal(a != 0.0, b != 0.0)
                np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-6 * np.max(np.abs(b)))


class TestGcca:
    def test_vanishing_penalty_matches_sample_cca(self, rng):
        cov, _ = canonical_pair_covariance(5, 4, [0.8], 2, seed=41)
        data = mvn_sample(cov, 400, seed=42)
        data, _ = center_and_covariance(data)
        est = gcca_fit(data, 1e-5, 1)
        classic = sample_cca(data, 1)
        assert variate_angle(data, est, classic) <= 1e-3

    def test_support_exclusion_from_sparse_precision(self, rng):
        # a block of x-variables with no cross-view precision entries can
        # never enter the canonical directions
        p, q = 6, 4
        d = p + q
        excluded = [1, 4]
        mask = np.ones((d, d), dtype=bool)
        for a in excluded:
            mask[a, p:] = mask[p:, a] = False
        raw = rng.standard_normal((d, d)) * 0.3
        raw = 0.5 * (raw + raw.T)
        raw[~mask] = 0.0
        omega = raw + np.diag(1.1 * np.sum(np.abs(raw), axis=1) + 0.5)
        for a in excluded:
            assert np.all(omega[a, p:] == 0)
        sigma = np.linalg.inv(omega)
        cov = CovarianceModel(sxx=sigma[:p, :p], sxy=sigma[:p, p:], syy=sigma[p:, p:])
        est = cca_from_covariance(cov, min(p, q))
        for k in range(est.k):
            if est.rho[k] > 1e-6:
                assert np.max(np.abs(est.u_dirs[excluded, k])) <= 1e-8

    def test_heavy_penalty_flags_degenerate(self, rng):
        cov, _ = canonical_pair_covariance(4, 3, [0.7], 1, seed=43)
        data = mvn_sample(cov, 100, seed=44)
        data, c = center_and_covariance(data)
        lam = float(np.max(np.abs(c.joint()))) * 1.1
        est = gcca_fit(data, lam, 1)
        assert est.provenance.degenerate
        np.testing.assert_allclose(est.rho, 0.0, atol=1e-10)


class TestCommonContract:
    @pytest.mark.parametrize(
        "kind,penalty", [("rcca", 0.3), ("spls", 1.5), ("scca", 0.02), ("gcca", 0.05)]
    )
    def test_unit_variance_variates(self, toy_data, kind, penalty):
        est = fit_estimator(EstimatorSpec(kind=kind, penalty=penalty, K=2), toy_data)
        if est.provenance.degenerate:
            pytest.skip("degenerate estimate")
        for k in range(est.k):
            var = np.sum((toy_data.x @ est.u_dirs[:, k]) ** 2) / toy_data.n
            assert abs(var - 1.0) <= 1e-6
            var = np.sum((toy_data.y @ est.v_dirs[:, k]) ** 2) / toy_data.n
            assert abs(var - 1.0) <= 1e-6

    @pytest.mark.parametrize(
        "kind,penalty", [("rcca", 0.3), ("spls", 1.5), ("scca", 0.02), ("gcca", 0.05)]
    )
    def test_one_exit(self, toy_data, kind, penalty):
        est = fit_estimator(EstimatorSpec(kind=kind, penalty=penalty, K=2), toy_data)
        assert est.provenance.algorithm == kind
        assert est.provenance.penalty == penalty
        zu, zv = toy_data.x @ est.u_dirs, toy_data.y @ est.v_dirs
        if kind in ("spls", "scca"):
            np.testing.assert_allclose(est.rho, signed_corrs(zu, zv), rtol=1e-12, atol=1e-14)
        zero = ~est.u_dirs.any(axis=0) | ~est.v_dirs.any(axis=0)
        assert est.provenance.degenerate >= zero.any()

    def test_zero_column_flags_degenerate(self, toy_data):
        est = estimators._estimate("spls", 2.0, toy_data, np.eye(6, 2), np.zeros((5, 2)),
                                   converged=False)
        assert est.provenance.degenerate and not est.provenance.converged
        np.testing.assert_array_equal(est.v_dirs, 0.0)
        np.testing.assert_allclose(np.mean((toy_data.x @ est.u_dirs) ** 2, axis=0), 1.0)

    def test_scca_options_are_pinned(self):
        # the certificate's check interval and the step fraction are
        # constants: a new scca knob is a new row here
        assert estimators.fit_options("scca") == {
            "n_steps_admm": 5, "tol": 1e-6, "max_outer": 2000, "recycle_duals": True}

    def test_fit_options_read_through_a_wrapper(self, monkeypatch):
        assert estimators.fit_options("rcca") == {}
        assert estimators.fit_options("gcca") == {"glasso_max_iter": 5000}
        before = estimators.fit_options("scca")
        assert before["recycle_duals"] is True and before["max_outer"] == 2000

        def traced(*args, **kwargs):
            return scca_fit(*args, **kwargs)
        traced.__wrapped__ = scca_fit
        monkeypatch.setattr(estimators, "scca_fit", traced)
        assert estimators.fit_options("scca") == before

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            EstimatorSpec(kind="rcca", penalty=2.0, K=1)
        with pytest.raises(ValueError):
            EstimatorSpec(kind="gcca", penalty=0.0, K=1)
        with pytest.raises(ValueError):
            EstimatorSpec(kind="nope", penalty=0.5, K=1)

    @pytest.mark.parametrize("kind, penalty, message", [
        ("rcca", 1.5, r"rcca penalty 1.5 outside \[0.0, 1.0\]"),
        ("spls", 0.5, r"spls penalty 0.5 outside \[1.0, inf\]"),
        ("spls", float("nan"), r"spls penalty nan outside"),
        ("scca", -0.1, r"scca penalty -0.1 outside \[0.0, inf\]"),
        ("gcca", 0.0, r"gcca penalty 0.0 outside \(0.0, inf\]"),
    ])
    def test_fits_and_specs_share_one_penalty_domain(self, toy_data, kind, penalty, message):
        fit = {"rcca": rcca_fit, "spls": spls_fit, "scca": scca_fit, "gcca": gcca_fit}[kind]
        with pytest.raises(ValueError, match=message):
            fit(toy_data, penalty, 1)
        with pytest.raises(ValueError, match=message):
            EstimatorSpec(kind=kind, penalty=penalty, K=1)
        assert not estimators.penalty_in_domain(kind, penalty)

    # each used to run: scca and spls ended with converged false, gcca in a
    # glasso failure
    @pytest.mark.parametrize("kind, penalty, name, value, message", [
        ("scca", 0.1, "max_outer", 0, "an int of at least 1, got 0"),
        ("scca", 0.1, "max_outer", -3, "an int of at least 1, got -3"),
        ("scca", 0.1, "n_steps_admm", 0, "an int of at least 1, got 0"),
        ("scca", 0.1, "tol", -1.0, "a number above 0, got -1.0"),
        ("scca", 0.1, "tol", float("nan"), "a number above 0, got nan"),
        ("spls", 2.0, "max_sweeps", 0, "an int of at least 1, got 0"),
        ("spls", 2.0, "tol", 0.0, "a number above 0, got 0.0"),
        ("gcca", 0.1, "glasso_max_iter", 0, "an int of at least 1, got 0"),
    ])
    def test_options_outside_their_range_rejected(self, toy_data, kind, penalty, name, value,
                                                  message):
        with pytest.raises(ValueError, match=f"^{name}: expected {message}$"):
            estimators.fit_function(kind)(toy_data, penalty, 1, **{name: value})
        with pytest.raises(ValueError, match=f"^{name}: "):
            estimators.require_options(kind, {name: value})

    def test_smallest_options_in_range_run(self, toy_data):
        est = scca_fit(toy_data, 0.1, 1, n_steps_admm=1, max_outer=1, tol=1e-300)
        assert est.provenance.info["outer_iterations"] == [1]
        assert not est.provenance.converged
        estimators.require_options("scca", {"recycle_duals": False})

    @pytest.mark.parametrize("K", [0, 6])
    @pytest.mark.parametrize(
        "kind,penalty", [("rcca", 0.3), ("spls", 1.5), ("scca", 0.02), ("gcca", 0.05)]
    )
    def test_k_outside_range_rejected(self, toy_data, kind, penalty, K):
        # toy_data has p = 6, q = 5; scca used to fail with an IndexError
        with pytest.raises(ValueError, match=r"outside \[1, min\(p, q\)=5\]"):
            estimators.fit_function(kind)(toy_data, penalty, K)


class TestSweep:
    def test_cell_count(self, toy_data):
        folds = make_folds(toy_data.n, 2, seed=0)
        traj = sweep_trajectory("rcca", toy_data, [0.5], folds, 1)
        assert len(traj.estimates) == 3  # 2 folds + full sample
        assert traj.full_estimate(0) is not None

    def test_rerun_bit_identical(self, toy_data):
        folds = make_folds(toy_data.n, 3, seed=5)
        a = sweep_trajectory("scca", toy_data, [0.01, 0.05], folds, 1, seed=9)
        b = sweep_trajectory("scca", toy_data, [0.01, 0.05], folds, 1, seed=9)
        for key in a.estimates:
            np.testing.assert_array_equal(a.estimates[key].rho, b.estimates[key].rho)
            np.testing.assert_array_equal(a.estimates[key].u_dirs, b.estimates[key].u_dirs)

    def test_gcca_precision_support_shrinks_along_grid(self, rng):
        cov, _ = canonical_pair_covariance(6, 5, [0.8], 2, seed=51)
        data = mvn_sample(cov, 200, seed=52)
        data, _ = center_and_covariance(data)
        folds = make_folds(data.n, 2, seed=0)
        traj = sweep_trajectory("gcca", data, [1e-3, 1e-2, 1e-1], folds, 1)
        nnz = []
        for i in range(3):
            est = traj.full_estimate(i)
            # support size is not exposed directly; refit the precision
            from regcca.glasso import glasso_fit
            _, c = center_and_covariance(data)
            prec = glasso_fit(c.joint(), traj.grid[i])
            off = prec.omega - np.diag(np.diagonal(prec.omega))
            nnz.append(int(np.sum(off != 0)))
        assert nnz[0] >= nnz[1] >= nnz[2]

    def test_cell_failures_recorded_not_raised(self, toy_data):
        folds = make_folds(toy_data.n, 2, seed=0)
        traj = sweep_trajectory(
            "gcca", toy_data, [0.05], folds, 1, options={"glasso_max_iter": 1}
        )
        assert len(traj.failures) == 3
        assert len(traj.estimates) == 0

    def test_pool_matches_serial_with_failures(self, toy_data):
        # gcca fails at one iteration; 4 penalties x 3 cells give each of
        # the two workers several chunks, failures among them
        folds = make_folds(toy_data.n, 2, seed=0)
        grid = [0.02, 0.05, 0.1, 0.2]
        options = {"glasso_max_iter": 1}
        serial = sweep_trajectory("gcca", toy_data, grid, folds, 1, options=options, seed=3)
        pooled = sweep_trajectory("gcca", toy_data, grid, folds, 1, options=options, seed=3,
                                  jobs=2)
        assert pooled.failures == serial.failures and len(serial.failures) == 12
        grid = [1.2, 1.5, 2.0, 2.5]
        serial = sweep_trajectory("spls", toy_data, grid, folds, 2, seed=3)
        pooled = sweep_trajectory("spls", toy_data, grid, folds, 2, seed=3, jobs=2)
        assert list(pooled.estimates) == list(serial.estimates)
        for key, est in serial.estimates.items():
            other = pooled.estimates[key]
            np.testing.assert_array_equal(other.u_dirs, est.u_dirs)
            np.testing.assert_array_equal(other.v_dirs, est.v_dirs)
            np.testing.assert_array_equal(other.rho, est.rho)
            assert other.provenance == est.provenance

    @staticmethod
    def serial_pools(monkeypatch):
        """The pools a sweep constructs, each a serial stand-in for
        ``ProcessPoolExecutor`` that records its worker and chunk counts;
        no process is started."""
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                self.max_workers = max_workers
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells, chunksize):
                cells = list(cells)
                self.chunks = -(-len(cells) // chunksize)
                return map(fn, cells)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        return pools

    @staticmethod
    def assert_same_estimates(traj, ref):
        assert list(traj.estimates) == list(ref.estimates)
        for key, est in ref.estimates.items():
            np.testing.assert_array_equal(traj.estimates[key].u_dirs, est.u_dirs)
            np.testing.assert_array_equal(traj.estimates[key].v_dirs, est.v_dirs)
            np.testing.assert_array_equal(traj.estimates[key].rho, est.rho)
            assert traj.estimates[key].provenance == est.provenance

    @pytest.mark.parametrize("n_grid, V, jobs, workers", [
        (2, 2, 2, 2), (2, 2, 16, 6), (1, 2, 4, 3), (37, 5, 2, 2)])
    def test_pool_starts_no_more_workers_than_chunks(self, toy_data, monkeypatch, n_grid, V,
                                                     jobs, workers):
        # the pool forks every worker at its first submit, so the worker
        # count is read from a serial stand-in
        pools = self.serial_pools(monkeypatch)
        folds = make_folds(toy_data.n, V, seed=0)
        grid = list(np.linspace(1.1, 2.0, n_grid))
        pooled = sweep_trajectory("spls", toy_data, grid, folds, 1, seed=3, jobs=jobs)
        [pool] = pools
        assert pool.max_workers == workers <= pool.chunks
        self.assert_same_estimates(pooled, sweep_trajectory("spls", toy_data, grid, folds, 1,
                                                            seed=3))

    def test_rcca_path_runs_in_process(self, toy_data, monkeypatch):
        pools = self.serial_pools(monkeypatch)
        folds = make_folds(toy_data.n, 3, seed=0)
        grid = [0.0, 1e-3, 0.1, 0.5, 1.0]
        pooled = sweep_trajectory("rcca", toy_data, grid, folds, 3, seed=3, jobs=4)
        assert pools == []
        self.assert_same_estimates(pooled, sweep_trajectory("rcca", toy_data, grid, folds, 3,
                                                            seed=3))

    def test_an_option_rcca_does_not_take_raises_as_in_a_cell(self, toy_data):
        folds = make_folds(toy_data.n, 2, seed=0)
        with pytest.raises(TypeError, match=r"rcca_fit\(\) got an unexpected keyword argument"):
            sweep_trajectory("rcca", toy_data, [0.1, 0.2], folds, 1, options={"bogus": 1})

    @pytest.mark.parametrize("grid, K, failing", [
        # the two cells of every fold at 1.5 fail, the others are fitted
        ([0.2, 1.5], 2, {1: "ValueError: rcca penalty 1.5 outside [0.0, 1.0]"}),
        ([0.2, 0.6], 20, {0: "ValueError: K=20 outside [1, min(p, q)=10]",
                          1: "ValueError: K=20 outside [1, min(p, q)=10]"}),
    ])
    def test_rcca_failures_are_those_of_cells_fitted_alone(self, grid, K, failing):
        rng = np.random.default_rng(7)
        data, _ = center_and_covariance(PairedDataset(x=rng.standard_normal((60, 12)),
                                                      y=rng.standard_normal((60, 10))))
        folds = make_folds(data.n, 3, seed=0)
        traj = sweep_trajectory("rcca", data, grid, folds, K, seed=5)
        cells = [(i, fold) for i in range(len(grid)) for fold in [0, 1, 2, "full"]]
        assert traj.failures == {(i, fold): failing[i] for i, fold in cells if i in failing}
        assert list(traj.estimates) == [(i, fold) for i, fold in cells if i not in failing]
        for (i, fold), est in traj.estimates.items():
            train = data if fold == "full" else split_fold(data, folds, fold)[0]
            alone = rcca_fit(train, grid[i], K)
            np.testing.assert_array_equal(est.u_dirs, alone.u_dirs)
            np.testing.assert_array_equal(est.rho, alone.rho)
            assert est.provenance.seed == estimators._cell_seed(5, "rcca", i, fold)

    def test_pool_workers_run_one_blas_thread(self, toy_data, monkeypatch):
        calls = estimators._openblas_thread_calls()
        if calls is None:
            pytest.skip("NumPy has no bundled OpenBLAS with thread-count calls")
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the pool does not fork its workers")
        get, set_ = calls

        # each cell fails with the BLAS thread count of the worker it ran in
        def report_threads(*args, **kwargs):
            raise ValueError(f"BLAS threads {get()}")

        monkeypatch.setattr(estimators, "spls_fit", report_threads)
        folds = make_folds(toy_data.n, 2, seed=0)
        old = get()
        set_(2)  # a count other than one, whatever the host's default
        try:
            traj = sweep_trajectory("spls", toy_data, [1.1, 1.5], folds, 1, jobs=2)
            after = get()
        finally:
            set_(old)
        assert set(traj.failures.values()) == {"ValueError: BLAS threads 1"}
        assert len(traj.failures) == 6 and after == 2

    def test_non_monotone_grid_rejected(self, toy_data):
        folds = make_folds(toy_data.n, 2, seed=0)
        with pytest.raises(ValueError):
            sweep_trajectory("rcca", toy_data, [0.5, 0.1, 0.7], folds, 1)


class TestPersistence:
    def test_round_trip(self, toy_data, tmp_path):
        est = rcca_fit(toy_data, 0.4, 2)
        est.provenance.fold = 1
        est.provenance.seed = 77
        save_estimate(est, tmp_path, "demo", x_names=toy_data.x_names, y_names=toy_data.y_names)
        back = load_estimate(tmp_path, "demo")
        np.testing.assert_array_equal(back.u_dirs, est.u_dirs)
        np.testing.assert_array_equal(back.v_dirs, est.v_dirs)
        np.testing.assert_array_equal(back.rho, est.rho)
        assert back.provenance.algorithm == "rcca"
        assert back.provenance.fold == 1
        assert back.provenance.seed == 77
