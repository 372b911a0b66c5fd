import numpy as np
import pytest

from regcca.cca_core import cca_from_covariance
from regcca.datamodel import center_and_covariance
from regcca.linalg import sym_matrix_power
from regcca.synth import (
    banded_within_view_precision,
    bootstrap_covariance,
    canonical_pair_covariance,
    mvn_sample,
    powerlaw_precision,
)
from test_metrics import _ref_subspace_sin2


class TestCanonicalPairCovariance:
    def test_single_pair_identity_within_view(self):
        cov, truth = canonical_pair_covariance(10, 10, [0.9], 5,
                                               within_view="identity", seed=0)
        est = cca_from_covariance(cov, 1)
        assert abs(est.rho[0] - 0.9) <= 1e-9
        cos = abs(truth.u_dirs[:, 0] @ est.u_dirs[:, 0])
        assert cos >= 1 - 1e-9

    def test_two_pairs_recovered(self):
        cov, truth = canonical_pair_covariance(12, 10, [0.9, 0.7], 3, seed=1)
        est = cca_from_covariance(cov, 2)
        np.testing.assert_allclose(est.rho, [0.9, 0.7], atol=1e-8)

    def test_joint_matrix_positive_definite(self):
        cov, _ = canonical_pair_covariance(15, 12, [0.9, 0.7, 0.5], 4, seed=2)
        assert np.linalg.eigvalsh(cov.joint())[0] > 0

    def test_banded_precision_definition(self):
        w = banded_within_view_precision(5)
        assert w[0, 0] == 1.0 and w[0, 1] == 0.5 and w[0, 2] == 0.4 and w[0, 3] == 0.0
        np.testing.assert_array_equal(w, w.T)

    def test_directions_supported_on_disjoint_leading_blocks(self):
        _, truth = canonical_pair_covariance(12, 12, [0.8, 0.6], 3,
                                             within_view="identity", seed=3)
        # identity metric keeps orthonormalisation inside the raw supports
        assert np.all(truth.u_dirs[6:, :] == 0)
        assert np.all(truth.u_dirs[3:6, 0] == 0)

    def test_infeasible_support_rejected(self):
        with pytest.raises(ValueError):
            canonical_pair_covariance(6, 6, [0.9, 0.7], 4, seed=0)

    def test_bad_rhos_rejected(self):
        with pytest.raises(ValueError):
            canonical_pair_covariance(6, 6, [0.9, 1.1], 2, seed=0)
        with pytest.raises(ValueError):
            canonical_pair_covariance(6, 6, [0.5, 0.9], 2, seed=0)

    @pytest.mark.parametrize("config", [
        dict(p=10, q=8, rhos=[0.9], support_size=2, within_view="suo_sp"),
        dict(p=20, q=20, rhos=[0.8, 0.6], support_size=5, within_view="identity"),
        dict(p=30, q=25, rhos=[0.9, 0.7, 0.5], support_size=4, within_view="suo_sp"),
    ])
    def test_round_trip_variate_angles(self, config):
        cov, truth = canonical_pair_covariance(seed=17, **config)
        k = len(config["rhos"])
        est = cca_from_covariance(cov, k)
        half = sym_matrix_power(cov.sxx, 0.5)
        for j in range(k):
            s2 = _ref_subspace_sin2(half @ truth.u_dirs[:, [j]], half @ est.u_dirs[:, [j]])
            assert s2 <= 1e-8


class TestPowerlawPrecision:
    def test_positive_definite_across_seeds(self):
        for seed in range(50):
            omega = powerlaw_precision(60, 3.0, seed=seed)
            assert np.linalg.eigvalsh(omega)[0] > 0

    def test_zero_pattern_symmetric(self):
        omega = powerlaw_precision(40, 3.0, seed=4)
        nz = omega != 0
        np.testing.assert_array_equal(nz, nz.T)

    def test_graph_connected_enough(self):
        omega = powerlaw_precision(50, 3.0, seed=5)
        off = (omega != 0) & ~np.eye(50, dtype=bool)
        assert np.all(off.sum(axis=1) >= 1)

    def test_degree_tail_slope(self):
        # complementary-CDF log-log slope should sit near -(gamma - 1)
        gamma = 3.0
        slopes = []
        for seed in range(20):
            omega = powerlaw_precision(300, gamma, seed=seed)
            adj = (omega != 0) & ~np.eye(300, dtype=bool)
            deg = adj.sum(axis=1)
            uniq = np.unique(deg)
            ccdf = np.array([(deg >= u).mean() for u in uniq])
            keep = (uniq >= 2) & (ccdf > 0.005)
            slopes.append(np.polyfit(np.log(uniq[keep]), np.log(ccdf[keep]), 1)[0])
        assert abs(np.mean(slopes) - (-(gamma - 1))) <= 0.8

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            powerlaw_precision(3, 3.0)


class TestBootstrapCovariance:
    @pytest.fixture
    def seed_data(self):
        cov, _ = canonical_pair_covariance(8, 6, [0.8, 0.5], 2, seed=7)
        data = mvn_sample(cov, 150, seed=8)
        data, _ = center_and_covariance(data)
        return data

    def test_scca_ridge_within_view_blocks(self, seed_data):
        _, cov = center_and_covariance(seed_data)
        out = bootstrap_covariance(seed_data, "scca_ridge", lam=0.02, alpha=0.1, K=2)
        np.testing.assert_array_equal(out.sxx, cov.sxx + 0.1 * np.eye(seed_data.p))
        np.testing.assert_array_equal(out.syy, cov.syy + 0.1 * np.eye(seed_data.q))

    def test_glasso_mode_positive_definite(self, seed_data):
        out = bootstrap_covariance(seed_data, "glasso", lam=0.05)
        assert np.linalg.eigvalsh(out.joint())[0] > 0

    def test_scca_ridge_round_trip_recovers_recorded_correlations(self, seed_data):
        out, details = bootstrap_covariance(
            seed_data, "scca_ridge", lam=0.02, alpha=0.1, K=2, return_details=True
        )
        est = cca_from_covariance(out, 2)
        np.testing.assert_allclose(est.rho, details["d_hat"], atol=1e-6)

    def test_unknown_mode_rejected(self, seed_data):
        with pytest.raises(ValueError):
            bootstrap_covariance(seed_data, "nope", lam=0.1)


class TestMvnSample:
    def test_identity_covariance_recovered(self):
        from regcca.datamodel import CovarianceModel

        cov = CovarianceModel(sxx=np.eye(3), sxy=np.zeros((3, 3)), syy=np.eye(3))
        n = 10_000
        data = mvn_sample(cov, n, seed=9)
        _, sample_cov = center_and_covariance(data)
        err = np.max(np.abs(sample_cov.joint() - np.eye(6)))
        assert err <= 3.0 / np.sqrt(n)

    def test_deterministic_per_seed(self):
        cov, _ = canonical_pair_covariance(4, 3, [0.7], 1, seed=10)
        a = mvn_sample(cov, 20, seed=11)
        b = mvn_sample(cov, 20, seed=11)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_single_row_centres_to_zero_covariance(self):
        cov, _ = canonical_pair_covariance(4, 3, [0.7], 1, seed=12)
        data = mvn_sample(cov, 1, seed=13)
        assert data.x.shape == (1, 4)
        xc = data.x - data.x.mean(axis=0)
        np.testing.assert_array_equal(xc.T @ xc, 0.0)

    def test_non_psd_rejected(self):
        from regcca.datamodel import CovarianceModel

        bad = CovarianceModel(sxx=np.eye(2), sxy=np.eye(2) * 2.0, syy=np.eye(2))
        with pytest.raises(ValueError):
            mvn_sample(bad, 5, seed=0)
