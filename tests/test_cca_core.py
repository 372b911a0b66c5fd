import numpy as np
import pytest

from conftest import random_joint_covariance
from regcca.cca_core import (
    cca_from_covariance,
    empirical_canonical_correlations,
    sample_cca,
)
from regcca.datamodel import CovarianceModel, PairedDataset, center_and_covariance
from regcca.linalg import sym_matrix_power, thin_svd
from regcca.synth import canonical_pair_covariance, mvn_sample


def reference_cca_from_covariance(cov, K):
    """Plug-in CCA through the reconstructed inverse roots of
    ``sym_matrix_power``, with thin_svd's sign rule: the solve that the
    eigenbasis whitening replaces.  Returns (u, v, rho)."""
    rx = sym_matrix_power(cov.sxx, -0.5)
    ry = sym_matrix_power(cov.syy, -0.5)
    left, rho, right = thin_svd(rx @ cov.sxy @ ry)
    return rx @ left[:, :K], ry @ right[:, :K], rho[:K].copy()


class TestCcaFromCovariance:
    def test_matches_the_reconstructed_root_reference(self, rng):
        for p, q, K in ((5, 4, 4), (8, 3, 2), (3, 6, 3)):
            cov = random_joint_covariance(rng, p, q)
            est = cca_from_covariance(cov, K)
            u, v, rho = reference_cca_from_covariance(cov, K)
            np.testing.assert_allclose(est.rho, rho, rtol=0, atol=1e-14)
            for got, ref in ((est.u_dirs, u), (est.v_dirs, v)):
                scale = np.max(np.abs(ref), axis=0)
                assert np.all(np.abs(got - ref) <= 1e-12 * scale)

    def test_already_canonical_system(self):
        cov = CovarianceModel(sxx=np.eye(2), sxy=np.diag([0.9, 0.5]), syy=np.eye(2))
        est = cca_from_covariance(cov, 2)
        np.testing.assert_allclose(est.rho, [0.9, 0.5], atol=1e-12)
        np.testing.assert_allclose(np.abs(est.u_dirs), np.eye(2), atol=1e-12)
        np.testing.assert_allclose(np.abs(est.v_dirs), np.eye(2), atol=1e-12)

    def test_independent_views_zero_correlations(self, rng):
        from conftest import random_pd

        cov = CovarianceModel(
            sxx=random_pd(rng, 3), sxy=np.zeros((3, 4)), syy=random_pd(rng, 4)
        )
        est = cca_from_covariance(cov, 3)
        np.testing.assert_allclose(est.rho, 0.0, atol=1e-14)

    def test_recovers_planted_pairs(self):
        cov, truth = canonical_pair_covariance(12, 9, [0.9, 0.7], 3, seed=11)
        est = cca_from_covariance(cov, 2)
        np.testing.assert_allclose(est.rho, [0.9, 0.7], atol=1e-8)
        for k in range(2):
            cos = abs(truth.u_dirs[:, k] @ est.u_dirs[:, k]) / (
                np.linalg.norm(truth.u_dirs[:, k]) * np.linalg.norm(est.u_dirs[:, k])
            )
            assert cos >= 1 - 1e-8

    def test_cross_block_reconstruction(self, rng):
        # the decomposition regenerates sxy as sxx @ U diag(rho) V' @ syy
        cov = random_joint_covariance(rng, 5, 4)
        est = cca_from_covariance(cov, 4)
        rebuilt = cov.sxx @ (est.u_dirs * est.rho) @ est.v_dirs.T @ cov.syy
        rel = np.linalg.norm(rebuilt - cov.sxy) / np.linalg.norm(cov.sxy)
        assert rel <= 1e-8

    def test_k_too_large_rejected(self, rng):
        cov = random_joint_covariance(rng, 3, 2)
        with pytest.raises(ValueError):
            cca_from_covariance(cov, 3)

    def test_metric_orthonormal_directions(self, rng):
        cov = random_joint_covariance(rng, 5, 4)
        est = cca_from_covariance(cov, 3)
        np.testing.assert_allclose(est.u_dirs.T @ cov.sxx @ est.u_dirs, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(est.v_dirs.T @ cov.syy @ est.v_dirs, np.eye(3), atol=1e-9)

    def test_rho_sorted_in_unit_interval(self, rng):
        cov = random_joint_covariance(rng, 6, 5)
        est = cca_from_covariance(cov, 5)
        assert np.all(np.diff(est.rho) <= 1e-12)
        assert np.all(est.rho >= -1e-12) and np.all(est.rho <= 1 + 1e-8)

    def test_invariance_under_reparameterisation(self, rng):
        # rho is unchanged when both views are mapped through invertible
        # matrices applied consistently to all blocks
        cov = random_joint_covariance(rng, 4, 3)
        a = rng.standard_normal((4, 4)) + 2 * np.eye(4)
        b = rng.standard_normal((3, 3)) + 2 * np.eye(3)
        mapped = CovarianceModel(
            sxx=a @ cov.sxx @ a.T, sxy=a @ cov.sxy @ b.T, syy=b @ cov.syy @ b.T
        )
        r1 = cca_from_covariance(cov, 3).rho
        r2 = cca_from_covariance(mapped, 3).rho
        np.testing.assert_allclose(r1, r2, atol=1e-9)

    def test_interlacing_under_projection(self, rng):
        # correlations of projected views never exceed those of the full views
        for _ in range(20):
            cov = random_joint_covariance(rng, 6, 5)
            full = cca_from_covariance(cov, 3).rho
            u = rng.standard_normal((6, 3))
            v = rng.standard_normal((5, 3))
            proj = CovarianceModel(
                sxx=u.T @ cov.sxx @ u, sxy=u.T @ cov.sxy @ v, syy=v.T @ cov.syy @ v
            )
            sub = cca_from_covariance(proj, 3).rho
            assert np.all(sub <= full + 1e-9)


class TestSampleCca:
    def test_recovers_population_at_moderate_n(self):
        cov, truth = canonical_pair_covariance(3, 3, [0.8], 1, within_view="identity", seed=3)
        data = mvn_sample(cov, 200, seed=4)
        data, _ = center_and_covariance(data)
        est = sample_cca(data, 1)
        assert abs(est.rho[0] - 0.8) <= 0.1
        assert not est.provenance.degenerate

    def test_degenerate_when_dimension_exceeds_samples(self, rng):
        n, p, q = 8, 3, 12
        data = PairedDataset(x=rng.standard_normal((n, p)), y=rng.standard_normal((n, q)))
        data, _ = center_and_covariance(data)
        est = sample_cca(data, 2)
        # a full-row-rank wide view reproduces any variate exactly
        np.testing.assert_allclose(est.rho[:2], 1.0, atol=1e-6)
        assert est.provenance.degenerate

    def test_duplicated_view_all_ones(self, rng):
        x = rng.standard_normal((40, 3))
        data, _ = center_and_covariance(PairedDataset(x=x, y=x.copy()))
        est = sample_cca(data, 3)
        np.testing.assert_allclose(est.rho, 1.0, atol=1e-8)


def _brute_force_canonical_correlations_2d(z, w, n_grid=2000):
    """Angle-grid oracle for canonical correlations of two n x 2 blocks.

    The first pair maximises the empirical correlation over direction
    angles; the second uses the (unique up to scale) within-block
    covariance-orthogonal complements of the argmax directions.
    """
    angles = np.linspace(0.0, np.pi, n_grid, endpoint=False)
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    zu = z @ dirs.T
    wv = w @ dirs.T
    zn = zu / np.linalg.norm(zu, axis=0)
    wn = wv / np.linalg.norm(wv, axis=0)
    corr = np.abs(zn.T @ wn)
    i, j = np.unravel_index(np.argmax(corr), corr.shape)
    rho1 = corr[i, j]
    czz = z.T @ z
    cww = w.T @ w

    def complement(c, d):
        v = np.array([-(c @ d)[1], (c @ d)[0]])
        return v

    u2 = complement(czz, dirs[i])
    v2 = complement(cww, dirs[j])
    z2 = z @ u2
    w2 = w @ v2
    rho2 = abs(z2 @ w2) / (np.linalg.norm(z2) * np.linalg.norm(w2))
    return np.array([rho1, rho2])


class TestEmpiricalCanonicalCorrelations:
    def test_identical_blocks(self, rng):
        z = rng.standard_normal((30, 3))
        z -= z.mean(axis=0)
        np.testing.assert_allclose(empirical_canonical_correlations(z, z), 1.0, atol=1e-8)

    def test_orthogonal_construction(self):
        n = 12
        basis = np.linalg.qr(np.random.default_rng(0).standard_normal((n, 4)))[0]
        z = basis[:, :2]
        w = basis[:, 2:]
        np.testing.assert_allclose(empirical_canonical_correlations(z, w), 0.0, atol=1e-10)

    def test_matches_angle_grid_brute_force(self, rng):
        z = rng.standard_normal((100, 2))
        w = 0.5 * z + rng.standard_normal((100, 2))
        z -= z.mean(axis=0)
        w -= w.mean(axis=0)
        fast = empirical_canonical_correlations(z, w)
        slow = _brute_force_canonical_correlations_2d(z, w)
        np.testing.assert_allclose(fast, np.sort(slow)[::-1], atol=1e-3)

    def test_zero_variance_column_named(self, rng):
        z = rng.standard_normal((20, 2))
        z[:, 1] = 0.0
        w = rng.standard_normal((20, 2))
        with pytest.raises(ValueError, match="column 1"):
            empirical_canonical_correlations(z, w)


def plugin_canonical_correlations(z, w):
    """Plug-in CCA on the joint covariance of one pair of blocks, through
    the inverse square roots of ``sym_matrix_power``."""
    n = z.shape[0]
    cov = CovarianceModel(sxx=z.T @ z / n, sxy=z.T @ w / n, syy=w.T @ w / n)
    return reference_cca_from_covariance(cov, min(z.shape[1], w.shape[1]))[2]


class TestStackedCanonicalCorrelations:
    def _stack(self, rng, pairs=4, n=50, kz=3, kw=2):
        z = rng.standard_normal((pairs, n, kz))
        w = 0.7 * z[..., :kw] + rng.standard_normal((pairs, n, kw))
        return z, w

    def test_stack_matches_pair_by_pair(self, rng):
        z, w = self._stack(rng)
        stacked = empirical_canonical_correlations(z, w)
        assert stacked.shape == (4, 2)
        for b in range(4):
            np.testing.assert_allclose(stacked[b], empirical_canonical_correlations(z[b], w[b]),
                                       rtol=0, atol=1e-14)
            np.testing.assert_allclose(stacked[b], plugin_canonical_correlations(z[b], w[b]),
                                       rtol=0, atol=1e-12)

    def test_zero_rows_change_nothing(self, rng):
        z, w = self._stack(rng)
        pad = np.zeros((4, 7, 3))
        padded = empirical_canonical_correlations(np.concatenate([z, pad], axis=1),
                                                  np.concatenate([w, pad[..., :2]], axis=1))
        np.testing.assert_allclose(padded, empirical_canonical_correlations(z, w),
                                   rtol=0, atol=1e-14)

    def test_rank_deficient_block_keeps_the_principal_angles(self, rng):
        # the floored null direction of the first block stays in its own
        # row of the whitened target, so the other correlations are the
        # principal-angle cosines to rounding; the plug-in's reconstructed
        # inverse root spreads that direction's noise over all of them
        z = rng.standard_normal((40, 3))
        z[:, 2] = z[:, 0] - 0.5 * z[:, 1]
        w = 0.5 * z[:, :2] + rng.standard_normal((40, 2))
        cosines = np.linalg.svd(np.linalg.qr(z[:, :2])[0].T @ np.linalg.qr(w)[0],
                                compute_uv=False)
        rho = empirical_canonical_correlations(z, w)
        np.testing.assert_allclose(rho, cosines, rtol=0, atol=1e-14)
        np.testing.assert_allclose(plugin_canonical_correlations(z, w), cosines, atol=1e-8)

    def test_rank_deficient_block_exact_in_every_cca_path(self, rng):
        # cca_from_covariance and sample_cca whiten in the eigenbasis too:
        # the reconstructed inverse root put them about 1e-12 off
        z = rng.standard_normal((40, 3))
        z[:, 2] = z[:, 0] - 0.5 * z[:, 1]
        w = 0.5 * z[:, :2] + rng.standard_normal((40, 2))
        z, w = z - z.mean(axis=0), w - w.mean(axis=0)
        cosines = np.linalg.svd(np.linalg.qr(z[:, :2])[0].T @ np.linalg.qr(w)[0],
                                compute_uv=False)
        cov = CovarianceModel(sxx=z.T @ z / 40, sxy=z.T @ w / 40, syy=w.T @ w / 40)
        np.testing.assert_allclose(cca_from_covariance(cov, 2).rho, cosines, rtol=0, atol=1e-14)
        np.testing.assert_allclose(sample_cca(PairedDataset(x=z, y=w), 2).rho, cosines,
                                   rtol=0, atol=1e-14)

    def test_first_failing_pair_raises(self, rng):
        z, w = self._stack(rng)
        z[2, :, 1] = np.nan
        w[3, :, 0] = 0.0
        z[1, :, 2] = 0.0
        with pytest.raises(ValueError, match="zero-variance column 2 in first block"):
            empirical_canonical_correlations(z, w)
        z[1, :, 2] = 1.0
        with pytest.raises(ValueError, match="non-finite"):
            empirical_canonical_correlations(z, w)
        z[2, :, 1] = 1.0
        with pytest.raises(ValueError, match="zero-variance column 0 in second block"):
            empirical_canonical_correlations(z, w)
