import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_orthonormal
from regcca.compare import overlap_matrix, register, trajectory_comparison
from regcca.datamodel import center_and_covariance
from regcca.estimators import rcca_fit
from regcca.linalg import canonical_angles, gram_schmidt_metric, gram_schmidt_reduce, pair_sin2
from regcca.synth import canonical_pair_covariance, mvn_sample
from test_metrics import _ref_subspace_sin2


def residual(z0, z1, m):
    return float(np.linalg.norm(z1 @ m - z0) ** 2)


class TestRegister:
    def test_orthogonal_recovers_exact_rotation(self, rng):
        z0 = random_orthonormal(rng, 20, 3)
        o, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        z1 = z0 @ o
        m = register(z0, z1, "orthogonal")
        np.testing.assert_allclose(m, o.T, atol=1e-10)
        assert residual(z0, z1, m) <= 1e-10

    def test_linear_minimum_is_subspace_distance(self, rng):
        z0 = random_orthonormal(rng, 25, 3)
        z1 = rng.standard_normal((25, 3))
        m = register(z0, z1, "linear")
        q1, _ = np.linalg.qr(z1)
        [sin2], _ = pair_sin2(np.stack([z0, q1]), [0], [1])
        assert abs(residual(z0, z1, m) - sin2) <= 1e-9

    def test_orthogonal_matches_rotation_grid_brute_force(self, rng):
        z0 = rng.standard_normal((15, 2))
        z1 = rng.standard_normal((15, 2))
        m = register(z0, z1, "orthogonal")
        ours = residual(z0, z1, m)
        best = np.inf
        for theta in np.arange(0.0, 2 * np.pi, 0.001):
            c, s = np.cos(theta), np.sin(theta)
            for refl in (1.0, -1.0):
                cand = np.array([[c, -s * refl], [s, c * refl]])
                best = min(best, residual(z0, z1, cand))
        assert ours <= best + 1e-4

    def test_class_nesting_orders_residuals(self, rng):
        for _ in range(20):
            z0 = rng.standard_normal((12, 3))
            z1 = rng.standard_normal((12, 3))
            z0 /= np.linalg.norm(z0, axis=0)
            z1 /= np.linalg.norm(z1, axis=0)
            r = {mode: residual(z0, z1, register(z0, z1, mode))
                 for mode in ("signs", "signed_permutation", "orthogonal", "linear")}
            assert r["linear"] <= r["orthogonal"] + 1e-10
            assert r["orthogonal"] <= r["signed_permutation"] + 1e-10
            assert r["signed_permutation"] <= r["signs"] + 1e-10

    def test_signed_permutation_unscrambles(self, rng):
        z0 = random_orthonormal(rng, 18, 3)
        perm = [2, 0, 1]
        signs = np.array([1.0, -1.0, 1.0])
        z1 = z0[:, perm] * signs
        m = register(z0, z1, "signed_permutation")
        assert residual(z0, z1, m) <= 1e-16

    def test_reference_wider_than_target_rejected(self, rng):
        with pytest.raises(ValueError):
            register(rng.standard_normal((10, 3)), rng.standard_normal((10, 2)), "orthogonal")

    def test_rank_deficient_linear_rejected(self, rng):
        z0 = rng.standard_normal((10, 2))
        z1 = np.tile(rng.standard_normal((10, 1)), (1, 2))
        with pytest.raises(ValueError):
            register(z0, z1, "linear")


class TestOverlapMatrix:
    def test_self_overlap_identity(self, rng):
        z = random_orthonormal(rng, 15, 3)
        ov = overlap_matrix(z, z, squared=True)
        np.testing.assert_allclose(ov.matrix, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(ov.row_sums, 1.0, atol=1e-12)
        assert ov.columns_orthonormal

    def test_orthogonal_subspaces_zero(self, rng):
        q = random_orthonormal(rng, 12, 4)
        ov = overlap_matrix(q[:, :2], q[:, 2:], squared=True)
        np.testing.assert_allclose(ov.matrix, 0.0, atol=1e-14)

    def test_squared_total_is_cos2_similarity(self, rng):
        for _ in range(20):
            z = random_orthonormal(rng, 14, 3)
            w = random_orthonormal(rng, 14, 3)
            ov = overlap_matrix(z, w, squared=True)
            cos2 = np.sum(canonical_angles(z, w) ** 2)
            assert abs(np.sum(ov.matrix) - cos2) <= 1e-9

    def test_transpose_property(self, rng):
        z = rng.standard_normal((10, 3))
        w = rng.standard_normal((10, 3))
        a = overlap_matrix(z, w).matrix
        b = overlap_matrix(w, z).matrix
        np.testing.assert_array_equal(a.T, b)

    def test_subblock_sums_are_subspace_similarities(self, rng):
        z = rng.standard_normal((20, 4))
        w = rng.standard_normal((20, 4))
        zq, _ = gram_schmidt_reduce(z)
        wq, _ = gram_schmidt_reduce(w)
        ov = overlap_matrix(zq, wq, squared=True)
        # Gram-Schmidt output spans successive subspaces, so any contiguous
        # sub-block total matches the corresponding cos^2
        for rows, cols in (((0, 2), (0, 2)), ((0, 3), (1, 4)), ((1, 4), (0, 2))):
            block = ov.matrix[rows[0]:rows[1], cols[0]:cols[1]]
            zi = gram_schmidt_metric(z[:, :4])[:, rows[0]:rows[1]]
            wi = gram_schmidt_metric(w[:, :4])[:, cols[0]:cols[1]]
            cos2 = np.sum(canonical_angles(zi, wi) ** 2)
            assert abs(np.sum(block) - cos2) <= 1e-8

    def test_non_orthonormal_flagged(self, rng):
        z = 3.0 * random_orthonormal(rng, 10, 2)
        ov = overlap_matrix(z, z)
        assert not ov.columns_orthonormal

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            overlap_matrix(rng.standard_normal((10, 2)), rng.standard_normal((9, 2)))


class TestTrajectoryComparison:
    @pytest.fixture
    def setup(self, rng):
        cov, _ = canonical_pair_covariance(6, 5, [0.8, 0.5], 2, seed=81)
        data = mvn_sample(cov, 150, seed=82)
        data, _ = center_and_covariance(data)
        ests = [rcca_fit(data, c, 2) for c in (0.05, 0.3, 0.8)]
        return data, ests

    def test_diagonal_zero_and_symmetric(self, setup):
        data, ests = setup
        mat = trajectory_comparison(ests, data, metric="vt_Uk", k=2)
        np.testing.assert_allclose(np.diag(mat), 0.0, atol=1e-12)
        np.testing.assert_allclose(mat, mat.T, atol=1e-10)

    def test_entries_bounded_by_k(self, setup):
        data, ests = setup
        for metric in ("vt_Uk", "wt_Uk"):
            mat = trajectory_comparison(ests, data, metric=metric, k=2)
            assert np.nanmax(mat) <= 2 + 1e-9

    def test_duplicate_estimator_distance_zero(self, setup):
        data, ests = setup
        mat = trajectory_comparison([ests[0], ests[0]], data, metric="vt_Uk", k=2)
        assert mat[0, 1] <= 1e-10

    def test_entries_match_per_pair_reference(self, setup):
        # one estimate's second direction is a multiple of its first, so its
        # block reduces to one column; another is degenerate, so masked
        data, ests = setup
        base = ests[2]
        u = base.u_dirs.copy()
        u[:, 1] = -3.0 * u[:, 0]
        reduced = type(base)(u_dirs=u, v_dirs=base.v_dirs, rho=base.rho,
                             provenance=base.provenance)
        assert gram_schmidt_reduce(data.x @ u)[1] == [0]
        masked = type(base)(u_dirs=base.u_dirs, v_dirs=base.v_dirs, rho=base.rho,
                            provenance=type(base.provenance)(algorithm="rcca", degenerate=True))
        ests = [ests[0], masked, reduced, ests[1], base]
        for metric in ("vt_Uk", "wt_Uk"):
            mat = trajectory_comparison(ests, data, metric=metric, k=2)
            for i, a in enumerate(ests):
                for j, b in enumerate(ests):
                    if a is masked or b is masked:
                        assert np.isnan(mat[i, j])
                    elif i == j:
                        assert mat[i, j] == 0.0
                    else:
                        ua, ub = a.u_dirs[:, :2], b.u_dirs[:, :2]
                        if metric == "vt_Uk":
                            ua, ub = data.x @ ua, data.x @ ub
                        assert abs(mat[i, j] - _ref_subspace_sin2(ua, ub)) <= 1e-12

    def test_degenerate_masked(self, setup):
        data, ests = setup
        bad = type(ests[0])(
            u_dirs=ests[0].u_dirs, v_dirs=ests[0].v_dirs, rho=ests[0].rho,
            provenance=type(ests[0].provenance)(algorithm="rcca", degenerate=True),
        )
        mat = trajectory_comparison([ests[0], bad], data, metric="vt_Uk", k=2)
        assert np.isnan(mat[0, 1]) and np.isnan(mat[1, 1])
        assert mat[0, 0] == 0.0


# a fresh interpreter: the SciPy submodules that importing the package and
# its CLI adds to those of `import scipy`, then one signed-permutation
# registration of a scrambled block and its worst entry off the reference
_IMPORT_PROBE = """
import json, sys
import numpy as np, scipy
before = set(sys.modules)
import regcca, regcca.cli
added = sorted(m for m in set(sys.modules) - before if m.startswith("scipy"))
from regcca.compare import register
z0 = np.linalg.qr(np.random.default_rng(0).standard_normal((18, 4)))[0]
z1 = z0[:, [2, 0, 3, 1]] * np.array([1.0, -1.0, -1.0, 1.0])
error = float(np.max(np.abs(z1 @ register(z0, z1, "signed_permutation") - z0)))
print(json.dumps({"added": added, "error": error}))
"""


def test_package_import_loads_no_scipy_submodule():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout.splitlines()[-1])
    assert probe["added"] == []
    assert probe["error"] == 0.0
