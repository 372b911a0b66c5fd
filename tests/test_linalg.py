import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_orthonormal, random_pd
from regcca.linalg import (
    AndersonMemory,
    LinalgError,
    canonical_angles,
    gram_schmidt_metric,
    gram_schmidt_reduce,
    pair_sin2,
    reduce_stack,
    sym_eig,
    sym_matrix_power,
    thin_svd,
)


class TestCompactSvd:
    """``thin_svd``, the one SVD kernel: all min(p, q) triples as a
    ``(u, s, v)`` tuple."""

    def test_diagonal_matrix(self):
        u, s, v = thin_svd(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(s, [2.0, 1.0])
        np.testing.assert_allclose(u, np.eye(2))
        np.testing.assert_allclose(v, np.eye(2))

    def test_permutation_matrix(self):
        _, s, _ = thin_svd(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(s, [1.0, 1.0])

    def test_singular_values_match_gram_eigenvalues(self, rng):
        # independent oracle: eigenvalues of A.T A via eigvalsh
        a = rng.standard_normal((5, 3))
        _, s, _ = thin_svd(a)
        gram_eigs = np.sort(np.linalg.eigvalsh(a.T @ a))[::-1]
        np.testing.assert_allclose(s**2, gram_eigs, atol=1e-10)

    @pytest.mark.parametrize("shape", [(4, 4), (6, 3), (3, 7), (5, 5)])
    def test_invariants_on_random_matrices(self, rng, shape):
        a = rng.standard_normal(shape)
        u, s, v = thin_svd(a)
        assert s.size == min(shape)
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
        np.testing.assert_allclose(u.T @ u, np.eye(s.size), atol=1e-10)
        np.testing.assert_allclose(v.T @ v, np.eye(s.size), atol=1e-10)
        rel_err = np.linalg.norm(a - (u * s) @ v.T) / np.linalg.norm(a)
        assert rel_err <= 1e-10

    def test_rank_deficient_input_truncated(self, rng):
        # the spectrum reveals the rank: the leading triples rebuild the
        # matrix and the trailing singular values are at rounding level
        b = rng.standard_normal((6, 2))
        a = b @ b.T  # rank 2
        u, s, v = thin_svd(a)
        assert s.size == 6 and np.all(s[2:] <= 1e-12 * s[0])
        assert np.linalg.norm(a - (u[:, :2] * s[:2]) @ v[:, :2].T) <= 1e-10 * np.linalg.norm(a)

    def test_sign_canonicalisation(self, rng):
        a = rng.standard_normal((5, 4))
        u, s, v = thin_svd(a)
        for k in range(s.size):
            col = u[:, k]
            assert col[np.argmax(np.abs(col))] > 0
        np.testing.assert_allclose((u * s) @ v.T, a, atol=1e-12)

    def test_nonfinite_rejected(self):
        a = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(LinalgError):
            thin_svd(a)

    def test_zero_matrix_rank_zero(self):
        u, s, v = thin_svd(np.zeros((3, 2)))
        np.testing.assert_array_equal(s, 0.0)
        np.testing.assert_allclose(u.T @ u, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(v.T @ v, np.eye(2), atol=1e-14)


class TestSymMatrixPower:
    def test_identity(self):
        np.testing.assert_allclose(sym_matrix_power(np.eye(3), -0.5), np.eye(3))

    def test_diagonal_inverse_sqrt(self):
        out = sym_matrix_power(np.diag([4.0, 9.0]), -0.5)
        np.testing.assert_allclose(out, np.diag([0.5, 1.0 / 3.0]), atol=1e-12)

    @pytest.mark.parametrize("exponent", [-1.0, -0.5, 0.5])
    def test_power_identity_against_spectral_oracle(self, rng, exponent):
        a = random_pd(rng, 6)
        out = sym_matrix_power(a, exponent)
        # oracle: out @ out @ a should equal a^(2*exponent + 1), computed by
        # an independent eigendecomposition
        w, q = np.linalg.eigh(a)
        target = (q * w ** (2 * exponent + 1)) @ q.T
        np.testing.assert_allclose(out @ out @ a, target, atol=1e-9)

    def test_result_symmetric(self, rng):
        a = random_pd(rng, 5)
        out = sym_matrix_power(a, -0.5)
        np.testing.assert_allclose(out, out.T, atol=1e-14)

    def test_asymmetric_rejected(self, rng):
        a = rng.standard_normal((4, 4))
        with pytest.raises(LinalgError):
            sym_matrix_power(a, -0.5)

    def test_unsupported_exponent_rejected(self):
        with pytest.raises(LinalgError):
            sym_matrix_power(np.eye(2), 2.0)

    def test_flooring_keeps_inverse_finite(self):
        a = np.diag([1.0, 0.0])
        out = sym_matrix_power(a, -1.0)
        assert np.all(np.isfinite(out))


class TestCanonicalAngles:
    def test_identical_subspaces(self, rng):
        z = random_orthonormal(rng, 6, 2)
        np.testing.assert_allclose(canonical_angles(z, z), [1.0, 1.0], atol=1e-12)

    def test_orthogonal_subspaces(self):
        e = np.eye(3)
        np.testing.assert_allclose(canonical_angles(e[:, [0]], e[:, [1]]), [0.0], atol=1e-14)

    def test_tilted_plane(self):
        # span{e1, e2} against span{e1, cos(t) e2 + sin(t) e3}
        t = 0.3
        z = np.eye(3)[:, :2]
        w = np.column_stack([np.eye(3)[:, 0],
                             np.cos(t) * np.eye(3)[:, 1] + np.sin(t) * np.eye(3)[:, 2]])
        np.testing.assert_allclose(canonical_angles(z, w), [1.0, np.cos(t)], atol=1e-12)

    def test_symmetry(self, rng):
        for _ in range(20):
            z = random_orthonormal(rng, 8, 3)
            w = random_orthonormal(rng, 8, 3)
            a = canonical_angles(z, w)
            b = canonical_angles(w, z)
            np.testing.assert_allclose(np.sort(a), np.sort(b), atol=1e-12)

    def test_cos2_plus_sin2_is_k(self, rng):
        # the cosines against the one sin^2 Theta routine
        for k in (1, 2, 3):
            z = random_orthonormal(rng, 9, k)
            w = random_orthonormal(rng, 9, k)
            [sin2], [keff] = pair_sin2(np.stack([z, w]), [0], [1])
            assert keff == k
            assert abs(np.sum(canonical_angles(z, w) ** 2) + sin2 - k) <= 1e-10

    def test_projection_identity(self, rng):
        # sin^2 Theta equals the squared Frobenius norm of P_Z (I - P_W)
        for _ in range(20):
            z = random_orthonormal(rng, 10, 3)
            w = random_orthonormal(rng, 10, 3)
            [sin2], _ = pair_sin2(np.stack([z, w]), [0], [1])
            pz = z @ z.T
            pw = w @ w.T
            frob = np.linalg.norm(pz @ (np.eye(10) - pw)) ** 2
            assert abs(sin2 - frob) <= 1e-9

    def test_non_orthonormal_rejected_with_deviation(self, rng):
        z = rng.standard_normal((6, 2))
        w = random_orthonormal(rng, 6, 2)
        with pytest.raises(LinalgError, match="Gram deviation"):
            canonical_angles(z, w)


class TestPairSin2:
    def test_padded_pairs_match_canonical_angles(self, rng):
        # blocks of 3, 2 and 1 dimensions, padded with zero columns to 3
        blocks = [random_orthonormal(rng, 8, d) for d in (3, 2, 1, 3)]
        q = np.zeros((4, 8, 3))
        for b, block in enumerate(blocks):
            q[b, :, :block.shape[1]] = block
        first, second = np.triu_indices(4, 1)
        sin2, keff = pair_sin2(q, first, second)
        for p, (i, j) in enumerate(zip(first, second)):
            k = min(blocks[i].shape[1], blocks[j].shape[1])
            cos = canonical_angles(blocks[i], blocks[j])
            assert keff[p] == k
            assert abs(sin2[p] - (k - np.sum(cos[:k] ** 2))) <= 1e-12

    def test_every_block_checked_in_stack_order(self, rng):
        q = np.stack([random_orthonormal(rng, 6, 2) for _ in range(3)])
        bad = q.copy()
        bad[1, :, 0] *= 2.0
        bad[2, 0, 1] = np.nan
        # block 2 is in no pair, and finiteness is checked first
        with pytest.raises(LinalgError, match="block 2 contains non-finite entries"):
            pair_sin2(bad, [0], [1])
        bad[2] = q[2]
        with pytest.raises(LinalgError, match="block 1 columns not orthonormal: Gram deviation 3"):
            pair_sin2(bad, [0], [2])
        # a deviation within ORTH_TOL is accepted
        bad[1] = q[1] * (1.0 + 1e-10)
        assert pair_sin2(bad, [0], [1])[1].tolist() == [2]

    def test_zero_dimensional_block_raises_only_in_a_pair(self, rng):
        q = np.stack([random_orthonormal(rng, 6, 2) for _ in range(3)])
        q[1] = 0.0
        sin2, keff = pair_sin2(q, [0], [2])
        assert keff.tolist() == [2] and 0.0 <= sin2[0] <= 2.0
        with pytest.raises(LinalgError, match="zero-dimensional subspace"):
            pair_sin2(q, [0, 2], [2, 1])

    def test_reduce_stack_keeps_columns_in_place(self, rng):
        m = rng.standard_normal((2, 7, 3))
        m[1, :, 1] = 2.0 * m[1, :, 0]
        q = reduce_stack(m)
        np.testing.assert_array_equal(q[0], gram_schmidt_reduce(m[0])[0])
        np.testing.assert_array_equal(q[1][:, [0, 2]], gram_schmidt_reduce(m[1])[0])
        assert np.all(q[1, :, 1] == 0.0)
        # a dropped column in the middle pads like a trailing one
        [sin2], [keff] = pair_sin2(q, [0], [1])
        ref = 2 - np.sum(canonical_angles(q[0], q[1][:, [0, 2]]) ** 2)
        assert keff == 2 and abs(sin2 - ref) <= 1e-12


    def test_leading_axes_reduce_and_compare_block_by_block(self, rng):
        # a (2, 3) stack of blocks, one with a dependent and one with a zero
        # column: each block is reduced as it is alone, bit for bit
        m = rng.standard_normal((2, 3, 40, 4))
        m[0, 1, :, 2] = m[0, 1, :, 0] - 3.0 * m[0, 1, :, 1]
        m[1, 2, :, 1] = 0.0
        q = reduce_stack(m)
        for i in range(2):
            for b in range(3):
                np.testing.assert_array_equal(q[i, b], reduce_stack(m[i, b]))
                qb, kept = gram_schmidt_reduce(m[i, b])
                np.testing.assert_array_equal(q[i, b][:, kept], qb)
        first, second = np.triu_indices(3, 1)
        sin2, keff = pair_sin2(q, first, second)
        assert sin2.shape == keff.shape == (2, 3)
        for i in range(2):
            ref_sin2, ref_keff = pair_sin2(q[i], first, second)
            np.testing.assert_array_equal(sin2[i], ref_sin2)
            np.testing.assert_array_equal(keff[i], ref_keff)
        assert keff.tolist() == [[3, 4, 3], [4, 3, 3]]
        q[1, 2, 0, 0] = np.nan
        with pytest.raises(LinalgError, match="block 2 contains non-finite entries"):
            pair_sin2(q, first, second)


class TestGramSchmidtMetric:
    def test_already_orthonormal_unchanged(self):
        m = np.eye(5)[:, :3]
        np.testing.assert_allclose(gram_schmidt_metric(m), m, atol=1e-14)

    def test_two_step_example(self):
        m = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        out = gram_schmidt_metric(m)
        np.testing.assert_allclose(out, np.eye(3)[:, :2], atol=1e-14)

    def test_metric_gram_is_identity(self, rng):
        m = rng.standard_normal((6, 3))
        g = random_pd(rng, 6)
        out = gram_schmidt_metric(m, g)
        np.testing.assert_allclose(out.T @ g @ out, np.eye(3), atol=1e-10)

    def test_span_is_nested(self, rng):
        m = rng.standard_normal((5, 3))
        out = gram_schmidt_metric(m)
        for k in range(1, 4):
            # column k lies in the span of the first k input columns
            proj, *_ = np.linalg.lstsq(m[:, :k], out[:, k - 1], rcond=None)
            np.testing.assert_allclose(m[:, :k] @ proj, out[:, k - 1], atol=1e-8)

    def test_rank_deficiency_reports_column(self):
        m = np.column_stack([np.eye(4)[:, 0], np.eye(4)[:, 1], np.eye(4)[:, 0]])
        with pytest.raises(LinalgError, match="column 2"):
            gram_schmidt_metric(m)

    def test_reduce_drops_dependent_columns(self):
        m = np.column_stack([np.eye(4)[:, 0], np.eye(4)[:, 0], np.eye(4)[:, 1]])
        q, kept = gram_schmidt_reduce(m)
        assert kept == [0, 2]
        np.testing.assert_allclose(q.T @ q, np.eye(2), atol=1e-12)


def reference_gram_schmidt_reduce(m, g=None, rank_tol=1e-10):
    """Gram-Schmidt that drops dependent columns, one kept column at a
    time and two passes per column: the routine the column-wise CGS2
    replaces."""

    def inner(a, b):
        return a @ b if g is None else a @ (g @ b)

    m = np.asarray(m, dtype=float)
    kept_cols, kept_idx = [], []
    norms0 = np.sqrt(np.maximum(np.array([inner(m[:, j], m[:, j])
                                          for j in range(m.shape[1])]), 0.0))
    for j in range(m.shape[1]):
        v = m[:, j].copy()
        for _ in range(2):
            for qcol in kept_cols:
                v -= inner(qcol, v) * qcol
        nrm = np.sqrt(max(inner(v, v), 0.0))
        if nrm <= rank_tol * max(norms0[j], 1e-300):
            continue
        kept_cols.append(v / nrm)
        kept_idx.append(j)
    if not kept_cols:
        return np.zeros((m.shape[0], 0)), []
    return np.column_stack(kept_cols), kept_idx


def gram_schmidt_inputs(count, seed):
    """Blocks with columns scaled by up to e^5 either way, dependent and
    zero columns, and a metric for about a quarter of them."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, k = int(rng.integers(3, 80)), int(rng.integers(1, 7))
        m = rng.standard_normal((n, k)) * np.exp(rng.uniform(-5.0, 5.0, k))
        for j in range(1, k):
            roll = rng.uniform()
            if roll < 0.15:
                m[:, j] = m[:, :j] @ rng.standard_normal(j)
            elif roll < 0.25:
                m[:, j] = 0.0
        yield m, (random_pd(rng, n) if rng.uniform() < 0.25 else None)


class TestColumnwiseGramSchmidt:
    def test_matches_the_two_pass_reference(self):
        dropped = 0
        for m, g in gram_schmidt_inputs(1500, seed=8):
            q, kept = gram_schmidt_reduce(m, g)
            ref, ref_kept = reference_gram_schmidt_reduce(m, g)
            assert kept == ref_kept
            assert q.shape == ref.shape
            np.testing.assert_allclose(q, ref, rtol=0, atol=1e-12)
            dropped += m.shape[1] - len(kept)
        assert dropped > 100

    def test_prefixes_reproduce_the_full_result_bit_for_bit(self):
        for m, g in gram_schmidt_inputs(300, seed=9):
            q, kept = gram_schmidt_reduce(m, g)
            for j in range(1, m.shape[1]):
                qj, kept_j = gram_schmidt_reduce(m[:, :j], g)
                assert kept_j == [c for c in kept if c < j]
                np.testing.assert_array_equal(qj, q[:, :len(kept_j)])

    def test_strict_form_raises_at_the_first_dropped_column(self):
        for m, g in gram_schmidt_inputs(300, seed=10):
            _, ref_kept = reference_gram_schmidt_reduce(m, g)
            if len(ref_kept) == m.shape[1]:
                np.testing.assert_array_equal(gram_schmidt_metric(m, g),
                                              gram_schmidt_reduce(m, g)[0])
                continue
            first = next((i for i, c in enumerate(ref_kept) if i != c), len(ref_kept))
            with pytest.raises(LinalgError, match=f"rank deficiency at column {first}$"):
                gram_schmidt_metric(m, g)

    def test_strict_form_keeps_its_input_checks(self, rng):
        m = rng.standard_normal((5, 2))
        bad = m.copy()
        bad[1, 0] = np.nan
        with pytest.raises(LinalgError, match="non-finite"):
            gram_schmidt_metric(bad)
        with pytest.raises(LinalgError, match="metric not symmetric"):
            gram_schmidt_metric(m, rng.standard_normal((5, 5)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), d=st.integers(2, 7))
def test_sym_eig_reconstructs(seed, d):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    a = a + a.T
    w, q = sym_eig(a)
    assert np.all(np.diff(w) <= 1e-12)
    err = np.linalg.norm(a - (q * w) @ q.T)
    assert err <= 1e-10 * max(np.linalg.norm(a), 1.0)


class TestAndersonMemory:
    def test_weights_solve_the_constrained_least_squares(self, rng):
        memory = AndersonMemory((3, 4), 5)
        pushed = [(rng.standard_normal((3, 4)), rng.standard_normal((3, 4))) for _ in range(7)]
        for residual, image in pushed:
            memory.push(residual, image)
        assert memory.count == 5
        # the ring holds the last five pushes; alpha minimises
        # ||sum_j alpha_j f_j|| subject to sum_j alpha_j = 1 (Lagrange system)
        order = [5, 6, 2, 3, 4]
        f = np.column_stack([pushed[i][0].ravel() for i in order])
        kkt = np.block([[2.0 * f.T @ f, np.ones((5, 1))], [np.ones((1, 5)), np.zeros((1, 1))]])
        alpha = np.linalg.solve(kkt, np.r_[np.zeros(5), 1.0])[:5]
        weights = memory.weights()
        assert np.sum(weights) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(weights, alpha, rtol=1e-6, atol=1e-9)
        expected = sum(a * pushed[i][1] for a, i in zip(alpha, order))
        np.testing.assert_allclose(memory.extrapolate(), expected, rtol=1e-6, atol=1e-9)

    def test_clear_empties_the_memory(self, rng):
        memory = AndersonMemory((6,), 3)
        for _ in range(4):
            memory.push(rng.standard_normal(6), rng.standard_normal(6))
        memory.clear()
        assert memory.count == 0
        residual, image = rng.standard_normal(6), rng.standard_normal(6)
        memory.push(residual, image)
        np.testing.assert_array_equal(memory.weights(), [1.0])
        np.testing.assert_array_equal(memory.extrapolate(), image)

    def test_zero_residuals_keep_the_newest_image(self):
        memory = AndersonMemory((2,), 3)
        for value in (1.0, 2.0, 3.0, 4.0):
            memory.push(np.zeros(2), np.full(2, value))
        np.testing.assert_array_equal(memory.extrapolate(), [4.0, 4.0])

    @staticmethod
    def _filled(memory, rng, count, key="map"):
        """``count`` accepted random points; returns the last image."""
        for _ in range(count):
            residual, image = rng.standard_normal(3), rng.standard_normal(3)
            memory.accept(residual, image, float(np.linalg.norm(residual)), key)
        return image

    def test_a_rejected_extrapolation_keeps_the_base_point(self, rng):
        memory = AndersonMemory((3,), 4)
        image = self._filled(memory, rng, 2)
        base, base_norm = memory.base_image, memory.base_norm
        point = memory.next_point(image)
        assert memory.extrapolated and point is not image
        # a residual that does not grow is not rejected
        assert not memory.rejects(base_norm)
        assert memory.rejects(2.0 * base_norm)
        assert (memory.rejected, memory.accepted) == (1, 0)
        assert memory.base_image is base and memory.base_norm == base_norm
        assert not memory.extrapolated and not memory.rejects(2.0 * base_norm)

    def test_extrapolation_resumes_after_a_rejection(self, rng):
        memory = AndersonMemory((3,), 4)
        memory.next_point(self._filled(memory, rng, 2))
        assert memory.rejects(2.0 * memory.base_norm)
        # the step from the base point is accepted, and the next point is
        # an extrapolation again
        image = self._filled(memory, rng, 1)
        assert memory.next_point(image) is not image and memory.extrapolated
        assert memory.accepted == 0

    def test_a_new_key_clears_the_memory(self, rng):
        memory = AndersonMemory((3,), 4)
        self._filled(memory, rng, 3, key=np.array([1.0, -1.0]))
        self._filled(memory, rng, 1, key=np.array([1.0, -1.0]))
        assert memory.count == 4
        image = self._filled(memory, rng, 1, key=np.array([1.0, 0.0]))
        assert memory.count == 1
        np.testing.assert_array_equal(memory.extrapolate(), image)
        assert memory.next_point(image) is image and not memory.extrapolated

    def test_no_mixing_never_extrapolates(self, rng):
        memory = AndersonMemory((3,), 4)
        for _ in range(6):
            image = self._filled(memory, rng, 1)
            assert memory.next_point(image, mix=False) is image
            assert not memory.extrapolated
        assert memory.count == 4 and (memory.accepted, memory.rejected) == (0, 0)
