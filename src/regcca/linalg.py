"""Dense linear-algebra kernels shared by the whole toolbox.

Everything here is deterministic: eigen/singular vectors are sign-canonicalised
so that repeated runs (and different platforms) produce identical output, which
the snapshot and byte-identity tests rely on.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralDecomposition",
    "CompactSvd",
    "PrincipalAngles",
    "sym_eig",
    "compact_svd",
    "thin_svd",
    "canonical_signs",
    "sym_matrix_power",
    "eigenvalue_floor",
    "soft_threshold",
    "canonical_angles",
    "sin2_theta",
    "gram_schmidt_metric",
    "gram_schmidt_reduce",
]

DEFAULT_RANK_TOL = 1e-10


class LinalgError(ValueError):
    """Invalid input to a linear-algebra kernel."""


def _require_finite(a, name="matrix"):
    if not np.all(np.isfinite(a)):
        raise LinalgError(f"{name} contains non-finite entries")


def canonical_signs(left):
    """+1/-1 per column, the sign that makes the column's largest-magnitude
    entry positive (ties resolve to the lowest index via argmax; +1 for a
    zero column)."""
    idx = np.argmax(np.abs(left), axis=0)
    signs = np.sign(left[idx, np.arange(left.shape[1])])
    signs[signs == 0] = 1.0
    return signs


def _canonicalise_signs(left, right=None):
    """Flip columns so each left vector's largest-magnitude entry is positive.

    The paired right column is flipped together so products like
    U @ diag(s) @ V.T are unchanged.
    """
    if left.shape[1] == 0:
        return left, right
    signs = canonical_signs(left)
    left = left * signs
    if right is not None:
        right = right * signs
    return left, right


@dataclass
class SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self):
        q, w = self.eigenvectors, self.eigenvalues
        return (q * w) @ q.T


@dataclass
class CompactSvd:
    """Rank-truncated SVD with orthonormal factors and descending values."""

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray

    @property
    def rank(self):
        return self.singular_values.size

    def reconstruct(self):
        return (self.left * self.singular_values) @ self.right.T


@dataclass
class PrincipalAngles:
    """Cosines of the principal angles between two subspaces, descending."""

    cosines: np.ndarray

    @property
    def sin2(self):
        """Sum of squared sines, the squared sin-Theta distance."""
        return float(np.sum(1.0 - self.cosines**2))

    @property
    def cos2(self):
        return float(np.sum(self.cosines**2))


def _check_symmetric(a, tol=1e-10, name="matrix"):
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise LinalgError(f"{name} must be square, got shape {a.shape}")
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
    dev = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if dev > tol * scale:
        raise LinalgError(f"{name} not symmetric: max asymmetry {dev:.3e}")


def sym_eig(a):
    """Symmetric eigendecomposition, eigenvalues sorted descending.

    Columns are sign-canonicalised for deterministic output.
    """
    _require_finite(a)
    _check_symmetric(a)
    w, q = np.linalg.eigh(0.5 * (a + a.T))
    order = np.argsort(w)[::-1]
    w, q = w[order], q[:, order]
    q, _ = _canonicalise_signs(q)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=q)


def thin_svd(a):
    """Full thin SVD (all min(p, q) triples) with canonical signs."""
    _require_finite(a)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    v = vt.T
    u, v = _canonicalise_signs(u, v)
    return CompactSvd(left=u, singular_values=s, right=v)


def compact_svd(a, rank_tol=DEFAULT_RANK_TOL):
    """Compact SVD of a real matrix, dropping singular values below tolerance.

    Parameters
    ----------
    a : (p, q) array
    rank_tol : float
        Relative cut: singular values below ``rank_tol * s_max`` are dropped.

    Returns
    -------
    CompactSvd with K = numerical rank columns.
    """
    if rank_tol < 0:
        raise LinalgError("rank_tol must be nonnegative")
    full = thin_svd(a)
    s = full.singular_values
    if s.size == 0 or s[0] == 0.0:
        k = 0
    else:
        k = int(np.sum(s > rank_tol * s[0]))
    return CompactSvd(
        left=full.left[:, :k],
        singular_values=s[:k].copy(),
        right=full.right[:, :k],
    )


def sym_matrix_power(a, exponent, floor_eps=None):
    """Matrix power of a symmetric PSD matrix via eigendecomposition.

    Eigenvalues are clamped below at ``floor_eps`` before powering, so
    negative exponents stay finite on numerically rank-deficient input.
    Supported exponents: -1, -1/2, +1/2.
    """
    if exponent not in (-1.0, -0.5, 0.5):
        raise LinalgError(f"unsupported exponent {exponent}")
    _require_finite(a)
    _check_symmetric(a)
    floor_eps = eigenvalue_floor(np.trace(a), a.shape[0], floor_eps)
    dec = sym_eig(a)
    w = np.maximum(dec.eigenvalues, floor_eps)
    powered = (dec.eigenvectors * w**exponent) @ dec.eigenvectors.T
    return 0.5 * (powered + powered.T)


def eigenvalue_floor(trace, d, floor_eps=None):
    """Lower clamp for the eigenvalues of a d x d PSD matrix before a
    negative power: ``floor_eps`` if given (it must be positive), else
    1e-12 times the mean eigenvalue ``trace / d``, kept above the smallest
    normal float.  ``trace`` may be an array, one per matrix of a stack.
    """
    if floor_eps is None:
        return 1e-12 * np.maximum(trace, d * np.finfo(float).tiny) / d
    if floor_eps <= 0:
        raise LinalgError("floor_eps must be positive")
    return floor_eps


def soft_threshold(a, thr):
    """Elementwise soft-thresholding sign(a) * max(|a| - thr, 0), the
    proximal map of thr * ||.||_1."""
    return np.sign(a) * np.maximum(np.abs(a) - thr, 0.0)


def canonical_angles(z, w, orth_tol=1e-8):
    """Principal angles between the column spans of two orthonormal blocks.

    Cosines are the singular values of ``z.T @ w`` clamped to [0, 1].
    Raises if either block's columns deviate from orthonormality by more
    than ``orth_tol`` in max Gram error.
    """
    for m, name in ((z, "first block"), (w, "second block")):
        _require_finite(m, name)
        gram_dev = float(np.max(np.abs(m.T @ m - np.eye(m.shape[1]))))
        if gram_dev > orth_tol:
            raise LinalgError(
                f"{name} columns not orthonormal: Gram deviation {gram_dev:.3e}"
            )
    s = np.linalg.svd(z.T @ w, compute_uv=False)
    return PrincipalAngles(cosines=np.clip(s, 0.0, 1.0))


def sin2_theta(z, w):
    """Squared sin-Theta distance between equal-dimension subspaces.

    Inputs need not be orthonormal; each block is orthonormalised first.
    """
    zq = gram_schmidt_metric(np.asarray(z, dtype=float))
    wq = gram_schmidt_metric(np.asarray(w, dtype=float))
    if zq.shape[1] != wq.shape[1]:
        raise LinalgError(
            f"subspace dimensions differ: {zq.shape[1]} vs {wq.shape[1]}"
        )
    return canonical_angles(zq, wq).sin2


def _metric_inner(g, a, b):
    if g is None:
        return a @ b
    return a @ (g @ b)


def gram_schmidt_metric(m, g=None, rank_tol=1e-10):
    """Orthonormalise columns under the inner product ``<a, b> = a.T G b``.

    ``g=None`` means the Euclidean metric.  Column k of the output lies in
    the span of the first k input columns.  A second orthogonalisation pass
    guards against cancellation.

    Raises on rank deficiency, reporting the offending column index.
    """
    _require_finite(m)
    m = np.asarray(m, dtype=float)
    if g is not None:
        _check_symmetric(g, name="metric")
    q = np.zeros_like(m)
    norms0 = np.sqrt(np.maximum(
        np.array([_metric_inner(g, m[:, j], m[:, j]) for j in range(m.shape[1])]),
        0.0,
    ))
    for j in range(m.shape[1]):
        v = m[:, j].copy()
        for _ in range(2):
            for i in range(j):
                v -= _metric_inner(g, q[:, i], v) * q[:, i]
        nrm2 = _metric_inner(g, v, v)
        nrm = np.sqrt(max(nrm2, 0.0))
        if nrm <= rank_tol * max(norms0[j], 1e-300):
            raise LinalgError(f"rank deficiency at column {j}")
        q[:, j] = v / nrm
    return q


def gram_schmidt_reduce(m, g=None, rank_tol=1e-10):
    """Like gram_schmidt_metric but drops dependent columns instead of raising.

    Returns (orthonormal block, list of kept column indices).
    """
    m = np.asarray(m, dtype=float)
    kept_cols = []
    kept_idx = []
    norms0 = np.sqrt(np.maximum(
        np.array([_metric_inner(g, m[:, j], m[:, j]) for j in range(m.shape[1])]),
        0.0,
    ))
    for j in range(m.shape[1]):
        v = m[:, j].copy()
        for _ in range(2):
            for qcol in kept_cols:
                v -= _metric_inner(g, qcol, v) * qcol
        nrm = np.sqrt(max(_metric_inner(g, v, v), 0.0))
        if nrm <= rank_tol * max(norms0[j], 1e-300):
            continue
        kept_cols.append(v / nrm)
        kept_idx.append(j)
    if not kept_cols:
        return np.zeros((m.shape[0], 0)), []
    return np.column_stack(kept_cols), kept_idx
