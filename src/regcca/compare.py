"""Registration between variate blocks, overlap matrices and trajectory
comparison.

Registration aligns one estimate's variates onto another's by least squares
over a chosen matrix class; the classes are nested (signs within signed
permutations within orthogonal within linear), so the attained residual can
only shrink as the class grows.
"""

import csv
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .datamodel import PairedDataset
from .linalg import gram_schmidt_reduce
from .metrics import _orthonormal_sin2

__all__ = [
    "register",
    "OverlapResult",
    "overlap_matrix",
    "trajectory_comparison",
    "write_labelled_matrix_csv",
]

MODES = ("signs", "signed_permutation", "orthogonal", "linear")


def register(reference, target, mode):
    """Least-squares transform M aligning target variates onto the reference.

    Minimises ``||Z1 @ M - Z0||_F^2`` over the mode's matrix class, where Z0
    is the reference (n x K) and Z1 the target (n x K'), K <= K'.

    signs               diagonal +/-1 (requires K = K')
    signed_permutation  exact assignment on the |Z1.T Z0| score matrix, then
                        signs from the matched inner products (K = K';
                        assumes comparably scaled columns)
    orthogonal          SVD of Z1.T Z0
    linear              normal equations; requires Z1 of full column rank
    """
    z0 = np.asarray(reference, dtype=float)
    z1 = np.asarray(target, dtype=float)
    if mode not in MODES:
        raise ValueError(f"unknown registration mode {mode!r}")
    if z0.shape[0] != z1.shape[0]:
        raise ValueError("variate blocks must share the sample axis")
    k0, k1 = z0.shape[1], z1.shape[1]
    if k0 > k1:
        raise ValueError(f"reference has more columns ({k0}) than target ({k1})")

    if mode == "linear":
        gram = z1.T @ z1
        if np.linalg.matrix_rank(gram) < k1:
            raise ValueError("target block is rank deficient in linear mode")
        return np.linalg.solve(gram, z1.T @ z0)

    cross = z1.T @ z0
    if mode == "orthogonal":
        u, _, vt = np.linalg.svd(cross, full_matrices=False)
        return u @ vt

    if k0 != k1:
        raise ValueError(f"{mode} registration needs K = K'")
    if mode == "signs":
        s = np.sign(np.diagonal(cross))
        s[s == 0] = 1.0
        return np.diag(s)

    # signed permutation: maximise the matched absolute inner products
    rows, cols = linear_sum_assignment(-np.abs(cross))
    m = np.zeros((k1, k0))
    for r, c in zip(rows, cols):
        sign = np.sign(cross[r, c])
        m[r, c] = sign if sign != 0 else 1.0
    return m


@dataclass
class OverlapResult:
    """Cross-Gram matrix of two variate blocks with marginal sums.

    The squared-entry total equals the cos^2-Theta similarity of the spans
    when both blocks have orthonormal columns; ``columns_orthonormal``
    records whether that interpretation is safe.
    """

    matrix: np.ndarray
    row_sums: np.ndarray
    col_sums: np.ndarray
    columns_orthonormal: bool
    squared: bool


def overlap_matrix(z, w, squared=False, orthogonalise_first=False, orth_tol=1e-6):
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    if z.shape[0] != w.shape[0]:
        raise ValueError("blocks must share the sample axis")
    if orthogonalise_first:
        z, _ = gram_schmidt_reduce(z)
        w, _ = gram_schmidt_reduce(w)
    ortho = True
    for m in (z, w):
        dev = float(np.max(np.abs(m.T @ m - np.eye(m.shape[1])))) if m.size else 0.0
        ortho &= dev <= orth_tol
    mat = z.T @ w
    if squared:
        mat = mat**2
    return OverlapResult(
        matrix=mat,
        row_sums=mat.sum(axis=1),
        col_sums=mat.sum(axis=0),
        columns_orthonormal=ortho,
        squared=squared,
    )


def trajectory_comparison(estimates, data: PairedDataset, metric="vt_Uk", k=3):
    """Symmetric matrix of pairwise squared sin-Theta distances between the
    top-k subspaces of a list of estimates.

    ``vt_Uk`` compares variate subspaces (full-data X @ U blocks, columns
    renormalised); ``wt_Uk`` compares weight subspaces.  Degenerate
    estimates produce masked (NaN) rows/columns rather than aborting.
    """
    if metric not in ("vt_Uk", "wt_Uk"):
        raise ValueError(f"unknown comparison metric {metric!r}")
    blocks = []
    for est in estimates:
        if est is None or est.provenance.degenerate or est.k < k:
            blocks.append(None)
            continue
        b = est.u_dirs[:, :k]
        if metric == "vt_Uk":
            b = data.x @ b
        norms = np.linalg.norm(b, axis=0)
        if np.any(norms == 0):
            blocks.append(None)
            continue
        blocks.append(b / norms)
    m = len(blocks)
    out = np.full((m, m), np.nan)
    orth = [None] * m
    for i, b in enumerate(blocks):
        if b is not None:
            q, _ = gram_schmidt_reduce(b)
            orth[i] = q
            out[i, i] = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            if orth[i] is not None and orth[j] is not None:
                out[i, j] = out[j, i] = _orthonormal_sin2(orth[i], orth[j])[0]
    return out


def write_labelled_matrix_csv(path, matrix, labels):
    """CSV with estimator labels as headers, for heat-map rendering."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + list(labels))
        for label, row in zip(labels, matrix):
            writer.writerow([label] + [repr(float(v)) for v in row])
