"""Registration between variate blocks, overlap matrices and trajectory
comparison.

Registration aligns one estimate's variates onto another's by least squares
over a chosen matrix class; the classes are nested (signs within signed
permutations within orthogonal within linear), so the attained residual can
only shrink as the class grows.
"""

from dataclasses import dataclass

import numpy as np

from .datamodel import PairedDataset
from .linalg import ORTH_TOL, pair_sin2, reduce_stack

__all__ = [
    "register",
    "OverlapResult",
    "overlap_matrix",
    "trajectory_comparison",
    "registered_overlaps",
]

MODES = ("signs", "signed_permutation", "orthogonal", "linear")
COMPARISON_METRICS = ("vt_Uk", "wt_Uk")


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

    # signed permutation: maximise the matched absolute inner products.
    # scipy.optimize is imported here, its one use: loading it costs more
    # than the rest of the package's start-up
    from scipy.optimize import linear_sum_assignment

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


def overlap_matrix(z, w, squared=False):
    """Cross-Gram matrix of two variate blocks (entries squared with
    ``squared``) and its sums; the blocks count as orthonormal to within
    ``linalg.ORTH_TOL``."""
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    if z.shape[0] != w.shape[0]:
        raise ValueError("blocks must share the sample axis")
    ortho = True
    for m in (z, w):
        dev = float(np.max(np.abs(m.T @ m - np.eye(m.shape[1])))) if m.size else 0.0
        ortho &= dev <= ORTH_TOL
    mat = z.T @ w
    if squared:
        mat = mat**2
    return OverlapResult(
        matrix=mat,
        row_sums=mat.sum(axis=1),
        col_sums=mat.sum(axis=0),
        columns_orthonormal=ortho,
    )


def _unit_blocks(estimates, data: PairedDataset, k, metric):
    """Each estimate's leading k directions as unit-norm columns: the
    full-data variates X @ U for ``vt_Uk``, the weights U for ``wt_Uk``.
    None where an estimate is missing, degenerate, holds fewer than k pairs
    or has a zero column."""
    blocks = []
    for est in estimates:
        b = None
        if est is not None and not est.provenance.degenerate and est.k >= k:
            b = est.u_dirs[:, :k]
            if metric == "vt_Uk":
                b = data.x @ b
            norms = np.linalg.norm(b, axis=0)
            b = None if np.any(norms == 0) else b / norms
        blocks.append(b)
    return blocks


def trajectory_comparison(estimates, data: PairedDataset, metric="vt_Uk", k=3):
    """Symmetric matrix of pairwise squared sin-Theta distances between the
    top-k subspaces of a list of estimates.

    ``vt_Uk`` compares variate subspaces (full-data X @ U blocks, columns
    renormalised); ``wt_Uk`` compares weight subspaces.  Degenerate
    estimates produce masked (NaN) rows/columns rather than aborting.
    """
    if metric not in COMPARISON_METRICS:
        raise ValueError(f"unknown comparison metric {metric!r}")
    blocks = _unit_blocks(estimates, data, k, metric)
    live = [i for i, b in enumerate(blocks) if b is not None]
    out = np.full((len(blocks), len(blocks)), np.nan)
    out[live, live] = 0.0
    if len(live) > 1:
        first, second = np.triu_indices(len(live), 1)
        sin2, _ = pair_sin2(reduce_stack([blocks[i] for i in live]), first, second)
        rows, cols = np.take(live, first), np.take(live, second)
        out[rows, cols] = out[cols, rows] = sin2
    return out


def registered_overlaps(estimates, data: PairedDataset, k, reference, mode):
    """Squared overlap tables of each estimate's top-k unit variates,
    registered by ``mode``, against the reference estimate's: the matrix
    with its row sums as a last column and column sums as a last row, all
    NaN where either block is masked (see ``_unit_blocks``).  Returns the
    tables and each estimate's masked flag."""
    variates = _unit_blocks(estimates, data, k, "vt_Uk")
    # a copy: NumPy takes z.T @ z on one buffer as a symmetric product,
    # which rounds differently from the general product of the self-overlap
    z_ref = None if variates[reference] is None else variates[reference].copy()
    tables = []
    for i, z in enumerate(variates):
        if z_ref is None or z is None:
            tables.append(np.full((k + 1, k + 1), np.nan))
            continue
        if i != reference:
            z = z @ register(z_ref, z, mode)
        ov = overlap_matrix(z_ref, z, squared=True)
        tables.append(np.vstack([np.hstack([ov.matrix, ov.row_sums[:, None]]),
                                 np.hstack([ov.col_sums, [np.nan]])]))
    return tables, [z is None for z in variates]
