"""Exact canonical decomposition of a covariance model and sample CCA.

Every CCA in the toolbox whitens in the eigenbases of the within-view
blocks: with Sxx = Qx Lx Qx' and Syy = Qy Ly Qy', the whitened target is
``T = Lx^{-1/2} Qx' Sxy Qy Ly^{-1/2}`` (eigenvalues floored by
``linalg.floored_power``).  Its singular values are the canonical
correlations, and its singular vectors, scaled by L^{-1/2} and rotated back
by Q, are the canonical direction pairs.  ``CovarianceSpectra.solve`` is
that solve, for ridged blocks (1-c)*S + c*I too: ``cca_from_covariance`` is
its c=0 case and ``estimators.rcca_fit`` its ridge path.
``empirical_canonical_correlations`` forms the same target for stacks of
variate blocks and keeps only the singular values.
"""

from dataclasses import dataclass, field

import numpy as np

from .datamodel import CovarianceModel, PairedDataset, center_and_covariance
from .linalg import LinalgError, canonical_signs, floored_power, sym_eig

__all__ = [
    "Provenance",
    "CcaEstimate",
    "CovarianceSpectra",
    "cca_from_covariance",
    "sample_cca",
    "empirical_canonical_correlations",
]


@dataclass
class Provenance:
    """Where an estimate came from: algorithm, penalty, fold and seed."""

    algorithm: str
    penalty: float = None
    fold: object = "full"
    seed: int = None
    degenerate: bool = False
    converged: bool = True
    info: dict = field(default_factory=dict)


@dataclass
class CcaEstimate:
    """K canonical direction pairs with their correlations.

    Exact solvers return ``rho`` descending in [0, 1] with directions
    orthonormal under the model's within-view covariances; regularised
    solvers rescale columns to unit training variance and document their
    own orthogonality (or lack of it) in the module contract.
    """

    u_dirs: np.ndarray
    v_dirs: np.ndarray
    rho: np.ndarray
    provenance: Provenance

    def __post_init__(self):
        self.u_dirs = np.asarray(self.u_dirs, dtype=float)
        self.v_dirs = np.asarray(self.v_dirs, dtype=float)
        self.rho = np.asarray(self.rho, dtype=float)
        k = self.rho.size
        if self.u_dirs.shape[1] != k or self.v_dirs.shape[1] != k:
            raise ValueError("direction blocks and rho disagree on K")

    @property
    def k(self):
        return self.rho.size


class CovarianceSpectra:
    """A covariance model in the eigenbases of its within-view blocks: the
    eigenpairs and traces of Sxx and Syy, and Sxy rotated into those bases.

    (1-c)*S + c*I has the eigenvectors of S and the eigenvalues
    (1-c)*lambda + c, so one instance serves every ridge penalty c.
    """

    def __init__(self, cov: CovarianceModel):
        self.wx, self.qx = sym_eig(cov.sxx)
        self.wy, self.qy = sym_eig(cov.syy)
        self.tx = float(np.trace(cov.sxx))
        self.ty = float(np.trace(cov.syy))
        self.cross = self.qx.T @ cov.sxy @ self.qy

    def solve(self, K, penalties=(0.0,)):
        """Top-K canonical pairs of the model with ridged within-view blocks
        (1-c)*S + c*I, for each c of ``penalties``: stacks u, v and rho.

        Each block's ridged eigenvalues are floored as ``floored_power``
        floors them (the trace of (1-c)*S + c*I is (1-c)*tr(S) + c*d) and
        raised to -1/2; the rotated cross block, scaled by them on both
        sides, is the whitened target, whose singular values are rho (one
        stacked SVD for all penalties).  Its singular vectors, scaled again
        and rotated back, are the directions, with signs canonical on the
        left singular vectors in the original coordinates.  A floored null
        direction stays in its own row of the target, so it does not
        perturb the other correlations.
        """
        c = np.asarray(penalties, dtype=float)
        dx, dy, cc = self.wx.size, self.wy.size, c[:, None]
        rx = floored_power((1.0 - cc) * self.wx + cc, (1.0 - c) * self.tx + c * dx, -0.5)
        ry = floored_power((1.0 - cc) * self.wy + cc, (1.0 - c) * self.ty + c * dy, -0.5)
        target = rx[:, :, None] * self.cross * ry[:, None, :]
        left, rho, right_t = np.linalg.svd(target, full_matrices=False)
        a, b = left[:, :, :K], right_t[:, :K].swapaxes(-1, -2)
        signs = canonical_signs(self.qx @ a)[:, None, :]
        u = self.qx @ (rx[:, :, None] * a * signs)
        v = self.qy @ (ry[:, :, None] * b * signs)
        return u, v, rho[:, :K].copy()


def require_pairs(model, K):
    """Raise unless K is in [1, min(p, q)] for ``model``'s view dimensions
    (a dataset or a covariance model)."""
    if K < 1 or K > min(model.p, model.q):
        raise ValueError(f"K={K} outside [1, min(p, q)={min(model.p, model.q)}]")


def cca_from_covariance(cov: CovarianceModel, K, algorithm="exact"):
    """Top-K canonical decomposition of a covariance model:
    ``CovarianceSpectra(cov).solve(K)`` at the one penalty c=0.

    Rank-deficient within-view blocks take the same path as full-rank
    ones, their eigenvalues floored.  When rank(T) < K the remaining pairs
    come from the null-space columns of the SVD and carry zero correlation.
    """
    require_pairs(cov, K)
    [u], [v], [rho] = CovarianceSpectra(cov).solve(K)
    return CcaEstimate(u_dirs=u, v_dirs=v, rho=rho, provenance=Provenance(algorithm=algorithm))


def sample_cca(data: PairedDataset, K):
    """Classical sample CCA on centred data.

    When either view has dimension >= n its within-view covariance is rank
    deficient, a full-row-rank view can reproduce any variate of the other,
    and the leading sample correlations saturate at one; the estimate is
    flagged degenerate rather than rejected.
    """
    _, cov = center_and_covariance(data)
    est = cca_from_covariance(cov, K, algorithm="sample_cca")
    est.provenance.degenerate = max(data.p, data.q) >= data.n
    return est


def empirical_canonical_correlations(zdata, wdata):
    """Canonical correlations between two variate blocks, or between the
    paired blocks of two stacks (leading axes).

    Inputs are treated as mean-zero (the cross-validation contract shifts
    validation variates by training means, so means are deliberately not
    removed here).  Computed by exact CCA on the joint sample covariance of
    the two blocks: each within-block covariance is eigendecomposed, its
    eigenvalues floored by ``floored_power``, and the correlations
    are the singular values of the cross-covariance whitened in those
    eigenbases.  They depend on the Gram matrices of the blocks only up to
    a common scale, so zero rows appended to both blocks of a pair (to
    stack splits of unequal sizes) change nothing.  A stack raises the
    error of its first failing pair.
    """
    z = np.asarray(zdata, dtype=float)
    w = np.asarray(wdata, dtype=float)
    if z.ndim < 2 or z.ndim != w.ndim or z.shape[:-1] != w.shape[:-1]:
        raise ValueError("variate blocks must share the sample axis")
    n = z.shape[-2]
    lead = z.shape[:-2]
    pairs = int(np.prod(lead))
    sq_z = np.einsum("...ij,...ij->...j", z, z).reshape(pairs, z.shape[-1])
    sq_w = np.einsum("...ij,...ij->...j", w, w).reshape(pairs, w.shape[-1])
    zt = z.swapaxes(-1, -2)
    szz, szw, sww = zt @ z / n, zt @ w / n, w.swapaxes(-1, -2) @ w / n
    finite = (np.isfinite(szz).all(axis=(-1, -2)) & np.isfinite(sww).all(axis=(-1, -2)))
    finite = finite.reshape(pairs)
    failing = (sq_z == 0.0).any(axis=1) | (sq_w == 0.0).any(axis=1) | ~finite
    if failing.any():
        b = int(np.argmax(failing))
        for sq, tag in ((sq_z[b], "first"), (sq_w[b], "second")):
            dead = np.flatnonzero(sq == 0.0)
            if dead.size:
                raise ValueError(f"zero-variance column {dead[0]} in {tag} block")
        raise LinalgError("matrix contains non-finite entries")
    k = min(z.shape[-1], w.shape[-1])
    if k < 1:
        raise ValueError(f"K={k} outside [1, min(p, q)={k}]")
    lz, qz = np.linalg.eigh(szz)
    lw, qw = np.linalg.eigh(sww)
    rz = floored_power(lz, np.trace(szz, axis1=-2, axis2=-1), -0.5)
    rw = floored_power(lw, np.trace(sww, axis1=-2, axis2=-1), -0.5)
    t = rz[..., :, None] * (qz.swapaxes(-1, -2) @ szw @ qw) * rw[..., None, :]
    rho = np.linalg.svd(t, compute_uv=False)
    return rho.reshape(lead + rho.shape[-1:])
