"""Exact canonical decomposition of a covariance model and sample CCA.

The decomposition goes through the whitened target ``T = Sxx^{-1/2} Sxy
Syy^{-1/2}``: singular values of T are the canonical correlations and its
singular vectors, unwhitened, are the canonical direction pairs.
"""

from dataclasses import dataclass, field

import numpy as np

from .datamodel import CovarianceModel, PairedDataset, center_and_covariance
from .linalg import LinalgError, eigenvalue_floor, sym_matrix_power, thin_svd

__all__ = [
    "Provenance",
    "CcaEstimate",
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

    def top(self, k):
        """Restriction to the leading k pairs."""
        if k > self.k:
            raise ValueError(f"estimate holds {self.k} pairs, asked for {k}")
        return CcaEstimate(
            u_dirs=self.u_dirs[:, :k],
            v_dirs=self.v_dirs[:, :k],
            rho=self.rho[:k],
            provenance=self.provenance,
        )


def cca_from_covariance(cov: CovarianceModel, K, floor_eps=None, algorithm="exact"):
    """Top-K canonical decomposition of a covariance model.

    Within-view blocks are inverted through ``sym_matrix_power`` with
    eigenvalue flooring, so rank-deficient blocks take the same code path
    as full-rank ones.  When rank(T) < K the remaining pairs come from the
    null-space columns of the thin SVD and carry zero correlation.
    """
    if K < 1 or K > min(cov.p, cov.q):
        raise ValueError(f"K={K} outside [1, min(p, q)={min(cov.p, cov.q)}]")
    rx = sym_matrix_power(cov.sxx, -0.5, floor_eps)
    ry = sym_matrix_power(cov.syy, -0.5, floor_eps)
    t = rx @ cov.sxy @ ry
    dec = thin_svd(t)
    u = rx @ dec.left[:, :K]
    v = ry @ dec.right[:, :K]
    rho = dec.singular_values[:K].copy()
    return CcaEstimate(
        u_dirs=u,
        v_dirs=v,
        rho=rho,
        provenance=Provenance(
            algorithm=algorithm,
            info={"floor_eps": "default" if floor_eps is None else float(floor_eps)},
        ),
    )


def sample_cca(data: PairedDataset, K, floor_eps=None):
    """Classical sample CCA on centred data.

    When either view has dimension >= n its within-view covariance is rank
    deficient, a full-row-rank view can reproduce any variate of the other,
    and the leading sample correlations saturate at one; the estimate is
    flagged degenerate rather than rejected.
    """
    if not data.centred:
        data, cov = center_and_covariance(data)
    else:
        _, cov = center_and_covariance(data)
    est = cca_from_covariance(cov, K, floor_eps, algorithm="sample_cca")
    est.provenance.degenerate = max(data.p, data.q) >= data.n
    return est


def _whitening(s):
    """Eigenvectors of a stack of covariances and their floored eigenvalues
    to the power -1/2."""
    lam, q = np.linalg.eigh(s)
    floor = eigenvalue_floor(np.trace(s, axis1=-2, axis2=-1), s.shape[-1])
    return q, np.maximum(lam, np.expand_dims(floor, -1)) ** -0.5


def empirical_canonical_correlations(zdata, wdata):
    """Canonical correlations between two variate blocks, or between the
    paired blocks of two stacks (leading axes).

    Inputs are treated as mean-zero (the cross-validation contract shifts
    validation variates by training means, so means are deliberately not
    removed here).  Computed by exact CCA on the joint sample covariance of
    the two blocks: each within-block covariance is eigendecomposed, its
    eigenvalues floored as in ``sym_matrix_power``, and the correlations
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
    qz, rz = _whitening(szz)
    qw, rw = _whitening(sww)
    t = rz[..., :, None] * (qz.swapaxes(-1, -2) @ szw @ qw) * rw[..., None, :]
    rho = np.linalg.svd(t, compute_uv=False)
    return rho.reshape(lead + rho.shape[-1:])
