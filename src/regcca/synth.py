"""Synthetic covariance constructions and Gaussian sampling.

Three families: canonical pair models (planted sparse direction pairs with
chosen correlations), power-law sparse-precision graphs, and parametric
bootstrap covariances built from a fitted regularised model of seed data.
"""

import numpy as np

from .cca_core import CcaEstimate, Provenance
from .datamodel import CovarianceModel, PairedDataset, center_and_covariance
from .estimators import scca_fit
from .glasso import glasso_fit
from .linalg import gram_schmidt_metric, signed_corrs

__all__ = [
    "canonical_pair_covariance",
    "powerlaw_precision",
    "bootstrap_covariance",
    "mvn_sample",
]


def banded_within_view_precision(m):
    """Tridiagonal-plus-one band matrix: 1 on the diagonal, 0.5 at offset 1,
    0.4 at offset 2.  Positive definite for every m."""
    w = np.eye(m)
    i = np.arange(m - 1)
    w[i, i + 1] = w[i + 1, i] = 0.5
    i = np.arange(m - 2)
    w[i, i + 2] = w[i + 2, i] = 0.4
    return w


def canonical_pair_covariance(p, q, rhos, support_size, within_view="suo_sp", seed=0):
    """Joint covariance with planted canonical pairs, plus the ground truth.

    Within-view blocks are either the inverse of the banded precision above
    ('suo_sp') or identity.  Raw directions are uniform on [-1, 1] over
    disjoint consecutive supports of the given size starting at index 0,
    then orthonormalised under the within-view covariance metric; the
    cross-block is Sxx @ (sum_k rho_k u_k v_k') @ Syy so the planted pairs
    are exactly the canonical decomposition.
    """
    rhos = np.asarray(rhos, dtype=float)
    K = rhos.size
    if K == 0 or np.any(rhos <= 0) or np.any(rhos >= 1):
        raise ValueError("rhos must lie strictly inside (0, 1)")
    if np.any(np.diff(rhos) > 0):
        raise ValueError("rhos must be non-increasing")
    if K * support_size > min(p, q):
        raise ValueError(
            f"support layout infeasible: K*support_size={K * support_size} > min(p, q)={min(p, q)}"
        )
    if within_view not in ("suo_sp", "identity"):
        raise ValueError(f"unknown within_view {within_view!r}")
    if within_view == "suo_sp":
        sxx = np.linalg.inv(banded_within_view_precision(p))
        syy = np.linalg.inv(banded_within_view_precision(q))
    else:
        sxx = np.eye(p)
        syy = np.eye(q)

    rng = np.random.default_rng(seed)

    def directions(dim, metric):
        raw = np.zeros((dim, K))
        for k in range(K):
            block = slice(k * support_size, (k + 1) * support_size)
            raw[block, k] = rng.uniform(-1.0, 1.0, support_size)
        return gram_schmidt_metric(raw, metric)

    u = directions(p, sxx)
    v = directions(q, syy)
    sxy = sxx @ (u * rhos) @ v.T @ syy
    cov = CovarianceModel(sxx=sxx, sxy=sxy, syy=syy)
    truth = CcaEstimate(
        u_dirs=u,
        v_dirs=v,
        rho=rhos.copy(),
        provenance=Provenance(algorithm="canonical_pair_truth", seed=seed),
    )
    return cov, truth


def powerlaw_precision(d, gamma, edge_weight_scale=1.0, seed=0):
    """Sparse PD precision matrix on a preferential-attachment graph.

    The attachment kernel is degree plus an offset chosen so the degree
    distribution has a power-law tail with exponent about gamma (exact at
    gamma=3, the plain preferential-attachment case).  Edge weights are
    signed uniforms; diagonal entries dominate their row by a 10% margin,
    which forces positive definiteness.
    """
    if d < 4:
        raise ValueError("need d >= 4")
    if gamma <= 1:
        raise ValueError("need gamma > 1")
    rng = np.random.default_rng(seed)
    m_edges = 2
    # attachment offset a gives tail exponent 3 + a/m for linear kernels
    offset = max((gamma - 3.0) * m_edges, -m_edges + 0.05)

    adj = np.zeros((d, d), dtype=bool)
    deg = np.zeros(d)
    # seed triangle
    for i, j in ((0, 1), (1, 2), (0, 2)):
        adj[i, j] = adj[j, i] = True
    deg[:3] = 2.0
    for new in range(3, d):
        weights = deg[:new] + offset
        weights = np.maximum(weights, 1e-12)
        k = min(m_edges, new)
        targets = rng.choice(new, size=k, replace=False, p=weights / weights.sum())
        for t in targets:
            adj[new, t] = adj[t, new] = True
            deg[t] += 1.0
        deg[new] += k

    omega = np.zeros((d, d))
    ii, jj = np.nonzero(np.triu(adj, 1))
    signs = rng.choice([-1.0, 1.0], size=ii.size)
    mags = rng.uniform(0.4, 1.0, size=ii.size) * edge_weight_scale
    omega[ii, jj] = omega[jj, ii] = signs * mags
    row_abs = np.sum(np.abs(omega), axis=1)
    np.fill_diagonal(omega, 1.1 * row_abs + 0.5 * edge_weight_scale)
    return omega


def bootstrap_covariance(data: PairedDataset, mode, lam, alpha=None, K=None, return_details=False):
    """Parametric-bootstrap covariance fitted to seed data.

    mode='glasso': inverse of the graphical-lasso precision of the joint
    sample covariance at penalty lam.

    mode='scca_ridge': within-view blocks are C + alpha*I; K sparse-CCA
    pairs at penalty lam are orthonormalised under those ridge blocks and
    the cross-block is rebuilt as Sxx_hat @ U @ D @ V' @ Syy_hat with D the
    empirical variate correlations (sign-corrected, sorted descending), so
    exact CCA on the output recovers D.
    """
    if not data.centred:
        data, cov = center_and_covariance(data)
    else:
        _, cov = center_and_covariance(data)
    if mode == "glasso":
        prec = glasso_fit(cov.joint(), lam)
        out = CovarianceModel.from_joint(prec.sigma, data.p)
        details = {"glasso": prec.diagnostics}
    elif mode == "scca_ridge":
        if alpha is None or K is None:
            raise ValueError("scca_ridge mode needs alpha and K")
        sxx_r = cov.sxx + alpha * np.eye(data.p)
        syy_r = cov.syy + alpha * np.eye(data.q)
        est = scca_fit(data, lam, K)
        u = gram_schmidt_metric(est.u_dirs, sxx_r)
        v = gram_schmidt_metric(est.v_dirs, syy_r)
        d_hat = signed_corrs(data.x @ u, data.y @ v)
        v = np.where(d_hat < 0, -v, v)
        d_hat = np.abs(d_hat)
        order = np.argsort(d_hat)[::-1]
        u, v, d_hat = u[:, order], v[:, order], d_hat[order]
        sxy_hat = sxx_r @ (u * d_hat) @ v.T @ syy_r
        out = CovarianceModel(sxx=sxx_r, sxy=sxy_hat, syy=syy_r)
        details = {"d_hat": d_hat, "u": u, "v": v, "scca": est.provenance.info}
    else:
        raise ValueError(f"unknown bootstrap mode {mode!r}")
    if return_details:
        return out, details
    return out


def mvn_sample(cov: CovarianceModel, n, seed=0):
    """n i.i.d. multivariate-normal rows from a covariance model.

    Draws through the symmetric square root of the joint matrix, so output
    is deterministic per seed.  Rows are raw (not centred).
    """
    joint = cov.joint()
    w, qmat = np.linalg.eigh(0.5 * (joint + joint.T))
    scale = max(1.0, float(w[-1]))
    if w[0] < -1e-10 * scale:
        raise ValueError(f"joint covariance not PSD: min eigenvalue {w[0]:.3e}")
    root = (qmat * np.sqrt(np.clip(w, 0.0, None))) @ qmat.T
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, joint.shape[0]))
    samples = z @ root
    return PairedDataset(x=samples[:, : cov.p], y=samples[:, cov.p :])
