"""Graphical Lasso by Anderson-accelerated ADMM with a KKT stationarity certificate.

Solves, for symmetric input C and penalty lam > 0,

    maximise_{Omega PD}  log det(Omega) - trace(C @ Omega) - lam * ||offdiag(Omega)||_1

Diagonal entries are never penalised.

The solver is scaled ADMM on the split X = Z, written as the equivalent
Douglas-Rachford fixed-point iteration on S = Z + U (U the scaled dual):

    Z    = soft(S, lam / rho)          off-diagonal soft-threshold, diagonal kept
    X    = logdet-prox(2 Z - S, rho)   exact, by one symmetric eigendecomposition
    T(S) = X + S - Z

Taking S <- T(S) at every step is plain ADMM.  ``linalg.AndersonMemory``
accelerates it by type-II Anderson mixing of the last few images T(S_j),
with its safeguard, which keeps the method no worse than ADMM.

rho is adapted by residual balancing (factor 2 when one ADMM residual
exceeds the other tenfold), which rescales U; the memory is keyed by rho.
Convergence is certified by the first-order optimality (KKT) residual, not
by the ADMM or fixed-point residuals.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import AndersonMemory, soft_threshold

__all__ = ["PrecisionEstimate", "GlassoConvergenceError", "glasso_fit", "kkt_residual"]

# Anderson memory: how many recent fixed-point residuals are mixed.
ANDERSON_MEMORY = 5


class GlassoError(ValueError):
    """Invalid input to the graphical lasso."""


class GlassoConvergenceError(RuntimeError):
    """Solver hit max_iter before the KKT residual reached tolerance."""

    def __init__(self, message, diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass
class PrecisionEstimate:
    """GLasso output: precision matrix, its inverse and solver diagnostics."""

    omega: np.ndarray
    sigma: np.ndarray
    lam: float
    diagnostics: dict = field(default_factory=dict)


def _pd_inverse(a):
    """Inverse of a symmetric matrix from its Cholesky factor L, as
    inv(L).T @ inv(L); None when the matrix is not positive definite."""
    try:
        factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    inv_factor = np.linalg.inv(factor)
    return inv_factor.T @ inv_factor


def kkt_residual(c, omega, lam):
    """Max entrywise violation of the GLasso stationarity conditions.

    With G = inv(omega) - C the conditions are: G_ii = 0 on the diagonal;
    |G_ij| <= lam where omega_ij = 0; G_ij = lam * sign(omega_ij) on
    nonzero off-diagonal entries.
    """
    c = np.asarray(c, dtype=float)
    omega = np.asarray(omega, dtype=float)
    inv = _pd_inverse(omega)
    if inv is None:
        raise GlassoError("omega is not positive definite")
    g = inv - c
    g = 0.5 * (g + g.T)
    violation = np.where(omega == 0.0, np.abs(g) - lam, np.abs(g - lam * np.sign(omega)))
    np.fill_diagonal(violation, np.abs(np.diagonal(g)))
    return max(float(np.max(violation)), 0.0)


def _penalty_prox(s, thr):
    """Soft-threshold the off-diagonal entries; keep the diagonal."""
    z = soft_threshold(s, thr)
    np.fill_diagonal(z, np.diagonal(s))
    return z


def _logdet_prox(v, c, rho):
    """argmin_X -log det X + trace(C X) + rho/2 ||X - v||^2, by one eigh."""
    w, q = np.linalg.eigh(rho * v - c)
    xi = (w + np.sqrt(w**2 + 4.0 * rho)) / (2.0 * rho)
    x = (q * xi) @ q.T
    return 0.5 * (x + x.T)


def glasso_fit(c, lam, tol=1e-7, max_iter=5000):
    """Anderson-accelerated ADMM solve of the off-diagonal l1-penalised
    Gaussian log-likelihood (see the module docstring for the iteration).

    Each iteration costs one eigendecomposition; ``AndersonMemory`` decides
    between the extrapolation and the plain ADMM step.  The KKT
    residual of the symmetrised iterate is checked every 10 iterations, and
    whenever both ADMM residuals fall below 10 * tol; the solve stops as
    soon as it is at most ``tol``.

    Parameters
    ----------
    c : symmetric PSD matrix
        Sample covariance (or any symmetric PSD surrogate).
    lam : float
        Positive penalty on off-diagonal entries.
    tol : float
        Target on the KKT residual; reaching it certifies optimality.
    max_iter : int
        Iteration cap; exceeding it raises GlassoConvergenceError.

    The ADMM penalty rho starts at 1 and is rescaled by residual balancing
    (see the module docstring); other starting values gave no speed-up.

    The returned ``diagnostics`` hold ``iterations`` (eigendecompositions,
    including those spent on rejected extrapolations),
    ``extrapolations_accepted`` and ``extrapolations_rejected`` (Anderson
    steps kept and dropped by the safeguard), the last ADMM ``primal_residual``
    and ``dual_residual``, the ``kkt_residual``, the final ``rho`` and
    ``converged``.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise GlassoError(f"C must be square, got {c.shape}")
    scale = max(1.0, float(np.max(np.abs(c))))
    if float(np.max(np.abs(c - c.T))) > 1e-8 * scale:
        raise GlassoError("C must be symmetric")
    if not np.all(np.isfinite(c)):
        raise GlassoError("C contains non-finite entries")
    if lam <= 0:
        raise GlassoError("lam must be positive")
    c = 0.5 * (c + c.T)

    rho = 1.0
    diag = np.maximum(np.diagonal(c), 1e-12)
    s = np.diag(1.0 / diag)
    z = s.copy()
    memory = AndersonMemory(c.shape, ANDERSON_MEMORY)

    primal = dual = np.inf
    kkt = np.inf
    it = 0
    check_every = 10
    for it in range(1, max_iter + 1):
        x = _logdet_prox(2.0 * z - s, c, rho)
        f = x - z
        res = float(np.linalg.norm(f))
        factor = 1.0
        if memory.rejects(res):
            # the plain step from the base point is already evaluated, so
            # there are no new ADMM residuals to balance
            s = memory.base_image
            z = _penalty_prox(s, lam / rho)
        else:
            image = s + f
            z_plain = _penalty_prox(image, lam / rho)
            primal = float(np.linalg.norm(x - z_plain))
            dual = float(np.linalg.norm(rho * (z_plain - z)))
            memory.accept(f, image, res, rho)
            # residual balancing keeps the two ADMM residuals comparable
            if primal > 10.0 * dual:
                factor = 2.0
            elif dual > 10.0 * primal:
                factor = 0.5
            s = memory.next_point(image, mix=factor == 1.0)
            z = _penalty_prox(s, lam / rho) if memory.extrapolated else z_plain

        if it % check_every == 0 or (primal < tol * 10 and dual < tol * 10):
            try:
                kkt = kkt_residual(c, 0.5 * (z + z.T), lam)
            except GlassoError:
                kkt = np.inf
            if kkt <= tol:
                break

        if factor != 1.0:
            # rescale U = S - Z to the new rho, a new map for the memory
            rho *= factor
            s = z + (s - z) / factor

    omega = 0.5 * (z + z.T)
    diagnostics = {
        "iterations": it,
        "extrapolations_accepted": memory.accepted,
        "extrapolations_rejected": memory.rejected,
        "primal_residual": primal,
        "dual_residual": dual,
        "kkt_residual": kkt,
        "rho": rho,
        "converged": kkt <= tol,
    }
    if kkt > tol:
        raise GlassoConvergenceError(
            f"glasso did not certify in {max_iter} iterations "
            f"(kkt_residual={kkt:.3e} > tol={tol:.1e})",
            diagnostics,
        )
    sigma = _pd_inverse(omega)
    if sigma is None:
        raise GlassoConvergenceError(
            "converged iterate is not PD (Cholesky factorisation failed)", diagnostics
        )
    sigma = 0.5 * (sigma + sigma.T)
    return PrecisionEstimate(omega=omega, sigma=sigma, lam=float(lam), diagnostics=diagnostics)
