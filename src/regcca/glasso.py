"""Graphical Lasso by Anderson-accelerated ADMM and a Newton polish, with a
KKT stationarity certificate.

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

The ADMM converges linearly, and its last digits cost most of its
eigendecompositions.  Once the KKT residual of an ADMM iterate omega is at
most POLISH_HANDOFF, the fit hands off to a Newton polish, the active-set
second-order step of QUIC (Hsieh, Sustik, Dhillon & Ravikumar 2014):
with the support and the off-diagonal signs s of omega frozen, the
objective is smooth,

    -log det X + trace(C X) + lam * sum_{i != j} s_ij X_ij   on the support,

and Newton steps from omega converge quadratically.  Each step is solved
inexactly by preconditioned conjugate gradients (Dembo, Eisenstat &
Steihaug 1982) on the Hessian product W D W, W = inv(X), and shortened
until X stays positive definite; no Hessian is formed.  The polish runs in
active-set rounds, in the manner of the semismooth-Newton lasso solvers
(Li, Sun & Toh 2018): an entry whose frozen sign a step flips is dropped
from the support, and once a round has settled on its support the
off-support entries that violate the stationarity conditions join it.  The
polished X is returned only when its KKT residual, by the formula of
``kkt_residual``, is at most tol: the certificate of the ADMM.  Otherwise
the ADMM continues from its own state, untouched, and the next polish
waits until the ADMM's KKT residual has fallen tenfold (``linalg.HandOff``,
the rule scca's pair finish follows too).
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import AndersonMemory, HandOff, soft_threshold

__all__ = ["PrecisionEstimate", "GlassoConvergenceError", "glasso_fit", "kkt_residual"]

# Anderson memory: how many recent fixed-point residuals are mixed.
ANDERSON_MEMORY = 5
# KKT residual of an ADMM iterate at which the Newton polish is first tried;
# with active-set rounds, on the criterion-3 (d=60) and panel fold (d=90)
# covariances, 0.1 took fewer eigendecompositions and less CPU than 3e-2
# and 1e-3, which reach the polish later, for more CG products
POLISH_HANDOFF = 0.1
# the polish aims at a KKT residual of POLISH_DEPTH * tol, near the rounding
# floor, so that its result does not depend on where its CG solves stopped:
# polished at tol itself, gcca fits of permuted variables differed by up to
# 1e-6 where the ADMM's agree to 1e-10
POLISH_DEPTH = 1e-5
# a round that may not be the last settles at this largest gradient entry on
# its support: deep enough to tell which entries its support lacks
ROUND_DEPTH = 1e-3
# caps of one polish: its active-set rounds, its Newton steps, and the CG
# steps of one Newton step
POLISH_ROUNDS = 12
NEWTON_STEPS = 20
CG_STEPS = 200


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


def _violation(g, omega, lam):
    """Max entrywise violation of the GLasso stationarity conditions at
    omega, given G = inv(omega) - C."""
    g = 0.5 * (g + g.T)
    violation = np.where(omega == 0.0, np.abs(g) - lam, np.abs(g - lam * np.sign(omega)))
    np.fill_diagonal(violation, np.abs(np.diagonal(g)))
    return max(float(np.max(violation)), 0.0)


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
    return _violation(inv - c, omega, lam)


def _newton_cg(omega, w, grad, support, eta):
    """Preconditioned CG on the Newton system of the polish at omega (with
    inverse w): (W D W) restricted to the support = -grad.  The
    preconditioner is (Omega R Omega) restricted to the support, the exact
    inverse of the Hessian W D W when the support is full, and positive
    definite on any support.  Each CG step costs four d x d products, two
    for the Hessian and two for the preconditioner.  Stops once the
    residual norm is at most eta * ||grad||, or after CG_STEPS steps.
    Returns the symmetric step D and the number of CG steps."""
    target = eta * float(np.linalg.norm(grad))
    delta = np.zeros_like(grad)
    r = -grad
    z = np.where(support, omega @ r @ omega, 0.0)
    p = z
    rz = float(np.vdot(r, z))
    steps = 0
    while steps < CG_STEPS and float(np.linalg.norm(r)) > target:
        hp = np.where(support, w @ p @ w, 0.0)
        alpha = rz / float(np.vdot(p, hp))
        delta += alpha * p
        r -= alpha * hp
        z = np.where(support, omega @ r @ omega, 0.0)
        rz, rz_old = float(np.vdot(r, z)), rz
        p = z + (rz / rz_old) * p
        steps += 1
    return 0.5 * (delta + delta.T), steps


def _newton_polish(c, omega, w, lam, tol):
    """Active-set Newton rounds from omega (PD, with inverse w); see the
    module docstring.

    A round takes Newton steps on a frozen support and frozen off-diagonal
    signs.  A step that flips a frozen sign sets that entry to zero and
    drops it from the support, which starts a new round.  A round has
    settled once the largest gradient entry on its support is at most
    ROUND_DEPTH, or POLISH_DEPTH * tol in the last round; the off-support
    entries with |G_ij| > lam, G = inv(omega) - C, then join the support
    with the sign of G_ij and a new round starts.  When there are none, the
    next round is the last: it aims at a KKT residual of POLISH_DEPTH * tol
    on the same support.  The forcing term of each inexact Newton step is
    min(0.5, max |grad|), so the steps converge quadratically.  The polish
    stops when the KKT residual is at most POLISH_DEPTH * tol, when the last
    round has settled with nothing to add, or at the cap of POLISH_ROUNDS
    rounds or NEWTON_STEPS steps.

    Returns (omega, w, kkt) of the last iterate, w its inverse, when its KKT
    residual is at most tol and None when it is not; then the Newton steps,
    the d x d products of CG and the rounds taken.
    """
    signs = np.sign(omega)
    deep = POLISH_DEPTH * tol
    loose = target = max(ROUND_DEPTH, deep)
    kkt = _violation(w - c, omega, lam)
    steps = products = 0
    rounds = 1
    while steps < NEWTON_STEPS and kkt > deep:
        support = signs != 0.0
        penalty = lam * signs
        np.fill_diagonal(penalty, 0.0)
        grad = np.where(support, c - w + penalty, 0.0)
        largest = float(np.max(np.abs(grad)))
        if largest <= target:
            g = 0.5 * (w + w.T) - c
            outside = ~support & (np.abs(g) > lam)
            if not outside.any():
                if target == deep:
                    # what is left of the residual is rounding
                    break
                target = deep
            elif rounds == POLISH_ROUNDS:
                break
            else:
                signs[outside] = np.sign(g[outside])
                target = loose
                rounds += 1
            continue
        delta, cg_steps = _newton_cg(omega, w, grad, support, min(0.5, largest))
        steps += 1
        products += 4 * cg_steps
        t = 1.0
        while True:
            candidate = omega + t * delta
            # off the support omega stays exactly zero; an entry that
            # crossed zero is set to it, and a PD diagonal stays positive
            flipped = np.sign(candidate) != signs
            candidate[flipped] = 0.0
            inv = _pd_inverse(candidate)
            if inv is not None:
                break
            t *= 0.5
        omega, w = candidate, inv
        kkt = _violation(w - c, omega, lam)
        if flipped.any():
            if rounds == POLISH_ROUNDS:
                break
            signs[flipped] = 0.0
            target = loose
            rounds += 1
    return ((omega, w, kkt) if kkt <= tol else None), steps, products, rounds


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
    Gaussian log-likelihood, finished by a Newton polish (see the module
    docstring for both).

    Each iteration costs one eigendecomposition; ``AndersonMemory`` decides
    between the extrapolation and the plain ADMM step.  The KKT
    residual of the symmetrised iterate is checked every 10 iterations, and
    whenever both ADMM residuals fall below 10 * tol; the solve stops as
    soon as it is at most ``tol``.  A check whose residual is at most
    POLISH_HANDOFF (at first; after a rejected polish, a tenth of the
    residual at that polish: ``linalg.HandOff``) hands the iterate to the
    Newton polish, at most POLISH_ROUNDS active-set rounds and NEWTON_STEPS
    steps of at most CG_STEPS CG steps each, whose last round aims at a
    residual of POLISH_DEPTH * tol.  Its result is returned when it
    certifies by the same KKT residual and ``tol``; otherwise the ADMM
    continues.  Either way the returned precision has a KKT residual of at
    most ``tol``, as ``kkt_residual`` computes it; ``sigma`` is the
    symmetrised inverse that the certifying check or polish step computed.

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

    The returned ``diagnostics`` hold ``iterations`` (the ADMM's
    eigendecompositions, including those spent on rejected extrapolations),
    ``extrapolations_accepted`` and ``extrapolations_rejected`` (Anderson
    steps kept and dropped by the safeguard), the last ADMM ``primal_residual``
    and ``dual_residual``, the ``kkt_residual`` of the returned precision,
    the final ``rho``, ``newton_steps`` and ``cg_products`` (Newton steps
    and the d x d matrix products of their CG solves, four per CG step,
    over every polish, rejected ones included), ``polish_rounds`` (the
    active-set rounds of every polish), ``polished`` (whether the
    returned precision is the polish's) and ``converged``.
    ``GlassoConvergenceError.diagnostics`` holds the same keys.
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
    polish = None
    handoff = HandOff(POLISH_HANDOFF)
    newton_steps = cg_products = polish_rounds = 0
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
            omega = 0.5 * (z + z.T)
            inv = _pd_inverse(omega)
            kkt = np.inf if inv is None else _violation(inv - c, omega, lam)
            if kkt <= tol:
                break
            if handoff.due(kkt):
                polish, steps, products, rounds = _newton_polish(c, omega, inv, lam, tol)
                newton_steps += steps
                cg_products += products
                polish_rounds += rounds
                if polish is not None:
                    omega, inv, kkt = polish
                    break

        if factor != 1.0:
            # rescale U = S - Z to the new rho, a new map for the memory
            rho *= factor
            s = z + (s - z) / factor

    diagnostics = {
        "iterations": it,
        "extrapolations_accepted": memory.accepted,
        "extrapolations_rejected": memory.rejected,
        "primal_residual": primal,
        "dual_residual": dual,
        "kkt_residual": kkt,
        "rho": rho,
        "newton_steps": newton_steps,
        "cg_products": cg_products,
        "polish_rounds": polish_rounds,
        "polished": polish is not None,
        "converged": kkt <= tol,
    }
    if kkt > tol:
        raise GlassoConvergenceError(
            f"glasso did not certify in {max_iter} iterations "
            f"(kkt_residual={kkt:.3e} > tol={tol:.1e})",
            diagnostics,
        )
    # the certificate inverted omega by its Cholesky factor, so it is PD
    sigma = 0.5 * (inv + inv.T)
    return PrecisionEstimate(omega=omega, sigma=sigma, lam=float(lam), diagnostics=diagnostics)
