"""The four regularised CCA estimators behind one interface, plus sweeps.

rcca   ridge-regularised CCA: plug-in CCA on (1-c)*C + c*I within-view blocks;
       c=0 is sample CCA, c=1 is PLS (an SVD of the cross-covariance).  The
       blocks share the eigenvectors of C, so a penalty path needs one
       eigendecomposition per view.
spls   penalised matrix decomposition with Euclidean-metric constraints and
       rank-one deflation; not a true CCA method.
scca   l1-penalised CCA with covariance-metric constraints, solved by
       interleaved linearised-ADMM blocks with dual recycling, finished by
       active-set Newton rounds and certified by a KKT residual per pair.
gcca   graphical-lasso plug-in: estimate the joint precision, invert, run
       exact CCA on the implied covariance.

Every fit returns through ``_estimate``: direction columns rescaled to unit
empirical variance of the training variates, rho their signed correlations
(rcca and gcca pass their canonical correlations) and degenerate when a
column is zero, so estimates are directly comparable across methods.
"""

import inspect
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cca_core import CcaEstimate, CovarianceSpectra, Provenance, cca_from_covariance, require_pairs
from .datamodel import (
    CovarianceModel,
    FoldPlan,
    PairedDataset,
    center_and_covariance,
    read_csv_table,
    split_fold,
    write_csv_table,
    write_json,
)
from .glasso import GlassoConvergenceError, glasso_fit
from .linalg import HandOff, signed_corrs, soft_threshold, thin_svd

__all__ = [
    "EstimatorSpec",
    "TrajectoryResult",
    "rcca_fit",
    "spls_fit",
    "scca_fit",
    "scca_kkt_residuals",
    "gcca_fit",
    "fit_estimator",
    "fit_options",
    "require_options",
    "require_penalty",
    "require_grid",
    "sweep_trajectory",
    "save_estimate",
    "load_estimate",
]

KINDS = ("rcca", "spls", "scca", "gcca")

# kind -> (lower bound, upper bound, whether the lower bound is excluded)
_PENALTY_RANGES = {
    "rcca": (0.0, 1.0, False),
    "spls": (1.0, np.inf, False),
    "scca": (0.0, np.inf, False),
    "gcca": (0.0, np.inf, True),
}


def penalty_in_domain(kind, penalty):
    """Whether ``penalty`` is legal for ``kind``: inside its range in
    ``_PENALTY_RANGES``."""
    lo, hi, open_lo = _PENALTY_RANGES[kind]
    return (lo < penalty if open_lo else lo <= penalty) and penalty <= hi


def require_penalty(kind, penalty):
    """Raise unless ``penalty`` is in ``kind``'s domain, naming the domain."""
    if not penalty_in_domain(kind, penalty):
        lo, hi, open_lo = _PENALTY_RANGES[kind]
        raise ValueError(f"{kind} penalty {penalty} outside {'(' if open_lo else '['}{lo}, {hi}]")


def require_grid(grid):
    """``grid`` as a list; a penalty grid must be nonempty and strictly monotone."""
    grid = list(grid)
    if not grid:
        raise ValueError("penalty grid must be nonempty")
    diffs = np.diff(np.asarray(grid, dtype=float))
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValueError("penalty grid must be strictly monotone")
    return grid


@dataclass
class EstimatorSpec:
    """One estimator: kind, tied penalty, number of pairs and solver knobs."""

    kind: str
    penalty: float
    K: int
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        require_penalty(self.kind, self.penalty)
        if self.K < 1:
            raise ValueError("K must be at least 1")


def _require_centred(data: PairedDataset):
    if not data.centred:
        raise ValueError("estimator expects centred data; run center_and_covariance first")


def _require_fit_inputs(kind, penalty, data: PairedDataset, K, options=None):
    """What every fit requires: a penalty in the kind's domain, solver
    ``options`` in their ranges, centred data and K in [1, min(p, q)]."""
    require_penalty(kind, penalty)
    require_options(kind, options or {})
    _require_centred(data)
    require_pairs(data, K)


def _unit_variance_columns(dirs, data_matrix):
    """Rescale columns so the training variates have unit empirical variance
    (divisor n)."""
    z = data_matrix @ dirs
    var = np.einsum("ij,ij->j", z, z) / data_matrix.shape[0]
    return dirs / np.sqrt(np.where(var > 0, var, 1.0))


def _estimate(kind, penalty, data: PairedDataset, u, v, rho=None, degenerate=False,
              converged=True, info=None):
    """The estimate of a fit's direction columns ``u`` and ``v`` on its
    training ``data``: the columns rescaled to unit variance, rho the signed
    correlations of the variates unless the fit passes it, and degenerate
    when the fit says so or any direction column is zero."""
    if rho is None:
        rho = signed_corrs(data.x @ u, data.y @ v)
    zero = ~u.any(axis=0) | ~v.any(axis=0)
    prov = Provenance(algorithm=kind, penalty=float(penalty), converged=converged,
                      degenerate=bool(degenerate or zero.any()), info=info or {})
    return CcaEstimate(_unit_variance_columns(u, data.x), _unit_variance_columns(v, data.y),
                       rho, prov)


# ---------------------------------------------------------------------------
# ridge CCA
# ---------------------------------------------------------------------------

def rcca_fit(data: PairedDataset, c, K):
    """Ridge-regularised CCA with tied penalty c in [0, 1].

    Plug-in CCA on the covariance model with within-view blocks
    (1-c)*Cxx + c*I; rho holds the singular values of the regularised
    whitened target (sample canonical correlations at c=0, singular values
    of Cxy at c=1).

    The target is whitened in the eigenbases of Cxx and Cyy
    (``CovarianceSpectra.solve``), so a penalty costs one SVD of a p x q
    matrix, and a penalty path (``_rcca_path``) shares one
    eigendecomposition per view.
    """
    _require_fit_inputs("rcca", c, data, K)
    [est] = _rcca_path(data, [c], K)
    return est


def _rcca_path(data: PairedDataset, penalties, K):
    """The rcca estimates of checked ``penalties`` on ``data``, from one
    ``CovarianceSpectra`` and one stacked solve: those of ``rcca_fit`` bit
    for bit."""
    spectra = CovarianceSpectra(center_and_covariance(data)[1])
    return [_estimate("rcca", c, data, u, v, rho)
            for c, u, v, rho in zip(penalties, *spectra.solve(K, penalties))]


# ---------------------------------------------------------------------------
# sparse PLS (penalised matrix decomposition)
# ---------------------------------------------------------------------------

def _l1_ball_unit_vector(z, s):
    """argmax u.z subject to ||u||_2 <= 1 and ||u||_1 <= s, for s >= 1.

    The solution is the soft-threshold S(z, delta) renormalised to the unit
    sphere, with delta = 0 when the l1 constraint is slack and otherwise the
    exact threshold at which ||S||_1 / ||S||_2 = s (Witten, Tibshirani &
    Hastie 2009).  With |z| sorted in descending order, the ratio falls
    continuously as delta grows; cumulative sums of |z| and |z|^2 give it at
    every breakpoint, which locates the support size k, and on that bracket
    the ratio equation is a quadratic in delta:

        delta = m - s * sqrt(V / (k * (k - s^2)))

    where m and V are the mean and the sum of squared deviations of the k
    largest |z|.  When m > s^2 entries tie for the largest |z| no
    threshold meets the radius; sign(z)*s/m on the tied entries is then a
    maximiser: its l1 norm is s, its l2 norm s/sqrt(m) < 1, and it attains
    the bound u.z <= s*max|z| of the l1 ball.
    """
    z = np.asarray(z, dtype=float)
    if float(np.max(np.abs(z))) == 0.0:
        return np.zeros_like(z)
    u = z / np.linalg.norm(z)
    if np.sum(np.abs(u)) <= s:
        return u
    a = np.sort(np.abs(z[z != 0.0]))[::-1]
    s2 = s * s
    m = np.count_nonzero(a == a[0])
    if m > s2:
        return np.where(np.abs(z) == a[0], np.sign(z) * (s / m), 0.0)
    sizes = np.arange(1, a.size + 1)
    nxt = np.append(a[1:], 0.0)
    cum = np.cumsum(a)
    mean = cum / sizes
    dev = np.maximum(np.cumsum(a * a) - cum * mean, 0.0)
    # support size k keeps delta in [a[k], a[k-1]); the first nonempty
    # bracket whose ratio at delta = a[k] reaches s holds the threshold.  The
    # last bracket reaches it at delta = 0 (the constraint is not slack), so
    # it is the answer whenever rounding hides the crossing.
    reaches = (nxt < a) & (sizes * (sizes - s2) * (mean - nxt) ** 2 >= s2 * dev)
    reaches[-1] = True
    k = int(np.argmax(reaches)) + 1
    lo, hi = float(nxt[k - 1]), float(a[k - 1])
    if k <= s2:
        delta = lo
    else:
        m = float(mean[k - 1])
        v = float(np.sum((a[:k] - m) ** 2))
        delta = min(max(m - s * math.sqrt(v / (k * (k - s2))), lo), hi)
    u = soft_threshold(z, delta)
    nrm = np.linalg.norm(u)
    return u / nrm if nrm > 0 else u


def _pmd_pair(cmat, s, max_sweeps=200, tol=1e-9):
    """Leading penalised singular pair of cmat by alternating maximisation."""
    _, sv, right = thin_svd(cmat)
    if sv.size == 0 or sv[0] == 0.0:
        p, q = cmat.shape
        return np.zeros(p), np.zeros(q), 0.0, True
    v = right[:, 0].copy()
    u = np.zeros(cmat.shape[0])
    converged = False
    for _ in range(max_sweeps):
        u_new = _l1_ball_unit_vector(cmat @ v, s)
        v_new = _l1_ball_unit_vector(cmat.T @ u_new, s)
        converged = bool(np.linalg.norm(u_new - u) < tol and np.linalg.norm(v_new - v) < tol)
        u, v = u_new, v_new
        if converged:
            break
    d = float(u @ cmat @ v)
    return u, v, d, converged


def spls_fit(data: PairedDataset, s, K, max_sweeps=200, tol=1e-9):
    """Sparse PLS: penalised rank-one fits of the deflated cross-covariance.

    Each pair maximises u.Cxy.v under unit l2 norms and l1 radius s, then the
    fitted rank-one term d*u*v' is subtracted before extracting the next
    pair.  rho records the empirical correlation of the fitted variates, not
    the deflation scalar, so correlation metrics compare like-for-like with
    the CCA methods.
    """
    _require_fit_inputs("spls", s, data, K, {"max_sweeps": max_sweeps, "tol": tol})
    _, cov = center_and_covariance(data)
    cmat = cov.sxy.copy()
    us, vs = [], []
    all_converged = True
    for _ in range(K):
        u, v, d, ok = _pmd_pair(cmat, s, max_sweeps, tol)
        all_converged &= ok
        us.append(u)
        vs.append(v)
        cmat = cmat - d * np.outer(u, v)
    return _estimate("spls", s, data, np.column_stack(us), np.column_stack(vs),
                     converged=all_converged)


# ---------------------------------------------------------------------------
# sparse CCA by interleaved linearised ADMM
# ---------------------------------------------------------------------------

def _step_bound(block):
    """||block||^2, the linearised-ADMM step bound: the largest eigenvalue of
    the Gram matrix block.T @ block, exactly."""
    return float(np.linalg.eigvalsh(block.T @ block)[-1])


def _ladmm_block(u, z, xi, xt, xdata, c, tau, mu, n_steps):
    """n_steps linearised-ADMM updates for one weight vector.

    xt stacks the data rows with the orthogonality-constraint rows; xdata is
    the plain data block (first rows of xt), in ``scca_fit`` the thin-QR
    factor of the data.  The dual update uses the full constraint residual,
    which reduces to x.u - z for the first pair.

    Each step costs two mat-vecs: the constraint residual r = xt.u - (z, 0)
    that closes a step is the one that opens the next (u and z have not
    moved in between), so it is carried across steps, and the z-update reads
    x.u from the same product.  The iterates are those of the four-mat-vec
    step bit for bit when xt is the data block (the first pair); below
    constraint rows, BLAS may round the leading entries of xt.u in the last
    place differently from xdata.u.  xi is updated in place.
    """
    n = xdata.shape[0]
    shift = mu * c
    thr = mu * tau
    r = xt @ u
    r[:n] -= z
    for _ in range(n_steps):
        u = soft_threshold(u - mu * (xt.T @ (r + xi)) + shift, thr)
        r = xt @ u
        w = r[:n] + xi[:n]
        nw = math.sqrt(w @ w)
        z = w / nw if nw > 1.0 else w
        r[:n] -= z
        xi += r
    return u, z, xi


def _fresh_duals(w, xt, n):
    """Duals restarted from the weight w: z, x.w (the first n rows of xt.w)
    projected on the unit ball, and the constraint residual xi = xt.w - (z, 0)."""
    xi = xt @ w
    z = xi[:n].copy()
    nz = np.linalg.norm(z)
    if nz > 1.0:
        z = z / nz
    xi[:n] -= z
    return z, xi


def _scca_init(cxy, tau, k):
    """k-th singular pair of the soft-thresholded cross-covariance.

    Falls back to the unthresholded SVD when thresholding leaves too little
    rank behind.
    """
    left, sv, right = thin_svd(soft_threshold(cxy, tau))
    if sv.size > k - 1 and sv[k - 1] > 0:
        return left[:, k - 1].copy(), right[:, k - 1].copy()
    left, _, right = thin_svd(cxy)
    return left[:, k - 1].copy(), right[:, k - 1].copy()


def _thin_factor(block):
    """The R factor of a thin QR of a data block: min(n, p) rows with the
    block's Gram matrix, on which the LADMM blocks run in place of the n
    data rows."""
    return np.linalg.qr(block, mode="r")


def _view_kkt(gram, c, w, w_prev, tau):
    """KKT residual of one view's subproblem at w, the other view fixed.

    w minimises -w.c + tau*||w||_1 subject to w.G.w <= 1 and W_prev.T G w = 0
    when 0 is in -c + tau*d||w||_1 + gamma*G.w + G.W_prev.eta with gamma >= 0.
    gamma and eta are fitted by least squares on the support of w; the
    residual is the Euclidean distance of the rest to tau*d||w||_1 plus the
    norm of the orthogonality rows W_prev.T G w.  w and the columns of
    W_prev have unit variance (w.G.w = 1) or are zero.
    """
    gw = gram @ w
    basis = np.column_stack([gw, gram @ w_prev])
    support = w != 0.0
    target = c - tau * np.sign(w)
    coef = np.zeros(basis.shape[1])
    if support.any():
        coef = np.linalg.lstsq(basis[support], target[support], rcond=None)[0]
        if coef[0] < 0.0:
            coef[0] = 0.0
            coef[1:] = np.linalg.lstsq(basis[support, 1:], target[support], rcond=None)[0]
    rest = basis @ coef - c
    gap = np.where(support, rest + tau * np.sign(w), np.maximum(np.abs(rest) - tau, 0.0))
    return float(np.linalg.norm(gap) + np.linalg.norm(w_prev.T @ gw))


def _unit_variance(w, gram):
    """w scaled to w.G.w = 1; zero stays zero."""
    var = float(w @ gram @ w)
    return w / math.sqrt(var) if var > 0.0 else w


def _pair_kkt(cxx, cyy, cxy, u, v, u_prev, v_prev, tau):
    """The pair certificate: the larger of the u and v ``_view_kkt`` at the
    unit-variance pair, against previous pairs ``u_prev``, ``v_prev`` of
    unit variance."""
    u, v = _unit_variance(u, cxx), _unit_variance(v, cyy)
    return max(_view_kkt(cxx, cxy @ v, u, u_prev, tau),
               _view_kkt(cyy, cxy.T @ u, v, v_prev, tau))


def scca_kkt_residuals(data: PairedDataset, tau, u_dirs, v_dirs):
    """The scca certificate (``_pair_kkt``) of each pair of direction
    columns on centred ``data``, pair k against the pairs before it."""
    _require_centred(data)
    cxx, cyy, cxy = data.x.T @ data.x, data.y.T @ data.y, data.x.T @ data.y
    cxx, cyy, cxy = cxx / data.n, cyy / data.n, cxy / data.n
    u_hat = np.column_stack([_unit_variance(u, cxx) for u in np.asarray(u_dirs, float).T])
    v_hat = np.column_stack([_unit_variance(v, cyy) for v in np.asarray(v_dirs, float).T])
    return [_pair_kkt(cxx, cyy, cxy, u_hat[:, k], v_hat[:, k], u_hat[:, :k], v_hat[:, :k], tau)
            for k in range(u_hat.shape[1])]


# outer iterations between evaluations of the pair certificate
_SCCA_CHECK_EVERY = 5
# the pair certificate at which the Newton finish is first tried
_SCCA_HANDOFF = 0.1
# the largest variate sin^2 Theta between a checked LADMM iterate and the
# finish the pair ends on, per unit of that iterate's certificate: a finish
# further away may be another stationary point
_SCCA_PROXIMITY = 1.0
# the finish solves with both variance constraints active: a hand-off
# iterate with a variate variance below this is shrinking to the zero pair
_SCCA_ACTIVE_VARIANCE = 0.5
# caps of one finish: its active-set rounds and its Newton steps
_SCCA_ROUNDS = 20
_SCCA_NEWTON_STEPS = 60
# a round has settled once the residual of its KKT equations is this small,
# relative to the largest variance
_SCCA_NEWTON_TOL = 1e-13
# the first shift, relative to the largest variance, of a Newton step's
# Hessian whose Jacobian has the wrong inertia; each further shift is 4x,
# up to the largest variance
_SCCA_SHIFT = 1e-4


def _finish(cxx, cyy, cxy, u, v, u_prev, v_prev, tau, tol):
    """The Newton finish from the LADMM pair (u, v): ``_pair_newton`` from
    its unit-variance form, unless a variate variance of (u, v) is below
    _SCCA_ACTIVE_VARIANCE.  Returns (certificate, u, v) of the result when
    its rounds settled on a local minimum and it certifies (``_pair_kkt`` at
    most ``tol``), else None; then the Newton steps and rounds taken."""
    if min(float(u @ cxx @ u), float(v @ cyy @ v)) < _SCCA_ACTIVE_VARIANCE:
        return None, 0, 0
    u, v = _unit_variance(u, cxx), _unit_variance(v, cyy)
    u_new, v_new, settled, steps, rounds = _pair_newton(cxx, cyy, cxy, u, v, u_prev, v_prev, tau)
    if settled and u_new.any() and v_new.any():
        certificate = _pair_kkt(cxx, cyy, cxy, u_new, v_new, u_prev, v_prev, tau)
        if certificate <= tol:
            return (certificate, u_new, v_new), steps, rounds
    return None, steps, rounds


def _objective(cxy, u, v, tau):
    """The pair objective -u.Cxy.v + tau*(||u||_1 + ||v||_1)."""
    return float(-u @ cxy @ v + tau * (np.sum(np.abs(u)) + np.sum(np.abs(v))))


def _variate_sin2(gram, a, b):
    """sin^2 Theta between the variates of weights a and b of one view; 1
    when either variate is zero (an LADMM iterate can shrink to zero after
    a finish was found)."""
    ab, norms = float(a @ gram @ b), float(a @ gram @ a) * float(b @ gram @ b)
    return 1.0 - ab * ab / norms if norms > 0.0 else 1.0


def _pair_newton(cxx, cyy, cxy, u, v, u_prev, v_prev, tau):
    """Active-set Newton rounds on the KKT system of a pair, from the
    unit-variance pair (u, v), against the unit-variance pairs before it.

    On the support A of w = (u, v) with signs s the pair's KKT conditions
    are smooth equations in w_A, the two variance multipliers and the
    orthogonality multipliers (``_view_kkt`` of both views at once):

        (Lambda G - M) w + tau s + P eta = 0    on A,
        w_x.Cxx.w_x = w_y.Cyy.w_y = 1,  P.T w = 0,

    with G = diag(Cxx, Cyy), M = [[0, Cxy], [Cxy.T, 0]], Lambda the
    variance multiplier of each coordinate's view and P = diag(Cxx U_prev,
    Cyy V_prev).  Their Jacobian is symmetric, with |A| + 2k rows, and each
    Newton step is one ``np.linalg.solve``, shortened until the residual of
    the equations falls.  At a round's first step, and after a shifted one,
    the Jacobian must have one negative eigenvalue per constraint; where it
    has not, the step would head for a saddle, and its Hessian block is
    shifted by a multiple of the identity until it has (the inertia
    correction of interior-point solvers, Nocedal & Wright 2006, sec.
    19.3).  A round takes Newton steps on a frozen support and frozen
    signs: a coordinate that a step takes across zero is set to zero and
    leaves A, which starts a new round.  A round has settled once
    the residual is at most _SCCA_NEWTON_TOL (relative to the largest
    variance); the off-support coordinates whose rest exceeds tau then join
    A with the sign that cancels the rest, and a new round starts.  When
    none does, the rounds have settled, on a local minimum when the
    Jacobian has one negative eigenvalue per constraint (the Hessian of the
    Lagrangian is then positive definite on the constraints' tangent space).

    Returns (u, v, whether the rounds settled on a local minimum, Newton
    steps, rounds), at most _SCCA_ROUNDS rounds and _SCCA_NEWTON_STEPS steps.
    """
    p = u.size
    gram = np.block([[cxx, np.zeros((p, v.size))], [np.zeros((v.size, p)), cyy]])
    cross = np.block([[np.zeros((p, p)), cxy], [cxy.T, np.zeros((v.size, v.size))]])
    view = np.eye(2)[(np.arange(gram.shape[0]) >= p).astype(int)]
    k = u_prev.shape[1]
    ortho = np.zeros((gram.shape[0], 2 * k))
    ortho[:p, :k], ortho[p:, k:] = cxx @ u_prev, cyy @ v_prev
    scale = max(1.0, float(np.max(np.diagonal(gram))))
    w = np.concatenate([u, v])
    signs = np.sign(w)
    active = signs != 0.0

    def equations(w, coef):
        """The KKT equations on A at (w, coef), the rest of every
        coordinate, and the multiplier columns: each view's G w, then P."""
        gw = gram @ w
        basis = np.column_stack([view * gw[:, None], ortho])
        rest = basis @ coef - cross @ w
        eqs = np.concatenate([(rest + tau * signs)[active], 0.5 * (view.T @ (w * gw) - 1.0),
                              ortho.T @ w])
        return eqs, rest, basis

    def jacobian(coef, basis):
        hess = (view @ coef[:2])[active, None] * gram[np.ix_(active, active)] \
            - cross[np.ix_(active, active)]
        edge = basis[active]
        return np.block([[hess, edge], [edge.T, np.zeros((edge.shape[1], edge.shape[1]))]])

    # the multipliers start at their least-squares fit on A
    basis = np.column_stack([view * (gram @ w)[:, None], ortho])
    coef = np.linalg.lstsq(basis[active], (cross @ w - tau * signs)[active], rcond=None)[0]
    steps, rounds, check = 0, 1, True
    while steps < _SCCA_NEWTON_STEPS and active[:p].any() and active[p:].any():
        eqs, rest, basis = equations(w, coef)
        if float(np.max(np.abs(eqs))) <= _SCCA_NEWTON_TOL * scale:
            outside = ~active & (np.abs(rest) > tau)
            if not outside.any():
                negative = np.count_nonzero(np.linalg.eigvalsh(jacobian(coef, basis)) < 0.0)
                return w[:p], w[p:], bool(negative == coef.size), steps, rounds
            if rounds == _SCCA_ROUNDS:
                break
            signs[outside] = -np.sign(rest[outside])
        else:
            # a Jacobian of the wrong inertia would step towards a saddle
            # (a coordinate that joined turns back across zero): shift the
            # Hessian until it has one negative eigenvalue per constraint.
            # The inertia is checked at a round's first step, and after a
            # shifted step
            jac = jacobian(coef, basis)
            shift, shifted = _SCCA_SHIFT * scale, False
            while check and shift <= scale and \
                    np.count_nonzero(np.linalg.eigvalsh(jac) < 0.0) != coef.size:
                jac[np.diag_indices(int(np.count_nonzero(active)))] += shift
                shift, shifted = 4.0 * shift, True
            check = shifted
            try:
                d = np.linalg.solve(jac, -eqs)
            except np.linalg.LinAlgError:
                break
            # halve the step until the residual falls, at most ten times; a
            # step that overflows is shortened like one whose residual grows
            merit, t = float(np.linalg.norm(eqs)), 1.0
            with np.errstate(over="ignore", invalid="ignore"):
                while t > 1e-3:
                    w_next, coef_next = w.copy(), coef + t * d[-coef.size:]
                    w_next[active] += t * d[:-coef.size]
                    if float(np.linalg.norm(equations(w_next, coef_next)[0])) < merit:
                        break
                    t *= 0.5
            if t < 1e-3:
                break
            w, coef = w_next, coef_next
            steps += 1
            flipped = active & (np.sign(w) != signs)
            if not flipped.any():
                continue
            if rounds == _SCCA_ROUNDS:
                break
            w[flipped] = signs[flipped] = 0.0
        active = signs != 0.0
        rounds, check = rounds + 1, True
    return w[:p], w[p:], False, steps, rounds


def scca_fit(
    data: PairedDataset,
    tau,
    K,
    n_steps_admm=5,
    tol=1e-6,
    max_outer=2000,
    recycle_duals=True,
):
    """l1-penalised CCA with covariance-metric orthogonality constraints.

    Pair k minimises ``-u.Cxy.v + tau*(||u||_1 + ||v||_1)`` subject to unit
    variance and covariance-metric orthogonality to the previous pairs, by
    alternating blocks of ``n_steps_admm`` linearised-ADMM steps for u and
    v (Suo et al. 2017).  Data matrices are downscaled by sqrt(n) so
    covariances are plain Gram matrices, and each block runs on the thin-QR
    factor R of its view (min(n, p) rows, the same Gram matrix) with the
    orthogonality rows below it; z and xi stay in the column span, so the
    iterates are those of the n-row block in exact arithmetic.  Each inner
    step costs two mat-vecs (see ``_ladmm_block``).

    One outer iteration maps the state (u, z_u, xi_u, v, z_v, xi_v) through
    the u block and then the v block; the duals carry over
    (``recycle_duals``) or restart from the weights.  Restarted duals make
    the fixed point of the outer map a KKT point only when each block nearly
    solves its subproblem: with few inner steps (50, say) it is not one, and
    the LADMM alone never certifies; the Newton finish below certifies such
    a pair once the LADMM comes within its hand-off.

    The stop rule is a certificate: the pair's KKT residual (``_view_kkt``
    of u and of v, the larger of the two), evaluated at the unit-variance
    pair the fit returns, every few outer iterations.  The pair stops when
    it is at most ``tol``; ``converged`` means every pair did so within
    ``max_outer`` outer iterations.

    A check whose certificate is at most _SCCA_HANDOFF (after a try, a
    tenth of the certificate at that try: ``linalg.HandOff``, the rule of
    glasso's polish) tries the Newton finish: active-set rounds on the
    pair's KKT system (``_pair_newton``) from the unit-variance iterate,
    the LADMM state untouched.  Its result counts only when the rounds
    settled on a local minimum that passes the same certificate; the pair
    ends there at the first check whose iterate lies within
    _SCCA_PROXIMITY times its certificate of it in variate sin^2 Theta (a
    finish further away may be another stationary point, where the LADMM
    would not go).  A pair that reaches ``max_outer`` is its last iterate.

    ``provenance.info`` records ``total_inner_iterations`` (every LADMM
    step run), ``n_steps_admm``, ``recycle_duals`` and per pair
    ``kkt_residuals``, ``outer_iterations``, ``last_outer_moves`` (the l2
    moves of u and v in the last outer iteration), ``returned`` (where the
    pair comes from: ``"certified"`` by the LADMM, ``"finish"``, or
    ``"capped"``, the last iterate at ``max_outer``), ``newton_steps`` and
    ``rounds`` (of every finish tried) and ``objective`` (at the
    unit-variance pair).
    """
    _require_fit_inputs("scca", tau, data, K,
                        {"n_steps_admm": n_steps_admm, "tol": tol, "max_outer": max_outer})
    n = data.n
    xd = data.x / np.sqrt(n)
    yd = data.y / np.sqrt(n)
    cxx = xd.T @ xd
    cyy = yd.T @ yd
    cxy = xd.T @ yd
    xr, yr = _thin_factor(xd), _thin_factor(yd)
    mx, my = xr.shape[0], yr.shape[0]

    # the pairs so far, as fitted and at unit variance (the certificate's)
    u_prev, v_prev = np.zeros((data.p, 0)), np.zeros((data.q, 0))
    u_hat, v_hat = u_prev, v_prev
    info = {key: [] for key in ("kkt_residuals", "outer_iterations", "last_outer_moves",
                                "returned", "newton_steps", "rounds", "objective")}
    for k in range(1, K + 1):
        xt = np.vstack([xr, (cxx @ u_prev).T])
        yt = np.vstack([yr, (cyy @ v_prev).T])
        mu_x = 1.0 / (2.0 * max(_step_bound(xt), 1e-30))
        mu_y = 1.0 / (2.0 * max(_step_bound(yt), 1e-30))

        u, v = _scca_init(cxy, tau, k)
        u, v = _unit_variance(u, cxx), _unit_variance(v, cyy)
        (z_u, xi_u), (z_v, xi_v) = _fresh_duals(u, xt, mx), _fresh_duals(v, yt, my)
        handoff = HandOff(_SCCA_HANDOFF)
        # the last certified finish
        finish, returned = None, "capped"
        kkt, checked, newton_steps, rounds = np.inf, -1, 0, 0
        for it in range(1, max_outer + 1):
            if not recycle_duals:
                (z_u, xi_u), (z_v, xi_v) = _fresh_duals(u, xt, mx), _fresh_duals(v, yt, my)
            u_last, v_last = u, v
            u, z_u, xi_u = _ladmm_block(u, z_u, xi_u, xt, xr, cxy @ v, tau, mu_x, n_steps_admm)
            v, z_v, xi_v = _ladmm_block(v, z_v, xi_v, yt, yr, cxy.T @ u, tau, mu_y, n_steps_admm)
            if it % _SCCA_CHECK_EVERY == 0:
                kkt, checked = _pair_kkt(cxx, cyy, cxy, u, v, u_hat, v_hat, tau), it
                if kkt <= tol:
                    returned = "certified"
                    break
                if handoff.due(kkt):
                    tried, steps, tried_rounds = _finish(cxx, cyy, cxy, u, v, u_hat, v_hat,
                                                         tau, tol)
                    newton_steps += steps
                    rounds += tried_rounds
                    finish = tried or finish
                # the finish counts once the iterate comes within reach
                if finish is not None and max(
                        _variate_sin2(cxx, u, finish[1]),
                        _variate_sin2(cyy, v, finish[2])) <= _SCCA_PROXIMITY * kkt:
                    returned = "finish"
                    break
        info["last_outer_moves"].append((float(np.linalg.norm(u - u_last)),
                                         float(np.linalg.norm(v - v_last))))
        if returned == "finish":
            kkt, u, v = finish
        elif returned == "capped" and checked != it:
            # max_outer reached: the pair is the last iterate
            kkt = _pair_kkt(cxx, cyy, cxy, u, v, u_hat, v_hat, tau)
        info["kkt_residuals"].append(kkt)
        info["outer_iterations"].append(it)
        info["returned"].append(returned)
        info["newton_steps"].append(newton_steps)
        info["rounds"].append(rounds)
        u_prev, v_prev = np.column_stack([u_prev, u]), np.column_stack([v_prev, v])
        u_hat = np.column_stack([u_hat, _unit_variance(u, cxx)])
        v_hat = np.column_stack([v_hat, _unit_variance(v, cyy)])
        info["objective"].append(_objective(cxy, u_hat[:, -1], v_hat[:, -1], tau))

    # every outer iteration runs both blocks
    info.update(total_inner_iterations=2 * n_steps_admm * sum(info["outer_iterations"]),
                n_steps_admm=n_steps_admm, recycle_duals=recycle_duals)
    converged = all(r <= tol for r in info["kkt_residuals"])
    return _estimate("scca", tau, data, u_prev, v_prev, converged=converged, info=info)


# ---------------------------------------------------------------------------
# graphical CCA
# ---------------------------------------------------------------------------

def gcca_fit(data: PairedDataset, lam, K, glasso_max_iter=5000):
    """Graphical-lasso plug-in CCA.

    Fits a sparse joint precision to the sample covariance, inverts it and
    runs exact CCA on the implied covariance blocks.  When the penalty kills
    every cross-view entry the correlations are all zero and the estimate is
    flagged degenerate.
    """
    _require_fit_inputs("gcca", lam, data, K, {"glasso_max_iter": glasso_max_iter})
    _, cov = center_and_covariance(data)
    prec = glasso_fit(cov.joint(), lam, max_iter=glasso_max_iter)
    model = CovarianceModel.from_joint(prec.sigma, data.p)
    est = cca_from_covariance(model, K, algorithm="gcca")
    return _estimate("gcca", lam, data, est.u_dirs, est.v_dirs, est.rho,
                     degenerate=est.rho.size == 0 or est.rho[0] <= 1e-10,
                     info={"glasso": prec.diagnostics})


# ---------------------------------------------------------------------------
# dispatch and sweeps
# ---------------------------------------------------------------------------

def fit_function(kind):
    """The ``*_fit`` function of an estimator kind."""
    # looked up per call, so that a wrapper rebound to one of these module
    # names (a tracer's, a test's) is the one returned
    return {"rcca": rcca_fit, "spls": spls_fit, "scca": scca_fit, "gcca": gcca_fit}[kind]


def fit_options(kind):
    """A kind's solver options, name -> default: the parameters of its
    ``*_fit`` function with a number or flag default.  The signature is read
    through a wrapper's ``__wrapped__``, so a tracer leaves it unchanged."""
    return {p.name: p.default
            for p in inspect.signature(fit_function(kind)).parameters.values()
            if isinstance(p.default, (bool, int, float))}


def require_options(kind, options):
    """Raise ValueError naming the first of a kind's solver ``options``
    outside the range every option has: at least 1 for an int default,
    above 0 for a float default."""
    for name, default in fit_options(kind).items():
        value = options.get(name, default)
        if type(default) is int and value < 1:
            raise ValueError(f"{name}: expected an int of at least 1, got {value}")
        if type(default) is float and not value > 0:
            raise ValueError(f"{name}: expected a number above 0, got {value}")


def fit_estimator(spec: EstimatorSpec, data: PairedDataset):
    """Fit ``spec`` on centred ``data`` with its kind's ``*_fit`` function."""
    return fit_function(spec.kind)(data, spec.penalty, spec.K, **spec.options)


@dataclass
class TrajectoryResult:
    """Grid of estimates indexed by (penalty index, fold or full sample)."""

    kind: str
    grid: list
    folds: FoldPlan
    estimates: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)

    def fold_estimates(self, penalty_index):
        return [self.estimates.get((penalty_index, v)) for v in range(self.folds.V)]

    def full_estimate(self, penalty_index):
        return self.estimates.get((penalty_index, "full"))


def _cell_seed(seed, kind, penalty_index, fold):
    fold_code = -1 if fold == "full" else int(fold)
    ss = np.random.SeedSequence(
        entropy=int(seed), spawn_key=(KINDS.index(kind), int(penalty_index), fold_code + 1)
    )
    return int(ss.generate_state(1)[0])


class _CellFit:
    """Fits sweep cells (kind, penalty, K, options, penalty index, fold,
    seed) on one dataset and fold plan.

    The data and folds are bound once, so a process pool pickles them once
    per chunk of cells rather than once per cell.  Each fold's training
    split is kept once made, so cells of one fold share it.  A solver
    failure comes back as (None, message) and never aborts the sweep.
    """

    def __init__(self, data: PairedDataset, folds: FoldPlan):
        self.data = data
        self.folds = folds
        self._trains = {}

    def _train(self, fold):
        if fold not in self._trains:
            self._trains[fold] = (self.data if fold == "full"
                                  else split_fold(self.data, self.folds, fold)[0])
        return self._trains[fold]

    def __call__(self, cell, est=None):
        """The outcome of ``cell``: ``est``, a path's estimate, or the cell's
        fit, with its fold and derived seed in its provenance."""
        kind, penalty, K, options, penalty_index, fold, seed = cell
        if est is None:
            try:
                train = self._train(fold)
                est = fit_estimator(EstimatorSpec(kind, penalty, K, options), train)
            except (GlassoConvergenceError, np.linalg.LinAlgError, ValueError) as exc:
                return None, f"{type(exc).__name__}: {exc}"
        est.provenance.fold = fold
        est.provenance.seed = _cell_seed(seed, kind, penalty_index, fold)
        return est, None

    def rcca_fold(self, cells):
        """The outcomes of the rcca ``cells`` of one fold, one per penalty
        of the grid: one eigendecomposition per view and one stacked solve.
        When a cell fails its checks (or is given an option rcca does not
        take) or the solve raises, every cell is fitted alone, so that each
        fails, or not, as it would alone."""
        kind, _, K, options, _, fold, _ = cells[0]
        penalties = [cell[1] for cell in cells]
        try:
            train = self._train(fold)
            for penalty in penalties:
                _require_fit_inputs(kind, penalty, train, K)
            ests = _rcca_path(train, penalties, K, **options)
        except (np.linalg.LinAlgError, ValueError, TypeError):
            return [self(cell) for cell in cells]
        return [self(cell, est) for cell, est in zip(cells, ests)]


# chunks per pool worker: few enough that the dataset travels a few times,
# enough that a slow chunk does not leave the other workers idle
_CHUNKS_PER_WORKER = 4


def _openblas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS that NumPy bundles
    and has loaded, or None where there is none or it exports neither pair
    of calls; other BLAS builds then keep their own threading."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    if not hasattr(os, "RTLD_NOLOAD") or not os.path.isdir(libs):
        return None
    import ctypes

    for name in sorted(f for f in os.listdir(libs) if "openblas" in f):
        try:
            # only a library already loaded, never a second copy
            lib = ctypes.CDLL(os.path.join(libs, name), mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Run the block with NumPy's OpenBLAS on one thread, then restore the
    old count.  Workers forked inside inherit the one thread: a worker
    that ran the default count would spin its BLAS threads against the
    other workers for the same cores."""
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    old = get()
    set_(1)
    try:
        yield
    finally:
        set_(old)


def sweep_trajectory(kind, data: PairedDataset, grid, folds: FoldPlan, K,
                     options=None, seed=0, jobs=1):
    """Fit one estimator kind at every (penalty, training fold) and on the
    full sample.

    Per-cell solver failures are recorded in ``failures`` and never abort
    the sweep.  Cells are independent; results do not depend on execution
    order, and each cell's derived RNG seed is recorded in its provenance.
    Cells run fold by fold, so one fold's training split serves all its
    penalties, in the pool once per chunk; ``estimates`` and ``failures``
    list them penalty by penalty.  rcca's path is closed-form and costs
    less than forking a pool, so it runs in this process whatever ``jobs``
    is, one stacked solve per fold (``_CellFit.rcca_fold``); the pool
    serves the iterative kinds.
    """
    grid = require_grid(grid)
    _require_centred(data)
    options = dict(options or {})

    cells = [(kind, penalty, K, options, i, fold, seed)
             for fold in list(range(folds.V)) + ["full"]
             for i, penalty in enumerate(grid)]
    fit = _CellFit(data, folds)
    if kind == "rcca":
        outcomes = [outcome for start in range(0, len(cells), len(grid))
                    for outcome in fit.rcca_fold(cells[start:start + len(grid)])]
    elif jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunksize = -(-len(cells) // (_CHUNKS_PER_WORKER * jobs))
        # the pool starts all its workers at once: no more than there are chunks
        workers = min(jobs, -(-len(cells) // chunksize))
        # the parent only waits while the pool runs
        with _one_blas_thread(), ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(fit, cells, chunksize=chunksize))
    else:
        outcomes = [fit(cell) for cell in cells]

    result = TrajectoryResult(kind=kind, grid=grid, folds=folds)
    for cell, (est, err) in sorted(zip(cells, outcomes), key=lambda co: co[0][4]):
        key = (cell[4], cell[5])
        if est is not None:
            result.estimates[key] = est
        else:
            result.failures[key] = err
    return result


# ---------------------------------------------------------------------------
# persistence: JSON manifest plus CSV direction matrices
# ---------------------------------------------------------------------------

# the provenance fields an estimate's JSON keeps
_SAVED_PROVENANCE = ("algorithm", "penalty", "fold", "seed", "degenerate", "converged")


def _read_matrix_csv(path):
    """The values of a direction CSV, without its header and name column."""
    return np.array([row[1:] for row in read_csv_table(path)[1:]], dtype=float)


def save_estimate(est: CcaEstimate, outdir, stem, x_names=None, y_names=None):
    """Persist an estimate as {stem}.json + {stem}_U.csv + {stem}_V.csv."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {key: getattr(est.provenance, key) for key in _SAVED_PROVENANCE}
    write_json(outdir / f"{stem}.json",
               {**manifest, "K": est.k, "rho": [float(r) for r in est.rho]})
    x_names = x_names or [f"x{i + 1}" for i in range(est.u_dirs.shape[0])]
    y_names = y_names or [f"y{j + 1}" for j in range(est.v_dirs.shape[0])]
    header = ["variable"] + [f"comp_{k + 1}" for k in range(est.k)]
    for suffix, names, mat in (("U", x_names, est.u_dirs), ("V", y_names, est.v_dirs)):
        write_csv_table(outdir / f"{stem}_{suffix}.csv", header,
                        [[name] + row for name, row in zip(names, mat.tolist())])


def load_estimate(outdir, stem):
    outdir = Path(outdir)
    with open(outdir / f"{stem}.json") as fh:
        manifest = json.load(fh)
    u = _read_matrix_csv(outdir / f"{stem}_U.csv")
    v = _read_matrix_csv(outdir / f"{stem}_V.csv")
    prov = Provenance(**{key: manifest[key] for key in _SAVED_PROVENANCE})
    return CcaEstimate(u_dirs=u, v_dirs=v, rho=np.asarray(manifest["rho"]), provenance=prov)
