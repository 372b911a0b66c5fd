"""The four regularised CCA estimators behind one interface, plus sweeps.

rcca   ridge-regularised CCA: plug-in CCA on (1-c)*C + c*I within-view blocks;
       c=0 is sample CCA, c=1 is PLS (an SVD of the cross-covariance).  The
       blocks share the eigenvectors of C, so a penalty path needs one
       eigendecomposition per view.
spls   penalised matrix decomposition with Euclidean-metric constraints and
       rank-one deflation; not a true CCA method.
scca   l1-penalised CCA with covariance-metric constraints, solved by
       interleaved linearised-ADMM blocks with dual recycling.
gcca   graphical-lasso plug-in: estimate the joint precision, invert, run
       exact CCA on the implied covariance.

Every fit returns through ``_estimate``: direction columns rescaled to unit
empirical variance of the training variates, rho their signed correlations
(rcca and gcca pass their canonical correlations) and degenerate when a
column is zero, so estimates are directly comparable across methods.
"""

import csv
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
    split_fold,
    write_csv_table,
    write_json,
)
from .glasso import GlassoConvergenceError, glasso_fit
from .linalg import signed_corrs, soft_threshold, thin_svd

__all__ = [
    "EstimatorSpec",
    "TrajectoryResult",
    "RccaSpectra",
    "rcca_fit",
    "spls_fit",
    "scca_fit",
    "gcca_fit",
    "fit_estimator",
    "fit_options",
    "sweep_trajectory",
    "save_estimate",
    "load_estimate",
]

KINDS = ("rcca", "spls", "scca", "gcca")

_PENALTY_RANGES = {
    "rcca": (0.0, 1.0),
    "spls": (1.0, np.inf),
    "scca": (0.0, np.inf),
    "gcca": (0.0, np.inf),
}


def penalty_in_domain(kind, penalty):
    """Whether ``penalty`` is legal for ``kind``: inside its closed range in
    ``_PENALTY_RANGES``, and strictly positive for gcca."""
    lo, hi = _PENALTY_RANGES[kind]
    return lo <= penalty <= hi and not (kind == "gcca" and penalty <= 0)


def _require_penalty(kind, penalty):
    if not penalty_in_domain(kind, penalty):
        lo, hi = _PENALTY_RANGES[kind]
        opening = "(" if kind == "gcca" else "["
        raise ValueError(f"{kind} penalty {penalty} outside {opening}{lo}, {hi}]")


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
        _require_penalty(self.kind, self.penalty)
        if self.K < 1:
            raise ValueError("K must be at least 1")


def _require_centred(data: PairedDataset):
    if not data.centred:
        raise ValueError("estimator expects centred data; run center_and_covariance first")


def _require_fit_inputs(kind, penalty, data: PairedDataset, K):
    """What every fit requires: a penalty in the kind's domain, centred
    data and K in [1, min(p, q)]."""
    _require_penalty(kind, penalty)
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

class RccaSpectra(CovarianceSpectra):
    """The penalty-free part of rcca on one training split: the
    ``CovarianceSpectra`` of its sample covariance, which serves every
    penalty of a path."""

    def __init__(self, data: PairedDataset):
        super().__init__(center_and_covariance(data)[1])


def rcca_fit(data: PairedDataset, c, K, spectra=None):
    """Ridge-regularised CCA with tied penalty c in [0, 1].

    Plug-in CCA on the covariance model with within-view blocks
    (1-c)*Cxx + c*I; rho holds the singular values of the regularised
    whitened target (sample canonical correlations at c=0, singular values
    of Cxy at c=1).

    The target is whitened in the eigenbases of Cxx and Cyy
    (``CovarianceSpectra.solve``), so a penalty costs one SVD of a p x q
    matrix; ``spectra`` (the ``RccaSpectra`` of ``data``) lets a penalty
    path share one eigendecomposition per view.
    """
    _require_fit_inputs("rcca", c, data, K)
    if spectra is None:
        spectra = RccaSpectra(data)
    return _estimate("rcca", c, data, *spectra.solve(K, c))


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
        if np.linalg.norm(u_new - u) < tol and np.linalg.norm(v_new - v) < tol:
            u, v = u_new, v_new
            converged = True
            break
        u, v = u_new, v_new
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
    _require_fit_inputs("spls", s, data, K)
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


def _ladmm_block(u, z, xi, xt, xdata, c, tau, lam_step, mu, n_steps):
    """n_steps linearised-ADMM updates for one weight vector.

    xt stacks the data rows with the orthogonality-constraint rows; xdata is
    the plain data block (first n rows of xt).  The dual update uses the
    full constraint residual, which reduces to x.u - z for the first pair.

    Each step costs two mat-vecs: the constraint residual r = xt.u - (z, 0)
    that closes a step is the one that opens the next (u and z have not
    moved in between), so it is carried across steps, and the z-update reads
    x.u from the same product.  The iterates are those of the four-mat-vec
    step bit for bit when xt is the data block (the first pair); below
    constraint rows, BLAS may round the leading n entries of xt.u in the
    last place differently from xdata.u.  xi is updated in place.
    """
    n = xdata.shape[0]
    coef = mu / lam_step
    shift = mu * c
    thr = mu * tau
    r = xt @ u
    r[:n] -= z
    for _ in range(n_steps):
        u = soft_threshold(u - coef * (xt.T @ (r + xi)) + shift, thr)
        r = xt @ u
        w = r[:n] + xi[:n]
        nw = math.sqrt(w @ w)
        z = w / nw if nw > 1.0 else w
        r[:n] -= z
        xi += r
    return u, z, xi


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


def scca_fit(
    data: PairedDataset,
    tau,
    K,
    lambda_step=1.0,
    n_steps_admm=5,
    tol=1e-6,
    max_outer=2000,
    recycle_duals=True,
):
    """l1-penalised CCA with covariance-metric orthogonality constraints.

    Pair k minimises ``-u.Cxy.v + tau*(||u||_1 + ||v||_1)`` subject to unit
    variance and orthogonality to the previous pairs, by alternating short
    linearised-ADMM blocks for u and v.  Data matrices are downscaled by
    sqrt(n) internally so covariances are plain Gram matrices.  Dual
    variables persist across outer iterations (``recycle_duals``); the outer
    loop stops when both weight vectors move less than ``tol`` in l2.  Each
    inner step costs two mat-vecs with the stacked constraint block; the
    iterates are those of the textbook four-mat-vec step (see
    ``_ladmm_block`` for the rounding caveat from the second pair on).

    Diagnostics in provenance record total inner iterations, for comparing
    solver configurations.
    """
    _require_fit_inputs("scca", tau, data, K)
    n = data.n
    xd = data.x / np.sqrt(n)
    yd = data.y / np.sqrt(n)
    cxx = xd.T @ xd
    cyy = yd.T @ yd
    cxy = xd.T @ yd

    def unit_variance(weight, block):
        nw = np.linalg.norm(block @ weight)
        return weight / nw if nw > 0 else weight

    us, vs = [], []
    total_inner = 0
    all_converged = True
    last_moves = []
    for k in range(1, K + 1):
        u_prev = np.column_stack(us) if us else np.zeros((data.p, 0))
        v_prev = np.column_stack(vs) if vs else np.zeros((data.q, 0))
        xt = np.vstack([xd, (cxx @ u_prev).T])
        yt = np.vstack([yd, (cyy @ v_prev).T])
        mu_x = lambda_step / (2.0 * max(_step_bound(xt), 1e-30))
        mu_y = lambda_step / (2.0 * max(_step_bound(yt), 1e-30))

        u, v = _scca_init(cxy, tau, k)
        u, v = unit_variance(u, xd), unit_variance(v, yd)

        def fresh_duals(weight, stacked, block):
            zz = block @ weight
            nz = np.linalg.norm(zz)
            if nz > 1.0:
                zz = zz / nz
            res = stacked @ weight
            res[:n] -= zz
            return zz, res

        z_u, xi_u = fresh_duals(u, xt, xd)
        z_v, xi_v = fresh_duals(v, yt, yd)

        converged = False
        last_move = (np.inf, np.inf)
        for _ in range(max_outer):
            u_old, v_old = u, v
            if not recycle_duals:
                z_u, xi_u = fresh_duals(u, xt, xd)
            u, z_u, xi_u = _ladmm_block(
                u, z_u, xi_u, xt, xd, cxy @ v, tau, lambda_step, mu_x, n_steps_admm
            )
            if not recycle_duals:
                z_v, xi_v = fresh_duals(v, yt, yd)
            v, z_v, xi_v = _ladmm_block(
                v, z_v, xi_v, yt, yd, cxy.T @ u, tau, lambda_step, mu_y, n_steps_admm
            )
            total_inner += 2 * n_steps_admm
            last_move = (
                float(np.linalg.norm(u - u_old)),
                float(np.linalg.norm(v - v_old)),
            )
            if last_move[0] < tol and last_move[1] < tol:
                converged = True
                break
        all_converged &= converged
        last_moves.append(last_move)
        us.append(u)
        vs.append(v)

    info = {"total_inner_iterations": total_inner, "n_steps_admm": n_steps_admm,
            "recycle_duals": recycle_duals, "last_outer_moves": last_moves}
    return _estimate("scca", tau, data, np.column_stack(us), np.column_stack(vs),
                     converged=all_converged, info=info)


# ---------------------------------------------------------------------------
# graphical CCA
# ---------------------------------------------------------------------------

def gcca_fit(data: PairedDataset, lam, K, glasso_tol=1e-7, glasso_max_iter=5000):
    """Graphical-lasso plug-in CCA.

    Fits a sparse joint precision to the sample covariance, inverts it and
    runs exact CCA on the implied covariance blocks.  When the penalty kills
    every cross-view entry the correlations are all zero and the estimate is
    flagged degenerate.
    """
    _require_fit_inputs("gcca", lam, data, K)
    _, cov = center_and_covariance(data)
    prec = glasso_fit(cov.joint(), lam, tol=glasso_tol, max_iter=glasso_max_iter)
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
    split, and for rcca its ``RccaSpectra``, are kept once made, so cells
    of one fold share them.  A solver failure comes back as (None,
    message) and never aborts the sweep.
    """

    def __init__(self, data: PairedDataset, folds: FoldPlan):
        self.data = data
        self.folds = folds
        self._trains = {}
        self._spectra = {}

    def _train(self, fold):
        if fold not in self._trains:
            self._trains[fold] = (self.data if fold == "full"
                                  else split_fold(self.data, self.folds, fold)[0])
        return self._trains[fold]

    def __call__(self, cell):
        kind, penalty, K, options, penalty_index, fold, seed = cell
        try:
            train = self._train(fold)
            spec = EstimatorSpec(kind=kind, penalty=penalty, K=K, options=options)
            if kind == "rcca":
                if fold not in self._spectra:
                    self._spectra[fold] = RccaSpectra(train)
                est = rcca_fit(train, penalty, K, spectra=self._spectra[fold], **options)
            else:
                est = fit_estimator(spec, train)
        except (GlassoConvergenceError, np.linalg.LinAlgError, ValueError) as exc:
            return None, f"{type(exc).__name__}: {exc}"
        est.provenance.fold = fold
        est.provenance.seed = _cell_seed(seed, kind, penalty_index, fold)
        return est, None


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
    Cells run fold by fold, so one fold's training split (and rcca's
    eigendecompositions) serve all its penalties, in the pool once per
    chunk; ``estimates`` and ``failures`` list them penalty by penalty.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("penalty grid must be nonempty")
    diffs = np.diff(np.asarray(grid, dtype=float))
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValueError("penalty grid must be strictly monotone")
    _require_centred(data)
    options = dict(options or {})

    cells = [(kind, penalty, K, options, i, fold, seed)
             for fold in list(range(folds.V)) + ["full"]
             for i, penalty in enumerate(grid)]
    fit = _CellFit(data, folds)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunksize = -(-len(cells) // (_CHUNKS_PER_WORKER * jobs))
        # the parent only waits while the pool runs
        with _one_blas_thread(), ProcessPoolExecutor(max_workers=jobs) as pool:
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
    with open(path, newline="") as fh:
        return np.array([row[1:] for row in list(csv.reader(fh))[1:]], dtype=float)


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
