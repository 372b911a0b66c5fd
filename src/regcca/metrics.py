"""Correlation-captured and estimation-accuracy criteria, oracle and CV forms.

Naming follows a fixed vocabulary: r2s{k} / R2s{k} for sums of squared
successive / subspace correlations, wt-/vt- prefixes for weight- and
variate-space squared sin-Theta quantities, u{k} / U{k} for single pairs
versus leading-k subspaces, and a -cv suffix for the cross-validated forms.
"""

import numpy as np

from .cca_core import CcaEstimate, cca_from_covariance, empirical_canonical_correlations
from .datamodel import CovarianceModel, FoldPlan, PairedDataset, split_fold
from .linalg import gram_schmidt_reduce, pair_sin2, reduce_stack, signed_corrs, sym_matrix_power

__all__ = [
    "AGGREGATIONS",
    "aggregate",
    "oracle_corr",
    "succ_cc_agg",
    "subsp_cc_agg",
    "cv_cc_agg",
    "CvCriteria",
    "validation_splits",
    "estimation_error",
    "cv_instability",
    "cv_table",
    "cv_tables",
    "mutual_information",
    "gauss_mutual_info",
    "METRIC_FAMILIES",
    "metric_name",
]

RHO_CLAMP = 1.0 - 1e-9


def mutual_information(rho):
    """Gaussian mutual information implied by canonical correlations.

    Correlations are clamped just below one so degenerate sample CCA keeps
    the metric finite.
    """
    return aggregate("mutual_info", rho)


# each maps the last axis of a correlation stack to one value
AGGREGATIONS = {
    "l1_sum": lambda rho: np.sum(np.abs(rho), axis=-1),
    "sq_sum": lambda rho: np.sum(rho**2, axis=-1),
    "mutual_info": lambda rho: -0.5 * np.sum(
        np.log1p(-(np.clip(np.abs(rho), 0.0, RHO_CLAMP) ** 2)), axis=-1),
}


def aggregate(kind, rho):
    """Map a correlation vector to a float with a coordinate-wise
    increasing aggregation, or a stack of vectors (the last axis) to an
    array."""
    try:
        f = AGGREGATIONS[kind]
    except KeyError:
        raise ValueError(f"unknown aggregation {kind!r}") from None
    out = f(np.asarray(rho, dtype=float))
    return float(out) if out.ndim == 0 else out


def gauss_mutual_info(cov: CovarianceModel):
    """Mutual information of a joint Gaussian from determinants:
    0.5 * log(|Sxx| |Syy| / |S|)."""
    sx = np.linalg.slogdet(cov.sxx)
    sy = np.linalg.slogdet(cov.syy)
    sj = np.linalg.slogdet(cov.joint())
    if sx[0] <= 0 or sy[0] <= 0 or sj[0] <= 0:
        raise ValueError("covariance model must be positive definite")
    return float(0.5 * (sx[1] + sy[1] - sj[1]))


def oracle_corr(cov: CovarianceModel, u, v):
    """Population correlation of the projections u.X and v.Y under cov."""
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    vu = float(u @ cov.sxx @ u)
    vv = float(v @ cov.syy @ v)
    if vu <= 0 or vv <= 0:
        raise ValueError("projection has zero variance under the model")
    return float(u @ cov.sxy @ v / np.sqrt(vu * vv))


def succ_cc_agg(kind, cov: CovarianceModel, u_dirs, v_dirs):
    """Aggregated oracle correlations of successive direction pairs."""
    u_dirs = np.atleast_2d(np.asarray(u_dirs, dtype=float))
    v_dirs = np.atleast_2d(np.asarray(v_dirs, dtype=float))
    rhos = [oracle_corr(cov, u_dirs[:, k], v_dirs[:, k]) for k in range(u_dirs.shape[1])]
    return aggregate(kind, rhos)


def subsp_cc_agg(kind, cov: CovarianceModel, u_dirs, v_dirs, K):
    """Aggregated canonical correlations of the projected pair
    (U_K.X, V_K.Y); invariant to the basis chosen within each subspace.

    Rank-deficient blocks are Gram-Schmidt reduced first; the effective
    dimension is whatever survives.
    """
    uk = np.asarray(u_dirs, dtype=float)[:, :K]
    vk = np.asarray(v_dirs, dtype=float)[:, :K]
    uk, _ = gram_schmidt_reduce(uk)
    vk, _ = gram_schmidt_reduce(vk)
    if uk.shape[1] == 0 or vk.shape[1] == 0:
        raise ValueError("projection blocks are rank zero")
    proj = CovarianceModel(
        sxx=uk.T @ cov.sxx @ uk,
        sxy=uk.T @ cov.sxy @ vk,
        syy=vk.T @ cov.syy @ vk,
    )
    rho = cca_from_covariance(proj, min(uk.shape[1], vk.shape[1])).rho
    return aggregate(kind, rho)


def validation_splits(data: PairedDataset, folds: FoldPlan):
    """Validation block of every fold, shifted by that fold's training means
    (the ``split_fold`` convention); a sweep takes them once for all its
    penalties."""
    return [split_fold(data, folds, v)[1] for v in range(folds.V)]


class CvCriteria:
    """Cross-validated criteria, at every k, of a stack of penalties' fold
    estimates (a list per penalty; every estimate present in a stack of more
    than one), each an array with one value per penalty.

    Each block is formed once, with ``k_max`` columns: the validation
    variates of every fold, the full-data variates of every estimate, and
    the Gram-Schmidt reductions of every estimate's weight and variate
    blocks.  A criterion at k <= k_max reads column prefixes.  For the
    reductions that is exact because Gram-Schmidt is prefix-stable: whether
    column j is kept, and its orthonormalised value, depend only on the
    columns before it.

    The folds' variates sit in stacks (validation blocks padded with zero
    rows to a common length, which changes no criterion), so the subspace
    correlations of every fold and penalty at a k come from one stacked
    ``empirical_canonical_correlations`` call, and the subspace instability
    of all fold pairs from one ``pair_sin2`` call per space on the reduced
    prefix blocks.

    ``validation`` holds the folds' validation splits
    (``validation_splits``); only ``cc_agg`` reads it.  ``cc_agg`` raises
    for the first failing fold.  ``instability`` checks the stack of fold
    pairs as a whole, weights before variates: in each space a zero k-th
    column of any block raises "zero vector in angle computation", then
    ``pair_sin2`` checks the prefix blocks.  A fault in a column after the
    k-th leaves k defined.
    """

    def __init__(self, data: PairedDataset, fold_estimates, k_max, validation=None):
        self.by_penalty = list(fold_estimates)
        self.data, self.k_max, self.validation = data, k_max, validation
        # the folds with an estimate (all of a stack's penalties have one)
        self.present = [f for f, e in enumerate(self.by_penalty[0]) if e is not None]
        # (penalties, folds, p or q, k_max) stacks of the direction columns,
        # zero where an estimate holds fewer than k_max pairs or there is none
        self.u, self.v = (np.zeros((len(self.by_penalty), len(self.by_penalty[0]), d, k_max))
                          for d in (data.p, data.q))
        for i, ests in enumerate(self.by_penalty):
            for f, est in enumerate(ests):
                if est is not None:
                    self.u[i, f, :, :min(est.k, k_max)] = est.u_dirs[:, :k_max]
                    self.v[i, f, :, :min(est.k, k_max)] = est.v_dirs[:, :k_max]
        self._variates = self._blocks_cache = None

    def _validation_variates(self):
        """(penalties, V, n_max, k_max) stacks of every fold's validation
        variates; zero where a fold's split is shorter, its estimate holds
        fewer than k_max pairs, or it has none."""
        if self._variates is None:
            n_max = max(val.n for val in self.validation)
            z = np.zeros((len(self.by_penalty), len(self.validation), n_max, self.k_max))
            w = np.zeros_like(z)
            for f, val in enumerate(self.validation):
                z[:, f, :val.n] = val.x @ self.u[:, f]
                w[:, f, :val.n] = val.y @ self.v[:, f]
            self._variates = (z, w)
        return self._variates

    def cc_agg(self, mode, kind, K):
        """Mean and across-fold standard deviation of the CV correlation
        criterion at K; see ``cv_cc_agg``."""
        if mode not in ("successive", "subspace"):
            raise ValueError(f"unknown mode {mode!r}")
        if self.validation is None:
            raise ValueError("the validation splits are needed for cc_agg")
        if len(self.by_penalty[0]) != len(self.validation):
            raise ValueError(f"need one estimate per fold: got {len(self.by_penalty[0])} "
                             f"for V={len(self.validation)}")
        if K > self.k_max:
            raise ValueError(f"K={K} exceeds k_max={self.k_max}")
        # the folds before the first one without K pairs are scored first,
        # so that an error of theirs wins over that fold's
        lacking = [next((f for f, e in enumerate(ests) if e is None or e.k < K), len(ests))
                   for ests in self.by_penalty]
        usable = min(lacking)
        vals = np.zeros((len(self.by_penalty), 0))
        if usable:
            z, w = self._validation_variates()
            z, w = z[:, :usable, :, :K], w[:, :usable, :, :K]
            corr = signed_corrs if mode == "successive" else empirical_canonical_correlations
            vals = aggregate(kind, corr(z, w))
        if usable < len(self.validation):
            est = self.by_penalty[lacking.index(usable)][usable]
            if est is None:
                raise ValueError(f"missing estimate for fold {usable}")
            raise ValueError(f"fold {usable} estimate has {est.k} pairs, need {K}")
        return np.mean(vals, axis=-1), np.std(vals, axis=-1)

    def _blocks(self):
        """Per space ("wt": weights, "vt": full-data variates), the Gram
        matrix of each raw column across the blocks, (penalties, k_max, B,
        B), and the ``reduce_stack`` of the blocks, which ``instability``
        reads by prefix."""
        if self._blocks_cache is None:
            u = self.u[:, self.present]
            self._blocks_cache = {}
            for space, raw in (("wt", u), ("vt", self.data.x @ u)):
                q = reduce_stack(raw)
                self._blocks_cache[space] = (np.einsum("...bic,...dic->...cbd", raw, raw), q)
        return self._blocks_cache

    def instability(self, k):
        """Fold-to-fold instability at k; see ``cv_instability``."""
        first, second = np.triu_indices(len(self.present), 1)
        if first.size == 0:
            raise ValueError("need at least 2 fold estimates")
        if k > self.k_max:
            raise ValueError(f"k={k} exceeds k_max={self.k_max}")
        out = {}
        for space, (gram, q) in self._blocks().items():
            sin2 = _vector_sin2(gram[..., k - 1, :, :], first, second)
            out[f"{space}_uk_cv"] = np.mean(sin2, axis=-1)
            # the first k reduced columns are the reduction of the first k
            # input columns alone, as Gram-Schmidt is prefix-stable
            sin2, _ = pair_sin2(q[..., :k], first, second)
            out[f"{space}_Uk_cv"] = np.mean(sin2, axis=-1)
        return out


def cv_cc_agg(mode, kind, data: PairedDataset, fold_estimates, folds: FoldPlan, K,
              return_dispersion=False):
    """Cross-validated correlation criterion, averaged over folds.

    mode='successive': aggregate the per-pair validation correlations of
    each fold's estimate (signs kept; the aggregation sees the raw values).
    mode='subspace': aggregate the canonical correlations of the validation
    variate blocks.  Validation columns are shifted by training-fold means.

    With ``return_dispersion`` the across-fold standard deviation comes
    back alongside the mean.  One call of ``CvCriteria.cc_agg`` on a stack of one.
    """
    crit = CvCriteria(data, [list(fold_estimates)], K, validation_splits(data, folds))
    mean, spread = (float(values[0]) for values in crit.cc_agg(mode, kind, K))
    return (mean, spread) if return_dispersion else mean


def _vector_sin2(gram, first, second):
    """1 - cos^2 of the angle between vectors ``first[i]`` and
    ``second[i]``, from the Gram matrix of the vectors (or a stack of
    them); raises for a zero vector in a pair."""
    sq = np.diagonal(gram, axis1=-2, axis2=-1)
    if not (np.all(sq[..., first]) and np.all(sq[..., second])):
        raise ValueError("zero vector in angle computation")
    cos = gram[..., first, second] / (np.sqrt(sq[..., first]) * np.sqrt(sq[..., second]))
    return np.maximum(0.0, 1.0 - cos**2)


def estimation_error(cov: CovarianceModel, truth: CcaEstimate, est: CcaEstimate, k):
    """Squared sin-Theta errors of the k-th pair and leading-k subspaces.

    wt_* compares raw weight vectors, vt_* compares them after
    pre-multiplication by Sxx^{1/2} (variate space).  ``effective_k`` is
    the smaller variate subspace dimension after Gram-Schmidt reduction.
    """
    if k > min(truth.k, est.k):
        raise ValueError(f"k={k} exceeds available pairs")
    half = sym_matrix_power(cov.sxx, 0.5)
    u_t, u_e = truth.u_dirs[:, :k], est.u_dirs[:, :k]
    # truth against estimate in weight space, then in variate space
    blocks = np.stack([u_t, u_e, half @ u_t, half @ u_e])
    first, second = [0, 2], [1, 3]
    columns = blocks[:, :, k - 1]
    single = _vector_sin2(columns @ columns.T, first, second)
    big, keff = pair_sin2(reduce_stack(blocks), first, second)
    return {"wt_uk": float(single[0]), "vt_uk": float(single[1]),
            "wt_Uk": float(big[0]), "vt_Uk": float(big[1]), "effective_k": int(keff[1])}


def cv_instability(data: PairedDataset, fold_estimates, k):
    """Average squared sin-Theta between estimates from different training
    folds; the variate versions project both estimates through the full
    data matrix.  One call of ``CvCriteria.instability`` on a stack of one."""
    inst = CvCriteria(data, [list(fold_estimates)], k).instability(k)
    return {key: float(values[0]) for key, values in inst.items()}


# ---------------------------------------------------------------------------
# long-format reporting
# ---------------------------------------------------------------------------

# the CV criterion families, in the order a sweep writes them: successive
# and subspace correlations, then the four instabilities
METRIC_FAMILIES = ("r2s", "R2s", "wt-u", "vt-u", "wt-U", "vt-U")


def metric_name(family, k, cv=False):
    """Canonical metric identifier, e.g. ('r2s', 3, cv=True) -> 'r2s3-cv'."""
    if family not in METRIC_FAMILIES:
        raise ValueError(f"unknown metric family {family!r}")
    return f"{family}{k}" + ("-cv" if cv else "")


def _tables(data, fold_estimates, validation, ks, tolerant=False):
    """The rows and skipped k of each penalty of ``fold_estimates`` (a list
    per penalty, each reaching every k of ``ks``) from one ``CvCriteria``;
    with ``tolerant`` (one penalty), a ValueError skips the rest of its k."""
    crit = CvCriteria(data, fold_estimates, max(ks, default=0), validation)
    tables = [([], []) for _ in fold_estimates]
    for k in ks:
        try:
            for family, mode in zip(METRIC_FAMILIES, ("successive", "subspace")):
                mean, spread = crit.cc_agg(mode, "sq_sum", k)
                for (rows, _), value, dispersion in zip(tables, mean.tolist(), spread.tolist()):
                    rows.append((metric_name(family, k, cv=True), k, value, dispersion))
            inst = crit.instability(k)
            for family in METRIC_FAMILIES[2:]:
                values = inst[family.replace("-", "_") + "k_cv"].tolist()
                for (rows, _), value in zip(tables, values):
                    rows.append((metric_name(family, k, cv=True), k, value, None))
        except ValueError as exc:
            if not tolerant:
                raise
            tables[0][1].append((k, exc))
    return tables


def cv_table(data: PairedDataset, fold_estimates, validation, k_list):
    """The ``metrics.csv`` rows (metric, k, value, dispersion) of one
    penalty's fold estimates, and the (k, error) of each k it skipped.

    Each k of ``k_list`` that every fold estimate reaches gets one row per
    ``METRIC_FAMILIES`` entry; an instability has no dispersion (None).
    ``validation`` is the folds' ``validation_splits``.  When some fold
    estimate is degenerate, a criterion's ValueError skips the rest of its
    k, and the rows before it stay; otherwise the error propagates.
    """
    reach = min(0 if e is None else e.k for e in fold_estimates)
    ks = [k for k in k_list if k <= reach]
    # degenerate fold estimates make some criteria undefined (with no k to
    # score, an estimate may be missing)
    tolerant = bool(ks) and any(e.provenance.degenerate for e in fold_estimates)
    return _tables(data, [list(fold_estimates)], validation, ks, tolerant)[0]


# penalties per stacked pass, which holds a (penalties, V, n, k_max) block
_CV_STACK = 16


def cv_tables(data: PairedDataset, fold_estimates, validation, k_list):
    """``cv_table`` of each penalty's fold estimates (a list per penalty),
    yielded in penalty order.  The penalties whose fold estimates are all
    present and non-degenerate are scored together, in stacks of
    ``_CV_STACK`` up to the largest K among them (an estimate with fewer
    pairs raises); any other penalty, and each of a stack that raises,
    takes ``cv_table`` when its turn comes, so rows, skips and errors are
    those of one ``cv_table`` call per penalty."""
    fold_estimates = [list(ests) for ests in fold_estimates]
    stack = [i for i, ests in enumerate(fold_estimates)
             if ests and all(e is not None and not e.provenance.degenerate for e in ests)]
    reach = max((e.k for i in stack for e in fold_estimates[i]), default=0)
    tables = {}
    for start in range(0, len(stack), _CV_STACK):
        chunk = stack[start:start + _CV_STACK]
        try:
            tables.update(zip(chunk, _tables(data, [fold_estimates[i] for i in chunk], validation,
                                             [k for k in k_list if k <= reach])))
        except ValueError:
            pass  # each penalty of the chunk raises, or not, in its own cv_table
    for i, ests in enumerate(fold_estimates):
        yield tables[i] if i in tables else cv_table(data, ests, validation, k_list)
