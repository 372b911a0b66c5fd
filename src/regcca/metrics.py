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
    r = np.clip(np.abs(np.asarray(rho, dtype=float)), 0.0, RHO_CLAMP)
    return float(-0.5 * np.sum(np.log1p(-(r**2))))


AGGREGATIONS = {
    "l1_sum": lambda rho: float(np.sum(np.abs(rho))),
    "sq_sum": lambda rho: float(np.sum(np.asarray(rho) ** 2)),
    "mutual_info": mutual_information,
}


def aggregate(kind, rho):
    """Map a correlation vector to a scalar with a coordinate-wise
    increasing aggregation."""
    try:
        f = AGGREGATIONS[kind]
    except KeyError:
        raise ValueError(f"unknown aggregation {kind!r}") from None
    return f(np.asarray(rho, dtype=float))


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
    """Cross-validated criteria of one penalty's fold estimates, at every k.

    Each block is formed once, with ``k_max`` columns: the validation
    variates of every fold, the full-data variates of every estimate, and
    the Gram-Schmidt reductions of every estimate's weight and variate
    blocks.  A criterion at k <= k_max reads column prefixes.  For the
    reductions that is exact because Gram-Schmidt is prefix-stable: whether
    column j is kept, and its orthonormalised value, depend only on the
    columns before it.

    The folds' variates sit in stacks (validation blocks padded with zero
    rows to a common length, which changes no criterion), so the subspace
    correlations of every fold at a k come from one stacked
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
        self.data = data
        self.fold_estimates = list(fold_estimates)
        self.k_max = k_max
        self.validation = validation
        self._variates = None
        self._blocks_cache = None

    def _validation_variates(self):
        """(V, n_max, k_max) stacks of every fold's validation variates;
        zero where a fold's split is shorter, its estimate holds fewer than
        k_max pairs, or it has none."""
        if self._variates is None:
            n_max = max(val.n for val in self.validation)
            z = np.zeros((len(self.validation), n_max, self.k_max))
            w = np.zeros_like(z)
            for v, (val, est) in enumerate(zip(self.validation, self.fold_estimates)):
                if est is not None:
                    zv = val.x @ est.u_dirs[:, :self.k_max]
                    wv = val.y @ est.v_dirs[:, :self.k_max]
                    z[v, :val.n, :zv.shape[1]] = zv
                    w[v, :val.n, :wv.shape[1]] = wv
            self._variates = (z, w)
        return self._variates

    def cc_agg(self, mode, kind, K):
        """Mean and across-fold standard deviation of the CV correlation
        criterion at K; see ``cv_cc_agg``."""
        if mode not in ("successive", "subspace"):
            raise ValueError(f"unknown mode {mode!r}")
        if self.validation is None:
            raise ValueError("the validation splits are needed for cc_agg")
        if len(self.fold_estimates) != len(self.validation):
            raise ValueError(
                f"need one estimate per fold: got {len(self.fold_estimates)} "
                f"for V={len(self.validation)}"
            )
        if K > self.k_max:
            raise ValueError(f"K={K} exceeds k_max={self.k_max}")
        # the folds before the first one without K pairs are scored first,
        # so that an error of theirs wins over that fold's
        ests = self.fold_estimates
        usable = next((v for v, e in enumerate(ests) if e is None or e.k < K), len(ests))
        vals = []
        if usable:
            z, w = self._validation_variates()
            z, w = z[:usable, :, :K], w[:usable, :, :K]
            if mode == "successive":
                vals = [aggregate(kind, corr) for corr in signed_corrs(z, w)]
            else:
                vals = [aggregate(kind, rho) for rho in empirical_canonical_correlations(z, w)]
        if usable < len(ests):
            est = ests[usable]
            if est is None:
                raise ValueError(f"missing estimate for fold {usable}")
            raise ValueError(f"fold {usable} estimate has {est.k} pairs, need {K}")
        return float(np.mean(vals)), float(np.std(vals))

    def _blocks(self):
        """Per space ("wt": weights, "vt": full-data variates), the Gram
        matrix of each raw column across the blocks, (k_max, B, B), and the
        ``reduce_stack`` of the blocks, which ``instability`` reads."""
        if self._blocks_cache is None:
            ests = [e for e in self.fold_estimates if e is not None]
            u = np.zeros((len(ests), self.data.p, self.k_max))
            for b, est in enumerate(ests):
                cols = est.u_dirs[:, :self.k_max]
                u[b, :, :cols.shape[1]] = cols
            self._blocks_cache = {
                space: (np.einsum("bic,dic->cbd", raw, raw), reduce_stack(raw))
                for space, raw in (("wt", u), ("vt", self.data.x @ u))}
        return self._blocks_cache

    def instability(self, k):
        """Fold-to-fold instability at k; see ``cv_instability``."""
        first, second = np.triu_indices(sum(e is not None for e in self.fold_estimates), 1)
        if first.size == 0:
            raise ValueError("need at least 2 fold estimates")
        if k > self.k_max:
            raise ValueError(f"k={k} exceeds k_max={self.k_max}")
        out = {}
        for space, (gram, q) in self._blocks().items():
            out[f"{space}_uk_cv"] = float(np.mean(_vector_sin2(gram[k - 1], first, second)))
            # the first k reduced columns are the reduction of the first k
            # input columns alone, as Gram-Schmidt is prefix-stable
            out[f"{space}_Uk_cv"] = float(np.mean(pair_sin2(q[:, :, :k], first, second)[0]))
        return out


def cv_cc_agg(mode, kind, data: PairedDataset, fold_estimates, folds: FoldPlan, K,
              return_dispersion=False):
    """Cross-validated correlation criterion, averaged over folds.

    mode='successive': aggregate the per-pair validation correlations of
    each fold's estimate (signs kept; the aggregation sees the raw values).
    mode='subspace': aggregate the canonical correlations of the validation
    variate blocks.  Validation columns are shifted by training-fold means.

    With ``return_dispersion`` the across-fold standard deviation comes
    back alongside the mean.  One call of ``CvCriteria.cc_agg``.
    """
    crit = CvCriteria(data, fold_estimates, K, validation_splits(data, folds))
    mean, spread = crit.cc_agg(mode, kind, K)
    return (mean, spread) if return_dispersion else mean


def _vector_sin2(gram, first, second):
    """1 - cos^2 of the angle between vectors ``first[i]`` and
    ``second[i]``, from the Gram matrix of the vectors; raises for a zero
    vector in a pair."""
    sq = np.diagonal(gram)
    if not (np.all(sq[first]) and np.all(sq[second])):
        raise ValueError("zero vector in angle computation")
    cos = gram[first, second] / (np.sqrt(sq[first]) * np.sqrt(sq[second]))
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
    data matrix.  One call of ``CvCriteria.instability``."""
    return CvCriteria(data, fold_estimates, k).instability(k)


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
    crit = CvCriteria(data, fold_estimates, max(ks, default=0), validation)
    rows, skipped = [], []
    for k in ks:
        try:
            for family, mode in zip(METRIC_FAMILIES, ("successive", "subspace")):
                rows.append((metric_name(family, k, cv=True), k,
                             *crit.cc_agg(mode, "sq_sum", k)))
            inst = crit.instability(k)
            rows += [(metric_name(family, k, cv=True), k,
                      inst[family.replace("-", "_") + "k_cv"], None)
                     for family in METRIC_FAMILIES[2:]]
        except ValueError as exc:
            # degenerate fold estimates make some criteria undefined
            if not any(e.provenance.degenerate for e in fold_estimates):
                raise
            skipped.append((k, exc))
    return rows, skipped
