"""Correlation-captured and estimation-accuracy criteria, oracle and CV forms.

Naming follows a fixed vocabulary: r2s{k} / R2s{k} for sums of squared
successive / subspace correlations, wt-/vt- prefixes for weight- and
variate-space squared sin-Theta quantities, u{k} / U{k} for single pairs
versus leading-k subspaces, and a -cv suffix for the cross-validated forms.
"""

import re
from dataclasses import dataclass, field

import numpy as np

from .cca_core import CcaEstimate, cca_from_covariance, empirical_canonical_correlations
from .datamodel import CovarianceModel, FoldPlan, PairedDataset, split_fold, write_csv_table
from .linalg import ORTH_TOL, canonical_angles, gram_schmidt_reduce, signed_corrs, sym_matrix_power

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
    "mutual_information",
    "gauss_mutual_info",
    "MetricRecord",
    "MetricReport",
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
    ``empirical_canonical_correlations`` call, and the instability of all
    fold pairs from one stacked product of the reduced blocks and one
    stacked SVD.

    ``validation`` holds the folds' validation splits
    (``validation_splits``); only ``cc_agg`` reads it.  Criteria raise the
    same errors, in the same order, as one call of ``cv_cc_agg`` or
    ``cv_instability`` at that k: the first failing fold or fold pair wins.
    """

    def __init__(self, data: PairedDataset, fold_estimates, k_max, validation=None):
        self.data = data
        self.fold_estimates = list(fold_estimates)
        self.k_max = k_max
        self.validation = validation
        self._variates = None
        self._pairs = None

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

    def _fold_pairs(self):
        """Every block and fold-pair product that ``instability`` reads, at
        k_max, per space ("wt": weights, "vt": full-data variates)."""
        if self._pairs is None:
            ests = [e for e in self.fold_estimates if e is not None]
            km = self.k_max
            u = np.zeros((len(ests), self.data.p, km))
            for b, est in enumerate(ests):
                cols = est.u_dirs[:, :km]
                u[b, :, :cols.shape[1]] = cols
            first, second = np.triu_indices(len(ests), 1)
            self._pairs = {"first": first, "second": second}
            for space, raw in (("wt", u), ("vt", self.data.x @ u)):
                # reduced blocks padded with zero columns, and which input
                # columns each kept
                q = np.zeros_like(raw)
                kept = np.zeros((len(ests), km), dtype=bool)
                for b, est in enumerate(ests):
                    qb, idx = gram_schmidt_reduce(raw[b, :, :min(est.k, km)])
                    q[b, :, :qb.shape[1]] = qb
                    kept[b, idx] = True
                self._pairs[space] = {
                    "raw": raw,
                    "q": q,
                    "kept": kept,
                    "suspect": _suspect_prefixes(q),
                    # Gram matrices of each raw column across blocks, (k_max, B, B)
                    "gram": np.einsum("bic,dic->cbd", raw, raw),
                    "products": q[first].swapaxes(1, 2) @ q[second],
                }
        return self._pairs

    def instability(self, k):
        """Fold-to-fold instability at k; see ``cv_instability``."""
        if sum(e is not None for e in self.fold_estimates) < 2:
            raise ValueError("need at least 2 fold estimates")
        if k > self.k_max:
            raise ValueError(f"k={k} exceeds k_max={self.k_max}")
        pairs = self._fold_pairs()
        first, second = pairs["first"], pairs["second"]
        single, dims = {}, {}
        flagged = np.zeros(first.size, dtype=bool)
        for space in ("wt", "vt"):
            blocks = pairs[space]
            g = blocks["gram"][k - 1]
            sq = np.diagonal(g)
            with np.errstate(divide="ignore", invalid="ignore"):
                cos = g[first, second] / (np.sqrt(sq[first]) * np.sqrt(sq[second]))
            single[space] = np.maximum(0.0, 1.0 - cos**2)
            # kept columns that come from the first k input columns: the
            # reduction of those columns alone (Gram-Schmidt is prefix-stable)
            m = np.count_nonzero(blocks["kept"][:, :k], axis=1)
            suspect = blocks["suspect"][np.arange(m.size), m]
            dims[space] = (m[first], m[second])
            flagged |= ((sq[first] == 0.0) | (sq[second] == 0.0)
                        | (np.minimum(m[first], m[second]) == 0)
                        | suspect[first] | suspect[second])
        # a flagged pair goes through the per-pair kernels, which raise the
        # error the per-pair computation meets first
        for pair in np.flatnonzero(flagged):
            i, j = first[pair], second[pair]
            for space in ("wt", "vt"):
                raw = pairs[space]["raw"]
                _vector_sin2(raw[i, :, k - 1], raw[j, :, k - 1])
            for space in ("wt", "vt"):
                q, (rows, cols) = pairs[space]["q"], dims[space]
                _orthonormal_sin2(q[i, :, :rows[pair]], q[j, :, :cols[pair]])
        # prefixes of the k_max products, zeroed beyond each block's kept
        # columns: the zero rows and columns add only zero singular values
        idx = np.arange(k)
        blocks, keff = [], []
        for space in ("wt", "vt"):
            rows, cols = dims[space]
            mask = (idx < rows[:, None])[:, :, None] & (idx < cols[:, None])[:, None, :]
            blocks.append(np.where(mask, pairs[space]["products"][:, :k, :k], 0.0))
            keff.append(np.minimum(rows, cols))
        cos = np.clip(np.linalg.svd(np.concatenate(blocks), compute_uv=False), 0.0, 1.0)
        keff = np.concatenate(keff)
        sin2 = keff - np.sum(np.where(idx < keff[:, None], cos**2, 0.0), axis=1)
        wt_big, vt_big = np.split(sin2, 2)
        return {
            "wt_uk_cv": float(np.mean(single["wt"])),
            "vt_uk_cv": float(np.mean(single["vt"])),
            "wt_Uk_cv": float(np.mean(wt_big)),
            "vt_Uk_cv": float(np.mean(vt_big)),
        }


def _suspect_prefixes(q):
    """For a stack of orthonormal blocks (B, rows, m), whether each column
    prefix (length 0..m) holds a non-finite entry or deviates from
    orthonormality by more than half ``ORTH_TOL``, the tolerance of
    ``canonical_angles`` (max Gram error); a (B, m + 1) array."""
    m = q.shape[2]
    finite = np.logical_and.accumulate(np.isfinite(q).all(axis=1), axis=1)
    dev = np.abs(q.swapaxes(1, 2) @ q - np.eye(m))
    # entry (a, b) joins the prefixes longer than max(a, b)
    newest = np.maximum(np.tril(dev).max(axis=2), np.triu(dev).max(axis=1))
    suspect = np.zeros((q.shape[0], m + 1), dtype=bool)
    suspect[:, 1:] = ~finite | ~(np.maximum.accumulate(newest, axis=1) <= ORTH_TOL / 2)
    return suspect


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


def _vector_sin2(a, b):
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("zero vector in angle computation")
    cos = float(a @ b / (na * nb))
    return max(0.0, 1.0 - cos**2)


def _orthonormal_sin2(qa, qb):
    """Squared sin-Theta between two orthonormal (possibly reduced) blocks;
    returns (value, effective dimension)."""
    keff = min(qa.shape[1], qb.shape[1])
    if keff == 0:
        raise ValueError("zero-dimensional subspace in angle computation")
    cosines = canonical_angles(qa, qb)
    return float(keff - np.sum(cosines[:keff] ** 2)), keff


def _subspace_sin2(a, b):
    """Squared sin-Theta after orthonormalising (and if needed reducing)
    both blocks; returns (value, effective dimension)."""
    qa, _ = gram_schmidt_reduce(np.asarray(a, dtype=float))
    qb, _ = gram_schmidt_reduce(np.asarray(b, dtype=float))
    return _orthonormal_sin2(qa, qb)


def estimation_error(cov: CovarianceModel, truth: CcaEstimate, est: CcaEstimate, k):
    """Squared sin-Theta errors of the k-th pair and leading-k subspaces.

    wt_* compares raw weight vectors, vt_* compares them after
    pre-multiplication by Sxx^{1/2} (variate space).
    """
    if k > min(truth.k, est.k):
        raise ValueError(f"k={k} exceeds available pairs")
    half = sym_matrix_power(cov.sxx, 0.5)
    u_t, u_e = truth.u_dirs[:, k - 1], est.u_dirs[:, k - 1]
    out = {
        "wt_uk": _vector_sin2(u_t, u_e),
        "vt_uk": _vector_sin2(half @ u_t, half @ u_e),
    }
    out["wt_Uk"], _ = _subspace_sin2(truth.u_dirs[:, :k], est.u_dirs[:, :k])
    out["vt_Uk"], out["effective_k"] = _subspace_sin2(
        half @ truth.u_dirs[:, :k], half @ est.u_dirs[:, :k]
    )
    return out


def cv_instability(data: PairedDataset, fold_estimates, k):
    """Average squared sin-Theta between estimates from different training
    folds; the variate versions project both estimates through the full
    data matrix.  One call of ``CvCriteria.instability``."""
    return CvCriteria(data, fold_estimates, k).instability(k)


# ---------------------------------------------------------------------------
# long-format reporting
# ---------------------------------------------------------------------------

_METRIC_NAME_RE = re.compile(r"^(r2s\d+|R2s\d+|(wt|vt)-(u|U)\d+)(-cv)?$")


def metric_name(family, k, cv=False):
    """Canonical metric identifier, e.g. ('r2s', 3, cv=True) -> 'r2s3-cv'."""
    if family not in ("r2s", "R2s", "wt-u", "vt-u", "wt-U", "vt-U"):
        raise ValueError(f"unknown metric family {family!r}")
    return f"{family}{k}" + ("-cv" if cv else "")


@dataclass
class MetricRecord:
    algorithm: str
    penalty: float
    fold: object
    metric: str
    k: int
    value: float
    dispersion: float = None

    def __post_init__(self):
        if not _METRIC_NAME_RE.match(self.metric):
            raise ValueError(f"metric name {self.metric!r} outside the vocabulary")


@dataclass
class MetricReport:
    records: list = field(default_factory=list)

    def add(self, **kwargs):
        self.records.append(MetricRecord(**kwargs))

    def to_csv(self, path):
        """Long-format CSV with columns (algorithm, penalty, fold, metric, k, value)."""
        write_csv_table(path, ["algorithm", "penalty", "fold", "metric", "k", "value"],
                        [[r.algorithm, float(r.penalty), r.fold, r.metric, r.k, float(r.value)]
                         for r in self.records])
