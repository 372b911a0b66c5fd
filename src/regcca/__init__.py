"""Regularised canonical correlation analysis toolbox.

Four estimators (ridge CCA, sparse PLS, sparse CCA by linearised ADMM and
graphical-lasso CCA), oracle and cross-validated evaluation criteria,
subspace registration and overlap diagnostics, biplot exports, and synthetic
data generators for benchmark experiments.
"""

__version__ = "0.1.0"

from .biplot import BiplotCoordinates, export_biplot, structure_correlations, verify_biplot_bounds
from .cca_core import (
    CcaEstimate,
    Provenance,
    cca_from_covariance,
    empirical_canonical_correlations,
    sample_cca,
)
from .compare import overlap_matrix, register, registered_overlaps, trajectory_comparison
from .datamodel import (
    CovarianceModel,
    FoldPlan,
    PairedDataset,
    center_and_covariance,
    load_two_view_csv,
    make_folds,
    save_two_view_csv,
    split_fold,
)
from .estimators import (
    EstimatorSpec,
    TrajectoryResult,
    fit_estimator,
    gcca_fit,
    rcca_fit,
    scca_fit,
    scca_kkt_residuals,
    spls_fit,
    sweep_trajectory,
)
from .glasso import PrecisionEstimate, glasso_fit, kkt_residual
from .linalg import canonical_angles, gram_schmidt_metric, sym_matrix_power
from .metrics import (
    CvCriteria,
    cv_cc_agg,
    cv_instability,
    estimation_error,
    gauss_mutual_info,
    mutual_information,
    oracle_corr,
    subsp_cc_agg,
    succ_cc_agg,
    validation_splits,
)
from .synth import bootstrap_covariance, canonical_pair_covariance, mvn_sample, powerlaw_precision
