"""Structure-correlation (biplot) coordinates and their approximation bounds.

Each variable from both views is placed at its vector of correlations with
one view's canonical variates.  Squared norms are bounded by one, and inner
products of the coordinates approximate variable correlations, with a
between-view error factor given by the first left-out canonical correlation.
"""

from dataclasses import dataclass, field

import numpy as np

from .cca_core import CcaEstimate, cca_from_covariance, require_pairs
from .datamodel import CovarianceModel, PairedDataset, center_and_covariance, write_csv_table

__all__ = [
    "BiplotCoordinates",
    "structure_correlations",
    "verify_biplot_bounds",
    "export_biplot",
]

_VAR_TOL = 1e-12


@dataclass
class BiplotCoordinates:
    """Correlation coordinates of every variable against K variates.

    Masked variables (zero variance) carry NaN rows; ``warnings`` lists
    what was masked and why.
    """

    variate_view: str
    x_coords: np.ndarray
    y_coords: np.ndarray
    x_names: list
    y_names: list
    warnings: list = field(default_factory=list)

    @property
    def K(self):
        return self.x_coords.shape[1]

    def sq_norms(self, view):
        coords = self.x_coords if view == "x" else self.y_coords
        return np.sum(coords**2, axis=1)


def _coords_from_cov(cov: CovarianceModel, u_dirs, v_dirs, variate_view, K, warnings):
    if variate_view == "x":
        w = np.asarray(u_dirs, dtype=float)[:, :K]
        s_own = cov.sxx
        cov_with_x = cov.sxx @ w
        cov_with_y = cov.sxy.T @ w
    else:
        w = np.asarray(v_dirs, dtype=float)[:, :K]
        s_own = cov.syy
        cov_with_x = cov.sxy @ w
        cov_with_y = cov.syy @ w
    variate_var = np.einsum("ik,ij,jk->k", w, s_own, w)
    bad_variates = variate_var <= _VAR_TOL * max(1.0, float(np.max(np.abs(s_own))))
    for k in np.flatnonzero(bad_variates):
        warnings.append(f"variate {k + 1} has near-zero variance; coordinate masked")
    root = np.sqrt(np.where(bad_variates, np.nan, variate_var))

    def block(cov_with_variates, var_diag, view_tag):
        coords = cov_with_variates / root[None, :]
        std = np.sqrt(np.maximum(var_diag, 0.0))
        dead = std <= np.sqrt(_VAR_TOL) * max(1.0, float(np.max(std)) if std.size else 1.0)
        for i in np.flatnonzero(dead):
            warnings.append(f"{view_tag} variable {i + 1} has zero variance; masked")
        with np.errstate(invalid="ignore", divide="ignore"):
            coords = coords / std[:, None]
        coords[dead] = np.nan
        return coords

    cx = block(cov_with_x, np.diagonal(cov.sxx), "x")
    cy = block(cov_with_y, np.diagonal(cov.syy), "y")
    return cx, cy


def structure_correlations(source, estimate: CcaEstimate, variate_view="x", K=None):
    """Correlation coordinates of all variables against one view's variates.

    ``source`` may be a PairedDataset (sample mode: empirical correlations
    with the fitted variates, computed on the same full dataset used for
    fitting) or a CovarianceModel (population mode: covariance algebra).
    """
    if variate_view not in ("x", "y"):
        raise ValueError("variate_view must be 'x' or 'y'")
    if K is None:
        K = estimate.k
    if K < 1 or K > estimate.k:
        raise ValueError(f"K={K} outside [1, {estimate.k}]")
    warnings = []
    if isinstance(source, PairedDataset):
        _, cov = center_and_covariance(source)
        x_names, y_names = source.x_names, source.y_names
    elif isinstance(source, CovarianceModel):
        cov = source
        x_names = [f"x{i + 1}" for i in range(cov.p)]
        y_names = [f"y{j + 1}" for j in range(cov.q)]
    else:
        raise TypeError("source must be a PairedDataset or CovarianceModel")
    cx, cy = _coords_from_cov(cov, estimate.u_dirs, estimate.v_dirs, variate_view, K, warnings)
    return BiplotCoordinates(
        variate_view=variate_view,
        x_coords=cx,
        y_coords=cy,
        x_names=list(x_names),
        y_names=list(y_names),
        warnings=warnings,
    )


def verify_biplot_bounds(cov: CovarianceModel, estimate: CcaEstimate, K):
    """Max violations of the biplot approximation bounds for an exact
    population decomposition.

    Within-view: |Corr - <phi, phi'>| <= sqrt(1-|phi|^2) sqrt(1-|phi'|^2).
    Between-view: the same with an extra factor rho_{K+1}.
    Returns the max of (LHS - RHS) per family; all should be <= 0 up to
    numerical error.  K=0 would make the between-view bound vacuous and is
    rejected.
    """
    require_pairs(cov, K)
    coords = structure_correlations(cov, estimate, variate_view="x", K=K)
    full = cca_from_covariance(cov, min(cov.p, cov.q))
    rho_next = float(full.rho[K]) if K < min(cov.p, cov.q) else 0.0
    # every variable of both views at once: the joint correlation matrix,
    # its approximation and the bound, rho_next on the between-view blocks
    p = cov.p
    phi = np.vstack([coords.x_coords, coords.y_coords])
    sd = np.sqrt(np.concatenate([np.diagonal(cov.sxx), np.diagonal(cov.syy)]))
    slack = np.sqrt(np.clip(1.0 - np.sum(phi**2, axis=1), 0.0, None))
    in_y = np.arange(phi.shape[0]) >= p
    factor = np.where(in_y[:, None] == in_y, 1.0, rho_next)
    excess = np.abs(cov.joint() / np.outer(sd, sd) - phi @ phi.T) - factor * np.outer(slack, slack)
    return {"within_x": float(np.max(excess[:p, :p])), "within_y": float(np.max(excess[p:, p:])),
            "between": float(np.max(excess[:p, p:])), "rho_next": rho_next}


def export_biplot(coords: BiplotCoordinates, threshold, path):
    """Write coordinates to CSV, keeping variables with squared norm >=
    threshold.

    Columns: (view, name, coord_1..coord_K, sq_norm); rows ordered by view
    then name so output bytes are reproducible.  Masked (NaN) variables
    never pass the threshold.
    """
    rows = []
    for view, names, coords_block in (
        ("x", coords.x_names, coords.x_coords),
        ("y", coords.y_names, coords.y_coords),
    ):
        sq = np.sum(coords_block**2, axis=1)
        for name, row, s in zip(names, coords_block, sq):
            if np.isfinite(s) and s >= threshold:
                rows.append((view, str(name), row, float(s)))
    rows.sort(key=lambda r: (r[0], r[1]))
    write_csv_table(path, ["view", "name"] + [f"coord_{i + 1}" for i in range(coords.K)]
                    + ["sq_norm"],
                    [[view, name] + row.tolist() + [s] for view, name, row, s in rows])
    return path
