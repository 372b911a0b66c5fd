"""Two-view datasets, centring, partitioned sample covariance and CV folds."""

import csv
import json
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "PairedDataset",
    "CovarianceModel",
    "FoldPlan",
    "center_and_covariance",
    "make_folds",
    "split_fold",
    "load_two_view_csv",
    "save_two_view_csv",
    "read_csv_table",
    "write_csv_table",
    "write_json",
]


class DataError(ValueError):
    """Invalid dataset, covariance or fold-plan input."""


@dataclass
class PairedDataset:
    """Two sample matrices sharing a row (sample) axis, with variable names.

    ``centred`` is True only when every column mean is (numerically) zero.
    ``centring_means`` records the per-view means that were subtracted; for a
    validation split these are the training-fold means, so the columns are
    generally not mean-zero and ``centred`` is False.
    """

    x: np.ndarray
    y: np.ndarray
    x_names: list = None
    y_names: list = None
    centred: bool = False
    centring_means: tuple = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 2 or self.y.ndim != 2:
            raise DataError("views must be 2-d matrices")
        if self.x.shape[0] != self.y.shape[0]:
            raise DataError(
                f"views disagree on sample count: {self.x.shape[0]} vs {self.y.shape[0]}"
            )
        if self.x_names is None:
            self.x_names = [f"x{i + 1}" for i in range(self.x.shape[1])]
        if self.y_names is None:
            self.y_names = [f"y{j + 1}" for j in range(self.y.shape[1])]
        if len(self.x_names) != self.x.shape[1] or len(self.y_names) != self.y.shape[1]:
            raise DataError("variable name lists do not match view dimensions")

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def p(self):
        return self.x.shape[1]

    @property
    def q(self):
        return self.y.shape[1]


@dataclass
class CovarianceModel:
    """Joint covariance partitioned into within- and between-view blocks."""

    sxx: np.ndarray
    sxy: np.ndarray
    syy: np.ndarray

    def __post_init__(self):
        self.sxx = np.asarray(self.sxx, dtype=float)
        self.sxy = np.asarray(self.sxy, dtype=float)
        self.syy = np.asarray(self.syy, dtype=float)
        p, q = self.sxy.shape
        if self.sxx.shape != (p, p) or self.syy.shape != (q, q):
            raise DataError("covariance block shapes are inconsistent")
        for blk, name in ((self.sxx, "sxx"), (self.syy, "syy")):
            scale = max(1.0, float(np.max(np.abs(blk))) if blk.size else 1.0)
            if float(np.max(np.abs(blk - blk.T))) > 1e-10 * scale:
                raise DataError(f"{name} is not symmetric")

    @property
    def p(self):
        return self.sxx.shape[0]

    @property
    def q(self):
        return self.syy.shape[0]

    def joint(self):
        return np.block([[self.sxx, self.sxy], [self.sxy.T, self.syy]])

    @classmethod
    def from_joint(cls, s, p):
        """Blocks of a joint covariance whose first ``p`` variables are the
        x view; the inverse of ``joint``."""
        return cls(sxx=s[:p, :p], sxy=s[:p, p:], syy=s[p:, p:])


@dataclass
class FoldPlan:
    """Partition of [0, n) into V folds of near-equal size."""

    n: int
    assignments: np.ndarray
    V: int
    seed: int = 0

    def __post_init__(self):
        self.assignments = np.asarray(self.assignments, dtype=int)
        if self.assignments.shape != (self.n,):
            raise DataError("assignments must have length n")
        counts = np.bincount(self.assignments, minlength=self.V)
        if counts.size != self.V or np.any(counts == 0):
            raise DataError("folds must partition the samples with no empty fold")
        if counts.max() - counts.min() > 1:
            raise DataError("fold sizes differ by more than 1")

    def validation_rows(self, v):
        return np.flatnonzero(self.assignments == v)

    def training_rows(self, v):
        return np.flatnonzero(self.assignments != v)


def center_and_covariance(data: PairedDataset):
    """Mean-centre both views and form the sample covariance blocks.

    Covariance uses divisor n (not n-1), i.e. C = X.T @ X / n on centred data.
    """
    if data.n < 2:
        raise DataError(f"need at least 2 samples, got {data.n}")
    mx = data.x.mean(axis=0)
    my = data.y.mean(axis=0)
    xc = data.x - mx
    yc = data.y - my
    centred = replace(data, x=xc, y=yc, centred=True, centring_means=(mx, my))
    n = data.n
    cov = CovarianceModel(
        sxx=xc.T @ xc / n,
        sxy=xc.T @ yc / n,
        syy=yc.T @ yc / n,
    )
    return centred, cov


def make_folds(n, V, seed=0):
    """Deterministic balanced V-fold assignment of n samples."""
    if not 2 <= V <= n:
        raise DataError(f"need 2 <= V <= n, got V={V}, n={n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    assignments = np.empty(n, dtype=int)
    assignments[perm] = np.arange(n) % V
    return FoldPlan(n=n, assignments=assignments, V=V, seed=seed)


def split_fold(data: PairedDataset, plan: FoldPlan, v):
    """Train/validation split for fold v.

    Training columns are centred on their own means; validation columns are
    shifted by the training means (never their own), so validation means are
    generally nonzero.
    """
    if data.n != plan.n:
        raise DataError("fold plan was built for a different sample count")
    if not 0 <= v < plan.V:
        raise DataError(f"fold index {v} outside [0, {plan.V})")
    tr = plan.training_rows(v)
    va = plan.validation_rows(v)
    mx = data.x[tr].mean(axis=0)
    my = data.y[tr].mean(axis=0)
    train, val = (replace(data, x=data.x[rows] - mx, y=data.y[rows] - my, centred=centred,
                          centring_means=(mx, my))
                  for rows, centred in ((tr, True), (va, False)))
    return train, val


def _read_view_csv(path):
    rows = read_csv_table(path)
    if not rows:
        raise DataError(f"{path}: empty file")
    names = [c.strip() for c in rows[0]]
    body = rows[1:]
    if not body:
        raise DataError(f"{path}: no sample rows")
    # one cast parses the body (NumPy's str -> float cast accepts what
    # float() accepts); the cell-by-cell loop below only words the error
    try:
        data = np.array(body, dtype=float)
        if data.shape == (len(body), len(names)) and np.all(np.isfinite(data)):
            return names, data
    except ValueError:
        pass
    data = np.empty((len(body), len(names)))
    for i, row in enumerate(body):
        if len(row) != len(names):
            raise DataError(f"{path}: row {i + 2} has {len(row)} fields, expected {len(names)}")
        for j, cell in enumerate(row):
            cell = cell.strip()
            if cell == "":
                raise DataError(f"{path}: missing value at row {i + 2}, column {names[j]!r}")
            try:
                val = float(cell)
            except ValueError as exc:
                raise DataError(f"{path}: bad value {cell!r} at row {i + 2}") from exc
            if not np.isfinite(val):
                raise DataError(f"{path}: non-finite value at row {i + 2}, column {names[j]!r}")
            data[i, j] = val
    return names, data


def load_two_view_csv(x_path, y_path):
    """Load a paired dataset from two CSV files, rows matched by order.

    First row of each file holds variable names.  Missing values are an error.
    """
    x_names, x = _read_view_csv(x_path)
    y_names, y = _read_view_csv(y_path)
    if x.shape[0] != y.shape[0]:
        raise DataError(
            f"row-count mismatch: {x_path} has {x.shape[0]} samples, {y_path} has {y.shape[0]}"
        )
    return PairedDataset(x=x, y=y, x_names=x_names, y_names=y_names)


def save_two_view_csv(data: PairedDataset, x_path, y_path):
    """Write both views in the standard two-view CSV format."""
    for path, names, mat in ((x_path, data.x_names, data.x), (y_path, data.y_names, data.y)):
        write_csv_table(path, names, mat.tolist())


def read_csv_table(path):
    """A CSV file's rows as lists of strings; the read twin of ``write_csv_table``."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def write_csv_table(path, header, rows):
    """Write a header row and data rows as CSV; every table the package
    writes goes through here.  ``csv`` writes a Python float as its
    ``repr``, which reads back to the same float, so rows of Python floats
    (an array's ``tolist()``) round-trip exactly."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def write_json(path, obj):
    """Write ``obj`` as JSON with indent 2, sorted keys and a trailing
    newline, in one write; every JSON file the package writes goes through
    here."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
