"""Dense linear-algebra kernels shared by the whole toolbox, one per concept.

``sym_eig`` and ``thin_svd`` return NumPy's tuples, ``(w, q)`` and
``(u, s, v)``, with values descending; ``floored_power`` raises floored
eigenvalues to a power, and is the one clamp every whitening and
``sym_matrix_power`` use; ``reduce_stack`` is the one orthonormaliser,
column by column across a stack of blocks (``gram_schmidt_reduce`` is its
one-block form, ``gram_schmidt_metric`` its strict form);
``canonical_angles`` gives principal-angle cosines, ``pair_sin2`` the one
squared sin-Theta, and ``signed_corrs`` per-column correlations.
``AndersonMemory`` is the safeguarded type-II Anderson acceleration of
glasso's ADMM, and ``HandOff`` the one rule for when an iterative solver
tries its Newton finish, shared by the glasso and scca solvers.

Everything here is deterministic: eigen/singular vectors are sign-canonicalised
so that repeated runs (and different platforms) produce identical output, which
the snapshot and byte-identity tests rely on.
"""

import numpy as np

__all__ = [
    "sym_eig",
    "thin_svd",
    "canonical_signs",
    "floored_power",
    "sym_matrix_power",
    "soft_threshold",
    "canonical_angles",
    "pair_sin2",
    "signed_corrs",
    "gram_schmidt_metric",
    "gram_schmidt_reduce",
    "reduce_stack",
    "AndersonMemory",
    "HandOff",
]

DEFAULT_RANK_TOL = 1e-10
# largest max-entry deviation of a Gram matrix from the identity that still
# counts as orthonormal columns
ORTH_TOL = 1e-8
# Tikhonov weight of the Anderson mixing least-squares solve, relative to the
# mean squared residual norm in memory; keeps nearly collinear residuals
# solvable
ANDERSON_REG = 1e-10


class LinalgError(ValueError):
    """Invalid input to a linear-algebra kernel."""


def _require_finite(a, name="matrix"):
    if not np.all(np.isfinite(a)):
        raise LinalgError(f"{name} contains non-finite entries")


def canonical_signs(left):
    """+1/-1 per column (of each block of a stack), the sign that makes the
    column's largest-magnitude entry positive (ties resolve to the lowest
    index via argmax; +1 for a zero column)."""
    idx = np.argmax(np.abs(left), axis=-2)
    signs = np.sign(np.take_along_axis(left, idx[..., None, :], axis=-2)[..., 0, :])
    signs[signs == 0] = 1.0
    return signs


def _check_symmetric(a, tol=1e-10, name="matrix"):
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise LinalgError(f"{name} must be square, got shape {a.shape}")
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
    dev = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if dev > tol * scale:
        raise LinalgError(f"{name} not symmetric: max asymmetry {dev:.3e}")


def sym_eig(a):
    """Symmetric eigendecomposition ``(w, q)``, eigenvalues descending.

    Tied eigenvalues keep ``eigh``'s order, so a diagonal matrix keeps its
    axes in place (and an identity block whitens to the identity).
    Columns of q are sign-canonicalised for deterministic output.
    """
    _require_finite(a)
    _check_symmetric(a)
    w, q = np.linalg.eigh(0.5 * (a + a.T))
    order = np.argsort(-w, kind="stable")
    w, q = w[order], q[:, order]
    return w, q * canonical_signs(q)


def thin_svd(a):
    """Full thin SVD ``(u, s, v)``: all min(p, q) triples, singular values
    descending, signs canonical on u (v flipped with it, so u diag(s) v.T
    is unchanged)."""
    _require_finite(a)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    signs = canonical_signs(u)
    return u * signs, s, vt.T * signs


def floored_power(w, trace, exponent):
    """Eigenvalues ``w`` of a d x d PSD matrix with trace ``trace``, clamped
    below and raised to ``exponent``.

    The clamp is 1e-12 times the mean eigenvalue ``trace / d``, kept above
    the smallest normal float, so negative powers stay finite on
    numerically rank-deficient input.  ``w`` may be a stack (..., d) with
    one trace per matrix.
    """
    d = w.shape[-1]
    floor = np.expand_dims(1e-12 * np.maximum(trace, d * np.finfo(float).tiny) / d, -1)
    return np.maximum(w, floor) ** exponent


def sym_matrix_power(a, exponent):
    """Matrix power of a symmetric PSD matrix via eigendecomposition, the
    eigenvalues floored by ``floored_power``.  Supported exponents: -1,
    -1/2, +1/2.
    """
    if exponent not in (-1.0, -0.5, 0.5):
        raise LinalgError(f"unsupported exponent {exponent}")
    w, q = sym_eig(a)
    powered = (q * floored_power(w, np.trace(a), exponent)) @ q.T
    return 0.5 * (powered + powered.T)


def soft_threshold(a, thr):
    """Elementwise soft-thresholding sign(a) * max(|a| - thr, 0), the
    proximal map of thr * ||.||_1."""
    return np.sign(a) * np.maximum(np.abs(a) - thr, 0.0)


def canonical_angles(z, w):
    """Cosines of the principal angles between the column spans of two
    orthonormal blocks, descending.

    Cosines are the singular values of ``z.T @ w`` clamped to [0, 1].
    Raises if either block's columns deviate from orthonormality by more
    than ``ORTH_TOL`` in max Gram error.
    """
    for m, name in ((z, "first block"), (w, "second block")):
        _require_finite(m, name)
        gram_dev = float(np.max(np.abs(m.T @ m - np.eye(m.shape[1]))))
        if gram_dev > ORTH_TOL:
            raise LinalgError(
                f"{name} columns not orthonormal: Gram deviation {gram_dev:.3e}"
            )
    return np.clip(np.linalg.svd(z.T @ w, compute_uv=False), 0.0, 1.0)


def pair_sin2(q, first, second):
    """Squared sin-Theta between the column spans of pairs of blocks.

    ``q`` is a (..., B, rows, m) stack of orthonormal blocks, padded with
    zero columns, which span nothing; pair i compares blocks ``first[i]``
    and ``second[i]`` of each stack.  Returns (sin2, k_eff) per pair,
    (..., pairs): k_eff is the smaller dimension, and sin2 is k_eff minus
    the sum of the squared cosines, from one stacked product and one
    stacked SVD.

    Each block is checked once, in stack order: ``LinalgError`` names the
    first block with a non-finite entry, then the first whose nonzero
    columns deviate from orthonormality by more than ``ORTH_TOL`` (max
    Gram error), and is raised when a pair has a zero-dimensional block.
    """
    count = q.shape[-3]
    finite = np.isfinite(q).all(axis=(-2, -1))
    if not finite.all():
        raise LinalgError(f"block {np.argmin(finite) % count} contains non-finite entries")
    m = q.shape[-1]
    # every block against every block, (..., B, B, m, m): the diagonal holds the Gram matrices
    products = q.swapaxes(-1, -2)[..., :, None, :, :] @ q[..., None, :, :, :]
    gram = np.einsum("...bbij->...bij", products)
    live = np.einsum("...bii->...bi", gram) != 0.0
    gram_dev = np.abs(gram - live[..., None] * np.eye(m)).max(axis=(-2, -1))
    b = np.argmax(gram_dev > ORTH_TOL)
    if gram_dev.flat[b] > ORTH_TOL:
        raise LinalgError(f"block {b % count} columns not orthonormal: "
                          f"Gram deviation {gram_dev.flat[b]:.3e}")
    dims = np.count_nonzero(live, axis=-1)
    keff = np.minimum(dims[..., first], dims[..., second])
    if not keff.all():
        raise LinalgError("zero-dimensional subspace in angle computation")
    # singular values are non-negative: clamping at 1 bounds each cosine
    cos = np.minimum(np.linalg.svd(products[..., first, second, :, :], compute_uv=False), 1.0)
    return keff - np.sum(cos**2, axis=-1), keff


def signed_corrs(z, w):
    """Per-column correlations of paired (..., n, k) blocks without
    centring; 0 where a column is zero."""
    dots = np.einsum("...ij,...ij->...j", z, w)
    nz = np.sqrt(np.einsum("...ij,...ij->...j", z, z))
    nw = np.sqrt(np.einsum("...ij,...ij->...j", w, w))
    dead = (nz == 0.0) | (nw == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(dead, 0.0, dots / (nz * nw))


def gram_schmidt_reduce(m, g=None):
    """Orthonormalise columns under the inner product ``<a, b> = a.T G b``
    (``g=None``: Euclidean), dropping dependent columns: ``reduce_stack``
    of one block.  Returns (orthonormal block, list of kept column
    indices).  The routine is prefix-stable: whether column j is kept, and
    its value, depend only on the columns up to j, bit for bit.
    """
    q = reduce_stack(m, g)
    kept = np.flatnonzero(q.any(axis=0)).tolist()
    return np.ascontiguousarray(q[:, kept]), kept


def _metric_norm(v, g):
    """The norms of a stack of vectors (..., rows) under G, and their images."""
    gv = v if g is None else (g @ v[..., None])[..., 0]
    return np.sqrt(np.maximum((v[..., None, :] @ gv[..., None])[..., 0, 0], 0.0)), gv


def reduce_stack(blocks, g=None):
    """Gram-Schmidt of every block of a (..., rows, m) stack under
    ``<a, b> = a.T G b`` (``g=None``: Euclidean), column by column across
    all blocks, with kept columns in their input places and dropped ones
    zero, so that columns :k are the reduction of the first k inputs alone.

    Column j is projected off the columns before it twice, v -= Q (GQ).T v
    ("twice is enough": Giraud, Langou & Rozloznik 2005), and dropped when
    what is left has norm at most ``DEFAULT_RANK_TOL`` times its own; a
    dropped column is zero, so it projects nothing off later ones.
    """
    blocks = np.asarray(blocks, dtype=float)
    # the columns as rows, and their images under G
    qt = np.zeros_like(blocks.swapaxes(-1, -2), order="C")
    gqt = qt if g is None else np.zeros_like(qt)
    for j in range(blocks.shape[-1]):
        v = blocks[..., j].copy()
        norm0, _ = _metric_norm(v, g)
        q, gq = qt[..., :j, :], gqt[..., :j, :]
        for _ in range(2):
            v -= (q.swapaxes(-1, -2) @ (gq @ v[..., None]))[..., 0]
        nrm, gv = _metric_norm(v, g)
        keep = ~(nrm <= DEFAULT_RANK_TOL * np.maximum(norm0, 1e-300))[..., None]
        np.divide(v, nrm[..., None], out=qt[..., j, :], where=keep)
        if g is not None:
            np.divide(gv, nrm[..., None], out=gqt[..., j, :], where=keep)
    return np.ascontiguousarray(qt.swapaxes(-1, -2))


def gram_schmidt_metric(m, g=None):
    """``gram_schmidt_reduce`` that raises instead of dropping: column k of
    the output lies in the span of the first k input columns, and a rank
    deficiency is reported at the first dependent column.
    """
    _require_finite(m)
    if g is not None:
        _check_symmetric(g, name="metric")
    q, kept = gram_schmidt_reduce(m, g)
    if len(kept) < np.shape(m)[1]:
        j = next((i for i, col in enumerate(kept) if i != col), len(kept))
        raise LinalgError(f"rank deficiency at column {j}")
    return q


class AndersonMemory:
    """Type-II Anderson acceleration of a fixed-point iteration s <- T(s)
    with its safeguard (Walker & Ni 2011; Fu, Zhang & Boyd 2020), as the
    glasso ADMM runs it.

    The memory keeps the last ``depth`` residuals f_j = T(s_j) - s_j and
    images T(s_j), flattened, with the Gram matrix of the residuals updated
    one row per ``push``; ``extrapolate`` is the affine combination of the
    images whose residuals mix to the least norm.  A solver evaluates T at
    each ``next_point``.  The memory ``rejects`` an extrapolation whose
    residual norm exceeds the one of the base point, the last point given
    to ``accept``: the solver then steps to ``base_image``, the plain
    step from the base point.  A new ``key`` of the map (glasso's ADMM
    penalty) clears the memory, as residuals of two maps do not mix.
    ``accepted`` and ``rejected`` count the extrapolations.
    """

    def __init__(self, shape, depth):
        size = int(np.prod(shape))
        self.shape = shape
        self.depth = depth
        self.residuals = np.empty((depth, size))
        self.images = np.empty((depth, size))
        self.gram = np.empty((depth, depth))
        self.count = self.head = 0
        self.key = None
        # the base point's residual norm and its image
        self.base_norm, self.base_image = np.inf, None
        self.extrapolated = False
        self.accepted = self.rejected = 0

    def clear(self):
        self.count = self.head = 0

    def rejects(self, res):
        """Whether the point just evaluated, of residual norm ``res``, is an
        extrapolation to drop; counts it if so."""
        if not (self.extrapolated and res > self.base_norm):
            return False
        self.rejected += 1
        self.extrapolated = False
        return True

    def accept(self, residual, image, res, key):
        """Make the point just evaluated the base point and push it."""
        if self.extrapolated:
            self.accepted += 1
        if not np.array_equal(key, self.key):
            self.clear()
        self.key = key
        self.base_norm, self.base_image = res, image
        self.push(residual, image)

    def next_point(self, image, mix=True):
        """The extrapolation, or ``image`` when ``mix`` is false or fewer
        than two slots are filled."""
        self.extrapolated = mix and self.count > 1
        return self.extrapolate() if self.extrapolated else image

    def push(self, residual, image):
        i = self.head
        self.residuals[i] = residual.ravel()
        self.images[i] = image.ravel()
        self.count = min(self.count + 1, self.depth)
        self.head = (i + 1) % self.depth
        # einsum rather than BLAS: OpenBLAS threads these long, thin products
        row = np.einsum("ij,j->i", self.residuals[: self.count], self.residuals[i])
        self.gram[i, : self.count] = row
        self.gram[: self.count, i] = row

    def weights(self):
        """alpha over the slots in memory: it minimises
        ||sum_j alpha_j f_j|| subject to sum_j alpha_j = 1, by the
        regularised normal equations of the residuals' Gram matrix.  When
        every residual in memory is zero, all weight is on the newest."""
        n = self.count
        gram = self.gram[:n, :n].copy()
        trace = np.trace(gram)
        if trace == 0.0:
            return np.eye(n)[(self.head - 1) % self.depth]
        gram.flat[:: n + 1] += ANDERSON_REG * trace / n
        y = np.linalg.solve(gram, np.ones(n))
        return y / np.sum(y)

    def extrapolate(self):
        """The affine combination of the images with the ``weights``."""
        return np.einsum("i,ij->j", self.weights(), self.images[: self.count]).reshape(self.shape)


class HandOff:
    """When an iterative solver hands its iterate to a finish that may fail
    (glasso's Newton polish, scca's pair finish): the one rule of both.

    The first try comes at the first check whose residual is at most
    ``first``, a module constant of the solver; after a try, the next waits
    until the residual has fallen tenfold below that try's, so failed tries
    cost at most one per decade of the residual.
    """

    def __init__(self, first):
        self.threshold = first

    def due(self, residual):
        """Whether a check of this residual tries the finish."""
        if not residual <= self.threshold:
            return False
        self.threshold = residual / 10.0
        return True
