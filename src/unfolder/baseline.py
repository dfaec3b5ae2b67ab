"""Direct inversion baseline and SVD diagnostics.

Unregularized inversion is the textbook approach that the iterative method
replaces; on an ill-conditioned response it produces the characteristic
large sign-alternating amplitudes.  The SVD helpers quantify that
ill-conditioning and expose the null-space projector, i.e. the part of the
truth a singular response cannot recover.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import DimensionError
from .histogram import Histogram
from .response import ResponseMatrix

# singular values below this fraction of the largest count as zero
RANK_CUTOFF = 1e-12


def naive_invert(R: ResponseMatrix, g: Histogram) -> Histogram:
    """Least-squares solution of ``A f = g`` with no regularization.

    Uses the pseudo-inverse, so non-square systems get the least-squares
    solution and rank-deficient ones the minimum-norm solution (with a
    warning).  Statistical errors are propagated through the pseudo-inverse
    when present.
    """
    if g.axis != R.meas_axis:
        raise DimensionError("measured histogram is not on the response's measured axis")
    # one factorisation for the rank and the pseudo-inverse; the latter is
    # np.linalg.pinv(a, rcond=RANK_CUTOFF) step for step, so bit-identical
    u, s, vt = np.linalg.svd(R.matrix, full_matrices=False)
    large = s > RANK_CUTOFF * np.max(s)
    rank = int(np.count_nonzero(large))
    if rank < R.true_axis.nbins:
        warnings.warn(
            f"response rank {rank} < {R.true_axis.nbins} true bins; "
            "returning the minimum-norm solution", RuntimeWarning)
    np.divide(1, s, where=large, out=s)
    s[~large] = 0
    pinv = vt.T @ (s[:, None] * u.T)
    f = pinv @ g.contents
    stat = None
    if g.stat_err is not None:
        stat = np.sqrt((pinv ** 2) @ (g.stat_err ** 2))
    return Histogram(R.true_axis, f, stat_err=stat, kind=g.kind, unfolded=True)


def kernel_projector(R: ResponseMatrix) -> np.ndarray:
    """Orthogonal projector onto the null space of the response matrix."""
    _, singular, vt = np.linalg.svd(R.matrix, full_matrices=True)
    cutoff = RANK_CUTOFF * (singular[0] if singular.size else 0.0)
    rank = int(np.sum(singular > cutoff))
    null_basis = vt[rank:].T
    return null_basis @ null_basis.T


def kernel_projection(R: ResponseMatrix, f) -> np.ndarray:
    """Project a true-axis vector onto the null space of the response.

    Zero for an invertible response; otherwise the unrecoverable component
    of `f`, so the iteration's noiseless limit is ``f - kernel_projection(R, f)``.
    """
    v = np.asarray(f, dtype=np.float64)
    if v.shape[0] != R.true_axis.nbins:
        raise DimensionError("vector length does not match the true axis")
    return kernel_projector(R) @ v


def condition_number(R: ResponseMatrix) -> float:
    """sigma_max / sigma_min of the response; inf when rank deficient."""
    singular = np.linalg.svd(R.matrix, compute_uv=False)
    if singular[-1] <= RANK_CUTOFF * singular[0]:
        return math.inf
    return float(singular[0] / singular[-1])
