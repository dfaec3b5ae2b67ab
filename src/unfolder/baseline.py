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


def _large(s):
    """The singular values that count as nonzero."""
    return s > RANK_CUTOFF * np.max(s)


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
    large = _large(s)
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
    """Orthogonal projector onto the null space of the response matrix.

    Exactly zero when the response has full column rank; otherwise
    ``I - V_rᵀV_r`` over the row-space basis ``V_r`` of the thin SVD.
    """
    _, s, vt = np.linalg.svd(R.matrix, full_matrices=False)
    row_space = vt[_large(s)]
    nx = R.true_axis.nbins
    if row_space.shape[0] == nx:
        return np.zeros((nx, nx))
    return np.eye(nx) - row_space.T @ row_space


def condition_number(R: ResponseMatrix) -> float:
    """sigma_max / sigma_min of the response; inf when rank deficient."""
    singular = np.linalg.svd(R.matrix, compute_uv=False)
    if not _large(singular).all():
        return math.inf
    return float(singular[0] / singular[-1])
