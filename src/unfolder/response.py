"""Discretized folding operators (response matrices).

Matrix entry (i, j) is the probability that an event generated in true bin j
is observed in measured bin i, so every column sums to at most one; the
deficit is acceptance loss or migration out of the measured domain.  Working
in these mass-transfer units keeps the unfolding iteration free of bin-width
factors.

``k_factor`` is the normalization that makes the iteration map
``I - K⁻¹AᵀA`` non-expansive: the largest column sum of AᵀA, which bounds
its spectral radius from above for non-negative matrices.
"""

from __future__ import annotations

import math
import numbers
import warnings
from itertools import compress, repeat

import numpy as np

from .errors import (ConstructionError, DegenerateOperatorError,
                     DimensionError, InvalidKernelError)
from .histogram import Axis, Histogram, _load_json, _save_json

COLUMN_SUM_TOL = 1e-9
PEAKED_RESPONSE_RATIO = 1e6
DEFAULT_QUAD_POINTS = 8

# kernel evaluations per chunk in from_kernel, to cap the broadcast size
_CHUNK_BUDGET = 4_000_000

# pairs binned per block in from_pairs, to keep the temporaries cache-sized
_PAIR_BLOCK = 65_536


def _median(v):
    """``np.median(v)``, bit for bit on v >= +0.0, without importing numpy.ma."""
    s, mid = np.sort(v), v.size // 2
    return float(s[mid] if s.size % 2 else (s[mid - 1] + s[mid]) / 2)


def compute_k(matrix) -> float:
    """Normalization factor of a folding matrix: max column sum of AᵀA.

    For a symmetric non-negative matrix the spectral radius is bounded by
    the maximum column sum, so K >= lambda_max(AᵀA) always holds and
    ``I - K⁻¹AᵀA`` contracts.  For a convolution discretized with equal
    binning on a sufficiently padded domain the value is 1.

    Raises :class:`DegenerateOperatorError` on an all-zero matrix and warns
    when the factor exceeds 1e6 times the median column sum of AᵀA, which
    signals a pathologically peaked response.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"matrix must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if np.any(a < 0):
        raise ValueError("matrix entries must be non-negative")
    col_sums = (a.T @ a).sum(axis=0)
    k = float(col_sums.max(initial=0.0))
    if k <= 0.0:
        raise DegenerateOperatorError("all-zero matrix has no normalization factor")
    median = _median(col_sums)
    if median > 0 and k > PEAKED_RESPONSE_RATIO * median:
        warnings.warn(
            "normalization factor exceeds 1e6 times the median column sum; "
            "the response is pathologically peaked", RuntimeWarning)
    return k


class ResponseMatrix:
    """Folding operator between a true and a measured axis.

    Parameters
    ----------
    true_axis, meas_axis : Axis
    matrix : array_like
        Shape ``(meas_axis.nbins, true_axis.nbins)``; non-negative entries,
        column sums at most 1.
    k_override : float or None
        Replaces the computed normalization factor.  Must be a finite
        number not smaller than the computed one, or the iteration would no
        longer contract; useful to reproduce runs with an analytically
        known factor.
    """

    __slots__ = ("_true_axis", "_meas_axis", "_matrix", "_k", "_zero_columns")

    def __init__(self, true_axis, meas_axis, matrix, k_override=None):
        self._build(true_axis, meas_axis, matrix, k_override, stored=False)

    def _build(self, true_axis, meas_axis, matrix, k_override, stored):
        m = np.array(matrix, dtype=np.float64, copy=True)
        if m.shape != (meas_axis.nbins, true_axis.nbins):
            raise DimensionError(
                f"matrix shape {m.shape} does not match "
                f"({meas_axis.nbins} measured x {true_axis.nbins} true) bins")
        if not np.all(np.isfinite(m)):
            raise ValueError("response entries must be finite")
        if np.any(m < 0):
            raise ValueError("response entries must be non-negative")
        col_sums = m.sum(axis=0)
        if np.any(col_sums > 1.0 + COLUMN_SUM_TOL):
            worst = int(np.argmax(col_sums))
            raise ValueError(
                f"column {worst} sums to {col_sums[worst]:.12g} > 1; entries "
                "must be migration probabilities")
        k = compute_k(m)
        if stored and isinstance(k_override, numbers.Real) and \
                k_override <= k * (1.0 + 1e-12):
            k_override = None
        if k_override is not None:
            if not (isinstance(k_override, numbers.Real) and math.isfinite(k_override)):
                raise ValueError(
                    f"k_override must be a finite number, got {k_override!r}")
            if k_override < k * (1.0 - 1e-12):
                raise ValueError(
                    f"k_override {k_override} is below the computed factor {k}; "
                    "the iteration would not contract")
            k = float(k_override)
        zero = np.flatnonzero(col_sums == 0.0)
        if zero.size:
            warnings.warn(
                f"{zero.size} true bin(s) receive no response; the unfolded "
                "content there is unconstrained", RuntimeWarning)
        m.flags.writeable = False
        self._true_axis = true_axis
        self._meas_axis = meas_axis
        self._matrix = m
        self._k = k
        self._zero_columns = tuple(int(j) for j in zero)

    # --- constructors ------------------------------------------------------

    @classmethod
    def from_kernel(cls, kernel, true_axis, meas_axis,
                    quad_points=DEFAULT_QUAD_POINTS, kernel_cdf=None,
                    k_override=None):
        """Discretize an analytic response density ``kernel(y, x)``.

        Each true bin is subdivided into `quad_points` midpoint nodes; for
        every node the measured-bin mass is the integral of the kernel over
        the bin, evaluated by `quad_points`-node midpoint quadrature in y.
        The entry is the average over the true-bin nodes, i.e. the transfer
        probability for an event uniform within its true bin.

        `kernel` must be vectorized (accept numpy arrays of y and x and
        broadcast).  When `kernel_cdf` is given it must be the cumulative
        kernel ``C(y, x) = integral of kernel(t, x) for t <= y`` and the
        y-integral is taken exactly as ``C(hi, x) - C(lo, x)``; use this for
        kernels much narrower than the measured bins, where fixed-node
        quadrature cannot resolve the peak.
        """
        quad_points = int(quad_points)
        if quad_points < 1:
            raise ValueError("quad_points must be >= 1")
        nx, ny = true_axis.nbins, meas_axis.nbins
        offsets = (np.arange(quad_points) + 0.5) / quad_points
        # x nodes: (nx, Q)
        x_nodes = true_axis.edges[:-1, None] + true_axis.widths[:, None] * offsets[None, :]

        matrix = np.empty((ny, nx))
        if kernel_cdf is not None:
            # exact y-integral between measured edges, averaged over x nodes
            cdf_at_edges = np.asarray(
                kernel_cdf(meas_axis.edges[:, None, None], x_nodes[None, :, :]),
                dtype=np.float64)
            if cdf_at_edges.shape != (ny + 1, nx, quad_points):
                raise ValueError("kernel_cdf must broadcast over its arguments")
            mass = np.diff(cdf_at_edges, axis=0)
            if np.any(mass < -1e-12):
                raise InvalidKernelError("kernel_cdf is not monotone in y")
            matrix = np.clip(mass, 0.0, None).mean(axis=2)
        else:
            y_nodes = meas_axis.edges[:-1, None] + meas_axis.widths[:, None] * offsets[None, :]
            y_weight = meas_axis.widths / quad_points
            chunk = max(1, _CHUNK_BUDGET // (ny * quad_points * quad_points))
            for j0 in range(0, nx, chunk):
                j1 = min(nx, j0 + chunk)
                # broadcast (ny, jchunk, Qy, Qx)
                vals = np.asarray(kernel(
                    y_nodes[:, None, :, None],
                    x_nodes[None, j0:j1, None, :]), dtype=np.float64)
                if np.any(vals < 0):
                    raise InvalidKernelError("kernel returned a negative density")
                matrix[:, j0:j1] = (vals.sum(axis=(2, 3))
                                    * y_weight[:, None]) / quad_points
        # quadrature noise can push a column a hair over 1
        col = matrix.sum(axis=0)
        over = col > 1.0
        if np.any(col > 1.0 + COLUMN_SUM_TOL):
            worst = int(np.argmax(col))
            raise InvalidKernelError(
                f"kernel mass in column {worst} is {col[worst]:.9g} > 1; not a "
                "conditional probability density (or quadrature too coarse)")
        if np.any(over):
            matrix[:, over] /= col[over]
        return cls(true_axis, meas_axis, matrix, k_override=k_override)

    @classmethod
    def from_pairs(cls, pairs, true_axis, meas_axis, k_override=None):
        """Estimate the response by counting Monte Carlo (true, measured) pairs.

        `pairs` is an (n, 2) array of ``(x_true, y_meas)`` rows; a NaN in the
        second column marks an event that was not accepted (it counts in the
        denominator only).  Entry (i, j) is the fraction of pairs from true
        bin j measured in bin i; pairs with x outside the true axis are
        ignored, pairs with y outside the measured axis reduce the column
        sum exactly like unaccepted ones.  Bins are left-closed and the last
        one is closed on the right, as in ``np.histogram``; the pairs are
        counted in fixed-size blocks, so the temporaries do not grow with n.
        """
        p = np.asarray(pairs, dtype=np.float64)
        if p.ndim != 2 or p.shape[1] != 2:
            raise DimensionError(f"pairs must be an (n, 2) array, got shape {p.shape}")
        if p.shape[0] == 0:
            raise ConstructionError("empty pair sample")
        denom, num = _pair_counts(p, true_axis.edges, meas_axis.edges)
        if denom.sum() == 0:
            raise ConstructionError("no pair lands on the true axis")
        matrix = num / np.maximum(denom, 1)[None, :]
        # the exact count ratios sum to <= 1 per column; keep that exact in
        # floating point too
        col = matrix.sum(axis=0)
        over = col > 1.0
        if np.any(over):
            matrix[:, over] /= col[over]
        return cls(true_axis, meas_axis, matrix, k_override=k_override)

    # --- properties ---------------------------------------------------------

    @property
    def true_axis(self) -> Axis:
        return self._true_axis

    @property
    def meas_axis(self) -> Axis:
        return self._meas_axis

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def k_factor(self) -> float:
        return self._k

    @property
    def zero_columns(self) -> tuple:
        """Indices of true bins with an all-zero response column."""
        return self._zero_columns

    @property
    def shape(self):
        return self._matrix.shape

    def __repr__(self):
        return (f"ResponseMatrix({self._meas_axis.nbins} x "
                f"{self._true_axis.nbins}, K={self._k:.6g})")

    # --- application ----------------------------------------------------------

    def fold(self, f: Histogram) -> Histogram:
        """Apply the folding operator to a true-axis histogram.

        Statistical errors are propagated linearly from the per-bin errors
        (diagonal covariance) when present, otherwise omitted.
        """
        if f.axis != self._true_axis:
            raise DimensionError("histogram is not on the true axis")
        contents = self._matrix @ f.contents
        stat = None
        if f.stat_err is not None:
            stat = np.sqrt((self._matrix ** 2) @ (f.stat_err ** 2))
        return Histogram(self._meas_axis, contents, stat_err=stat,
                         kind=f.kind, unfolded=f.unfolded)

    def transpose_apply(self, g) -> np.ndarray:
        """Apply the transposed operator (response with swapped variables)."""
        v = np.asarray(g, dtype=np.float64)
        if v.shape[0] != self._meas_axis.nbins:
            raise DimensionError(
                f"vector length {v.shape[0]} does not match "
                f"{self._meas_axis.nbins} measured bins")
        return self._matrix.T @ v

    # --- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "true_axis": self._true_axis.to_dict(),
            "meas_axis": self._meas_axis.to_dict(),
            "matrix": self._matrix.tolist(),
            "k_factor": self._k,
        }

    @classmethod
    def from_dict(cls, d) -> "ResponseMatrix":
        # a stored factor below K, or above it by rounding only, is dropped
        rm = cls.__new__(cls)
        rm._build(Axis.from_dict(d["true_axis"]), Axis.from_dict(d["meas_axis"]),
                  d["matrix"], d.get("k_factor"), stored=True)
        return rm

    def save_json(self, path):
        _save_json(path, self.to_dict())

    @classmethod
    def load_json(cls, path) -> "ResponseMatrix":
        return cls.from_dict(_load_json(path))


def _uniform_scale(edges):
    """``n / (hi - lo)`` when `edges` are ``np.linspace(lo, hi, n + 1)``
    (what :meth:`Axis.uniform` builds) and the guess
    ``floor((v - lo) * n / (hi - lo))`` is within one bin of the true bin
    for every v on the axis; None otherwise.

    The rounding in the guess and in linspace's edges is a few ulps of the
    span and of the largest |edge|; with 128 of those inside one bin the
    guess is off by a small fraction of a bin at most.
    """
    n = edges.size - 1
    lo, hi = float(edges[0]), float(edges[-1])
    width = (hi - lo) / n
    if not (math.isfinite(width) and width >= np.finfo(np.float64).tiny):
        return None
    if 128 * np.finfo(np.float64).eps * max(abs(lo), abs(hi), hi - lo) > width:
        return None
    if not np.array_equal(edges, np.linspace(lo, hi, n + 1)):
        return None
    return n / (hi - lo)


def _bin_index(v, edges, scale):
    """1 + the bin of each value, or 0 for NaN, ±inf and values off the
    axis; bins are left-closed and the last one is closed on the right, as
    in ``np.histogram``.  `scale` comes from :func:`_uniform_scale`."""
    n = edges.size - 1
    lo, hi = edges[0], edges[-1]
    if scale is None:
        idx = np.searchsorted(edges, v, side="right")  # NaN sorts last
        idx -= v == hi
        idx *= idx <= n
        return idx
    # clamp onto the axis (NaN goes to lo), guess, correct by one bin
    c = np.fmax(v, lo)
    np.fmin(c, hi, out=c)
    idx = ((c - lo) * scale).astype(np.intp)
    np.minimum(idx, n - 1, out=idx)
    idx -= c < edges[idx]
    idx += (c >= edges[1:][idx]) & (idx < n - 1)
    idx += 1
    idx *= (v >= lo) & (v <= hi)
    return idx


def _pair_counts(pairs, x_edges, y_edges):
    """Pairs per true bin and per (measured, true) bin of an (n, 2) array.

    The counts of ``np.histogram(x, x_edges)`` and of
    ``np.histogram2d(y, x, (y_edges, x_edges))`` over the finite-y pairs,
    taken _PAIR_BLOCK rows at a time.
    """
    nx, ny = x_edges.size - 1, y_edges.size - 1
    x_scale, y_scale = _uniform_scale(x_edges), _uniform_scale(y_edges)
    denom = np.zeros(nx + 1, dtype=np.intp)
    num = np.zeros((ny + 1) * (nx + 1), dtype=np.intp)
    for start in range(0, pairs.shape[0], _PAIR_BLOCK):
        block = pairs[start:start + _PAIR_BLOCK]
        ix = _bin_index(block[:, 0], x_edges, x_scale)
        iy = _bin_index(block[:, 1], y_edges, y_scale)
        denom += np.bincount(ix, minlength=nx + 1)
        iy *= nx + 1
        iy += ix
        num += np.bincount(iy, minlength=num.size)
    # index 0 on either axis collects the pairs off that axis
    return denom[1:], num.reshape(ny + 1, nx + 1)[1:, 1:]


def write_pairs_csv(path, pairs):
    """Two-column CSV of (x, y) pairs; NaN y is written as the MISS token."""
    p = np.asarray(pairs, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y\n")
        for x, y in p.tolist():
            fh.write(f"{x!r},{repr(y) if math.isfinite(y) else 'MISS'}\n")


def read_pairs_csv(path) -> np.ndarray:
    """Read an (n, 2) pair array; the MISS token becomes NaN.

    Blank lines and header lines (first field ``x``, in any case) are
    skipped; every value is ``float()`` of its field, so a written array
    reads back bit for bit.
    """
    with open(path, encoding="utf-8") as fh:
        lines = list(filter(None, map(str.strip, fh.read().split("\n"))))
    if not lines:
        return np.empty((0, 2))
    if set(map(str.count, lines, repeat(","))) != {1}:
        bad = next(line for line in lines if line.count(",") != 1)
        raise ValueError(f"expected 2 comma-separated fields, got {bad!r}")
    fields = list(map(str.strip, ",".join(lines).split(",")))
    xs, ys = fields[0::2], fields[1::2]
    body = list(map("x".__ne__, map(str.lower, xs)))
    xs, ys = list(compress(xs, body)), list(compress(ys, body))
    # the MISS token, in any case, reads as "nan"; every other field as itself
    ys = map({"MISS": "nan"}.get, map(str.upper, ys), ys)
    x = np.fromiter(map(float, xs), dtype=np.float64, count=len(xs))
    y = np.fromiter(map(float, ys), dtype=np.float64, count=len(xs))
    return np.column_stack([x, y])
