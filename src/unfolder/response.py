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
import warnings
from dataclasses import InitVar, dataclass, field
from itertools import compress, islice, repeat

import numpy as np

from .errors import (ConstructionError, DegenerateOperatorError,
                     DimensionError, InvalidKernelError)
from .histogram import (Axis, Histogram, _axis_field, _float_array, _json_object,
                        _load_json, _ReadOnlyCopies, _real, _save_json, _whole_number)

COLUMN_SUM_TOL = 1e-9
PEAKED_RESPONSE_RATIO = 1e6
DEFAULT_QUAD_POINTS = 8

# values per block wherever the work grows with a sample or a grid: pairs
# counted in from_pairs and drawn in simulate, rows of the pairs CSV read,
# kernel evaluations per chunk in from_kernel.  Peak memory is the output
# plus one block.  A block of from_pairs (its four buffers and 512 KiB of
# pairs, 1.5 MiB) fits a core's 2 MiB L2 cache; half the block would split
# a calorimeter pseudo-experiment (about 20,000 draws) in two, at 10% more
# CPU per ensemble
_PAIR_BLOCK = 32_768
# rows of the pairs CSV per string written: 1,024 rows hold 0.23 MB at
# once, 4,096 rows 0.91 MB and write a 10^6-row file about 5% faster
_CSV_ROWS = 1_024


def _pair_array(pairs):
    """`pairs` by the array rule, as (n, 2); NaN marks a lost y, ±inf an x off the axis."""
    p = _float_array("pairs", pairs, finite=False)
    if p.ndim != 2 or p.shape[1] != 2:
        raise DimensionError(f"pairs must be an (n, 2) array, got shape {p.shape}")
    return p


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
    a = _float_array("matrix", matrix)
    if a.ndim != 2:
        raise DimensionError(f"matrix must be 2-D, got shape {a.shape}")
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


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class ResponseMatrix(_ReadOnlyCopies):
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

    true_axis: Axis
    meas_axis: Axis
    matrix: np.ndarray
    k_override: InitVar[float | None] = None
    k_factor: float = field(init=False)
    # indices of true bins with an all-zero response column
    zero_columns: tuple = field(init=False)

    def __post_init__(self, k_override):
        m = _float_array("matrix", self.matrix).copy()
        if m.shape != (self.meas_axis.nbins, self.true_axis.nbins):
            raise DimensionError(
                f"matrix shape {m.shape} does not match ({self.meas_axis.nbins} "
                f"measured x {self.true_axis.nbins} true) bins")
        k = compute_k(m)  # refuses negative entries
        col_sums = m.sum(axis=0)
        if np.any(col_sums > 1.0 + COLUMN_SUM_TOL):
            worst = int(np.argmax(col_sums))
            raise ValueError(
                f"column {worst} sums to {col_sums[worst]:.12g} > 1; entries "
                "must be migration probabilities")
        if k_override is not None:
            k_override = _real("k_override", k_override)
            if k_override < k * (1.0 - 1e-12):
                raise ValueError(
                    f"k_override {k_override} is below the computed factor {k}; "
                    "the iteration would not contract")
            k = k_override
        zero = np.flatnonzero(col_sums == 0.0)
        if zero.size:
            warnings.warn(
                f"{zero.size} true bin(s) receive no response; the unfolded "
                "content there is unconstrained", RuntimeWarning)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "k_factor", k)
        object.__setattr__(self, "zero_columns", tuple(int(j) for j in zero))

    # --- constructors ------------------------------------------------------

    @classmethod
    def from_kernel(cls, kernel, true_axis, meas_axis, quad_points=DEFAULT_QUAD_POINTS):
        """Discretize an analytic response density ``kernel(y, x)``.

        Each true bin is subdivided into `quad_points` midpoint nodes; for
        every node the measured-bin mass is the integral of the kernel over
        the bin, evaluated by `quad_points`-node midpoint quadrature in y.
        The entry is the average over the true-bin nodes, i.e. the transfer
        probability for an event uniform within its true bin.

        `kernel` must be vectorized (accept numpy arrays of y and x and
        broadcast).  Fixed-node quadrature cannot resolve a kernel much
        narrower than the measured bins: raise `quad_points`, or pass a
        matrix integrated by other means to the constructor.
        """
        quad_points = _whole_number("quad_points", quad_points, 1)
        nx, ny = true_axis.nbins, meas_axis.nbins
        offsets = (np.arange(quad_points) + 0.5) / quad_points
        # x nodes: (nx, Q)
        x_nodes = true_axis.edges[:-1, None] + true_axis.widths[:, None] * offsets[None, :]
        y_nodes = meas_axis.edges[:-1, None] + meas_axis.widths[:, None] * offsets[None, :]
        y_weight = meas_axis.widths / quad_points
        # about _PAIR_BLOCK kernel evaluations per chunk of true bins
        chunk = max(1, _PAIR_BLOCK // (ny * quad_points ** 2))
        matrix = np.empty((ny, nx))
        for j0 in range(0, nx, chunk):
            # broadcast (ny, jchunk, Qy, Qx)
            vals = np.asarray(kernel(y_nodes[:, None, :, None],
                                     x_nodes[None, j0:j0 + chunk, None, :]),
                              dtype=np.float64)
            if not (vals >= 0).all():
                raise InvalidKernelError("kernel returned a negative or NaN density")
            matrix[:, j0:j0 + chunk] = (vals.sum(axis=(2, 3)) * y_weight[:, None]) / quad_points
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
        return cls(true_axis, meas_axis, matrix)

    @classmethod
    def from_pairs(cls, pairs, true_axis, meas_axis):
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
        p = _pair_array(pairs)
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
        return cls(true_axis, meas_axis, matrix)

    @property
    def shape(self):
        return self.matrix.shape

    def __repr__(self):
        return (f"ResponseMatrix({self.meas_axis.nbins} x "
                f"{self.true_axis.nbins}, K={self.k_factor:.6g})")

    # --- application ----------------------------------------------------------

    def fold(self, f: Histogram) -> Histogram:
        """Apply the folding operator to a true-axis histogram.

        Statistical errors are propagated linearly from the per-bin errors
        (diagonal covariance) when present, otherwise omitted.
        """
        if f.axis != self.true_axis:
            raise DimensionError("histogram is not on the true axis")
        contents = self.matrix @ f.contents
        stat = None
        if f.stat_err is not None:
            stat = np.sqrt((self.matrix ** 2) @ (f.stat_err ** 2))
        return Histogram(self.meas_axis, contents, stat_err=stat,
                         kind=f.kind, unfolded=f.unfolded)

    # --- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "true_axis": self.true_axis.to_dict(),
            "meas_axis": self.meas_axis.to_dict(),
            "matrix": self.matrix.tolist(),
            "k_factor": self.k_factor,
        }

    @classmethod
    def from_dict(cls, d) -> "ResponseMatrix":
        # a stored factor below K, or above it by rounding only, is dropped
        d = _json_object("response", d, "true_axis", "meas_axis", "matrix")
        rm = cls(_axis_field("true_axis", d["true_axis"]),
                 _axis_field("meas_axis", d["meas_axis"]), d["matrix"])
        stored = d.get("k_factor")
        if stored is not None:
            stored = _real("k_factor", stored)
            if stored > rm.k_factor * (1.0 + 1e-12):
                object.__setattr__(rm, "k_factor", stored)
        return rm

    def save_json(self, path):
        _save_json(path, self.to_dict())

    @classmethod
    def load_json(cls, path) -> "ResponseMatrix":
        return cls.from_dict(_load_json(path))


def _closed_edges(edges, *after):
    """`edges` with the last one an ulp up, so that a right-side search of
    them closes the last bin as ``np.histogram`` does (+inf above the
    largest double), followed by `after`."""
    with np.errstate(over="ignore"):
        return np.append(edges[:-1], (np.nextafter(edges[-1], np.inf), *after))


def _binning(edges):
    """``(closed, rule)`` for counting values on `edges`.

    ``searchsorted(closed, v, "right")`` is the slot of v: 1 + its bin, 0
    below the axis, n + 1 above it (NaN in either); the last edge is an ulp
    up in `closed`, so the last bin is closed on the right as in
    ``np.histogram``.  `rule` is ``(lo, s, c)`` or None.  The position
    ``t = (v - lo) * s``, ``s = n / (hi - lo)``, is two float64 ufuncs,
    each monotone, so t is non-decreasing in v.  With the edges' own
    positions T_k (T_0 = 0) and ``δ = max |T_k - k|``, a value in bin k has
    ``t ∈ [T_k, T_{k+1}] ⊂ [k - δ, k + 1 + δ]``, one below the axis t <= 0,
    one above it t >= n - δ.  So ``floor(t)`` is the bin wherever t is
    farther than δ from every integer, i.e. ``|t - floor(t) - 1/2| < c``
    (the 2**-52 in c covers the rounding of both sides).  No rule when
    δ >= 1/4, NaN or infinite (from an overflowing or subnormal span).
    """
    n, lo = edges.size - 1, edges[0]
    closed = _closed_edges(edges)
    with np.errstate(all="ignore"):
        s = n / (edges[-1] - lo)
        delta = np.max(np.abs(np.multiply(edges - lo, s) - np.arange(n + 1)))
    return closed, (lo, s, 0.5 - delta - 2.0 ** -52) if delta < 0.25 else None


def _slots(v, closed, rule, t, out):
    """Write the slot of each value to the float array `out`, by `rule` where
    it decides and else by a search; `t` is a work buffer like `out`."""
    if rule is None:
        np.copyto(t, v)  # contiguous keys: searchsorted copies nothing
        out[...] = np.searchsorted(closed, t, side="right")
        return
    lo, s, c = rule
    np.multiply(np.subtract(v, lo, out=t), s, out=t)
    np.fmax(t, -0.5, out=t)  # NaN and -inf below the axis
    np.fmin(t, closed.size - 0.5, out=t)  # +inf above it
    np.floor(t, out=out)
    np.subtract(t, out, out=t)
    out += 1
    np.subtract(t, 0.5, out=t)
    at = np.flatnonzero(np.abs(t, out=t) >= c)  # t within δ of an integer
    out[at] = np.searchsorted(closed, v[at], side="right")


def _pair_counts(pairs, x_edges, y_edges):
    """Pairs per true bin and per (measured, true) bin of an (n, 2) array.

    The counts of ``np.histogram(x, x_edges)`` and of
    ``np.histogram2d(y, x, (y_edges, x_edges))`` over the finite-y pairs,
    taken _PAIR_BLOCK rows at a time in buffers made once per call and
    added into the one count table in place (no per-block table).
    """
    x_bins, y_bins = _binning(x_edges), _binning(y_edges)
    nx, size = x_edges.size - 1, min(pairs.shape[0], _PAIR_BLOCK)
    buffers = [np.empty(size) for _ in range(3)] + [np.empty(size, np.intp)]
    counts = np.zeros((y_edges.size + 1) * (nx + 2), dtype=np.intp)
    with np.errstate(over="ignore"):
        for start in range(0, pairs.shape[0], _PAIR_BLOCK):
            block = pairs[start:start + _PAIR_BLOCK]
            t, fx, fy, slot = (b[:block.shape[0]] for b in buffers)
            _slots(block[:, 0], *x_bins, t, fx)
            _slots(block[:, 1], *y_bins, t, fy)
            fy *= nx + 2
            fy += fx
            np.copyto(slot, fy, casting="unsafe")
            np.add.at(counts, slot, 1)
    counts = counts.reshape(-1, nx + 2)
    return counts.sum(axis=0)[1:-1], counts[1:-1, 1:-1]


def write_pairs_csv(path, pairs):
    """Two-column CSV of (x, y) pairs; NaN y is written as the MISS token.
    The rows are converted and joined _CSV_ROWS at a time, and each such
    string is written with one call."""
    p = _pair_array(pairs)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y\n")
        for start in range(0, p.shape[0], _CSV_ROWS):
            fh.write("".join([f"{x!r},{repr(y) if math.isfinite(y) else 'MISS'}\n"
                              for x, y in p[start:start + _CSV_ROWS].tolist()]))


def _parse_pairs(lines):
    """The (n, 2) pairs of a list of stripped, non-blank CSV lines."""
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


def read_pairs_csv(path) -> np.ndarray:
    """Read an (n, 2) pair array; the MISS token becomes NaN.

    Blank lines and header lines (first field ``x``, in any case) are
    skipped; every value is ``float()`` of its field, so a written array
    reads back bit for bit.  The file is read and parsed _PAIR_BLOCK lines
    at a time, and the first block with a bad line raises.
    """
    blocks = []
    with open(path, encoding="utf-8") as fh:
        stripped = map(str.strip, fh)
        while block := list(islice(stripped, _PAIR_BLOCK)):
            if lines := list(filter(None, block)):
                blocks.append(_parse_pairs(lines))
    return np.concatenate(blocks) if blocks else np.empty((0, 2))


def _gaussian_kernel(sigma):
    """Vectorized Gaussian response density rho(y | x) of width `sigma` > 0."""
    sigma = _real("sigma", sigma, 0.0, strict=True)
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    return lambda y, x: norm * np.exp(-0.5 * ((y - x) / sigma) ** 2)
