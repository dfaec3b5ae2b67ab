"""One-dimensional binned distributions with error bookkeeping.

``Axis`` fixes the binning; ``Histogram`` carries per-bin content
(probability mass or raw counts) together with optional statistical and
systematic error vectors.  Instances are immutable: every operation returns
a new object, so sharing across threads is safe.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from pathlib import Path

import numpy as np

from .errors import DimensionError, NormalizationError, ParameterError

KINDS = ("counts", "mass", "density")


def _save_json(path, d, indent=None):
    """Write `d` as one JSON text and a newline; NaN and infinity raise
    ValueError before the file is opened."""
    text = json.dumps(d, indent=indent, allow_nan=False) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def _load_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _whole_number(name, value, low):
    """`value` as an int of at least `low`.  This and :func:`_real` are the
    one rule for a scalar count, order or factor, called once where it
    enters.  An integral number is read as one (2.0 -> 2); a fraction, a
    non-finite value, a bool or a string is refused with a ParameterError
    (a ValueError) naming `name`."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not low <= value < math.inf or value != int(value)):
        raise ParameterError(f"{name} must be a finite integer >= {low}, got {value!r}", name)
    return int(value)


def _real(name, value, low=-math.inf, strict=False, high=math.inf):
    """`value` as a finite float in [low, high], or in (low, high) when
    `strict`; refused as by :func:`_whole_number` otherwise."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            # exact for an int; no float32 is cast to the largest double
            or not (abs(value) <= sys.float_info.max if isinstance(value, numbers.Rational)
                    else math.isfinite(value))
            or not (low < value < high if strict else low <= value <= high)):
        bound = f" {'>' if strict else '>='} {low:g}" if low > -math.inf else ""
        if high < math.inf:
            bound += f" and {'<' if strict else '<='} {high:g}"
        raise ParameterError(f"{name} must be a finite number{bound}, got {value!r}", name)
    return float(value)


def _frozen(values):
    out = np.array(values, dtype=np.float64, copy=True)
    out.flags.writeable = False
    return out


class Axis:
    """Strictly increasing bin boundaries of a 1-D histogram.

    Parameters
    ----------
    edges : array_like
        Bin edges, length ``nbins + 1``, strictly increasing, with
        finite differences.
    """

    __slots__ = ("_edges",)

    def __init__(self, edges):
        e = np.asarray(edges, dtype=np.float64)
        if e.ndim != 1 or e.size < 2:
            raise ValueError(f"need at least two edges, got shape {e.shape}")
        if not np.all(np.isfinite(e)):
            raise ValueError("edges must be finite")
        with np.errstate(over="ignore"):
            widths = np.diff(e)
        if not np.all(widths > 0):
            raise ValueError("edges must be strictly increasing")
        if not np.all(np.isfinite(widths)):
            raise ValueError("bin widths must be finite: an edge span "
                             "overflows float64")
        self._edges = _frozen(e)

    @classmethod
    def uniform(cls, low, high, nbins):
        """Equal-width axis with `nbins` bins spanning [low, high]."""
        low, high = _real("low", low), _real("high", high)
        nbins = _whole_number("nbins", nbins, 1)
        if not math.isfinite(high - low):
            raise ValueError(f"the span from {low!r} to {high!r} overflows float64")
        return cls(np.linspace(low, high, nbins + 1))

    @property
    def edges(self) -> np.ndarray:
        return self._edges

    @property
    def nbins(self) -> int:
        return self._edges.size - 1

    @property
    def low(self) -> float:
        return float(self._edges[0])

    @property
    def high(self) -> float:
        return float(self._edges[-1])

    @property
    def widths(self) -> np.ndarray:
        """Per-bin volumes (widths, in 1-D)."""
        return np.diff(self._edges)

    @property
    def centers(self) -> np.ndarray:
        a, b = self._edges[:-1], self._edges[1:]
        with np.errstate(over="ignore"):  # a + b can overflow where b - a does not
            mid = 0.5 * (a + b)
        return np.where(np.isfinite(mid), mid, 0.5 * a + 0.5 * b)

    def is_uniform(self, rtol=1e-9) -> bool:
        w = self.widths
        return bool(np.all(np.abs(w - w[0]) <= rtol * np.abs(w[0])))

    def __eq__(self, other):
        if not isinstance(other, Axis):
            return NotImplemented
        return np.array_equal(self._edges, other._edges)

    def __len__(self):
        return self.nbins

    def __repr__(self):
        return f"Axis({self.nbins} bins on [{self.low:g}, {self.high:g}])"

    def to_dict(self) -> dict:
        return {"edges": self._edges.tolist()}

    @classmethod
    def from_dict(cls, d) -> "Axis":
        """Accepts ``{"edges": [...]}`` or the uniform shorthand
        ``{"low": .., "high": .., "nbins": ..}``."""
        if "edges" in d:
            return cls(d["edges"])
        return cls.uniform(d["low"], d["high"], d["nbins"])


class Histogram:
    """Binned 1-D distribution with optional error vectors.

    Parameters
    ----------
    axis : Axis
    contents : array_like
        Per-bin content, length ``axis.nbins``.  Interpreted according to
        `kind`: probability mass per bin (``"mass"``), raw counts
        (``"counts"``) or content per unit length (``"density"``).
    stat_err : array_like or None
        Per-bin standard deviation, non-negative.
    syst_err : array_like or None
        Per-bin systematic error, non-negative.
    kind : str
        One of ``"counts"``, ``"mass"``, ``"density"``.
    unfolded : bool
        Marks estimates produced by an unfolding step.  Only unfolded
        histograms may carry negative content; measured input must not.
    """

    __slots__ = ("_axis", "_contents", "_stat_err", "_syst_err", "_kind", "_unfolded")

    def __init__(self, axis, contents, stat_err=None, syst_err=None,
                 kind="mass", unfolded=False):
        if not isinstance(axis, Axis):
            axis = Axis(axis)
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        c = np.asarray(contents, dtype=np.float64)
        if c.shape != (axis.nbins,):
            raise DimensionError(
                f"contents length {c.size} does not match {axis.nbins} bins")
        if not np.all(np.isfinite(c)):
            raise ValueError("contents must be finite")
        if not unfolded and np.any(c < 0):
            raise ValueError("negative content is only allowed on unfolded estimates")
        self._axis = axis
        self._contents = _frozen(c)
        self._stat_err = self._checked_errors(stat_err, axis, "stat_err")
        self._syst_err = self._checked_errors(syst_err, axis, "syst_err")
        self._kind = kind
        self._unfolded = bool(unfolded)

    @staticmethod
    def _checked_errors(err, axis, name):
        if err is None:
            return None
        e = np.asarray(err, dtype=np.float64)
        if e.shape != (axis.nbins,):
            raise DimensionError(f"{name} length {e.size} does not match {axis.nbins} bins")
        if not np.all(np.isfinite(e)):
            raise ValueError(f"{name} must be finite")
        if np.any(e < 0):
            raise ValueError(f"{name} must be non-negative")
        return _frozen(e)

    @classmethod
    def from_counts(cls, axis, counts, zero_bin_sigma=0.0):
        """Histogram of raw event counts with Poisson errors.

        ``stat_err[i]`` is ``sqrt(counts[i])`` for filled bins and
        `zero_bin_sigma` for empty ones (the error of an empty Poisson bin
        is unknowable from the data alone, so the floor is configurable).
        """
        c = np.asarray(counts, dtype=np.float64)
        if np.any(c < 0):
            raise ValueError("counts must be non-negative")
        stat = np.where(c > 0, np.sqrt(c), _real("zero_bin_sigma", zero_bin_sigma, 0.0))
        return cls(axis, c, stat_err=stat, kind="counts")

    @property
    def axis(self) -> Axis:
        return self._axis

    @property
    def contents(self) -> np.ndarray:
        return self._contents

    @property
    def stat_err(self):
        return self._stat_err

    @property
    def syst_err(self):
        return self._syst_err

    @property
    def kind(self) -> str:
        return self._kind

    @property
    def unfolded(self) -> bool:
        return self._unfolded

    @property
    def nbins(self) -> int:
        return self._axis.nbins

    @property
    def total(self) -> float:
        """Sum of all bin contents."""
        return float(self._contents.sum())

    def __repr__(self):
        return (f"Histogram({self.nbins} bins, kind={self._kind!r}, "
                f"total={self.total:.6g}"
                + (", unfolded" if self._unfolded else "") + ")")

    # --- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        d = {
            "axis": self._axis.to_dict(),
            "contents": self._contents.tolist(),
        }
        if self._stat_err is not None:
            d["stat_err"] = self._stat_err.tolist()
        if self._syst_err is not None:
            d["syst_err"] = self._syst_err.tolist()
        d["kind"] = self._kind
        d["unfolded"] = self._unfolded
        return d

    @classmethod
    def from_dict(cls, d) -> "Histogram":
        return cls(
            Axis.from_dict(d["axis"]),
            d["contents"],
            stat_err=d.get("stat_err"),
            syst_err=d.get("syst_err"),
            kind=d.get("kind", "mass"),
            unfolded=d.get("unfolded", False),
        )

    def save_json(self, path):
        _save_json(path, self.to_dict(), indent=1)

    @classmethod
    def load_json(cls, path) -> "Histogram":
        return cls.from_dict(_load_json(path))

    def to_csv(self, path):
        """One row per bin: low_edge, high_edge, content, stat_err, syst_err.

        Missing error vectors are written as 0.
        """
        e = self._axis.edges
        stat = self._stat_err if self._stat_err is not None else np.zeros(self.nbins)
        syst = self._syst_err if self._syst_err is not None else np.zeros(self.nbins)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("low_edge,high_edge,content,stat_err,syst_err\n")
            for i in range(self.nbins):
                fh.write(f"{float(e[i])!r},{float(e[i + 1])!r},"
                         f"{float(self._contents[i])!r},"
                         f"{float(stat[i])!r},{float(syst[i])!r}\n")


def normalize(h: Histogram) -> Histogram:
    """Scale a histogram to unit total mass.

    Errors scale by the same factor; the result has ``kind="mass"``.
    Idempotent.  Raises :class:`NormalizationError` on non-positive total.
    """
    total = h.total
    if total <= 0:
        raise NormalizationError(f"cannot normalize histogram with total {total}")
    scale = 1.0 / total
    return Histogram(
        h.axis,
        h.contents * scale,
        stat_err=None if h.stat_err is None else h.stat_err * scale,
        syst_err=None if h.syst_err is None else h.syst_err * scale,
        kind="mass",
        unfolded=h.unfolded,
    )


def l1_distance(a: Histogram, b: Histogram) -> float:
    """Probabilistic (L1) distance: sum over bins of |a - b|."""
    if a.axis != b.axis:
        raise DimensionError("histograms live on different axes")
    return float(np.abs(a.contents - b.contents).sum())


# The README's scope is dense responses of at most a few thousand bins.  At
# 10,000 true bins the recursion's nx × nx operator K⁻¹AᵀA alone holds 800 MB
# of float64, and each tenfold more bins costs a hundredfold more memory, so
# rebin_axes refuses a larger axis before building it: a huge factor is then
# a usage error naming it, not a MemoryError or a run that never ends.
MAX_BINS = 10_000


def _at_most_max_bins(name, nbins):
    if not nbins <= MAX_BINS:
        raise ParameterError(f"{name} would make {nbins:.6g} bins, more than "
                             f"the {MAX_BINS} a rebinned axis may have", name)


def rebin_axes(measured_axis: Axis, extension_factor=1.0, refine_factor=1) -> Axis:
    """True-side axis covering a wider span with finer bins.

    The measured span is extended symmetrically to `extension_factor` times
    its length, regridded with the measured bin width, and every bin is then
    subdivided `refine_factor` times.  Estimating the truth on such an axis
    lets the unfolding undo the binning and domain truncation of the
    measurement along with the smearing.  Both factors at 1 return the
    measured binning unchanged.

    Extension beyond 1 requires a uniform measured axis (there is no
    canonical width to continue a non-uniform one with); refinement works
    for any axis.  A factor that would make more than :data:`MAX_BINS` bins
    is refused by name.
    """
    extension_factor = _real("extension_factor", extension_factor, 1.0)
    refine_factor = _whole_number("refine_factor", refine_factor, 1)
    edges = measured_axis.edges
    if extension_factor > 1:
        if not measured_axis.is_uniform():
            raise ParameterError("domain extension requires a uniform measured "
                                 "axis", "extension_factor")
        # each bin count is checked before its edges are built
        _at_most_max_bins("extension_factor", measured_axis.nbins * extension_factor)
        span = edges[-1] - edges[0]
        width = span / measured_axis.nbins
        n = int(round(span * extension_factor / width))
        center = 0.5 * (edges[0] + edges[-1])
        low = center - 0.5 * n * width
        edges = low + width * np.arange(n + 1)
    if refine_factor == 1:
        return Axis(edges)
    _at_most_max_bins("refine_factor", (edges.size - 1) * refine_factor)
    pieces = [np.linspace(lo, hi, refine_factor + 1)[:-1]
              for lo, hi in zip(edges[:-1], edges[1:])]
    pieces.append(edges[-1:])
    return Axis(np.concatenate(pieces))
