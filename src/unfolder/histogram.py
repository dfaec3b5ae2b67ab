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
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import DimensionError, ParameterError

KINDS = ("counts", "mass")


def _save_json(path, d, indent=None):
    """Write `d` as one JSON text and a newline; NaN and infinity raise
    ValueError before the file is opened."""
    text = json.dumps(d, indent=indent, allow_nan=False) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def _load_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise ValueError(f"{path} is not valid JSON ({exc})") from None


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


def _json_object(name, value, *keys):
    """`value` if it is a dict holding each of `keys`, the one rule for an
    object read from a file; else a ParameterError naming `name`, or a
    missing key by its path: alone at the top of a file, else ``name.key``."""
    if not isinstance(value, dict):
        raise ParameterError(f"{name} must be a JSON object, got {type(value).__name__}", name)
    for key in keys:
        if key not in value:
            path = key if name in ("histogram", "response", "scenario") else f"{name}.{key}"
            raise ParameterError(f"missing field '{path}'", path)
    return value


def _float_array(name, values, finite=True):
    """`values` as a float64 array, not copied if it is one.  This is the
    one rule for an array of numbers a caller passes, called once where it
    enters.  What numpy does not read as numbers is refused with a
    ParameterError naming `name`: a JSON object, a string (numeric or not),
    an array of booleans, a ragged list, and an integer beyond float64's
    range; so are NaN and ±inf when `finite`.  An integer numpy holds as an
    object (10**20) is read as the number it is; a list mixing numbers and
    booleans is cast by numpy, as ``[1, True]`` is an integer array."""
    try:
        a = np.asarray(values)
        if a.dtype.kind == "O":
            if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                       for v in a.flat):
                raise TypeError("not every entry is a number")
        elif a.dtype.kind not in "iuf":
            raise TypeError("got " + {"b": "booleans", "U": "strings"}.get(
                a.dtype.kind, f"{a.dtype.name} entries"))
        a = a.astype(np.float64, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"{name} must be an array of numbers ({exc})", name) from None
    if finite and not np.all(np.isfinite(a)):
        raise ParameterError(f"{name} must be finite", name)
    return a


def _frozen(values):
    out = np.array(values, dtype=np.float64, copy=True)
    out.flags.writeable = False
    return out


class _ReadOnlyCopies:
    """Base of the value types that hold arrays: a ``pickle`` or ``deepcopy`` copy
    keeps every field, arrays read-only, without rerunning the constructor, whose
    checks passed on the original and whose warnings would repeat."""

    __slots__ = ()

    def __reduce__(self):
        return _restore, (type(self), [getattr(self, f.name) for f in fields(self)])


def _restore(cls, values):
    obj = object.__new__(cls)
    for f, value in zip(fields(cls), values):
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(obj, f.name, value)
    return obj


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Axis(_ReadOnlyCopies):
    """Strictly increasing bin boundaries of a 1-D histogram.

    Parameters
    ----------
    edges : array_like
        Bin edges, length ``nbins + 1``, strictly increasing, with
        finite differences.
    """

    edges: np.ndarray

    def __post_init__(self):
        e = _float_array("edges", self.edges)
        if e.ndim != 1 or e.size < 2:
            raise ParameterError(f"need at least two edges, got shape {e.shape}", "edges")
        with np.errstate(over="ignore"):
            widths = np.diff(e)
        if not np.all(widths > 0):
            raise ParameterError("edges must be strictly increasing", "edges")
        if not np.all(np.isfinite(widths)):
            raise ParameterError("bin widths must be finite: an edge span "
                                 "overflows float64", "edges")
        object.__setattr__(self, "edges", _frozen(e))

    @classmethod
    def uniform(cls, low, high, nbins):
        """Equal-width axis with `nbins` bins spanning [low, high]."""
        low, high = _real("low", low), _real("high", high)
        nbins = _whole_number("nbins", nbins, 1)
        if not math.isfinite(high - low):
            raise ParameterError(f"the span from {low!r} to {high!r} overflows float64", "high")
        return cls(np.linspace(low, high, nbins + 1))

    @property
    def nbins(self) -> int:
        return self.edges.size - 1

    @property
    def low(self) -> float:
        return float(self.edges[0])

    @property
    def high(self) -> float:
        return float(self.edges[-1])

    @property
    def widths(self) -> np.ndarray:
        """Per-bin volumes (widths, in 1-D)."""
        return np.diff(self.edges)

    @property
    def centers(self) -> np.ndarray:
        a, b = self.edges[:-1], self.edges[1:]
        with np.errstate(over="ignore"):  # a + b can overflow where b - a does not
            mid = 0.5 * (a + b)
        return np.where(np.isfinite(mid), mid, 0.5 * a + 0.5 * b)

    def is_uniform(self) -> bool:
        """Every width equal to the first to a relative 1e-9."""
        w = self.widths
        return bool(np.all(np.abs(w - w[0]) <= 1e-9 * np.abs(w[0])))

    def __eq__(self, other):
        if not isinstance(other, Axis):
            return NotImplemented
        return np.array_equal(self.edges, other.edges)

    def __repr__(self):
        return f"Axis({self.nbins} bins on [{self.low:g}, {self.high:g}])"

    def to_dict(self) -> dict:
        return {"edges": self.edges.tolist()}

    @classmethod
    def from_dict(cls, d) -> "Axis":
        """Accepts ``{"edges": [...]}`` or the uniform shorthand
        ``{"low": .., "high": .., "nbins": ..}``."""
        if "edges" in _json_object("axis", d):
            return cls(d["edges"])
        _json_object("axis", d, "low", "high", "nbins")
        return cls.uniform(d["low"], d["high"], d["nbins"])


def _check_shape(name, values, axis):
    if values.shape != (axis.nbins,):
        raise DimensionError(f"{name} has shape {values.shape}, but {axis.nbins} "
                             f"bins need shape ({axis.nbins},)")


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Histogram(_ReadOnlyCopies):
    """Binned 1-D distribution with optional error vectors.

    Parameters
    ----------
    axis : Axis
    contents : array_like
        Per-bin content, length ``axis.nbins``: probability mass
        (``"mass"``) or raw counts (``"counts"``), as `kind` says; every
        operation reads it per bin, so a density has no kind.
    stat_err : array_like or None
        Per-bin standard deviation, non-negative.
    syst_err : array_like or None
        Per-bin systematic error, non-negative.
    kind : str
        One of ``"counts"``, ``"mass"``.
    unfolded : bool
        Marks estimates produced by an unfolding step.  Only unfolded
        histograms may carry negative content; measured input must not.
        A Python or numpy bool; any other value is refused.
    """

    axis: Axis
    contents: np.ndarray
    stat_err: np.ndarray | None = None
    syst_err: np.ndarray | None = None
    kind: str = "mass"
    unfolded: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not isinstance(self.unfolded, (bool, np.bool_)):
            raise ValueError(f"unfolded must be true or false, got {self.unfolded!r}")
        c = _float_array("contents", self.contents)
        _check_shape("contents", c, self.axis)
        if not self.unfolded and np.any(c < 0):
            raise ValueError("negative content is only allowed on unfolded estimates")
        object.__setattr__(self, "contents", _frozen(c))
        for name in ("stat_err", "syst_err"):
            object.__setattr__(self, name, self._checked_errors(name))
        object.__setattr__(self, "unfolded", bool(self.unfolded))

    def _checked_errors(self, name):
        err = getattr(self, name)
        if err is None:
            return None
        e = _float_array(name, err)
        _check_shape(name, e, self.axis)
        if np.any(e < 0):
            raise ValueError(f"{name} must be non-negative")
        return _frozen(e)

    @classmethod
    def from_counts(cls, axis, counts):
        """Histogram of raw event counts with Poisson errors.

        ``stat_err[i]`` is ``sqrt(counts[i])`` for filled bins and 0 for
        empty ones; pass ``stat_err=`` to the constructor for another
        error of an empty bin.
        """
        c = _float_array("counts", counts)
        _check_shape("counts", c, axis)
        if np.any(c < 0):
            raise ValueError("counts must be non-negative")
        stat = np.where(c > 0, np.sqrt(c), 0.0)  # +0.0 for a -0.0 count
        return cls(axis, c, stat_err=stat, kind="counts")

    @property
    def nbins(self) -> int:
        return self.axis.nbins

    @property
    def total(self) -> float:
        """Sum of all bin contents."""
        return float(self.contents.sum())

    def __repr__(self):
        return (f"Histogram({self.nbins} bins, kind={self.kind!r}, "
                f"total={self.total:.6g}"
                + (", unfolded" if self.unfolded else "") + ")")

    # --- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        d = {
            "axis": self.axis.to_dict(),
            "contents": self.contents.tolist(),
        }
        if self.stat_err is not None:
            d["stat_err"] = self.stat_err.tolist()
        if self.syst_err is not None:
            d["syst_err"] = self.syst_err.tolist()
        d["kind"] = self.kind
        d["unfolded"] = self.unfolded
        return d

    @classmethod
    def from_dict(cls, d) -> "Histogram":
        d = _json_object("histogram", d, "axis", "contents")
        return cls(Axis.from_dict(d["axis"]), d["contents"], stat_err=d.get("stat_err"),
                   syst_err=d.get("syst_err"), kind=d.get("kind", "mass"),
                   unfolded=d.get("unfolded", False))

    def save_json(self, path):
        _save_json(path, self.to_dict(), indent=1)

    @classmethod
    def load_json(cls, path) -> "Histogram":
        return cls.from_dict(_load_json(path))


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


def _derived_axis(name, edges):
    """``Axis(edges)``, or a refusal naming `name`, the factor that made the edges."""
    try:
        return Axis(edges)
    except ParameterError as exc:
        raise ParameterError(f"{name} makes an axis that is not valid ({exc})", name) from None


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
        with np.errstate(all="ignore"):  # what float64 cannot hold is refused by name
            span = edges[-1] - edges[0]
            width = span / measured_axis.nbins
            n = span * extension_factor / width
            if not np.isfinite(n):
                raise ParameterError(f"extension_factor {extension_factor!r} times the "
                                     f"span {float(span)!r} overflows float64", "extension_factor")
            n = int(round(n))
            center = 0.5 * (edges[0] + edges[-1])
            low = center - 0.5 * n * width
            edges = _derived_axis("extension_factor", low + width * np.arange(n + 1)).edges
    if refine_factor == 1:
        return Axis(edges)
    _at_most_max_bins("refine_factor", (edges.size - 1) * refine_factor)
    inner = np.linspace(edges[:-1], edges[1:], refine_factor, endpoint=False, axis=1)
    return _derived_axis("refine_factor", np.append(inner, edges[-1]))
