"""Regularized linear unfolding by damped fixed-point iteration.

Starting from the matched estimate ``f0 = K⁻¹ Aᵀ g`` the iteration

    f_{N+1} = f_N + (f0 - K⁻¹ AᵀA f_N)

converges, for a non-negative response A with K at least the largest column
sum of AᵀA, to the best reconstructable part of the true distribution (the
truth minus its component in the null space of A).  The same recursion
applied to a square root E of the measurement covariance propagates
statistical errors exactly: ``C_N = E_N E_Nᵀ`` is the covariance of ``f_N``.

Three error measures are tracked per iteration order N:

* a bias bound, the paper's ``||f|| / (sqrt(v) (N+2))`` with the norm of
  the current iterate ``||f_N||`` in place of the unknown ``||f||``.  It
  does not bound the deviation from the limit, which falls as ``1/(N+2)``
  times ``||h||`` for a limit ``K⁻¹AᵀA h``, not times ``||f||`` (for
  ``A = [[0.6, 0.4], [0.4, 0.6]]`` and ``f = (1, 0)`` it is
  ``0.5 * 0.96^(N+1)`` per bin),
* the integrated statistical error ``sum_i sqrt(C_N[i, i])``; ``trace(C_N)``
  is non-decreasing, the integral mostly grows too but can fall slightly,
* the paper's systematic term ``H_{N+1} ||K⁻¹Aᵀ delta_g||``.  It does not
  bound the propagated shift ``f_N(g + delta_g) - f_N(g)``, which grows like
  ``(N+1)`` along a small eigenvalue of ``K⁻¹AᵀA`` (for ``A = diag(1, 0.1)``
  on two unit bins and ``delta_g = (0, 1)`` the shift is 0.199 at N = 1
  and 2.677 at N = 30, against 0.150 and 0.403).  The term with ``N+1`` in
  place of ``H_{N+1}``, times ``sqrt(v_max / v_min)``, does bound it.

The iteration order is the only regularization parameter; the trade-off
between the falling and the growing terms fixes where to stop, and
:class:`StoppingPolicy` implements the supported rules.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace
from itertools import islice

import numpy as np

from .errors import (DecompositionError, DimensionError, NumericalFailureError,
                     ParameterError)
from .histogram import Histogram, _float_array, _real, _whole_number
from .response import ResponseMatrix

DEFAULT_MAX_ITERATIONS = 10000

# consecutive non-improving iterations that confirm a minimum of the total
# error budget
MIN_TOTAL_PATIENCE = 10


def _harmonic_numbers():
    """H_1, H_2, ... as a Kahan-compensated running sum; up to H_10001 each
    is the correctly rounded ``math.fsum`` of its terms."""
    h = c = 0.0
    k = 0
    while True:
        k += 1
        t = 1.0 / k - c
        new = h + t
        c = (new - h) - t
        h = new
        yield h


def harmonic_number(m: int) -> float:
    """H_m = sum_{k=1..m} 1/k as a compensated sum; H_0 = 0."""
    m = _whole_number("m", m, 0)
    return next(islice(_harmonic_numbers(), m - 1, None)) if m > 0 else 0.0


def l2_density_norm(masses, volumes) -> float:
    """L2 norm of the density a mass vector represents.

    With mass m_i on a bin of volume v_i the density is m_i / v_i and the
    squared norm integrates to sum(m_i^2 / v_i).
    """
    m = np.asarray(masses, dtype=np.float64)
    v = np.asarray(volumes, dtype=np.float64)
    return float(np.sqrt(np.sum(m * m / v)))


def covariance_sqrt(c) -> np.ndarray:
    """Matrix E with ``E Eᵀ = c``.

    Cholesky when the covariance is positive definite, symmetric
    eigendecomposition square root when only semidefinite.  The square root
    is not unique; any valid E propagates identically.
    """
    c = _float_array("covariance", c)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DecompositionError(f"covariance must be square, got shape {c.shape}")
    scale = float(np.abs(c).max(initial=0.0))
    if not np.allclose(c, c.T, atol=1e-12 * max(scale, 1.0)):
        raise DecompositionError("covariance must be symmetric")
    try:
        return np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        pass
    w, v = np.linalg.eigh(0.5 * (c + c.T))
    if w.min(initial=0.0) < -1e-9 * max(scale, 1.0):
        raise DecompositionError(
            f"covariance has negative eigenvalue {w.min():.3g}")
    return v * np.sqrt(np.clip(w, 0.0, None))[None, :]


@dataclass(frozen=True)
class IterateState:
    """State of the unfolding iteration at order `n`.

    ``f_n`` is the current unfolded mass estimate, ``e_n`` the propagated
    covariance square root (``covariance = e_n @ e_n.T``).  ``f0``/``e0`` are
    the first iterates and ``m0`` the operator ``K⁻¹AᵀA``; together they
    define the recursion.  ``volumes`` holds the true-axis bin volumes used
    by the density norms and ``delta_f0`` the image ``K⁻¹Aᵀ delta_g`` of an
    optional systematic offset of the measured input.
    """

    n: int
    f_n: np.ndarray
    e_n: np.ndarray
    f0: np.ndarray
    e0: np.ndarray
    m0: np.ndarray
    volumes: np.ndarray
    delta_f0: np.ndarray | None = None

    @property
    def covariance(self) -> np.ndarray:
        return self.e_n @ self.e_n.T


@dataclass(frozen=True)
class ErrorBudget:
    """Error summary of one iteration order.

    `bias_bound` and `syst_bound` are the paper's terms for the per-bin
    average deviation (density units, worst bin volume); neither bounds the
    actual deviation (see the module docstring).  `stat_integral` is the
    summed per-bin statistical error and `stat_fraction` its ratio to the
    summed absolute content.  `total` combines the three on a common scale:
    per-bin terms are multiplied by the bin count before adding the
    integrated statistical term.
    """

    n: int
    bias_bound: float
    stat_integral: float
    stat_fraction: float
    syst_bound: float
    total: float

    def csv_row(self) -> str:
        """The fields in :attr:`CSV_HEADER` order: `n` by ``str``, each float by ``repr``."""
        return ",".join((str if f.name == "n" else repr)(getattr(self, f.name))
                        for f in fields(self))


ErrorBudget.CSV_HEADER = ",".join(f.name for f in fields(ErrorBudget))


@dataclass(frozen=True)
class StoppingPolicy:
    """Rule deciding the final iteration order.

    * ``fixed(N)`` stops at order N;
    * ``stat_fraction(t)`` stops at the smallest order whose integrated
      statistical error reaches fraction t of the summed absolute content;
    * ``min_total()`` stops at the order minimizing ``ErrorBudget.total``,
      confirmed after 10 consecutive non-improving iterations.

    `max_iterations` caps the order in all cases; a run that hits the cap
    before its rule fires is flagged as truncated.
    """

    rule: str
    order: int | None = None
    threshold: float | None = None
    max_iterations: int = DEFAULT_MAX_ITERATIONS

    def __post_init__(self):
        if self.rule not in ("fixed", "stat_fraction", "min_total"):
            raise ValueError(f"unknown stopping rule {self.rule!r}")
        object.__setattr__(self, "max_iterations",
                           _whole_number("max_iterations", self.max_iterations, 1))
        if self.rule == "fixed":
            object.__setattr__(self, "order", _whole_number("order", self.order, 0))
        if self.rule == "stat_fraction":
            object.__setattr__(self, "threshold", _real(
                "threshold", self.threshold, 0.0, strict=True, high=1.0))
        for name, rule in (("order", "fixed"), ("threshold", "stat_fraction")):
            if self.rule != rule and getattr(self, name) is not None:
                raise ParameterError(f"the {self.rule} rule takes no {name}, "
                                     f"got {getattr(self, name)!r}", name)

    @classmethod
    def fixed(cls, order, max_iterations=DEFAULT_MAX_ITERATIONS):
        return cls("fixed", order=order, max_iterations=max_iterations)

    @classmethod
    def stat_fraction(cls, threshold, max_iterations=DEFAULT_MAX_ITERATIONS):
        return cls("stat_fraction", threshold=threshold, max_iterations=max_iterations)

    @classmethod
    def min_total(cls, max_iterations=DEFAULT_MAX_ITERATIONS):
        return cls("min_total", max_iterations=max_iterations)

    def _fired(self, budget, best_n):
        """Whether the rule stops at `budget`'s order; `best_n` is the
        order of the smallest total so far."""
        if self.rule == "fixed":
            return budget.n >= self.order
        if self.rule == "stat_fraction":
            return budget.stat_fraction >= self.threshold
        return budget.n - best_n >= MIN_TOTAL_PATIENCE


@dataclass(frozen=True)
class UnfoldResult:
    """Outcome of :func:`run`: the unfolded histogram, the per-iteration
    error budgets, the stopping order, whether the iteration cap cut the
    policy short, and the iterate at the stopping order (``state.f_n`` is
    the result's contents and ``state.covariance`` the full propagated
    covariance, whose diagonal the result's `stat_err` reports)."""

    result: Histogram
    trace: tuple
    stopped_at: int
    truncated: bool
    state: IterateState


def init(R: ResponseMatrix, g: Histogram, syst=None, covariance=None) -> IterateState:
    """First iterate ``f0 = K⁻¹Aᵀg`` with its covariance square root.

    `g` must carry statistical errors.  With only per-bin errors the input
    covariance is diagonal and its square root trivial; a full (PSD)
    `covariance` matrix may be passed instead and is decomposed with
    :func:`covariance_sqrt`.  `syst` is the per-bin systematic offset of the
    measured histogram, used by the systematic term.
    """
    if g.axis != R.meas_axis:
        raise DimensionError("measured histogram is not on the response's measured axis")
    a = R.matrix
    bt = a.T / R.k_factor  # K⁻¹Aᵀ
    if covariance is not None:
        e0 = bt @ covariance_sqrt(covariance)
    elif g.stat_err is None:
        raise ValueError("measured histogram carries no statistical errors")
    else:
        # bt @ diag(stat_err) without the ny × ny matrix: each entry is one
        # product either way, so the bits are the same (but for the sign of
        # a zero where an error is -0.0).  C order, as the product returns
        # it: `step` and `stat_summary` give other bits for bt's transposed
        # layout
        e0 = np.multiply(bt, g.stat_err, order="C")
    f0 = bt @ g.contents
    m0 = bt @ a
    delta_f0 = None if syst is None else _image(bt, R, "syst", syst)
    return IterateState(n=0, f_n=f0, e_n=e0, f0=f0, e0=e0, m0=m0,
                        volumes=R.true_axis.widths, delta_f0=delta_f0)


def _image(bt, R: ResponseMatrix, name, delta_g) -> np.ndarray:
    """``K⁻¹Aᵀ delta_g`` with ``bt = K⁻¹Aᵀ`` formed as in :func:`init`;
    `name` is the parameter that passed `delta_g`."""
    delta_g = _float_array(name, delta_g)
    if delta_g.shape != (R.meas_axis.nbins,):
        raise DimensionError("systematic offset length does not match the measured axis")
    return bt @ delta_g


def step(s: IterateState) -> IterateState:
    """One iteration of both recursions; returns the order n+1 state."""
    f = s.f_n + (s.f0 - s.m0 @ s.f_n)
    e = s.e_n + (s.e0 - s.m0 @ s.e_n)
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(e))):
        raise NumericalFailureError(
            f"non-finite values at iteration order {s.n + 1}", order=s.n + 1)
    return replace(s, n=s.n + 1, f_n=f, e_n=e)


def bias_bound(s: IterateState, bin_volume: float) -> float:
    """The paper's bias term at order n, evaluated on the current iterate.

    ``(1/sqrt(bin_volume)) * (1/(n+2)) * ||f_n||_2``: the paper's bound on
    the per-bin average deviation from the limit, with the norm of the
    current iterate in place of the unknown true density norm.  It is the
    bias term of the error budget, not a bound on the actual deviation,
    and it can understate that at any order (see the module docstring): for
    ``A = [[0.6, 0.4], [0.4, 0.6]]`` and ``f = (1, 0)`` it reads 0.063 at
    n = 10 against a per-bin deviation of 0.319.
    """
    bin_volume = _real("bin_volume", bin_volume, 0.0, strict=True)
    return (1.0 / math.sqrt(bin_volume)) / (s.n + 2) \
        * l2_density_norm(s.f_n, s.volumes)


def syst_bound(s: IterateState, R: ResponseMatrix, delta_g, bin_volume: float) -> float:
    """The paper's systematic term at order n.

    ``(1/sqrt(bin_volume)) * H_{n+1} * ||K⁻¹Aᵀ delta_g||_2``; the harmonic
    number equals digamma(n+2) plus the Euler constant and grows like
    1 + log(n+1).  It is the systematic term of the error budget, not a
    bound on the propagated shift ``f_n(g + delta_g) - f_n(g)``, which can
    grow like ``n+1`` (see the module docstring): for ``A = diag(1, 0.1)``
    on two unit bins and ``delta_g = (0, 1)`` it reads 0.150 at n = 1
    against a shift of 0.199, and 0.403 at n = 30 against 2.677.
    """
    norm = l2_density_norm(_image(R.matrix.T / R.k_factor, R, "delta_g", delta_g), s.volumes)
    return _syst(harmonic_number(s.n + 1), norm, bin_volume)


def _syst(h, norm, bin_volume):
    """:func:`syst_bound` from ``H_{n+1}`` and ``||K⁻¹Aᵀ delta_g||_2``."""
    bin_volume = _real("bin_volume", bin_volume, 0.0, strict=True)
    return (1.0 / math.sqrt(bin_volume)) * h * norm


def stat_summary(s: IterateState):
    """Per-bin statistical errors, their integral, and the integral's
    fraction of the summed absolute content."""
    per_bin = np.sqrt(np.einsum("ij,ij->i", s.e_n, s.e_n))
    integral = float(per_bin.sum())
    denom = float(np.abs(s.f_n).sum())
    fraction = math.inf if denom == 0.0 else integral / denom
    return per_bin, integral, fraction


def _budget(s: IterateState, nx, min_volume, syst_norm, h) -> ErrorBudget:
    _, integral, fraction = stat_summary(s)
    bias = bias_bound(s, min_volume)
    syst = _syst(h, syst_norm, min_volume)
    return ErrorBudget(
        n=s.n,
        bias_bound=bias,
        stat_integral=integral,
        stat_fraction=fraction,
        syst_bound=syst,
        total=bias * nx + integral + syst * nx,
    )


def run(R: ResponseMatrix, g: Histogram, policy: StoppingPolicy,
        syst=None, covariance=None) -> UnfoldResult:
    """Iterate until the stopping policy fires and assemble the result.

    The returned histogram carries the unfolded contents, per-bin
    statistical errors from the propagated covariance, the per-bin
    systematic term (when a systematic offset was given) and the
    ``unfolded`` flag.  The trace records one :class:`ErrorBudget` per
    executed order, including order 0.  Scalar budgets use the smallest
    true-bin volume, the worst case on a non-uniform axis.
    """
    state = best = init(R, g, syst=syst, covariance=covariance)
    nx = R.true_axis.nbins
    min_volume = float(state.volumes.min())
    syst_norm = 0.0 if syst is None else l2_density_norm(state.delta_f0, state.volumes)
    harmonics = _harmonic_numbers()  # H_{n+1} at order n

    cap = policy.max_iterations
    budgets = [_budget(state, nx, min_volume, syst_norm, next(harmonics))]
    while not policy._fired(budgets[-1], best.n) and state.n < cap:
        state = step(state)
        budgets.append(_budget(state, nx, min_volume, syst_norm, next(harmonics)))
        # min_total keeps its argmin, the other rules the last order
        if policy.rule != "min_total" or budgets[-1].total < budgets[best.n].total:
            best = state
    truncated = not policy._fired(budgets[-1], best.n)
    if truncated:
        warnings.warn(
            f"stopping policy did not fire within {cap} iterations; "
            "returning the best order examined", RuntimeWarning)

    per_bin, _, _ = stat_summary(best)
    syst_err = None
    if syst is not None:
        # per-bin mass term: bin volume times the per-bin average term
        syst_err = np.sqrt(best.volumes) * harmonic_number(best.n + 1) * syst_norm
    result = Histogram(R.true_axis, best.f_n, stat_err=per_bin,
                       syst_err=syst_err, kind=g.kind, unfolded=True)
    return UnfoldResult(result=result, trace=tuple(budgets),
                        stopped_at=best.n, truncated=truncated, state=best)
