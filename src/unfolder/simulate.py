"""Monte Carlo generators for synthetic unfolding scenarios.

A :class:`Scenario` fixes a truth distribution, a smearing model, the sample
size, the measured binning and the seed; :func:`generate` draws the sample
and histograms both sides, returning the event pairs that a migration-matrix
estimate needs.  :func:`pseudo_experiments` repeats the measurement many
times to validate the propagated covariance empirically.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DimensionError, ParameterError
from .histogram import (Axis, Histogram, _load_json, _real, _save_json,
                        _whole_number, rebin_axes)
from .response import _PAIR_BLOCK, ResponseMatrix, _closed_edges, _gaussian_kernel


def _gauss_cdf(z):
    z = np.asarray(z, dtype=np.float64)
    return np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in z.ravel()]
                    ).reshape(z.shape)


@dataclass(frozen=True)
class _Model:
    """Base of the truth and smearing models.  Every parameter must be a
    finite number (a NaN or an infinity would make every drawn value NaN
    without an error); `_LOW` maps a bounded one to its ``(low, strict)``
    bound, see :func:`~unfolder.histogram._real`."""

    _LOW = {}

    def __post_init__(self):
        for f in fields(self):
            _real(f.name, getattr(self, f.name), *self._LOW.get(f.name, ()))


@dataclass(frozen=True)
class CauchyTruth(_Model):
    """Cauchy distribution; heavy tails, no moments."""

    location: float = 0.0
    scale: float = 1.0
    _LOW = {"scale": (0.0, True)}

    def sample(self, rng, n):
        # in place, same operations in the same order as
        # location + scale * tan(pi * (u - 0.5))
        u = rng.random(n)
        u -= 0.5
        u *= np.pi
        np.tan(u, out=u)
        u *= self.scale
        u += self.location
        return u

    def cdf(self, x):
        return 0.5 + np.arctan((np.asarray(x) - self.location) / self.scale) / np.pi


@dataclass(frozen=True)
class GaussianTruth(_Model):
    mean: float = 0.0
    sigma: float = 1.0
    _LOW = {"sigma": (0.0, True)}

    def sample(self, rng, n):
        return rng.normal(self.mean, self.sigma, n)

    def cdf(self, x):
        return _gauss_cdf((np.asarray(x) - self.mean) / self.sigma)


@dataclass(frozen=True)
class PowerlawTruth(_Model):
    """Falling energy spectrum: power-law tail with a soft core.

    Density ``(n-1)/(n*T) * (1 + E/(n*T))**(-n)`` on E >= 0 with
    ``n = exponent`` and ``T = scale_energy``; the tail falls like E**(-n)
    and the analytic inverse CDF makes sampling exact.
    """

    exponent: float = 3.0
    scale_energy: float = 1.0
    _LOW = {"exponent": (1.0, True), "scale_energy": (0.0, True)}

    def sample(self, rng, n):
        # in place, same operations in the same order as
        # nt * ((1 - u) ** (-1 / (n - 1)) - 1)
        u = rng.random(n)
        nt = self.exponent * self.scale_energy
        np.subtract(1.0, u, out=u)
        u **= -1.0 / (self.exponent - 1.0)
        u -= 1.0
        u *= nt
        return u

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        nt = self.exponent * self.scale_energy
        out = 1.0 - (1.0 + np.clip(x, 0.0, None) / nt) ** (1.0 - self.exponent)
        return np.where(x < 0, 0.0, out)


@dataclass(frozen=True)
class GaussianSmearing(_Model):
    """Additive Gaussian noise: y = x + N(0, sigma)."""

    sigma: float = 1.0
    _LOW = {"sigma": (0.0, False)}

    def apply(self, rng, x):
        if self.sigma == 0:
            return x.copy()
        # normal(0, sigma), not sigma * standard_normal: 0.0 + sigma * z
        # and sigma * z can differ in the sign of zero
        y = rng.normal(0.0, self.sigma, x.size)
        y += x
        return y

    def kernel(self):
        """Vectorized response density rho(y | x)."""
        return _gaussian_kernel(self.sigma)


@dataclass(frozen=True)
class CalorimeterSmearing(_Model):
    """Relative Gaussian energy resolution, truncated at zero.

    ``y = x * (1 + N(0, 1) * sqrt(a^2/x + b^2))`` clipped to y >= 0, the
    usual stochastic-plus-constant parameterization of a hadron calorimeter
    (a in sqrt(energy) units, b dimensionless).
    """

    stochastic_a: float = 1.15
    constant_b: float = 0.055
    _LOW = {"stochastic_a": (0.0, False), "constant_b": (0.0, False)}

    def apply(self, rng, x):
        a, b = self.stochastic_a, self.constant_b
        if a == 0 and b == 0:
            return x.copy()
        # in place, same operations in the same order as
        # rel = sqrt(where(x > 0, a^2 / x, 0) + b^2);
        # maximum(where(x > 0, x * (1 + rel * z), x), 0)
        positive = x > 0
        rel = np.zeros(x.shape)
        np.divide(a * a, x, out=rel, where=positive)
        rel += b * b
        np.sqrt(rel, out=rel)
        y = rng.standard_normal(x.size)
        y *= rel
        y += 1.0
        y *= x
        np.copyto(y, x, where=~positive)
        return np.maximum(y, 0.0, out=y)


_TRUTH_TYPES = {"cauchy": CauchyTruth, "gaussian": GaussianTruth,
                "powerlaw_spectrum": PowerlawTruth}
_SMEARING_TYPES = {"gaussian_convolution": GaussianSmearing,
                   "calorimeter": CalorimeterSmearing}


@dataclass(frozen=True)
class Scenario:
    """Complete description of one synthetic measurement."""

    truth: object
    smearing: object
    entries: int
    seed: int
    meas_axis: Axis
    rebin: tuple = (1.0, 1)

    def __post_init__(self):
        # 20000.0 -> 20000; 2.5, "100" and True are refused, not truncated
        object.__setattr__(self, "entries", _whole_number("entries", self.entries, 1))
        object.__setattr__(self, "seed", _whole_number("seed", self.seed, 0))
        extension, refine = self.rebin
        rebin_axes(self.meas_axis, extension, refine)  # the one check of the factors
        object.__setattr__(self, "rebin", (float(extension), int(refine)))

    @property
    def true_axis(self) -> Axis:
        return rebin_axes(self.meas_axis, *self.rebin)

    def to_dict(self) -> dict:
        def tagged(obj, table):
            for name, klass in table.items():
                if isinstance(obj, klass):
                    d = {"type": name}
                    d.update({f.name: getattr(obj, f.name) for f in fields(klass)})
                    return d
            raise ValueError(f"unknown component {obj!r}")

        return {
            "truth": tagged(self.truth, _TRUTH_TYPES),
            "smearing": tagged(self.smearing, _SMEARING_TYPES),
            "entries": self.entries,
            "seed": self.seed,
            "meas_axis": self.meas_axis.to_dict(),
            "rebin": {"extension_factor": self.rebin[0],
                      "refine_factor": self.rebin[1]},
        }

    @classmethod
    def from_dict(cls, d) -> "Scenario":
        def need(mapping, key, where=""):
            if key not in mapping:
                name = f"{where}.{key}" if where else key
                raise ConfigError(f"missing configuration field '{name}'", field=name)
            return mapping[key]

        def build(entry, table, where):
            kind = need(entry, "type", where)
            if kind not in table:
                raise ConfigError(
                    f"unknown {where} type '{kind}' (choices: {sorted(table)})",
                    field=f"{where}.type")
            klass = table[kind]
            try:
                return klass(**{f.name: need(entry, f.name, where)
                                for f in fields(klass)})
            except ParameterError as exc:
                raise ConfigError(f"bad {where} parameters: {exc}", field=where) from exc

        truth = build(need(d, "truth"), _TRUTH_TYPES, "truth")
        smearing = build(need(d, "smearing"), _SMEARING_TYPES, "smearing")
        entries, seed = need(d, "entries"), need(d, "seed")
        try:
            meas_axis = Axis.from_dict(need(d, "meas_axis"))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad meas_axis: {exc}", field="meas_axis") from exc
        rebin = d.get("rebin", {})
        try:
            return cls(truth=truth, smearing=smearing, entries=entries, seed=seed,
                       meas_axis=meas_axis,
                       rebin=(rebin.get("extension_factor", 1.0),
                              rebin.get("refine_factor", 1)))
        except ParameterError as exc:
            field = f"rebin.{exc.name}" if exc.name.endswith("_factor") else exc.name
            raise ConfigError(str(exc), field=field) from exc

    def save_json(self, path):
        _save_json(path, self.to_dict(), indent=1)

    @classmethod
    def load_json(cls, path) -> "Scenario":
        return cls.from_dict(_load_json(path))


@dataclass(frozen=True)
class GenerateResult:
    """Sample of one synthetic measurement.

    `pairs` is the (n, 2) array of (true, measured) values feeding
    migration-matrix estimation; the tallies count samples falling outside
    the respective axes (they are not binned).
    """

    truth_hist: Histogram
    measured: Histogram
    pairs: np.ndarray
    truth_underflow: int
    truth_overflow: int
    meas_underflow: int
    meas_overflow: int


def _draws(sc: Scenario, rng, x):
    """Fill `x` with truth draws, then yield each `_PAIR_BLOCK` slice of it
    with its smeared values.  A numpy Generator fills n values as n
    successive draws, so this is the stream of one `truth.sample` and one
    `smearing.apply` call on all of `x`, and only `x` grows with it."""
    blocks = [slice(start, start + _PAIR_BLOCK)
              for start in range(0, x.size, _PAIR_BLOCK)]
    for b in blocks:
        x[b] = sc.truth.sample(rng, len(x[b]))
    for b in blocks:
        yield b, sc.smearing.apply(rng, x[b])


def _tally(v, edges):
    """``[below, count per bin..., above]`` of `v` on `edges`, counted as
    ``np.histogram`` counts array bins (sort, one search of the edges): the
    last bin is closed, `below` and `above` count values off the axis (±inf
    included) and NaN counts in neither.  Sorts `v` in place."""
    v.sort()
    keys = _closed_edges(edges, np.nan)
    return np.diff(v.searchsorted(keys), prepend=0)


def _generate(sc: Scenario, rng, n_entries) -> GenerateResult:
    true_axis, meas_axis = sc.true_axis, sc.meas_axis
    pairs = np.empty((n_entries, 2))
    tc, mc = (np.zeros(a.nbins + 2, dtype=np.intp) for a in (true_axis, meas_axis))
    for b, y in _draws(sc, rng, pairs[:, 0]):
        pairs[b, 1] = y
        tc += _tally(pairs[b, 0].copy(), true_axis.edges)
        mc += _tally(y, meas_axis.edges)
    return GenerateResult(Histogram.from_counts(true_axis, tc[1:-1]),
                          Histogram.from_counts(meas_axis, mc[1:-1]), pairs,
                          int(tc[0]), int(tc[-1]), int(mc[0]), int(mc[-1]))


def generate(sc: Scenario) -> GenerateResult:
    """Draw the scenario's sample; bitwise reproducible for a fixed seed."""
    return _generate(sc, np.random.default_rng(sc.seed), sc.entries)


@dataclass(frozen=True)
class EnsembleStats:
    """Per-bin moments of an ensemble of unfolded pseudo-experiments,
    all evaluated at the common iteration order `order`."""

    order: int
    mean: np.ndarray
    covariance: np.ndarray
    n_experiments: int


def _worker_count(workers, n_experiments):
    """Threads for `n_experiments` experiments: `workers`, but at least 1
    and never more than the experiments or the CPUs."""
    return max(1, min(int(workers), n_experiments, os.cpu_count() or 1))


def pseudo_experiments(sc: Scenario, n_experiments: int, R: ResponseMatrix,
                       policy: StoppingPolicy, poisson_total=True,
                       workers=1, seeds=None) -> EnsembleStats:
    """Ensemble of independently re-sampled measurements, unfolded at a
    common order.

    Experiment k uses seed ``sc.seed + k`` (or ``seeds[k]`` when an explicit
    sequence is given).  The estimate at a fixed order is linear in the
    counts, ``f_N = B_N g``, so the ensemble's mean and covariance are
    ``B_N mean(g)`` and ``B_N cov(g) B_Nᵀ``: exactly what one
    :func:`~unfolder.unfold.run` on the mean counts, with their sample
    covariance as input covariance, returns.  The stopping policy is
    resolved in that run, so the order does not depend on which seed comes
    first, and no experiment is iterated on its own.  With `poisson_total`
    the sample size of each experiment fluctuates as Poisson(entries), a
    draw of 0 included, which makes the bin contents exactly independent
    Poisson variates; otherwise the total is fixed (multinomial bins).

    `workers` threads parallelize the sample generation (clamped to the
    number of experiments and of CPUs); results are bit-identical for any
    worker count.
    """
    # imported here: concurrent.futures costs a fresh interpreter ~20 ms
    from concurrent.futures import ThreadPoolExecutor
    from .unfold import run
    n_experiments = _whole_number("n_experiments", n_experiments, 2)
    if R.meas_axis != sc.meas_axis:
        raise DimensionError("response measured axis does not match the scenario")
    if seeds is None:
        seeds = [sc.seed + k for k in range(n_experiments)]
    elif len(seeds) != n_experiments:
        raise ValueError("seeds length must equal n_experiments")

    edges = sc.meas_axis.edges

    def measured_counts(seed):
        # the draws of generate(); only the measured side is binned
        rng = np.random.default_rng(seed)
        n = int(rng.poisson(sc.entries)) if poisson_total else sc.entries
        counts = np.zeros(edges.size + 1, dtype=np.intp)
        for _, y in _draws(sc, rng, np.empty(n)):
            counts += _tally(y, edges)
        return counts[1:-1]

    with ThreadPoolExecutor(max_workers=_worker_count(workers, n_experiments)) as pool:
        counts = list(pool.map(measured_counts, seeds))
    g_matrix = np.vstack(counts, dtype=np.float64)
    mean_g = g_matrix.mean(axis=0)
    d = g_matrix - mean_g
    # einsum, not BLAS: no threaded product that grows with n_experiments
    cov_g = np.einsum("ki,kj->ij", d, d) / (n_experiments - 1)
    out = run(R, Histogram(sc.meas_axis, mean_g, kind="counts"), policy,
              covariance=cov_g)
    return EnsembleStats(order=out.stopped_at, mean=out.state.f_n,
                         covariance=out.state.covariance,
                         n_experiments=n_experiments)
