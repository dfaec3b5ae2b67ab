"""Monte Carlo generators for synthetic unfolding scenarios.

A :class:`Scenario` fixes a truth distribution, a smearing model, the sample
size, the measured binning and the seed; :func:`generate` draws the sample
and histograms both sides, returning the event pairs that a migration-matrix
estimate needs.  :func:`pseudo_experiments` repeats the measurement many
times to validate the propagated covariance empirically.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DimensionError, ParameterError
from .histogram import (Axis, Histogram, _json_object, _load_json, _real, _save_json,
                        _whole_number, rebin_axes)
from .response import _PAIR_BLOCK, ResponseMatrix, _closed_edges, _gaussian_kernel


def _gauss_cdf(z):
    z = np.asarray(z, dtype=np.float64)
    return np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in z.ravel()]
                    ).reshape(z.shape)


def _copy(x, out):
    """`x` copied into `out`, or into a new array when `out` is None."""
    if out is None:
        return x.copy()
    out[...] = x
    return out


@dataclass(frozen=True)
class _Model:
    """Base of the truth and smearing models.  Every parameter must be a
    finite number (a NaN or an infinity would make every drawn value NaN
    without an error); `_LOW` maps a bounded one to its ``(low, strict)``
    bound, see :func:`~unfolder.histogram._real`.  An integral parameter is
    stored as an int and any other as a float, so a numpy scalar is written
    to JSON as the number it holds.

    A truth model's ``sample(rng, n, out=None)`` draws n values, and a
    smearing model's ``apply(rng, x, out=None)`` smears the values `x`.
    Given `out`, a contiguous float64 array of the result's size, the
    values are written there and `out` is returned; a model whose Generator
    call takes no `out` copies its draws into it once.  The draws, the
    arithmetic and the values are the same with `out` and without it."""

    _LOW = {}

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            x = _real(f.name, value, *self._LOW.get(f.name, ()))
            object.__setattr__(self, f.name,
                               int(value) if isinstance(value, numbers.Integral) else x)


@dataclass(frozen=True)
class CauchyTruth(_Model):
    """Cauchy distribution; heavy tails, no moments."""

    location: float = 0.0
    scale: float = 1.0
    _LOW = {"scale": (0.0, True)}

    def sample(self, rng, n, out=None):
        # in place, same operations in the same order as
        # location + scale * tan(pi * (u - 0.5))
        u = rng.random(n, out=out)
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

    def sample(self, rng, n, out=None):
        x = rng.normal(self.mean, self.sigma, n)
        return x if out is None else _copy(x, out)

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

    def sample(self, rng, n, out=None):
        # in place, same operations in the same order as
        # nt * ((1 - u) ** (-1 / (n - 1)) - 1)
        u = rng.random(n, out=out)
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

    def apply(self, rng, x, out=None):
        if self.sigma == 0:
            return _copy(x, out)
        # normal(0, sigma), not sigma * standard_normal: 0.0 + sigma * z
        # and sigma * z can differ in the sign of zero
        y = rng.normal(0.0, self.sigma, x.size)
        return np.add(y, x, out=y if out is None else out)

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

    def apply(self, rng, x, out=None):
        a, b = self.stochastic_a, self.constant_b
        if a == 0 and b == 0:
            return _copy(x, out)
        # in place, same operations in the same order as
        # rel = sqrt(where(x > 0, a^2 / x, 0) + b^2);
        # maximum(where(x > 0, x * (1 + rel * z), x), 0)
        positive = x > 0
        rel = np.zeros(x.shape)
        np.divide(a * a, x, out=rel, where=positive)
        rel += b * b
        np.sqrt(rel, out=rel)
        y = rng.standard_normal(x.size, out=out)
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
        def json_object(name, value, field=None):
            try:
                return _json_object(name, value)
            except ParameterError as exc:
                raise ConfigError(str(exc), field=field) from None

        def need(mapping, key, where=""):
            if key not in mapping:
                name = f"{where}.{key}" if where else key
                raise ConfigError(f"missing configuration field '{name}'", field=name)
            return mapping[key]

        def build(table, where):
            entry = json_object(where, need(d, where), field=where)
            kind = need(entry, "type", where)
            if not isinstance(kind, str):
                raise ConfigError(f"{where} type must be a string, got "
                                  f"{type(kind).__name__}", field=f"{where}.type")
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

        d = json_object("scenario", d)
        truth = build(_TRUTH_TYPES, "truth")
        smearing = build(_SMEARING_TYPES, "smearing")
        entries, seed = need(d, "entries"), need(d, "seed")
        try:
            meas_axis = Axis.from_dict(need(d, "meas_axis"))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad meas_axis: {exc}", field="meas_axis") from exc
        try:
            rebin = _json_object("rebin", d.get("rebin", {}))
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


def _draws(sc: Scenario, rng, x, out):
    """Fill `x` with truth draws, then yield each `_PAIR_BLOCK` slice of it
    with its smeared values, written into the start of `out`: the caller's
    buffer of one block (or of `x`, if smaller), overwritten by the next
    block.  A numpy Generator fills n values as n successive draws, so this
    is the stream of one `truth.sample` and one `smearing.apply` call on
    all of `x`, and only `x` grows with it.  A contiguous `x` (it may be a
    view into a longer buffer that the caller reuses) is drawn into in
    place; a strided one, a column of the pairs, takes each block of truth
    draws through `out`."""
    blocks = [slice(start, min(start + _PAIR_BLOCK, x.size))
              for start in range(0, x.size, _PAIR_BLOCK)]
    for b in blocks:
        m = b.stop - b.start
        if x.flags.c_contiguous:
            sc.truth.sample(rng, m, out=x[b])
        else:
            x[b] = sc.truth.sample(rng, m, out=out[:m])
    for b in blocks:
        yield b, sc.smearing.apply(rng, x[b], out=out[:b.stop - b.start])


def _tally(v, keys, ends):
    """Sort `v` in place and add its slot ends on `keys`, an axis's
    ``_closed_edges(edges, np.nan)``, to the intp array `ends`.

    Once every block of a sample has been added, ``np.diff(ends,
    prepend=0)`` is ``[below, count per bin..., above]`` counted as
    ``np.histogram`` counts (sort, one search of the keys): the last bin is
    closed, `below` and `above` count values off the axis (±inf included)
    and NaN counts in neither.  The difference is linear, so summing the
    ends of the blocks and taking one difference counts the whole sample."""
    v.sort()
    ends += v.searchsorted(keys)


def _generate(sc: Scenario, rng, n_entries) -> GenerateResult:
    true_axis, meas_axis = sc.true_axis, sc.meas_axis
    pairs = np.empty((n_entries, 2))
    true_keys, meas_keys = (_closed_edges(a.edges, np.nan) for a in (true_axis, meas_axis))
    tc, mc = (np.zeros(k.size, dtype=np.intp) for k in (true_keys, meas_keys))
    for b, y in _draws(sc, rng, pairs[:, 0], np.empty(min(n_entries, _PAIR_BLOCK))):
        pairs[b, 1] = y
        _tally(y, meas_keys, mc)
        y[...] = pairs[b, 0]  # the block buffer again, for a sortable copy of the truth
        _tally(y, true_keys, tc)
    tc, mc = np.diff(tc, prepend=0), np.diff(mc, prepend=0)
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

    Experiment k's counts are row k of one ``(n_experiments, nbins)``
    matrix, and `workers` threads fill it (clamped to the number of
    experiments and of CPUs): worker w takes the experiments
    ``w, w + workers, w + 2 * workers, ...`` as one task.  It draws each
    into two buffers of its own, made once and reused: the truth draws,
    grown to its largest sample, and one block of smeared values.  The
    models fill both in place.  A row depends only on its seed, not on
    which worker drew it or what that worker drew before, so results are
    bit-identical for any worker count.
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

    keys = _closed_edges(sc.meas_axis.edges, np.nan)
    g_matrix = np.empty((n_experiments, sc.meas_axis.nbins))

    def measure(share):
        # the draws of generate(); only the measured side is binned
        x, out = np.empty(0), np.empty(_PAIR_BLOCK)
        ends = np.empty(keys.size, dtype=np.intp)
        for k in share:
            rng = np.random.default_rng(seeds[k])
            n = int(rng.poisson(sc.entries)) if poisson_total else sc.entries
            if n > x.size:
                del x  # the old draws go before the larger buffer comes
                x = np.empty(n)
            ends[:] = 0
            for _, y in _draws(sc, rng, x[:n], out):
                _tally(y, keys, ends)
            g_matrix[k] = np.diff(ends[:-1])  # the bins; below and above dropped

    n_workers = _worker_count(workers, n_experiments)
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        list(pool.map(measure, [range(w, n_experiments, n_workers)
                                for w in range(n_workers)]))
    mean_g = g_matrix.mean(axis=0)
    d = g_matrix - mean_g
    # einsum, not BLAS: no threaded product that grows with n_experiments
    cov_g = np.einsum("ki,kj->ij", d, d) / (n_experiments - 1)
    out = run(R, Histogram(sc.meas_axis, mean_g, kind="counts"), policy,
              covariance=cov_g)
    return EnsembleStats(order=out.stopped_at, mean=out.state.f_n,
                         covariance=out.state.covariance,
                         n_experiments=n_experiments)
