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
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ConfigError, DimensionError, ParameterError
from .histogram import (Axis, Histogram, _json_object, _load_json, _real, _save_json,
                        _whole_number, rebin_axes)
from .response import _PAIR_BLOCK, ResponseMatrix, _closed_edges, _gaussian_kernel

# a pseudo_experiments worker draws consecutive experiments that fit this
# many _PAIR_BLOCKs of values together, as one batch
_BATCH_BLOCKS = 2


def _gauss_cdf(z):
    z = np.asarray(z, dtype=np.float64)
    return np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in z.ravel()]
                    ).reshape(z.shape)


@dataclass(frozen=True)
class _Model:
    """Base of the truth and smearing models.  Every parameter must be a
    finite number (a NaN or an infinity would make every drawn value NaN
    without an error); `_LOW` maps a bounded one to its ``(low, strict)``
    bound, see :func:`~unfolder.histogram._real`.  An integral parameter is
    stored as an int and any other as a float, so a numpy scalar is written
    to JSON as the number it holds.

    A truth model's ``sample(rng, n)`` draws n values, and a smearing
    model's ``apply(rng, x)`` smears the values `x`.  Each is one Generator
    fill of the draws, ``_fill(rng, out)``, which fills and returns `out`, a
    contiguous float64 array of as many values, and then in-place
    arithmetic on them (`_transform`, `_smear`), so a caller may fill the
    draws of several Generators into one buffer and run the arithmetic once
    over all of them, as `_draws` does."""

    _LOW = {}

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            x = _real(f.name, value, *self._LOW.get(f.name, ()))
            object.__setattr__(self, f.name,
                               int(value) if isinstance(value, numbers.Integral) else x)


@dataclass(frozen=True)
class _Truth(_Model):
    """A truth model: `_fill` draws uniform values in [0, 1) (or N(0, 1)
    values), `_transform` maps them to the distribution in place."""

    def sample(self, rng, n):
        return self._transform(self._fill(rng, np.empty(n)))

    def _fill(self, rng, out):
        return rng.random(out=out)


@dataclass(frozen=True)
class _Smearing(_Model):
    """A smearing model: `_fill` draws N(0, 1) values and `_smear` runs the
    subclass's `_noise` on them, with a work buffer of x's size.  A model whose
    every parameter is 0 (``sigma == 0``; ``stochastic_a == constant_b == 0``)
    is the identity: `_fill` draws nothing and `_smear` copies `x` bit for bit."""

    def apply(self, rng, x):
        return self._smear(x, self._fill(rng, np.empty(x.size)), np.empty(x.size))

    @property
    def _identity(self):
        return all(getattr(self, f.name) == 0 for f in fields(self))

    def _fill(self, rng, out):
        return out if self._identity else rng.standard_normal(out=out)

    def _smear(self, x, z, work):
        if self._identity:
            z[...] = x
            return z
        return self._noise(x, z, work)


@dataclass(frozen=True)
class CauchyTruth(_Truth):
    """Cauchy distribution; heavy tails, no moments."""

    location: float = 0.0
    scale: float = 1.0
    _LOW = {"scale": (0.0, True)}

    def _transform(self, u):
        # in place, same operations in the same order as
        # location + scale * tan(pi * (u - 0.5))
        u -= 0.5
        u *= np.pi
        np.tan(u, out=u)
        u *= self.scale
        u += self.location
        return u

    def cdf(self, x):
        return 0.5 + np.arctan((np.asarray(x) - self.location) / self.scale) / np.pi


@dataclass(frozen=True)
class GaussianTruth(_Truth):
    mean: float = 0.0
    sigma: float = 1.0
    _LOW = {"sigma": (0.0, True)}

    def _fill(self, rng, out):
        return rng.standard_normal(out=out)

    def _transform(self, z):
        # Generator.normal(mean, sigma)'s mean + sigma * z, in place
        z *= self.sigma
        z += self.mean
        return z

    def cdf(self, x):
        return _gauss_cdf((np.asarray(x) - self.mean) / self.sigma)


@dataclass(frozen=True)
class PowerlawTruth(_Truth):
    """Falling energy spectrum: power-law tail with a soft core.

    Density ``(n-1)/(n*T) * (1 + E/(n*T))**(-n)`` on E >= 0 with
    ``n = exponent`` and ``T = scale_energy``; the tail falls like E**(-n)
    and the analytic inverse CDF makes sampling exact.  Parameters whose
    largest draw, ``n*T * ((2**-53) ** (-1/(n-1)) - 1)`` at the largest
    uniform draw ``1 - 2**-53``, is not finite are refused (such a sample
    would hold infinite energies), naming `exponent` when the power term
    alone is not finite (1.01), else `scale_energy` (3.0 with 1e307).
    """

    exponent: float = 3.0
    scale_energy: float = 1.0
    _LOW = {"exponent": (1.0, True), "scale_energy": (0.0, True)}

    def __post_init__(self):
        super().__post_init__()
        with np.errstate(over="ignore", invalid="ignore"):
            power = np.float64(2.0**-53) ** (-1.0 / (self.exponent - 1.0)) - 1.0
            largest = float(self._transform(np.array([1.0 - 2.0**-53]))[0])
        if not math.isfinite(largest):
            raise ParameterError(
                f"exponent {self.exponent!r} with scale_energy {self.scale_energy!r} "
                f"makes the largest draw {largest!r}; it must be finite",
                "exponent" if not np.isfinite(power) else "scale_energy")

    def _transform(self, u):
        # in place, same operations in the same order as
        # nt * ((1 - u) ** (-1 / (n - 1)) - 1)
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
class GaussianSmearing(_Smearing):
    """Additive Gaussian noise: y = x + N(0, sigma)."""

    sigma: float = 1.0
    _LOW = {"sigma": (0.0, False)}

    def _noise(self, x, z, work):
        # in place, Generator.normal(0, sigma)'s 0.0 + sigma * z, then + x
        # (0.0 + sigma * z and sigma * z can differ in the sign of zero)
        z *= self.sigma
        z += 0.0
        return np.add(z, x, out=z)

    def kernel(self):
        """Vectorized response density rho(y | x)."""
        return _gaussian_kernel(self.sigma)


@dataclass(frozen=True)
class CalorimeterSmearing(_Smearing):
    """Relative Gaussian energy resolution, truncated at zero.

    ``y = x * (1 + N(0, 1) * sqrt(a^2/x + b^2))`` clipped to y >= 0, the
    usual stochastic-plus-constant parameterization of a hadron calorimeter
    (a in sqrt(energy) units, b dimensionless).  A value that is not
    positive (zero, negative or NaN) is kept as it is, then clipped.
    """

    stochastic_a: float = 1.15
    constant_b: float = 0.055
    _LOW = {"stochastic_a": (0.0, False), "constant_b": (0.0, False)}

    def _noise(self, x, z, work):
        a, b = self.stochastic_a, self.constant_b
        # in place, the resolution term in `work`: same operations in the
        # same order as rel = sqrt(where(x > 0, a^2 / x, 0) + b^2);
        # maximum(where(x > 0, x * (1 + rel * z), x), 0).  A value that is
        # not positive divides by zero, overflows (a negative subnormal) or
        # takes a root of a negative term here, silently, and is copied
        # over below; a positive one overflows to the same infinity as the
        # masked expression, also silently.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            np.divide(a * a, x, out=work)
            work += b * b
            np.sqrt(work, out=work)
            z *= work
            z += 1.0
            z *= x
        if x.size and not x.min() > 0:  # a zero, a negative value or a NaN
            np.copyto(z, x, where=~(x > 0))
        return np.maximum(z, 0.0, out=z)


_TRUTH_TYPES = {"cauchy": CauchyTruth, "gaussian": GaussianTruth,
                "powerlaw_spectrum": PowerlawTruth}
_SMEARING_TYPES = {"gaussian_convolution": GaussianSmearing,
                   "calorimeter": CalorimeterSmearing}


def _tagged(name, model, table):
    """``{"type": key, **parameters}``, `key` naming `model`'s class in `table`."""
    for tag, klass in table.items():
        if isinstance(model, klass):
            return {"type": tag, **asdict(model)}
    raise ParameterError(f"unknown component {model!r}", name)


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
        _tagged("truth", self.truth, _TRUTH_TYPES)
        _tagged("smearing", self.smearing, _SMEARING_TYPES)
        if not isinstance(self.meas_axis, Axis):
            raise ParameterError(f"meas_axis {self.meas_axis!r} is not an Axis", "meas_axis")
        extension, refine = self.rebin
        rebin_axes(self.meas_axis, extension, refine)  # the one check of the factors
        object.__setattr__(self, "rebin", (float(extension), int(refine)))

    @property
    def true_axis(self) -> Axis:
        return rebin_axes(self.meas_axis, *self.rebin)

    def to_dict(self) -> dict:
        return {
            "truth": _tagged("truth", self.truth, _TRUTH_TYPES),
            "smearing": _tagged("smearing", self.smearing, _SMEARING_TYPES),
            "entries": self.entries,
            "seed": self.seed,
            "meas_axis": self.meas_axis.to_dict(),
            "rebin": {"extension_factor": self.rebin[0],
                      "refine_factor": self.rebin[1]},
        }

    @classmethod
    def from_dict(cls, d) -> "Scenario":
        # each refusal is a ParameterError; its field is `where` (the model or
        # axis being read) or a dotted name in it, at the top level its name
        where = ""
        try:
            d = _json_object("scenario", d, "truth", "smearing", "entries", "seed",
                             "meas_axis")
            models = []
            for where, table in (("truth", _TRUTH_TYPES), ("smearing", _SMEARING_TYPES)):
                kind = _json_object(where, d[where], "type")["type"]
                if not isinstance(kind, str):
                    raise ParameterError(f"{where} type must be a string, got "
                                         f"{type(kind).__name__}", f"{where}.type")
                if kind not in table:
                    raise ParameterError(f"unknown {where} type '{kind}' (choices: "
                                         f"{sorted(table)})", f"{where}.type")
                names = [f.name for f in fields(table[kind])]
                entry = _json_object(where, d[where], *names)
                models.append(table[kind](**{name: entry[name] for name in names}))
            where = "meas_axis"
            meas_axis = Axis.from_dict(d["meas_axis"])
            where = ""
            rebin = _json_object("rebin", d.get("rebin", {}))
            return cls(*models, d["entries"], d["seed"], meas_axis,
                       (rebin.get("extension_factor", 1.0), rebin.get("refine_factor", 1)))
        except ParameterError as exc:
            if where:
                field = exc.name if exc.name.startswith(f"{where}.") else where
            else:
                field = f"rebin.{exc.name}" if exc.name.endswith("_factor") else exc.name
            raise ConfigError(str(exc), field=field) from exc

    def save_json(self, path):
        _save_json(path, self.to_dict(), indent=1)

    @classmethod
    def load_json(cls, path) -> "Scenario":
        try:
            d = _load_json(path)
        except ValueError as exc:  # not valid JSON
            raise ConfigError(str(exc)) from exc
        return cls.from_dict(d)


@dataclass(frozen=True)
class GenerateResult:
    """Sample of one synthetic measurement.

    `pairs` is the (n, 2) array of (true, measured) values feeding
    migration-matrix estimation, column-major (each column contiguous, as
    it is drawn); the tallies count samples falling outside the respective
    axes (they are not binned).
    """

    truth_hist: Histogram
    measured: Histogram
    pairs: np.ndarray
    truth_underflow: int
    truth_overflow: int
    meas_underflow: int
    meas_overflow: int


def _draws(sc: Scenario, streams, x, y, work):
    """Draw the samples of `streams`, a list of ``(rng, n)``, into
    consecutive segments of `x`, a contiguous buffer (it may be the start of
    a longer one that the caller reuses), and yield ``(i, s, v)``: a slice s
    of stream i's segment and its smeared values v, written into `y`, which
    the next chunk overwrites.  `y` and `work`, the smearing's work buffer,
    are the caller's contiguous buffers of the same size.

    The segments are drawn in chunks of ``y.size`` values, a stream split
    where a chunk ends, so only `x` grows with the samples.  First, chunk by
    chunk, each Generator with a piece in the chunk fills it with its truth
    draws and the truth arithmetic runs once over the chunk; then, chunk by
    chunk, each fills its piece of `y` with its smearing draws, the
    smearing arithmetic runs once, and the chunk's pieces are yielded in
    order.  So each Generator makes, in order, the draws of one
    ``truth.sample`` and one ``smearing.apply`` call on its n values (a
    numpy Generator fills n values as n successive draws), and the values
    are those of `generate` from that Generator."""
    size, chunks, stop = y.size, [], 0
    for i, (rng, n) in enumerate(streams):
        a, stop = stop, stop + n
        while a < stop:
            if a % size == 0:
                chunks.append([])
            b = min(stop, a - a % size + size)
            chunks[-1].append((i, rng, a, b))
            a = b
    for c, chunk in enumerate(chunks):
        for _, rng, a, b in chunk:
            sc.truth._fill(rng, x[a:b])
        sc.truth._transform(x[c * size:chunk[-1][3]])
    for c, chunk in enumerate(chunks):
        c0, m = c * size, chunk[-1][3] - c * size
        for _, rng, a, b in chunk:
            sc.smearing._fill(rng, y[a - c0:b - c0])
        v = sc.smearing._smear(x[c0:c0 + m], y[:m], work[:m])
        for i, _, a, b in chunk:
            yield i, slice(a, b), v[a - c0:b - c0]


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
    pairs = np.empty((n_entries, 2), order="F")
    out, work = (np.empty(min(n_entries, _PAIR_BLOCK)) for _ in range(2))
    true_keys, meas_keys = (_closed_edges(a.edges, np.nan) for a in (true_axis, meas_axis))
    tc, mc = (np.zeros(k.size, dtype=np.intp) for k in (true_keys, meas_keys))
    for _, b, y in _draws(sc, [(rng, n_entries)], pairs[:, 0], out, work):
        pairs[b, 1] = y
        _tally(y, meas_keys, mc)
        y[...] = pairs[b, 0]  # the chunk buffer again, for a sortable copy of the truth
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


def _batches(sc: Scenario, seeds, share, poisson_total, capacity):
    """The experiments k of `share` as ``(k, rng, n)``, rng experiment k's
    Generator after the draw of its size n, in lists of consecutive
    experiments whose sizes sum to at most `capacity`; one larger
    experiment is a list of its own."""
    batch, total = [], 0
    for k in share:
        rng = np.random.default_rng(seeds[k])
        n = int(rng.poisson(sc.entries)) if poisson_total else sc.entries
        if batch and total + n > capacity:
            yield batch
            batch, total = [], 0
        batch.append((k, rng, n))
        total += n
    if batch:
        yield batch


def pseudo_experiments(sc: Scenario, n_experiments: int, R: ResponseMatrix,
                       policy: StoppingPolicy, poisson_total=True,
                       workers=1, seeds=None) -> EnsembleStats:
    """Ensemble of independently re-sampled measurements, unfolded at a
    common order.

    Experiment k uses seed ``sc.seed + k`` (or ``seeds[k]``, a whole number
    >= 0, when an explicit sequence is given).  The estimate at a fixed
    order is linear in the counts, ``f_N = B_N g``, so the ensemble's mean
    and covariance are ``B_N mean(g)`` and ``B_N cov(g) B_Nᵀ``: exactly
    what one :func:`~unfolder.unfold.run` on the mean counts, with their
    sample covariance as input covariance, returns.  The stopping policy is
    resolved in that run, so the order does not depend on which seed comes
    first, and no experiment is iterated on its own.  With `poisson_total`
    the sample size of each experiment fluctuates as Poisson(entries), a
    draw of 0 included, which makes the bin contents exactly independent
    Poisson variates; otherwise the total is fixed (multinomial bins).

    Experiment k's counts are row k of one ``(n_experiments, nbins)``
    matrix, and `workers` threads fill it (a whole number >= 1, clamped to
    the number of experiments and of CPUs): worker w takes the experiments
    ``w, w + workers, w + 2 * workers, ...`` as one task.  It draws
    consecutive experiments of its share whose sizes sum to at most
    ``_BATCH_BLOCKS * _PAIR_BLOCK`` values as one batch (see `_draws`): the
    models' arithmetic runs once per batch rather than once per experiment,
    so a worker makes far fewer numpy calls, each of which lets the other
    worker take the interpreter lock.  An experiment larger than a batch
    is drawn alone, in chunks.  The worker's three buffers (truth draws,
    smeared values, the smearing's work) are made once and reused: a batch
    each where two experiments of the scenario's `entries` fit one, else
    one block each, the truth buffer grown to the largest sample.  A row
    depends only on its seed, not on which worker drew it, what that worker
    drew before or which experiments share its batch, so results are
    bit-identical for any worker count.
    """
    # imported here: concurrent.futures costs a fresh interpreter ~20 ms
    from concurrent.futures import ThreadPoolExecutor
    from .unfold import run
    n_experiments = _whole_number("n_experiments", n_experiments, 2)
    n_workers = _worker_count(_whole_number("workers", workers, 1), n_experiments)
    if R.meas_axis != sc.meas_axis:
        raise DimensionError("response measured axis does not match the scenario")
    if seeds is None:
        seeds = range(sc.seed, sc.seed + n_experiments)
    elif len(seeds) != n_experiments:
        raise ValueError("seeds length must equal n_experiments")
    else:
        seeds = [_whole_number("seeds", s, 0) for s in seeds]

    keys = _closed_edges(sc.meas_axis.edges, np.nan)
    g_matrix = np.empty((n_experiments, sc.meas_axis.nbins))

    # a batch where two experiments fit one, else one block for the chunks
    # of each: the buffers follow the scenario's size, not the ensemble's
    capacity = _BATCH_BLOCKS * _PAIR_BLOCK
    size = capacity if 2 * sc.entries <= capacity else _PAIR_BLOCK

    def measure(share):
        # the draws of generate(); only the measured side is binned
        x, y, work = (np.empty(size) for _ in range(3))
        for batch in _batches(sc, seeds, share, poisson_total, size):
            total = sum(n for _, _, n in batch)
            if total > x.size:
                del x  # the old draws go before the larger buffer comes
                x = np.empty(total)
            ends = np.zeros((len(batch), keys.size), dtype=np.intp)
            for i, _, v in _draws(sc, [(rng, n) for _, rng, n in batch], x, y, work):
                _tally(v, keys, ends[i])
            # the bins; below and above dropped
            g_matrix[[k for k, _, _ in batch]] = np.diff(ends[:, :-1])

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
