"""The samplers and the measured-only path of pseudo_experiments are pinned
bit for bit to the plain expressions and to generate()."""

import inspect
import json
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import unfolder as uf
from unfolder import simulate

SEEDS = (0, 1, 66002, 2**32 - 1)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("location,scale", [(0.0, 1.0), (-2.5, 0.3), (1, 2)])
def test_cauchy_sample_matches_expression(seed, location, scale):
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = uf.CauchyTruth(location, scale).sample(rng_a, 5000)
    u = rng_b.random(5000)
    want = location + scale * np.tan(np.pi * (u - 0.5))
    assert bits(got) == bits(want)
    assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("exponent,scale_energy",
                         [(3.0, 1.0), (2.0, 0.5), (1.5, 4.0), (5, 2)])
def test_powerlaw_sample_matches_expression(seed, exponent, scale_energy):
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = uf.PowerlawTruth(exponent, scale_energy).sample(rng_a, 5000)
    u = rng_b.random(5000)
    nt = exponent * scale_energy
    want = nt * ((1.0 - u) ** (-1.0 / (exponent - 1.0)) - 1.0)
    assert bits(got) == bits(want)
    assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("a,b", [(1.15, 0.055), (0.0, 0.1), (2.0, 0.0),
                                 (1.0, 3.0)])
def test_calorimeter_apply_matches_expression(seed, a, b):
    x = uf.PowerlawTruth(3.0, 1.0).sample(np.random.default_rng(seed + 1), 5000)
    x[:4] = [0.0, -0.0, np.nan, 1e-300]
    x[4:100] *= -1.0
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = uf.CalorimeterSmearing(a, b).apply(rng_a, x)
    positive = x > 0
    rel = np.sqrt(np.where(positive, a * a / np.where(positive, x, 1.0), 0.0)
                  + b * b)
    y = x * (1.0 + rel * rng_b.normal(0.0, 1.0, x.size))
    want = np.maximum(np.where(positive, y, x), 0.0)
    assert bits(got) == bits(want)
    assert rng_a.random() == rng_b.random()


def calorimeter_reference(a, b, x, z):
    """The calorimeter smearing as masked operations: the resolution term
    divided only where x > 0, and the values that are not positive copied
    back."""
    positive = x > 0
    rel = np.zeros(x.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # a subnormal or huge x > 0
        np.divide(a * a, x, out=rel, where=positive)
        rel += b * b
        np.sqrt(rel, out=rel)
        y = z * rel
        y += 1.0
        y *= x
    np.copyto(y, x, where=~positive)
    return np.maximum(y, 0.0, out=y)


VALUE = st.one_of(st.sampled_from([0.0, -0.0, -5e-324, 5e-324, np.nan, np.inf, -np.inf]),
                  st.floats())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(x=st.lists(VALUE, max_size=40), a=st.sampled_from([0.0, 1.15, 2.0]),
       b=st.sampled_from([0.0, 0.055, 3.0]), seed=st.integers(0, 2**32 - 1))
def test_calorimeter_apply_is_the_masked_expression(x, a, b, seed):
    x = np.array(x, dtype=np.float64)
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    smearing = uf.CalorimeterSmearing(a, b)
    got = smearing.apply(rng_a, x)
    want = x.copy() if a == b == 0 else calorimeter_reference(a, b, x, rng_b.standard_normal(x.size))
    assert bits(got) == bits(want)
    assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize("seed", SEEDS)
def test_gaussian_apply_matches_expression(seed):
    x = uf.CauchyTruth().sample(np.random.default_rng(seed + 1), 5000)
    x[:2] = [0.0, -0.0]
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = uf.GaussianSmearing(0.7).apply(rng_a, x)
    want = x + rng_b.normal(0.0, 0.7, x.size)
    assert bits(got) == bits(want)
    assert rng_a.random() == rng_b.random()


FINITE, WIDTH = st.floats(-1e3, 1e3), st.floats(1e-3, 1e3)
TRUTH = st.one_of(st.builds(uf.CauchyTruth, FINITE, WIDTH),
                  st.builds(uf.GaussianTruth, FINITE, WIDTH),
                  st.builds(uf.PowerlawTruth, st.floats(1.5, 10.0), WIDTH))
SMEARING = st.one_of(st.builds(uf.GaussianSmearing, st.floats(0.0, 10.0)),
                     st.builds(uf.CalorimeterSmearing, st.floats(0.0, 5.0), st.floats(0.0, 1.0)),
                     st.just(uf.GaussianSmearing(0.0)), st.just(uf.CalorimeterSmearing(0.0, 0.0)))


@settings(max_examples=200, deadline=None)
@given(truth=TRUTH, smearing=SMEARING, n=st.integers(0, 300),
       seed=st.integers(0, 2**32 - 1), strided=st.booleans())
def test_out_gives_the_same_bytes_and_next_draw(truth, smearing, n, seed, strided):
    # `out` is the start of a longer buffer holding stale values, as a
    # worker's reused buffer does; the smeared values may come from a
    # column of the pairs, as in generate()
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    buffer = np.full(n + 3, np.nan)
    out = buffer[:n]
    x = truth.sample(rng_a, n)
    got = truth.sample(rng_b, n, out=out)
    assert got is out and bits(out) == bits(x)
    y = smearing.apply(rng_a, x)
    pairs = np.column_stack([x, np.full(n, -1.0)])
    source = pairs[:, 0] if strided else x.copy()
    buffer[:] = -7.5
    got = smearing.apply(rng_b, source, out=out)
    assert got is out and bits(out) == bits(y)
    assert bits(source) == bits(x) and bits(buffer[n:]) == bits(np.full(3, -7.5))
    assert rng_a.random() == rng_b.random()


BUNDLED = {name: uf.Scenario.from_dict(json.loads(
    resources.files("unfolder").joinpath("configs", name + ".json").read_text()))
    for name in ("cauchy-gauss", "calorimeter")}


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(BUNDLED)),
       entries=st.integers(1, 5000),
       seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=5))
def test_ensemble_mean_equals_generate(name, entries, seeds):
    # identity response: K = 1 and f = g, so the ensemble mean is the
    # plain mean of generate()'s measured contents
    sc = replace(BUNDLED[name], entries=entries)
    axis = sc.meas_axis
    rm = uf.ResponseMatrix(axis, axis, np.eye(axis.nbins))
    ens = uf.pseudo_experiments(sc, len(seeds), rm, uf.StoppingPolicy.fixed(0),
                                poisson_total=False, seeds=seeds)
    measured = [uf.generate(replace(sc, seed=s)).measured.contents for s in seeds]
    assert bits(ens.mean) == bits(np.mean(np.stack(measured), axis=0))


class TestWorkerCount:
    @pytest.fixture(autouse=True)
    def eight_cpus(self, monkeypatch):
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 8)
        monkeypatch.delenv("UNFOLDER_THREADS", raising=False)

    def test_argument_is_clamped(self):
        assert simulate._worker_count(10**6, 1000) == 8
        assert simulate._worker_count(10**6, 3) == 3
        assert simulate._worker_count(5, 1000) == 5
        assert simulate._worker_count(0, 1000) == 1
        assert simulate._worker_count(-7, 1000) == 1

    def test_environment_is_ignored(self, monkeypatch):
        # the workers argument is the only thread setting; its default is 1
        default = inspect.signature(uf.pseudo_experiments).parameters["workers"].default
        monkeypatch.setenv("UNFOLDER_THREADS", str(10**6))
        assert simulate._worker_count(default, 1000) == 1

    def test_argument_overrides_environment(self, monkeypatch):
        monkeypatch.setenv("UNFOLDER_THREADS", "6")
        assert simulate._worker_count(3, 1000) == 3

    def test_unknown_cpu_count_means_one(self, monkeypatch):
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: None)
        assert simulate._worker_count(10**6, 1000) == 1
