import concurrent.futures
import json
import math

import numpy as np
import pytest

import unfolder as uf
from unfolder import simulate
from unfolder.errors import ConfigError


def flat_scenario(**overrides):
    base = dict(
        truth=uf.GaussianTruth(0.0, 1.5),
        smearing=uf.GaussianSmearing(0.0),
        entries=4000,
        seed=555,
        meas_axis=uf.Axis.uniform(-4.0, 4.0, 16),
    )
    base.update(overrides)
    return uf.Scenario(**base)


class TestGenerate:
    def test_deterministic_for_fixed_seed(self, demo_scenario):
        a = uf.generate(demo_scenario)
        b = uf.generate(demo_scenario)
        np.testing.assert_array_equal(a.measured.contents, b.measured.contents)
        np.testing.assert_array_equal(a.pairs, b.pairs)

    def test_seed_changes_the_sample(self, demo_scenario):
        other = uf.Scenario(truth=demo_scenario.truth,
                            smearing=demo_scenario.smearing,
                            entries=demo_scenario.entries,
                            seed=demo_scenario.seed + 1,
                            meas_axis=demo_scenario.meas_axis)
        assert not np.array_equal(uf.generate(demo_scenario).pairs,
                                  uf.generate(other).pairs)

    def test_entries_accounting(self, demo_scenario):
        res = uf.generate(demo_scenario)
        n = demo_scenario.entries
        assert res.measured.total <= n
        assert res.measured.total + res.meas_underflow + res.meas_overflow == n
        assert res.truth_hist.total + res.truth_underflow + res.truth_overflow == n
        assert res.pairs.shape == (n, 2)

    def test_zero_smearing_measures_the_truth(self):
        res = uf.generate(flat_scenario())
        np.testing.assert_array_equal(res.measured.contents,
                                      res.truth_hist.contents)
        np.testing.assert_array_equal(res.pairs[:, 0], res.pairs[:, 1])

    def test_ideal_calorimeter_is_identity(self):
        sc = flat_scenario(truth=uf.PowerlawTruth(3.0, 1.0),
                           smearing=uf.CalorimeterSmearing(0.0, 0.0),
                           meas_axis=uf.Axis.uniform(0.0, 20.0, 20))
        res = uf.generate(sc)
        np.testing.assert_array_equal(res.pairs[:, 0], res.pairs[:, 1])

    def test_cauchy_median(self):
        sc = flat_scenario(truth=uf.CauchyTruth(0.0, 1.0), entries=5000, seed=31)
        x = uf.generate(sc).pairs[:, 0]
        # median standard error of a Cauchy sample: (pi/2) * scale / sqrt(n)
        assert abs(np.median(x)) < 3 * (math.pi / 2) / math.sqrt(5000)

    def test_rebin_builds_finer_truth_axis(self):
        sc = flat_scenario(rebin=(2.0, 2))
        res = uf.generate(sc)
        assert res.truth_hist.axis.nbins == 4 * sc.meas_axis.nbins
        assert res.truth_hist.axis.low == pytest.approx(-8.0)

    def test_smeared_sample_converges_to_folded_truth(self, demo_axis,
                                                      demo_response):
        truth_mass = np.diff(uf.CauchyTruth(0.0, 1.0).cdf(demo_axis.edges))
        target = demo_response.matrix @ truth_mass
        l1 = {}
        for n in (4000, 256000):
            sc = flat_scenario(truth=uf.CauchyTruth(0.0, 1.0),
                               smearing=uf.GaussianSmearing(1.0),
                               entries=n, seed=777, meas_axis=demo_axis)
            m = uf.generate(sc).measured
            l1[n] = np.abs(m.contents / n - target).sum()
        # 64x the sample should shrink L1 roughly 8x (root-n)
        assert l1[256000] < l1[4000] / 4


class TestTruthDistributions:
    def test_cdf_matches_samples(self):
        rng = np.random.default_rng(6)
        for dist, lo, hi in [(uf.CauchyTruth(1.0, 2.0), -20, 20),
                             (uf.GaussianTruth(0.5, 1.2), -5, 6),
                             (uf.PowerlawTruth(3.0, 1.0), 0, 30)]:
            x = dist.sample(rng, 200_000)
            for q in (lo + 0.25 * (hi - lo), lo + 0.5 * (hi - lo)):
                empirical = np.mean(x <= q)
                assert abs(empirical - float(dist.cdf(q))) < 0.01

    def test_powerlaw_support_and_tail(self):
        rng = np.random.default_rng(8)
        t = uf.PowerlawTruth(3.0, 1.0)
        x = t.sample(rng, 100_000)
        assert x.min() >= 0.0
        assert float(t.cdf(0.0)) == 0.0
        # tail index: P(X > s) = (1 + s/(n T))^(1-n)
        s = 10.0
        expect = (1 + s / 3.0) ** -2
        assert abs(np.mean(x > s) - expect) < 5 * math.sqrt(expect / 100_000)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            uf.CauchyTruth(0.0, 0.0)
        with pytest.raises(ValueError):
            uf.PowerlawTruth(1.0, 1.0)
        with pytest.raises(ValueError):
            uf.GaussianSmearing(-1.0)
        with pytest.raises(ValueError):
            uf.Scenario(truth=uf.CauchyTruth(), smearing=uf.GaussianSmearing(),
                        entries=0, seed=1, meas_axis=uf.Axis.uniform(0, 1, 2))


class TestPseudoExperiments:
    def test_identical_seeds_give_zero_variance(self):
        sc = flat_scenario()
        rm = uf.ResponseMatrix(sc.meas_axis, sc.meas_axis, np.eye(16))
        ens = uf.pseudo_experiments(sc, 2, rm, uf.StoppingPolicy.fixed(0),
                                    seeds=[9, 9])
        assert np.abs(ens.covariance).max() == 0.0

    def test_identity_response_reproduces_poisson_variance(self):
        sc = flat_scenario()
        rm = uf.ResponseMatrix(sc.meas_axis, sc.meas_axis, np.eye(16))
        ens = uf.pseudo_experiments(sc, 1000, rm, uf.StoppingPolicy.fixed(0))
        mu = sc.entries * np.diff(sc.truth.cdf(sc.meas_axis.edges))
        sel = mu > 50
        rel = np.abs(np.diag(ens.covariance)[sel] - mu[sel]) / mu[sel]
        assert sel.sum() >= 10
        assert rel.max() < 0.15

    def test_worker_env_var_is_ignored(self, monkeypatch):
        # without a workers argument the samples are drawn on one thread
        sc = flat_scenario(entries=500)
        rm = uf.ResponseMatrix(sc.meas_axis, sc.meas_axis, np.eye(16))
        a = uf.pseudo_experiments(sc, 6, rm, uf.StoppingPolicy.fixed(0))
        monkeypatch.setenv("UNFOLDER_THREADS", "3")
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 8)
        pools = []
        pool = concurrent.futures.ThreadPoolExecutor
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            lambda max_workers: pools.append(max_workers) or pool(max_workers))
        b = uf.pseudo_experiments(sc, 6, rm, uf.StoppingPolicy.fixed(0))
        assert pools == [1]
        np.testing.assert_array_equal(a.mean, b.mean)

    def test_worker_count_does_not_change_results(self):
        sc = flat_scenario(entries=500)
        rm = uf.ResponseMatrix(sc.meas_axis, sc.meas_axis, np.eye(16))
        a = uf.pseudo_experiments(sc, 8, rm, uf.StoppingPolicy.fixed(0), workers=1)
        b = uf.pseudo_experiments(sc, 8, rm, uf.StoppingPolicy.fixed(0), workers=4)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.covariance, b.covariance)

    @pytest.mark.parametrize("policy", [uf.StoppingPolicy.fixed(0),
                                        uf.StoppingPolicy.fixed(3),
                                        uf.StoppingPolicy.stat_fraction(0.05)])
    def test_poisson_total_of_zero_draws_no_event(self, policy):
        # the first Poisson(1) draw of each of these seeds is 0
        seeds = [s for s in range(100) if np.random.default_rng(s).poisson(1) == 0][:5]
        sc = flat_scenario(entries=1)
        rm = uf.ResponseMatrix(sc.meas_axis, sc.meas_axis, np.eye(16))
        ens = uf.pseudo_experiments(sc, len(seeds), rm, policy, seeds=seeds)
        assert len(seeds) == 5
        assert not ens.mean.any() and not ens.covariance.any()

    @pytest.mark.parametrize("entries", [1, 3])
    def test_total_is_poisson_at_small_entries(self, entries):
        # identity response: the total of f is the number of events in range,
        # Poisson with mean and variance lam
        sc = flat_scenario(entries=entries)
        rm = uf.ResponseMatrix(sc.meas_axis, sc.meas_axis, np.eye(16))
        n = 4000
        ens = uf.pseudo_experiments(sc, n, rm, uf.StoppingPolicy.fixed(0))
        lam = entries * float(np.diff(sc.truth.cdf(sc.meas_axis.edges[[0, -1]]))[0])
        assert abs(ens.mean.sum() - lam) < 4 * math.sqrt(lam / n)
        # the variance of a sample variance of Poisson(lam) is about
        # (lam + 2 lam^2) / n
        assert abs(ens.covariance.sum() - lam) < 4 * math.sqrt((lam + 2 * lam**2) / n)

    def test_needs_two_experiments(self):
        sc = flat_scenario()
        rm = uf.ResponseMatrix(sc.meas_axis, sc.meas_axis, np.eye(16))
        with pytest.raises(ValueError):
            uf.pseudo_experiments(sc, 1, rm, uf.StoppingPolicy.fixed(0))


class TestScenarioConfig:
    def test_roundtrip(self, tmp_path, demo_scenario):
        path = tmp_path / "sc.json"
        demo_scenario.save_json(path)
        back = uf.Scenario.load_json(path)
        assert back == demo_scenario
        np.testing.assert_array_equal(uf.generate(back).measured.contents,
                                      uf.generate(demo_scenario).measured.contents)

    def test_numpy_model_parameters_save_as_plain_numbers(self, tmp_path):
        # a model stores the checked value: numpy scalars used to reach
        # json.dumps and raise TypeError; Python numbers keep their bytes
        sc = flat_scenario(truth=uf.GaussianTruth(np.int64(0), np.float32(2.0)),
                           smearing=uf.GaussianSmearing(np.float64(0.5)))
        assert (type(sc.truth.mean), type(sc.truth.sigma)) == (int, float)
        path = tmp_path / "sc.json"
        sc.save_json(path)
        plain = flat_scenario(truth=uf.GaussianTruth(0, 2.0),
                              smearing=uf.GaussianSmearing(0.5))
        plain.save_json(tmp_path / "plain.json")
        assert path.read_bytes() == (tmp_path / "plain.json").read_bytes()
        assert b'"mean": 0,' in path.read_bytes()
        assert uf.Scenario.load_json(path) == sc

    def test_missing_field_is_named(self):
        good = flat_scenario().to_dict()
        for field in ("truth", "smearing", "entries", "seed", "meas_axis"):
            bad = {k: v for k, v in good.items() if k != field}
            with pytest.raises(ConfigError) as exc:
                uf.Scenario.from_dict(bad)
            assert field in str(exc.value)

    def test_unknown_truth_type(self):
        d = flat_scenario().to_dict()
        d["truth"]["type"] = "landau"
        with pytest.raises(ConfigError, match="landau"):
            uf.Scenario.from_dict(d)

    def test_bundled_configs_parse(self):
        from importlib import resources
        for name in ("cauchy-gauss.json", "calorimeter.json"):
            text = resources.files("unfolder").joinpath("configs", name).read_text()
            sc = uf.Scenario.from_dict(json.loads(text))
            assert sc.entries >= 5000


class TestScenarioComponents:
    """A component of the wrong kind is refused where it enters the Scenario,
    naming its field, not at the first draw."""

    @pytest.mark.parametrize("change, field", [
        ({"truth": uf.GaussianSmearing(1.0)}, "truth"),
        ({"truth": None}, "truth"),
        ({"smearing": uf.CauchyTruth()}, "smearing"),
        ({"smearing": {"type": "gaussian_convolution", "sigma": 1.0}}, "smearing")])
    def test_unknown_model_is_refused(self, change, field):
        with pytest.raises(uf.ParameterError, match="unknown component") as exc:
            flat_scenario(**change)
        assert exc.value.name == field

    @pytest.mark.parametrize("axis", ["0:1:3", [0.0, 1.0, 2.0], None])
    def test_meas_axis_must_be_an_axis(self, axis):
        with pytest.raises(uf.ParameterError) as exc:
            flat_scenario(meas_axis=axis)
        assert exc.value.name == "meas_axis"


class TestWorkersArgument:
    """`workers` is read by the scalar rule before any thread starts."""

    @pytest.mark.parametrize("workers", ["2", 2.5, True, None, 0, -3, math.inf])
    def test_refused(self, monkeypatch, workers):
        sc = flat_scenario(entries=50)
        rm = uf.ResponseMatrix(sc.meas_axis, sc.meas_axis, np.eye(16))
        pools = []
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            lambda max_workers: pools.append(max_workers))
        with pytest.raises(uf.ParameterError, match="workers must be a finite integer >= 1"):
            uf.pseudo_experiments(sc, 4, rm, uf.StoppingPolicy.fixed(0), workers=workers)
        assert pools == []

    def test_integral_float_is_read_as_its_integer(self):
        sc = flat_scenario(entries=50)
        rm = uf.ResponseMatrix(sc.meas_axis, sc.meas_axis, np.eye(16))
        a = uf.pseudo_experiments(sc, 4, rm, uf.StoppingPolicy.fixed(0), workers=2.0)
        b = uf.pseudo_experiments(sc, 4, rm, uf.StoppingPolicy.fixed(0), workers=2)
        assert a.mean.tobytes() == b.mean.tobytes()
