"""Non-finite values are rejected where they enter the library."""

import json

import numpy as np
import pytest

import unfolder as uf

AXIS = uf.Axis.uniform(0.0, 3.0, 3)


class TestAxis:
    @pytest.mark.parametrize("edges", [[0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0],
                                       [0.0, np.nan, 1.0], [np.inf, np.inf]])
    def test_non_finite_edge_rejected(self, edges):
        with pytest.raises(ValueError, match="finite"):
            uf.Axis(edges)

    def test_from_dict_rejects_infinite_edge(self):
        with pytest.raises(ValueError, match="finite"):
            uf.Axis.from_dict({"edges": [0.0, 1.0, float("inf")]})


class TestHistogram:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_contents_rejected(self, bad):
        with pytest.raises(ValueError, match="contents must be finite"):
            uf.Histogram(AXIS, [1.0, bad, 2.0])
        with pytest.raises(ValueError, match="contents must be finite"):
            uf.Histogram(AXIS, [1.0, bad, 2.0], unfolded=True)

    @pytest.mark.parametrize("name", ["stat_err", "syst_err"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_errors_rejected(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            uf.Histogram(AXIS, [1.0, 2.0, 3.0], **{name: [0.1, bad, 0.1]})

    def test_from_counts_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            uf.Histogram.from_counts(AXIS, [1.0, np.nan, 2.0])

    def test_from_dict_rejects_nan_token(self):
        d = json.loads('{"axis": {"edges": [0, 1, 2, 3]}, '
                       '"contents": [1.0, NaN, 2.0], "kind": "counts"}')
        with pytest.raises(ValueError, match="finite"):
            uf.Histogram.from_dict(d)


class TestResponse:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, bad):
        m = np.eye(3) * 0.5
        m[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            uf.ResponseMatrix(AXIS, AXIS, m)

    def test_compute_k_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            uf.compute_k([[0.5, np.nan], [0.1, 0.2]])

    def test_from_dict_rejects_nan(self):
        d = uf.ResponseMatrix(AXIS, AXIS, np.eye(3)).to_dict()
        d["matrix"][0][0] = float("nan")
        with pytest.raises(ValueError, match="finite"):
            uf.ResponseMatrix.from_dict(d)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "2.0"])
    def test_k_override_must_be_a_finite_number(self, bad):
        with pytest.raises(ValueError, match="k_override must be a finite number"):
            uf.ResponseMatrix(AXIS, AXIS, np.eye(3) / 3, k_override=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_from_dict_rejects_non_finite_k_factor(self, bad):
        # a stored NaN was ignored and an infinite K unfolded to zeros
        d = uf.ResponseMatrix(AXIS, AXIS, np.eye(3) / 3).to_dict()
        d["k_factor"] = bad
        with pytest.raises(ValueError, match="k_override must be a finite number"):
            uf.ResponseMatrix.from_dict(d)

    def test_from_dict_drops_a_smaller_finite_k_factor(self):
        d = uf.ResponseMatrix(AXIS, AXIS, np.eye(3) / 3).to_dict()
        d["k_factor"] = 0.01
        assert uf.ResponseMatrix.from_dict(d).k_factor == uf.compute_k(np.eye(3) / 3)


class TestJsonWriters:
    def test_scenario_with_nan_parameter_is_not_written(self, tmp_path):
        # the model refuses the NaN when it is built, so no such scenario
        # reaches save_json
        with pytest.raises(ValueError, match="finite"):
            sc = uf.Scenario(truth=uf.GaussianTruth(float("nan"), 1.0),
                             smearing=uf.GaussianSmearing(1.0), entries=10,
                             seed=1, meas_axis=AXIS)
            sc.save_json(tmp_path / "sc.json")
        assert not (tmp_path / "sc.json").exists()

    def test_finite_bytes_unchanged(self, tmp_path):
        h = uf.Histogram(AXIS, [1.0, 0.1, 1e-300], stat_err=[1.0, 0.5, 0.0],
                         syst_err=[0.0, 2.0, 3.0])
        h.save_json(tmp_path / "h.json")
        assert (tmp_path / "h.json").read_text() == \
            json.dumps(h.to_dict(), indent=1) + "\n"
        rm = uf.ResponseMatrix(AXIS, AXIS, np.eye(3) / 3)
        rm.save_json(tmp_path / "R.json")
        assert (tmp_path / "R.json").read_text() == json.dumps(rm.to_dict()) + "\n"


def scenario_dict(truth, smearing):
    return {"truth": truth, "smearing": smearing, "entries": 100, "seed": 1,
            "meas_axis": AXIS.to_dict()}


GAUSS_SMEARING = {"type": "gaussian_convolution", "sigma": 1.0}
CAUCHY_TRUTH = {"type": "cauchy", "location": 0.0, "scale": 1.0}


class TestNonFiniteScenarioParameters:
    """A NaN or infinite model parameter would make every drawn value NaN;
    it is refused when the model is built (ValueError), and so by
    Scenario.from_dict (ConfigError, CLI exit 2)."""

    def check(self, build, table_entry, side):
        truth, smearing = ((table_entry, GAUSS_SMEARING) if side == "truth"
                           else (CAUCHY_TRUTH, table_entry))
        with pytest.raises(uf.ConfigError, match="finite") as exc:
            uf.Scenario.from_dict(scenario_dict(truth, smearing))
        assert exc.value.field == side
        with pytest.raises(ValueError, match="finite"):
            build()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_gaussian_truth(self, bad):
        self.check(lambda: uf.GaussianTruth(mean=bad),
                   {"type": "gaussian", "mean": bad, "sigma": 1.0}, "truth")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_cauchy_truth(self, bad):
        self.check(lambda: uf.CauchyTruth(scale=bad),
                   {"type": "cauchy", "location": 0.0, "scale": bad}, "truth")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_powerlaw_truth(self, bad):
        self.check(lambda: uf.PowerlawTruth(exponent=bad),
                   {"type": "powerlaw_spectrum", "exponent": bad,
                    "scale_energy": 1.0}, "truth")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_gaussian_smearing(self, bad):
        self.check(lambda: uf.GaussianSmearing(bad),
                   {"type": "gaussian_convolution", "sigma": bad}, "smearing")

    @pytest.mark.parametrize("a, b", [(np.inf, 0.0), (0.0, np.nan),
                                      (np.nan, 0.05)])
    def test_calorimeter_smearing(self, a, b):
        self.check(lambda: uf.CalorimeterSmearing(a, b),
                   {"type": "calorimeter", "stochastic_a": a, "constant_b": b},
                   "smearing")

    def test_finite_parameters_draw_as_before(self):
        sc = uf.Scenario.from_dict(scenario_dict(
            {"type": "gaussian", "mean": 1.5, "sigma": 0.5},
            {"type": "calorimeter", "stochastic_a": 0.5, "constant_b": 0.01}))
        assert np.isfinite(uf.generate(sc).pairs).all()


class TestScenarioRanges:
    """A non-finite extension factor overflowed (inf) or was ignored (NaN),
    and a negative seed failed inside numpy; each is refused when the
    scenario is built (ValueError), and so by Scenario.from_dict
    (ConfigError, CLI exit 2)."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.5])
    def test_rebin_axes_refuses_extension(self, bad):
        with pytest.raises(ValueError, match="extension_factor"):
            uf.rebin_axes(uf.Axis.uniform(-1.0, 1.0, 4), bad, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0, 0.5, 2.9])
    def test_rebin_axes_refuses_refinement(self, bad):
        # refused by name before int() can raise its own conversion errors
        with pytest.raises(ValueError, match="refine_factor"):
            uf.rebin_axes(uf.Axis.uniform(-1.0, 1.0, 4), 1.0, bad)
        with pytest.raises(ValueError, match="refine_factor"):
            uf.Scenario(truth=uf.CauchyTruth(), smearing=uf.GaussianSmearing(1.0),
                        entries=10, seed=1, meas_axis=AXIS, rebin=(1.0, bad))

    def test_integral_float_refine_factor_is_read_as_int(self):
        d = scenario_dict(CAUCHY_TRUTH, GAUSS_SMEARING)
        d["rebin"] = {"extension_factor": 1.0, "refine_factor": 2.0}
        assert uf.Scenario.from_dict(d).rebin == (1.0, 2)
        assert uf.rebin_axes(AXIS, 1.0, 2.0) == uf.rebin_axes(AXIS, 1.0, 2)

    @pytest.mark.parametrize("change, match", [
        ({"seed": -1}, "seed"),
        ({"rebin": (np.inf, 1)}, "extension_factor"),
        ({"rebin": (np.nan, 1)}, "extension_factor"),
        ({"rebin": (1.0, 0)}, "refine_factor"),
        ({"rebin": (1.0, 2.9)}, "refine_factor")])
    def test_scenario_refuses(self, change, match):
        kwargs = {"truth": uf.CauchyTruth(), "smearing": uf.GaussianSmearing(1.0),
                  "entries": 10, "seed": 1, "meas_axis": AXIS, **change}
        with pytest.raises(ValueError, match=match):
            uf.Scenario(**kwargs)
        d = scenario_dict(CAUCHY_TRUTH, GAUSS_SMEARING)
        d["seed"] = kwargs["seed"]
        d["rebin"] = dict(zip(("extension_factor", "refine_factor"),
                              kwargs.get("rebin", (1.0, 1))))
        with pytest.raises(uf.ConfigError, match=match):
            uf.Scenario.from_dict(d)
