"""Non-finite values are rejected where they enter the library."""

import json
import re
import warnings

import numpy as np
import pytest

import unfolder as uf
from unfolder import cli
from unfolder.histogram import MAX_BINS

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

    @pytest.mark.parametrize("edges", [[-1.7e308, 1.7e308],
                                       [-1e308, 1e308, 1.7e308]])
    def test_overflowing_width_rejected_without_warning(self, edges):
        # finite edges whose difference overflows float64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="widths must be finite"):
                uf.Axis(edges)
            with pytest.raises(ValueError, match="widths must be finite"):
                uf.Axis.from_dict({"edges": edges})

    @pytest.mark.filterwarnings("error")
    def test_uniform_refuses_an_overflowing_span_without_warning(self):
        # np.linspace warned twice and Axis then refused NaN edges
        with pytest.raises(ValueError, match="span from -1.7e[+]308 to 1.7e[+]308"):
            uf.Axis.uniform(-1.7e308, 1.7e308, 2)

    @pytest.mark.filterwarnings("error")
    def test_centers_finite_where_the_edge_sum_overflows(self):
        centers = uf.Axis([1e308, 1.7e308, 1.75e308]).centers
        assert centers.tolist() == [1.35e308, 1.725e308]
        # elsewhere the midpoint keeps its former rounding
        edges = [-10.0, -9.8, 0.1, 0.3, 7.0]
        assert uf.Axis(edges).centers.tolist() == [
            0.5 * (a + b) for a, b in zip(edges[:-1], edges[1:])]


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
        with pytest.raises(ValueError, match="k_factor must be a finite number"):
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


class TestPowerlawExponentNearOne:
    """An exponent so close to 1 that the largest draw, ``n*T *
    ((2**-53) ** (-1/(n-1)) - 1)``, overflows would put infinite energies
    in the sample; it is refused by name (ConfigError on the truth, CLI
    exit 2).  So are parameters whose power term is finite but whose
    product with n*T is not, naming the scale energy."""

    @staticmethod
    def largest(exponent, scale_energy=1.0):
        with np.errstate(over="ignore", invalid="ignore"):
            return (exponent * scale_energy
                    * (np.float64(2.0**-53) ** (-1.0 / (exponent - 1.0)) - 1.0))

    @pytest.mark.parametrize("exponent, scale_energy, name", [
        (1.01, 1.0, "exponent"), (1.05, 1.0, "exponent"), (1.0 + 1e-9, 1.0, "exponent"),
        (1.0000000000000002, 1.0, "exponent"),
        # a finite power term times an overflowing scale (inf), or times an
        # overflowing n*T when the power term rounds to zero (NaN)
        (3.0, 1e307, "scale_energy"), (1e200, 1e200, "scale_energy")])
    def test_refused_by_name(self, tmp_path, capsys, exponent, scale_energy, name):
        assert not np.isfinite(self.largest(exponent, scale_energy))
        with pytest.raises(uf.ParameterError, match="exponent") as exc:
            uf.PowerlawTruth(exponent, scale_energy)
        assert exc.value.name == name
        truth = {"type": "powerlaw_spectrum", "exponent": exponent,
                 "scale_energy": scale_energy}
        with pytest.raises(uf.ConfigError, match="exponent") as exc:
            uf.Scenario.from_dict(scenario_dict(truth, GAUSS_SMEARING))
        assert exc.value.field == "truth"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario_dict(truth, GAUSS_SMEARING)))
        assert cli.main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.endswith(" (field: truth)\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("exponent", [1.06, 1.5, 3.0, 1e6])
    def test_finite_largest_draw_is_kept(self, exponent):
        assert np.isfinite(self.largest(exponent))
        truth = uf.PowerlawTruth(exponent, 2.0)
        # the largest uniform draw a Generator gives, through sample's arithmetic
        top = truth._transform(np.array([1.0 - 2.0**-53]))
        assert np.isfinite(top[0]) and top[0] == self.largest(exponent, 2.0)
        assert np.all(np.isfinite(truth.sample(np.random.default_rng(0), 10_000)))


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

    def test_integral_float_entries_and_seed_are_read_as_int(self):
        d = scenario_dict(CAUCHY_TRUTH, GAUSS_SMEARING)
        d["entries"], d["seed"] = 20000.0, 7.0
        sc = uf.Scenario.from_dict(d)
        assert (sc.entries, sc.seed) == (20000, 7)
        assert type(sc.entries) is int and type(sc.seed) is int
        assert sc == uf.Scenario.from_dict({**d, "entries": 20000, "seed": 7})

    @pytest.mark.parametrize("change, match", [
        ({"seed": -1}, "seed"),
        ({"seed": 1.9}, "seed"),
        ({"seed": "1"}, "seed"),
        ({"seed": True}, "seed"),
        ({"seed": np.nan}, "seed"),
        ({"entries": 0}, "entries"),
        ({"entries": 2.5}, "entries"),
        ({"entries": "100"}, "entries"),
        ({"entries": True}, "entries"),
        ({"entries": np.inf}, "entries"),
        ({"rebin": (np.inf, 1)}, "extension_factor"),
        ({"rebin": (np.nan, 1)}, "extension_factor"),
        ({"rebin": (1.0, 0)}, "refine_factor"),
        ({"rebin": (1.0, 2.9)}, "refine_factor"),
        ({"rebin": (1.0, True)}, "refine_factor"),
        ({"rebin": (1e9, 1)}, "extension_factor"),
        ({"rebin": (1e300, 1)}, "extension_factor"),
        ({"rebin": (1.0, 10**9)}, "refine_factor")])
    def test_scenario_refuses(self, change, match):
        # a fraction, a string or a bool is refused by name, not truncated
        kwargs = {"truth": uf.CauchyTruth(), "smearing": uf.GaussianSmearing(1.0),
                  "entries": 10, "seed": 1, "meas_axis": AXIS, **change}
        with pytest.raises(ValueError, match=match):
            uf.Scenario(**kwargs)
        d = scenario_dict(CAUCHY_TRUTH, GAUSS_SMEARING)
        d["entries"] = kwargs["entries"]
        d["seed"] = kwargs["seed"]
        d["rebin"] = dict(zip(("extension_factor", "refine_factor"),
                              kwargs.get("rebin", (1.0, 1))))
        with pytest.raises(uf.ConfigError, match=match):
            uf.Scenario.from_dict(d)


class TestRebinCeiling:
    """rebin_axes makes at most MAX_BINS bins: a factor that would make more
    is refused by name before the axis is built."""

    AXIS_100 = uf.Axis.uniform(0.0, 1.0, 100)

    @pytest.mark.parametrize("factors", [(100.0, 1), (1.0, 100), (2.0, 50)])
    def test_ceiling_is_reached(self, factors):
        assert uf.rebin_axes(self.AXIS_100, *factors).nbins == MAX_BINS

    @pytest.mark.parametrize("factors, name", [
        ((100.01, 1), "extension_factor"),
        ((1e7, 1), "extension_factor"),
        ((1e300, 1), "extension_factor"),
        ((1.0, 101), "refine_factor"),
        ((2.0, 51), "refine_factor"),
        ((1.0, 10**30), "refine_factor")])
    def test_beyond_ceiling_refused_by_name(self, factors, name):
        with pytest.raises(uf.ParameterError, match=f"{name} would make") as exc:
            uf.rebin_axes(self.AXIS_100, *factors)
        assert exc.value.name == name

    def test_measured_axis_above_ceiling_is_kept(self):
        # the ceiling bounds the bins rebin_axes makes, not the input's
        axis = uf.Axis.uniform(0.0, 1.0, 2 * MAX_BINS)
        assert uf.rebin_axes(axis, 1.0, 1) == axis


def _ensemble(n_experiments):
    sc = uf.Scenario(truth=uf.CauchyTruth(), smearing=uf.GaussianSmearing(1.0),
                     entries=50, seed=1, meas_axis=AXIS)
    return uf.pseudo_experiments(sc, n_experiments, uf.ResponseMatrix(AXIS, AXIS, np.eye(3)),
                                 uf.StoppingPolicy.fixed(1), workers=1)


def _kernel_response(quad_points):
    return uf.ResponseMatrix.from_kernel(uf.GaussianSmearing(1.0).kernel(), AXIS, AXIS,
                                         quad_points=quad_points)


def _model(side, klass, kind, name, **params):
    """build, scenario change and field of one model parameter"""
    return (lambda v: klass(**{**params, name: v}),
            lambda v: {side: {"type": kind, **params, name: v}}, side)


# every entry point of a scalar count, order or factor: the parameter, the
# refused value below its range (None when it has no bound), whether it is
# a whole number, how to build with it, and for the scenario's fields the
# change to a scenario dict and the field a refusal names
NUMBER_RULE = [
    ("nbins", 0, True, lambda v: uf.Axis.uniform(-1.0, 1.0, v),
     lambda v: {"meas_axis": {"low": -1.0, "high": 1.0, "nbins": v}}, "meas_axis"),
    ("low", None, False, lambda v: uf.Axis.uniform(v, 1.0, 4),
     lambda v: {"meas_axis": {"low": v, "high": 1.0, "nbins": 4}}, "meas_axis"),
    ("high", None, False, lambda v: uf.Axis.uniform(-1.0, v, 4),
     lambda v: {"meas_axis": {"low": -1.0, "high": v, "nbins": 4}}, "meas_axis"),
    ("extension_factor", 0.5, False, lambda v: uf.rebin_axes(AXIS, v, 1),
     lambda v: {"rebin": {"extension_factor": v, "refine_factor": 1}},
     "rebin.extension_factor"),
    ("refine_factor", 0, True, lambda v: uf.rebin_axes(AXIS, 1.0, v),
     lambda v: {"rebin": {"extension_factor": 1.0, "refine_factor": v}},
     "rebin.refine_factor"),
    ("location", None, False, *_model("truth", uf.CauchyTruth, "cauchy", "location",
                                      scale=1.0)),
    ("scale", 0.0, False, *_model("truth", uf.CauchyTruth, "cauchy", "scale", location=0.0)),
    ("mean", None, False, *_model("truth", uf.GaussianTruth, "gaussian", "mean", sigma=1.0)),
    ("sigma", 0.0, False, *_model("truth", uf.GaussianTruth, "gaussian", "sigma", mean=0.0)),
    ("exponent", 1.0, False, *_model("truth", uf.PowerlawTruth, "powerlaw_spectrum",
                                     "exponent", scale_energy=1.0)),
    ("scale_energy", 0.0, False, *_model("truth", uf.PowerlawTruth, "powerlaw_spectrum",
                                         "scale_energy", exponent=3.0)),
    ("sigma", -0.5, False, *_model("smearing", uf.GaussianSmearing, "gaussian_convolution",
                                   "sigma")),
    ("stochastic_a", -0.1, False, *_model("smearing", uf.CalorimeterSmearing, "calorimeter",
                                          "stochastic_a", constant_b=0.05)),
    ("constant_b", -0.1, False, *_model("smearing", uf.CalorimeterSmearing, "calorimeter",
                                        "constant_b", stochastic_a=1.0)),
    ("entries", 0, True,
     lambda v: uf.Scenario(uf.CauchyTruth(), uf.GaussianSmearing(1.0), v, 1, AXIS),
     lambda v: {"entries": v}, "entries"),
    ("seed", -1, True,
     lambda v: uf.Scenario(uf.CauchyTruth(), uf.GaussianSmearing(1.0), 10, v, AXIS),
     lambda v: {"seed": v}, "seed"),
    ("order", -1, True, uf.StoppingPolicy.fixed, None, None),
    ("threshold", 0.0, False, uf.StoppingPolicy.stat_fraction, None, None),
    ("max_iterations", 0, True, lambda v: uf.StoppingPolicy.min_total(max_iterations=v),
     None, None),
    ("quad_points", 0, True, _kernel_response, None, None),
    ("k_override", None, False,
     lambda v: uf.ResponseMatrix(AXIS, AXIS, np.eye(3), k_override=v), None, None),
    ("n_experiments", 1, True, _ensemble, None, None),
]


def _bad_cases():
    for name, below, whole, build, config, field in NUMBER_RULE:
        bad = {"bool": True, "string": "3", "nan": np.nan, "inf": np.inf, "-inf": -np.inf}
        if whole:
            bad["fraction"] = 2.5
        if below is not None:
            bad["below"] = below
        for kind, value in bad.items():
            yield pytest.param(name, build, config, field, value,
                               id=f"{name}-{field or 'library'}-{kind}")


def _key(result):
    if isinstance(result, uf.ResponseMatrix):
        return result.matrix.tobytes(), result.k_factor
    return repr(result)


class TestOneNumberRule:
    """Every count, order and factor is checked once where it enters, by
    one rule: a bool, a string, a fraction where a whole number is due, a
    non-finite value or one below the range is refused with a ValueError
    that names the parameter (``ParameterError.name``), and a scenario
    names the field that holds it (ConfigError, CLI exit 2)."""

    @pytest.mark.parametrize("name, build, config, field, value", _bad_cases())
    def test_refused_by_name(self, name, build, config, field, value):
        with pytest.raises(ValueError, match=name) as exc:
            build(value)
        assert exc.value.name == name
        if config is not None:
            d = {**scenario_dict(CAUCHY_TRUTH, GAUSS_SMEARING), **config(value)}
            with pytest.raises(uf.ConfigError, match=name) as exc:
                uf.Scenario.from_dict(d)
            assert exc.value.field == field

    @pytest.mark.parametrize("name, build", [
        pytest.param(name, build, id=name)
        for name, _, whole, build, *_ in NUMBER_RULE if whole])
    def test_integral_float_is_read_as_int(self, name, build):
        assert _key(build(3.0)) == _key(build(3))

    def test_threshold_above_range(self):
        with pytest.raises(ValueError, match="threshold") as exc:
            uf.StoppingPolicy.stat_fraction(1.0)
        assert exc.value.name == "threshold"


def _scenario(**changes):
    return uf.Scenario(**{"truth": uf.CauchyTruth(), "smearing": uf.GaussianSmearing(1.0),
                          "entries": 50, "seed": 1, "meas_axis": AXIS, **changes})


OTHER_AXIS = uf.Axis.uniform(0.0, 6.0, 3)
TWO_BINS = uf.Axis.uniform(0.0, 2.0, 2)
IDENTITY = uf.ResponseMatrix(AXIS, AXIS, np.eye(3))
MEASURED = uf.Histogram(AXIS, [4.0, 9.0, 1.0], stat_err=[2.0, 3.0, 1.0])

# every refusal of a mismatched axis, shape or length, of an array entry
# that is not a finite number where no other test reaches it, of a seed that
# is not a whole number, and of a model outside the scenario's type tables:
# how to provoke it, the error and its message
REFUSALS = {
    "naive_invert-other-axis": (
        lambda: uf.naive_invert(IDENTITY, uf.Histogram(OTHER_AXIS, [1.0] * 3)),
        uf.DimensionError, "measured histogram is not on the response's measured axis"),
    "compute_k-1-d": (
        lambda: uf.compute_k([1.0, 2.0, 3.0]),
        uf.DimensionError, r"matrix must be 2-D, got shape \(3,\)"),
    "from_pairs-3-columns": (
        lambda: uf.ResponseMatrix.from_pairs(np.ones((4, 3)), AXIS, AXIS),
        uf.DimensionError, r"pairs must be an \(n, 2\) array, got shape \(4, 3\)"),
    "pseudo_experiments-other-axis": (
        lambda: uf.pseudo_experiments(_scenario(), 2, uf.ResponseMatrix(
            OTHER_AXIS, OTHER_AXIS, np.eye(3)), uf.StoppingPolicy.fixed(1)),
        uf.DimensionError, "response measured axis does not match the scenario"),
    "pseudo_experiments-seeds": (
        lambda: uf.pseudo_experiments(_scenario(), 3, IDENTITY, uf.StoppingPolicy.fixed(1),
                                      seeds=[1, 2]),
        ValueError, "seeds length must equal n_experiments"),
    "covariance_sqrt-2x3": (
        lambda: uf.covariance_sqrt(np.ones((2, 3))),
        uf.DecompositionError, r"covariance must be square, got shape \(2, 3\)"),
    "run-syst-length": (
        lambda: uf.run(IDENTITY, MEASURED, uf.StoppingPolicy.fixed(1), syst=[1.0, 2.0]),
        uf.DimensionError, "systematic offset length does not match the measured axis"),
    "from_counts-strings": (
        lambda: uf.Histogram.from_counts(TWO_BINS, ["4", "9"]),
        uf.ParameterError, r"counts must be an array of numbers \(got strings\)"),
    "from_counts-booleans": (
        lambda: uf.Histogram.from_counts(TWO_BINS, [True, False]),
        uf.ParameterError, r"counts must be an array of numbers \(got booleans\)"),
    "from_pairs-strings": (
        lambda: uf.ResponseMatrix.from_pairs([[0.5, "0.5"], [1.5, "1.5"]], AXIS, AXIS),
        uf.ParameterError, r"pairs must be an array of numbers \(got strings\)"),
    "compute_k-strings": (
        lambda: uf.compute_k([["0.5", "0"], ["0", "0.5"]]),
        uf.ParameterError, r"matrix must be an array of numbers \(got strings\)"),
    "init-syst-nan": (
        lambda: uf.init(IDENTITY, MEASURED, syst=[np.nan, 0.0, 0.0]),
        uf.ParameterError, "syst must be finite"),
    "init-covariance-inf": (
        lambda: uf.init(IDENTITY, MEASURED, covariance=np.diag([np.inf, 1.0, 1.0])),
        uf.ParameterError, "covariance must be finite"),
    "init-covariance-nan": (
        lambda: uf.init(IDENTITY, MEASURED, covariance=np.diag([np.nan, 1.0, 1.0])),
        uf.ParameterError, "covariance must be finite"),
    "syst_bound-nan": (
        lambda: uf.syst_bound(uf.init(IDENTITY, MEASURED), IDENTITY, [np.nan, 0.0, 0.0], 1.0),
        uf.ParameterError, "delta_g must be finite"),
    "pseudo_experiments-bool-seed": (
        lambda: uf.pseudo_experiments(_scenario(), 2, IDENTITY, uf.StoppingPolicy.fixed(1),
                                      seeds=[True, 2]),
        uf.ParameterError, "seeds must be a finite integer >= 0, got True"),
    "to_dict-smearing-as-truth": (
        lambda: _scenario(truth=uf.GaussianSmearing(1.0)).to_dict(),
        ValueError, r"unknown component GaussianSmearing\(sigma=1.0\)"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal(name):
    provoke, error, message = REFUSALS[name]
    with pytest.raises(error, match=message):
        provoke()


def _state():
    g = uf.Histogram(AXIS, [4.0, 9.0, 1.0], stat_err=[2.0, 3.0, 1.0])
    return uf.init(uf.ResponseMatrix(AXIS, AXIS, np.eye(3)), g)


def _syst_bound(v):
    return uf.syst_bound(_state(), uf.ResponseMatrix(AXIS, AXIS, np.eye(3)),
                         [1.0, 0.0, 0.0], v)


STRICTLY_POSITIVE = {"zero": 0.0, "negative zero": -0.0, "negative": -1.0,
                     "nan": np.nan, "inf": np.inf, "-inf": -np.inf,
                     "bool": True, "string": "1"}


class TestRemainingEntries:
    """The bin volume of the error terms, the harmonic number's index and
    the Gaussian kernel's width are refused by the one number rule."""

    @pytest.mark.parametrize("value", STRICTLY_POSITIVE.values(), ids=STRICTLY_POSITIVE)
    @pytest.mark.parametrize("build", [lambda v: uf.bias_bound(_state(), v), _syst_bound],
                             ids=["bias_bound", "syst_bound"])
    def test_bin_volume(self, build, value):
        with pytest.raises(uf.ParameterError, match="bin_volume") as exc:
            build(value)
        assert exc.value.name == "bin_volume"

    @pytest.mark.parametrize("value", STRICTLY_POSITIVE.values(), ids=STRICTLY_POSITIVE)
    def test_kernel_sigma(self, value):
        from unfolder.response import _gaussian_kernel
        with pytest.raises(uf.ParameterError, match="sigma") as exc:
            _gaussian_kernel(value)
        assert exc.value.name == "sigma"

    def test_zero_width_smearing_samples_but_has_no_kernel(self):
        smearing = uf.GaussianSmearing(0.0)
        x = np.array([1.0, -2.0])
        assert np.array_equal(smearing.apply(np.random.default_rng(1), x), x)
        with pytest.raises(uf.ParameterError, match="sigma"):
            smearing.kernel()

    @pytest.mark.parametrize("value", [2.7, -3, np.nan, np.inf, True, "2"])
    def test_harmonic_number_index(self, value):
        with pytest.raises(uf.ParameterError, match="m must") as exc:
            uf.harmonic_number(value)
        assert exc.value.name == "m"

    def test_harmonic_number_reads_integral_float(self):
        assert uf.harmonic_number(2.0) == uf.harmonic_number(2) == 1.5

    def test_scenario_stores_rebin_as_float_and_int(self):
        sc = uf.Scenario(uf.CauchyTruth(), uf.GaussianSmearing(1.0), 10, 1, AXIS,
                         rebin=(np.float32(2.0), 2.0))
        assert sc.rebin == (2.0, 2)
        assert [type(f) for f in sc.rebin] == [float, int]

    @pytest.mark.parametrize("build", [
        lambda v: uf.GaussianSmearing(v), lambda v: uf.Axis.uniform(-v, v, 4),
        lambda v: uf.StoppingPolicy.stat_fraction(v / 4)], ids=["model", "axis", "policy"])
    def test_float32_is_read_without_a_cast_warning(self, build):
        assert build(np.float32(0.5)) == build(0.5)


class TestForeignPolicyParameter:
    """A stopping rule refuses a parameter that only another rule reads."""

    @pytest.mark.parametrize("rule, name, value", [
        ("fixed", "threshold", 7.0),
        ("fixed", "threshold", 0.5),
        ("stat_fraction", "order", 3),
        ("min_total", "order", 5),
        ("min_total", "threshold", 0.1),
    ])
    def test_refused_by_name(self, rule, name, value):
        used = {"fixed": {"order": 2}, "stat_fraction": {"threshold": 0.1}}.get(rule, {})
        with pytest.raises(uf.ParameterError, match=name) as exc:
            uf.StoppingPolicy(rule, **used, **{name: value})
        assert exc.value.name == name

    def test_constructors_pass_none(self):
        assert uf.StoppingPolicy.fixed(2).threshold is None
        assert uf.StoppingPolicy.stat_fraction(0.1).order is None
        policy = uf.StoppingPolicy.min_total()
        assert (policy.order, policy.threshold) == (None, None)


class TestNonObjectScenarioEntries:
    """A model entry that is not an object, a type that is not a string and
    a scenario that is not an object are usage errors naming the field, not
    a TypeError; the CLI exits 2."""

    CASES = [({"truth": 5}, "truth", "truth must be a JSON object"),
             ({"smearing": [GAUSS_SMEARING]}, "smearing", "smearing must be a JSON object"),
             ({"truth": {**CAUCHY_TRUTH, "type": ["cauchy"]}}, "truth.type",
              "truth type must be a string"),
             ({"smearing": {**GAUSS_SMEARING, "type": 1}}, "smearing.type",
              "smearing type must be a string")]

    @pytest.mark.parametrize("change, field, message", CASES)
    def test_from_dict(self, change, field, message):
        d = {**scenario_dict(CAUCHY_TRUTH, GAUSS_SMEARING), **change}
        with pytest.raises(uf.ConfigError, match=message) as exc:
            uf.Scenario.from_dict(d)
        assert exc.value.field == field

    @pytest.mark.parametrize("value", [7, "scenario", None])
    def test_scenario_that_is_not_an_object(self, value):
        with pytest.raises(uf.ConfigError, match="scenario must be a JSON object"):
            uf.Scenario.from_dict(value)

    @pytest.mark.parametrize("change, field, message", CASES)
    def test_cli_exits_2(self, tmp_path, capsys, change, field, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**scenario_dict(CAUCHY_TRUTH, GAUSS_SMEARING), **change}))
        assert cli.main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert message in err and err.endswith(f" (field: {field})\n")
        assert not (tmp_path / "o").exists()

    def test_cli_exits_2_on_a_number(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("7")
        assert cli.main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "scenario must be a JSON object, got int" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestObjectForAnArray:
    """A JSON object (or another non-number) where an array of numbers
    belongs is a data error naming the field; the CLI exits 3."""

    H = uf.Histogram(AXIS, [1.0, 2.0, 0.0], stat_err=[1.0, 1.4, 0.0])

    @pytest.mark.parametrize("key, value, field", [
        ("contents", {"a": 1}, "contents"),
        ("stat_err", {"a": 1}, "stat_err"),
        ("syst_err", [[1.0], [2.0, 3.0], [4.0]], "syst_err"),
        ("axis", {"edges": {"a": 1}}, "edges"),
        ("axis", {"edges": [0.0, "one", 2.0, 3.0]}, "edges")])
    def test_histogram_from_dict(self, key, value, field):
        d = {**self.H.to_dict(), key: value}
        with pytest.raises(uf.ParameterError, match=f"{field} must be an array of numbers") as exc:
            uf.Histogram.from_dict(d)
        assert exc.value.name == field

    def test_response_matrix_from_dict(self):
        d = {**uf.ResponseMatrix(AXIS, AXIS, np.eye(3)).to_dict(), "matrix": {"a": 1}}
        with pytest.raises(uf.ParameterError, match="matrix must be an array of numbers"):
            uf.ResponseMatrix.from_dict(d)

    @pytest.mark.parametrize("name", ["contents", "stat_err"])
    def test_wrong_shape_is_named_with_its_shape(self, name):
        one = uf.Axis.uniform(0.0, 1.0, 1)
        with pytest.raises(uf.DimensionError,
                           match=fr"{name} has shape \(1, 1\), but 1 bins need shape \(1,\)"):
            uf.Histogram(one, [[1.0]] if name == "contents" else [1.0],
                         **({"stat_err": [[1.0]]} if name == "stat_err" else {}))

    @pytest.mark.parametrize("key, value, field", [
        ("contents", {"a": 1}, "contents"),
        ("axis", {"edges": {"a": 1}}, "edges")])
    def test_cli_fold_exits_3(self, tmp_path, capsys, key, value, field):
        truth, response = tmp_path / "truth.json", tmp_path / "R.json"
        truth.write_text(json.dumps({**self.H.to_dict(), key: value}))
        uf.ResponseMatrix(AXIS, AXIS, np.eye(3)).save_json(response)
        out = tmp_path / "folded.json"
        assert cli.main(["fold", "--truth", str(truth), "--response", str(response),
                         "--out", str(out)]) == 3
        assert f"{field} must be an array of numbers" in capsys.readouterr().err
        assert not out.exists()


class TestNumbersOnlyInArrays:
    """An array of numbers holds numbers: numeric strings, booleans and an
    integer beyond float64's range are refused naming the field (the CLI
    exits 3), and an integer numpy holds as an object still loads."""

    H = TestObjectForAnArray.H
    BAD = {"numeric strings": ["1.5", "2", "0"], "booleans": [True, True, True],
           "huge integer": [10**400, 2.0, 0.0]}
    R = uf.ResponseMatrix(AXIS, AXIS, np.eye(3))

    @pytest.mark.parametrize("case", sorted(BAD))
    @pytest.mark.parametrize("field", ["contents", "stat_err", "edges"])
    def test_histogram_from_dict(self, field, case):
        values = self.BAD[case]
        d = self.H.to_dict()
        if field == "edges":
            d["axis"] = {"edges": values + values[-1:]}  # 4 edges of 3 bins
        else:
            d[field] = values
        with pytest.raises(uf.ParameterError,
                           match=f"{field} must be an array of numbers") as exc:
            uf.Histogram.from_dict(d)
        assert exc.value.name == field

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_response_matrix_from_dict(self, case):
        d = {**self.R.to_dict(), "matrix": [self.BAD[case]] * 3}
        with pytest.raises(uf.ParameterError, match="matrix must be an array of numbers"):
            uf.ResponseMatrix.from_dict(d)

    def test_integers_held_as_objects_load(self):
        # numpy holds 10**20 as an object, and an int64 and a bool mixed
        # are cast as numbers
        d = {**self.H.to_dict(), "contents": [10**20, 1, 0], "stat_err": [1, True, 0]}
        h = uf.Histogram.from_dict(d)
        assert h.contents.tolist() == [1e20, 1.0, 0.0]
        assert h.stat_err.tolist() == [1.0, 1.0, 0.0]
        assert uf.Axis([0, 10**20]).edges.tolist() == [0.0, 1e20]

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_cli_unfold_exits_3(self, tmp_path, capsys, case):
        measured, response = tmp_path / "measured.json", tmp_path / "R.json"
        measured.write_text(json.dumps({**self.H.to_dict(), "contents": self.BAD[case]}))
        self.R.save_json(response)
        out = tmp_path / "result.json"
        assert cli.main(["unfold", "--measured", str(measured), "--response", str(response),
                         "--stop", "fixed=3", "--out", str(out)]) == 3
        assert "contents must be an array of numbers" in capsys.readouterr().err
        assert not out.exists()


H_DICT = uf.Histogram(AXIS, [1.0, 2.0, 0.0], stat_err=[1.0, 1.4, 0.0]).to_dict()
R_DICT = uf.ResponseMatrix(AXIS, AXIS, np.eye(3)).to_dict()
UNIFORM = {"low": 0.0, "high": 3.0, "nbins": 3}
S_DICT = {**scenario_dict(CAUCHY_TRUTH, GAUSS_SMEARING), "meas_axis": UNIFORM}
LOADERS = {"histogram": uf.Histogram, "response": uf.ResponseMatrix, "scenario": uf.Scenario}


def _without(d, path):
    """A deep copy of `d` without the key at the dotted `path`."""
    d = json.loads(json.dumps(d))
    *parents, key = path.split(".")
    inner = d
    for parent in parents:
        inner = inner[parent]
    del inner[key]
    return d


# (file kind, file, the key dropped by its path, the name refused, and for
# a scenario the ConfigError's field)
MISSING = ([("histogram", H_DICT, key, key, None) for key in ("axis", "contents")]
           + [("response", R_DICT, key, key, None)
              for key in ("true_axis", "meas_axis", "matrix")]
           + [("histogram", {**H_DICT, "axis": UNIFORM}, f"axis.{key}", f"axis.{key}", None)
              for key in ("low", "high", "nbins")]
           + [("scenario", S_DICT, key, key, key)
              for key in ("truth", "smearing", "entries", "seed", "meas_axis")]
           + [("scenario", S_DICT, path, path, path)
              for path in ("truth.type", "truth.location", "truth.scale", "smearing.type",
                           "smearing.sigma")]
           + [("scenario", S_DICT, "meas_axis.nbins", "axis.nbins", "meas_axis")])


class TestMissingFields:
    """A required key missing from a file is refused naming it by its path
    in the file (a ParameterError, a ConfigError naming the field for a
    scenario); the CLI exits 3 on a histogram or response, 2 on a scenario,
    and writes nothing."""

    @pytest.mark.parametrize("kind, d, path, name, field", [
        pytest.param(*case, id=f"{case[0]}-{case[2]}") for case in MISSING])
    def test_from_dict(self, kind, d, path, name, field):
        with pytest.raises(uf.ConfigError if field else uf.ParameterError,
                           match=f"missing field '{name}'") as exc:
            LOADERS[kind].from_dict(_without(d, path))
        assert (exc.value.field if field else exc.value.name) == (field or name)

    @pytest.mark.parametrize("kind, d, path, name, field", [
        pytest.param(*case, id=f"{case[0]}-{case[2]}") for case in MISSING])
    def test_cli(self, tmp_path, capsys, kind, d, path, name, field):
        bad, truth, response = (tmp_path / f for f in ("bad.json", "h.json", "R.json"))
        bad.write_text(json.dumps(_without(d, path)))
        truth.write_text(json.dumps(H_DICT))
        response.write_text(json.dumps(R_DICT))
        out = tmp_path / "out"
        argv = {"histogram": ["fold", "--truth", bad, "--response", response, "--out", out],
                "response": ["fold", "--truth", truth, "--response", bad, "--out", out],
                "scenario": ["simulate", bad, "--out", out]}[kind]
        assert cli.main([str(a) for a in argv]) == (2 if field else 3)
        err = capsys.readouterr().err
        assert f"missing field '{name}'" in err
        assert err.endswith(f" (field: {field})\n" if field else "\n")
        assert not out.exists()


class TestNotJson:
    """A file that is not UTF-8 JSON is refused naming its path: a scenario
    with a ConfigError (CLI exit 2), a histogram or response with a
    ValueError (CLI exit 3); nothing is written."""

    @pytest.fixture(params=[b'{"truth": {"type": ', b"\xff\xfe{}"], ids=["truncated", "not-utf8"])
    def path(self, request, tmp_path):
        path = tmp_path / "cut.json"
        path.write_bytes(request.param)
        return path

    def test_load_json(self, path):
        message = re.escape(f"{path} is not valid JSON")
        with pytest.raises(uf.ConfigError, match=message):
            uf.Scenario.load_json(path)
        for cls in (uf.Histogram, uf.ResponseMatrix):
            with pytest.raises(ValueError, match=message):
                cls.load_json(path)

    def test_cli(self, tmp_path, capsys, path):
        out = tmp_path / "out"
        assert cli.main(["simulate", str(path), "--out", str(out)]) == 2
        assert f"{path} is not valid JSON" in capsys.readouterr().err
        (tmp_path / "R.json").write_text(json.dumps(R_DICT))
        assert cli.main(["fold", "--truth", str(path), "--response", str(tmp_path / "R.json"),
                         "--out", str(out)]) == 3
        assert f"{path} is not valid JSON" in capsys.readouterr().err
        assert not out.exists()
