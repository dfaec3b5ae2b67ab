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


class TestJsonWriters:
    def test_scenario_with_nan_parameter_is_not_written(self, tmp_path):
        sc = uf.Scenario(truth=uf.GaussianTruth(float("nan"), 1.0),
                         smearing=uf.GaussianSmearing(1.0), entries=10,
                         seed=1, meas_axis=AXIS)
        with pytest.raises(ValueError):
            sc.save_json(tmp_path / "sc.json")

    def test_finite_bytes_unchanged(self, tmp_path):
        h = uf.Histogram(AXIS, [1.0, 0.1, 1e-300], stat_err=[1.0, 0.5, 0.0],
                         syst_err=[0.0, 2.0, 3.0])
        h.save_json(tmp_path / "h.json")
        assert (tmp_path / "h.json").read_text() == \
            json.dumps(h.to_dict(), indent=1) + "\n"
        rm = uf.ResponseMatrix(AXIS, AXIS, np.eye(3) / 3)
        rm.save_json(tmp_path / "R.json")
        assert (tmp_path / "R.json").read_text() == json.dumps(rm.to_dict()) + "\n"
