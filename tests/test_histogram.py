import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import unfolder as uf
from unfolder.errors import DimensionError
from unfolder.histogram import KINDS


class TestAxis:
    def test_uniform_construction(self):
        ax = uf.Axis.uniform(0.0, 2.0, 4)
        np.testing.assert_allclose(ax.edges, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert ax.nbins == 4
        assert ax.low == 0.0 and ax.high == 2.0
        np.testing.assert_allclose(ax.widths, 0.5)
        np.testing.assert_allclose(ax.centers, [0.25, 0.75, 1.25, 1.75])

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            uf.Axis([0.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            uf.Axis([0.0, -1.0])
        with pytest.raises(ValueError):
            uf.Axis([0.0])

    def test_edges_are_immutable(self):
        ax = uf.Axis([0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            ax.edges[0] = -1.0

    def test_equality_and_dict_roundtrip(self):
        ax = uf.Axis([0.0, 0.3, 1.7])
        assert ax == uf.Axis.from_dict(ax.to_dict())
        assert uf.Axis.from_dict({"low": 0, "high": 1, "nbins": 2}) == \
            uf.Axis([0.0, 0.5, 1.0])
        assert ax != uf.Axis([0.0, 0.3, 1.8])


class TestFromCounts:
    def test_poisson_errors(self):
        h = uf.Histogram.from_counts(uf.Axis.uniform(0, 3, 3), [4, 9, 0])
        np.testing.assert_array_equal(h.contents, [4, 9, 0])
        np.testing.assert_array_equal(h.stat_err, [2, 3, 0])
        assert h.kind == "counts"

    def test_negative_zero_count_has_positive_zero_error(self):
        h = uf.Histogram.from_counts(uf.Axis.uniform(0, 2, 2), [-0.0, 0.0])
        assert not np.any(np.signbit(h.stat_err))

    def test_total_preserved(self):
        rng = np.random.default_rng(3)
        counts = rng.poisson(7.0, 40)
        h = uf.Histogram.from_counts(uf.Axis.uniform(0, 1, 40), counts)
        assert h.total == counts.sum()

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            uf.Histogram.from_counts(uf.Axis.uniform(0, 1, 2), [1, -1])

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            uf.Histogram.from_counts(uf.Axis.uniform(0, 1, 2), [1, 2, 3])

    @pytest.mark.parametrize("counts", [[[1, 2, 3]], [1, 2], 5])
    def test_wrong_shape_is_named_counts(self, counts):
        shape = np.shape(counts)
        with pytest.raises(DimensionError, match=fr"counts has shape {re.escape(str(shape))}"):
            uf.Histogram.from_counts(uf.Axis.uniform(0, 3, 3), counts)


class TestHistogramValidation:
    def test_negative_content_needs_unfolded_flag(self):
        ax = uf.Axis.uniform(0, 1, 2)
        with pytest.raises(ValueError):
            uf.Histogram(ax, [1.0, -0.5])
        h = uf.Histogram(ax, [1.0, -0.5], unfolded=True)
        assert h.unfolded

    def test_negative_errors_rejected(self):
        ax = uf.Axis.uniform(0, 1, 2)
        with pytest.raises(ValueError):
            uf.Histogram(ax, [1.0, 1.0], stat_err=[0.1, -0.1])

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            uf.Histogram(uf.Axis.uniform(0, 1, 1), [1.0], kind="weights")

    def test_density_kind_is_refused(self):
        # every operation reads contents as per-bin shares; a density would
        # be folded, unfolded and summed as if it were one
        ax = uf.Axis.uniform(0, 1, 1)
        message = r"kind must be one of \('counts', 'mass'\), got 'density'"
        with pytest.raises(ValueError, match=message):
            uf.Histogram(ax, [1.0], kind="density")
        with pytest.raises(ValueError, match=message):
            uf.Histogram.from_dict({**uf.Histogram(ax, [1.0]).to_dict(), "kind": "density"})

    @pytest.mark.parametrize("flag", ["false", "true", "", 0, 1, 0.0, None, [False]])
    def test_unfolded_flag_must_be_a_bool(self, flag):
        # a non-empty string used to read as True and let negative content in
        d = {"axis": {"edges": [0, 1, 2]}, "contents": [-1.0, 2.0], "unfolded": flag}
        with pytest.raises(ValueError, match="unfolded must be true or false"):
            uf.Histogram.from_dict(d)
        with pytest.raises(ValueError, match="unfolded must be true or false"):
            uf.Histogram(uf.Axis([0, 1, 2]), [1.0, 2.0], unfolded=flag)

    @pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
    def test_unfolded_flag_is_stored_as_a_python_bool(self, flag):
        h = uf.Histogram(uf.Axis([0, 1, 2]), [1.0, 2.0], unfolded=flag)
        assert type(h.unfolded) is bool and h.unfolded == flag


class TestL1Distance:
    def test_examples(self):
        ax = uf.Axis.uniform(0, 1, 2)
        a = uf.Histogram(ax, [1.0, 0.0])
        b = uf.Histogram(ax, [0.0, 1.0])
        assert uf.l1_distance(a, a) == 0.0
        assert uf.l1_distance(a, b) == 2.0
        c = uf.Histogram(ax, [0.2, 0.8])
        d = uf.Histogram(ax, [0.5, 0.5])
        assert abs(uf.l1_distance(c, d) - 0.6) < 1e-15

    def test_metric_properties(self):
        rng = np.random.default_rng(5)
        ax = uf.Axis.uniform(0, 1, 6)
        for _ in range(50):
            a, b, c = (uf.Histogram(ax, rng.uniform(0, 1, 6)) for _ in range(3))
            dab = uf.l1_distance(a, b)
            assert dab == uf.l1_distance(b, a)
            assert dab <= uf.l1_distance(a, c) + uf.l1_distance(c, b) + 1e-12
            assert dab >= 0.0
        assert uf.l1_distance(a, a) == 0.0

    def test_axis_mismatch(self):
        a = uf.Histogram(uf.Axis.uniform(0, 1, 2), [1.0, 0.0])
        b = uf.Histogram(uf.Axis.uniform(0, 2, 2), [1.0, 0.0])
        with pytest.raises(DimensionError):
            uf.l1_distance(a, b)


class TestRebinAxes:
    def test_identity_is_exact(self):
        ax = uf.Axis([0.0, 1.0, 2.0])
        out = uf.rebin_axes(ax, 1.0, 1)
        np.testing.assert_array_equal(out.edges, ax.edges)
        # also exact for a non-uniform axis
        ax2 = uf.Axis([0.0, 0.1, 0.45, 2.0])
        np.testing.assert_array_equal(uf.rebin_axes(ax2, 1, 1).edges, ax2.edges)

    def test_refine_only(self):
        out = uf.rebin_axes(uf.Axis([0.0, 1.0, 2.0]), 1.0, 2)
        np.testing.assert_allclose(out.edges, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_extend_and_refine(self):
        # span 2 extended to span 4 centered on [0, 2], unit-wide bins
        out = uf.rebin_axes(uf.Axis([0.0, 2.0]), 2.0, 2)
        np.testing.assert_allclose(out.edges, [-1.0, 0.0, 1.0, 2.0, 3.0])

    def test_preconditions(self):
        ax = uf.Axis([0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            uf.rebin_axes(ax, 0.5, 1)
        with pytest.raises(ValueError):
            uf.rebin_axes(ax, 1.0, 0)
        with pytest.raises(ValueError):
            uf.rebin_axes(uf.Axis([0.0, 0.5, 2.0]), 2.0, 1)


class TestSerialization:
    def test_json_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        h = uf.Histogram(uf.Axis.uniform(-3, 3, 12), rng.uniform(0, 1, 12),
                         stat_err=rng.uniform(0, 0.1, 12),
                         syst_err=rng.uniform(0, 0.05, 12),
                         kind="mass", unfolded=True)
        path = tmp_path / "h.json"
        h.save_json(path)
        back = uf.Histogram.load_json(path)
        np.testing.assert_array_equal(back.contents, h.contents)
        np.testing.assert_array_equal(back.stat_err, h.stat_err)
        np.testing.assert_array_equal(back.syst_err, h.syst_err)
        assert back.axis == h.axis
        assert back.kind == "mass" and back.unfolded

    @given(data=st.data(), kind=st.sampled_from(KINDS),
           unfolded=st.booleans(), n=st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_json_roundtrip_property(self, tmp_path_factory, data, kind, unfolded, n):
        # any edges with finite widths, contents (negative ones only when
        # unfolded) and errors, -0.0 and subnormals included, load back bit
        # for bit; edges within half the float64 range never overflow a
        # difference (wider spans are refused, see test_validation)
        finite = st.floats(allow_nan=False, allow_infinity=False)
        half = float(np.finfo(float).max) / 2
        edges = sorted(data.draw(st.lists(st.floats(-half, half), min_size=n + 1,
                                          max_size=n + 1, unique=True)))
        content = finite if unfolded else st.floats(0.0, allow_infinity=False)
        errors = st.one_of(st.none(), st.lists(st.floats(0.0, allow_infinity=False),
                                               min_size=n, max_size=n))
        h = uf.Histogram(uf.Axis(edges), data.draw(st.lists(content, min_size=n, max_size=n)),
                         stat_err=data.draw(errors), syst_err=data.draw(errors),
                         kind=kind, unfolded=unfolded)
        path = tmp_path_factory.mktemp("h") / "h.json"
        h.save_json(path)
        back = uf.Histogram.load_json(path)
        for name in ("contents", "stat_err", "syst_err"):
            want, got = getattr(h, name), getattr(back, name)
            assert (got is None) == (want is None)
            assert want is None or got.tobytes() == want.tobytes()
        assert back.axis.edges.tobytes() == h.axis.edges.tobytes()
        assert (back.kind, back.unfolded) == (kind, unfolded)
        back.save_json(path.with_name("again.json"))
        assert path.with_name("again.json").read_bytes() == path.read_bytes()

    def test_json_optional_fields(self, tmp_path):
        h = uf.Histogram(uf.Axis.uniform(0, 1, 2), [1.0, 2.0])
        path = tmp_path / "h.json"
        h.save_json(path)
        d = json.loads(path.read_text())
        assert "stat_err" not in d and "syst_err" not in d
        assert uf.Histogram.load_json(path).stat_err is None


def per_bin_refined_edges(edges, refine):
    """The refined edges built bin by bin, one linspace per bin.  Its last
    point, which is dropped, can overflow before it is set to `hi`."""
    with np.errstate(over="ignore"):
        pieces = [np.linspace(lo, hi, refine + 1)[:-1]
                  for lo, hi in zip(edges[:-1], edges[1:])]
    return np.concatenate(pieces + [edges[-1:]])


EDGE_LISTS = st.one_of(
    st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=8, unique=True),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=5,
             unique=True),
    # spans a few subnormals wide, where a bin's step can round to zero
    st.lists(st.integers(-8, 8), min_size=2, max_size=6, unique=True).map(
        lambda ks: [k * 5e-324 for k in ks]))


@settings(max_examples=300, deadline=None)
@given(edges=EDGE_LISTS, refine=st.integers(2, 9), negative_zero=st.booleans())
def test_refined_edges_are_the_per_bin_linspace(edges, refine, negative_zero):
    e = np.sort(np.array(edges, dtype=np.float64))
    e[e == 0] = -0.0 if negative_zero else 0.0
    with np.errstate(over="ignore"):
        assume(np.all(np.isfinite(np.diff(e))))
    axis = uf.Axis(e)
    want = per_bin_refined_edges(axis.edges, refine)
    if np.all(np.diff(want) > 0):
        assert uf.rebin_axes(axis, 1.0, refine).edges.tobytes() == want.tobytes()
    else:  # a bin too narrow for `refine` distinct subnormal edges
        with pytest.raises(uf.ParameterError) as exc:
            uf.rebin_axes(axis, 1.0, refine)
        assert exc.value.name == "refine_factor"


class TestDerivedAxisRefusals:
    """An axis that a rebin factor derives but float64 cannot hold is refused
    as a ParameterError naming that factor, with no warning and no
    OverflowError."""

    @pytest.mark.parametrize("edges, extension", [
        (np.linspace(1e307, 1.5e308, 5), 2.0),  # the extended span overflows
        ([-1e308, 0.0, 1e308], 1.5),           # the measured span overflows
        ([1e308, 1.5e308], 1.1)])              # the extended edges overflow
    def test_extension_is_named(self, edges, extension):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(uf.ParameterError) as exc:
                uf.rebin_axes(uf.Axis(edges), extension, 1)
        assert exc.value.name == "extension_factor"

    def test_refinement_is_named(self):
        # 4 subdivisions of a bin one subnormal wide repeat an edge
        with pytest.raises(uf.ParameterError) as exc:
            uf.rebin_axes(uf.Axis([0.0, 5e-324, 1e-323]), 1.0, 4)
        assert exc.value.name == "refine_factor"

    @pytest.mark.parametrize("axis, rebin, field", [
        ({"low": 1e307, "high": 1.5e308, "nbins": 4},
         {"extension_factor": 2}, "rebin.extension_factor"),
        ({"edges": [0, 5e-324, 1e-323]}, {"refine_factor": 4}, "rebin.refine_factor")])
    def test_scenario_names_the_factor(self, axis, rebin, field):
        d = {"truth": {"type": "cauchy", "location": 0.0, "scale": 1.0},
             "smearing": {"type": "gaussian_convolution", "sigma": 1.0},
             "entries": 100, "seed": 1, "meas_axis": axis, "rebin": rebin}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(uf.ConfigError) as exc:
                uf.Scenario.from_dict(d)
        assert exc.value.field == field
