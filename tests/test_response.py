import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import unfolder as uf
from unfolder import response
from unfolder.errors import (ConstructionError, DegenerateOperatorError,
                             DimensionError, InvalidKernelError)

from _oracles import erf_response_matrix, random_edges, random_response_matrix


def gauss_kernel(sigma):
    return uf.GaussianSmearing(sigma).kernel()


class TestComputeK:
    def test_identity(self):
        for n in (1, 2, 5, 9):
            assert uf.compute_k(np.eye(n)) == 1.0

    def test_flat_two_by_two(self):
        # AtA of [[.5,.5],[.5,.5]] is itself; both column sums are 1
        assert uf.compute_k([[0.5, 0.5], [0.5, 0.5]]) == pytest.approx(1.0, abs=1e-15)

    @given(seed=st.integers(0, 2**32 - 1), nx=st.integers(1, 12), ny=st.integers(1, 12),
           accept=st.floats(0.0, 1.0), sparsity=st.floats(0.0, 0.9))
    @settings(max_examples=200, deadline=None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_bounds_spectral_radius(self, seed, nx, ny, accept, sparsity):
        # a response built directly, entries zeroed at random (one is kept)
        rng = np.random.default_rng(seed)
        a = random_response_matrix(rng, nx, ny, accept=(accept, 1.0))
        zero = rng.random(a.shape) < sparsity
        zero[rng.integers(ny), rng.integers(nx)] = False
        a[zero] = 0.0
        rm = uf.ResponseMatrix(uf.Axis(random_edges(rng, nx)),
                               uf.Axis(random_edges(rng, ny)), a)
        lam = float(np.linalg.eigvalsh(a.T @ a).max())
        assert rm.k_factor >= lam * (1.0 - 1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateOperatorError):
            uf.compute_k(np.zeros((3, 3)))

    def test_peaked_response_warns(self):
        m = np.diag([1.0, 1e-8, 1e-8, 1e-8, 1e-8])
        with pytest.warns(RuntimeWarning, match="peaked"):
            uf.compute_k(m)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            uf.compute_k([[-0.1]])


def float_bits(x):
    return np.float64(x).tobytes()


class TestComputeKMedian:
    """compute_k takes its median without np.median (which imports
    numpy.ma) and must still get np.median's value, bit for bit, on what
    it takes the median of: column sums of AᵀA, which are +0.0 or above
    (np.median also turns a -0.0 into 0.0, which no column sum is)."""

    @given(st.lists(st.floats(min_value=0.0, allow_nan=False, allow_subnormal=True),
                    min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_median_equals_numpy_median(self, values):
        v = np.array(values, dtype=np.float64)
        assert float_bits(response._median(v)) == float_bits(float(np.median(v)))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("values", [[3.5], [1.0, 2.0], [0.1, 0.2], [0.2, 0.1, 0.3],
                                        [1.7e308, 1.7e308], [5e-324, 5e-324],
                                        [0.0], [0.0, 0.0], [np.inf, 1.0],
                                        [1.0, 1.0 + 2**-52, 7.0, 9.0]])
    def test_median_short_and_edge_cases(self, values):
        v = np.array(values, dtype=np.float64)
        assert float_bits(response._median(v)) == float_bits(float(np.median(v)))

    @given(st.lists(st.floats(0.25, 4.0), min_size=2, max_size=12),
           st.integers(-4, 4))
    @settings(max_examples=200, deadline=None)
    def test_peaked_warning_on_the_same_side_as_np_median(self, others, ulps):
        # a diagonal matrix has the squared diagonal as AᵀA column sums; the
        # peak sits within a few ulps of the warning threshold
        cs = np.array(others) ** 2
        peak = np.sqrt(response.PEAKED_RESPONSE_RATIO * np.median(np.append(cs, 1e300)))
        for _ in range(abs(ulps)):
            peak = np.nextafter(peak, np.inf if ulps > 0 else 0.0)
        a = np.diag(np.append(others, peak))
        col_sums = (a.T @ a).sum(axis=0)
        expected = col_sums.max() > response.PEAKED_RESPONSE_RATIO * float(np.median(col_sums))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            k = uf.compute_k(a)
        assert k == col_sums.max()
        assert any("peaked" in str(w.message) for w in caught) == expected


class TestLoadComputesKOnce:
    AXIS = uf.Axis.uniform(0.0, 1.0, 4)

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []

        def counting(matrix):
            counted.append(1)
            return compute_k(matrix)

        compute_k = response.compute_k
        monkeypatch.setattr(response, "compute_k", counting)
        return counted

    def stored(self, tmp_path, k_factor):
        rm = uf.ResponseMatrix(self.AXIS, self.AXIS,
                               random_response_matrix(np.random.default_rng(1), 4, 4))
        d = rm.to_dict()
        d["k_factor"] = k_factor(rm.k_factor)
        path = tmp_path / "R.json"
        path.write_text(json.dumps(d))
        return rm, path

    @pytest.mark.parametrize("k_factor", [lambda k: k, lambda k: k * (1 + 5e-13),
                                          lambda k: k * (1 - 1e-13), lambda k: 0.01,
                                          lambda k: None],
                             ids=["equal", "rounding-above", "rounding-below",
                                  "smaller", "absent"])
    def test_stored_factor_within_rounding_or_below_is_dropped(self, tmp_path, calls,
                                                               k_factor):
        rm, path = self.stored(tmp_path, k_factor)
        calls.clear()
        assert uf.ResponseMatrix.load_json(path).k_factor == rm.k_factor
        assert len(calls) == 1

    def test_larger_stored_factor_is_kept(self, tmp_path, calls):
        rm, path = self.stored(tmp_path, lambda k: 1.5 * k)
        calls.clear()
        assert uf.ResponseMatrix.load_json(path).k_factor == 1.5 * rm.k_factor
        assert len(calls) == 1

    @pytest.mark.parametrize("bad", [math.inf, math.nan, "2.0"])
    def test_non_finite_stored_factor_raises(self, tmp_path, calls, bad):
        _, path = self.stored(tmp_path, lambda k: bad)
        calls.clear()
        with pytest.raises(ValueError, match="k_factor must be a finite number"):
            uf.ResponseMatrix.load_json(path)
        assert len(calls) == 1


class TestFromKernel:
    def test_padded_column_sums_against_erf(self):
        sigma = 0.5
        true_axis = uf.Axis.uniform(-4.0, 4.0, 32)
        meas_axis = uf.Axis.uniform(-8.0, 8.0, 64)  # 8 sigma of padding
        rm = uf.ResponseMatrix.from_kernel(gauss_kernel(sigma), true_axis, meas_axis)
        col = rm.matrix.sum(axis=0)
        assert np.abs(col - 1.0).max() < 1e-6  # all columns: padding covers the edges
        oracle = erf_response_matrix(true_axis, meas_axis, sigma)
        assert np.abs(rm.matrix - oracle).max() < 2e-4
        np.testing.assert_allclose(col, oracle.sum(axis=0), atol=1e-6)

    def test_truncated_domain_leaks_at_edges(self):
        ax = uf.Axis.uniform(0.0, 10.0, 20)
        rm = uf.ResponseMatrix.from_kernel(gauss_kernel(0.8), ax, ax)
        col = rm.matrix.sum(axis=0)
        assert col[0] < 1.0 - 1e-3 and col[-1] < 1.0 - 1e-3
        assert np.abs(col[8:12] - 1.0).max() < 1e-6

    def test_negative_kernel_rejected(self):
        ax = uf.Axis.uniform(0, 1, 2)
        with pytest.raises(InvalidKernelError):
            uf.ResponseMatrix.from_kernel(lambda y, x: 0.0 * y - 1.0, ax, ax)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_kernel_rejected(self, value):
        # NaN fails the sign check, +inf the column-mass check
        ax = uf.Axis.uniform(0, 1, 2)
        with pytest.raises(InvalidKernelError):
            uf.ResponseMatrix.from_kernel(lambda y, x: np.where(x > 0.5, value, 0.0 * y),
                                          ax, ax)


class TestFromPairs:
    def test_single_pair(self):
        ax = uf.Axis.uniform(0.0, 1.0, 1)
        rm = uf.ResponseMatrix.from_pairs([(0.5, 0.5)], ax, ax)
        np.testing.assert_array_equal(rm.matrix, [[1.0]])
        assert rm.k_factor == 1.0

    def test_miss_halves_acceptance(self):
        ax = uf.Axis.uniform(0.0, 1.0, 1)
        rm = uf.ResponseMatrix.from_pairs([(0.5, 0.5), (0.5, np.nan)], ax, ax)
        np.testing.assert_array_equal(rm.matrix, [[0.5]])

    def test_non_finite_true_value_is_off_the_axis(self):
        # kept on purpose: a row whose x is NaN or infinite is not refused
        # but ignored, as any x off the true axis is
        rng = np.random.default_rng(3)
        ax = uf.Axis.uniform(0.0, 1.0, 4)
        x = rng.uniform(0.0, 1.0, 200)
        pairs = np.column_stack([x, x + rng.normal(0.0, 0.1, 200)])
        bad = [[np.nan, 0.5], [np.inf, 0.5], [-np.inf, 0.5], [np.nan, np.nan], [np.inf, np.inf]]
        mixed = np.insert(pairs, [0, 50, 120, 199, 200], bad, axis=0)
        assert mixed.shape == (205, 2)
        np.testing.assert_array_equal(uf.ResponseMatrix.from_pairs(mixed, ax, ax).matrix,
                                      uf.ResponseMatrix.from_pairs(pairs, ax, ax).matrix)

    def test_agrees_with_kernel_matrix(self):
        # million-pair migration estimate against the quadrature matrix,
        # compared where the expected counts justify the normal approximation
        sigma = 0.8
        ax = uf.Axis.uniform(0.0, 10.0, 10)
        rk = uf.ResponseMatrix.from_kernel(gauss_kernel(sigma), ax, ax)
        rng = np.random.default_rng(7)
        n = 1_000_000
        x = rng.uniform(0.0, 10.0, n)
        y = x + rng.normal(0.0, sigma, n)
        rp = uf.ResponseMatrix.from_pairs(np.column_stack([x, y]), ax, ax)
        per_column = np.histogram(x, bins=ax.edges)[0]
        expected = rk.matrix * per_column[None, :]
        se = np.sqrt(rk.matrix * (1.0 - rk.matrix) / per_column[None, :])
        sel = expected >= 25
        dev = np.abs(rp.matrix - rk.matrix)[sel] / se[sel]
        assert sel.sum() > 40
        assert dev.max() <= 3.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_column_sums_never_exceed_one(self):
        rng = np.random.default_rng(19)
        ax_t = uf.Axis.uniform(0.0, 1.0, 7)
        ax_m = uf.Axis.uniform(0.0, 1.0, 5)
        for _ in range(30):
            n = int(rng.integers(3, 400))
            x = rng.uniform(-0.2, 1.2, n)
            y = np.where(rng.random(n) < 0.8, rng.uniform(-0.2, 1.2, n), np.nan)
            try:
                rm = uf.ResponseMatrix.from_pairs(np.column_stack([x, y]), ax_t, ax_m)
            except ConstructionError:
                continue
            assert np.all(rm.matrix.sum(axis=0) <= 1.0)

    def test_empty_sample_rejected(self):
        ax = uf.Axis.uniform(0, 1, 2)
        with pytest.raises(ConstructionError):
            uf.ResponseMatrix.from_pairs(np.empty((0, 2)), ax, ax)
        with pytest.raises(ConstructionError):
            uf.ResponseMatrix.from_pairs([(5.0, 0.5)], ax, ax)  # off axis

    def test_unpopulated_column_is_flagged(self):
        ax = uf.Axis.uniform(0.0, 2.0, 2)
        with pytest.warns(RuntimeWarning, match="no response"):
            rm = uf.ResponseMatrix.from_pairs([(0.5, 0.5)], ax, ax)
        assert rm.zero_columns == (1,)


class TestValidation:
    def test_column_sum_above_one_rejected(self):
        ax = uf.Axis.uniform(0, 1, 1)
        with pytest.raises(ValueError, match="column 0"):
            uf.ResponseMatrix(ax, ax, [[1.1]])

    def test_negative_entries_rejected(self):
        ax = uf.Axis.uniform(0, 1, 1)
        with pytest.raises(ValueError):
            uf.ResponseMatrix(ax, ax, [[-0.2]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            uf.ResponseMatrix(uf.Axis.uniform(0, 1, 2), uf.Axis.uniform(0, 1, 3),
                              np.full((2, 3), 0.1))

    def test_k_override(self):
        ax = uf.Axis.uniform(0, 1, 2)
        m = np.eye(2) * 0.9
        rm = uf.ResponseMatrix(ax, ax, m, k_override=2.0)
        assert rm.k_factor == 2.0
        with pytest.raises(ValueError, match="k_override"):
            uf.ResponseMatrix(ax, ax, m, k_override=0.5)


class TestApply:
    def test_fold_identity(self):
        ax = uf.Axis.uniform(0, 1, 3)
        rm = uf.ResponseMatrix(ax, ax, np.eye(3))
        f = uf.Histogram(ax, [1.0, 2.0, 3.0], stat_err=[0.1, 0.2, 0.3])
        out = rm.fold(f)
        np.testing.assert_array_equal(out.contents, f.contents)
        np.testing.assert_allclose(out.stat_err, f.stat_err)

    def test_fold_conserves_mass_for_unit_columns(self):
        rng = np.random.default_rng(1)
        a = random_response_matrix(rng, 6, 6, accept=(1.0, 1.0))
        ax = uf.Axis.uniform(0, 1, 6)
        rm = uf.ResponseMatrix(ax, ax, a)
        f = uf.Histogram(ax, rng.uniform(0, 1, 6))
        assert rm.fold(f).total == pytest.approx(f.total, abs=1e-12)

    def test_fold_matches_explicit_sum(self, demo_axis, demo_response):
        masses = np.diff(uf.CauchyTruth(0.0, 1.0).cdf(demo_axis.edges))
        f = uf.Histogram(demo_axis, masses)
        out = demo_response.fold(f).contents
        oracle = np.array([
            math.fsum(demo_response.matrix[i, j] * masses[j]
                      for j in range(demo_axis.nbins))
            for i in range(demo_axis.nbins)])
        assert np.abs(out - oracle).max() < 1e-9

    def test_fold_is_linear(self):
        rng = np.random.default_rng(23)
        ax = uf.Axis.uniform(0, 1, 5)
        for _ in range(20):
            rm = uf.ResponseMatrix(ax, ax, random_response_matrix(rng, 5, 5))
            f1 = uf.Histogram(ax, rng.uniform(0, 1, 5))
            f2 = uf.Histogram(ax, rng.uniform(0, 1, 5))
            al, be = rng.uniform(0.1, 2.0, 2)
            combo = uf.Histogram(ax, al * f1.contents + be * f2.contents)
            lhs = rm.fold(combo).contents
            rhs = al * rm.fold(f1).contents + be * rm.fold(f2).contents
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_fold_axis_mismatch(self):
        ax = uf.Axis.uniform(0, 1, 3)
        rm = uf.ResponseMatrix(ax, ax, np.eye(3))
        with pytest.raises(DimensionError):
            rm.fold(uf.Histogram(uf.Axis.uniform(0, 2, 3), [1.0, 1.0, 1.0]))


class TestSerialization:
    @given(seed=st.integers(0, 2**32 - 1), nx=st.integers(1, 12), ny=st.integers(1, 12),
           above=st.none() | st.floats(0.0, 3.0) | st.floats(0.0, 2e-12))
    @example(seed=9, nx=3, ny=4, above=1e-13)
    @settings(max_examples=150, deadline=None)
    def test_json_roundtrip(self, tmp_path_factory, seed, nx, ny, above):
        # bit-exact matrix, axes and K, with or without a k_override of
        # (1 + above) K.  A stored factor above K by rounding only (1e-12
        # relative) is not kept: above=1e-13 loads back as K, not the override
        rng = np.random.default_rng(seed)
        ax_t, ax_m = uf.Axis(random_edges(rng, nx)), uf.Axis(random_edges(rng, ny))
        a = random_response_matrix(rng, nx, ny)
        k = uf.compute_k(a)
        override = None if above is None else k * (1.0 + above)
        rm = uf.ResponseMatrix(ax_t, ax_m, a, k_override=override)
        kept = override is not None and override > k * (1.0 + 1e-12)
        path = tmp_path_factory.mktemp("rt") / "r.json"
        rm.save_json(path)
        back = uf.ResponseMatrix.load_json(path)
        assert same_bits(back.matrix, rm.matrix)
        assert same_bits(back.true_axis.edges, ax_t.edges)
        assert same_bits(back.meas_axis.edges, ax_m.edges)
        assert float_bits(back.k_factor) == float_bits(rm.k_factor if kept else k)

    def test_json_roundtrip_keeps_override(self, tmp_path):
        ax = uf.Axis.uniform(0, 1, 2)
        rm = uf.ResponseMatrix(ax, ax, np.eye(2) * 0.5, k_override=1.0)
        path = tmp_path / "r.json"
        rm.save_json(path)
        assert uf.ResponseMatrix.load_json(path).k_factor == 1.0

    def test_pairs_csv_roundtrip(self, tmp_path):
        pairs = np.array([[0.5, 0.7], [1.5, np.nan], [2.5, 0.1]])
        path = tmp_path / "pairs.csv"
        uf.write_pairs_csv(path, pairs)
        back = uf.read_pairs_csv(path)
        np.testing.assert_array_equal(back[:, 0], pairs[:, 0])
        assert back[1, 1] != back[1, 1]  # NaN
        np.testing.assert_array_equal(back[[0, 2], 1], pairs[[0, 2], 1])
        assert "MISS" in path.read_text()

    def test_pairs_csv_exact_text(self, tmp_path):
        pairs = np.array([[0.1, -0.0], [-0.0, np.nan], [np.nan, 2.5],
                          [np.inf, np.inf], [1e-300, -np.inf], [3.0, 1 / 3]])
        path = tmp_path / "pairs.csv"
        uf.write_pairs_csv(path, pairs)
        assert path.read_text() == ("x,y\n"
                                    "0.1,-0.0\n"
                                    "-0.0,MISS\n"
                                    "nan,2.5\n"
                                    "inf,MISS\n"
                                    "1e-300,MISS\n"
                                    "3.0,0.3333333333333333\n")


def read_pairs_reference(text):
    """The per-line parse that read_pairs_csv must reproduce bit for bit."""
    xs, ys = [], []
    for line in text.split("\n"):
        line = line.strip()
        if not line:
            continue
        a, b = (tok.strip() for tok in line.split(","))
        if a.lower() == "x":
            continue
        xs.append(float(a))
        ys.append(math.nan if b.upper() == "MISS" else float(b))
    return np.column_stack([np.asarray(xs, dtype=np.float64),
                            np.asarray(ys, dtype=np.float64)])


def same_bits(a, b):
    """Equal shapes and values, with NaN equal to NaN (of either sign: the
    writer keeps no NaN sign) and -0.0 apart from 0.0."""
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a) & ~np.isnan(a),
                               np.signbit(b) & ~np.isnan(b)))


class TestPairsCsvParsing:
    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               1.7976931348623157e308, 0.1, 1 / 3, 2 / 3, 123456.78901234567,
               -9.8765432109876543e-5, 1e22, 1e23]

    def test_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        x = np.concatenate([self.SPECIAL, [np.nan, np.inf, -np.inf],
                            rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500)])
        y = np.concatenate([self.SPECIAL[::-1], [np.nan, 0.5, np.nan],
                            rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500)])
        pairs = np.column_stack([x, y])
        path = tmp_path / "pairs.csv"
        uf.write_pairs_csv(path, pairs)
        assert same_bits(uf.read_pairs_csv(path), pairs)

    @given(st.lists(st.tuples(st.floats(allow_subnormal=True),
                              st.floats(allow_infinity=False)), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, tmp_path_factory, rows):
        pairs = np.array(rows, dtype=np.float64).reshape(-1, 2)
        path = tmp_path_factory.mktemp("pairs") / "pairs.csv"
        uf.write_pairs_csv(path, pairs)
        assert same_bits(uf.read_pairs_csv(path), pairs)

    def test_same_values_as_per_line_parse(self, tmp_path):
        text = ("X , Y\n\n  0.5,0.25\r\n1e-320 , miss\n\t-0.0,Miss\n"
                "nan, 1_000.5\nx,y\n  \n-inf,  -7.000000000000001e-310  \n"
                "3,MISS\n+4.5,-0\n\n")
        path = tmp_path / "pairs.csv"
        path.write_text(text, encoding="utf-8", newline="")
        expected = read_pairs_reference(path.read_text(encoding="utf-8"))
        back = uf.read_pairs_csv(path)
        assert back.shape == (7, 2)
        assert same_bits(back, expected)

    @pytest.mark.parametrize("text", ["x,y\n", "", "\n\n", "X,y\n\n"])
    def test_no_rows(self, tmp_path, text):
        path = tmp_path / "pairs.csv"
        path.write_text(text)
        back = uf.read_pairs_csv(path)
        assert back.shape == (0, 2) and back.dtype == np.float64

    @pytest.mark.parametrize("line", ["1.0", "1.0,2.0,3.0", "MISS,1.0",
                                      "miss,1.0", "abc,1.0", "1.0,", "1.0,abc",
                                      ",", "1.0;2.0",
                                      # one field short, one too many: the
                                      # fields still pair up across the lines
                                      "1.0\n2.0,3.0,4.0"])
    def test_malformed_row_raises(self, tmp_path, line):
        path = tmp_path / "pairs.csv"
        path.write_text(f"x,y\n0.5,0.5\n{line}\n1.5,1.5\n")
        with pytest.raises(ValueError):
            read_pairs_reference(path.read_text())
        with pytest.raises(ValueError):
            uf.read_pairs_csv(path)


class TestWritePairsInput:
    """write_pairs_csv reads its pairs by the array rule and the (n, 2) shape
    of from_pairs, before the file is opened."""

    @pytest.mark.parametrize("pairs", [[["1", "2"]], [[True, False]], {"x": [1.0, 2.0]},
                                       [[1.0, 2.0], [3.0]]])
    def test_non_numbers_are_refused(self, tmp_path, pairs):
        with pytest.raises(uf.ParameterError, match="pairs must be an array of numbers"):
            uf.write_pairs_csv(tmp_path / "p.csv", pairs)
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("shape", [(0,), (4,), (2, 3), (2, 1), (1, 2, 2)])
    def test_wrong_shape_is_refused(self, tmp_path, shape):
        with pytest.raises(DimensionError, match=r"pairs must be an \(n, 2\) array"):
            uf.write_pairs_csv(tmp_path / "p.csv", np.zeros(shape))
        assert not (tmp_path / "p.csv").exists()

    def test_integers_and_column_major_pairs_write_the_same_bytes(self, tmp_path):
        pairs = np.array([[1.0, 2.0], [-0.0, np.nan], [3.0, 1 / 3]])
        uf.write_pairs_csv(tmp_path / "c.csv", pairs)
        uf.write_pairs_csv(tmp_path / "f.csv", np.asfortranarray(pairs))
        assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()
        uf.write_pairs_csv(tmp_path / "i.csv", [[1, 2], [3, 4]])
        assert (tmp_path / "i.csv").read_text() == "x,y\n1.0,2.0\n3.0,4.0\n"
