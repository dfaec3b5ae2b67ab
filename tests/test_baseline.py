import math
import warnings

import numpy as np
import pytest

import unfolder as uf
from unfolder.baseline import RANK_CUTOFF

from _oracles import random_response_matrix


def response_of(matrix):
    ny, nx = np.asarray(matrix).shape
    return uf.ResponseMatrix(uf.Axis.uniform(0, nx, nx),
                             uf.Axis.uniform(0, ny, ny), matrix)


WELL_CONDITIONED = np.array([[0.80, 0.10, 0.05],
                             [0.15, 0.80, 0.15],
                             [0.05, 0.10, 0.80]])


class TestNaiveInvert:
    def test_identity(self):
        rm = response_of(np.eye(3))
        g = uf.Histogram(rm.meas_axis, [1.0, 2.0, 3.0], stat_err=[1, 1, 1])
        out = uf.naive_invert(rm, g)
        np.testing.assert_allclose(out.contents, g.contents, atol=1e-12)
        assert out.unfolded

    def test_matches_direct_solve(self):
        rm = response_of(WELL_CONDITIONED)
        rng = np.random.default_rng(2)
        g_vec = rng.uniform(1, 2, 3)
        g = uf.Histogram(rm.meas_axis, g_vec, stat_err=np.zeros(3))
        out = uf.naive_invert(rm, g)
        oracle = np.linalg.solve(WELL_CONDITIONED, g_vec)
        assert np.abs(out.contents - oracle).max() < 1e-10

    def test_rank_deficient_minimum_norm(self):
        a = np.array([[0.5, 0.5], [0.5, 0.5]])
        rm = response_of(a)
        g = uf.Histogram(rm.meas_axis, [1.0, 1.0], stat_err=[0.1, 0.1])
        with pytest.warns(RuntimeWarning, match="rank"):
            out = uf.naive_invert(rm, g)
        oracle = np.linalg.pinv(a) @ g.contents
        np.testing.assert_allclose(out.contents, oracle, atol=1e-12)

    def test_inverts_fold(self):
        rm = response_of(WELL_CONDITIONED)
        f = uf.Histogram(rm.true_axis, [4.0, 2.0, 1.0])
        back = uf.naive_invert(rm, rm.fold(f))
        assert np.abs(back.contents - f.contents).max() < 1e-8

    def test_stat_propagation(self):
        rm = response_of(WELL_CONDITIONED)
        g = uf.Histogram(rm.meas_axis, [1.0, 1.0, 1.0], stat_err=[0.1, 0.2, 0.3])
        out = uf.naive_invert(rm, g)
        pinv = np.linalg.pinv(WELL_CONDITIONED)
        oracle = np.sqrt((pinv ** 2) @ np.array([0.1, 0.2, 0.3]) ** 2)
        np.testing.assert_allclose(out.stat_err, oracle, rtol=1e-10)


class TestKernelProjection:
    def test_invertible_projects_to_zero(self):
        rm = response_of(WELL_CONDITIONED)
        f = np.array([1.0, -2.0, 3.0])
        assert np.abs(uf.kernel_projection(rm, f)).max() < 1e-10
        # full column rank, square or tall: exact zeros, not rounding noise
        assert not uf.kernel_projection(rm, f).any()
        assert not uf.kernel_projector(response_of(WELL_CONDITIONED[:, :2])).any()

    def test_duplicated_column_null_mode(self):
        a = np.array([[0.7, 0.2, 0.2],
                      [0.3, 0.8, 0.8]])
        rm = response_of(a)
        mode = np.array([0.0, 1.0, -1.0]) / math.sqrt(2.0)
        np.testing.assert_allclose(uf.kernel_projection(rm, mode), mode,
                                   atol=1e-12)

    def test_projector_identities(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            a = random_response_matrix(rng, 8, 6)  # rank <= 6 < 8 true bins
            rm = response_of(a)
            p = uf.kernel_projector(rm)
            np.testing.assert_allclose(p @ p, p, atol=1e-10)
            np.testing.assert_allclose(p, p.T, atol=1e-12)
            f = rng.uniform(-1, 1, 8)
            assert np.abs(a @ (p @ f)).max() < 1e-10


class TestConditionNumber:
    def test_identity(self):
        assert uf.condition_number(response_of(np.eye(4))) == 1.0

    def test_diagonal(self):
        rm = response_of(np.diag([1.0, 1e-6]))
        assert uf.condition_number(rm) == pytest.approx(1e6, rel=1e-9)

    def test_rank_deficient_is_infinite(self):
        rm = response_of(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert uf.condition_number(rm) == math.inf

    def test_smearing_two_bin_widths_is_severely_ill_conditioned(self):
        # regression anchor: 50 bins, Gaussian convolution two bin widths wide
        ax = uf.Axis.uniform(0.0, 50.0, 50)
        rm = uf.ResponseMatrix.from_kernel(uf.GaussianSmearing(2.0).kernel(),
                                           ax, ax)
        cond = uf.condition_number(rm)
        assert cond > 1e3
        assert cond == pytest.approx(2.8408e8, rel=1e-3)


class TestSingleFactorisation:
    """naive_invert factorises once; its pseudo-inverse must still be
    np.linalg.pinv's to the bit."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", ["full_rank", "rank_deficient", "near_cutoff"])
    def test_matches_pinv_exactly(self, seed, kind):
        rng = np.random.default_rng(seed)
        ny, nx = rng.integers(2, 40, 2)
        a = random_response_matrix(rng, nx, ny)
        if kind == "rank_deficient":
            k = int(rng.integers(1, min(nx, ny)))
            a = random_response_matrix(rng, k, ny) @ random_response_matrix(rng, nx, k)
        elif kind == "near_cutoff":
            # one singular value about 1e-13 of the largest: below the cutoff,
            # but far above rounding, so the cutoff decides the result
            ny = max(nx, ny)
            a = random_response_matrix(rng, nx, ny)
            a[:, 0] *= 3e-13
        rm = response_of(a)
        g = uf.Histogram(rm.meas_axis, rng.uniform(0.0, 100.0, ny),
                         stat_err=rng.uniform(0.5, 10.0, ny))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = uf.naive_invert(rm, g)
        pinv = np.linalg.pinv(a, rcond=RANK_CUTOFF)
        assert np.array_equal(out.contents, pinv @ g.contents)
        assert np.array_equal(out.stat_err,
                              np.sqrt((pinv ** 2) @ (g.stat_err ** 2)))
        s = np.linalg.svd(a, compute_uv=False)
        rank = int(np.sum(s > RANK_CUTOFF * s[0]))
        assert (rank < nx) == any("rank" in str(w.message) for w in caught)
