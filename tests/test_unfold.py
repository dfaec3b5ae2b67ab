import json
import math
import warnings
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import unfolder as uf
from unfolder.errors import (DecompositionError, DimensionError,
                             NumericalFailureError)

from _oracles import geometric_sum_iterates, random_edges, random_response_matrix


def make_system(rng, n, accept=(0.6, 1.0)):
    ax = uf.Axis.uniform(0.0, float(n), n)
    rm = uf.ResponseMatrix(ax, ax, random_response_matrix(rng, n, n, accept))
    return ax, rm


def random_system(rng, nx, ny):
    """A random response on random non-uniform axes."""
    return uf.ResponseMatrix(uf.Axis(random_edges(rng, nx)), uf.Axis(random_edges(rng, ny)),
                             random_response_matrix(rng, nx, ny))


def identity_system(n):
    ax = uf.Axis.uniform(0.0, float(n), n)
    return ax, uf.ResponseMatrix(ax, ax, np.eye(n))


class TestInit:
    def test_identity_first_iterate_is_input(self):
        ax, rm = identity_system(3)
        g = uf.Histogram(ax, [1.0, 2.0, 3.0], stat_err=[0.5, 0.5, 0.5])
        s = uf.init(rm, g)
        assert s.n == 0
        np.testing.assert_allclose(s.f_n, g.contents)

    def test_identity_covariance(self):
        ax, rm = identity_system(2)
        g = uf.Histogram(ax, [1.0, 1.0], stat_err=[1.0, 2.0])
        s = uf.init(rm, g)
        np.testing.assert_allclose(s.covariance, np.diag([1.0, 4.0]))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            ax, rm = make_system(rng, 6)
            g = uf.Histogram(ax, rng.uniform(0, 1, 6), stat_err=rng.uniform(0, 1, 6))
            s = uf.init(rm, g)
            oracle = np.array([
                math.fsum(rm.matrix[i, j] * g.contents[i] for i in range(6))
                for j in range(6)]) / rm.k_factor
            assert np.abs(s.f_n - oracle).max() < 1e-13

    @given(seed=st.integers(0, 2**32 - 1), nx=st.integers(1, 200), ny=st.integers(1, 200))
    @settings(max_examples=40, deadline=None)
    def test_error_square_root_is_the_dense_product(self, seed, nx, ny):
        # K⁻¹Aᵀ scaled column by column: the bits and the (C) layout of
        # K⁻¹Aᵀ @ diag(stat_err), zero errors included
        rng = np.random.default_rng(seed)
        rm = random_system(rng, nx, ny)
        stat_err = rng.uniform(0.0, 10.0, ny) * (rng.random(ny) < 0.8)
        g = uf.Histogram(rm.meas_axis, rng.uniform(0.0, 100.0, ny), stat_err=stat_err)
        e0 = uf.init(rm, g).e0
        dense = (rm.matrix.T / rm.k_factor) @ np.diag(stat_err)
        assert e0.flags.c_contiguous
        assert e0.tobytes() == dense.tobytes()

    def test_requires_stat_errors(self):
        ax, rm = identity_system(2)
        with pytest.raises(ValueError):
            uf.init(rm, uf.Histogram(ax, [1.0, 1.0]))

    def test_axis_mismatch(self):
        ax, rm = identity_system(2)
        g = uf.Histogram(uf.Axis.uniform(0, 1, 2), [1.0, 1.0], stat_err=[1, 1])
        with pytest.raises(DimensionError):
            uf.init(rm, g)

    def test_full_covariance_input(self):
        ax, rm = identity_system(2)
        g = uf.Histogram(ax, [1.0, 1.0], stat_err=[1.0, 1.0])
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        s = uf.init(rm, g, covariance=cov)
        np.testing.assert_allclose(s.covariance, cov, atol=1e-14)

    def test_non_psd_covariance_rejected(self):
        ax, rm = identity_system(2)
        g = uf.Histogram(ax, [1.0, 1.0], stat_err=[1.0, 1.0])
        with pytest.raises(DecompositionError):
            uf.init(rm, g, covariance=np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestCovarianceSqrt:
    def test_positive_definite_uses_cholesky(self):
        c = np.array([[4.0, 1.0], [1.0, 2.0]])
        e = uf.covariance_sqrt(c)
        np.testing.assert_allclose(e @ e.T, c, atol=1e-14)
        assert e[0, 1] == 0.0  # lower triangular

    def test_semidefinite_falls_back(self):
        v = np.array([[1.0], [1.0]])
        c = v @ v.T  # rank one
        e = uf.covariance_sqrt(c)
        np.testing.assert_allclose(e @ e.T, c, atol=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(DecompositionError):
            uf.covariance_sqrt(np.array([[1.0, 0.3], [0.0, 1.0]]))


class TestStep:
    def test_identity_is_stationary(self):
        ax, rm = identity_system(3)
        g = uf.Histogram(ax, [2.0, 1.0, 0.5], stat_err=[0.1, 0.1, 0.1])
        s0 = uf.init(rm, g)
        s1 = uf.step(s0)
        assert s1.n == 1
        np.testing.assert_allclose(s1.f_n, g.contents, atol=1e-15)
        np.testing.assert_allclose(s1.e_n, s0.e_n, atol=1e-15)

    def test_closed_form_oracle(self):
        # noiseless g = A f_true makes f_N = (I - (I-M)^(N+1)) f_true
        rng = np.random.default_rng(77)
        for _ in range(10):
            ax, rm = make_system(rng, 8)
            f_true = rng.uniform(0, 1, 8)
            g = uf.Histogram(ax, rm.matrix @ f_true, stat_err=np.zeros(8))
            s = uf.init(rm, g)
            m = rm.matrix.T @ rm.matrix / rm.k_factor
            im = np.eye(8) - m
            power = im.copy()
            for n in range(51):
                if n > 0:
                    s = uf.step(s)
                    power = power @ im
                oracle = (np.eye(8) - power) @ f_true
                assert np.abs(s.f_n - oracle).max() < 1e-10

    def test_error_iterate_geometric_sum(self):
        rng = np.random.default_rng(31)
        ax, rm = make_system(rng, 5)
        g = uf.Histogram(ax, rng.uniform(1, 2, 5), stat_err=rng.uniform(0.5, 1, 5))
        s = uf.init(rm, g)
        m = rm.matrix.T @ rm.matrix / rm.k_factor
        oracles = geometric_sum_iterates(m, s.e0, orders={5, 20, 40})
        for n in range(1, 41):
            s = uf.step(s)
            if s.n in oracles:
                assert np.abs(s.e_n - oracles[s.n]).max() < 1e-10

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_raises_with_order(self):
        huge = np.array([1e308])
        s = uf.IterateState(n=3, f_n=huge, e_n=np.zeros((1, 1)), f0=huge,
                            e0=np.zeros((1, 1)), m0=np.array([[2.0]]),
                            volumes=np.ones(1))
        with pytest.raises(NumericalFailureError) as exc:
            uf.step(s)
        assert exc.value.order == 4


class TestBounds:
    @staticmethod
    def state_with(f, n=0, volumes=None):
        f = np.asarray(f, dtype=float)
        vol = np.ones_like(f) if volumes is None else np.asarray(volumes, float)
        return uf.IterateState(n=n, f_n=f, e_n=np.zeros((f.size, 1)), f0=f,
                               e0=np.zeros((f.size, 1)),
                               m0=np.eye(f.size), volumes=vol)

    def test_bias_order_ratio(self):
        f = [1.0, 2.0, 3.0]
        b0 = uf.bias_bound(self.state_with(f, n=0), 1.0)
        b2 = uf.bias_bound(self.state_with(f, n=2), 1.0)
        assert b0 / b2 == pytest.approx(2.0, rel=1e-15)

    def test_bias_volume_scaling(self):
        # same constant density on the same domain, coarser bins:
        # the bound falls by sqrt(2) when the bin volume doubles
        fine = self.state_with(np.full(8, 3.0), volumes=np.ones(8))
        coarse = self.state_with(np.full(4, 6.0), volumes=np.full(4, 2.0))
        b_fine = uf.bias_bound(fine, 1.0)
        b_coarse = uf.bias_bound(coarse, 2.0)
        assert b_fine / b_coarse == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_harmonic_numbers(self):
        assert uf.harmonic_number(0) == 0.0
        assert uf.harmonic_number(1) == 1.0
        assert uf.harmonic_number(10) == pytest.approx(2.9289682539682538, rel=1e-15)

    def test_syst_bound_coefficients(self):
        ax, rm = identity_system(2)
        delta = np.array([0.3, 0.4])
        s0 = self.state_with([1.0, 1.0], n=0)
        s9 = self.state_with([1.0, 1.0], n=9)
        b0 = uf.syst_bound(s0, rm, delta, 1.0)
        b9 = uf.syst_bound(s9, rm, delta, 1.0)
        assert b0 == pytest.approx(np.linalg.norm(delta), rel=1e-12)  # H_1 = 1
        assert b9 / b0 == pytest.approx(2.9289682539682538, rel=1e-12)

    def test_syst_bound_zero_offset(self):
        ax, rm = identity_system(2)
        for n in (0, 3, 50):
            s = self.state_with([1.0, 2.0], n=n)
            assert uf.syst_bound(s, rm, np.zeros(2), 1.0) == 0.0


class TestStatSummary:
    def test_zero_errors(self):
        s = TestBounds.state_with([1.0, 2.0])
        per_bin, integral, fraction = uf.stat_summary(s)
        np.testing.assert_array_equal(per_bin, [0.0, 0.0])
        assert integral == 0.0 and fraction == 0.0

    def test_identity_is_stationary(self):
        ax, rm = identity_system(2)
        g = uf.Histogram(ax, [5.0, 5.0], stat_err=[3.0, 4.0])
        s = uf.init(rm, g)
        for _ in range(5):
            per_bin, integral, _ = uf.stat_summary(s)
            np.testing.assert_allclose(per_bin, [3.0, 4.0], atol=1e-13)
            s = uf.step(s)


class TestRun:
    def test_fixed_zero_returns_first_iterate(self):
        rng = np.random.default_rng(8)
        ax, rm = make_system(rng, 5)
        g = uf.Histogram(ax, rng.uniform(1, 2, 5), stat_err=rng.uniform(0, 1, 5))
        out = uf.run(rm, g, uf.StoppingPolicy.fixed(0))
        s = uf.init(rm, g)
        np.testing.assert_array_equal(out.result.contents, s.f_n)
        assert out.stopped_at == 0 and len(out.trace) == 1
        assert out.result.unfolded and out.result.kind == g.kind

    @given(seed=st.integers(0, 2**32 - 1), nx=st.integers(1, 10),
           ny=st.integers(1, 10), order=st.integers(0, 30),
           al=st.floats(-10.0, 10.0), be=st.floats(-10.0, 10.0))
    @example(seed=0, nx=2, ny=1, order=1, al=0.0, be=5e-324)
    @settings(max_examples=150, deadline=None)
    def test_fixed_n_linearity(self, seed, nx, ny, order, al, be):
        # run(al g1 + be g2) = al run(g1) + be run(g2) up to rounding, which
        # grows with the order and the size of the inputs; in the subnormal
        # range rounding is absolute (steps of 2**-1074), so a relative
        # bound alone reads 0 there (the example differs by 5e-324)
        rng = np.random.default_rng(seed)
        true_axis, meas_axis = uf.Axis(random_edges(rng, nx)), uf.Axis(random_edges(rng, ny))
        rm = uf.ResponseMatrix(true_axis, meas_axis, random_response_matrix(rng, nx, ny))
        g1, g2 = rng.uniform(0.0, 100.0, (2, ny))
        policy = uf.StoppingPolicy.fixed(order)

        def run_of(v):
            g = uf.Histogram(meas_axis, v, stat_err=np.zeros(ny), unfolded=True)
            return uf.run(rm, g, policy).result.contents

        lhs = run_of(al * g1 + be * g2)
        rhs = al * run_of(g1) + be * run_of(g2)
        scale = abs(al) * g1.max() + abs(be) * g2.max()
        underflow = 4 * (order + 1) * (nx + ny) * 2.0**-1074
        assert np.abs(lhs - rhs).max() <= 1e-12 * (order + 1) * scale + underflow

    @pytest.mark.parametrize("policy", [uf.StoppingPolicy.fixed(6),
                                        uf.StoppingPolicy.stat_fraction(0.05),
                                        uf.StoppingPolicy.min_total()],
                             ids=["fixed", "stat_fraction", "min_total"])
    def test_state_is_the_iterate_at_the_stopping_order(self, demo_response,
                                                        demo_scenario, policy):
        g = uf.generate(demo_scenario).measured
        out = uf.run(demo_response, g, policy)
        # min_total iterates past its argmin, so the state is not the last one
        assert out.state.n == out.stopped_at
        assert np.array_equal(out.state.f_n, out.result.contents)
        np.testing.assert_allclose(np.sqrt(np.diag(out.state.covariance)),
                                   out.result.stat_err, rtol=1e-13)

    def test_stat_fraction_stops_at_smallest_qualifying_order(self, demo_response,
                                                              demo_scenario):
        g = uf.generate(demo_scenario).measured
        out = uf.run(demo_response, g, uf.StoppingPolicy.stat_fraction(0.05))
        assert not out.truncated
        assert out.trace[out.stopped_at].stat_fraction >= 0.05
        for b in out.trace[:out.stopped_at]:
            assert b.stat_fraction < 0.05
        np.testing.assert_array_equal(
            out.result.stat_err,
            uf.stat_summary(_replay(demo_response, g, out.stopped_at))[0])

    def test_min_total_returns_argmin(self, demo_response, demo_scenario):
        g = uf.generate(demo_scenario).measured
        out = uf.run(demo_response, g, uf.StoppingPolicy.min_total(),
                     syst=0.03 * g.contents)
        totals = [b.total for b in out.trace]
        assert out.stopped_at == int(np.argmin(totals))
        assert len(out.trace) == out.stopped_at + 11  # ten-step confirmation
        assert out.result.syst_err is not None

    def test_truncation_warning(self):
        rng = np.random.default_rng(3)
        ax, rm = make_system(rng, 4)
        g = uf.Histogram(ax, rng.uniform(1, 2, 4), stat_err=rng.uniform(0, 0.1, 4))
        with pytest.warns(RuntimeWarning, match="did not fire"):
            out = uf.run(rm, g, uf.StoppingPolicy.stat_fraction(0.999,
                                                                max_iterations=5))
        assert out.truncated and out.stopped_at == 5

    @given(seed=st.integers(0, 2**32 - 1), nx=st.integers(1, 9), ny=st.integers(1, 9))
    @settings(max_examples=150, deadline=None)
    def test_covariance_psd_and_trace_monotone(self, seed, nx, ny):
        # trace(C_N) = sum_j p_N(l_j)^2 (V' C_0 V)_jj with p_N(l) >= 0 growing
        # with N for every eigenvalue l of m0 in [0, 1]: it never falls, up
        # to rounding; the stat integral only lies in [sqrt(tr), sqrt(nx tr)]
        rng = np.random.default_rng(seed)
        rm = random_system(rng, nx, ny)
        g = uf.Histogram(rm.meas_axis, rng.uniform(0.0, 100.0, ny),
                         stat_err=rng.uniform(0.1, 10.0, ny))
        tol = 64 * np.finfo(float).eps
        s, prev_trace = uf.init(rm, g), 0.0
        for _ in range(60):
            c = s.covariance
            w = np.linalg.eigvalsh(0.5 * (c + c.T))
            assert np.abs(c - c.T).max() <= tol * w.max()
            assert w.min() >= -tol * w.max()
            tr = float(np.trace(c))
            assert tr >= prev_trace * (1.0 - tol)
            integral = uf.stat_summary(s)[1]
            assert math.sqrt(tr) * (1.0 - tol) <= integral <= math.sqrt(nx * tr) * (1.0 + tol)
            prev_trace = tr
            s = uf.step(s)

    def test_stat_integral_can_fall_while_trace_rises(self):
        # a random 3x3 system (probe seed 54, rounded): bin 3's variance
        # falls faster than the others' grow
        ax = uf.Axis.uniform(0.0, 3.0, 3)
        rm = uf.ResponseMatrix(ax, ax, [[0.557, 0.049, 0.174], [0.093, 0.276, 0.202],
                                        [0.139, 0.560, 0.281]])
        s = uf.init(rm, uf.Histogram(ax, np.ones(3), stat_err=[1.2, 0.35, 2.97]))
        integrals, traces = [], []
        for _ in range(14):
            integrals.append(uf.stat_summary(s)[1])
            traces.append(float(np.trace(s.covariance)))
            s = uf.step(s)
        assert np.all(np.diff(traces) > 0)
        assert np.all(np.diff(integrals[:11]) > 0)
        assert np.all(np.diff(integrals[10:]) < 0)  # orders 10 to 13
        assert integrals[11] < integrals[10] * (1 - 5e-4)

    def test_defining_recursion_invariant(self):
        rng = np.random.default_rng(99)
        ax, rm = make_system(rng, 5)
        g = uf.Histogram(ax, rng.uniform(1, 2, 5), stat_err=rng.uniform(0.1, 1, 5))
        s = uf.init(rm, g)
        for _ in range(10):
            nxt = uf.step(s)
            np.testing.assert_allclose(nxt.f_n - s.f_n, s.f0 - s.m0 @ s.f_n,
                                       atol=1e-12)
            s = nxt

    def test_spectral_contraction(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            a = rng.uniform(0, 1, (int(rng.integers(2, 12)), n))
            m = a.T @ a / uf.compute_k(a)
            eig = np.linalg.eigvalsh(np.eye(n) - m)
            assert eig.min() > -1e-10 and eig.max() <= 1.0 + 1e-12


class TestSampledCovariance:
    """``e_n e_nᵀ`` is the covariance of ``f_N`` over measurements g drawn
    from N(mu, diag(sigma²)).  The sample covariance of m Gaussian vectors is
    Wishart, with ``var(Ĉ_ij) = (C_ii C_jj + C_ij²) / (m - 1)``; every entry
    must lie within 5 such standard errors of ``C_N``.  Derandomized, so
    the same draws run every time."""

    M = 4000

    @given(seed=st.integers(0, 2**32 - 1), nx=st.integers(1, 8), ny=st.integers(1, 8))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_matches_propagated_covariance(self, seed, nx, ny):
        rng = np.random.default_rng(seed)
        rm = random_system(rng, nx, ny)
        mu, sigma = rng.uniform(0.0, 100.0, ny), rng.uniform(0.1, 10.0, ny)
        s = uf.init(rm, uf.Histogram(rm.meas_axis, mu, stat_err=sigma))
        # f_N of every draw at once, one column each
        f0 = (rm.matrix.T / rm.k_factor) @ (mu + sigma * rng.standard_normal((self.M, ny))).T
        f = f0
        for n in range(11):
            if n in (0, 1, 10):
                d = f - f.mean(axis=1, keepdims=True)
                sampled = d @ d.T / (self.M - 1)
                c = s.covariance
                var = np.diag(c)
                se = np.sqrt((np.outer(var, var) + c * c) / (self.M - 1))
                assert np.all(np.abs(sampled - c) <= 5 * se)
            f = f + (f0 - s.m0 @ f)
            s = uf.step(s)


class TestNoiselessConsistency:
    def test_singular_system_converges_to_projected_truth(self):
        # duplicated true bin: the response cannot tell bins 2 and 3 apart
        a = np.array([[0.80, 0.10, 0.05, 0.05],
                      [0.15, 0.80, 0.15, 0.15],
                      [0.05, 0.10, 0.80, 0.80]])
        ax_t, ax_m = uf.Axis.uniform(0, 4, 4), uf.Axis.uniform(0, 3, 3)
        rm = uf.ResponseMatrix(ax_t, ax_m, a)
        f_true = np.array([5.0, 3.0, 2.0, 4.0])
        g = uf.Histogram(ax_m, a @ f_true, stat_err=np.zeros(3))
        limit = f_true - (uf.kernel_projector(rm) @ f_true)
        s = uf.init(rm, g)
        prev = np.linalg.norm(s.f_n - limit)
        for _ in range(200):
            s = uf.step(s)
            dist = np.linalg.norm(s.f_n - limit)
            assert dist <= prev + 1e-15
            prev = dist
        assert prev < 1e-6

    def test_invertible_system_recovers_truth(self):
        a = np.array([[0.80, 0.10, 0.05],
                      [0.15, 0.80, 0.15],
                      [0.05, 0.10, 0.80]])
        ax = uf.Axis.uniform(0, 3, 3)
        rm = uf.ResponseMatrix(ax, ax, a)
        f_true = np.array([5.0, 3.0, 2.0])
        g = uf.Histogram(ax, a @ f_true, stat_err=np.zeros(3))
        out = uf.run(rm, g, uf.StoppingPolicy.fixed(200))
        assert np.linalg.norm(out.result.contents - f_true) < 1e-8


@st.composite
def noiseless_cases(draw):
    """A random response matrix, random true edges and a random truth."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nx, ny = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    return random_response_matrix(rng, nx, ny), random_edges(rng, nx), rng.uniform(0.0, 100.0, nx)


def noiseless_deviations(case, orders=200):
    """|f_N - f_inf| per bin for N = 0..orders, from g = A f without noise,
    with f_inf = f - kernel_projector(R) @ f; and the response."""
    a, true_edges, f = case
    rm = uf.ResponseMatrix(uf.Axis(true_edges), uf.Axis.uniform(0.0, 1.0, a.shape[0]), a)
    limit = f - (uf.kernel_projector(rm) @ f)
    s = uf.init(rm, uf.Histogram(rm.meas_axis, a @ f, stat_err=np.zeros(a.shape[0])))
    out = []
    for _ in range(orders + 1):
        out.append(np.abs(s.f_n - limit))
        s = uf.step(s)
    return out, rm, limit


class TestBiasBound:
    # two unit bins, symmetric smearing, f = (1, 0): m0 has eigenvalues 1 and
    # 0.04, and half of f decays as 0.96^(N+1), against a bound of 1/(N+2)
    SLOW_MODE = (np.array([[0.6, 0.4], [0.4, 0.6]]), np.array([0.0, 1.0, 2.0]),
                 np.array([1.0, 0.0]))

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the per-bin bound with the true norm fails whenever f has "
                              "a component along a small eigenvalue of K^-1 A'A")
    @given(case=noiseless_cases())
    @example(case=SLOW_MODE)
    @settings(max_examples=100, deadline=None)
    def test_per_bin_deviation_within_true_norm_bound(self, case):
        # the paper's bias bound, with the true density norm in place of the
        # iterate's: |f_N - f_inf|_i / v_i <= ||f|| / (sqrt(v_min) (N+2))
        deviations, rm, _ = noiseless_deviations(case)
        v, f = rm.true_axis.widths, case[2]
        norm = uf.l2_density_norm(f, v)
        for n, dev in enumerate(deviations):
            bound = norm / (math.sqrt(v.min()) * (n + 2))
            assert np.all(dev / v <= bound + 1e-12 * norm)

    @given(case=noiseless_cases())
    @example(case=SLOW_MODE)
    @settings(max_examples=100, deadline=None)
    def test_per_bin_deviation_within_source_norm_bound(self, case):
        # f_N - f_inf = -(I - m0)^(N+1) m0 h with h = pinv(m0) f_inf, and
        # l (1 - l)^(N+1) <= 1/(N+2) on [0, 1]: |f_N - f_inf|_i <= ||h|| / (N+2)
        deviations, rm, limit = noiseless_deviations(case)
        a = rm.matrix
        h = np.linalg.norm(np.linalg.pinv(a.T @ a / rm.k_factor) @ limit)
        for n, dev in enumerate(deviations):
            assert np.all(dev <= h / (n + 2) + 1e-12 * (n + 1) * case[2].max())


@st.composite
def syst_cases(draw):
    """A random response, random true edges, a random measurement and a
    random systematic offset of it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nx, ny = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    return (random_response_matrix(rng, nx, ny), random_edges(rng, nx),
            rng.uniform(1.0, 100.0, ny), rng.uniform(-1.0, 1.0, ny))


def syst_shifts(case, orders=30):
    """Per order N = 0..orders: the propagated systematic shift, the density
    norm of f_N(g + delta_g) - f_N(g) over sqrt(v_min); the trace's
    syst_bound column for the same offset; the density norm of the current
    iterate over sqrt(v_min); and the true bin volumes."""
    a, true_edges, g, delta_g = case
    rm = uf.ResponseMatrix(uf.Axis(true_edges), uf.Axis.uniform(0.0, 1.0, a.shape[0]), a)
    v = rm.true_axis.widths
    scale = math.sqrt(v.min())

    def measured(contents):
        return uf.Histogram(rm.meas_axis, contents, stat_err=np.zeros(contents.size))

    s, t = uf.init(rm, measured(g)), uf.init(rm, measured(g + delta_g))
    shifts, norms = [], []
    for _ in range(orders + 1):
        shifts.append(uf.l2_density_norm(t.f_n - s.f_n, v) / scale)
        norms.append(uf.l2_density_norm(s.f_n, v) / scale)
        s, t = uf.step(s), uf.step(t)
    trace = uf.run(rm, measured(g), uf.StoppingPolicy.fixed(orders), syst=delta_g).trace
    return shifts, [b.syst_bound for b in trace], norms, v


class TestSystBound:
    # two unit bins, A = diag(1, 0.1): m0 = diag(1, 0.01), and the offset
    # (0, 1) excites only the slow mode, whose image grows like
    # 0.1 * (1 - 0.99^(N+1)) / 0.01, about (N+1) * 0.1 at small N, against
    # the paper's H_{N+1} * 0.1
    SLOW_MODE = (np.diag([1.0, 0.1]), np.array([0.0, 1.0, 2.0]),
                 np.array([1.0, 1.0]), np.array([0.0, 1.0]))

    def test_counterexample_values(self):
        shifts, bounds, _, _ = syst_shifts(self.SLOW_MODE)
        for n, shift, bound in ((0, 0.100, 0.100), (1, 0.199, 0.150),
                                (10, 1.047, 0.302), (30, 2.677, 0.403)):
            assert shifts[n] == pytest.approx(shift, abs=5e-4)
            assert bounds[n] == pytest.approx(bound, abs=5e-4)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="H_{N+1} does not bound the shift: a mode with a small "
                              "eigenvalue of K^-1 A'A grows like (N+1), not like H_{N+1}")
    @given(case=syst_cases())
    @example(case=SLOW_MODE)
    @settings(max_examples=100, deadline=None)
    def test_shift_within_syst_bound(self, case):
        shifts, bounds, norms, _ = syst_shifts(case)
        for n, (shift, bound) in enumerate(zip(shifts, bounds)):
            assert shift <= bound * (1 + 1e-12) + 1e-12 * (n + 1) * norms[n]

    @given(case=syst_cases())
    @example(case=SLOW_MODE)
    @settings(max_examples=100, deadline=None)
    def test_shift_within_linear_order_bound(self, case):
        # f_N(g + dg) - f_N(g) = sum_{k=0..N} (I - m0)^k df0 with df0 the
        # order-0 image; I - m0 is symmetric with spectrum in [0, 1], so in
        # the euclidean norm the shift is at most (N+1) |df0|, and the
        # density norm adds sqrt(v_max / v_min) on a non-uniform axis
        shifts, bounds, norms, v = syst_shifts(case)
        spread = math.sqrt(v.max() / v.min())
        for n, (shift, bound) in enumerate(zip(shifts, bounds)):
            linear = bound / uf.harmonic_number(n + 1) * (n + 1) * spread
            assert shift <= linear * (1 + 1e-12) + 1e-12 * (n + 1) * norms[n]


class TestPolicyValidation:
    def test_bad_policies(self):
        with pytest.raises(ValueError):
            uf.StoppingPolicy.fixed(-1)
        with pytest.raises(ValueError):
            uf.StoppingPolicy.stat_fraction(0.0)
        with pytest.raises(ValueError):
            uf.StoppingPolicy.stat_fraction(1.0)
        with pytest.raises(ValueError):
            uf.StoppingPolicy.min_total(max_iterations=0)
        with pytest.raises(ValueError):
            uf.StoppingPolicy("banana")

    def test_budget_csv_row(self):
        b = uf.ErrorBudget(n=3, bias_bound=1.5, stat_integral=2.0,
                           stat_fraction=0.1, syst_bound=0.0, total=5.0)
        assert b.csv_row().startswith("3,1.5,2.0,0.1,")
        assert uf.ErrorBudget.CSV_HEADER.split(",")[0] == "n"


def _replay(rm, g, order):
    s = uf.init(rm, g)
    for _ in range(order):
        s = uf.step(s)
    return s


class TestOneDefinitionPerTerm:
    """The trace's bias and systematic columns and the result's systematic
    error are the public bias_bound, syst_bound and harmonic_number, bit
    for bit, also for a non-square response with K != 1 on a non-uniform
    true axis."""

    @staticmethod
    def system(seed):
        rng = np.random.default_rng(seed)
        ny = int(rng.integers(3, 10))
        nx = max(2, ny + int(rng.choice([-2, -1, 1, 2, 3])))
        true_axis = uf.Axis(np.cumsum(rng.uniform(0.2, 2.0, nx + 1)))
        meas_axis = uf.Axis.uniform(0.0, 1.0, ny)
        a = random_response_matrix(rng, nx, ny)
        k_override = None if seed % 2 else 1.5 * uf.compute_k(a)
        rm = uf.ResponseMatrix(true_axis, meas_axis, a, k_override=k_override)
        counts = rng.uniform(1.0, 50.0, ny)
        g = uf.Histogram(meas_axis, counts, stat_err=np.sqrt(counts))
        syst = rng.normal(0.0, 0.1, ny) * counts
        return rm, g, syst

    def test_trace_columns_are_the_public_bounds(self):
        for seed in range(20):
            rm, g, syst = self.system(seed)
            assert rm.shape[0] != rm.shape[1] and rm.k_factor != 1.0
            assert not rm.true_axis.is_uniform()
            out = uf.run(rm, g, uf.StoppingPolicy.fixed(15), syst=syst)
            width = float(rm.true_axis.widths.min())
            s = uf.init(rm, g, syst=syst)
            for row in out.trace:
                assert row.n == s.n
                assert row.bias_bound == uf.bias_bound(s, width), (seed, s.n)
                assert row.syst_bound == uf.syst_bound(s, rm, syst, width), (seed, s.n)
                s = uf.step(s)

    def test_result_syst_err(self):
        for seed in range(6):
            rm, g, syst = self.system(seed)
            out = uf.run(rm, g, uf.StoppingPolicy.fixed(9), syst=syst)
            widths = rm.true_axis.widths
            norm = uf.l2_density_norm((rm.matrix.T / rm.k_factor) @ syst, widths)
            np.testing.assert_array_equal(
                out.result.syst_err, np.sqrt(widths) * uf.harmonic_number(10) * norm)

    def test_harmonic_number_is_fsum(self):
        terms = [1.0 / k for k in range(1, uf.unfold.DEFAULT_MAX_ITERATIONS + 2)]
        for m in [*range(300), *range(300, len(terms), 97), len(terms)]:
            assert uf.harmonic_number(m) == math.fsum(terms[:m]), m
        # the trace's systematic column is H_{n+1} here: one bin, K = 1,
        # unit offset and unit width; every m up to the default cap
        ax, rm = identity_system(1)
        g = uf.Histogram(ax, [1.0], stat_err=[1.0])
        out = uf.run(rm, g, uf.StoppingPolicy.fixed(uf.unfold.DEFAULT_MAX_ITERATIONS),
                     syst=[1.0])
        assert len(out.trace) == len(terms)
        for row in out.trace:
            assert row.syst_bound == math.fsum(terms[:row.n + 1]), row.n


class TestTraceColumns:
    """The trace CSV's header and rows are the ErrorBudget fields in order:
    the order as ``str`` writes it, every float as its ``repr``."""

    def test_header_is_the_field_names(self):
        assert uf.ErrorBudget.CSV_HEADER == \
            "n,bias_bound,stat_integral,stat_fraction,syst_bound,total"

    @pytest.mark.parametrize("n", [3, np.int64(3)], ids=["int", "numpy-int"])
    def test_row_bytes(self, n):
        b = uf.ErrorBudget(n=n, bias_bound=0.1, stat_integral=1 / 3,
                           stat_fraction=math.inf, syst_bound=0.0, total=2e-300)
        assert b.csv_row() == "3,0.1,0.3333333333333333,inf,0.0,2e-300"


def bundled_system(name):
    """The bundled scenario `name` with the README's response: the kernel of
    ``cauchy-gauss``, the pair sample of ``calorimeter``."""
    sc = uf.Scenario.from_dict(json.loads(
        resources.files("unfolder").joinpath("configs", name + ".json").read_text()))
    sample = uf.generate(sc)
    if name == "cauchy-gauss":
        rm = uf.ResponseMatrix.from_kernel(sc.smearing.kernel(), sc.true_axis, sc.meas_axis)
    else:
        rm = uf.ResponseMatrix.from_pairs(sample.pairs, sc.true_axis, sc.meas_axis)
    return rm, sample.measured


@pytest.fixture(scope="module", params=["cauchy-gauss", "calorimeter"])
def bundled(request):
    return bundled_system(request.param)


SEAM_POLICIES = [uf.StoppingPolicy.fixed(25), uf.StoppingPolicy.stat_fraction(0.1),
                 uf.StoppingPolicy.min_total()]


class TestOrderStream:
    """`run` reads one order stream, ``unfold._recursion``: another source
    of the same orders gives the same result, and the reference stream
    steps once per order the trace records."""

    @pytest.mark.parametrize("policy", SEAM_POLICIES, ids=lambda p: p.rule)
    def test_geometric_sum_stream(self, monkeypatch, bundled, policy):
        rm, g = bundled
        ref = uf.run(rm, g, policy)
        orders = range(len(ref.trace) + 20)  # room for a later stop to show
        read = []

        def geometric_stream(first):
            f = geometric_sum_iterates(first.m0, first.f0, orders)
            e = geometric_sum_iterates(first.m0, first.e0, orders)
            for n in orders:
                read.append(n)
                s = replace(first, n=n, f_n=f[n], e_n=e[n])
                yield (s, *uf.stat_summary(s))

        monkeypatch.setattr(uf.unfold, "_recursion", geometric_stream)
        out = uf.run(rm, g, policy)
        assert read == list(range(len(out.trace)))
        assert out.stopped_at == ref.stopped_at and not out.truncated
        for field in ("contents", "stat_err"):
            np.testing.assert_allclose(getattr(out.result, field),
                                       getattr(ref.result, field), rtol=1e-10)

    @pytest.mark.parametrize("policy, truncated", [
        (uf.StoppingPolicy.fixed(12), False),
        (uf.StoppingPolicy.stat_fraction(0.05), False),
        (uf.StoppingPolicy.min_total(), False),
        (uf.StoppingPolicy.min_total(max_iterations=3), True)],
        ids=["fixed", "stat_fraction", "min_total", "truncated"])
    def test_one_step_and_one_summary_per_order(self, monkeypatch, demo_response,
                                                demo_scenario, policy, truncated):
        steps, summaries = [], []
        step, stat_summary = uf.unfold.step, uf.unfold.stat_summary

        def counting_step(s):
            steps.append(s.n)
            return step(s)

        def counting_summary(s):
            summaries.append(s.n)
            return stat_summary(s)

        monkeypatch.setattr(uf.unfold, "step", counting_step)
        monkeypatch.setattr(uf.unfold, "stat_summary", counting_summary)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore" if truncated else "error")
            out = uf.run(demo_response, uf.generate(demo_scenario).measured, policy)
        assert out.truncated == truncated
        assert steps == list(range(len(out.trace) - 1))
        assert summaries == list(range(len(out.trace)))
