import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import unfolder as uf
from unfolder.errors import (DecompositionError, DimensionError,
                             NumericalFailureError)

from _oracles import geometric_sum_iterates, random_edges, random_response_matrix


def make_system(rng, n, accept=(0.6, 1.0)):
    ax = uf.Axis.uniform(0.0, float(n), n)
    rm = uf.ResponseMatrix(ax, ax, random_response_matrix(rng, n, n, accept))
    return ax, rm


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
    @settings(max_examples=150, deadline=None)
    def test_fixed_n_linearity(self, seed, nx, ny, order, al, be):
        # run(al g1 + be g2) = al run(g1) + be run(g2) up to rounding, which
        # grows with the order and the size of the inputs
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
        assert np.abs(lhs - rhs).max() <= 1e-12 * (order + 1) * scale

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

    def test_covariance_psd_and_trace_monotone(self):
        rng = np.random.default_rng(14)
        ax, rm = make_system(rng, 6)
        g = uf.Histogram(ax, rng.uniform(1, 2, 6), stat_err=rng.uniform(0.1, 1, 6))
        s = uf.init(rm, g)
        prev_trace = -1.0
        for _ in range(30):
            c = s.covariance
            np.testing.assert_allclose(c, c.T, atol=1e-12)
            w = np.linalg.eigvalsh(c)
            assert w.min() > -1e-10
            tr = float(np.trace(c))
            assert tr >= prev_trace - 1e-12
            prev_trace = tr
            s = uf.step(s)

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
        limit = f_true - uf.kernel_projection(rm, f_true)
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
