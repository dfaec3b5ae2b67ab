"""generate, pseudo_experiments, the pairs CSV and kernel quadrature work
in blocks of response._PAIR_BLOCK values (the CSV writer in strings of
response._CSV_ROWS rows); each is pinned bit for bit to the one-shot formula
at any block size, and its temporaries stay a few blocks in size.  The sampled
blocks are binned by simulate._tally, pinned to np.histogram here."""

import math
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import unfolder as uf
from unfolder import response, simulate

from _oracles import random_edges
from test_response import read_pairs_reference, same_bits

B = response._PAIR_BLOCK
TRUTHS = [uf.CauchyTruth(0.3, 1.1), uf.GaussianTruth(1.5, 2.0),
          uf.PowerlawTruth(3.0, 1.0)]
SMEARINGS = [uf.GaussianSmearing(0.7), uf.CalorimeterSmearing(1.15, 0.055)]


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def traced_peak(fn):
    """Peak bytes traced while `fn()` runs, and its result."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, out


def one_shot(sc, rng, n):
    """generate() as one draw of the whole sample and one histogram per
    side."""
    x = sc.truth.sample(rng, n)
    y = sc.smearing.apply(rng, x)
    true_axis, meas_axis = sc.true_axis, sc.meas_axis
    return (uf.Histogram.from_counts(true_axis, np.histogram(x, bins=true_axis.edges)[0]),
            uf.Histogram.from_counts(meas_axis, np.histogram(y, bins=meas_axis.edges)[0]),
            np.column_stack([x, y]),
            (int(np.sum(x < true_axis.low)), int(np.sum(x > true_axis.high)),
             int(np.sum(y < meas_axis.low)), int(np.sum(y > meas_axis.high))))


def assert_generate_is_one_shot(sc):
    rng_a, rng_b = np.random.default_rng(sc.seed), np.random.default_rng(sc.seed)
    got = simulate._generate(sc, rng_a, sc.entries)
    truth, measured, pairs, tallies = one_shot(sc, rng_b, sc.entries)
    assert got.pairs.flags.f_contiguous and bits(got.pairs) == bits(pairs)
    for h, want in ((got.truth_hist, truth), (got.measured, measured)):
        assert h.axis == want.axis and h.kind == want.kind
        assert bits(h.contents) == bits(want.contents)
        assert bits(h.stat_err) == bits(want.stat_err)
    assert (got.truth_underflow, got.truth_overflow,
            got.meas_underflow, got.meas_overflow) == tallies
    assert rng_a.random() == rng_b.random()


class TestGenerate:
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 3])
    @pytest.mark.parametrize("rebin", [(1.0, 1), (1.5, 2)])
    @pytest.mark.parametrize("smearing", SMEARINGS, ids=lambda s: type(s).__name__)
    @pytest.mark.parametrize("truth", TRUTHS, ids=lambda t: type(t).__name__)
    def test_equals_one_shot(self, truth, smearing, rebin, n):
        assert_generate_is_one_shot(uf.Scenario(
            truth=truth, smearing=smearing, entries=n, seed=n + 11,
            meas_axis=uf.Axis.uniform(-2.0, 9.0, 23), rebin=rebin))

    @given(truth=st.sampled_from(TRUTHS),
           smearing=st.sampled_from(SMEARINGS + [uf.GaussianSmearing(0.0),
                                                 uf.CalorimeterSmearing(0.0, 0.0)]),
           n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
           rebin=st.sampled_from([(1.0, 1), (2.0, 3)]))
    @settings(max_examples=80, deadline=None)
    def test_equals_one_shot_with_blocks_of_seven(self, truth, smearing, n, seed, rebin):
        with mock.patch.object(simulate, "_PAIR_BLOCK", 7):
            assert_generate_is_one_shot(uf.Scenario(
                truth=truth, smearing=smearing, entries=n, seed=seed,
                meas_axis=uf.Axis.uniform(-1.0, 4.0, 9), rebin=rebin))

    def test_pairs_layout_changes_no_response_or_csv(self, tmp_path):
        # generate gives column-major pairs, read_pairs_csv row-major ones;
        # either layout counts and writes the same (several count blocks,
        # one unaccepted pair)
        sc = uf.Scenario(truth=uf.GaussianTruth(2.0, 1.0),
                         smearing=uf.CalorimeterSmearing(1.15, 0.055),
                         entries=300, seed=8, meas_axis=uf.Axis.uniform(0.0, 4.0, 8))
        f = uf.generate(sc).pairs
        f[3, 1] = np.nan
        c = np.ascontiguousarray(f)
        assert f.flags.f_contiguous and not f.flags.c_contiguous and c.flags.c_contiguous
        with mock.patch.object(response, "_PAIR_BLOCK", 7):
            R_f, R_c = (uf.ResponseMatrix.from_pairs(p, sc.true_axis, sc.meas_axis)
                        for p in (f, c))
        assert bits(R_f.matrix) == bits(R_c.matrix)
        uf.write_pairs_csv(tmp_path / "f.csv", f)
        uf.write_pairs_csv(tmp_path / "c.csv", c)
        assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()
        back = uf.read_pairs_csv(tmp_path / "f.csv")
        assert back.flags.c_contiguous and same_bits(back, c)

    def test_peak_is_the_pairs_and_one_block(self):
        # beside the pairs: the block buffer and the calorimeter's work
        # block, 2 blocks of float64 in all
        sc = uf.Scenario(truth=uf.PowerlawTruth(3.0, 1.0),
                         smearing=uf.CalorimeterSmearing(1.15, 0.055),
                         entries=500_000, seed=3, meas_axis=uf.Axis.uniform(0.0, 24.0, 48))
        uf.generate(replace(sc, entries=1))  # first-call imports, outside the trace
        peak, res = traced_peak(lambda: uf.generate(sc))
        assert peak <= res.pairs.nbytes + 3 * 8 * B


class TestDraws:
    """`_draws` splits the streams' concatenated segments into chunks of
    the buffer's size; each stream's pieces, put back together, are one
    ``truth.sample`` and one ``smearing.apply`` from its Generator."""

    @given(truth=st.sampled_from(TRUTHS),
           smearing=st.sampled_from(SMEARINGS + [uf.GaussianSmearing(0.0),
                                                 uf.CalorimeterSmearing(0.0, 0.0)]),
           sizes=st.lists(st.integers(0, 40), min_size=1, max_size=5),
           chunk=st.integers(1, 16), spare=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_pieces_are_sample_then_apply(self, truth, smearing, sizes, chunk, spare,
                                          seed):
        sc = uf.Scenario(truth=truth, smearing=smearing, entries=1, seed=seed,
                         meas_axis=uf.Axis.uniform(0.0, 1.0, 1))
        rngs = [np.random.default_rng(seed + i) for i in range(len(sizes))]
        # x longer than the samples, as a worker's reused truth buffer is
        x, y, work = np.empty(sum(sizes) + spare), np.empty(chunk), np.empty(chunk)
        pieces = [[] for _ in sizes]
        for i, s, v in simulate._draws(sc, list(zip(rngs, sizes)), x, y, work):
            assert v.size == s.stop - s.start and np.shares_memory(v, y)
            pieces[i].append((s, v.copy()))
        stops = np.cumsum(sizes).tolist()
        for i, (rng, n, stop, got) in enumerate(zip(rngs, sizes, stops, pieces)):
            # consecutive slices covering the stream's segment, no empty one
            assert all(s.stop > s.start for s, _ in got)
            assert [k for s, _ in got for k in range(s.start, s.stop)] == \
                list(range(stop - n, stop))
            ref = np.random.default_rng(seed + i)
            want_x = truth.sample(ref, n)
            want = smearing.apply(ref, want_x)
            assert bits(x[stop - n:stop]) == bits(want_x)
            assert bits(np.concatenate([v for _, v in got] + [np.empty(0)])) == bits(want)
            assert rng.bit_generator.state == ref.bit_generator.state


def tally_reference(v, edges):
    """np.histogram's counts between the values under and over the axis."""
    return np.concatenate([[np.sum(v < edges[0])], np.histogram(v, bins=edges)[0],
                           [np.sum(v > edges[-1])]])


@st.composite
def values_and_edges(draw):
    """Edges (random, through zero, or out to the largest double) and values
    on them, one ulp either side, ±0, ±inf, NaN and anything else."""
    edges = draw(st.one_of(
        st.builds(lambda seed, n: random_edges(np.random.default_rng(seed), n),
                  st.integers(0, 2**32 - 1), st.integers(1, 8)),
        st.just(np.arange(-2.0, 3.0)),
        st.just(np.array([-np.finfo(float).max, 0.0, np.finfo(float).max]))))
    # math.nextafter takes the largest double one ulp up to inf silently
    near = [v for e in edges for v in (math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf))]
    value = st.one_of(st.sampled_from(near + [0.0, -0.0, np.inf, -np.inf, np.nan]),
                      st.floats(edges[0] - 1.0, edges[-1] + 1.0), st.floats())
    return np.array(draw(st.lists(value, max_size=40)), dtype=np.float64), edges


def tally(v, edges):
    """`_tally`'s counts of `v` alone: its ends from zero, one difference."""
    ends = np.zeros(edges.size + 1, dtype=np.intp)
    simulate._tally(v, response._closed_edges(edges, np.nan), ends)
    return np.diff(ends, prepend=0)


class TestTally:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(case=values_and_edges())
    @settings(max_examples=300, deadline=None)
    def test_is_histogram_and_tallies_split_anywhere(self, case):
        v, edges = case
        want, whole = tally_reference(v, edges), v.copy()
        got = tally(whole, edges)
        assert got.dtype == np.intp and np.array_equal(got, want)
        assert bits(whole) == bits(np.sort(v))
        keys = response._closed_edges(edges, np.nan)
        for k in range(v.size + 1):
            ends = np.zeros(keys.size, dtype=np.intp)
            simulate._tally(v[:k].copy(), keys, ends)
            simulate._tally(v[k:].copy(), keys, ends)
            assert ends.dtype == np.intp
            assert np.array_equal(np.diff(ends, prepend=0), want)


def ensemble_bits(sc, R, policy=uf.StoppingPolicy.fixed(3), seeds=None, **kwargs):
    ens = uf.pseudo_experiments(sc, 5 if seeds is None else len(seeds), R, policy,
                                seeds=seeds, **kwargs)
    return ens.order, bits(ens.mean), bits(ens.covariance)


class TestPseudoExperiments:
    @pytest.mark.parametrize("poisson_total", [True, False])
    @pytest.mark.parametrize("smearing", SMEARINGS, ids=lambda s: type(s).__name__)
    def test_same_moments_in_blocks_of_seven(self, smearing, poisson_total):
        sc = uf.Scenario(truth=uf.PowerlawTruth(3.0, 1.0), smearing=smearing,
                         entries=300, seed=21, meas_axis=uf.Axis.uniform(-1.0, 6.0, 14))
        R = uf.ResponseMatrix(sc.meas_axis, sc.meas_axis, np.eye(14) * 0.9)
        whole = ensemble_bits(sc, R, poisson_total=poisson_total, workers=1)
        with mock.patch.object(simulate, "_PAIR_BLOCK", 7):
            for workers in (1, 2):
                assert ensemble_bits(sc, R, poisson_total=poisson_total,
                                     workers=workers) == whole

    @pytest.mark.parametrize("poisson_total", [True, False])
    def test_same_moments_for_any_share_of_seeds(self, poisson_total):
        # 7 experiments in shares of 1, 2 and 3 (3 threads even on a
        # 2-CPU host, switching often), seeds out of order; a row depends
        # only on its seed, and a row left unwritten would change the moments
        sc = uf.Scenario(truth=uf.CauchyTruth(0.3, 1.1), smearing=uf.GaussianSmearing(0.7),
                         entries=200, seed=4, meas_axis=uf.Axis.uniform(-3.0, 3.0, 12))
        R = uf.ResponseMatrix(sc.meas_axis, sc.meas_axis, np.eye(12) * 0.8)
        seeds = [90, 3, 57, 3, 12, 1000, 8]
        got = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(simulate.os, "cpu_count", return_value=3):
                for workers in (1, 2, 3):
                    ens = uf.pseudo_experiments(sc, 7, R, uf.StoppingPolicy.fixed(3),
                                                poisson_total=poisson_total,
                                                workers=workers, seeds=seeds)
                    got.append((ens.order, bits(ens.mean), bits(ens.covariance)))
        finally:
            sys.setswitchinterval(interval)
        assert got[1] == got[0] and got[2] == got[0]
        reordered = uf.pseudo_experiments(sc, 7, R, uf.StoppingPolicy.fixed(3),
                                          poisson_total=poisson_total, workers=2,
                                          seeds=seeds[::-1])
        assert np.allclose(reordered.mean, ens.mean, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fixed_total_rows_are_generate_measured(self, workers):
        sc = uf.Scenario(truth=uf.PowerlawTruth(3.0, 1.0),
                         smearing=uf.CalorimeterSmearing(1.15, 0.055),
                         entries=400, seed=6, meas_axis=uf.Axis.uniform(0.0, 8.0, 16))
        R = uf.ResponseMatrix(sc.meas_axis, sc.meas_axis, np.eye(16) * 0.9)
        policy = uf.StoppingPolicy.fixed(4)
        seeds = [31, 7, 19, 2, 25]
        ens = uf.pseudo_experiments(sc, 5, R, policy, poisson_total=False,
                                    workers=workers, seeds=seeds)
        g = np.vstack([uf.generate(replace(sc, seed=s)).measured.contents for s in seeds])
        mean_g = g.mean(axis=0)
        d = g - mean_g
        want = uf.run(R, uf.Histogram(sc.meas_axis, mean_g, kind="counts"), policy,
                      covariance=np.einsum("ki,kj->ij", d, d) / (len(seeds) - 1))
        assert ens.order == want.stopped_at
        assert bits(ens.mean) == bits(want.state.f_n)
        assert bits(ens.covariance) == bits(want.state.covariance)

    def test_peak_is_the_truth_draws_and_one_block_per_worker(self):
        # one side of a sample is 8 MB; beside it, each worker holds its
        # smeared block and the calorimeter's work block, 2 blocks of
        # float64 in all (an experiment too large for a batch)
        sc = uf.Scenario(truth=uf.PowerlawTruth(3.0, 1.0),
                         smearing=uf.CalorimeterSmearing(1.15, 0.055),
                         entries=10**6, seed=5, meas_axis=uf.Axis.uniform(0.0, 24.0, 48))
        R = uf.ResponseMatrix(sc.meas_axis, sc.meas_axis, np.eye(48))
        policy = uf.StoppingPolicy.fixed(2)
        uf.pseudo_experiments(replace(sc, entries=1), 2, R, policy)  # first-call imports
        peak, _ = traced_peak(lambda: uf.pseudo_experiments(sc, 2, R, policy, workers=2))
        assert peak <= 2 * (8 * sc.entries * 1.01 + 3 * 8 * B)

    def test_peak_does_not_grow_with_the_experiments(self):
        # one worker's buffers are made once, so 16 experiments hold no more
        # than 2 beyond their rows of counts and of deviations from the
        # mean, and the few more truth draws the largest of 16 Poisson
        # totals can take (within four standard deviations)
        sc = uf.Scenario(truth=uf.PowerlawTruth(3.0, 1.0),
                         smearing=uf.CalorimeterSmearing(1.15, 0.055),
                         entries=20_000, seed=9, meas_axis=uf.Axis.uniform(0.0, 24.0, 48))
        R = uf.ResponseMatrix(sc.meas_axis, sc.meas_axis, np.eye(48))
        policy = uf.StoppingPolicy.fixed(2)
        uf.pseudo_experiments(replace(sc, entries=1), 2, R, policy)  # first-call imports
        peaks = {n: traced_peak(lambda: uf.pseudo_experiments(sc, n, R, policy, workers=1))[0]
                 for n in (2, 16)}
        row = 8 * sc.meas_axis.nbins
        assert peaks[16] <= peaks[2] + 2 * 14 * row + 8 * 4 * math.sqrt(sc.entries)


def generate_moments(sc, R, policy, seeds):
    """The ensemble of `seeds` with fixed totals, from generate()'s measured
    contents."""
    g = np.vstack([uf.generate(replace(sc, seed=s)).measured.contents for s in seeds])
    d = g - g.mean(axis=0)
    out = uf.run(R, uf.Histogram(sc.meas_axis, g.mean(axis=0), kind="counts"), policy,
                 covariance=np.einsum("ki,kj->ij", d, d) / (len(seeds) - 1))
    return out.stopped_at, bits(out.state.f_n), bits(out.state.covariance)


class TestBatches:
    """A worker draws consecutive experiments that fit simulate._BATCH_BLOCKS
    blocks together as one batch, and one larger alone in blocks; the
    moments are the same bits at any block size and worker count."""

    SEEDS = [90, 3, 57, 3, 12, 1000, 8, 3, 41]

    @pytest.mark.parametrize("poisson_total", [True, False])
    @pytest.mark.parametrize("block, entries", [
        (7, 1), (7, 3), (7, 7), (7, 14), (7, 15), (7, 40),
        (64, 1), (64, 20), (64, 43), (64, 64), (64, 128), (64, 129), (64, 300)])
    def test_same_moments_as_unpatched(self, block, entries, poisson_total):
        # batches of several experiments (entries of 1 draw totals of 0),
        # batches filled to the capacity (two fixed totals of `block`),
        # experiments alone in one block or in several; seeds out of order
        # and repeated, shares of 3, 3 and 3 (3 threads on any host)
        smearing = (uf.CalorimeterSmearing(1.15, 0.055) if entries % 2
                    else uf.GaussianSmearing(0.7))
        sc = uf.Scenario(truth=uf.PowerlawTruth(3.0, 1.0), smearing=smearing,
                         entries=entries, seed=2, meas_axis=uf.Axis.uniform(-1.0, 6.0, 14))
        R = uf.ResponseMatrix(sc.meas_axis, sc.meas_axis, np.eye(14) * 0.9)
        policy = uf.StoppingPolicy.fixed(3)
        run = lambda workers: ensemble_bits(sc, R, policy, poisson_total=poisson_total,
                                            workers=workers, seeds=self.SEEDS)
        whole = run(1)
        if not poisson_total:
            assert whole == generate_moments(sc, R, policy, self.SEEDS)
        with mock.patch.object(simulate, "_PAIR_BLOCK", block), \
                mock.patch.object(simulate.os, "cpu_count", return_value=3):
            for workers in (1, 2, 3):
                assert run(workers) == whole

    def test_one_smearing_pass_per_batch(self):
        # 16 experiments of about 20,000 draws: three to a batch of 65,536
        # values, so five batches and the one left over
        sc = uf.Scenario(truth=uf.PowerlawTruth(3.0, 1.0),
                         smearing=uf.CalorimeterSmearing(1.15, 0.055),
                         entries=20_000, seed=9, meas_axis=uf.Axis.uniform(0.0, 24.0, 48))
        R = uf.ResponseMatrix(sc.meas_axis, sc.meas_axis, np.eye(48))
        smear = uf.CalorimeterSmearing._smear
        with mock.patch.object(uf.CalorimeterSmearing, "_smear", autospec=True,
                               side_effect=smear) as passes:
            uf.pseudo_experiments(sc, 16, R, uf.StoppingPolicy.fixed(2), workers=1)
        assert simulate._BATCH_BLOCKS * B == 65_536
        assert passes.call_count <= 6


def jittered(lo, hi, n, seed):
    edges = np.linspace(lo, hi, n + 1)
    edges[1:-1] += np.random.default_rng(seed).uniform(-0.3, 0.3, n - 1) * (hi - lo) / n
    return uf.Axis(edges)


def logistic_kernel(sigma):
    """Logistic density of standard deviation sigma: smooth like the
    Gaussian, with exponential tails."""
    s = sigma * math.sqrt(3.0) / math.pi

    def kernel(y, x):
        z = np.exp(-np.abs(y - x) / s)
        return z / (s * (1.0 + z) ** 2)
    return kernel


KERNELS = {"gaussian": lambda sigma: uf.GaussianSmearing(sigma).kernel(),
           "logistic": logistic_kernel}


def from_kernel_outcome(*args, **kwargs):
    """The matrix from_kernel builds, or the message it refuses with."""
    try:
        return uf.ResponseMatrix.from_kernel(*args, **kwargs).matrix
    except uf.InvalidKernelError as exc:
        return str(exc)


class TestFromKernel:
    AXES = {"uniform": (uf.Axis.uniform(-5.0, 5.0, 40), uf.Axis.uniform(-7.0, 7.0, 57)),
            "jittered": (jittered(-5.0, 5.0, 31, 1), jittered(-7.0, 7.0, 44, 2)),
            "random": (uf.Axis(np.sort(np.random.default_rng(1).uniform(-5.0, 5.0, 31))),
                       uf.Axis(np.sort(np.random.default_rng(2).uniform(-7.0, 7.0, 44))))}

    # at sigma 0.8 the midpoint rule puts more than unit mass in some column
    # of the non-uniform axes, so every budget must refuse with one message
    @pytest.mark.parametrize("sigma", [0.8, 3.0])
    @pytest.mark.parametrize("quad_points", [1, 3, 8])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("axes", sorted(AXES))
    def test_same_matrix_at_every_budget(self, axes, kernel, quad_points, sigma):
        true_axis, meas_axis = self.AXES[axes]
        outcomes = []
        for budget in (1, 64, 65_536, 4_000_000):
            with mock.patch.object(response, "_PAIR_BLOCK", budget):
                outcomes.append(from_kernel_outcome(
                    KERNELS[kernel](sigma), true_axis, meas_axis,
                    quad_points=quad_points))
        if sigma == 3.0 or axes == "uniform":
            assert isinstance(outcomes[0], np.ndarray)
        for other in outcomes[1:]:
            assert type(other) is type(outcomes[0])
            assert np.array_equal(other, outcomes[0])

    def test_peak_at_400_bins(self):
        axis = uf.Axis.uniform(-10.0, 10.0, 400)
        peak, _ = traced_peak(lambda: uf.ResponseMatrix.from_kernel(
            uf.GaussianSmearing(1.0).kernel(), axis, axis))
        assert peak <= 10 * 2**20


class TestPairsCsv:
    PAIRS = np.array([[0.5, np.nan], [-0.0, 0.0], [np.inf, 2.5], [-np.inf, -0.0],
                      [np.nan, np.inf], [1e-300, -np.inf], [1 / 3, 5e-324],
                      [2.0, 3.0]])

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7, 8])
    def test_same_bytes_and_values_in_blocks_of_three(self, tmp_path, n):
        pairs = self.PAIRS[:n]
        uf.write_pairs_csv(tmp_path / "whole.csv", pairs)
        with mock.patch.object(response, "_PAIR_BLOCK", 3):
            uf.write_pairs_csv(tmp_path / "blocked.csv", pairs)
            back = uf.read_pairs_csv(tmp_path / "blocked.csv")
        assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
        assert same_bits(back, uf.read_pairs_csv(tmp_path / "whole.csv"))
        assert back.shape == (n, 2)

    @pytest.mark.parametrize("rows", [3, response._CSV_ROWS])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 1_023, 1_024, 1_025, 4_095, 4_096,
                                   4_097, 8_193])
    def test_written_text_is_one_line_per_row(self, tmp_path, rows, n):
        pairs = np.resize(self.PAIRS, (n, 2))
        pairs[n // 2:, 0] += np.arange(n - n // 2) / 7
        with mock.patch.object(response, "_CSV_ROWS", rows):
            uf.write_pairs_csv(tmp_path / "pairs.csv", pairs)
        want = "x,y\n" + "".join(
            f"{x!r},{y!r}\n" if math.isfinite(y) else f"{x!r},MISS\n"
            for x, y in pairs.tolist())
        assert (tmp_path / "pairs.csv").read_bytes() == want.encode()

    def test_headers_blanks_and_miss_across_blocks(self, tmp_path):
        text = ("x,y\n\n\n  \nX , Y\n0.5,miss\n\n-0.0,MISS\nx,y\nx,y\nx,y\n"
                "nan, -inf\n\n\n\n1e-320 , Miss\r\n+4.5,-0\n\n")
        path = tmp_path / "pairs.csv"
        path.write_text(text, encoding="utf-8", newline="")
        expected = read_pairs_reference(path.read_text(encoding="utf-8"))
        for block in (1, 2, 3, 4, 5, B):
            with mock.patch.object(response, "_PAIR_BLOCK", block):
                assert same_bits(uf.read_pairs_csv(path), expected)

    @pytest.mark.parametrize("headers_only", [False, True])
    def test_no_rows_in_blocks(self, tmp_path, headers_only):
        path = tmp_path / "pairs.csv"
        path.write_text("x,y\n\nX,Y\n  \n" * 3 if headers_only else "\n \n\t\n" * 4)
        with mock.patch.object(response, "_PAIR_BLOCK", 3):
            back = uf.read_pairs_csv(path)
        assert back.shape == (0, 2) and back.dtype == np.float64

    @pytest.mark.parametrize("where", range(8))
    @pytest.mark.parametrize("bad, named", [("1.0", "1.0"), ("1.0,2.0,3.0", "1.0,2.0,3.0"),
                                            ("abc,1.0", "abc"), ("1.0,miss2", "miss2")])
    def test_bad_line_on_either_side_of_a_boundary(self, tmp_path, where, bad, named):
        lines = ["x,y"] + [f"{k}.5,{k}.25" for k in range(8)]
        lines[1 + where] = bad
        path = tmp_path / "pairs.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as whole:
            uf.read_pairs_csv(path)
        with mock.patch.object(response, "_PAIR_BLOCK", 3):
            with pytest.raises(ValueError) as blocked:
                uf.read_pairs_csv(path)
        assert str(blocked.value) == str(whole.value)
        assert repr(named) in str(blocked.value)

    def test_error_names_the_first_bad_line(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("x,y\n0.5,0.5\n1.0\n1.5,1.5\n2.0,2.0\n3.0;3.0\n")
        for block in (2, 3, B):
            with mock.patch.object(response, "_PAIR_BLOCK", block):
                with pytest.raises(ValueError, match="'1.0'"):
                    uf.read_pairs_csv(path)

    def test_read_peak_is_two_arrays_and_one_block(self, tmp_path):
        rng = np.random.default_rng(8)
        pairs = rng.standard_normal((200_000, 2))
        pairs[::13, 1] = np.nan
        path = tmp_path / "pairs.csv"
        uf.write_pairs_csv(path, pairs)
        peak, back = traced_peak(lambda: uf.read_pairs_csv(path))
        assert same_bits(back, pairs)
        assert peak <= 2 * back.nbytes + 24 * 2**20
