"""from_pairs counts in blocks; its matrix is pinned bit for bit to the
np.histogram / np.histogram2d formula, and its temporaries stay small."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import unfolder as uf
from unfolder import response


def histogram_formula(pairs, true_axis, meas_axis):
    """The response matrix as np.histogram and np.histogram2d count it."""
    x, y = pairs[:, 0], pairs[:, 1]
    denom, _ = np.histogram(x, bins=true_axis.edges)
    accepted = np.isfinite(y)
    num, _, _ = np.histogram2d(y[accepted], x[accepted],
                               bins=(meas_axis.edges, true_axis.edges))
    matrix = num / np.maximum(denom, 1)[None, :]
    col = matrix.sum(axis=0)
    over = col > 1.0
    matrix[:, over] /= col[over]
    return matrix


def uniform_axes():
    # from well-conditioned axes down to a few ulps per bin, where the
    # counter falls back to searchsorted
    return st.builds(
        lambda lo, log_width, n: (lo, lo + 10.0 ** log_width * n, n),
        st.sampled_from([0.0, -0.0, -1.0, 2.5, -7e3, 1e6, 1e15, -1e-300]),
        st.floats(-13.0, 4.0),
        st.integers(1, 80))


def nonuniform_axes():
    return st.lists(st.floats(-1e3, 1e3, allow_subnormal=True), min_size=2,
                    max_size=40, unique=True).map(sorted)


def axes():
    def make_uniform(spec):
        try:
            return uf.Axis.uniform(*spec)
        except ValueError:
            return None

    def make_edges(edges):
        try:
            return uf.Axis(edges)
        except ValueError:
            return None

    return st.one_of(uniform_axes().map(make_uniform),
                     nonuniform_axes().map(make_edges))


def values(rng, axis, n):
    """Edges, their ulp neighbours, bin centres, interior and outside
    points, NaN, ±inf and -0.0."""
    e = axis.edges
    span = e[-1] - e[0]
    pool = np.concatenate([
        e, np.nextafter(e, np.inf), np.nextafter(e, -np.inf),
        0.5 * (e[:-1] + e[1:]),
        [np.nan, np.inf, -np.inf, -0.0, 0.0, e[0] - span, e[-1] + span]])
    v = rng.choice(pool, n)
    inside = rng.random(n) < 0.3
    v[inside] = rng.uniform(e[0], e[-1], int(inside.sum()))
    return v


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(true_axis=axes(), meas_axis=axes(),
       n=st.sampled_from([1, 5, 300, 16_383, 16_384, 16_385, 65_535, 65_536, 65_537,
                          140_000]),
       seed=st.integers(0, 2**32 - 1))
def test_matrix_equals_histogram_formula(true_axis, meas_axis, n, seed):
    assume(true_axis is not None and meas_axis is not None)
    rng = np.random.default_rng(seed)
    # one pair inside both axes, so the matrix is never all zero
    inside = np.column_stack([true_axis.centers[:1], meas_axis.centers[:1]])
    pairs = np.vstack([np.column_stack([values(rng, true_axis, n),
                                        values(rng, meas_axis, n)]),
                       inside])
    got = uf.ResponseMatrix.from_pairs(pairs, true_axis, meas_axis).matrix
    want = histogram_formula(pairs, true_axis, meas_axis)
    assert np.array_equal(got, want)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_last_edge_at_the_largest_double_is_closed_silently():
    big = np.finfo(float).max
    edges = np.array([-big, 0.0, big])
    v = np.array([-np.inf, -big, -1.0, 0.0, big, np.inf])
    true_counts, joint = response._pair_counts(np.column_stack([v, v]), edges, edges)
    assert true_counts.tolist() == [2, 2]
    assert joint.tolist() == [[2, 0], [0, 2]]


def test_both_paths_are_exercised():
    assert response._binning(uf.Axis.uniform(0.0, 24.0, 48).edges)[1] is not None
    # not uniform: the edges' positions are 1/3 of a bin off
    assert response._binning(uf.Axis([0.0, 1.0, 3.0]).edges)[1] is None
    # a subnormal span: n / (hi - lo) overflows and the positions are NaN
    assert response._binning(uf.Axis([0.0, 5e-324, 1e-323]).edges)[1] is None


@pytest.mark.parametrize("axis", [
    # rebin_axes edges that differ from np.linspace in the last bits
    uf.rebin_axes(uf.Axis.uniform(0.0, 24.0, 48), 2.0, 3),
    uf.rebin_axes(uf.Axis.uniform(-10.0, 10.0, 100), 1.0, 2)],
    ids=["extension-2-refine-3", "refine-2"])
def test_position_rule_covers_rebinned_axes(axis):
    edges = axis.edges
    assert not np.array_equal(edges, np.linspace(edges[0], edges[-1], edges.size))
    assert response._binning(edges)[1] is not None


def test_block_boundary_is_exact():
    axis = uf.Axis.uniform(-1.0, 1.0, 7)
    n = 3 * response._PAIR_BLOCK + 1
    x = np.linspace(-1.2, 1.2, n)
    pairs = np.column_stack([x, x[::-1]])
    pairs[response._PAIR_BLOCK - 1:response._PAIR_BLOCK + 1, 1] = np.nan
    got = uf.ResponseMatrix.from_pairs(pairs, axis, axis).matrix
    assert np.array_equal(got, histogram_formula(pairs, axis, axis))


def test_temporaries_stay_below_half_the_input():
    axis = uf.Axis.uniform(0.0, 1.0, 50)
    pairs = np.random.default_rng(7).random((500_000, 2))
    tracemalloc.start()
    try:
        uf.ResponseMatrix.from_pairs(pairs, axis, axis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < pairs.nbytes / 2


def test_count_table_is_not_copied_per_block():
    # at 1000 x 1000 bins the table is 8 MB: blocks are added into it in
    # place, with no whole-table temporary per block
    edges = uf.Axis.uniform(0.0, 1.0, 1000).edges
    pairs = np.random.default_rng(8).uniform(-0.1, 1.1, (200_000, 2))
    table = (edges.size + 1) ** 2 * np.dtype(np.intp).itemsize
    buffers = 4 * response._PAIR_BLOCK * 8
    tracemalloc.start()
    try:
        response._pair_counts(pairs, edges, edges)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < table + buffers + 2**20


def rebinned_axes():
    return st.builds(
        lambda lo, width, n, extension, refine: uf.rebin_axes(
            uf.Axis.uniform(lo, lo + width * n, n), extension, refine),
        st.sampled_from([0.0, -10.0, -1.5, 3e5]),
        st.sampled_from([0.5, 0.2, 0.1, 1 / 3, 0.7]), st.integers(1, 50),
        st.sampled_from([1.0, 1.5, 2.0, 3.0]) | st.floats(1.0, 4.0),
        st.integers(1, 5))


def arange_axes():
    # lo + width * arange(n + 1), the way rebin_axes extends an axis
    return st.builds(lambda lo, width, n: uf.Axis(lo + width * np.arange(n + 1)),
                     st.floats(-1e4, 1e4), st.floats(1e-3, 10.0),
                     st.integers(1, 200))


def ulp_axes():
    # a few ulps per bin, in equal or unequal steps
    def build(start, steps):
        edges = [start]
        for k in steps:
            edges.append(edges[-1])
            for _ in range(k):
                edges[-1] = np.nextafter(edges[-1], np.inf)
        return uf.Axis(edges)

    steps = st.lists(st.integers(1, 4), min_size=1, max_size=12) | \
        st.tuples(st.integers(1, 4), st.integers(1, 12)).map(lambda kn: [kn[0]] * kn[1])
    return st.builds(build, st.sampled_from([1.0, -3.0, 1e15, 2.0**52, 0.0, -0.0,
                                             7e-310, -1e300]), steps)


def edge_neighbours(edges, ulps=8):
    """Every edge and the floats up to `ulps` steps either side of it."""
    out, up, down = [edges], edges, edges
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


SPECIALS = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324]


@settings(max_examples=150, deadline=None)
@given(true_axis=rebinned_axes() | arange_axes() | ulp_axes(),
       meas_axis=rebinned_axes() | arange_axes() | ulp_axes(),
       seed=st.integers(0, 2**32 - 1))
def test_values_next_to_every_edge(true_axis, meas_axis, seed):
    rng = np.random.default_rng(seed)
    x = np.concatenate([edge_neighbours(true_axis.edges), SPECIALS])
    y = np.concatenate([edge_neighbours(meas_axis.edges), SPECIALS])
    size = max(x.size, y.size)
    pairs = np.column_stack([np.resize(rng.permutation(x), size),
                             np.resize(rng.permutation(y), size)])
    # one pair per true bin on both axes: no zero column to warn about
    pairs = np.vstack([pairs, np.column_stack([
        true_axis.edges[:-1], np.resize(meas_axis.edges[:-1], true_axis.nbins)])])
    want = histogram_formula(pairs, true_axis, meas_axis)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = uf.ResponseMatrix.from_pairs(pairs, true_axis, meas_axis).matrix
    assert np.array_equal(got, want)


def random_uniform_axes():
    return st.builds(lambda lo, width, n: uf.Axis.uniform(lo, lo + width * n, n),
                     st.floats(-100.0, 100.0), st.floats(1e-3, 10.0),
                     st.integers(1, 120))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(true_axis=rebinned_axes() | random_uniform_axes(),
       meas_axis=rebinned_axes() | random_uniform_axes(),
       n=st.integers(1, 20_000), smear=st.floats(0.0, 3.0),
       seed=st.integers(0, 2**32 - 1))
def test_k_factor_bounds_the_spectral_radius(true_axis, meas_axis, n, smear, seed):
    assume(true_axis.nbins <= 300 and meas_axis.nbins <= 300)
    rng = np.random.default_rng(seed)
    lo, hi = true_axis.low, true_axis.high
    x = rng.uniform(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), n)
    y = x + rng.normal(0.0, smear * (hi - lo) / true_axis.nbins, n)
    y[rng.random(n) < 0.1] = np.nan
    pairs = np.vstack([np.column_stack([x, y]),
                       [[true_axis.centers[0], meas_axis.centers[0]]]])
    R = uf.ResponseMatrix.from_pairs(pairs, true_axis, meas_axis)
    lam = np.linalg.eigvalsh(R.matrix.T @ R.matrix)[-1]
    assert R.k_factor >= lam * (1.0 - 1e-12)
