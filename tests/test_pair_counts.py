"""from_pairs counts in blocks; its matrix is pinned bit for bit to the
np.histogram / np.histogram2d formula, and its temporaries stay small."""

import tracemalloc

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
       n=st.sampled_from([1, 5, 300, 65_535, 65_536, 65_537, 140_000]),
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


def test_both_paths_are_exercised():
    assert response._uniform_scale(uf.Axis.uniform(0.0, 24.0, 48).edges) == 2.0
    # not linspace edges
    assert response._uniform_scale(uf.Axis([0.0, 1.0, 3.0]).edges) is None
    # two ulps per bin: outside the margin the one-bin correction needs
    fine = np.nextafter(1e15, np.inf) - 1e15
    assert response._uniform_scale(
        uf.Axis.uniform(1e15, 1e15 + 16 * fine, 8).edges) is None


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
