"""Independent reference implementations used only to check the library."""

import math

import numpy as np


def power_iter_lambda_max(sym, iters=200, seed=0):
    """Largest eigenvalue of a symmetric PSD matrix by power iteration.

    Returns the final Rayleigh quotient, which never exceeds the true
    eigenvalue, so it is a safe lower bound for inequality checks.
    """
    rng = np.random.default_rng(seed)
    v = rng.random(sym.shape[0]) + 0.1
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = sym @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
    return float(v @ (sym @ v))


def gauss_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def gauss_bin_mass(lo, hi, center, sigma):
    """Exact Gaussian probability mass on [lo, hi]."""
    return gauss_cdf((hi - center) / sigma) - gauss_cdf((lo - center) / sigma)


def erf_response_matrix(true_axis, meas_axis, sigma, nsub=200):
    """Gaussian-convolution transfer matrix from exact bin masses,
    averaging over `nsub` uniform positions inside each true bin."""
    out = np.zeros((meas_axis.nbins, true_axis.nbins))
    for j in range(true_axis.nbins):
        lo, hi = true_axis.edges[j], true_axis.edges[j + 1]
        xs = lo + (np.arange(nsub) + 0.5) / nsub * (hi - lo)
        for i in range(meas_axis.nbins):
            a, b = meas_axis.edges[i], meas_axis.edges[i + 1]
            out[i, j] = np.mean([gauss_bin_mass(a, b, x, sigma) for x in xs])
    return out


def random_response_matrix(rng, nx, ny, accept=(0.6, 1.0)):
    """Random non-negative matrix with column sums drawn from `accept`;
    almost surely full rank when square."""
    a = rng.uniform(0.0, 1.0, (ny, nx)) + 1e-3
    a /= a.sum(axis=0, keepdims=True)
    a *= rng.uniform(*accept, nx)[None, :]
    return a


def random_edges(rng, n):
    """Edges of `n` bins with independent random widths in [0.1, 2) from a
    random start: for n > 1, almost surely a non-uniform axis."""
    widths = rng.uniform(0.1, 2.0, n)
    return rng.uniform(-5.0, 5.0) + np.concatenate([[0.0], np.cumsum(widths)])


def geometric_sum_iterates(m, first, orders):
    """f_N = sum_{k=0..N} (I - m)^k @ first for each N in `orders`,
    accumulated term by term (independent of the recursive form)."""
    im = np.eye(m.shape[0]) - m
    term = first.copy()
    acc = first.copy()
    out = {}
    n = 0
    if n in orders:
        out[0] = acc.copy()
    for n in range(1, max(orders) + 1):
        term = im @ term
        acc = acc + term
        if n in orders:
            out[n] = acc.copy()
    return out
