"""pseudo_experiments propagates the ensemble's moments through the
reference recursion; pinned to the per-experiment iteration."""

import numpy as np
import pytest

import unfolder as uf

from _oracles import random_response_matrix


def scenario():
    return uf.Scenario(truth=uf.GaussianTruth(0.5, 1.2),
                       smearing=uf.GaussianSmearing(0.4), entries=3000,
                       seed=4242, meas_axis=uf.Axis.uniform(-3.0, 4.0, 11))


def response(sc, nx=9, seed=17):
    """Random column-substochastic response onto a different true axis."""
    a = random_response_matrix(np.random.default_rng(seed), nx, sc.meas_axis.nbins)
    return uf.ResponseMatrix(uf.Axis.uniform(-3.5, 4.5, nx), sc.meas_axis, a)


def measured_counts(sc, n_experiments, poisson_total):
    rows = []
    for k in range(n_experiments):
        rng = np.random.default_rng(sc.seed + k)
        n = int(rng.poisson(sc.entries)) if poisson_total else sc.entries
        x = sc.truth.sample(rng, n)
        y = sc.smearing.apply(rng, x)
        rows.append(np.histogram(y, bins=sc.meas_axis.edges)[0])
    return np.vstack(rows).astype(np.float64)


def iterate_each_experiment(R, g, order):
    """Every row of `g` unfolded by the content recursion, then the sample
    mean and covariance."""
    a = R.matrix
    f0 = g @ (a / R.k_factor)
    im = np.eye(a.shape[1]) - (a.T @ a) / R.k_factor
    f = f0.copy()
    for _ in range(order):
        f = f @ im + f0
    return f.mean(axis=0), np.cov(f, rowvar=False)


@pytest.mark.parametrize("order", [0, 1, 7, 40])
@pytest.mark.parametrize("poisson_total", [True, False])
def test_moments_match_per_experiment_iteration(order, poisson_total):
    sc = scenario()
    R = response(sc)
    ens = uf.pseudo_experiments(sc, 60, R, uf.StoppingPolicy.fixed(order),
                                poisson_total=poisson_total, workers=1)
    mean, cov = iterate_each_experiment(
        R, measured_counts(sc, 60, poisson_total), order)
    assert ens.order == order
    np.testing.assert_allclose(ens.mean, mean, rtol=1e-12,
                               atol=1e-12 * np.abs(mean).max())
    np.testing.assert_allclose(ens.covariance, cov, rtol=1e-12,
                               atol=1e-12 * np.abs(cov).max())


@pytest.mark.parametrize("order", [0, 5, 30])
def test_worker_count_does_not_change_moments(order):
    sc = scenario()
    R = response(sc, seed=99)
    policy = uf.StoppingPolicy.fixed(order)
    one = uf.pseudo_experiments(sc, 24, R, policy, workers=1)
    two = uf.pseudo_experiments(sc, 24, R, policy, workers=2)
    assert one.order == two.order == order
    assert np.array_equal(one.mean, two.mean)
    assert np.array_equal(one.covariance, two.covariance)

