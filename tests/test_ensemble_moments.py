"""pseudo_experiments propagates the ensemble's moments through one run of
the reference recursion, on the ensemble's mean counts with their sample
covariance; pinned to the per-experiment iteration and to the closed form
of B_N from the Landweber filter factors."""

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


def shaped_response(sc, kind):
    """Responses on the scenario's 11 measured bins: more and fewer true
    bins, a duplicated column (rank 10 of 11), the identity (every s²/K is
    1) and the identity with K 1e-12 below the computed 1 (every s²/K just
    above 1)."""
    ny = sc.meas_axis.nbins
    if kind == "identity":
        return uf.ResponseMatrix(sc.meas_axis, sc.meas_axis, np.eye(ny))
    if kind == "k-below":
        return uf.ResponseMatrix(sc.meas_axis, sc.meas_axis, np.eye(ny),
                                 k_override=1 - 1e-12)
    nx = {"nx>ny": 15, "nx<ny": 7}.get(kind, ny)
    a = random_response_matrix(np.random.default_rng(23), nx, ny)
    if kind == "rank-deficient":
        a[:, 5] = a[:, 4]
    return uf.ResponseMatrix(uf.Axis.uniform(-3.5, 4.5, nx), sc.meas_axis, a)


def landweber_operator(R, order):
    """B_N in closed form: ``V diag(φ_N/s) Uᵀ`` from the thin SVD
    ``A = U diag(s) Vᵀ``, with the filter factors ``φ_N = 1 - (1 - s²/K)^(N+1)``
    (Hansen, Discrete Inverse Problems, 2010, ch. 6), 0 where s == 0."""
    u, s, vt = np.linalg.svd(R.matrix, full_matrices=False)
    phi = 1 - (1 - s * s / R.k_factor) ** (order + 1)
    d = np.divide(phi, s, out=np.zeros_like(s), where=s > 0)
    return vt.T @ (d[:, None] * u.T)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("order", [0, 1, 30, 300])
@pytest.mark.parametrize("kind", ["nx>ny", "nx<ny", "rank-deficient",
                                  "identity", "k-below"])
def test_moments_match_landweber_closed_form(kind, order):
    sc = scenario()
    R = shaped_response(sc, kind)
    ens = uf.pseudo_experiments(sc, 40, R, uf.StoppingPolicy.fixed(order), workers=1)
    g = measured_counts(sc, 40, True)
    b = landweber_operator(R, order)
    mean, cov = b @ g.mean(axis=0), b @ np.cov(g, rowvar=False) @ b.T
    assert ens.order == order
    np.testing.assert_allclose(ens.mean, mean, rtol=1e-10,
                               atol=1e-10 * np.abs(mean).max())
    np.testing.assert_allclose(ens.covariance, cov, rtol=1e-10,
                               atol=1e-10 * np.abs(cov).max())


def counts_moments(g):
    """Mean and sample covariance of the rows of `g`, formed as
    pseudo_experiments forms them."""
    mean = g.mean(axis=0)
    d = g - mean
    return mean, np.einsum("ki,kj->ij", d, d) / (len(g) - 1)


@pytest.mark.parametrize("policy", [uf.StoppingPolicy.stat_fraction(0.05),
                                    uf.StoppingPolicy.min_total()],
                         ids=["stat_fraction", "min_total"])
def test_moments_are_one_run_on_the_mean_counts(policy):
    sc = scenario()
    R = response(sc)
    ens = uf.pseudo_experiments(sc, 30, R, policy, workers=1)
    mean_g, cov_g = counts_moments(measured_counts(sc, 30, True))
    out = uf.run(R, uf.Histogram(sc.meas_axis, mean_g, kind="counts"), policy,
                 covariance=cov_g)
    assert ens.order == out.stopped_at
    assert np.array_equal(ens.mean, out.result.contents)
    assert np.array_equal(ens.covariance, out.state.covariance)


# alone, experiment 4242 stops stat_fraction(0.05) at order 8 and 4251 at 6;
# the ensemble's mean counts and covariance stop it at 7
SEEDS = list(range(4242, 4254))


@pytest.mark.parametrize("seeds", [SEEDS, [4251] + [s for s in SEEDS if s != 4251][::-1]],
                         ids=["in-order", "permuted"])
def test_order_does_not_depend_on_the_first_seed(seeds):
    sc = scenario()
    R = response(sc)
    ens = uf.pseudo_experiments(sc, len(seeds), R, uf.StoppingPolicy.stat_fraction(0.05),
                                seeds=seeds, workers=1)
    ref = uf.pseudo_experiments(sc, len(SEEDS), R, uf.StoppingPolicy.stat_fraction(0.05),
                                seeds=SEEDS, workers=1)
    assert ens.order == ref.order == 7
    np.testing.assert_allclose(ens.mean, ref.mean, rtol=1e-13)
    np.testing.assert_allclose(ens.covariance, ref.covariance, rtol=1e-12,
                               atol=1e-13 * np.abs(ref.covariance).max())


@pytest.mark.parametrize("policy", [uf.StoppingPolicy.fixed(5),
                                    uf.StoppingPolicy.stat_fraction(0.05)],
                         ids=["fixed", "stat_fraction"])
def test_one_recursion(monkeypatch, policy):
    from unfolder import unfold
    calls = []
    step = unfold.step

    def counting_step(s):
        calls.append(s.n)
        return step(s)

    monkeypatch.setattr(unfold, "step", counting_step)
    sc = scenario()
    ens = uf.pseudo_experiments(sc, 20, response(sc), policy, workers=1)
    assert ens.order > 0
    assert calls == list(range(ens.order))
