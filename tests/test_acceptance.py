"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Statistical checks use frozen seeds.
"""

import math
import time
import warnings

import numpy as np
import pytest
import scipy.special

import unfolder as uf

from _oracles import power_iter_lambda_max, random_response_matrix

# traces gathered by the scenario criteria, audited by the budget criterion
COLLECTED_TRACES = []


def check(num, name, ok, detail=""):
    line = f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, f"criterion {num} ({name}): {detail}"


# --- shared fixtures ---------------------------------------------------------


@pytest.fixture(scope="module")
def cauchy_setup():
    axis = uf.Axis.uniform(-10.0, 10.0, 100)
    response = uf.ResponseMatrix.from_kernel(
        uf.GaussianSmearing(1.0).kernel(), axis, axis)
    scenario = uf.Scenario(truth=uf.CauchyTruth(0.0, 1.0),
                           smearing=uf.GaussianSmearing(1.0),
                           entries=5000, seed=66001, meas_axis=axis)
    return axis, response, scenario


@pytest.fixture(scope="module")
def calorimeter_setup():
    axis = uf.Axis.uniform(0.0, 24.0, 48)
    truth = uf.PowerlawTruth(3.0, 1.0)
    smearing = uf.CalorimeterSmearing(1.15, 0.055)
    pairs = uf.generate(uf.Scenario(truth=truth, smearing=smearing,
                                    entries=2_000_000, seed=990001,
                                    meas_axis=axis)).pairs
    response = uf.ResponseMatrix.from_pairs(pairs, axis, axis)
    return axis, response, truth, smearing


@pytest.fixture(scope="module")
def smooth_system():
    """Well-conditioned noiseless 8-bin system with known truth."""
    axis = uf.Axis.uniform(0.0, 4.0, 8)
    response = uf.ResponseMatrix.from_kernel(
        uf.GaussianSmearing(0.5).kernel(), axis, axis)
    f_true = np.diff(uf.GaussianTruth(2.0, 1.0).cdf(axis.edges)) * 1000.0
    return axis, response, f_true


# --- criteria ---------------------------------------------------------------


def test_01_closed_form_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(100):
        a = random_response_matrix(rng, 8, 8)
        axis = uf.Axis.uniform(0.0, 8.0, 8)
        rm = uf.ResponseMatrix(axis, axis, a)
        f_true = rng.uniform(0.0, 1.0, 8)
        g = uf.Histogram(axis, a @ f_true, stat_err=np.zeros(8))
        state = uf.init(rm, g)
        shrink = np.eye(8) - rm.matrix.T @ rm.matrix / rm.k_factor
        power = shrink.copy()
        for n in range(51):
            if n > 0:
                state = uf.step(state)
                power = power @ shrink
            oracle = (np.eye(8) - power) @ f_true
            worst = max(worst, float(np.abs(state.f_n - oracle).max()))
    elapsed = time.monotonic() - t0
    check(1, "closed-form oracle equivalence",
          worst < 1e-10 and elapsed < 10.0,
          f"max deviation {worst:.2e}, {elapsed:.1f}s for 100 systems x N<=50")


def test_02_convolution_normalization():
    sigma = 0.5
    true_axis = uf.Axis.uniform(-4.0, 4.0, 32)
    meas_axis = uf.Axis.uniform(-8.0, 8.0, 64)  # 8 sigma of padding
    rm = uf.ResponseMatrix.from_kernel(uf.GaussianSmearing(sigma).kernel(),
                                       true_axis, meas_axis)
    check(2, "convolution normalization factor",
          abs(rm.k_factor - 1.0) <= 1e-6,
          f"K = {rm.k_factor!r}")


def test_03_spectral_guard():
    rng = np.random.default_rng(31415)
    violations = 0
    worst_gap = math.inf
    for _ in range(1000):
        ny = int(rng.integers(2, 31))
        nx = int(rng.integers(2, 31))
        a = rng.uniform(0.0, 1.0, (ny, nx))
        k = uf.compute_k(a)
        lam = power_iter_lambda_max(a.T @ a, iters=100)
        if k + 1e-9 < lam:
            violations += 1
        worst_gap = min(worst_gap, k - lam)
    check(3, "normalization bounds the spectral radius",
          violations == 0,
          f"0 violations target, got {violations}; smallest K - lambda "
          f"= {worst_gap:.3e}")


def test_04_noiseless_consistency():
    # singular response: two true bins with identical columns
    a = np.array([[0.80, 0.10, 0.05, 0.05],
                  [0.15, 0.80, 0.15, 0.15],
                  [0.05, 0.10, 0.80, 0.80]])
    rm = uf.ResponseMatrix(uf.Axis.uniform(0, 4, 4), uf.Axis.uniform(0, 3, 3), a)
    f_true = np.array([5.0, 3.0, 2.0, 4.0])
    g = uf.Histogram(rm.meas_axis, a @ f_true, stat_err=np.zeros(3))
    limit = f_true - (uf.kernel_projector(rm) @ f_true)
    state = uf.init(rm, g)
    prev = float(np.linalg.norm(state.f_n - limit))
    monotone = True
    reached_at = None
    for n in range(1, 10001):
        state = uf.step(state)
        dist = float(np.linalg.norm(state.f_n - limit))
        if dist > prev + 1e-15:
            monotone = False
        prev = dist
        if dist < 1e-6:
            reached_at = n
            break

    # invertible response: the limit is the truth itself
    b = a[:, :3]
    rm_inv = uf.ResponseMatrix(uf.Axis.uniform(0, 3, 3), rm.meas_axis, b)
    f3 = np.array([5.0, 3.0, 2.0])
    g3 = uf.Histogram(rm.meas_axis, b @ f3, stat_err=np.zeros(3))
    state = uf.init(rm_inv, g3)
    inv_reached = None
    for n in range(1, 10001):
        state = uf.step(state)
        if np.linalg.norm(state.f_n - f3) < 1e-6:
            inv_reached = n
            break
    check(4, "noiseless limit is the projected truth",
          monotone and reached_at is not None and inv_reached is not None,
          f"singular reached 1e-6 at n={reached_at} (monotone={monotone}), "
          f"invertible at n={inv_reached}")


def test_05_bias_bound_inequality(smooth_system):
    axis, rm, f_true = smooth_system
    width = float(axis.widths[0])
    g = uf.Histogram(axis, rm.matrix @ f_true, stat_err=np.zeros(8))
    state = uf.init(rm, g)
    norm_true = uf.l2_density_norm(f_true, axis.widths)
    violations = 0
    worst_ratio = 0.0
    for n in range(201):
        if n > 0:
            state = uf.step(state)
        per_bin_avg_dev = np.abs(f_true - state.f_n) / width
        bound = (1.0 / math.sqrt(width)) / (state.n + 2) * norm_true
        worst_ratio = max(worst_ratio, float(per_bin_avg_dev.max() / bound))
        violations += int(np.any(per_bin_avg_dev > bound))
    check(5, "bias bound holds at every order",
          violations == 0,
          f"0 violations for N<=200, worst deviation/bound = {worst_ratio:.3f}")


def test_06_covariance_propagation_against_ensemble(cauchy_setup):
    t0 = time.monotonic()
    axis, rm, scenario = cauchy_setup
    sc = uf.Scenario(truth=scenario.truth, smearing=scenario.smearing,
                     entries=5000, seed=44001, meas_axis=axis)
    ens = uf.pseudo_experiments(sc, 1000, rm, uf.StoppingPolicy.stat_fraction(0.05))

    # prediction from the expected bin counts of the sampling model
    p_true = np.diff(sc.truth.cdf(axis.edges))
    mu = sc.entries * (rm.matrix @ p_true)
    g_expected = uf.Histogram(axis, mu, stat_err=np.sqrt(mu), kind="counts")
    state = uf.init(rm, g_expected)
    for _ in range(ens.order):
        state = uf.step(state)
    predicted, _, _ = uf.stat_summary(state)

    empirical = np.sqrt(np.diag(ens.covariance))
    selected = ens.mean > 0.05 * ens.mean.max()
    rel = np.abs(empirical[selected] - predicted[selected]) / predicted[selected]
    elapsed = time.monotonic() - t0
    check(6, "propagated covariance matches 1000 pseudo-experiments",
          bool(rel.max() <= 0.15) and elapsed < 120.0,
          f"order {ens.order}, {selected.sum()} bins above 5% of peak, "
          f"max rel dev {rel.max():.3f}, {elapsed:.0f}s")


def test_07_systematic_bound(smooth_system):
    # harmonic coefficient: growth factor equals H_{n+1} = digamma(n+2) + gamma
    h = np.cumsum(1.0 / np.arange(1, 10002, dtype=np.longdouble)).astype(float)
    digamma_form = scipy.special.digamma(np.arange(2, 10003, dtype=float)) \
        + np.euler_gamma
    identity_dev = float(np.abs(h - digamma_form).max() / h[-1])

    axis, rm, f_true = smooth_system
    delta_g = np.full(8, 0.25)
    probe = uf.IterateState(n=0, f_n=f_true, e_n=np.zeros((8, 1)), f0=f_true,
                            e0=np.zeros((8, 1)), m0=np.eye(8),
                            volumes=axis.widths)
    base = uf.syst_bound(probe, rm, delta_g, 1.0)
    ratio_dev = 0.0
    from dataclasses import replace
    for n in (1, 2, 9, 99, 999, 9999):
        ratio = uf.syst_bound(replace(probe, n=n), rm, delta_g, 1.0) / base
        ratio_dev = max(ratio_dev, abs(ratio - h[n]) / h[n])

    # full inequality with an injected offset, N <= 200
    width = float(axis.widths[0])
    delta = 0.05 * (rm.matrix @ f_true)
    shifted = rm.matrix.T @ delta / rm.k_factor
    state = uf.IterateState(n=0, f_n=shifted, e_n=np.zeros((8, 1)), f0=shifted,
                            e0=np.zeros((8, 1)),
                            m0=rm.matrix.T @ rm.matrix / rm.k_factor,
                            volumes=axis.widths)
    norm_shift = uf.l2_density_norm(shifted, axis.widths)
    violations = 0
    worst = 0.0
    for n in range(201):
        if n > 0:
            state = uf.step(state)
        dev = np.abs(state.f_n) / width
        bound = (1.0 / math.sqrt(width)) * uf.harmonic_number(state.n + 1) \
            * norm_shift
        worst = max(worst, float(dev.max() / bound))
        violations += int(np.any(dev > bound))
    check(7, "systematic bound: harmonic growth and inequality",
          identity_dev < 1e-12 and ratio_dev < 1e-12 and violations == 0,
          f"digamma identity dev {identity_dev:.1e}, ratio dev {ratio_dev:.1e}, "
          f"0 inequality violations (worst {worst:.3f})")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_08_ill_posedness_demo_and_restoration(cauchy_setup):
    axis, rm, scenario = cauchy_setup
    wild = 0
    improved = 0
    for k in range(100):
        sc = uf.Scenario(truth=scenario.truth, smearing=scenario.smearing,
                         entries=scenario.entries, seed=scenario.seed + k,
                         meas_axis=axis)
        res = uf.generate(sc)
        inverted = uf.naive_invert(rm, res.measured)
        c = inverted.contents
        flips = np.sum(np.sign(c[1:]) * np.sign(c[:-1]) < 0) / (len(c) - 1)
        if flips >= 0.30 and np.abs(c).max() > 10.0 * res.truth_hist.contents.max():
            wild += 1
        out = uf.run(rm, res.measured, uf.StoppingPolicy.stat_fraction(0.05))
        COLLECTED_TRACES.append(out.trace)
        if uf.l1_distance(out.result, res.truth_hist) \
                < uf.l1_distance(res.measured, res.truth_hist):
            improved += 1
    check(8, "naive inversion oscillates while the iteration restores",
          wild >= 95 and improved >= 95,
          f"oscillatory inversion {wild}/100, L1 improved {improved}/100")


def test_09_calorimeter_restoration(calorimeter_setup):
    axis, rm, truth, smearing = calorimeter_setup
    improved = 0
    ratios = []
    for k in range(100):
        sc = uf.Scenario(truth=truth, smearing=smearing, entries=20000,
                         seed=66002 + k, meas_axis=axis)
        res = uf.generate(sc)
        out = uf.run(rm, res.measured, uf.StoppingPolicy.stat_fraction(0.023))
        COLLECTED_TRACES.append(out.trace)
        d_unfolded = uf.l1_distance(out.result, res.truth_hist)
        d_measured = uf.l1_distance(res.measured, res.truth_hist)
        ratios.append(d_unfolded / d_measured)
        improved += d_unfolded < d_measured
    check(9, "calorimeter spectrum restoration",
          improved >= 95,
          f"L1 improved {improved}/100, median ratio "
          f"{float(np.median(ratios)):.2f}")


def test_10_monotone_error_budget(cauchy_setup):
    axis, rm, scenario = cauchy_setup
    g = uf.generate(scenario).measured
    runs = [uf.run(rm, g, uf.StoppingPolicy.min_total()),
            uf.run(rm, g, uf.StoppingPolicy.min_total(), syst=0.03 * g.contents)]
    argmin_ok = all(out.stopped_at == int(np.argmin([b.total for b in out.trace]))
                    for out in runs)

    traces = COLLECTED_TRACES + [out.trace for out in runs]
    bias_viol = stat_viol = syst_viol = 0
    for trace in traces:
        for prev, cur in zip(trace[:-1], trace[1:]):
            bias_viol += int(not cur.bias_bound < prev.bias_bound)
            stat_viol += int(cur.stat_integral < prev.stat_integral * (1 - 1e-12))
            syst_viol += int(cur.syst_bound < prev.syst_bound)
    check(10, "error budget monotone, min-total returns the trace argmin",
          bias_viol == 0 and stat_viol == 0 and syst_viol == 0 and argmin_ok
          and len(traces) >= 200,
          f"{len(traces)} traces audited, violations bias/stat/syst = "
          f"{bias_viol}/{stat_viol}/{syst_viol}, argmin match: {argmin_ok}")
