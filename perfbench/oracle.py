"""Output checks, independent of the package's own code paths.

The iteration ``f_{N+1} = f_N + (f0 - M f_N)`` with ``M = K⁻¹AᵀA`` symmetric
PSD has the closed form ``f_N = V diag(p_N(λ)) Vᵀ f0`` from one ``eigh`` of
``M``, with ``p_N(λ) = Σ_{k≤N} (1-λ)^k``; the covariance square root
``E_N`` follows from ``E0`` the same way.  The checks compare the files the
CLI wrote against that closed form, with the error budget re-derived here
from the definitions in the README.  Every check returns a list of failure
messages, empty when the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
import re

import numpy as np

CONTENT_TOL = 1e-9     # of the largest |content|
STAT_TOL = 1e-9        # relative, per bin
BUDGET_TOL = 1e-9      # relative, per trace entry
ENSEMBLE_TOL = 0.15    # relative, ensemble spread against propagated error
MIN_TOTAL_PATIENCE = 10

_STOP_LINE = re.compile(r"stopped at order (\d+)")


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def axis_edges(d):
    if "edges" in d:
        return np.asarray(d["edges"], dtype=np.float64)
    return np.linspace(float(d["low"]), float(d["high"]), int(d["nbins"]) + 1)


def k_factor(a):
    return float((a.T @ a).sum(axis=0).max())


def read_pairs_csv(path):
    """(n, 2) array of a pairs CSV; the ``MISS`` token becomes NaN."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    x = np.array([float(r[0]) for r in rows])
    y = np.array([math.nan if r[1] == "MISS" else float(r[1]) for r in rows])
    return np.column_stack([x, y])


def response_from_pairs(pairs, true_edges, meas_edges):
    """Migration matrix: fraction of pairs from each true bin per measured bin."""
    x, y = pairs[:, 0], pairs[:, 1]
    denom, _ = np.histogram(x, bins=true_edges)
    ok = np.isfinite(y)
    num, _, _ = np.histogram2d(y[ok], x[ok], bins=(meas_edges, true_edges))
    return num / np.maximum(denom, 1)[None, :]


class Problem:
    """Closed-form iterates of one unfolding problem.

    `a` is the response matrix (measured x true), `k` its normalization,
    `g` and `g_err` the measured contents and per-bin errors, `widths` the
    true-bin volumes.
    """

    def __init__(self, a, k, g, g_err, widths):
        bt = a.T / k
        m = bt @ a
        lam, self.v = np.linalg.eigh(0.5 * (m + m.T))
        self.lam = np.clip(lam, 0.0, 1.0)
        self.c = self.v.T @ (bt @ g)
        self.b = self.v.T @ (bt * g_err[None, :])
        self.widths = widths
        self.nx = a.shape[1]

    def filter(self, n):
        """p_n(λ) = Σ_{k≤n} (1-λ)^k, with the limit n+1 at λ = 0."""
        lam = self.lam
        with np.errstate(divide="ignore", invalid="ignore"):
            p = -np.expm1((n + 1) * np.log1p(-lam)) / lam
        return np.where(lam > 0.0, p, n + 1.0)

    def iterate(self, n):
        """Contents and per-bin statistical errors at order n."""
        p = self.filter(n)
        contents = self.v @ (p * self.c)
        e_n = self.v @ (p[:, None] * self.b)
        return contents, np.sqrt(np.einsum("ij,ij->i", e_n, e_n))

    def budget(self, n):
        """(bias_bound, stat_integral, stat_fraction, total) at order n,
        without a systematic offset."""
        f, stat = self.iterate(n)
        integral = float(stat.sum())
        denom = float(np.abs(f).sum())
        fraction = math.inf if denom == 0.0 else integral / denom
        bias = 1.0 / math.sqrt(float(self.widths.min())) / (n + 2) \
            * math.sqrt(float(np.sum(f * f / self.widths)))
        return bias, integral, fraction, bias * self.nx + integral


def problem_from_files(response, measured_path):
    """Problem for a response (dict with ``matrix``, ``k_factor`` and the
    true axis) and a measured histogram JSON."""
    g = load_json(measured_path)
    return Problem(np.asarray(response["matrix"], dtype=np.float64),
                   float(response["k_factor"]),
                   np.asarray(g["contents"], dtype=np.float64),
                   np.asarray(g["stat_err"], dtype=np.float64),
                   np.diff(axis_edges(response["true_axis"])))


def stopped_order(stdout):
    m = _STOP_LINE.search(stdout)
    return None if m is None else int(m.group(1))


def read_trace(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {int(r["n"]): r for r in rows}


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def check_simulate(directory):
    """truth.json and measured.json are the histograms of pairs.csv."""
    truth = load_json(directory / "truth.json")
    measured = load_json(directory / "measured.json")
    t_edges = axis_edges(truth["axis"])
    m_edges = axis_edges(measured["axis"])
    pairs = read_pairs_csv(directory / "pairs.csv")
    x, y = pairs[:, 0], pairs[:, 1]
    errors = []
    if not np.array_equal(np.histogram(x, t_edges)[0], truth["contents"]):
        errors.append("truth.json is not the histogram of the true pairs")
    mc = np.histogram(y[np.isfinite(y)], m_edges)[0]
    if not np.array_equal(mc, measured["contents"]) \
            or not np.array_equal(np.sqrt(mc), measured["stat_err"]):
        errors.append("measured.json is not the histogram of the measured pairs")
    return errors


def check_response(response):
    """Entries are probabilities and K is the largest column sum of AᵀA."""
    a = np.asarray(response["matrix"], dtype=np.float64)
    errors = []
    if np.any(a < 0) or np.any(a.sum(axis=0) > 1.0 + 1e-9):
        errors.append("response entries are not migration probabilities")
    if _rel(float(response["k_factor"]), k_factor(a)) > 1e-12:
        errors.append(f"k_factor {response['k_factor']!r} != max column sum of AtA")
    return errors


def check_unfold(problem, result_path, trace_path, stdout, rule, threshold=None):
    """Check an unfold's result file and trace against the closed form.

    `rule` is ``"stat_fraction"`` (the stat fraction first reaches
    `threshold` at the stopped order) or ``"min_total"`` (the stopped order
    is the argmin of the total budget, confirmed by ten further orders).
    """
    n = stopped_order(stdout)
    if n is None:
        return [f"no stop order in output {stdout!r}"]
    errors = []
    result = load_json(result_path)
    contents = np.asarray(result["contents"], dtype=np.float64)
    stat = np.asarray(result["stat_err"], dtype=np.float64)
    want_f, want_stat = problem.iterate(n)
    scale = float(np.abs(want_f).max())
    dev = float(np.abs(contents - want_f).max()) / scale
    if not dev <= CONTENT_TOL:
        errors.append(f"contents at order {n} deviate by {dev:.3g} of the peak")
    nz = want_stat > 0
    sdev = float((np.abs(stat - want_stat)[nz] / want_stat[nz]).max(initial=0.0))
    if not sdev <= STAT_TOL or np.any(stat[~nz] != 0):
        errors.append(f"stat_err at order {n} deviates by {sdev:.3g} relative")

    trace = read_trace(trace_path)
    last = max(trace)
    if sorted(trace) != list(range(last + 1)):
        errors.append("trace orders are not 0..N")
        return errors
    want_last = n if rule == "stat_fraction" else n + MIN_TOTAL_PATIENCE
    if last != want_last:
        errors.append(f"trace ends at order {last}, expected {want_last}")
        return errors
    orders = list(range(max(n - 1, 0), n + 1)) if rule == "stat_fraction" \
        else list(range(last + 1))
    budgets = {m: problem.budget(m) for m in orders}
    for m, (bias, integral, fraction, total) in budgets.items():
        row = trace[m]
        got = (float(row["bias_bound"]), float(row["stat_integral"]),
               float(row["stat_fraction"]), float(row["total"]))
        worst = max(_rel(x, y) for x, y in zip(got, (bias, integral, fraction, total)))
        if not worst <= BUDGET_TOL:
            errors.append(f"trace row {m} deviates by {worst:.3g} relative")
            break
    if rule == "stat_fraction":
        if budgets[n][2] < threshold or (n > 0 and budgets[n - 1][2] >= threshold):
            errors.append(f"stat fraction does not cross {threshold} at order {n}")
    else:
        best = min(orders, key=lambda m: (budgets[m][3], m))
        if best != n:
            errors.append(f"total budget is smallest at order {best}, not {n}")
    return errors


def check_naive(response, measured_path, naive_path):
    """The unregularized solution solves A f = g in the least-squares sense:
    its residual is within ten times that of a reference lstsq solution,
    plus 1e-6 of |g|."""
    a = np.asarray(response["matrix"], dtype=np.float64)
    g = np.asarray(load_json(measured_path)["contents"], dtype=np.float64)
    f = np.asarray(load_json(naive_path)["contents"], dtype=np.float64)
    if not np.all(np.isfinite(f)):
        return ["naive inversion is not finite"]
    ref = np.linalg.lstsq(a, g, rcond=None)[0]
    got, want = np.linalg.norm(a @ f - g), np.linalg.norm(a @ ref - g)
    if got > 1e-6 * np.linalg.norm(g) + 10.0 * want:
        return [f"naive inversion residual {got:.3g} exceeds lstsq {want:.3g}"]
    return []


def powerlaw_bin_mass(edges, exponent, scale_energy):
    nt = exponent * scale_energy
    cdf = 1.0 - (1.0 + np.clip(edges, 0.0, None) / nt) ** (1.0 - exponent)
    return np.diff(np.where(edges < 0, 0.0, cdf))


def check_ensemble(a, k, expected_counts, order, covariance, mean, widths):
    """Ensemble spread against the propagated error of the expected counts,
    on bins above 5% of the ensemble-mean peak."""
    problem = Problem(a, k, expected_counts, np.sqrt(expected_counts), widths)
    _, predicted = problem.iterate(order)
    empirical = np.sqrt(np.diag(covariance))
    selected = mean > 0.05 * mean.max()
    rel = np.abs(empirical[selected] - predicted[selected]) / predicted[selected]
    worst = float(rel.max())
    if not worst <= ENSEMBLE_TOL:
        return [f"ensemble spread deviates by {worst:.3f} relative at order {order}"]
    return []
