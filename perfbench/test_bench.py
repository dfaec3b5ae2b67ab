"""Smoke test of the benchmark itself, at reduced problem sizes.

    python3 -m pytest perfbench -q

Every workload runs once untraced and once traced and must print every
metric of ``BENCHMARK.json`` with its unit; the output checks must reject
deliberately wrong results; and the benchmark must refuse to run without
the package.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_prints_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]


def test_unfold_check_rejects_one_order_short(tmp_path):
    import unfolder as uf
    wl = workloads.Wide400(ROOT, tmp_path, seed=3, small=True)
    wl.prepare()
    passed = wl.run_pass(in_process=True)
    assert all(op.error is None for op in passed.values())
    assert wl.check() == {"response": [], "unfold": []}

    n = oracle.stopped_order(wl.stdout["unfold"])
    response = uf.ResponseMatrix.load_json(wl.out / "R.json")
    measured = uf.Histogram.load_json(wl.inputs / "measured.json")
    short = uf.run(response, measured, uf.StoppingPolicy.fixed(n - 1))
    short.result.save_json(wl.out / "result.json")
    assert wl.check()["unfold"], "result one order short was accepted"

    # the right result but a trace one order short
    uf.run(response, measured, uf.StoppingPolicy.fixed(n)).result.save_json(
        wl.out / "result.json")
    lines = (wl.out / "trace.csv").read_text().splitlines(keepends=True)
    (wl.out / "trace.csv").write_text("".join(lines[:-1]))
    assert wl.check()["unfold"], "trace one order short was accepted"


def test_ensemble_check_rejects_wrong_spread(tmp_path):
    wl = workloads.EnsembleCalo(ROOT, tmp_path, seed=3, small=True)
    wl.prepare()
    wl.run_pass()
    assert wl.check() == {"from_pairs": [], "pseudo_experiments": []}
    ens = wl.ens
    wl.ens = type(ens)(order=ens.order, mean=ens.mean,
                       covariance=ens.covariance * 1.3 ** 2,
                       n_experiments=ens.n_experiments)
    assert wl.check()["pseudo_experiments"]


def test_naive_check_rejects_a_non_solution(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.uniform(0.0, 1.0, (6, 6))
    a /= a.sum(axis=0)
    g = a @ rng.uniform(10.0, 20.0, 6)
    f = np.linalg.solve(a, g)
    response = {"matrix": a.tolist()}
    (tmp_path / "g.json").write_text(json.dumps({"contents": g.tolist()}))
    (tmp_path / "f.json").write_text(json.dumps({"contents": f.tolist()}))
    assert oracle.check_naive(response, tmp_path / "g.json", tmp_path / "f.json") == []
    f[2] += 1.0
    (tmp_path / "f.json").write_text(json.dumps({"contents": f.tolist()}))
    assert oracle.check_naive(response, tmp_path / "g.json", tmp_path / "f.json")


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = run_bench("demo-cli", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
