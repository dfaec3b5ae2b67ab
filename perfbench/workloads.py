"""The benchmark's workloads.

Each workload builds its inputs from the seed in :meth:`prepare` (untimed),
then runs passes: one pass is a fixed sequence of operations, each a CLI
command or a public library call.  A pass returns an :class:`Op` per
operation name, with its wall and CPU seconds and an output digest;
:meth:`check` compares the outputs of the last pass against the
closed-form oracle.

* ``demo-cli``: the README round trip of both bundled scenarios at desk
  scale (48-100 bins), every command a fresh interpreter.  Interpreter
  start, import, small JSON, pairs CSV and SVG dominate; the recursion
  barely runs.
* ``wide-400`` and ``wide-1000``: the same pipeline at 400 and 1000 bins,
  driven through ``unfolder.cli.main`` in this process, so interpreter
  start does not hide it.  The covariance recursion and the response JSON
  write and read dominate.  At 1000 bins each matrix is 8 MB and three are
  live, more than the L2 cache; at 400 bins they are 1.3 MB each.  Neither
  is in ``BENCHMARK.json``: on a shared host their working set follows the
  cache and memory traffic of other tenants, so their run-to-run spread
  does not stay within a gate's bound.
* ``ensemble-calo``: ``pseudo_experiments`` on the calorimeter scenario with
  two worker threads; sample generation and the batched content-only
  iteration dominate, not the covariance recursion.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

# seed 0 runs the bundled scenarios unchanged; wide-1000 then stops at order 69
DEFAULT_SEED = 0

# the bundled scenarios; --seed shifts their sample seeds
CAUCHY_GAUSS = {
    "truth": {"type": "cauchy", "location": 0.0, "scale": 1.0},
    "smearing": {"type": "gaussian_convolution", "sigma": 1.0},
    "entries": 5000, "seed": 66001,
    "meas_axis": {"low": -10.0, "high": 10.0, "nbins": 100},
    "rebin": {"extension_factor": 1.0, "refine_factor": 1},
}
CALORIMETER = {
    "truth": {"type": "powerlaw_spectrum", "exponent": 3.0, "scale_energy": 1.0},
    "smearing": {"type": "calorimeter", "stochastic_a": 1.15, "constant_b": 0.055},
    "entries": 20000, "seed": 66002,
    "meas_axis": {"low": 0.0, "high": 24.0, "nbins": 48},
    "rebin": {"extension_factor": 1.0, "refine_factor": 1},
}
CALO_RESPONSE_PAIRS = 2_000_000
CALO_RESPONSE_SEED = 990001
N_EXPERIMENTS = 1000
CMD_TIMEOUT_S = 120


def scenario(base, seed, **changes):
    d = json.loads(json.dumps(base))
    d["seed"] = base["seed"] + seed
    for key, value in changes.items():
        d[key] = value
    return d


def package_env(root):
    """Environment for a child interpreter that imports the package from
    ``<root>/src``."""
    env = dict(os.environ)
    src = str(Path(root) / "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not old else src + os.pathsep + old
    return env


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def digest(paths, extra=b""):
    h = hashlib.sha256(extra)
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def cpu_seconds():
    """CPU seconds used so far by every thread of this process and by the
    children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Stopwatch:
    """Wall and CPU seconds since creation."""

    def __init__(self):
        self.wall, self.cpu = time.perf_counter(), cpu_seconds()

    def read(self):
        return time.perf_counter() - self.wall, cpu_seconds() - self.cpu


@dataclass
class Op:
    """One operation of a pass: its wall and CPU seconds, why it failed (if
    it did), and a digest of everything it wrote."""

    name: str
    wall: float
    cpu: float
    error: str | None = None
    digest: str | None = None


def timed_op(name, fn):
    """Run `fn`, which returns the bytes its outputs digest to, as an Op."""
    sw = Stopwatch()
    try:
        blob = fn()
    except Exception as exc:  # a crash is a failed operation, not a stop
        return Op(name, *sw.read(), error=f"{type(exc).__name__}: {exc}")
    return Op(name, *sw.read(), digest=digest([], blob))


def call_main(argv):
    """Run ``unfolder.cli.main`` in this process; (exit code, stdout)."""
    import unfolder.cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = unfolder.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not a stop
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def call_subprocess(argv, env):
    """Run the CLI in a fresh interpreter; (exit code, stdout)."""
    try:
        proc = subprocess.run([sys.executable, "-m", "unfolder.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=CMD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", ""
    return proc.returncode, proc.stdout


def timed(call, *args):
    """(exit code, stdout, wall seconds, CPU seconds) of a CLI call."""
    sw = Stopwatch()
    return (*call(*args), *sw.read())


class CliWorkload:
    """A sequence of CLI commands with declared output files.

    ``commands`` holds (op name, argv template, output files); ``{in}`` and
    ``{out}`` in the templates expand to the input and output directories.
    """

    name = ""
    commands = ()
    unfold_ops = ()
    response_ops = ()
    unfolds_per_op = 1
    in_process = False

    def __init__(self, root, work, seed, small=False):
        self.work = Path(work)
        self.inputs = self.work / "inputs"
        self.out = self.work / "out"
        self.seed = seed
        self.small = small
        self.env = package_env(root)
        self.stdout = {}

    def argv(self, template):
        return [a.replace("{in}", str(self.inputs)).replace("{out}", str(self.out))
                for a in template]

    def run_pass(self, in_process):
        """One pass: every command in this process (`in_process`), else each
        in a fresh interpreter."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        argvs = [self.argv(template) for _, template, _ in self.commands]
        if in_process:
            results = [timed(call_main, argv) for argv in argvs]
        else:
            results = [timed(call_subprocess, argv, self.env) for argv in argvs]
        ops = {}
        for (name, _, outputs), (code, stdout, wall, cpu) in zip(self.commands, results):
            op = Op(name, wall, cpu)
            if code != 0:
                op.error = f"exit {code}"
            else:
                try:
                    op.digest = digest([self.out / p for p in outputs], stdout.encode())
                except OSError as exc:
                    op.error = f"missing output: {exc}"
            ops[name] = op
            self.stdout[name] = stdout
        return ops

    def output_files(self):
        return {str(p.relative_to(self.out)): p.stat().st_size
                for p in sorted(self.out.rglob("*")) if p.is_file()}


class DemoCli(CliWorkload):
    name = "demo-cli"
    commands = (
        ("cg.simulate", ["simulate", "{in}/cauchy-gauss.json", "--out", "{out}/cg"],
         ["cg/truth.json", "cg/measured.json", "cg/pairs.csv"]),
        ("cg.response", ["response", "--kernel", "gauss", "--sigma", "1.0",
                         "--meas-axis=-10:10:100", "--out", "{out}/cg/R.json"],
         ["cg/R.json"]),
        ("cg.unfold", ["unfold", "--measured", "{out}/cg/measured.json",
                       "--response", "{out}/cg/R.json", "--stop", "stat-frac=0.05",
                       "--truth", "{out}/cg/truth.json", "--out", "{out}/cg/result.json",
                       "--trace", "{out}/cg/trace.csv", "--svg", "{out}/cg/plot.svg"],
         ["cg/result.json", "cg/trace.csv", "cg/plot.svg"]),
        ("cg.unfold_min_total", ["unfold", "--measured", "{out}/cg/measured.json",
                                 "--response", "{out}/cg/R.json", "--stop", "min-total",
                                 "--out", "{out}/cg/result_mt.json",
                                 "--trace", "{out}/cg/trace_mt.csv"],
         ["cg/result_mt.json", "cg/trace_mt.csv"]),
        ("cg.invert", ["invert", "--measured", "{out}/cg/measured.json",
                       "--response", "{out}/cg/R.json", "--truth", "{out}/cg/truth.json",
                       "--out", "{out}/cg/naive.json"],
         ["cg/naive.json"]),
        ("calo.simulate", ["simulate", "{in}/calorimeter.json", "--out", "{out}/calo"],
         ["calo/truth.json", "calo/measured.json", "calo/pairs.csv"]),
        ("calo.unfold", ["unfold", "--measured", "{out}/calo/measured.json",
                         "--pairs", "{out}/calo/pairs.csv", "--stop", "stat-frac=0.023",
                         "--truth", "{out}/calo/truth.json", "--out", "{out}/calo/result.json",
                         "--trace", "{out}/calo/trace.csv", "--svg", "{out}/calo/plot.svg"],
         ["calo/result.json", "calo/trace.csv", "calo/plot.svg"]),
    )
    response_ops = ("cg.response",)
    unfold_ops = ("cg.unfold", "cg.unfold_min_total", "calo.unfold")

    def prepare(self):
        self.inputs.mkdir(parents=True, exist_ok=True)
        write_json(self.inputs / "cauchy-gauss.json", scenario(CAUCHY_GAUSS, self.seed))
        write_json(self.inputs / "calorimeter.json", scenario(CALORIMETER, self.seed))

    def check(self):
        o, errors = self.out, {}
        for tag in ("cg", "calo"):
            errors[f"{tag}.simulate"] = oracle.check_simulate(o / tag)
        response = oracle.load_json(o / "cg/R.json")
        errors["cg.response"] = oracle.check_response(response)
        cg = oracle.problem_from_files(response, o / "cg/measured.json")
        errors["cg.unfold"] = oracle.check_unfold(
            cg, o / "cg/result.json", o / "cg/trace.csv", self.stdout["cg.unfold"],
            "stat_fraction", 0.05)
        errors["cg.unfold_min_total"] = oracle.check_unfold(
            cg, o / "cg/result_mt.json", o / "cg/trace_mt.csv",
            self.stdout["cg.unfold_min_total"], "min_total")
        errors["cg.invert"] = oracle.check_naive(response, o / "cg/measured.json",
                                                 o / "cg/naive.json")
        edges = oracle.axis_edges(CALORIMETER["meas_axis"])
        a = oracle.response_from_pairs(oracle.read_pairs_csv(o / "calo/pairs.csv"),
                                       edges, edges)
        calo = oracle.problem_from_files(
            {"matrix": a, "k_factor": oracle.k_factor(a), "true_axis": {"edges": edges}},
            o / "calo/measured.json")
        errors["calo.unfold"] = oracle.check_unfold(
            calo, o / "calo/result.json", o / "calo/trace.csv", self.stdout["calo.unfold"],
            "stat_fraction", 0.023)
        return errors

    def matrix_bytes(self):
        return {"cauchy-gauss 100x100": 100 * 100 * 8, "calorimeter 48x48": 48 * 48 * 8}


class Wide(CliWorkload):
    """The cauchy-gauss pipeline at `nbins` bins on a scenario written from
    the seed: 50,000 events on -10:10."""

    nbins = 0
    commands = (
        ("response", ["response", "--kernel", "gauss", "--sigma", "1.0",
                      "--meas-axis=-10:10:{nbins}", "--out", "{out}/R.json"],
         ["R.json"]),
        ("unfold", ["unfold", "--measured", "{in}/measured.json",
                    "--response", "{out}/R.json", "--stop", "stat-frac=0.05",
                    "--truth", "{in}/truth.json", "--out", "{out}/result.json",
                    "--trace", "{out}/trace.csv", "--svg", "{out}/plot.svg"],
         ["result.json", "trace.csv", "plot.svg"]),
    )
    response_ops = ("response",)
    unfold_ops = ("unfold",)
    in_process = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.small:
            self.nbins = 200

    def argv(self, template):
        return [a.replace("{nbins}", str(self.nbins)) for a in super().argv(template)]

    def prepare(self):
        self.inputs.mkdir(parents=True, exist_ok=True)
        sc = scenario(CAUCHY_GAUSS, self.seed, entries=50_000,
                      meas_axis={"low": -10.0, "high": 10.0, "nbins": self.nbins})
        write_json(self.inputs / "scenario.json", sc)
        code, stdout = call_main(["simulate", str(self.inputs / "scenario.json"),
                                  "--out", str(self.inputs)])
        if code != 0:
            raise RuntimeError(f"simulate failed ({code}): {stdout}")

    def check(self):
        response = oracle.load_json(self.out / "R.json")
        problem = oracle.problem_from_files(response, self.inputs / "measured.json")
        return {
            "response": oracle.check_response(response),
            "unfold": oracle.check_unfold(
                problem, self.out / "result.json", self.out / "trace.csv",
                self.stdout["unfold"], "stat_fraction", 0.05),
        }

    def matrix_bytes(self):
        return {f"response {self.nbins}x{self.nbins}": self.nbins ** 2 * 8,
                "live nx x nx/ny matrices in step (m0, e0, e_n)": 3 * self.nbins ** 2 * 8}


class Wide400(Wide):
    name = "wide-400"
    nbins = 400


class Wide1000(Wide):
    name = "wide-1000"
    nbins = 1000


class EnsembleCalo:
    """``pseudo_experiments`` on the calorimeter scenario with a response
    counted from a large independent pair sample."""

    name = "ensemble-calo"
    response_ops = ("from_pairs",)
    unfold_ops = ("pseudo_experiments",)
    unfolds_per_op = N_EXPERIMENTS
    in_process = True

    def __init__(self, root, work, seed, small=False):
        self.seed = seed
        self.n_pairs = CALO_RESPONSE_PAIRS // (10 if small else 1)

    def prepare(self):
        import unfolder as uf
        self.uf = uf
        self.scenario = uf.Scenario.from_dict(scenario(CALORIMETER, self.seed))
        big = uf.Scenario(truth=self.scenario.truth, smearing=self.scenario.smearing,
                          entries=self.n_pairs, seed=CALO_RESPONSE_SEED + self.seed,
                          meas_axis=self.scenario.meas_axis)
        self.pairs = uf.generate(big).pairs
        self.axis = self.scenario.meas_axis

    def run_pass(self, in_process=True):
        uf = self.uf
        self.response = self.ens = None

        def response():
            self.response = uf.ResponseMatrix.from_pairs(self.pairs, self.axis, self.axis)
            return self.response.matrix.tobytes()

        def ensemble():
            self.ens = uf.pseudo_experiments(
                self.scenario, N_EXPERIMENTS, self.response,
                uf.StoppingPolicy.stat_fraction(0.023), workers=2)
            return (np.int64(self.ens.order).tobytes() + self.ens.mean.tobytes()
                    + self.ens.covariance.tobytes())

        return {"from_pairs": timed_op("from_pairs", response),
                "pseudo_experiments": timed_op("pseudo_experiments", ensemble)}

    def check(self):
        edges = self.axis.edges
        a = oracle.response_from_pairs(self.pairs, edges, edges)
        errors = {"from_pairs": [], "pseudo_experiments": []}
        if not np.allclose(self.response.matrix, a, rtol=0.0, atol=1e-12):
            errors["from_pairs"].append("response differs from the counted pairs")
        truth = CALORIMETER["truth"]
        expected = self.scenario.entries * (
            a @ oracle.powerlaw_bin_mass(edges, truth["exponent"], truth["scale_energy"]))
        errors["pseudo_experiments"] = oracle.check_ensemble(
            a, oracle.k_factor(a), expected, self.ens.order, self.ens.covariance,
            self.ens.mean, np.diff(edges))
        return errors

    def output_files(self):
        return {}

    def matrix_bytes(self):
        n = self.axis.nbins
        return {f"response {n}x{n}": n * n * 8,
                f"pairs {len(self.pairs)}x2": len(self.pairs) * 16,
                f"ensemble iterates {N_EXPERIMENTS}x{n}": N_EXPERIMENTS * n * 8}


WORKLOADS = {w.name: w for w in (DemoCli, Wide400, Wide1000, EnsembleCalo)}

