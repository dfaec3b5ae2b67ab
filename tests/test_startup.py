"""Start-up of a fresh interpreter: ``import unfolder`` resolves its public
names lazily, the CLI sets OpenBLAS's idle timeout before numpy loads, and
each CLI subcommand loads only the package modules it runs.

Each check runs in a child interpreter, since this one has numpy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import unfolder as uf

SRC = str(Path(uf.__file__).resolve().parents[1])
TIMEOUT = "OPENBLAS_THREAD_TIMEOUT"


def child_env(**overrides):
    env = {k: v for k, v in os.environ.items() if k != TIMEOUT}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(overrides)
    return env


def run_python(code, **env):
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(**env),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestLazyImport:
    def test_import_does_not_load_numpy(self):
        out = run_python("import json, sys, unfolder; "
                         "print(json.dumps(['numpy' in sys.modules, unfolder.__version__]))")
        assert out == [False, uf.__version__]

    def test_every_public_name_resolves(self):
        out = run_python(
            "import json, unfolder\n"
            "names = {n: type(getattr(unfolder, n)).__name__ for n in unfolder.__all__}\n"
            "try:\n"
            "    unfolder.no_such_name\n"
            "    missing = None\n"
            "except AttributeError as exc:\n"
            "    missing = str(exc)\n"
            "print(json.dumps([sorted(names), missing, dir(unfolder)]))")
        names, missing, listed = out
        assert names == sorted(uf.__all__)
        assert "no_such_name" in missing
        assert listed == sorted(uf.__all__)

    def test_star_import_binds_all(self):
        out = run_python(
            "import json\n"
            "from unfolder import *\n"
            "import unfolder\n"
            "print(json.dumps([n for n in unfolder.__all__"
            " if globals().get(n) is not getattr(unfolder, n)]))")
        assert out == []

    def test_names_are_the_submodule_objects(self):
        out = run_python(
            "import json, unfolder\n"
            "from unfolder.simulate import Scenario\n"
            "from unfolder.unfold import run\n"
            "print(json.dumps([unfolder.Scenario is Scenario, unfolder.run is run]))")
        assert out == [True, True]

    def test_unknown_name_raises_in_this_process(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            uf.no_such_name  # noqa: B018
        with pytest.raises(ImportError):
            from unfolder import no_such_name  # noqa: F401


class TestBlasIdleTimeout:
    PROBE = ("import json, os, sys\n{pre}import unfolder.cli\n"
             "print(json.dumps(os.environ.get('" + TIMEOUT + "')))")

    def test_cli_sets_minimum_when_unset(self):
        assert run_python(self.PROBE.format(pre="")) == "4"

    def test_user_value_wins(self):
        assert run_python(self.PROBE.format(pre=""), **{TIMEOUT: "12"}) == "12"

    def test_untouched_when_numpy_already_loaded(self):
        assert run_python(self.PROBE.format(pre="import numpy\n")) is None

    def test_round_trip_bytes_independent_of_timeout(self, tmp_path):
        # at 200 bins the products are large enough for OpenBLAS to thread
        axis = uf.Axis.uniform(-10.0, 10.0, 200)
        rng = np.random.default_rng(5)
        truth = 1000.0 / (1.0 + axis.centers ** 2)
        uf.Histogram.from_counts(axis, rng.poisson(truth)).save_json(
            tmp_path / "measured.json")
        outputs = {}
        for value in ("4", "28"):
            out = tmp_path / value
            out.mkdir()
            for argv in (["response", "--kernel", "gauss", "--sigma", "0.3",
                          "--meas-axis=-10:10:200", "--out", str(out / "R.json")],
                         ["unfold", "--measured", str(tmp_path / "measured.json"),
                          "--response", str(out / "R.json"), "--stop", "fixed=40",
                          "--out", str(out / "result.json"),
                          "--trace", str(out / "trace.csv")]):
                proc = subprocess.run([sys.executable, "-m", "unfolder.cli", *argv],
                                      env=child_env(**{TIMEOUT: value}),
                                      capture_output=True, timeout=120)
                assert proc.returncode == 0, proc.stderr
            outputs[value] = [(out / name).read_bytes()
                              for name in ("R.json", "result.json", "trace.csv")]
        assert outputs["4"] == outputs["28"]


class TestLeanCommands:
    """Each subcommand imports the package modules it runs and no others,
    and none of them imports numpy.ma."""

    BASE = ["unfolder", "unfolder.cli", "unfolder.errors", "unfolder.histogram",
            "unfolder.response"]
    PROBE = ("import contextlib, io, json, sys\n"
             "from unfolder.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = main({argv!r})\n"
             "print(json.dumps([code, sorted(n for n in sys.modules"
             " if n.split('.')[0] == 'unfolder'), 'numpy.ma' in sys.modules]))")

    def test_import_cli_loads_only_what_every_command_needs(self):
        out = run_python("import json, sys\nimport unfolder.cli\n"
                         "print(json.dumps([sorted(n for n in sys.modules"
                         " if n.split('.')[0] == 'unfolder'),"
                         " 'numpy.ma' in sys.modules]))")
        assert out == [self.BASE, False]

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("lean")
        axis = uf.Axis.uniform(-5.0, 5.0, 20)
        truth = 200.0 / (1.0 + axis.centers ** 2)
        uf.Histogram.from_counts(axis, np.random.default_rng(3).poisson(truth)).save_json(
            d / "measured.json")
        uf.Histogram(axis, truth).save_json(d / "truth.json")
        uf.ResponseMatrix.from_kernel(uf.GaussianSmearing(0.5).kernel(),
                                      axis, axis).save_json(d / "R.json")
        x = np.random.default_rng(4).uniform(-5.0, 5.0, 2000)
        uf.write_pairs_csv(d / "pairs.csv", np.column_stack([x, x + 0.1]))
        return d

    @pytest.mark.parametrize("argv, extra", [
        (["simulate", "cauchy-gauss", "--out", "{d}/sim"], ["unfolder.simulate"]),
        (["response", "--kernel", "gauss", "--sigma", "0.5",
          "--meas-axis=-5:5:20", "--out", "{d}/o.json"], []),
        (["response", "--pairs", "{d}/pairs.csv", "--meas-axis=-5:5:20",
          "--out", "{d}/o.json"], []),
        (["unfold", "--measured", "{d}/measured.json", "--response", "{d}/R.json",
          "--stop", "min-total", "--out", "{d}/o.json", "--trace", "{d}/t.csv"],
         ["unfolder.unfold"]),
        (["unfold", "--measured", "{d}/measured.json", "--response", "{d}/R.json",
          "--stop", "stat-frac=0.05", "--truth", "{d}/truth.json",
          "--out", "{d}/o.json", "--svg", "{d}/p.svg"],
         ["unfolder.svg", "unfolder.unfold"]),
        (["unfold", "--measured", "{d}/measured.json", "--kernel", "gauss",
          "--sigma", "0.5", "--rebin", "1,2", "--stop", "fixed=5", "--out", "{d}/o.json"],
         ["unfolder.unfold"]),
        (["unfold", "--measured", "{d}/measured.json", "--pairs", "{d}/pairs.csv",
          "--syst", "{d}/truth.json", "--stop", "fixed=5", "--out", "{d}/o.json"],
         ["unfolder.unfold"]),
        (["fold", "--truth", "{d}/truth.json", "--response", "{d}/R.json",
          "--out", "{d}/o.json"], []),
        (["invert", "--measured", "{d}/measured.json", "--response", "{d}/R.json",
          "--truth", "{d}/truth.json", "--out", "{d}/o.json"], ["unfolder.baseline"]),
    ], ids=["simulate", "response-kernel", "response-pairs", "unfold", "unfold-svg",
            "unfold-kernel-rebin", "unfold-pairs-syst", "fold", "invert"])
    def test_command_loads_only_its_modules(self, files, argv, extra):
        argv = [a.replace("{d}", str(files)) for a in argv]
        assert run_python(self.PROBE.format(argv=argv)) == [
            0, sorted(self.BASE + extra), False]
