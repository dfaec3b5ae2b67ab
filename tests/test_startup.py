"""Start-up of a fresh interpreter: ``import unfolder`` resolves its public
names lazily, the CLI sets OpenBLAS's idle timeout and freezes the cyclic
collector's view of its imports when it loads numpy itself, and each CLI
subcommand loads only the package modules it runs.

Each check runs in a child interpreter, since this one has numpy loaded.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import unfolder as uf
from unfolder import cli

SRC = str(Path(uf.__file__).resolve().parents[1])
TIMEOUT = "OPENBLAS_THREAD_TIMEOUT"


def child_env(**overrides):
    env = {k: v for k, v in os.environ.items() if k != TIMEOUT}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(overrides)
    return env


def run_python(code, *flags, **env):
    proc = subprocess.run([sys.executable, *flags, "-c", code], env=child_env(**env),
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



class TestPerModuleLoading:
    """A public name loads only the module that defines it (and what that
    module imports); a submodule name resolves like a public one."""

    PROBE = ("import json, sys, unfolder\nunfolder.{expr}\n"
             "print(json.dumps(sorted(m for m in sys.modules"
             " if m == 'numpy' or m.startswith('unfolder'))))")

    @pytest.mark.parametrize("expr, loaded", [
        ("Axis", ["numpy", "unfolder", "unfolder.errors", "unfolder.histogram"]),
        ("ConfigError", ["unfolder", "unfolder.errors"]),
        ("run", ["numpy", "unfolder", "unfolder.errors", "unfolder.histogram",
                 "unfolder.response", "unfolder.unfold"]),
        ("simulate._worker_count", ["numpy", "unfolder", "unfolder.errors",
                                    "unfolder.histogram", "unfolder.response",
                                    "unfolder.simulate"]),
        ("unfold.StoppingPolicy", ["numpy", "unfolder", "unfolder.errors",
                                   "unfolder.histogram", "unfolder.response",
                                   "unfolder.unfold"]),
    ])
    def test_first_use_loads(self, expr, loaded):
        assert run_python(self.PROBE.format(expr=expr)) == loaded

    def test_table_entries_are_their_modules_own_objects(self):
        out = run_python(
            "import importlib, json, unfolder\n"
            "wrong = [(m, n) for m, names in unfolder._NAMES.items() for n in names\n"
            "         if getattr(unfolder, n) is not getattr(\n"
            "             importlib.import_module('unfolder.' + m), n)\n"
            "         or getattr(unfolder, n).__module__ != 'unfolder.' + m]\n"
            "print(json.dumps([wrong, unfolder.__all__]))")
        wrong, names = out
        assert wrong == []
        assert len(names) == len(set(names))
        assert names[-1] == "__version__"


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


class TestCollectorFreeze:
    """A fresh CLI process pauses the cyclic collector while it imports numpy
    and the package, then freezes what the imports left; a process that had
    numpy loaded first keeps its collector state."""

    PROBE = ("import gc, json\n{pre}import unfolder.cli\n"
             "print(json.dumps([gc.isenabled(), gc.get_freeze_count()]))")

    @pytest.mark.parametrize("pre, enabled", [("", True), ("gc.disable()\n", False)],
                             ids=["collector-on", "caller-disabled"])
    def test_fresh_import_freezes_and_keeps_callers_setting(self, pre, enabled):
        now_enabled, frozen = run_python(self.PROBE.format(pre=pre))
        assert now_enabled is enabled
        assert frozen > 0

    def test_repeated_main_freezes_only_once(self, tmp_path):
        axis = uf.Axis.uniform(-5.0, 5.0, 20)
        uf.Histogram(axis, 200.0 / (1.0 + axis.centers ** 2)).save_json(
            tmp_path / "truth.json")
        uf.ResponseMatrix(axis, axis, np.eye(20)).save_json(tmp_path / "R.json")
        argv = ["fold", "--truth", str(tmp_path / "truth.json"),
                "--response", str(tmp_path / "R.json"), "--out", str(tmp_path / "o.json")]
        out = run_python(
            "import contextlib, gc, io, json\n"
            "import unfolder.cli\n"
            "codes, counts = [], []\n"
            "for _ in range(20):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            f"        codes.append(unfolder.cli.main({argv!r}))\n"
            "    counts.append(gc.get_freeze_count())\n"
            "print(json.dumps([codes, counts]))")
        codes, counts = out
        assert codes == [0] * 20
        assert counts[0] > 0
        assert counts == [counts[0]] * 20

    def test_main_adds_no_freeze(self, tmp_path):
        # only the import freezes; a command's own objects stay collectable
        axis = uf.Axis.uniform(-5.0, 5.0, 20)
        uf.Histogram(axis, 200.0 / (1.0 + axis.centers ** 2)).save_json(
            tmp_path / "truth.json")
        uf.ResponseMatrix(axis, axis, np.eye(20)).save_json(tmp_path / "R.json")
        argv = ["fold", "--truth", str(tmp_path / "truth.json"),
                "--response", str(tmp_path / "R.json"), "--out", str(tmp_path / "o.json")]
        out = run_python(
            "import contextlib, gc, io, json\n"
            "import unfolder.cli\n"
            "after_import = gc.get_freeze_count()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = unfolder.cli.main({argv!r})\n"
            "print(json.dumps([code, after_import, gc.get_freeze_count()]))")
        code, after_import, after_main = out
        assert code == 0
        assert after_import > 0
        assert after_main <= after_import  # refcounting may free a few frozen objects

    def test_library_process_untouched(self, tmp_path):
        argv = ["response", "--kernel", "gauss", "--sigma", "0.5",
                "--meas-axis=-5:5:20", "--out", str(tmp_path / "R.json")]
        out = run_python(
            "import contextlib, gc, io, json\n"
            "import numpy\n"
            "before = [gc.isenabled(), gc.get_freeze_count()]\n"
            "import unfolder.cli\n"
            "after_import = [gc.isenabled(), gc.get_freeze_count()]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = unfolder.cli.main({argv!r})\n"
            "print(json.dumps([code, before, after_import,"
            " [gc.isenabled(), gc.get_freeze_count()]]))")
        code, before, after_import, after_main = out
        assert code == 0
        assert before == after_import == after_main == [True, 0]

    def test_fresh_process_bytes_match_in_process(self, tmp_path):
        axis = uf.Axis.uniform(-10.0, 10.0, 100)
        truth = 1000.0 / (1.0 + axis.centers ** 2)
        uf.Histogram.from_counts(axis, np.random.default_rng(6).poisson(truth)).save_json(
            tmp_path / "measured.json")
        names = ("R.json", "result.json", "trace.csv")
        outputs = {}
        for side in ("fresh", "in-process"):
            out = tmp_path / side
            out.mkdir()
            stdout = []
            for argv in (["response", "--kernel", "gauss", "--sigma", "1.0",
                          "--meas-axis=-10:10:100", "--out", str(out / "R.json")],
                         ["unfold", "--measured", str(tmp_path / "measured.json"),
                          "--response", str(out / "R.json"), "--stop", "min-total",
                          "--out", str(out / "result.json"),
                          "--trace", str(out / "trace.csv")]):
                if side == "fresh":
                    proc = subprocess.run([sys.executable, "-m", "unfolder.cli", *argv],
                                          env=child_env(), capture_output=True,
                                          text=True, timeout=120)
                    assert proc.returncode == 0, proc.stderr
                    stdout.append(proc.stdout)
                else:
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        assert cli.main(argv) == 0
                    stdout.append(buf.getvalue())
            outputs[side] = [(out / name).read_bytes() for name in names] + stdout
        assert outputs["fresh"] == outputs["in-process"]


class TestLazyResources:
    """Without ``site`` (whose ``.pth`` hooks may preload it), nothing but a
    bundled scenario name makes the CLI load ``importlib.resources``."""

    def test_loaded_only_for_a_bundled_name(self, tmp_path):
        config = Path(uf.__file__).parent / "configs" / "cauchy-gauss.json"
        site_dir = str(Path(np.__file__).resolve().parents[1])
        argvs = [["simulate", str(config), "--out", str(tmp_path / "path")],
                 ["simulate", "cauchy-gauss", "--out", str(tmp_path / "name")]]
        out = run_python(
            "import contextlib, io, json, sys\n"
            "import unfolder.cli\n"
            "seen = []\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = unfolder.cli.main(argv)\n"
            "    seen.append([code, 'importlib.resources' in sys.modules])\n"
            "print(json.dumps(seen))",
            "-S", PYTHONPATH=SRC + os.pathsep + site_dir)
        assert out == [[0, False], [0, True]]
        assert ((tmp_path / "name" / "truth.json").read_bytes()
                == (tmp_path / "path" / "truth.json").read_bytes())


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
