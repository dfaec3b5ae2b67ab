import json
import math
import re

import numpy as np
import pytest

import unfolder as uf
from unfolder import cli


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert run_cli("simulate", "cauchy-gauss", "--out", str(out)) == 0
    return out


@pytest.fixture(scope="module")
def response_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("resp") / "R.json"
    assert run_cli("response", "--kernel", "gauss", "--sigma", "1.0",
                   "--meas-axis=-10:10:100", "--out", str(path)) == 0
    return path


class TestSimulate:
    def test_writes_three_files(self, sim_dir):
        for name in ("truth.json", "measured.json", "pairs.csv"):
            assert (sim_dir / name).exists()
        measured = uf.Histogram.load_json(sim_dir / "measured.json")
        assert measured.kind == "counts"
        assert measured.total <= 5000

    def test_deterministic_output(self, sim_dir, tmp_path):
        assert run_cli("simulate", "cauchy-gauss", "--out", str(tmp_path)) == 0
        for name in ("truth.json", "measured.json", "pairs.csv"):
            assert (tmp_path / name).read_bytes() == (sim_dir / name).read_bytes()

    def test_missing_entries_field_exits_2(self, tmp_path, capsys):
        config = {
            "truth": {"type": "cauchy", "location": 0.0, "scale": 1.0},
            "smearing": {"type": "gaussian_convolution", "sigma": 1.0},
            "seed": 1,
            "meas_axis": {"low": -1.0, "high": 1.0, "nbins": 4},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert run_cli("simulate", str(path), "--out", str(tmp_path / "o")) == 2
        assert "entries" in capsys.readouterr().err

    def test_unknown_config_exits_2(self, tmp_path):
        assert run_cli("simulate", "no-such-config",
                       "--out", str(tmp_path)) == 2

    def test_calorimeter_demo_config(self, tmp_path):
        assert run_cli("simulate", "calorimeter", "--out", str(tmp_path)) == 0
        measured = uf.Histogram.load_json(tmp_path / "measured.json")
        assert measured.axis.low == 0.0
        pairs = uf.read_pairs_csv(tmp_path / "pairs.csv")
        rm = uf.ResponseMatrix.from_pairs(pairs, measured.axis, measured.axis)
        assert np.all(rm.matrix.sum(axis=0) <= 1.0)


class TestResponse:
    def test_convolution_k_is_one(self, response_file):
        payload = json.loads(response_file.read_text())
        assert abs(payload["k_factor"] - 1.0) < 1e-6

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_pairs_source(self, sim_dir, tmp_path):
        out = tmp_path / "Rp.json"
        assert run_cli("response", "--pairs", str(sim_dir / "pairs.csv"),
                       "--meas-axis=-10:10:100", "--out", str(out)) == 0
        rm = uf.ResponseMatrix.load_json(out)
        assert np.all(rm.matrix.sum(axis=0) <= 1.0)

    def test_source_is_mandatory_and_exclusive(self, sim_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("response", "--meas-axis=-10:10:100",
                    "--out", str(tmp_path / "r.json"))
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            run_cli("response", "--kernel", "gauss", "--sigma", "1",
                    "--pairs", str(sim_dir / "pairs.csv"),
                    "--meas-axis=-10:10:100", "--out", str(tmp_path / "r.json"))
        assert exc.value.code == 2


class TestUnfold:
    def test_full_pipeline_improves_on_measured(self, sim_dir, response_file,
                                                tmp_path):
        out = tmp_path / "result.json"
        trace = tmp_path / "trace.csv"
        svg = tmp_path / "plot.svg"
        assert run_cli("unfold", "--measured", str(sim_dir / "measured.json"),
                       "--response", str(response_file),
                       "--stop", "stat-frac=0.05",
                       "--truth", str(sim_dir / "truth.json"),
                       "--out", str(out), "--trace", str(trace),
                       "--svg", str(svg)) == 0
        result = uf.Histogram.load_json(out)
        truth = uf.Histogram.load_json(sim_dir / "truth.json")
        measured = uf.Histogram.load_json(sim_dir / "measured.json")
        assert result.unfolded and result.stat_err is not None
        assert uf.l1_distance(result, truth) < uf.l1_distance(measured, truth)
        header, *rows = trace.read_text().strip().splitlines()
        assert header == "n,bias_bound,stat_integral,stat_fraction,syst_bound,total"
        assert float(rows[-1].split(",")[3]) >= 0.05
        assert svg.read_text().startswith("<svg ")
        assert "timestamp" not in svg.read_text()

    def test_log_y_svg_is_deterministic_with_decade_ticks(self, sim_dir, response_file,
                                                          tmp_path):
        svgs = []
        for name in ("a.svg", "b.svg"):
            assert run_cli("unfold", "--measured", str(sim_dir / "measured.json"),
                           "--response", str(response_file),
                           "--stop", "stat-frac=0.05",
                           "--truth", str(sim_dir / "truth.json"),
                           "--out", str(tmp_path / "o.json"),
                           "--svg", str(tmp_path / name), "--log-y") == 0
            svgs.append((tmp_path / name).read_bytes())
        assert svgs[0] == svgs[1]
        # the y tick labels are the right-aligned ones
        labels = re.findall(r'text-anchor="end"[^>]*>([^<]+)</text>', svgs[0].decode())
        assert len(labels) >= 2
        for label in labels:
            exponent = math.log10(float(label))
            assert exponent == round(exponent), label

    def test_deterministic_result(self, sim_dir, response_file, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run_cli("unfold", "--measured", str(sim_dir / "measured.json"),
                           "--response", str(response_file),
                           "--stop", "fixed=3", "--out", str(out)) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_fixed_zero_is_first_iterate(self, sim_dir, response_file, tmp_path):
        out = tmp_path / "f0.json"
        assert run_cli("unfold", "--measured", str(sim_dir / "measured.json"),
                       "--response", str(response_file),
                       "--stop", "fixed=0", "--out", str(out)) == 0
        rm = uf.ResponseMatrix.load_json(response_file)
        g = uf.Histogram.load_json(sim_dir / "measured.json")
        oracle = rm.transpose_apply(g.contents) / rm.k_factor
        np.testing.assert_allclose(uf.Histogram.load_json(out).contents,
                                   oracle, rtol=0, atol=1e-12)

    def test_min_total_matches_trace_argmin(self, sim_dir, response_file,
                                            tmp_path, capsys):
        out = tmp_path / "mt.json"
        trace = tmp_path / "mt.csv"
        assert run_cli("unfold", "--measured", str(sim_dir / "measured.json"),
                       "--response", str(response_file),
                       "--stop", "min-total",
                       "--syst", str(sim_dir / "measured.json"),
                       "--out", str(out), "--trace", str(trace)) == 0
        stdout = capsys.readouterr().out
        stopped = int(stdout.split("stopped at order")[1].split()[0].rstrip(";"))
        rows = trace.read_text().strip().splitlines()[1:]
        totals = [float(r.split(",")[5]) for r in rows]
        assert stopped == int(np.argmin(totals))

    def test_rebin_needs_a_rebuildable_source(self, sim_dir, response_file,
                                              tmp_path):
        assert run_cli("unfold", "--measured", str(sim_dir / "measured.json"),
                       "--response", str(response_file),
                       "--rebin", "2,2", "--stop", "fixed=1",
                       "--out", str(tmp_path / "x.json")) == 2

    def test_rebin_with_kernel_runs_on_extended_axis(self, sim_dir, tmp_path):
        out = tmp_path / "rebinned.json"
        assert run_cli("unfold", "--measured", str(sim_dir / "measured.json"),
                       "--kernel", "gauss", "--sigma", "1.0",
                       "--rebin", "1.2,2", "--stop", "fixed=2",
                       "--out", str(out)) == 0
        result = uf.Histogram.load_json(out)
        assert result.nbins == 240  # 100 bins extended 1.2x, refined 2x
        assert result.axis.low == pytest.approx(-12.0)

    def test_axis_mismatch_exits_3(self, response_file, tmp_path):
        bad = uf.Histogram(uf.Axis.uniform(0, 1, 4), [1.0] * 4,
                           stat_err=[1.0] * 4)
        path = tmp_path / "bad.json"
        bad.save_json(path)
        assert run_cli("unfold", "--measured", str(path),
                       "--response", str(response_file),
                       "--stop", "fixed=1", "--out", str(tmp_path / "o.json")) == 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_exits_4(self, tmp_path):
        ax = uf.Axis.uniform(0, 2, 2)
        rm = uf.ResponseMatrix(ax, ax, np.array([[0.9, 0.05], [0.05, 0.9]]))
        rm.save_json(tmp_path / "R.json")
        g = uf.Histogram(ax, [1.79e308, 1.79e308], stat_err=[1.0, 1.0])
        g.save_json(tmp_path / "g.json")
        assert run_cli("unfold", "--measured", str(tmp_path / "g.json"),
                       "--response", str(tmp_path / "R.json"),
                       "--stop", "fixed=5",
                       "--out", str(tmp_path / "o.json")) == 4

    def test_bad_stop_spec_exits_2(self, sim_dir, response_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("unfold", "--measured", str(sim_dir / "measured.json"),
                    "--response", str(response_file),
                    "--stop", "sometimes", "--out", str(tmp_path / "o.json"))
        assert exc.value.code == 2


class TestFoldInvert:
    def test_fold_identity_response(self, tmp_path):
        ax = uf.Axis.uniform(0, 4, 4)
        rm = uf.ResponseMatrix(ax, ax, np.eye(4))
        rm.save_json(tmp_path / "R.json")
        h = uf.Histogram(ax, [1.0, 2.0, 3.0, 4.0])
        h.save_json(tmp_path / "f.json")
        assert run_cli("fold", "--truth", str(tmp_path / "f.json"),
                       "--response", str(tmp_path / "R.json"),
                       "--out", str(tmp_path / "g.json")) == 0
        out = uf.Histogram.load_json(tmp_path / "g.json")
        np.testing.assert_array_equal(out.contents, h.contents)

    def test_fold_then_unfold_recovers_within_bias_bound(self, tmp_path):
        # noiseless round trip on a well-conditioned system
        ax = uf.Axis.uniform(0.0, 8.0, 8)
        rm = uf.ResponseMatrix.from_kernel(uf.GaussianSmearing(0.5).kernel(),
                                           ax, ax)
        rm.save_json(tmp_path / "R.json")
        truth = uf.Histogram(ax, np.diff(uf.GaussianTruth(4.0, 1.0).cdf(ax.edges))
                             * 1000.0)
        truth.save_json(tmp_path / "truth.json")
        assert run_cli("fold", "--truth", str(tmp_path / "truth.json"),
                       "--response", str(tmp_path / "R.json"),
                       "--out", str(tmp_path / "g.json")) == 0
        g = uf.Histogram.load_json(tmp_path / "g.json")
        g = uf.Histogram(g.axis, g.contents, stat_err=np.zeros(8), kind=g.kind)
        g.save_json(tmp_path / "g.json")
        trace = tmp_path / "t.csv"
        assert run_cli("unfold", "--measured", str(tmp_path / "g.json"),
                       "--response", str(tmp_path / "R.json"),
                       "--stop", "fixed=500", "--out", str(tmp_path / "u.json"),
                       "--trace", str(trace)) == 0
        result = uf.Histogram.load_json(tmp_path / "u.json")
        final_bias = float(trace.read_text().strip().splitlines()[-1].split(",")[1])
        width = 1.0
        per_bin_avg_dev = np.abs(result.contents - truth.contents) / width
        assert per_bin_avg_dev.max() <= final_bias

    def test_invert_reports_oscillation_metrics(self, sim_dir, response_file,
                                                tmp_path, capsys):
        with pytest.warns(RuntimeWarning, match="rank"):
            code = run_cli("invert", "--measured", str(sim_dir / "measured.json"),
                           "--response", str(response_file),
                           "--truth", str(sim_dir / "truth.json"),
                           "--out", str(tmp_path / "inv.json"))
        assert code == 0
        err = capsys.readouterr().err
        assert "sign alternation" in err and "truth peak" in err
        inv = uf.Histogram.load_json(tmp_path / "inv.json")
        assert inv.unfolded and np.any(inv.contents < 0)


class TestUsageErrors:
    def unfold(self, sim_dir, response_file, tmp_path, *extra):
        return run_cli("unfold", "--measured", str(sim_dir / "measured.json"),
                       "--response", str(response_file),
                       "--out", str(tmp_path / "o.json"), *extra)

    def test_non_integer_fixed_order_exits_2(self, sim_dir, response_file,
                                             tmp_path):
        with pytest.raises(SystemExit) as exc:
            self.unfold(sim_dir, response_file, tmp_path, "--stop", "fixed=2.7")
        assert exc.value.code == 2
        assert not (tmp_path / "o.json").exists()

    def test_negative_fixed_order_exits_2(self, sim_dir, response_file,
                                          tmp_path, capsys):
        assert self.unfold(sim_dir, response_file, tmp_path,
                           "--stop", "fixed=-1") == 2
        assert "order" in capsys.readouterr().err

    def test_zero_max_iterations_exits_2(self, sim_dir, response_file,
                                         tmp_path, capsys):
        assert self.unfold(sim_dir, response_file, tmp_path, "--stop",
                           "fixed=3", "--max-iterations", "0") == 2
        assert "max_iterations" in capsys.readouterr().err

    def test_threshold_outside_unit_interval_exits_2(self, sim_dir,
                                                     response_file, tmp_path):
        assert self.unfold(sim_dir, response_file, tmp_path,
                           "--stop", "stat-frac=1.5") == 2


class TestNonFiniteInput:
    def test_nan_in_measured_exits_3(self, sim_dir, response_file, tmp_path,
                                     capsys):
        d = json.loads((sim_dir / "measured.json").read_text())
        d["contents"][50] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(d))
        assert run_cli("unfold", "--measured", str(path),
                       "--response", str(response_file), "--stop", "fixed=3",
                       "--out", str(tmp_path / "o.json")) == 3
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_infinite_stat_err_exits_3(self, sim_dir, response_file, tmp_path):
        d = json.loads((sim_dir / "measured.json").read_text())
        d["stat_err"][0] = float("inf")
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(d))
        assert run_cli("unfold", "--measured", str(path),
                       "--response", str(response_file), "--stop", "fixed=3",
                       "--out", str(tmp_path / "o.json")) == 3

    def test_nan_in_response_exits_3(self, sim_dir, response_file, tmp_path):
        d = json.loads(response_file.read_text())
        d["matrix"][3][4] = float("nan")
        path = tmp_path / "R.json"
        path.write_text(json.dumps(d))
        assert run_cli("unfold", "--measured", str(sim_dir / "measured.json"),
                       "--response", str(path), "--stop", "fixed=3",
                       "--out", str(tmp_path / "o.json")) == 3


class TestNonFiniteScenario:
    def test_nan_mean_config_exits_2(self, tmp_path, capsys):
        # json reads the NaN token; before it was refused, 100 entries were
        # drawn as NaN and simulate exited 0 with an empty measured histogram
        path = tmp_path / "nan.json"
        path.write_text(
            '{"truth": {"type": "gaussian", "mean": NaN, "sigma": 1.0},'
            ' "smearing": {"type": "gaussian_convolution", "sigma": 1.0},'
            ' "entries": 100, "seed": 1,'
            ' "meas_axis": {"low": -5.0, "high": 5.0, "nbins": 10}}')
        assert run_cli("simulate", str(path), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert "mean must be a finite number" in err and "field: truth" in err
        assert not (tmp_path / "o" / "measured.json").exists()


class TestBadInputFiles:
    def unfold(self, measured, response, tmp_path):
        return run_cli("unfold", "--measured", str(measured),
                       "--response", str(response), "--stop", "fixed=3",
                       "--out", str(tmp_path / "o.json"))

    def test_missing_measured_file_exits_3(self, response_file, tmp_path):
        assert self.unfold(tmp_path / "absent.json", response_file, tmp_path) == 3
        assert not (tmp_path / "o.json").exists()

    def test_truncated_json_exits_3(self, sim_dir, response_file, tmp_path):
        text = (sim_dir / "measured.json").read_text()
        path = tmp_path / "cut.json"
        path.write_text(text[:len(text) // 2])
        assert self.unfold(path, response_file, tmp_path) == 3
        assert not (tmp_path / "o.json").exists()

    def test_histogram_without_contents_exits_3(self, sim_dir, response_file,
                                                tmp_path):
        d = json.loads((sim_dir / "measured.json").read_text())
        del d["contents"]
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(d))
        assert self.unfold(path, response_file, tmp_path) == 3
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("k", [float("inf"), float("nan")])
    def test_non_finite_k_factor_exits_3(self, sim_dir, response_file, tmp_path,
                                         capsys, k):
        # json writes these as the Infinity and NaN tokens, which json reads
        d = json.loads(response_file.read_text())
        d["k_factor"] = k
        path = tmp_path / "R.json"
        path.write_text(json.dumps(d))
        assert self.unfold(sim_dir / "measured.json", path, tmp_path) == 3
        assert "k_override" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()


class TestUnfoldSource:
    def test_response_is_exclusive_with_kernel_and_pairs(self, sim_dir,
                                                         response_file, tmp_path):
        for source in (("--kernel", "gauss", "--sigma", "1"),
                       ("--pairs", str(sim_dir / "pairs.csv"))):
            with pytest.raises(SystemExit) as exc:
                run_cli("unfold", "--measured", str(sim_dir / "measured.json"),
                        "--response", str(response_file), *source,
                        "--stop", "fixed=3", "--out", str(tmp_path / "o.json"))
            assert exc.value.code == 2
        assert not (tmp_path / "o.json").exists()

    def test_a_source_is_required(self, sim_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("unfold", "--measured", str(sim_dir / "measured.json"),
                    "--stop", "fixed=3", "--out", str(tmp_path / "o.json"))
        assert exc.value.code == 2


class TestKernelOptions:
    """--sigma and --quad-points shape the --kernel response; with any
    other source they are a usage error, not silently ignored."""

    @pytest.mark.parametrize("source", ["unfold --response", "unfold --pairs",
                                        "response --pairs"])
    @pytest.mark.parametrize("option, field", [(("--sigma", "5"), "sigma"),
                                               (("--quad-points", "2"), "quad_points")])
    def test_without_kernel_exits_2(self, sim_dir, response_file, tmp_path, capsys,
                                    source, option, field):
        command, flag = source.split()
        argv = ([flag, str(response_file if flag == "--response" else sim_dir / "pairs.csv"),
                 *option, "--out", str(tmp_path / "o.json")]
                + (["--measured", str(sim_dir / "measured.json"), "--stop", "fixed=3"]
                   if command == "unfold" else ["--meas-axis=-10:10:100"]))
        assert run_cli(command, *argv) == 2
        assert f"(field: {field})" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_quad_points_default_and_explicit_value_with_kernel(self, response_file,
                                                                tmp_path):
        def build(name, *extra):
            assert run_cli("response", "--kernel", "gauss", "--sigma", "1.0", *extra,
                           "--meas-axis=-10:10:100", "--out", str(tmp_path / name)) == 0
            return (tmp_path / name).read_bytes()

        assert build("eight.json", "--quad-points", "8") == response_file.read_bytes()
        assert build("two.json", "--quad-points", "2") != response_file.read_bytes()

    def test_zero_quad_points_with_kernel_still_exits_3(self, tmp_path):
        assert run_cli("response", "--kernel", "gauss", "--sigma", "1.0",
                       "--quad-points", "0", "--meas-axis=-10:10:100",
                       "--out", str(tmp_path / "R.json")) == 3


class TestSystAxis:
    def test_offset_on_another_axis_exits_3(self, sim_dir, response_file, tmp_path,
                                            capsys):
        # same number of bins, edges 0..100 instead of the measured -10..10
        d = json.loads((sim_dir / "truth.json").read_text())
        d["axis"] = uf.Axis.uniform(0.0, 100.0, 100).to_dict()
        path = tmp_path / "offset.json"
        path.write_text(json.dumps(d))
        assert run_cli("unfold", "--measured", str(sim_dir / "measured.json"),
                       "--response", str(response_file), "--syst", str(path),
                       "--stop", "fixed=3", "--out", str(tmp_path / "o.json"),
                       "--trace", str(tmp_path / "t.csv")) == 3
        assert "measured axis" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()
        assert not (tmp_path / "t.csv").exists()


class TestBadFactors:
    """A non-finite or too small --rebin factor, a non-finite --sigma, and a
    scenario number (seed, entries, axis, rebin factor or model parameter)
    out of range, not a whole number where one is due, a string or a bool
    are usage errors (exit 2) that name the option or field; none reaches
    the numerics."""

    @pytest.mark.parametrize("rebin", ["inf,1", "nan,1", "-inf,1", "0.5,1", "1.5,0"])
    def test_rebin_exits_2(self, sim_dir, tmp_path, capsys, rebin):
        with pytest.raises(SystemExit) as exc:
            run_cli("unfold", "--measured", str(sim_dir / "measured.json"),
                    "--kernel", "gauss", "--sigma", "1", f"--rebin={rebin}",
                    "--stop", "fixed=3", "--out", str(tmp_path / "o.json"))
        assert exc.value.code == 2
        assert "--rebin" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-inf", "0", "-1"])
    @pytest.mark.parametrize("command", ["response", "unfold"])
    def test_sigma_exits_2(self, sim_dir, tmp_path, capsys, command, sigma):
        where = (["--meas-axis=-10:10:100"] if command == "response" else
                 ["--measured", str(sim_dir / "measured.json"), "--stop", "fixed=3"])
        assert run_cli(command, "--kernel", "gauss", f"--sigma={sigma}", *where,
                       "--out", str(tmp_path / "o.json")) == 2
        assert "(field: sigma)" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("change, field", [
        ({"seed": -1}, "seed"),
        ({"seed": 1.9}, "seed"),
        ({"seed": "1"}, "seed"),
        ({"seed": True}, "seed"),
        ({"entries": 2.5}, "entries"),
        ({"entries": "100"}, "entries"),
        ({"entries": True}, "entries"),
        ({"rebin": {"extension_factor": float("inf"), "refine_factor": 1}}, "extension_factor"),
        ({"rebin": {"extension_factor": float("nan"), "refine_factor": 1}}, "extension_factor"),
        ({"rebin": {"extension_factor": 0.5, "refine_factor": 1}}, "extension_factor"),
        ({"rebin": {"extension_factor": 1.0, "refine_factor": 0}}, "refine_factor"),
        ({"rebin": {"extension_factor": 1.0, "refine_factor": 2.9}}, "refine_factor"),
        ({"rebin": {"extension_factor": 1.0, "refine_factor": float("inf")}}, "refine_factor"),
        ({"meas_axis": {"low": -5.0, "high": 5.0, "nbins": 48.7}}, "meas_axis"),
        ({"meas_axis": {"low": -5.0, "high": 5.0, "nbins": "48"}}, "meas_axis"),
        ({"meas_axis": {"low": -5.0, "high": 5.0, "nbins": True}}, "meas_axis"),
        ({"rebin": {"extension_factor": "1.5", "refine_factor": 1}}, "extension_factor"),
        ({"rebin": {"extension_factor": True, "refine_factor": 1}}, "extension_factor"),
        ({"smearing": {"type": "gaussian_convolution", "sigma": True}}, "smearing")])
    def test_scenario_exits_2(self, tmp_path, capsys, change, field):
        # json writes inf and nan as the Infinity and NaN tokens, which it reads
        config ={"truth": {"type": "cauchy", "location": 0.0, "scale": 1.0},
                  "smearing": {"type": "gaussian_convolution", "sigma": 1.0},
                  "entries": 100, "seed": 1,
                  "meas_axis": {"low": -5.0, "high": 5.0, "nbins": 10}, **change}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert run_cli("simulate", str(path), "--out", str(tmp_path / "o")) == 2
        where = f"rebin.{field}" if "rebin" in change else field
        assert capsys.readouterr().err.endswith(f" (field: {where})\n")
        assert not (tmp_path / "o" / "measured.json").exists()
