"""Command-line front end.

Subcommands wire the library together into a file-based pipeline:

  simulate   scenario JSON -> truth.json, measured.json, pairs.csv
  response   Gaussian kernel or pair CSV -> response JSON
  unfold     measured + response -> unfolded result (+ trace CSV, SVG plot)
  fold       apply a response to a truth histogram
  invert     unregularized least-squares baseline

Exit codes: 0 success, 2 usage or configuration error, 3 inconsistent data,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

# Both settings below are made only in a fresh CLI process, one that has not
# loaded numpy yet; a library caller's process is left as it is.
#
# After numpy loads, and after every threaded BLAS call, OpenBLAS's helper
# thread busy-waits for 2^28 cycles before it sleeps.  A CLI command does a
# few tens of milliseconds of work, so that spin was more than a third of
# its CPU time.  2^4 cycles (OpenBLAS's minimum) lets the helper sleep at
# once; the thread count and the work partitioning, and so the output
# bytes, stay the same.  OpenBLAS reads the variable only when it loads, so
# it is set before numpy is imported; a user's value wins.
#
# After the imports below the cyclic collector tracks about 21k objects,
# half of them left by numpy and the package, and every collection the
# command triggers, and those at exit, would walk them all again.  The
# collector is paused during the imports, and what they left is then
# frozen (moved to a generation it never scans), the start-up pattern of
# the ``gc.freeze`` docs.  The collector only frees unreachable objects, so
# no output byte depends on it.
_FRESH_PROCESS = "numpy" not in sys.modules
if _FRESH_PROCESS:
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")
    _gc_was_enabled = gc.isenabled()
    gc.disable()

import numpy as np

# each subcommand imports the rest of the package it runs, and no more
from .errors import (ConfigError, DecompositionError, DegenerateOperatorError,
                     DimensionError, NumericalFailureError, ParameterError,
                     UnfoldingError)
from .histogram import (Axis, Histogram, _real, _whole_number, l1_distance,
                        rebin_axes)
from .response import (DEFAULT_QUAD_POINTS, ResponseMatrix, _gaussian_kernel,
                       read_pairs_csv, write_pairs_csv)

if _FRESH_PROCESS:
    gc.freeze()
    if _gc_was_enabled:  # a caller's gc.disable() stays in force
        gc.enable()

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _axis_arg(text):
    try:
        lo, hi, n = text.split(":")
        return Axis.uniform(float(lo), float(hi), int(n))
    except (ValueError, TypeError):
        raise argparse.ArgumentTypeError(
            f"expected LOW:HIGH:NBINS, got {text!r}") from None


def _rebin_arg(text):
    try:
        ext, ref = text.split(",")
        return (_real("extension_factor", float(ext), 1.0),
                _whole_number("refine_factor", int(ref), 1))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected EXTENSION,REFINE, finite factors >= 1, got {text!r}") from None


def _stop_arg(text):
    if text == "min-total":
        return ("min_total", ())
    for prefix, rule, parse in (("fixed=", "fixed", int),
                                ("stat-frac=", "stat_fraction", float)):
        if text.startswith(prefix):
            try:
                return (rule, (parse(text[len(prefix):]),))
            except ValueError:
                break
    raise argparse.ArgumentTypeError(
        f"expected fixed=N, stat-frac=T or min-total, got {text!r}")


def _policy(stop, max_iterations):
    from .unfold import StoppingPolicy
    rule, values = stop
    try:
        return getattr(StoppingPolicy, rule)(*values, max_iterations=max_iterations)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_config(path):
    p = Path(path)
    if p.exists():
        return p
    from importlib import resources  # only for bundled names
    name = p.name if p.name.endswith(".json") else p.name + ".json"
    bundled = resources.files("unfolder").joinpath("configs", name)
    if bundled.is_file():
        return bundled
    raise ConfigError(f"no such scenario config: {path}")


def _check_kernel_options(args):
    for field in ("sigma", "quad_points"):
        if args.kernel is None and getattr(args, field) is not None:
            raise ConfigError(f"--{field.replace('_', '-')} needs --kernel", field=field)


def _build_response(args, meas_axis, true_axis):
    if args.kernel is not None:
        if args.sigma is None:
            raise ConfigError("--kernel gauss requires a finite --sigma > 0", field="sigma")
        try:
            kernel = _gaussian_kernel(args.sigma)
        except ParameterError as exc:
            raise ConfigError(str(exc), field="sigma") from exc
        return ResponseMatrix.from_kernel(
            kernel, true_axis, meas_axis,
            quad_points=DEFAULT_QUAD_POINTS if args.quad_points is None else args.quad_points)
    return ResponseMatrix.from_pairs(read_pairs_csv(args.pairs),
                                     true_axis, meas_axis)


def _write_trace(path, trace):
    from .unfold import ErrorBudget
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ErrorBudget.CSV_HEADER + "\n")
        for budget in trace:
            fh.write(budget.csv_row() + "\n")


# --- subcommands -----------------------------------------------------------


def _cmd_simulate(args):
    from .simulate import Scenario, generate
    sc = Scenario.load_json(_resolve_config(args.config))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    res = generate(sc)
    res.truth_hist.save_json(out / "truth.json")
    res.measured.save_json(out / "measured.json")
    write_pairs_csv(out / "pairs.csv", res.pairs)
    lost = res.meas_underflow + res.meas_overflow
    print(f"simulated {sc.entries} entries (seed {sc.seed}); "
          f"{res.measured.total:.0f} in measured range, {lost} out of range")
    return 0


def _cmd_response(args):
    _check_kernel_options(args)
    meas_axis = args.meas_axis
    true_axis = args.true_axis or meas_axis
    rm = _build_response(args, meas_axis, true_axis)
    rm.save_json(args.out)
    print(f"response {rm.shape[0]}x{rm.shape[1]} written; K = {rm.k_factor!r}")
    return 0


def _cmd_unfold(args):
    from .unfold import run
    policy = _policy(args.stop, args.max_iterations)
    _check_kernel_options(args)
    measured = Histogram.load_json(args.measured)
    if args.response is not None:
        if args.rebin is not None:
            raise ConfigError(
                "--rebin needs --kernel or --pairs so the response can be "
                "rebuilt on the derived true axis", field="rebin")
        rm = ResponseMatrix.load_json(args.response)
    else:
        try:
            true_axis = rebin_axes(measured.axis, *(args.rebin or (1.0, 1)))
        except ParameterError as exc:
            raise ConfigError(str(exc), field="rebin") from exc
        rm = _build_response(args, measured.axis, true_axis)
    offset = None if args.syst is None else Histogram.load_json(args.syst)
    if offset is not None and offset.axis != measured.axis:
        raise DimensionError("--syst histogram is not on the measured axis")
    outcome = run(rm, measured, policy, syst=None if offset is None else offset.contents)
    outcome.result.save_json(args.out)
    if args.trace:
        _write_trace(args.trace, outcome.trace)
    if args.svg:
        from .svg import write as write_svg
        write_svg(args.svg, measured, outcome.result, f"unfolded (N={outcome.stopped_at})",
                  truth=Histogram.load_json(args.truth) if args.truth else None,
                  log_y=args.log_y)
    last = outcome.trace[outcome.stopped_at]
    flag = " (truncated at iteration cap)" if outcome.truncated else ""
    print(f"stopped at order {outcome.stopped_at}{flag}; "
          f"stat fraction {last.stat_fraction:.4f}, "
          f"bias bound {last.bias_bound:.4g}")
    return 0


def _cmd_fold(args):
    truth = Histogram.load_json(args.truth)
    rm = ResponseMatrix.load_json(args.response)
    rm.fold(truth).save_json(args.out)
    return 0


def _cmd_invert(args):
    from .baseline import naive_invert
    measured = Histogram.load_json(args.measured)
    rm = ResponseMatrix.load_json(args.response)
    inverted = naive_invert(rm, measured)
    inverted.save_json(args.out)
    c = inverted.contents
    flips = np.sum(np.sign(c[1:]) * np.sign(c[:-1]) < 0)
    frac = flips / max(len(c) - 1, 1)
    print(f"sign alternation on {frac:.1%} of adjacent bin pairs; "
          f"max |content| = {np.abs(c).max():.6g}", file=sys.stderr)
    if args.truth:
        truth = Histogram.load_json(args.truth)
        if truth.axis == inverted.axis:
            ratio = np.abs(c).max() / max(np.abs(truth.contents).max(), 1e-300)
            print(f"max |content| is {ratio:.3g} times the truth peak; "
                  f"L1(inverted, truth) = {l1_distance(inverted, truth):.6g}",
                  file=sys.stderr)
    return 0


def _parser():
    p = argparse.ArgumentParser(
        prog="unfolder",
        description="Iterative histogram unfolding with covariance propagation")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw a synthetic measurement")
    sim.add_argument("config", help="scenario JSON (path or bundled name)")
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=_cmd_simulate)

    def add_source(sp):
        grp = sp.add_mutually_exclusive_group(required=True)
        grp.add_argument("--kernel", choices=["gauss"],
                         help="analytic response kernel")
        grp.add_argument("--pairs", help="CSV of (true, measured) pairs")
        sp.add_argument("--sigma", type=float, help="kernel width")
        sp.add_argument("--quad-points", type=int,
                        help=f"quadrature nodes per bin (default {DEFAULT_QUAD_POINTS})")
        return grp

    resp = sub.add_parser("response", help="build a response matrix")
    add_source(resp)
    resp.add_argument("--meas-axis", type=_axis_arg, required=True,
                      metavar="LO:HI:N")
    resp.add_argument("--true-axis", type=_axis_arg, metavar="LO:HI:N",
                      help="defaults to the measured axis")
    resp.add_argument("--out", required=True)
    resp.set_defaults(func=_cmd_response)

    unf = sub.add_parser("unfold", help="run the iterative unfolding")
    unf.add_argument("--measured", required=True)
    add_source(unf).add_argument(
        "--response", help="response JSON (alternative to --kernel/--pairs)")
    unf.add_argument("--rebin", type=_rebin_arg, metavar="EXT,REF",
                     help="derive an extended/refined true axis "
                          "(only with --kernel or --pairs)")
    unf.add_argument("--stop", type=_stop_arg, required=True,
                     metavar="fixed=N|stat-frac=T|min-total")
    unf.add_argument("--syst", help="systematic offset histogram JSON")
    unf.add_argument("--truth", help="truth histogram for the plot")
    unf.add_argument("--max-iterations", type=int, default=10000)
    unf.add_argument("--out", required=True)
    unf.add_argument("--trace", help="iteration trace CSV")
    unf.add_argument("--svg", help="overlay plot")
    unf.add_argument("--log-y", action="store_true")
    unf.set_defaults(func=_cmd_unfold)

    fld = sub.add_parser("fold", help="apply a response to a truth histogram")
    fld.add_argument("--truth", required=True)
    fld.add_argument("--response", required=True)
    fld.add_argument("--out", required=True)
    fld.set_defaults(func=_cmd_fold)

    inv = sub.add_parser("invert", help="naive least-squares inversion")
    inv.add_argument("--measured", required=True)
    inv.add_argument("--response", required=True)
    inv.add_argument("--truth", help="truth histogram for oscillation metrics")
    inv.add_argument("--out", required=True)
    inv.set_defaults(func=_cmd_invert)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        where = f" (field: {exc.field})" if exc.field else ""
        print(f"error: {exc}{where}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericalFailureError, DegenerateOperatorError,
            DecompositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (UnfoldingError, FileNotFoundError, ValueError, KeyError) as exc:
        # UnfoldingError covers DimensionError and NormalizationError, and
        # a JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
