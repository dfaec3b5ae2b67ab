"""Benchmark of the unfolder package: end-to-end and per-layer timings.

Run from the repository root:

    python3 perfbench/run.py --workload demo-cli|wide-400|wide-1000|ensemble-calo \\
        [--seed N] [--seconds S] [--trace 0|1] [--small]

One caller runs passes of the workload back to back (a closed loop) for
about `--seconds` seconds, then checks every output against the oracle in
``oracle.py``.  With ``--trace 0`` the metrics are the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` untraced and traced in-process
passes alternate and the metrics are the per-layer metrics, medians over
the traced passes.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a report with the machine facts, working-set sizes, output digests,
``fail_frac``, the wall-clock times, the unfolding rate ``pe_per_s`` and
any failure messages.
``BENCHMARK.json`` gates ``demo-cli`` and ``ensemble-calo``; ``wide-400``
and ``wide-1000`` run the same way but are not gated (see ``workloads.py``).
``--small`` shrinks the workloads for a smoke test.  Spans and the report are written under
``perfbench/work/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from facts import machine_facts
from tracing import Tracer
from workloads import DEFAULT_SEED, WORKLOADS, package_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 10
IMPORT_REPEATS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--small", action="store_true",
                   help="reduced problem sizes, for the smoke test")
    return p.parse_args(argv)


def import_once(env, module):
    """A fresh interpreter importing `module`: its CPU seconds (user and
    system), and the CPU seconds of the import statement alone."""
    code = (f"import time; t = time.process_time(); import {module}; "
            "print(time.process_time() - t)")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return cpu, float(proc.stdout)


def run_passes(seconds, one_pass):
    """Call `one_pass` back to back; stop before a pass of median length
    would end past `seconds`.  At least one pass."""
    t0 = time.perf_counter()
    results, lengths = [], []
    while True:
        start = time.perf_counter()
        results.append(one_pass())
        lengths.append(time.perf_counter() - start)
        if time.perf_counter() - t0 + statistics.median(lengths) > seconds:
            return results


def end_to_end(wl, passes, clock):
    """Medians over passes of the round trip and of its response and unfold
    steps, in `clock` ("cpu" or "wall") seconds.

    CPU seconds count every thread of this process and every child it
    waited for.  On a shared host other tenants take a vCPU away for
    minutes at a time; the wall time of the two-thread ensemble then
    doubles while its CPU time holds.  Wall seconds go to the report.
    """
    rows = [{
        "roundtrip": sum(getattr(op, clock) for op in p.values()),
        "response": sum(getattr(p[o], clock) for o in wl.response_ops),
        "unfold": sum(getattr(p[o], clock) for o in wl.unfold_ops),
    } for p in passes]
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def peak_rss_mb():
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timed_run(wl, seconds, env):
    """End-to-end metrics.  `setup_s` is the median CPU time of a fresh
    interpreter importing the package, probed `SETUP_REPEATS` times spread
    over the run, between passes; the step times are medians of CPU
    seconds over passes.  The report gets the wall-clock medians, the
    unfold step's CPU/wall ratio (above 1 when the pool runs in parallel)
    and the unfolding rate."""
    wl.prepare()
    wl.run_pass(in_process=wl.in_process)  # warm-up: file cache, compiled bytecode
    import_once(env, "unfolder")
    setup, start = [], time.perf_counter()

    def one_pass():
        if len(setup) * seconds / SETUP_REPEATS <= time.perf_counter() - start:
            setup.append(import_once(env, "unfolder")[0])
        return wl.run_pass(in_process=wl.in_process)

    passes = run_passes(seconds, one_pass)
    cpu = end_to_end(wl, passes, "cpu")
    wall = end_to_end(wl, passes, "wall")
    metrics = {"setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb(),
               **{f"{k}_cpu_s": v for k, v in cpu.items()}}
    unfolds = wl.unfolds_per_op * len(wl.unfold_ops)
    facts = {
        "passes": len(passes),
        "setup_probes_cpu_s": setup,
        "wall_clock": {
            **{f"{k}_s": {"value": v, "unit": "s"} for k, v in wall.items()},
            "pe_per_s": {"value": unfolds / wall["unfold"], "unit": "1/s"},
            "unfold_cpu_per_wall": {"value": cpu["unfold"] / wall["unfold"],
                                    "unit": "ratio"},
        },
        "per_pass": [{name: {"wall": op.wall, "cpu": op.cpu} for name, op in p.items()}
                     for p in passes],
    }
    return metrics, passes, facts


def traced_run(wl, seconds, env, work):
    """Per-layer metrics: medians over traced passes, each run right after
    an untraced one for the overhead."""
    import_once(env, "unfolder.cli")  # warm-up
    import_s = statistics.median(import_once(env, "unfolder.cli")[1]
                                 for _ in range(IMPORT_REPEATS))
    wl.prepare()
    wl.run_pass(in_process=True)  # warm-up: first-call costs of the process
    tracer = Tracer()
    untraced, traced, rows, spans = [], [], [], []

    def pair():
        untraced.append(wl.run_pass(in_process=True))
        tracer.reset()
        tracer.install()
        try:
            p = wl.run_pass(in_process=True)
        finally:
            tracer.uninstall()
        traced.append(p)
        spans.append(tracer.spans)
        row = tracer.summary()
        row["trace.span_coverage"] = tracer.root_time() / sum(op.wall for op in p.values())
        rows.append(row)

    run_passes(seconds, pair)
    tracer.dump(work / "spans.json", spans)
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    traced_s = statistics.median(sum(op.wall for op in p.values()) for p in traced)
    untraced_s = statistics.median(sum(op.wall for op in p.values()) for p in untraced)
    metrics.update({
        "cli.import_s": import_s,
        "trace.pass_s": traced_s,
        "trace.untraced_pass_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
    })
    return metrics, untraced + traced, {"passes": len(traced), "untraced_passes": len(untraced)}


def verify(wl, passes):
    """Failures per operation over all passes: a crash or non-zero exit, an
    output that differs from the last pass's, or an oracle rejection of
    the last pass's output."""
    last = passes[-1]
    try:
        checks = wl.check()
    except Exception as exc:  # a check that cannot read the outputs fails them all
        checks = {name: [f"check raised {type(exc).__name__}: {exc}"] for name in last}
    attempted, failed, messages = 0, 0, {}
    for p in passes:
        for name, op in p.items():
            attempted += 1
            why = op.error or ("output differs from the last pass"
                               if op.digest != last[name].digest
                               else "; ".join(checks.get(name, [])))
            if why:
                failed += 1
                messages.setdefault(name, why)
    digests = {name: op.digest for name, op in last.items()}
    return attempted, failed, messages, digests


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "unfolder" / "__init__.py").is_file():
        print(f"perfbench: no unfolder package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, str(ROOT / "src"))
    work = HERE / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload](ROOT, work, args.seed, small=args.small)
    env = package_env(ROOT)
    if args.trace:
        metrics, passes, counts = traced_run(wl, args.seconds, env, work)
        wanted = spec["per_layer"]
    else:
        metrics, passes, counts = timed_run(wl, args.seconds, env)
        wanted = spec["end_to_end"]
    attempted, failed, messages, digests = verify(wl, passes)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "small": args.small, **counts,
        "fail_frac": {"value": failed / attempted, "unit": "fraction"},
        "failures": messages,
        "machine": machine_facts(),
        "matrix_bytes": wl.matrix_bytes(),
        "output_bytes": wl.output_files(),
        "output_sha256": digests,
    }
    with open(work / "report.json", "w", encoding="utf-8") as fh:
        json.dump({**report, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
