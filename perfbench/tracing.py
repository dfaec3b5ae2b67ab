"""Outside-in timing spans around the package's public functions.

A :class:`Tracer` replaces each traced function on every ``unfolder``
module attribute that refers to it, so calls made between layers (``cli``
calling ``run``, ``run`` calling ``step``) go through the wrapper too.
Classmethods and ``save_json`` of ``ResponseMatrix`` and ``Histogram`` are
replaced on the class.  :meth:`Tracer.uninstall` puts every original back,
so untraced passes run the package exactly as shipped.

Each span records name, start, end, parent span and thread.  The parent is
the innermost open span of the same thread; a span opened in another
thread would be a root of its own thread.  ``pseudo_experiments`` generates
its samples in worker threads through a private function, which is not
traced, so sample generation shows only in that span's self time, together
with the batched iteration.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict

# module-level functions, as (span name, defining module, attribute)
FUNCTIONS = (
    ("cli.main", "unfolder.cli", "main"),
    ("unfold.run", "unfolder.unfold", "run"),
    ("unfold.init", "unfolder.unfold", "init"),
    ("unfold.step", "unfolder.unfold", "step"),
    ("unfold.stat_summary", "unfolder.unfold", "stat_summary"),
    ("response.write_pairs_csv", "unfolder.response", "write_pairs_csv"),
    ("response.read_pairs_csv", "unfolder.response", "read_pairs_csv"),
    ("simulate.generate", "unfolder.simulate", "generate"),
    ("simulate.pseudo_experiments", "unfolder.simulate", "pseudo_experiments"),
    ("baseline.naive_invert", "unfolder.baseline", "naive_invert"),
    ("svg.write", "unfolder.svg", "write"),
)

# class attributes, as (span name, defining module, class, attribute)
METHODS = (
    ("response.from_kernel", "unfolder.response", "ResponseMatrix", "from_kernel"),
    ("response.from_pairs", "unfolder.response", "ResponseMatrix", "from_pairs"),
    ("response.from_dict", "unfolder.response", "ResponseMatrix", "from_dict"),
    ("response.load_json", "unfolder.response", "ResponseMatrix", "load_json"),
    ("response.save_json", "unfolder.response", "ResponseMatrix", "save_json"),
    ("histogram.from_counts", "unfolder.histogram", "Histogram", "from_counts"),
    ("histogram.from_dict", "unfolder.histogram", "Histogram", "from_dict"),
    ("histogram.load_json", "unfolder.histogram", "Histogram", "load_json"),
    ("histogram.save_json", "unfolder.histogram", "Histogram", "save_json"),
)

SPAN_NAMES = tuple(f[0] for f in FUNCTIONS) + tuple(m[0] for m in METHODS)
COUNT_NAMES = ("response.save_json.bytes", "response.write_pairs_csv.bytes",
               "response.read_pairs_csv.bytes", "svg.write.bytes",
               "response.from_kernel.kernel_evals", "unfold.step.flops",
               "unfold.run.orders_kept")


def _path_bytes(path):
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


def _first_arg_bytes(args, kwargs, out):
    return {"bytes": _path_bytes(args[0] if args else kwargs.get("path"))}


def _self_path_bytes(args, kwargs, out):
    return {"bytes": _path_bytes(args[1] if len(args) > 1 else kwargs.get("path"))}


def _step_flops(args, kwargs, out):
    # m0 @ f_n and m0 @ e_n: 2 nx^2 (ny + 1) per order
    nx = out.m0.shape[0]
    return {"flops": 2 * nx * nx * (out.e_n.shape[1] + 1)}


def _orders_kept(args, kwargs, out):
    return {"orders_kept": out.stopped_at + 1}


# counters taken after a call returns, keyed by span name; each adds to
# "<span name>.<key>"
COUNTERS = {
    "response.save_json": _self_path_bytes,
    "response.write_pairs_csv": _first_arg_bytes,
    "response.read_pairs_csv": _first_arg_bytes,
    "svg.write": _first_arg_bytes,
    "unfold.step": _step_flops,
    "unfold.run": _orders_kept,
}


class Tracer:
    """In-memory span recorder that installs itself on the package."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, thread]
        self.counts = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved = []         # (owner, attribute, original)

    # --- recording ---------------------------------------------------------

    def _open(self, name):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent,
                               threading.get_ident()])
        stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._local.stack.pop()

    def add(self, key, value):
        with self._lock:
            self.counts[key] += value

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                for key, value in counter(args, kwargs, out).items():
                    self.add(f"{name}.{key}", value)
            return out
        return traced

    # --- installation ------------------------------------------------------

    def _replace(self, owner, attribute, new):
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, new)

    def install(self):
        """Wrap every traced name on every package module that holds it.

        A traced name missing from the package is skipped; its metrics then
        read zero.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "unfolder" or n.startswith("unfolder."))]
        for name, module, attribute in FUNCTIONS:
            original = getattr(sys.modules.get(module), attribute, None)
            if original is None:
                continue
            wrapped = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapped)
        for name, module, cls_name, attribute in METHODS:
            cls = getattr(sys.modules.get(module), cls_name, None)
            raw = None if cls is None else cls.__dict__.get(attribute)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                func = raw.__func__
                if attribute == "from_kernel":
                    func = self._with_counting_kernel(func)
                self._replace(cls, attribute, classmethod(self.wrap(name, func)))
            else:
                self._replace(cls, attribute, self.wrap(name, raw))

    def _with_counting_kernel(self, func):
        """`from_kernel` with its kernel wrapped to count evaluations."""
        @functools.wraps(func)
        def from_kernel(cls, kernel, *args, **kwargs):
            def counted(y, x):
                vals = kernel(y, x)
                self.add("response.from_kernel.kernel_evals", getattr(vals, "size", 1))
                return vals
            return func(cls, counted, *args, **kwargs)
        return from_kernel

    def uninstall(self):
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()

    def reset(self):
        """Forget recorded spans and counts (between passes)."""
        self.spans = []
        self.counts = defaultdict(float)

    # --- summaries ---------------------------------------------------------

    def summary(self):
        """Per span name: calls, total seconds and self seconds, plus the
        counters, for the spans recorded since the last reset.

        Derived: ``unfold.step.gflops`` and ``unfold.orders_useful``, the
        orders a run returned (stop order + 1) over the orders computed
        (``init`` and ``step`` calls).
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[index]
        out.update({name: 0.0 for name in COUNT_NAMES})
        out.update(self.counts)
        computed = out["unfold.init.calls"] + out["unfold.step.calls"]
        out["unfold.orders_useful"] = \
            out["unfold.run.orders_kept"] / computed if computed else 0.0
        step_s = out["unfold.step.s"]
        out["unfold.step.gflops"] = out["unfold.step.flops"] / step_s / 1e9 if step_s else 0.0
        return out

    def root_time(self):
        """Summed duration of the root spans opened on this thread."""
        thread = threading.get_ident()
        return sum(end - start for _, start, end, parent, tid in self.spans
                   if parent is None and tid == thread)

    def dump(self, path, passes):
        """Write the spans of every traced pass as JSON."""
        keys = ("name", "start", "end", "parent", "thread")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([[dict(zip(keys, s)) for s in spans] for spans in passes], fh)
            fh.write("\n")
