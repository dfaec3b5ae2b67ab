"""Machine and library facts recorded with every report.

CPU facts come from ``lscpu`` or ``/sys`` only; the BLAS thread count is
read from the loaded OpenBLAS library and never changed.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
import sys

import numpy as np


def _lscpu():
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {}
    fields = {}
    for line in out.splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    return fields


def _sys_caches():
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return caches


def _blas():
    info = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    info["threads"] = _openblas_threads()
    info["thread_env"] = {k: os.environ.get(k) for k in
                          ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return info


def _openblas_threads():
    """Thread count of the OpenBLAS this process loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_facts():
    cpu = _lscpu()
    caches = {"L2": cpu.get("L2 cache"), "L3": cpu.get("L3 cache")}
    if not all(caches.values()):
        caches = {**_sys_caches(), "source": "/sys"}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("Model name"),
        "caches": caches,
        "blas": _blas(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
    }
