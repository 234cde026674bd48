"""Record of the machine and numeric stack a benchmark run measured."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys
from pathlib import Path

import numpy as np


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _caches() -> dict:
    """Data and unified cache sizes by level, from sysfs (per instance)."""
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        kind = _read(f"{index}/type")
        level = _read(f"{index}/level")
        size = _read(f"{index}/size")
        if kind in ("Data", "Unified") and level and size:
            out[f"L{level}"] = size
    return out


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.machine()


def _mem_total_mb() -> float | None:
    text = _read("/proc/meminfo") or ""
    for line in text.splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1]) * 1024 / 1e6
    return None


def openblas() -> dict:
    """OpenBLAS build string, plus thread count and core type from the loaded library."""
    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    out = {
        "name": info.get("name"),
        "version": info.get("version"),
        "configuration": info.get("openblas configuration"),
        "threads": None,
        "core_type": None,
    }
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    if not libs:
        return out
    lib = ctypes.CDLL(libs[0])
    for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
        threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        corename = getattr(lib, f"{prefix}_get_corename{suffix}", None)
        if threads is not None and corename is not None:
            threads.restype = ctypes.c_int
            corename.restype = ctypes.c_char_p
            out["threads"] = threads()
            out["core_type"] = corename().decode()
            break
    return out


def record() -> dict:
    import scipy

    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "mem_total_mb": _mem_total_mb(),
        "caches": _caches(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas(),
        "resid_threads": os.environ.get("RESID_THREADS", "unset (package default 1)"),
    }
