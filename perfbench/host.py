"""Host facts recorded with every result."""

from __future__ import annotations

import os
import platform
import shutil
import subprocess
from pathlib import Path


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def cache_bytes() -> dict:
    """L2 and last-level cache sizes of cpu0 from sysfs (0 when unknown)."""
    sizes = {"l2_bytes": 0, "llc_bytes": 0}
    root = Path("/sys/devices/system/cpu/cpu0/cache")
    best_level = 0
    for index in sorted(root.glob("index*")) if root.exists() else ():
        try:
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            text = (index / "size").read_text().strip().upper()
        except (OSError, ValueError):
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        value = int(text.rstrip("KMG")) * scale
        if level == 2:
            sizes["l2_bytes"] = value
        if level >= best_level:
            best_level, sizes["llc_bytes"] = level, value
    return sizes


def _first_line(command) -> str:
    try:
        out = subprocess.run(command, capture_output=True, text=True,
                             timeout=20).stdout
    except (OSError, subprocess.SubprocessError):
        return "absent"
    return out.splitlines()[0].strip() if out else "absent"


def host_facts(seed: int, pool_size: int | None = None) -> dict:
    """Everything a reader needs to compare two results."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:                     # pragma: no cover
        numpy_version = "absent"
    try:
        import cffi  # noqa: F401
        have_cffi = True
    except ImportError:
        have_cffi = False
    cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    facts = {
        "seed": seed,
        "nproc": nproc(),
        "pool_size": pool_size,
        **cache_bytes(),
        "c_toolchain": cc or "absent",
        "cffi": have_cffi,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "gcc": _first_line(["gcc", "--version"]) if shutil.which("gcc")
        else "absent",
        "machine": platform.machine(),
    }
    facts["native"] = "available" if cc and have_cffi \
        else "degraded (no C toolchain or cffi: native frames run compiled)"
    return facts
