"""Facts about the machine and the code a benchmark result was measured on."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

MIB = 1 << 20


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def cpu_model() -> str:
    text = _read(Path("/proc/cpuinfo")) or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def llc_bytes() -> int | None:
    """Size of the highest-level cache of cpu0, from sysfs."""
    best_level, best_size = -1, None
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = _read(index / "level")
        size = _read(index / "size")
        if level is None or size is None or _read(index / "type") == "Instruction":
            continue
        units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
        value = int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
        if int(level) > best_level:
            best_level, best_size = int(level), value
    return best_size


def source_digest(root: Path) -> str:
    """sha256 over the package sources, which identifies the code without git."""
    hasher = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        hasher.update(path.relative_to(root).as_posix().encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def git_commit(root: Path) -> str | None:
    """Commit of a git checkout, read from .git without running git."""
    head = _read(root / ".git" / "HEAD")
    if head is None:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(root / ".git" / ref)
    if direct is not None:
        return direct
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def facts(root: Path, workers: int) -> dict:
    llc = llc_bytes()
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "llc_mib": None if llc is None else llc / MIB,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
        "worker_threads": workers,
    }


def stream_copy_gbs(array_mib: int, repeats: int = 5) -> float:
    """Median numpy copy bandwidth in GB/s, counting bytes read plus written."""
    n = array_mib * MIB // 8
    src = np.ones(n)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault in both arrays before timing
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2 * src.nbytes / statistics.median(times) / 1e9


def stream_array_mib() -> int:
    """Copy-array size: 4x the last-level cache, at least 128 MiB, at most 512 MiB.

    The cap keeps the benchmark's memory use modest on a shared machine; when
    it binds, the arrays are smaller than 4x the cache and the result says so.
    """
    llc = llc_bytes() or 0
    return int(min(max(128, -(-4 * llc // MIB)), 512))
