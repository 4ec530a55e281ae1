"""Process accounting read from /proc, and the environment block.

The program's processes (shard workers, the wire server) are measured
from outside: CPU from ``/proc/<pid>/stat`` (utime + stime, 10 ms
ticks), peak memory from ``VmHWM`` in ``/proc/<pid>/status``.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys

_TICK = os.sysconf("SC_CLK_TCK")


def cpu_s(pid: int) -> float:
    """user + sys CPU seconds consumed so far by a live process."""
    with open(f"/proc/{pid}/stat") as handle:
        # comm may contain spaces/parens: split after the last ')'.
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def loadavg_1m() -> float:
    return os.getloadavg()[0]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str:
    # The driver's checkout is not a git repository: "unknown" there.
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(root: str) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_commit": _git_commit(root),
        "loadavg_1m": loadavg_1m(),
    }


def warn_if_loaded(load: float) -> None:
    nproc = os.cpu_count() or 1
    if load > 0.5 * nproc:
        print(
            f"WARNING: 1-minute load average {load:.2f} is above"
            f" 0.5 x nproc ({nproc}); timings will be noisy",
            file=sys.stderr,
        )
