"""What the harness reads from the machine it runs on.

Server CPU and peak memory come straight from ``/proc`` (no ``psutil``),
summed over the server's process tree so a ``--replicas`` fleet counts
whole.  Off Linux every reader returns ``None``.  The fingerprint, the
load-average gate and the spin loop exist so a noisy host shows in the
output; no metric is normalised by them.
"""

from __future__ import annotations

import os
import platform
import time
from pathlib import Path

import numpy as np

PROC = Path("/proc")


def _stat_fields(pid: int, proc: Path = PROC) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the ``(comm)`` column.

    ``comm`` may itself hold spaces and parentheses, so the split point
    is the *last* ``)``.  Index 0 is the state, 1 the parent pid, 11 and
    12 are utime and stime in clock ticks.
    """
    try:
        text = (proc / str(pid) / "stat").read_text()
    except OSError:
        return None
    return text[text.rindex(")") + 2 :].split()


def start_time(pid: int, proc: Path = PROC) -> int | None:
    """Boot-relative start tick of ``pid``; with the pid, names one process for good."""
    fields = _stat_fields(pid, proc)
    return None if fields is None else int(fields[19])


def process_tree(root_pid: int, proc: Path = PROC) -> list[int]:
    """``root_pid`` and every live descendant, parents before children."""
    if not proc.is_dir():
        return [root_pid]
    children: dict[int, list[int]] = {}
    for entry in proc.iterdir():
        if not entry.name.isdigit():
            continue
        fields = _stat_fields(int(entry.name), proc)
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry.name))
    tree, frontier = [], [root_pid]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(sorted(children.get(pid, ())))
    return tree


def cpu_ticks(pids: list[int], proc: Path = PROC) -> int | None:
    """user + system clock ticks consumed so far, summed over ``pids``."""
    if not proc.is_dir():
        return None
    total = 0
    for pid in pids:
        fields = _stat_fields(pid, proc)
        if fields is not None:
            total += int(fields[11]) + int(fields[12])
    return total


def ticks_to_ms(ticks: int) -> float:
    return ticks * 1000.0 / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pids: list[int], proc: Path = PROC) -> float | None:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MB."""
    if not proc.is_dir():
        return None
    total_kb = 0
    for pid in pids:
        try:
            status = (proc / str(pid) / "status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


def load_average() -> float | None:
    try:
        return os.getloadavg()[0]
    except OSError:
        return None


def wait_for_quiet_host(max_wait_s: float) -> dict:
    """Wait (bounded) for the 1-min load average to drop to ``nproc``.

    Returns what was seen; ``noisy_host`` is true when the wait ran out,
    so numbers taken next to a busy neighbour are labelled, not hidden.
    """
    limit = os.cpu_count() or 1
    deadline = time.monotonic() + max_wait_s
    load = load_average()
    waited = 0.0
    while load is not None and load > limit and time.monotonic() < deadline:
        time.sleep(1.0)
        waited += 1.0
        load = load_average()
    return {
        "loadavg_1m": load,
        "waited_s": waited,
        "noisy_host": bool(load is not None and load > limit),
    }


def fingerprint() -> dict:
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def fingerprint_id(info: dict) -> str:
    """Short file-name-safe label for a fingerprint (baseline file names)."""
    cores = len(info["affinity"]) if info.get("affinity") else info["nproc"]
    return (
        f"{info['system'].lower()}-{info['machine']}-{cores}c-"
        f"py{info['python']}-np{info['numpy']}"
    )


def spin_ms() -> float:
    """Time a fixed numpy + bytecode workload (about 0.5 s on the reference box).

    The work is constant, so the time it takes is a reading of how fast
    and how contended the host is at this moment.
    """
    start = time.perf_counter()
    matrix = np.full((256, 256), 1.0 / 256.0)
    product = np.ones((256, 256))
    for _ in range(450):
        product = matrix @ product
    total = 0
    for index in range(3_000_000):
        total += index & 7
    if total < 0 or not np.isfinite(product).all():  # consume both results
        raise AssertionError("spin loop produced an impossible value")
    return (time.perf_counter() - start) * 1000.0
