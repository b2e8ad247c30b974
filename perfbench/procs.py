"""Process, thread and memory accounting read from ``/proc`` (Linux)."""

from __future__ import annotations

import glob
import os
import resource
import threading
import time
from typing import Iterable, List, Set


def cpu_ticks() -> tuple:
    """(steal, total) jiffies of the host's aggregate CPU line."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (empty when they cannot be read)."""
    out: List[int] = []
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            with open(path) as fh:
                out.extend(int(tok) for tok in fh.read().split())
        except OSError:
            continue
    return out


def descendants(pid: int) -> List[int]:
    """Every process below ``pid``, parents before their children."""
    out: List[int] = []
    frontier = [pid]
    while frontier:
        kids = [c for p in frontier for c in child_pids(p)]
        out.extend(kids)
        frontier = kids
    return out


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def largest_descendant_peak_mb() -> float:
    """Largest peak resident set among this process's live descendants."""
    peaks = [_status_kb(p, "VmHWM") for p in descendants(os.getpid())]
    return max(peaks, default=0) / 1024.0


def live_processes(pids: Iterable[int]) -> List[int]:
    """The pids that still exist and are not zombies."""
    alive = []
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
        except (OSError, IndexError):
            continue
        if state != "Z":
            alive.append(pid)
    return alive


def _multiprocessing_helpers() -> Set[int]:
    """The forkserver and resource tracker: process-wide helpers that
    outlive any one pool by design (reused by the next pool)."""
    from multiprocessing import forkserver, resource_tracker

    pids = {
        getattr(forkserver._forkserver, "_forkserver_pid", None),
        getattr(resource_tracker._resource_tracker, "_pid", None),
    }
    return {p for p in pids if p}


def stop_helpers() -> None:
    """Stop multiprocessing's forkserver and resource tracker, if any."""
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def settle_children(before: Set[int], grace_s: float = 1.0) -> int:
    """Descendants started since ``before`` still running after a grace
    (multiprocessing's shared helper processes excluded)."""
    deadline = time.monotonic() + grace_s
    while True:
        skip = before | _multiprocessing_helpers()
        left = live_processes(
            p for p in descendants(os.getpid()) if p not in skip
        )
        if not left or time.monotonic() >= deadline:
            return len(left)
        time.sleep(0.05)


def settle_threads(before: Set[int], grace_s: float = 1.0) -> int:
    """Threads started since ``before`` still alive after a grace."""
    deadline = time.monotonic() + grace_s
    while True:
        left = [
            t for t in threading.enumerate()
            if t.ident not in before and t.is_alive()
        ]
        if not left or time.monotonic() >= deadline:
            return len(left)
        time.sleep(0.05)


def thread_idents() -> Set[int]:
    return {t.ident for t in threading.enumerate()}
