"""Shared fixtures: scaled-down benchmark specs and input grids.

Simulation-based tests run on small grids (the microarchitecture's
structure — bank counts, filter order, deadlock conditions — is
grid-size independent; only the FIFO capacities scale).

Every test also runs under :func:`no_leaked_threads_or_children`, which
fails a test that leaves a service thread or a child process behind.
"""

from __future__ import annotations

import glob
import os
import threading
import time

import numpy as np
import pytest

from repro.stencil import (
    BICUBIC,
    DENOISE,
    DENOISE_3D,
    PAPER_BENCHMARKS,
    RICIAN,
    SEGMENTATION_3D,
    SOBEL,
    make_input,
    skewed_denoise,
)

#: Small grids that keep every window valid but simulate in milliseconds.
SMALL_GRIDS = {
    "DENOISE": (12, 16),
    "RICIAN": (12, 16),
    "SOBEL": (10, 12),
    "BICUBIC": (11, 13),
    "DENOISE_3D": (6, 7, 8),
    "SEGMENTATION_3D": (6, 7, 8),
}


def small_spec(spec):
    """A paper benchmark re-gridded to its small test size."""
    return spec.with_grid(SMALL_GRIDS[spec.name])


@pytest.fixture(params=list(PAPER_BENCHMARKS), ids=lambda s: s.name)
def paper_spec(request):
    """Each paper benchmark at full (paper) scale — analysis only."""
    return request.param


@pytest.fixture(params=list(PAPER_BENCHMARKS), ids=lambda s: s.name)
def small_benchmark(request):
    """Each paper benchmark scaled down for simulation."""
    return small_spec(request.param)


@pytest.fixture
def denoise_small():
    return small_spec(DENOISE)


@pytest.fixture
def denoise_grid(denoise_small):
    return make_input(denoise_small)


@pytest.fixture
def skewed_spec():
    return skewed_denoise(rows=8, cols=10)


#: Thread-name prefixes of the service stack's own threads: router
#: monitor and readers, socket-server accept/connection threads, the
#: process pool's dispatcher/shards/supervisor and the executor workers.
LEAK_THREAD_PREFIXES = (
    "router-",
    "socket-server-",
    "repro-pool-",
    "repro-service-",
)
#: Threads and children still exiting get this long to finish.
LEAK_GRACE_S = 2.0
#: Process-lifetime multiprocessing helpers, started once on first use
#: and kept until the interpreter exits — not owned by any test.
_MP_HELPERS = (
    "multiprocessing.forkserver",
    "multiprocessing.resource_tracker",
)


def _service_threads() -> dict:
    return {
        t.ident: t.name
        for t in threading.enumerate()
        if t.is_alive() and t.name.startswith(LEAK_THREAD_PREFIXES)
    }


def _child_pids(pid: int) -> list:
    out = []
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            with open(path) as fh:
                out.extend(int(tok) for tok in fh.read().split())
        except OSError:
            continue
    return out


def _live_children() -> dict:
    """Live (non-zombie) descendants of this process: pid -> cmdline.

    Descendants, not just children: forkserver pool workers are
    children of the forkserver.  The helpers themselves are skipped,
    what they fork is not."""
    out = {}
    frontier = _child_pids(os.getpid())
    while frontier:
        pid = frontier.pop()
        frontier.extend(_child_pids(pid))
        try:
            with open(f"/proc/{pid}/stat") as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmd = fh.read().replace(b"\0", b" ").decode(
                    "utf-8", "replace"
                )
        except (OSError, IndexError):
            continue  # exited while we looked
        if state != "Z" and not any(h in cmd for h in _MP_HELPERS):
            out[pid] = cmd.strip()
    return out


@pytest.fixture(autouse=True)
def no_leaked_threads_or_children():
    """Fail a test that leaves a new service thread or child process
    alive ``LEAK_GRACE_S`` after it finished."""
    threads_before = set(_service_threads())
    children_before = set(_live_children())
    yield
    deadline = time.monotonic() + LEAK_GRACE_S
    while True:
        threads = {
            ident: name
            for ident, name in _service_threads().items()
            if ident not in threads_before
        }
        children = {
            pid: cmd
            for pid, cmd in _live_children().items()
            if pid not in children_before
        }
        if not (threads or children) or time.monotonic() >= deadline:
            break
        time.sleep(0.02)
    if threads or children:
        pytest.fail(
            "test leaked "
            + "; ".join(
                [f"thread {name!r}" for name in sorted(threads.values())]
                + [
                    f"child pid {pid} ({cmd[:80]})"
                    for pid, cmd in sorted(children.items())
                ]
            )
        )
