"""Workload definitions, golden digests and the closed-loop load generator.

Every workload is a closed loop: one client keeps ``in_flight``
requests outstanding, waits for the oldest reply (the order a JSONL
campaign client reads them in), checks it against its golden digests
and sends the next request.  Request streams, grid shuffles and input
seeds all come from the ``--seed`` argument; the service under test
only ever sees the generated wire requests.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import json
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.service import ServiceConfig, StencilService
from repro.service.executor import execute_pipeline, execute_stencil
from repro.service.proto import Request
from repro.service.router import NodeConfig, Router, RouterConfig
from repro.service.workload import Workload, plan_workload

import procs

#: Generous per-request deadline: a slow reply is a latency sample, not
#: an error, unless it blows past this.
REQUEST_TIMEOUT_S = 60.0

PAPER_KERNELS = (
    "DENOISE", "RICIAN", "SOBEL", "BICUBIC",
    "DENOISE_3D", "SEGMENTATION_3D",
)

ITERATE = {"kind": "iterate", "benchmark": "DENOISE", "steps": 8}
GRAPH = {
    "kind": "graph",
    "nodes": [
        {"id": "den", "benchmark": "DENOISE"},
        {"id": "ric", "benchmark": "RICIAN"},
    ],
    "edges": [["den", "ric"]],
}


def single(benchmark: str, grid, seed: int, **extra) -> dict:
    """A proto:1 single-kernel wire request."""
    return dict(
        proto=1, benchmark=benchmark, grid=list(grid), seed=seed,
        timeout_s=REQUEST_TIMEOUT_S, **extra,
    )


def workload_request(workload: dict, grid, seed: int) -> dict:
    """A proto:2 workload wire request."""
    return dict(
        proto=2, workload=workload, grid=list(grid), seed=seed,
        timeout_s=REQUEST_TIMEOUT_S,
    )


def shape_key(wire: dict) -> str:
    """Identity of a request minus its input seed (one plan chain)."""
    body = {k: wire[k] for k in ("benchmark", "workload", "grid")
            if k in wire}
    return json.dumps(body, sort_keys=True)


# -- golden digests ----------------------------------------------------


@dataclass(frozen=True)
class Expected:
    checksum: str
    stages: Optional[Tuple[str, ...]]  # per-stage digests, multi-stage only


def golden(wire: dict) -> Expected:
    """Expected reply digests from the interpreted golden path."""
    grid = tuple(wire["grid"])
    if "workload" in wire:
        plan = plan_workload(Workload.from_json(wire["workload"]), grid=grid)
        _, results = execute_pipeline(plan.stages, wire["seed"])
        digests = tuple(digest[:16] for _, digest in results)
        return Expected(
            digests[-1], digests if len(plan.stages) > 1 else None
        )
    spec, _ = Request(benchmark=wire["benchmark"], grid=grid).resolve_spec()
    return Expected(execute_stencil(spec, wire["seed"])[2][:16], None)


class GoldenTable:
    """Golden digests keyed by (shape, seed), computed before timing."""

    def __init__(self) -> None:
        self._table: Dict[Tuple[str, int], Expected] = {}

    def add(self, wire: dict) -> None:
        key = (shape_key(wire), wire["seed"])
        if key not in self._table:
            self._table[key] = golden(wire)

    def expected(self, wire: dict) -> Expected:
        return self._table[(shape_key(wire), wire["seed"])]

    def digest(self) -> str:
        """One digest over every expected reply (for determinism checks)."""
        body = json.dumps(sorted(
            [list(k), v.checksum, list(v.stages or ())]
            for k, v in self._table.items()
        ))
        return hashlib.sha256(body.encode()).hexdigest()[:16]

    def check(self, wire: dict, reply, cold: bool) -> bool:
        """True when ``reply`` is ok and bit-identical to the golden."""
        want = self.expected(wire)
        if reply.status != "ok" or reply.checksum != want.checksum:
            return False
        if want.stages is not None:
            got = tuple(s.get("checksum") for s in reply.stages or ())
            if got != want.stages:
                return False
        if cold and (reply.validated is not True or reply.cache != "miss"):
            return False
        return True

    def __len__(self) -> int:
        return len(self._table)


# -- the systems under test ----------------------------------------------


class InProcess:
    """A :class:`StencilService` inside the benchmark process."""

    transport = "in-process"

    def __init__(self, config: ServiceConfig) -> None:
        self.service = StencilService(config, registry=MetricsRegistry())
        self.service.start()

    def submit(self, wire: dict):
        return self.service.submit(wire)

    def metrics_snapshots(self) -> List[dict]:
        return [self.service.metrics.snapshot()]

    def close(self) -> bool:
        return self.service.shutdown(drain=True, timeout=60.0)


class Routed:
    """A :class:`Router` over TCP to ``repro serve`` node subprocesses."""

    transport = "tcp"

    def __init__(self, config: RouterConfig) -> None:
        self.router = Router(config, registry=MetricsRegistry())
        self.router.start()

    def submit(self, wire: dict):
        return self.router.submit(wire)

    def metrics_snapshots(self) -> List[dict]:
        return [s for s in self.router.collect_node_metrics().values() if s]

    def close(self) -> bool:
        return self.router.close(timeout=60.0)


@dataclass
class Teardown:
    close_s: float
    leaked_threads: int
    leaked_children: int
    clean: bool


def start_system(build: Callable[[], object]):
    """Build a system, remembering the threads and children before it."""
    threads = procs.thread_idents()
    children = set(procs.descendants(os.getpid()))
    system = build()
    system.threads_before, system.children_before = threads, children
    return system


def teardown(system) -> Teardown:
    """Close ``system``; time it and count the threads and processes
    it left running."""
    started = time.perf_counter()
    clean = system.close()
    close_s = time.perf_counter() - started
    return Teardown(
        close_s=close_s,
        leaked_threads=procs.settle_threads(system.threads_before),
        leaked_children=procs.settle_children(system.children_before),
        clean=clean,
    )


# -- workload definitions ------------------------------------------------


@dataclass
class Definition:
    """One workload; ``BENCHMARK.json`` and ``NOTES.md`` say why."""

    name: str
    in_flight: int
    #: Builds the system; receives a fresh scratch directory.
    build: Callable[[str], object]
    #: Infinite (or long) request stream for a seed.
    stream: Callable[[random.Random], Iterator[dict]]
    #: Stream period: every run of this many requests holds the
    #: workload's full mix (the ladder samples one period).
    period: int
    #: Upper bound on the rate, to size the golden-checked request list
    #: (about twice the fastest rate seen on the 2-CPU host).
    rate_cap: float
    #: Replies must be freshly compiled and canary-validated.
    cold: bool = False

    def warmup(self, seed: int) -> List[dict]:
        """Requests sent before timing, in order.

        Warm workloads: one per (plan, input seed) the stream uses, so
        plans, kernels and input grids are all cached before the window
        opens.  Cold workloads: one fingerprint the stream never uses.
        """
        if self.cold:
            return [single(*COLD_WARMUP, 1, validate=True)]
        seen = {}
        for wire in itertools.islice(self.stream(random.Random(seed)), 512):
            seen.setdefault((shape_key(wire), wire["seed"]), wire)
        return list(seen.values())


def _seed_pool(rng: random.Random, n: int) -> List[int]:
    return rng.sample(range(1, 1_000_000), n)


def _round_robin(shapes, n_seeds: int):
    """Warm proto:1 singles cycling over ``shapes``, input seeds drawn
    from a small pool so the input-grid cache stays warm."""

    def stream(rng):
        seeds = _seed_pool(rng, n_seeds)
        for name, grid in itertools.cycle(shapes):
            yield single(name, grid, rng.choice(seeds))

    return stream


def thread_config() -> ServiceConfig:
    """In-process service: one thread worker, compiled backend."""
    return ServiceConfig(
        workers=1, max_queue=64, max_batch=16, backend="compiled"
    )


def pool_config(cache_dir: str) -> ServiceConfig:
    """Process pool: two workers, compiled backend, disk plan cache."""
    return ServiceConfig(
        workers=2, max_queue=64, max_batch=16, backend="compiled",
        worker_mode="process", cache_dir=cache_dir,
    )


def routed_config() -> RouterConfig:
    """Two ``repro serve`` nodes over TCP, one thread worker each."""
    return RouterConfig(
        nodes=2,
        node=NodeConfig(workers=1, backend="compiled", transport="tcp"),
    )


WARM_SHAPES = (
    ("RICIAN", (224, 256)),
    ("SOBEL", (224, 256)),
    ("DENOISE_3D", (40, 48, 56)),
)
ROUTED_SHAPES = (
    ("SOBEL", (10, 12)),
    ("DENOISE", (24, 32)),
    ("BICUBIC", (22, 26)),
)


# iterate_chain -----------------------------------------------------------

CHAIN_GRID = (224, 256)
CHAIN_SEEDS = 3
GRAPH_EVERY = 4


def _chain_stream(rng):
    seeds = _seed_pool(rng, CHAIN_SEEDS)
    bodies = [ITERATE] * (GRAPH_EVERY - 1) + [GRAPH]
    for body in itertools.cycle(bodies):
        yield workload_request(body, CHAIN_GRID, rng.choice(seeds))


# cold_validated ----------------------------------------------------------

#: Candidate grids per kernel: small, so the compile and the cycle-sim
#: canary stay in the tens of milliseconds; of nearly equal size (cells
#: within about +-20%, sides within 4:1 or 3:1), so which ones a seed
#: draws moves the per-request cost little; and over 200 per kernel, so
#: a 10 s window at up to 120 rps never runs out of new fingerprints.
COLD_2D = [(h, w) for h in range(8, 61) for w in range(8, 61)
           if 320 <= h * w <= 480 and max(h, w) <= 4 * min(h, w)]
COLD_3D = [(a, b, c) for a in range(4, 16) for b in range(4, 16)
           for c in range(4, 16)
           if 420 <= a * b * c <= 600 and max(a, b, c) <= 3 * min(a, b, c)]
#: A warm-up fingerprint outside every candidate range.
COLD_WARMUP = ("SOBEL", (9, 9))


def _cold_stream(rng):
    """Distinct fingerprints, one of each paper kernel per block of six."""
    pools = {}
    for name in PAPER_KERNELS:
        grids = list(COLD_3D if name.endswith("_3D") else COLD_2D)
        rng.shuffle(grids)
        pools[name] = grids
    order = list(PAPER_KERNELS)
    for idx in range(min(len(p) for p in pools.values())):
        rng.shuffle(order)
        for name in order:
            yield single(
                name, pools[name][idx], rng.randrange(1, 1_000_000),
                validate=True,
            )


# the registry ------------------------------------------------------------


DEFINITIONS: Dict[str, Definition] = {
    "warm_single": Definition(
        name="warm_single",
        in_flight=2,
        build=lambda d: InProcess(thread_config()),
        stream=_round_robin(WARM_SHAPES, 4),
        period=len(WARM_SHAPES),
        rate_cap=5000.0,
    ),
    "routed_small": Definition(
        name="routed_small",
        in_flight=8,
        build=lambda d: Routed(routed_config()),
        stream=_round_robin(ROUTED_SHAPES, 8),
        period=len(ROUTED_SHAPES),
        rate_cap=6000.0,
    ),
    "iterate_chain": Definition(
        name="iterate_chain",
        in_flight=2,
        build=lambda d: InProcess(thread_config()),
        stream=_chain_stream,
        period=GRAPH_EVERY,
        rate_cap=1200.0,
    ),
    "cold_validated": Definition(
        name="cold_validated",
        in_flight=2,
        build=lambda d: InProcess(pool_config(d)),
        stream=_cold_stream,
        period=len(PAPER_KERNELS),
        rate_cap=120.0,
        cold=True,
    ),
}


# -- the closed-loop load generator ---------------------------------------


@dataclass
class Window:
    """What one timed window saw at the client."""

    wall_s: float = 0.0
    attempted: int = 0
    ok: int = 0
    wrong: int = 0
    retries: int = 0  # attempts beyond the first, summed over replies
    latencies_ms: List[float] = field(default_factory=list)
    server_ms: List[float] = field(default_factory=list)
    failures: List[dict] = field(default_factory=list)

    def rps(self) -> float:
        return self.ok / self.wall_s if self.wall_s > 0 else 0.0


def drive(system, feed: Iterator[dict], table: GoldenTable, in_flight: int,
          seconds: float, cold: bool, tag: str) -> Window:
    """One closed-loop window of ``seconds``: a single JSONL-style client
    keeps ``in_flight`` requests outstanding, reads replies in submission
    order and checks each against its golden digests."""
    out = Window()
    pending = collections.deque()
    started = time.perf_counter()
    stop_at = started + seconds
    while True:
        while len(pending) < in_flight and time.perf_counter() < stop_at:
            wire = next(feed, None)
            if wire is None:
                break
            wire = dict(wire, id=f"{tag}-{out.attempted}")
            pending.append((wire, time.perf_counter(), system.submit(wire)))
            out.attempted += 1
        if not pending:
            break
        wire, sent, slot = pending.popleft()
        try:
            reply = slot.result(REQUEST_TIMEOUT_S + 30.0)
        except TimeoutError:
            out.failures.append({"id": wire["id"], "status": "client_timeout"})
            continue
        out.latencies_ms.append((time.perf_counter() - sent) * 1e3)
        if reply.latency_ms is not None:
            out.server_ms.append(reply.latency_ms)
        out.retries += max(0, (reply.attempts or 1) - 1)
        if table.check(wire, reply, cold):
            out.ok += 1
            continue
        if reply.status == "ok":
            out.wrong += 1
        if len(out.failures) < 5:
            out.failures.append({
                "id": wire["id"], "status": reply.status,
                "checksum": reply.checksum,
                "error": reply.error.to_json() if reply.error else None,
            })
    out.wall_s = time.perf_counter() - started
    return out


def serial(system, wires: List[dict], table: GoldenTable, cold: bool,
           tag: str) -> List[Tuple[float, object]]:
    """Send requests one at a time; returns (client ms, reply) pairs."""
    out = []
    for k, wire in enumerate(wires):
        wire = dict(wire, id=f"{tag}-{k}")
        sent = time.perf_counter()
        reply = system.submit(wire).result(REQUEST_TIMEOUT_S + 30.0)
        out.append(((time.perf_counter() - sent) * 1e3, reply))
        if not table.check(wire, reply, cold):
            raise RuntimeError(
                f"{tag}: request {wire['id']} failed its golden check: "
                f"{reply.to_json()}"
            )
    return out


# -- request plans ---------------------------------------------------------


@dataclass
class Plan:
    """What a run may send, golden-checked before anything is timed."""

    table: GoldenTable
    window_limit: int  # requests the timed windows may take
    ladder: List[dict]  # requests the traced pass's ladder uses


def plan_run(defn: Definition, seed: int, seconds: float) -> Plan:
    """Scan the seeded stream once: golden digests for every request
    the run may send (enough for ``defn.rate_cap`` rps), plus the
    ladder's requests.  Finite streams (cold fingerprints) may end
    sooner; the window then ends when they run out."""
    want = int(defn.rate_cap * seconds) + 4 * defn.period
    table = GoldenTable()
    for wire in defn.warmup(seed):
        table.add(wire)
    first: List[dict] = []
    # Cold fingerprints may be used once: hold the stream's last two
    # periods back from the windows for the ladder.
    last = collections.deque(maxlen=2 * defn.period)
    count = 0
    for wire in itertools.islice(defn.stream(random.Random(seed)), want):
        table.add(wire)
        if len(first) < defn.period:
            first.append(wire)
        last.append(wire)
        count += 1
    if defn.cold:
        return Plan(table, count - len(last), list(last))
    return Plan(table, count, first)


def scratch_dir(root: str, label: str) -> str:
    """A fresh directory under the checkout's benchmark scratch area."""
    base = os.path.join(root, ".perfbench_tmp")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{label}-", dir=base)


def remove_dir(path: str) -> None:
    """Remove a scratch directory, and the scratch area once empty."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(path))
    except OSError:
        pass
