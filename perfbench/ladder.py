"""Per-layer measurements for the traced pass (``--trace 1``).

Two sources, both in the benchmark's own files; nothing under ``src/``
is instrumented:

* **wrappers** installed around public functions for the traced window
  only (:func:`traced_calls`): ``StencilService.submit``,
  ``Router.submit`` and ``CompiledKernel.run_many``.  They see the
  work done in this process under the workload's real load.
* **the ladder** (:func:`measure`): after the windows, each layer's
  public function is called directly, serially, on the workload's own
  requests (one stream period, weighted by how often each shape
  occurs), and the same requests are sent serially through an
  in-process thread service, a 2-node TCP router and a 2-worker process
  pool.  Residual metrics (``api.overhead_ms``, ``pool.overhead_ms``,
  ``router.hop_ms``) are a serial end-to-end time minus the layers
  timed directly on the same request.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import json
import re
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.integration.chaining import intermediate_grid_shape
from repro.lower.convert import CompiledKernel
from repro.lower.engine import CompiledEngine
from repro.service import StencilService
from repro.service import executor as service_executor
from repro.service.executor import compile_plan, execute_stencil
from repro.service.executor import validate_plan
from repro.service.fingerprint import fingerprint
from repro.service.plancache import PlanCache
from repro.service.proto import Request
from repro.service.router import Router
from repro.service.workload import plan_workload
from repro.sim.engine import ChainSimulator

from workloads import (
    InProcess, Routed, pool_config, remove_dir, routed_config, scratch_dir,
    serial, shape_key, start_system, teardown, thread_config,
)

#: Every per-layer metric with its unit, in BENCHMARK.json order.
PER_LAYER_UNITS = {
    "lower.kernel_ms": "ms",
    "lower.kernel_mb_moved": "MB",
    "lower.kernel_passes": "count",
    "lower.build_ms": "ms",
    "lower.input_grid_ms": "ms",
    "executor.digest_ms": "ms",
    "executor.digest_mb": "MB",
    "executor.batch_items": "count",
    "api.admit_us": "us",
    "api.handle_ms": "ms",
    "api.overhead_ms": "ms",
    "api.server_ms": "ms",
    "proto.decode_us": "us",
    "proto.encode_us": "us",
    "router.hop_ms": "ms",
    "router.submit_us": "us",
    "router.retries": "count",
    "router.failovers": "count",
    "router.close_s": "s",
    "router.leaked_threads": "count",
    "plancache.hit_rate": "ratio",
    "plancache.lookup_us": "us",
    "flow.compile_ms": "ms",
    "pool.overhead_ms": "ms",
    "pool.leaked_children": "count",
    "sim.validate_ms": "ms",
    "sim.cycles_per_s": "1/s",
    "sim.cycles": "count",
    "workload.plan_ms": "ms",
    "trace.overhead": "ratio",
    "ladder.coverage": "ratio",
}


# -- wrappers --------------------------------------------------------------


class Tally:
    """Samples recorded by wrappers (list appends are atomic)."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = collections.defaultdict(list)

    def add(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def median(self, name: str) -> Optional[float]:
        values = self.samples.get(name)
        return statistics.median(values) if values else None

    def mean(self, name: str) -> Optional[float]:
        values = self.samples.get(name)
        return statistics.fmean(values) if values else None


@contextlib.contextmanager
def wrapped(owner, attr: str, record: Callable[[tuple, float], None]):
    """Time every call of ``owner.attr``; ``record(args, seconds)``."""
    own = attr in vars(owner)
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            record(args, time.perf_counter() - started)

    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        if own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)


@contextlib.contextmanager
def traced_calls(tally: Tally):
    """The traced window's wrappers (this process only)."""

    def admit(args, s):
        if not (isinstance(args[1], dict) and "control" in args[1]):
            tally.add("admit_us", s * 1e6)

    with contextlib.ExitStack() as stack:
        stack.enter_context(wrapped(StencilService, "submit", admit))
        stack.enter_context(wrapped(
            Router, "submit",
            lambda args, s: tally.add("router_submit_us", s * 1e6)))
        stack.enter_context(wrapped(
            CompiledKernel, "run_many",
            lambda args, s: tally.add("batch_items", len(args[1]))))
        yield tally


class _TimedSimulator(ChainSimulator):
    """``ChainSimulator`` that reports each run's cycles and seconds."""

    runs: List[tuple] = []

    def run(self, *args, **kwargs):
        started = time.perf_counter()
        result = super().run(*args, **kwargs)
        _TimedSimulator.runs.append(
            (result.stats.total_cycles, time.perf_counter() - started)
        )
        return result


# -- helpers ----------------------------------------------------------------


def timed_ms(fn: Callable[[], object], budget_s: float = 0.25,
             min_reps: int = 3, max_reps: int = 400) -> float:
    """Median wall time of ``fn`` in ms over a small time budget."""
    samples = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < max_reps and (
        len(samples) < min_reps or time.perf_counter() < deadline
    ):
        started = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - started) * 1e3)
    return statistics.median(samples)


def cache_outcomes(snapshots: List[dict]) -> Dict[str, float]:
    """``service_cache_total`` per outcome, summed over snapshots."""
    out: Dict[str, float] = collections.Counter()
    for snap in snapshots:
        for key, value in snap.get("counters", {}).items():
            if key.startswith("service_cache_total"):
                match = re.search(r'outcome="([^"]+)"', key)
                if match:
                    out[match.group(1)] += value
    return out


def converters_used(snapshots: List[dict]) -> List[str]:
    found = set()
    for snap in snapshots:
        for key in snap.get("counters", {}):
            if key.startswith("service_lower_converter_total"):
                match = re.search(r'converter="([^"]+)"', key)
                if match:
                    found.add(match.group(1))
    return sorted(found)


def hit_rate(before: Dict[str, float], after: Dict[str, float]) -> float:
    delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    total = sum(delta.values())
    return delta.get("hit", 0) / total if total else 0.0


@dataclass
class Sample:
    wire: dict
    weight: float
    v: Dict[str, float] = field(default_factory=dict)


def samples_for(requests: List[dict]) -> List[Sample]:
    """Group requests by shape; weight = share of the list."""
    groups: Dict[str, List[dict]] = collections.OrderedDict()
    for wire in requests:
        groups.setdefault(shape_key(wire), []).append(wire)
    return [
        Sample(wires[0], len(wires) / len(requests))
        for wires in groups.values()
    ]


def _stages(wire: dict):
    req = Request.from_json(wire)
    if req.workload is not None:
        plan = plan_workload(req.workload, grid=req.grid)
        return [(s.spec, s.options, s.fingerprint) for s in plan.stages]
    spec, options = req.resolve_spec()
    return [(spec, options, fingerprint(spec, options))]


def _run_chain(kernels, specs, grid) -> List[np.ndarray]:
    rows, current = [], grid
    for idx, kernel in enumerate(kernels):
        row = np.ascontiguousarray(kernel.run_many([current])[0])
        rows.append(row)
        if idx + 1 < len(kernels):
            current = row.reshape(intermediate_grid_shape(specs[idx]))
    return rows


def _serial(system, wire: dict, table, cold: bool, tag: str,
            budget_s: float) -> list:
    """Warm serial round trips of one request: ``[(ms, reply), ...]``."""
    out = []
    deadline = time.perf_counter() + budget_s
    while len(out) < 3 or (
        time.perf_counter() < deadline and len(out) < 200
    ):
        out += serial(system, [wire], table, cold, f"{tag}-{len(out)}")
    return out


def _median_ms(trips: list) -> float:
    return statistics.median(ms for ms, _ in trips)


# -- the ladder --------------------------------------------------------------


def direct_layers(sample: Sample, table, validate: bool) -> None:
    """Time each layer's public function on one request, serially."""
    wire, v = sample.wire, sample.v
    v["decode_us"] = timed_ms(lambda: Request.from_json(wire)) * 1e3
    req = Request.from_json(wire)
    workload = req.effective_workload()
    v["plan_ms"] = timed_ms(lambda: plan_workload(workload, grid=req.grid))
    stages = _stages(wire)
    specs = [spec for spec, _, _ in stages]

    plans = [compile_plan(spec, opts, fp) for spec, opts, fp in stages]
    v["compile_ms"] = sum(
        timed_ms(lambda s=s, o=o, f=f: compile_plan(s, o, f), budget_s=0.05)
        for s, o, f in stages
    )
    cache = PlanCache()
    for plan in plans:
        cache.put(plan)
    v["lookup_us"] = sum(
        timed_ms(lambda p=p: cache.get_or_compile(p.fingerprint, lambda: p),
                 budget_s=0.05) * 1e3
        for p in plans
    )
    v["build_ms"] = sum(
        timed_ms(lambda p=p, s=s: CompiledEngine().kernel_for(p, spec=s),
                 budget_s=0.1)
        for p, s in zip(plans, specs)
    )
    v["input_grid_ms"] = timed_ms(
        lambda: CompiledEngine().input_grid(specs[0], req.seed),
        budget_s=0.1,
    )
    engine = CompiledEngine()
    kernels = [engine.kernel_for(p, spec=s).kernel
               for p, s in zip(plans, specs)]
    grid = engine.input_grid(specs[0], req.seed)
    v["input_grid_hit_ms"] = timed_ms(
        lambda: engine.input_grid(specs[0], req.seed), budget_s=0.02)

    passes = []
    with wrapped(CompiledKernel, "run_batch",
                 lambda args, s: passes.append(1)):
        rows = _run_chain(kernels, specs, grid)
    v["passes"] = len(passes)
    v["kernel_ms"] = timed_ms(lambda: _run_chain(kernels, specs, grid))
    v["mb_moved"] = sum(
        (len(k.program.reads) + 1) * k.n_outputs * 8 for k in kernels
    ) / 1e6
    digests = [hashlib.sha256(row.data).hexdigest()[:16] for row in rows]
    want = table.expected(wire)
    if digests[-1] != want.checksum:
        raise RuntimeError(f"ladder kernel chain diverges for {wire}")
    v["digest_ms"] = sum(
        timed_ms(lambda r=r: hashlib.sha256(r.data).hexdigest())
        for r in rows
    )
    v["digest_mb"] = sum(row.nbytes for row in rows) / 1e6

    # The canary: on the path of every cold request, off it elsewhere
    # (where one run on the workload's big grids takes seconds).
    reps = 3 if validate else 1
    grid0, outputs, _ = execute_stencil(specs[0], req.seed)
    v["golden_ms"] = timed_ms(
        lambda: execute_stencil(specs[0], req.seed), budget_s=0,
        min_reps=reps) if validate else 0.0
    _TimedSimulator.runs = []
    original = service_executor.ChainSimulator
    service_executor.ChainSimulator = _TimedSimulator
    try:
        v["validate_ms"] = timed_ms(
            lambda: validate_plan(
                specs[0], stages[0][1], plans[0], grid0, outputs),
            budget_s=0, min_reps=reps)
    finally:
        service_executor.ChainSimulator = original
    v["cycles"] = _TimedSimulator.runs[-1][0]
    v["sim_s"] = statistics.median(s for _, s in _TimedSimulator.runs)


def _api_layers(service: InProcess, samples, table) -> None:
    admits = []

    def admit(args, s):
        admits.append(s * 1e6)

    batches = []
    for k, sample in enumerate(samples):
        reply = serial(service, [sample.wire], table, False, f"api-w{k}")[0][1]
        encoded = reply.to_json()
        sample.v["encode_us"] = timed_ms(
            lambda: json.dumps(encoded, separators=(",", ":"))) * 1e3
        admits.clear()
        batches.clear()
        with wrapped(StencilService, "submit", admit), wrapped(
                CompiledKernel, "run_many",
                lambda args, s: batches.append(len(args[1]))):
            sample.v["handle_ms"] = _median_ms(_serial(
                service, sample.wire, table, False, f"api-{k}", 0.3))
        sample.v["admit_us"] = statistics.median(admits)
        sample.v["batch_items"] = statistics.fmean(batches)


def _router_layers(system: Routed, samples, table) -> None:
    submits = []
    for k, sample in enumerate(samples):
        serial(system, [sample.wire], table, False, f"rt-w{k}")
        submits.clear()
        with wrapped(Router, "submit",
                     lambda args, s: submits.append(s * 1e6)):
            trips = _serial(
                system, sample.wire, table, False, f"rt-{k}", 0.3)
        sample.v["routed_ms"] = _median_ms(trips)
        sample.v["router_submit_us"] = statistics.median(submits)
        sample.v["router_retries"] = sum(
            (reply.attempts or 1) - 1 for _, reply in trips) / len(trips)


def _pool_layers(pool: InProcess, samples, table, cold) -> None:
    for k, sample in enumerate(samples):
        if cold:
            # Fresh fingerprints: one cold round trip each, like the
            # timed window.
            sample.v["pool_ms"] = serial(
                pool, [sample.wire], table, cold, f"pool-{k}")[0][0]
            continue
        serial(pool, [sample.wire], table, cold, f"pool-w{k}")
        sample.v["pool_ms"] = _median_ms(_serial(
            pool, sample.wire, table, cold, f"pool-{k}", 0.3))


def measure(defn, system, table, samples: List[Sample], root: str) -> dict:
    """Run the ladder; returns per-sample values plus teardown records.

    ``system`` is the workload's own (still running) system: reused as
    the thread service (warm in-process workloads), the router
    (``routed_small``) or the process pool (``cold_validated``).
    """
    cold = defn.cold
    out = {}
    if cold:
        # First: these fingerprints must still be new to the pool.
        _pool_layers(system, samples, table, cold)
    for sample in samples:
        direct_layers(sample, table, validate=cold)

    if isinstance(system, InProcess) and not cold:
        _api_layers(system, samples, table)
    else:
        api = start_system(lambda: InProcess(thread_config()))
        try:
            _api_layers(api, samples, table)
        finally:
            teardown(api)

    if isinstance(system, Routed):
        _router_layers(system, samples, table)
    else:
        router = start_system(lambda: Routed(routed_config()))
        try:
            _router_layers(router, samples, table)
        finally:
            out["router"] = teardown(router)
            out["router_metrics"] = router.router.metrics.snapshot()

    if not cold:
        cache_dir = scratch_dir(root, "ladder-pool")
        pool = start_system(lambda: InProcess(pool_config(cache_dir)))
        try:
            _pool_layers(pool, samples, table, cold)
        finally:
            out["pool"] = teardown(pool)
            remove_dir(cache_dir)
    return out


def per_request(samples: List[Sample], cold: bool, routed: bool) -> dict:
    """Per-request layer costs, residuals and coverage (weighted)."""
    out = {}
    for s in samples:
        v = s.v
        canary = v["golden_ms"] + v["validate_ms"] if cold else 0.0
        on_path = v["kernel_ms"] + v["digest_ms"] + canary
        v["api_overhead_ms"] = v["handle_ms"] - (
            on_path + v["input_grid_hit_ms"])
        if cold:
            pool_parts = (on_path + v["compile_ms"] + v["build_ms"]
                          + v["input_grid_ms"])
        else:
            pool_parts = on_path + v["input_grid_hit_ms"]
        v["pool_overhead_ms"] = v["pool_ms"] - pool_parts
        v["hop_ms"] = v["routed_ms"] - v["handle_ms"]
        timed = v["admit_us"] / 1e3 + v["lookup_us"] / 1e3 + on_path
        if cold:
            v["coverage"] = (timed + v["compile_ms"] + v["build_ms"]
                             + v["input_grid_ms"]) / v["pool_ms"]
        elif routed:
            v["coverage"] = (
                timed + v["input_grid_hit_ms"] + v["router_submit_us"] / 1e3
                + v["encode_us"] / 1e3
            ) / v["routed_ms"]
        else:
            v["coverage"] = (timed + v["input_grid_hit_ms"]) / v["handle_ms"]
    for name in (
        "kernel_ms", "mb_moved", "passes", "build_ms", "input_grid_ms",
        "digest_ms", "digest_mb", "handle_ms", "api_overhead_ms",
        "decode_us", "encode_us", "hop_ms", "lookup_us", "compile_ms",
        "pool_overhead_ms", "validate_ms", "cycles", "plan_ms",
        "coverage", "admit_us", "router_submit_us", "router_retries",
        "batch_items",
    ):
        out[name] = sum(s.weight * s.v[name] for s in samples)
    cycles = sum(s.v["cycles"] for s in samples)
    sim_s = sum(s.v["sim_s"] for s in samples)
    out["cycles_per_s"] = cycles / sim_s if sim_s else 0.0
    return out
