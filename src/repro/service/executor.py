"""Worker-pool batch executor: compile-once, execute-many, spot-check.

Workers pull batches off the :class:`~repro.service.scheduler.Scheduler`
and group them by request fingerprint.  Every request is a workload of
n ≥ 1 stages (a single kernel is one stage), so one cache lookup per
stage (and at most one compile, thanks to single-flight) serves the
whole group.  Execution itself runs the *vectorized golden path*
(:mod:`repro.stencil.golden`) — the paper-exact NumPy evaluation — and
returns an output digest rather than the raw grid.

Two executors share this module's machinery through
:class:`ExecutorBase`:

* :class:`PlanExecutor` — N worker *threads* in this process (low
  latency, but heavy compiles contend on the GIL and a crashing
  request takes the process down);
* :class:`~repro.service.pool.ProcessPlanExecutor` — crash-isolated
  worker *processes* sharded by fingerprint, with supervised restarts
  and per-fingerprint circuit breaking.

Correctness canary
------------------
A sampled subset of executions is additionally validated by the
cycle-level simulator *against the cached plan*: structural fields
(filter order, bank count, buffer total) must match a freshly rebuilt
chain, and the memory system is re-simulated with the FIFO depths
stored in the cache entry.  A corrupted entry (for example a flipped
FIFO depth) therefore either fails a structural check, deadlocks the
chain (violating deadlock-free condition 2) or produces outputs that
diverge from the golden reference — all are caught, counted, and evict
the poisoned entry from every cache tier.  Sampling is *weighted*
(:class:`CanarySampler`): freshly compiled and freshly
disk-promoted plans — where corruption is likeliest — are validated
several times more often than long-cached ones.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..flow.automation import compile_accelerator
from ..integration.chaining import intermediate_grid_shape
from ..microarch.memory_system import build_memory_system
from ..microarch.tradeoff import with_offchip_streams
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import record_span, span, trace_context
from ..sim.engine import ChainSimulator, DeadlockError
from ..stencil.golden import golden_output_sequence, make_input
from ..stencil.spec import StencilSpec
from .fingerprint import CompileOptions
from .plancache import CachedPlan, PlanCache
from .proto import ErrorInfo, Response, default_error_kind
from .scheduler import Scheduler, WorkItem

try:  # pragma: no cover - 3.8+ always has typing.Protocol
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls

__all__ = [
    "LATENCY_BUCKETS_MS",
    "STAGE_BUCKETS_MS",
    "observe_stage",
    "CanarySampler",
    "Executor",
    "ExecutorBase",
    "PlanExecutor",
    "PlanValidationError",
    "compile_plan",
    "execute_pipeline",
    "execute_stencil",
    "executor_backends",
    "make_executor",
    "make_response",
    "register_executor",
    "reply_fields",
    "stage_summaries",
    "validate_pipeline",
    "validate_plan",
    "validate_results",
    "worse_cache_outcome",
]

#: Millisecond buckets shared by the service latency histograms.
LATENCY_BUCKETS_MS = (
    0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 5000,
)

#: Finer-grained buckets for per-stage attribution: stages like a
#: memory cache hit or admission run tens of microseconds, while a cold
#: compile runs hundreds of milliseconds — one bucket ladder must
#: resolve both.  Every process uses these exact bounds so fabric-wide
#: histogram merges (:meth:`MetricsRegistry.merge_snapshot`) line up.
STAGE_BUCKETS_MS = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
    25, 50, 100, 250, 500, 1000, 5000,
)


def observe_stage(
    registry: MetricsRegistry,
    stage: str,
    ms: float,
    name: str = "service_stage_ms",
) -> None:
    """Record one named stage's duration in the shared stage histogram.

    Stage digests (``repro top``, the router bench) read these back
    through :meth:`Histogram.quantile`, so p50/p95/p99 per stage come
    from one code path instead of ad-hoc percentile math.
    """
    registry.histogram(
        name, {"stage": stage}, buckets=STAGE_BUCKETS_MS
    ).observe(ms)


class PlanValidationError(RuntimeError):
    """The structural checks or cycle-sim canary contradicted a plan."""


#: Cache-outcome severity order for folding per-stage outcomes into
#: one response field (a pipeline that compiled any stage is a miss).
_CACHE_OUTCOME_RANK = {"hit": 0, "coalesced": 1, "disk": 2, "miss": 3}


def worse_cache_outcome(a: str, b: str) -> str:
    """The more expensive of two plan-cache outcomes."""
    if _CACHE_OUTCOME_RANK.get(b, 0) > _CACHE_OUTCOME_RANK.get(a, 0):
        return b
    return a


def compile_plan(
    spec: StencilSpec, options: CompileOptions, fp: str
) -> CachedPlan:
    """Run the full Fig 11 flow and reduce it to a cacheable plan."""
    with span(
        "service.compile",
        benchmark=spec.name,
        streams=options.offchip_streams,
    ):
        design = compile_accelerator(
            spec, offchip_streams=options.offchip_streams
        )
        system = design.memory_system
        return CachedPlan(
            fingerprint=fp,
            spec=spec.to_json(),
            options=options.to_json(),
            fifo_capacities=system.fifo_capacities(),
            filter_order=list(system.plan.filter_order),
            num_banks=system.num_banks,
            total_buffer=system.total_buffer_size,
            summary={
                k: v for k, v in design.summary().items()
            },
        )


def execute_stencil(
    spec: StencilSpec, seed: int
) -> Tuple[np.ndarray, List[float], str]:
    """The golden execution path: ``(input grid, outputs, digest)``."""
    grid = make_input(spec, seed=seed)
    outputs = golden_output_sequence(spec, grid)
    digest = hashlib.sha256(
        np.asarray(outputs, dtype=np.float64).tobytes()
    ).hexdigest()
    return grid, outputs, digest


def execute_pipeline(stages, seed: int):
    """Golden chained execution of a multi-stage workload plan.

    Returns ``(input grid, [(outputs array, digest), ...])`` — one
    entry per stage.  The hand-off is the Fig 13c property: stage k's
    lexicographic output sequence reshaped to its iteration-domain box
    *is* stage k+1's input grid, so intermediates never leave the
    process (and never cross the wire).  Stage digests are computed
    exactly like :func:`execute_stencil`'s — SHA-256 over the
    C-contiguous float64 output bytes — so a pipeline stage digest is
    bit-comparable with the equivalent single-kernel request's.
    """
    grid = make_input(stages[0].spec, seed=seed)
    current = grid
    results = []
    for idx, stage in enumerate(stages):
        with span(
            "service.stage",
            stage=stage.index,
            benchmark=stage.spec.name,
        ):
            outputs = golden_output_sequence(stage.spec, current)
        arr = np.ascontiguousarray(
            np.asarray(outputs, dtype=np.float64)
        )
        digest = hashlib.sha256(arr.data).hexdigest()
        results.append((arr, digest))
        if idx + 1 < len(stages):
            current = arr.reshape(intermediate_grid_shape(stage.spec))
    return grid, results


def stage_summaries(stages, results) -> List[dict]:
    """The per-stage response dicts (``Response.stages``)."""
    return [
        {
            "stage": stage.index,
            "name": stage.spec.name,
            "fingerprint": stage.fingerprint,
            "checksum": digest[:16],
            "n_outputs": int(arr.size),
        }
        for stage, (arr, digest) in zip(stages, results)
    ]


def reply_fields(stages, results) -> Dict[str, Any]:
    """The ``ok`` reply fields of one executed chain.

    The one response rule every executor follows: checksum, output
    count and mean of the final stage, plus per-stage summaries only
    for workloads of more than one stage.
    """
    final, digest = results[-1]
    fields: Dict[str, Any] = {
        "n_outputs": int(final.size),
        "mean": float(np.mean(final)) if final.size else 0.0,
        "checksum": digest[:16],
    }
    if len(stages) > 1:
        fields["stages"] = stage_summaries(stages, results)
    return fields


def validate_results(stages, plans, seed: int, results, grid=None) -> None:
    """The canary for one executed chain.

    ``grid`` is the input an interpreted run (:func:`execute_pipeline`)
    started from.  Compiled results come without one: the golden chain
    is replayed first and every stage digest must match it bit for bit,
    then the replay's outputs go through :func:`validate_pipeline`.
    """
    if grid is None:
        grid, golden = execute_pipeline(stages, seed)
        for stage, (_, got), (_, want) in zip(stages, results, golden):
            if got != want:
                raise PlanValidationError(
                    f"compiled stage {stage.index} ({stage.spec.name}) "
                    "outputs diverge from the golden chained reference"
                )
        results = golden
    validate_pipeline(stages, plans, grid, results)


def validate_pipeline(stages, plans, grid, results) -> None:
    """Cycle-sim canary for every stage of a pipeline.

    Each stage's cached plan is validated against the rebuilt chain
    with that stage's actual input grid (recovered by replaying the
    reshape hand-off) and its golden outputs.
    """
    current = grid
    for idx, (stage, plan, (arr, _)) in enumerate(
        zip(stages, plans, results)
    ):
        validate_plan(stage.spec, stage.options, plan, current, arr)
        if idx + 1 < len(stages):
            current = arr.reshape(intermediate_grid_shape(stage.spec))


def validate_plan(
    spec: StencilSpec,
    options: CompileOptions,
    plan: CachedPlan,
    grid: np.ndarray,
    golden: List[float],
) -> None:
    """Check a cached plan against a freshly rebuilt memory system.

    Structural fields are compared first (cheap, catches reordered or
    dropped filters, wrong bank counts, corrupted buffer totals); the
    chain is then cycle-simulated with the *cached* FIFO depths, which
    catches depth corruption as a deadlock or as outputs that are not
    bit-identical to the golden reference.  Raises
    :class:`PlanValidationError` on any mismatch; process-pool workers
    run this too, so it touches no registry — callers count
    successes/failures themselves.
    """
    with span(
        "service.validate",
        benchmark=spec.name,
        fingerprint=plan.fingerprint[:12],
    ):
        system = build_memory_system(spec.analysis())
        if options.offchip_streams > 1:
            system = with_offchip_streams(
                system, options.offchip_streams
            )
        if list(plan.filter_order) != list(system.plan.filter_order):
            raise PlanValidationError(
                "cached plan's filter order diverges from the "
                "rebuilt chain"
            )
        if plan.num_banks != system.num_banks:
            raise PlanValidationError(
                f"cached plan claims {plan.num_banks} banks but the "
                f"rebuilt chain has {system.num_banks}"
            )
        if plan.total_buffer != system.total_buffer_size:
            raise PlanValidationError(
                "cached plan's total buffer size diverges from the "
                "rebuilt chain"
            )
        if len(plan.fifo_capacities) != len(system.fifos):
            raise PlanValidationError(
                f"cached plan has {len(plan.fifo_capacities)} FIFOs "
                f"but the rebuilt chain has {len(system.fifos)}"
            )
        if any(c < 1 for c in plan.fifo_capacities):
            raise PlanValidationError(
                "cached plan holds a non-positive FIFO depth (every "
                "reuse FIFO needs at least one slot)"
            )
        override = {
            f.fifo_id: cap
            for f, cap in zip(system.fifos, plan.fifo_capacities)
        }
        try:
            result = ChainSimulator(
                spec,
                system,
                grid,
                fifo_capacity_override=override,
            ).run()
        except DeadlockError as exc:
            raise PlanValidationError(
                "cached plan deadlocks the chain (condition 2 "
                f"violated): {exc}"
            ) from exc
        # Bit-exact, like the compiled kernel's check: the chain's
        # scalar ops are the golden path's IEEE ops in the same order.
        if not np.array_equal(
            result.output_values(), golden, equal_nan=True
        ):
            raise PlanValidationError(
                "cycle-sim outputs diverge from the golden "
                "reference under the cached FIFO depths"
            )


def make_response(
    item: WorkItem,
    status: str,
    error: Optional[str] = None,
    error_kind: Optional[str] = None,
    **fields: Any,
) -> Response:
    """The typed response shared by every resolution path.

    ``error`` is the human-readable detail; ``error_kind`` pins the
    taxonomy entry (defaults to the status's canonical kind).
    """
    info = None
    if error is not None or status != "ok":
        info = ErrorInfo(
            kind=error_kind or default_error_kind(status),
            detail=error or "",
        )
    return Response(
        id=item.request_id,
        status=status,
        benchmark=getattr(item, "label", None) or item.spec.name,
        fingerprint=item.fingerprint,
        latency_ms=round(
            (time.monotonic() - item.admitted_at) * 1e3, 3
        ),
        attempts=item.attempts,
        error=info,
        **fields,
    )


class CanarySampler:
    """Weighted 1-in-N canary sampling biased toward fresh plans.

    A shared credit accumulator advances by ``hot_weight`` for
    executions of *fresh* fingerprints (compiled or promoted from the
    disk tier within the last ``hot_window`` executions of that plan)
    and by 1 for everything else; a validation fires each time the
    credit crosses ``every``.  Long-run effect: cold traffic is still
    sampled at the configured 1-in-N floor, while the plans likeliest
    to be corrupted — the ones that just entered a cache tier — are
    validated ``hot_weight``× as often per request.  Deterministic
    (no RNG), so the weighting distribution is unit-testable exactly.
    """

    def __init__(
        self,
        every: int,
        hot_weight: float = 4.0,
        hot_window: int = 64,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if hot_weight < 1.0:
            raise ValueError("hot_weight must be >= 1")
        self.every = every
        self.hot_weight = hot_weight
        self.hot_window = hot_window
        self._registry = registry
        self._credit = 0.0
        self._hot: Dict[str, int] = {}
        self._lock = threading.Lock()

    def note_fresh(self, fp: str, reason: str) -> None:
        """Mark a fingerprint hot (``reason``: compiled | promoted)."""
        if self.every <= 0:
            return
        with self._lock:
            self._hot[fp] = self.hot_window
        if self._registry is not None:
            self._registry.counter(
                "service_canary_fresh_total", {"reason": reason}
            ).inc()

    def should_validate(self, fp: str) -> bool:
        if self.every <= 0:
            return False
        with self._lock:
            weight = 1.0
            left = self._hot.get(fp)
            if left is not None:
                weight = self.hot_weight
                if left <= 1:
                    del self._hot[fp]
                else:
                    self._hot[fp] = left - 1
            self._credit += weight
            if self._credit >= self.every:
                # Cap the carry so a hot burst samples once, not twice.
                self._credit = min(
                    self._credit - self.every, float(self.every)
                )
                return True
            return False


class ExecutorBase:
    """Resolution paths and canary policy shared by both executors."""

    def __init__(
        self,
        cache: PlanCache,
        scheduler: Scheduler,
        registry: MetricsRegistry,
        workers: int = 4,
        max_batch: int = 16,
        validate_every: int = 0,
        canary_cell_limit: int = 20_000,
        retry_backoff_s: float = 0.02,
        canary_hot_weight: float = 4.0,
        canary_hot_window: int = 64,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.cache = cache
        self.scheduler = scheduler
        self.registry = registry
        self.workers = workers
        self.max_batch = max(1, max_batch)
        self.validate_every = validate_every
        self.canary_cell_limit = canary_cell_limit
        self.retry_backoff_s = retry_backoff_s
        self.sampler = CanarySampler(
            every=validate_every,
            hot_weight=canary_hot_weight,
            hot_window=canary_hot_window,
            registry=registry,
        )

    # -- canary policy -------------------------------------------------
    def _note_cache_outcome(self, fp: str, outcome: str) -> None:
        if outcome == "miss":
            self.sampler.note_fresh(fp, "compiled")
        elif outcome == "disk":
            self.sampler.note_fresh(fp, "promoted")

    def _should_validate(self, item: WorkItem) -> bool:
        if item.validate is not None:
            return item.validate
        if self.validate_every <= 0:
            return False
        cells = 1
        for g in item.spec.grid:
            cells *= g
        if cells > self.canary_cell_limit:
            self.registry.counter(
                "service_validation_skipped_total"
            ).inc()
            return False
        return self.sampler.should_validate(item.fingerprint)

    # -- resolution paths ----------------------------------------------
    def _resolve(self, item: WorkItem, response: Response) -> None:
        if response.trace_id is None:
            response.trace_id = item.trace_id
        if item.slot.resolve(response):
            end_ns = time.perf_counter_ns()
            record_span(
                "service.request",
                item.admitted_ns,
                end_ns,
                trace_id=item.trace_id,
                parent_span_id=item.parent_span_id,
                request=item.request_id,
                status=response.status,
            )
            observe_stage(
                self.registry,
                "node_total",
                (end_ns - item.admitted_ns) / 1e6,
            )
            if response.latency_ms is not None:
                self.registry.record_exemplar(
                    "service_request_latency_ms",
                    response.latency_ms,
                    {
                        "request": item.request_id,
                        "benchmark": item.spec.name,
                        "status": response.status,
                    },
                )
            self.registry.counter(
                "service_requests_total",
                {"status": response.status},
            ).inc()
            self.registry.histogram(
                "service_request_latency_ms",
                buckets=LATENCY_BUCKETS_MS,
            ).observe(response.latency_ms)

    def _resolve_timeout(self, item: WorkItem) -> None:
        self._resolve(
            item,
            make_response(
                item, "timeout", error="deadline exceeded in queue"
            ),
        )

    def _resolve_validation_failure(
        self, item: WorkItem, cache_outcome: str, error: str
    ) -> None:
        """Evict every stage plan of ``item`` and reply
        ``validation_failed``."""
        for stage in item.stages:
            self.cache.invalidate(stage.fingerprint)
        self.registry.counter(
            "service_validation_failures_total"
        ).inc()
        self._resolve(
            item,
            make_response(
                item,
                "validation_failed",
                cache=cache_outcome,
                validated=False,
                error=error,
            ),
        )

    def _requeue(self, item: WorkItem) -> bool:
        """Re-admit a retried item (subclasses may redirect shards)."""
        return self.scheduler.requeue(item)

    def _retry_or_fail(
        self,
        item: WorkItem,
        error: str,
        backoff: bool = True,
        kind: Optional[str] = None,
    ) -> None:
        if item.retries_left > 0 and not item.expired():
            item.retries_left -= 1
            self.registry.counter("service_retries_total").inc()
            if backoff:
                delay = self.retry_backoff_s * (
                    2 ** max(item.attempts - 1, 0)
                )
                time.sleep(min(delay, 1.0))
            if self._requeue(item):
                return
            error = f"{error} (retry requeue failed: queue full)"
        self._resolve(
            item,
            make_response(item, "error", error=error, error_kind=kind),
        )


@runtime_checkable
class Executor(Protocol):
    """The contract every execution backend satisfies.

    A backend drains the shared :class:`Scheduler`, resolves every
    admitted :class:`WorkItem` exactly once, and exposes two
    lifecycle calls.  :class:`StencilService` (and the router's node
    spawner) select a backend *by name* through the factory registry
    below — there is no backend ``if``/``else`` anywhere else.
    """

    def start(self) -> None:
        """Begin draining the scheduler."""

    def stop(self, join_timeout: float = 10.0) -> None:
        """Stop after the scheduler is idle; join worker resources."""


#: name -> factory(config, shared, fault_hook) for executor backends.
_EXECUTOR_BACKENDS: Dict[str, Callable[..., "ExecutorBase"]] = {}


def register_executor(name: str) -> Callable:
    """Class decorator-style registration of one executor backend.

    The registered callable receives ``(config, shared, fault_hook)``
    where ``config`` is the :class:`~repro.service.api.ServiceConfig`
    and ``shared`` the kwargs every :class:`ExecutorBase` takes.
    """

    def _register(factory: Callable[..., "ExecutorBase"]):
        _EXECUTOR_BACKENDS[name] = factory
        return factory

    return _register


def executor_backends() -> Tuple[str, ...]:
    """The registered backend names (sorted, for error messages)."""
    return tuple(sorted(_EXECUTOR_BACKENDS))


def make_executor(
    name: str, config: Any, shared: Dict[str, Any], fault_hook=None
) -> "ExecutorBase":
    """Instantiate the backend registered under ``name``."""
    try:
        factory = _EXECUTOR_BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown executor backend {name!r} (registered: "
            f"{', '.join(executor_backends())})"
        ) from None
    return factory(config, shared, fault_hook)


class PlanExecutor(ExecutorBase):
    """N worker threads draining the scheduler in fingerprint groups."""

    def __init__(
        self,
        cache: PlanCache,
        scheduler: Scheduler,
        registry: MetricsRegistry,
        workers: int = 4,
        max_batch: int = 16,
        validate_every: int = 0,
        canary_cell_limit: int = 20_000,
        retry_backoff_s: float = 0.02,
        fault_hook: Optional[Callable[[WorkItem], None]] = None,
        **canary_kwargs: Any,
    ) -> None:
        super().__init__(
            cache=cache,
            scheduler=scheduler,
            registry=registry,
            workers=workers,
            max_batch=max_batch,
            validate_every=validate_every,
            canary_cell_limit=canary_cell_limit,
            retry_backoff_s=retry_backoff_s,
            **canary_kwargs,
        )
        self.fault_hook = fault_hook
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        for k in range(self.workers):
            t = threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-worker-{k}",
                daemon=True,
            )
            t.start()
            self._threads.append(t)

    def stop(self, join_timeout: float = 10.0) -> None:
        """Signal workers to exit once the scheduler is idle and join."""
        self._stop.set()
        for t in self._threads:
            t.join(join_timeout)
        self._threads.clear()

    # -- worker loop ---------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            batch = self.scheduler.next_batch(
                self.max_batch, wait_s=0.05
            )
            if not batch:
                if self._stop.is_set() and self.scheduler.queue_depth() == 0:
                    break
                if self.scheduler.idle():
                    break
                continue
            groups: Dict[str, List[WorkItem]] = {}
            for item in batch:
                groups.setdefault(item.fingerprint, []).append(item)
            for fp, items in groups.items():
                self._process_group(fp, items)

    def _process_group(self, fp: str, items: List[WorkItem]) -> None:
        """Fetch (or compile) every stage plan once for the group.

        The group key is the request fingerprint, but each stage is an
        ordinary plan under its own fingerprint — so a pipeline stage
        and the equivalent single-kernel request share one cache entry,
        and each stage compiles at most once for the whole group.
        """
        dequeued_ns = time.perf_counter_ns()
        live: List[WorkItem] = []
        for item in items:
            observe_stage(
                self.registry,
                "queue_wait",
                (dequeued_ns - item.admitted_ns) / 1e6,
            )
            if item.expired():
                self._resolve_timeout(item)
            else:
                live.append(item)
        if not live:
            return
        exemplar = live[0]
        plans: List[CachedPlan] = []
        worst = "hit"
        for stage in exemplar.stages:
            started = time.perf_counter()
            try:
                with trace_context(
                    exemplar.trace_id, exemplar.parent_span_id
                ), span(
                    "service.cache_lookup",
                    fingerprint=stage.fingerprint[:12],
                    stage=stage.index,
                    group=len(live),
                ) as lookup_span:
                    plan, outcome = self.cache.get_or_compile(
                        stage.fingerprint,
                        lambda stage=stage: compile_plan(
                            stage.spec,
                            stage.options,
                            stage.fingerprint,
                        ),
                    )
                    lookup_span.annotate(outcome=outcome)
            except Exception as exc:
                for item in live:
                    self._retry_or_fail(
                        item,
                        f"compile failed (stage {stage.index}, "
                        f"{stage.spec.name}): {exc}",
                        kind="compile_failed",
                    )
                return
            compile_ms = (time.perf_counter() - started) * 1e3
            # "compile" holds the cold path; warm lookups (memory or
            # disk promotion) are attributed to "cache_lookup".
            observe_stage(
                self.registry,
                "compile" if outcome == "miss" else "cache_lookup",
                compile_ms,
            )
            self.registry.counter(
                "service_cache_total", {"outcome": outcome}
            ).inc()
            self.registry.histogram(
                "service_compile_ms",
                {"cache": outcome},
                buckets=LATENCY_BUCKETS_MS,
            ).observe(compile_ms)
            self._note_cache_outcome(stage.fingerprint, outcome)
            worst = worse_cache_outcome(worst, outcome)
            plans.append(plan)
        self._execute_group(live, plans, worst)

    def _execute_group(
        self,
        live: List[WorkItem],
        plans: List[CachedPlan],
        outcome: str,
    ) -> None:
        """Run one same-fingerprint group through its stages.

        The backend hook: the base class chains the interpreted golden
        path per item; :class:`repro.lower.executor.CompiledPlanExecutor`
        overrides it to run each stage as one batched kernel call
        across the group (falling back here when the lowering refuses
        any stage).
        """
        for item in live:
            if item.expired():
                self._resolve_timeout(item)
                continue
            item.attempts += 1
            try:
                execute_start_ns = time.perf_counter_ns()
                with trace_context(
                    item.trace_id, item.parent_span_id
                ), span(
                    "service.execute",
                    benchmark=item.label or item.spec.name,
                    request=item.request_id,
                    stages=len(item.stages),
                ):
                    if self.fault_hook is not None:
                        self.fault_hook(item)
                    grid, results = execute_pipeline(
                        item.stages, item.seed
                    )
                observe_stage(
                    self.registry,
                    "execute",
                    (time.perf_counter_ns() - execute_start_ns) / 1e6,
                )
            except Exception as exc:
                self._retry_or_fail(item, str(exc))
                continue
            self._finish(item, plans, outcome, results, grid)

    def _finish(
        self,
        item: WorkItem,
        plans: List[CachedPlan],
        outcome: str,
        results: List,
        grid: Optional[np.ndarray] = None,
    ) -> bool:
        """Canary (when sampled) and reply for one executed item.

        ``grid`` is the input of an interpreted run; compiled results
        come without one (see :func:`validate_results`).  Returns True
        when the item resolved ``ok``.
        """
        try:
            validated: Optional[bool] = None
            if self._should_validate(item):
                self.registry.counter("service_validation_total").inc()
                canary_start_ns = time.perf_counter_ns()
                with trace_context(item.trace_id, item.parent_span_id):
                    validate_results(
                        item.stages, plans, item.seed, results, grid
                    )
                observe_stage(
                    self.registry,
                    "canary",
                    (time.perf_counter_ns() - canary_start_ns) / 1e6,
                )
                validated = True
            self._resolve(
                item,
                make_response(
                    item,
                    "ok",
                    cache=outcome,
                    validated=validated,
                    summary=plans[-1].summary,
                    **reply_fields(item.stages, results),
                ),
            )
            return True
        except PlanValidationError as exc:
            self._resolve_validation_failure(item, outcome, str(exc))
        except Exception as exc:
            self._retry_or_fail(item, str(exc))
        return False


@register_executor("thread")
def _make_thread_executor(config, shared, fault_hook) -> PlanExecutor:
    """``worker_mode="thread"``: N threads inside this process."""
    return PlanExecutor(fault_hook=fault_hook, **shared)
