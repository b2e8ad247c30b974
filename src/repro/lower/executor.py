"""The ``compiled`` executor backend: batched vectorized execution.

Registers under the existing executor registry
(:func:`repro.service.executor.register_executor`), so it drops into
the thread service, the router's node spawner and the canary paths by
name — ``ServiceConfig(backend="compiled")`` maps thread-mode services
here, and the process pool reuses the same engine inside its workers.

Execution path per same-fingerprint group (a single kernel is a
workload of one stage):

1. the shared :class:`~repro.lower.engine.CompiledEngine` lowers each
   stage plan once (bufferize → convert, persisted as the plan's cache
   sidecar) and returns the memoized kernel afterwards;
2. per stage, the group's input grids execute through one
   ``CompiledKernel.run_many`` call — small grids fuse into one stacked
   ``run_batch`` call, large ones run as strided views without the
   stack copy — and each output becomes the next stage's input;
3. each row is digested exactly like the interpreted path (same
   SHA-256 over the same bytes — bit-identity is the contract, and the
   sampled canary re-runs the interpreted golden chain to prove it).

When the lowering refuses any stage (:class:`LoweringUnsupported` —
e.g. a gather domain past the hard limit) the group falls back to the
inherited interpreted path and the reason lands in
``service_lower_fallback_total``.  A corrupt stored program
(:class:`ProgramMismatchError`) resolves as a validation failure and
evicts the plan — never a wrong answer.
"""

from __future__ import annotations

import hashlib
import time
from typing import List, Optional

import numpy as np

from ..integration.chaining import intermediate_grid_shape
from ..obs.tracing import span, trace_context
from ..service.executor import (
    PlanExecutor,
    PlanValidationError,
    observe_stage,
    register_executor,
)
from ..service.plancache import CachedPlan
from ..service.scheduler import WorkItem
from .engine import CompiledEngine
from .program import LoweringUnsupported, ProgramMismatchError

__all__ = ["CompiledPlanExecutor"]


class CompiledPlanExecutor(PlanExecutor):
    """Thread-pool executor running lowered kernels per fingerprint."""

    def __init__(self, *args, engine: Optional[CompiledEngine] = None,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.engine = engine or CompiledEngine()

    # -- lowering plumbing ---------------------------------------------
    def _count_fallback(self, reason: str, n: int) -> None:
        self.registry.counter(
            "service_lower_fallback_total", {"reason": reason}
        ).inc(n)
        self.registry.counter(
            "service_lower_requests_total", {"path": "fallback"}
        ).inc(n)

    def _kernel(self, plan: CachedPlan):
        """Lower (or fetch) the plan's kernel; persist a new sidecar."""
        try:
            result = self.engine.kernel_for(plan)
        except ProgramMismatchError as exc:
            raise PlanValidationError(str(exc)) from exc
        if result.built:
            observe_stage(
                self.registry, "lower_bufferize", result.bufferize_ms
            )
            observe_stage(
                self.registry, "lower_convert", result.convert_ms
            )
            self.registry.counter(
                "service_lower_total",
                {
                    "outcome": (
                        "lowered"
                        if result.program_json is not None
                        else "cached"
                    )
                },
            ).inc()
            self.registry.counter(
                "service_lower_converter_total",
                {"converter": result.converter},
            ).inc()
            if result.converter_fallback is not None:
                self.registry.counter(
                    "service_lower_converter_fallback_total"
                ).inc()
        if result.program_json is not None:
            # First lowering of this plan: write the sidecar through
            # the content-addressed cache so restarts (and pool
            # workers) skip straight to convert.
            plan.buffer_program = result.program_json
            self.cache.put(plan)
        return result.kernel

    # -- the batched group hook ----------------------------------------
    def _execute_group(
        self,
        live: List[WorkItem],
        plans: List[CachedPlan],
        outcome: str,
    ) -> None:
        """Run one same-fingerprint group through lowered kernels.

        Every stage lowers independently; any refusal sends the whole
        group down the inherited interpreted chain (no mixed-mode
        execution — the hand-off bytes must come from one path).  When
        all stages lower, each stage executes as one batched
        ``run_many`` over the group, and the Fig 13c reshape hand-off
        happens in-process between stages.
        """
        try:
            kernels = [self._kernel(plan) for plan in plans]
        except LoweringUnsupported as exc:
            self._count_fallback(exc.reason, len(live))
            super()._execute_group(live, plans, outcome)
            return
        except PlanValidationError as exc:
            for item in live:
                self._resolve_validation_failure(item, outcome, str(exc))
            return

        runnable: List[WorkItem] = []
        for item in live:
            if item.expired():
                self._resolve_timeout(item)
                continue
            item.attempts += 1
            try:
                if self.fault_hook is not None:
                    self.fault_hook(item)
            except Exception as exc:
                self._retry_or_fail(item, str(exc))
                continue
            runnable.append(item)
        if not runnable:
            return

        exemplar = runnable[0]
        stages = exemplar.stages
        current = [
            self.engine.input_grid(stages[0].spec, item.seed)
            for item in runnable
        ]
        # per_item[i] collects (arr, digest) per stage for item i —
        # the same shape execute_pipeline returns, so the reply and
        # canary helpers are shared with the interpreted path.
        per_item: List[List] = [[] for _ in runnable]
        execute_start_ns = time.perf_counter_ns()
        try:
            with trace_context(
                exemplar.trace_id, exemplar.parent_span_id
            ), span(
                "lower.execute",
                benchmark=exemplar.label or exemplar.spec.name,
                batch=len(runnable),
                stages=len(stages),
            ):
                for idx, (stage, kernel) in enumerate(
                    zip(stages, kernels)
                ):
                    rows = kernel.run_many(current)
                    arrs = [
                        np.ascontiguousarray(row, dtype=np.float64)
                        for row in rows
                    ]
                    # Hash each row's buffer directly — the bytes of
                    # ``row.tobytes()`` without copying them.
                    for results, arr in zip(per_item, arrs):
                        results.append(
                            (arr, hashlib.sha256(arr.data).hexdigest())
                        )
                    if idx + 1 < len(stages):
                        shape = intermediate_grid_shape(stage.spec)
                        current = [arr.reshape(shape) for arr in arrs]
        except Exception:
            # A kernel that cannot execute is a lowering gap, not a
            # request failure: fall back to the interpreted path.
            self._count_fallback("kernel_error", len(runnable))
            self.registry.counter(
                "service_lower_kernel_errors_total"
            ).inc()
            for item in runnable:
                item.attempts -= 1  # the interpreted path re-counts
            super()._execute_group(runnable, plans, outcome)
            return
        execute_ms = (
            time.perf_counter_ns() - execute_start_ns
        ) / 1e6
        observe_stage(self.registry, "lower_execute", execute_ms)
        observe_stage(self.registry, "execute", execute_ms)
        compiled = 0
        for item, results in zip(runnable, per_item):
            compiled += self._finish(item, plans, outcome, results)
        if compiled:
            self.registry.counter(
                "service_lower_requests_total", {"path": "compiled"}
            ).inc(compiled)

    def _resolve_validation_failure(
        self, item: WorkItem, cache_outcome: str, error: str
    ) -> None:
        for stage in item.stages:
            self.engine.forget(stage.fingerprint)
        super()._resolve_validation_failure(item, cache_outcome, error)


@register_executor("compiled")
def _make_compiled_executor(
    config, shared, fault_hook
) -> CompiledPlanExecutor:
    """``backend="compiled"`` (thread mode): batched lowered kernels."""
    engine = CompiledEngine(config=config.lowering)
    return CompiledPlanExecutor(
        engine=engine, fault_hook=fault_hook, **shared
    )
