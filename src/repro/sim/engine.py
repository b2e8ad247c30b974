"""Cycle-level simulation engine for the streaming microarchitecture.

:class:`ChainSimulator` executes a generated
:class:`~repro.microarch.memory_system.MemorySystem` (any number of chain
segments) together with the computation kernel, cycle by cycle:

1. The kernel fires when all ``n`` filter ports hold valid data,
   freeing every pending slot (flow-through consumption).
2. Within each segment, splitters are evaluated downstream-to-upstream so
   a FIFO popped this cycle can be refilled this cycle — the cut-through
   behaviour of the RTL handshake chain.  Splitter ``k`` fires only when
   its upstream (previous FIFO or the segment's off-chip stream) has
   data, its filter's pending slot is free, and the next FIFO has space.
3. Segment streams deliver at most one element per cycle (one off-chip
   access per cycle per segment).

The engine asserts global progress: if no module fires during a cycle
before the run is complete, it raises :class:`DeadlockError` with a state
dump — this is how the deadlock-freedom tests exercise Eq. (1)/(2) of
Section 3.3.2 (violating either condition makes this trip).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..microarch.memory_system import MemorySystem
from ..obs.probe import SimProbe
from ..obs.tracing import span
from ..polyhedral.lexorder import Vector
from ..stencil.spec import StencilSpec
from .modules import Element, SimFifo, SimFilter, SimKernel
from .stream import DataStream
from .trace import TraceRecorder


class DeadlockError(RuntimeError):
    """No module can make progress but the run is incomplete."""


@dataclass
class SimulationStats:
    """Aggregate statistics of one simulation run."""

    total_cycles: int
    outputs_produced: int
    first_output_cycle: Optional[int]
    steady_state_ii: float
    worst_output_gap: int
    fifo_max_occupancy: Dict[int, int]
    fifo_capacity: Dict[int, int]
    elements_streamed_per_segment: List[int]
    filter_forwarded: Dict[int, int]
    filter_discarded: Dict[int, int]

    @property
    def fill_latency(self) -> Optional[int]:
        return self.first_output_cycle


@dataclass
class SimulationResult:
    """Outputs plus statistics (and an optional Table 3 trace)."""

    outputs: List[Tuple[Vector, float]]
    stats: SimulationStats
    trace: Optional[TraceRecorder] = None

    def output_values(self) -> List[float]:
        return [v for _, v in self.outputs]

    def output_iterations(self) -> List[Vector]:
        return [i for i, _ in self.outputs]


class ChainSimulator:
    """Executes one memory system + kernel on a concrete input grid."""

    def __init__(
        self,
        spec: StencilSpec,
        system: MemorySystem,
        grid: np.ndarray,
        kernel_latency: int = 4,
        stream_latency: int = 0,
        trace: Optional[TraceRecorder] = None,
        fifo_capacity_override: Optional[Dict[int, int]] = None,
        filter_order_override: Optional[Sequence[int]] = None,
        dram=None,
        bus=None,
        probe: Optional[SimProbe] = None,
    ) -> None:
        """``fifo_capacity_override`` and ``filter_order_override`` exist
        for the deadlock experiments: they deliberately mis-size FIFOs or
        permute the filter order to violate conditions (2) / (1).

        ``dram`` (a :class:`~repro.sim.offchip.DramTimingModel`) and
        ``bus`` (an :class:`~repro.sim.offchip.OffchipBus`) route the
        segment streams through the off-chip substrate instead of an
        ideal 1-word-per-cycle source.

        ``probe`` (a :class:`~repro.obs.probe.SimProbe`) receives one
        callback per cycle plus completion/deadlock hooks; with no probe
        the cycle loop pays a single attribute check per cycle."""
        if tuple(grid.shape) != tuple(spec.grid):
            raise ValueError(
                f"grid shape {grid.shape} does not match spec "
                f"{spec.grid}"
            )
        self.spec = spec
        self.system = system
        self.grid = grid
        self.trace = trace
        self._probe = probe
        order = list(
            filter_order_override
            if filter_order_override is not None
            else range(system.n_references)
        )
        if sorted(order) != list(range(system.n_references)):
            raise ValueError("filter order override must be a permutation")
        self._filters: List[SimFilter] = []
        for position, original in enumerate(order):
            f = system.filters[original]
            self._filters.append(
                SimFilter(
                    filter_id=position,
                    reference=f.reference,
                    output_domain=f.output_domain,
                )
            )
        overrides = fifo_capacity_override or {}
        self._bus = bus
        self._segments: List[_SegmentRuntime] = []
        for seg in system.segments:
            fifos = [
                SimFifo(
                    fifo_id=f.fifo_id,
                    capacity=overrides.get(f.fifo_id, f.capacity),
                )
                for f in seg.fifos
            ]
            if dram is not None or bus is not None:
                from .offchip import ThrottledDataStream

                stream = ThrottledDataStream(
                    system.stream_domain, grid, dram=dram, bus=bus
                )
            else:
                stream = DataStream(
                    system.stream_domain,
                    grid,
                    initial_latency=stream_latency,
                )
            self._segments.append(
                _SegmentRuntime(
                    first=seg.first_filter,
                    last=seg.last_filter,
                    fifos=fifos,
                    stream=stream,
                )
            )
        self._plan = _splitter_plan(self._filters, self._segments)
        self._kernel = SimKernel(
            references=[f.reference for f in self._filters],
            expression=spec.expression,
            latency=kernel_latency,
        )
        self._expected_outputs = spec.iteration_domain.count()
        self.cycle = 0

    # ------------------------------------------------------------------
    def run(self, max_cycles: Optional[int] = None) -> SimulationResult:
        """Run to completion (or raise on deadlock / cycle budget)."""
        if max_cycles is None:
            # Fill + streaming + drain, with generous headroom.
            stream_len = self.system.stream_domain.count()
            max_cycles = 4 * (
                stream_len
                + self._expected_outputs
                + self.system.total_buffer_size
                + self._kernel.latency
                + 64
            )
        with span(
            "sim.run",
            benchmark=self.spec.name,
            grid="x".join(str(g) for g in self.spec.grid),
        ):
            kernel = self._kernel
            expected = self._expected_outputs
            streams = [seg.stream for seg in self._segments]
            while kernel.consumed_iterations < expected:
                self.cycle += 1
                if self.cycle > max_cycles:
                    raise RuntimeError(
                        f"simulation exceeded {max_cycles} cycles with "
                        f"{kernel.consumed_iterations}/"
                        f"{expected} outputs"
                    )
                # Before the step ticks the streams: a stream still
                # serving its latency is progress to come.
                waiting = any(stream.waiting for stream in streams)
                progress = self._step()
                if not progress and not waiting:
                    raise DeadlockError(self._deadlock_report())
            return self._result()

    # ------------------------------------------------------------------
    def _step(self) -> bool:
        """One clock cycle; returns True if any module fired."""
        if self._bus is not None:
            self._bus.begin_cycle()

        # Phase 1: the kernel consumes all ports if possible.
        fired = self._kernel.try_fire(self._filters, self.cycle)

        # Phases 2-3: splitters, stream ticks, idle/stall statuses.
        moved, streamed = _splitter_phase(self._plan)

        if self.trace is not None:
            self.trace.record(
                cycle=self.cycle,
                stream_label=(
                    _element_label(self.spec.input_array, streamed)
                    if streamed is not None
                    else None
                ),
                filter_statuses=[f.status for f in self._filters],
                fifo_occupancy={
                    f.fifo_id: len(f)
                    for seg in self._segments
                    for f in seg.fifos
                },
            )
        progress = fired or moved
        if self._probe is not None:
            self._probe.on_cycle(self, progress)
        return progress

    # ------------------------------------------------------------------
    def _result(self) -> SimulationResult:
        outputs = [
            (o.iteration, o.value) for o in self._kernel.outputs
        ]
        issue_cycles = [o.issue_cycle for o in self._kernel.outputs]
        if len(issue_cycles) >= 2:
            gaps = [
                b - a for a, b in zip(issue_cycles, issue_cycles[1:])
            ]
            steady = sum(gaps) / len(gaps)
            worst = max(gaps)
        else:
            steady = 1.0
            worst = 1
        stats = SimulationStats(
            total_cycles=self.cycle,
            outputs_produced=len(outputs),
            first_output_cycle=(
                issue_cycles[0] if issue_cycles else None
            ),
            steady_state_ii=steady,
            worst_output_gap=worst,
            fifo_max_occupancy={
                f.fifo_id: f.max_occupancy
                for seg in self._segments
                for f in seg.fifos
            },
            fifo_capacity={
                f.fifo_id: f.capacity
                for seg in self._segments
                for f in seg.fifos
            },
            elements_streamed_per_segment=[
                seg.stream.elements_streamed for seg in self._segments
            ],
            filter_forwarded={
                f.filter_id: f.forwarded for f in self._filters
            },
            filter_discarded={
                f.filter_id: f.discarded for f in self._filters
            },
        )
        result = SimulationResult(
            outputs=outputs, stats=stats, trace=self.trace
        )
        if self._probe is not None:
            self._probe.on_complete(self, result)
        return result

    def _deadlock_report(self) -> str:
        lines = [
            f"deadlock at cycle {self.cycle}: "
            f"{self._kernel.consumed_iterations}/"
            f"{self._expected_outputs} outputs produced"
        ]
        for k, flt in enumerate(self._filters):
            pend = (
                f"pending {flt.pending[0]}"
                if flt.pending is not None
                else "pending empty"
            )
            lines.append(
                f"  filter {k} ({flt.reference.label}): {pend}, "
                f"status {flt.status}"
            )
        for seg in self._segments:
            for f in seg.fifos:
                lines.append(
                    f"  FIFO {f.fifo_id}: {len(f)}/{f.capacity}"
                )
            lines.append(
                f"  stream: available={seg.stream.available} "
                f"exhausted={seg.stream.exhausted}"
            )
        if self._probe is not None:
            lines.extend(self._probe.deadlock_context(self))
        return "\n".join(lines)


class _SegmentRuntime:
    """Mutable per-segment state: its stream and internal FIFOs."""

    def __init__(
        self,
        first: int,
        last: int,
        fifos: List[SimFifo],
        stream: DataStream,
    ) -> None:
        self.first = first
        self.last = last
        self.fifos = fifos
        self.stream = stream


#: One splitter of a segment: ``(filter, upstream queue, next FIFO,
#: next FIFO's queue)``.  The first splitter's upstream is the segment's
#: stream (``None`` here); the last splitter has no next FIFO.
SplitterStep = Tuple[
    SimFilter, Optional[Deque[Element]], Optional[SimFifo],
    Optional[Deque[Element]],
]
#: Per segment, its stream and its splitters, downstream to upstream.
SplitterPlan = List[Tuple[DataStream, List[SplitterStep]]]


def _splitter_plan(
    filters: Sequence[SimFilter], segments: Sequence[_SegmentRuntime]
) -> SplitterPlan:
    """Each segment's splitter walk for :func:`_splitter_phase`."""
    plan: SplitterPlan = []
    for seg in segments:
        steps: List[SplitterStep] = []
        for k in range(seg.last, seg.first - 1, -1):
            fifo_in = (
                None if k == seg.first else seg.fifos[k - seg.first - 1]
            )
            fifo_out = None if k == seg.last else seg.fifos[k - seg.first]
            steps.append((
                filters[k],
                None if fifo_in is None else fifo_in._queue,
                fifo_out,
                None if fifo_out is None else fifo_out._queue,
            ))
        plan.append((seg.stream, steps))
    return plan


def _splitter_phase(plan: SplitterPlan) -> Tuple[bool, Optional[Element]]:
    """Phases 2-3 of a cycle, shared by every chain simulator.

    Splitter ``k`` fires when its filter's pending slot is free, its
    upstream has data and its next FIFO (if any) has space; it then
    moves one element into that FIFO and through filter ``k``.  A
    filter that receives nothing is stalled if its slot is full and
    idle otherwise.  Each segment's stream ticks one latency cycle
    after its splitters.

    ``SimFifo.push``/``pop``, ``SimFilter.accept`` and
    ``SimFilter.mark_no_input`` are inlined: the guards just evaluated
    rule out the overflow, empty-pop and accept-while-stalled errors
    and decide the no-input status.  Returns whether any splitter fired
    and the element the first segment's stream delivered (or None).
    """
    moved = False
    streamed: Optional[Element] = None
    first_stream = plan[0][0]
    for stream, steps in plan:
        for flt, in_queue, fifo_out, out_queue in steps:
            if flt.pending is not None:
                flt.status = SimFilter.STALLED
                flt.stalled_cycles += 1
                continue
            if (
                not (stream.available if in_queue is None else in_queue)
                or out_queue is not None
                and len(out_queue) >= fifo_out.capacity
            ):
                flt.status = SimFilter.IDLE
                continue
            if in_queue is None:
                element = stream.pop()
                if stream is first_stream:
                    streamed = element
            else:
                element = in_queue.popleft()
            if out_queue is not None:
                out_queue.append(element)
                fifo_out.total_pushes += 1
                if len(out_queue) > fifo_out.max_occupancy:
                    fifo_out.max_occupancy = len(out_queue)
            if element[0] == flt._next_output:
                flt.pending = element
                flt._next_output = next(flt._output_iter, None)
                flt.forwarded += 1
                flt.status = SimFilter.FORWARDING
            else:
                flt.discarded += 1
                flt.status = SimFilter.DISCARDING
            moved = True
        stream.tick()
    return moved, streamed


def _element_label(array: str, element: Element) -> str:
    point, _ = element
    indices = "".join(f"[{c}]" for c in point)
    return f"{array}{indices}"
