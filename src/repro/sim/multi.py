"""Cycle-level simulation of multi-array accelerators (Fig 3).

One independent splitter/FIFO/filter chain per input array, all feeding
a single computation kernel that consumes every data port of every
array in one cycle.  The chains share nothing (the paper: "there are no
reuse opportunities among different data arrays"), so each has its own
off-chip stream; the kernel synchronizes them implicitly through
backpressure, exactly as within a single chain.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..microarch.memory_system import MemorySystem, build_memory_system
from ..stencil.multi import MultiArraySpec
from .engine import (
    DeadlockError,
    SimulationResult,
    SimulationStats,
    _SegmentRuntime,
    _splitter_plan,
    _splitter_phase,
)
from .modules import SimFifo, SimFilter, SimKernel
from .stream import DataStream
from .trace import TraceRecorder


class MultiArraySimulator:
    """Executes one chain per input array plus the shared kernel."""

    def __init__(
        self,
        spec: MultiArraySpec,
        grids: Dict[str, np.ndarray],
        systems: Optional[Dict[str, MemorySystem]] = None,
        kernel_latency: int = 4,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        if systems is None:
            systems = {
                array: build_memory_system(spec.analysis(array))
                for array in spec.input_arrays
            }
        missing = set(spec.input_arrays) - set(systems)
        if missing:
            raise ValueError(f"missing memory systems: {sorted(missing)}")
        missing = set(spec.input_arrays) - set(grids)
        if missing:
            raise ValueError(f"missing input grids: {sorted(missing)}")
        self.spec = spec
        self.systems = systems
        self.trace = trace
        self._filters: List[SimFilter] = []
        self._chains: List[Tuple[str, List[_SegmentRuntime], List[int]]]
        self._chains = []
        references = []
        for array in spec.input_arrays:
            system = systems[array]
            grid = grids[array]
            if tuple(grid.shape) != tuple(spec.grid):
                raise ValueError(
                    f"grid for {array!r} has shape {grid.shape}, "
                    f"expected {spec.grid}"
                )
            base = len(self._filters)
            filter_ids = []
            for f in system.filters:
                sim_filter = SimFilter(
                    filter_id=base + f.filter_id,
                    reference=f.reference,
                    output_domain=f.output_domain,
                )
                self._filters.append(sim_filter)
                references.append(f.reference)
                filter_ids.append(sim_filter.filter_id)
            segments = []
            for seg in system.segments:
                fifos = [
                    SimFifo(fifo_id=f.fifo_id, capacity=f.capacity)
                    for f in seg.fifos
                ]
                segments.append(
                    _SegmentRuntime(
                        first=base + seg.first_filter,
                        last=base + seg.last_filter,
                        fifos=fifos,
                        stream=DataStream(system.stream_domain, grid),
                    )
                )
            self._chains.append((array, segments, filter_ids))
        self._plan = _splitter_plan(
            self._filters,
            [seg for _, segments, _ in self._chains for seg in segments],
        )
        self._kernel = SimKernel(
            references=references,
            expression=spec.expression,
            latency=kernel_latency,
        )
        self._expected = spec.iteration_domain.count()
        self.cycle = 0

    # ------------------------------------------------------------------
    def run(self, max_cycles: Optional[int] = None) -> SimulationResult:
        if max_cycles is None:
            longest = max(
                sys.stream_domain.count() for sys in self.systems.values()
            )
            buffering = sum(
                sys.total_buffer_size for sys in self.systems.values()
            )
            max_cycles = 4 * (
                longest + self._expected + buffering + 64
            )
        while self._kernel.consumed_iterations < self._expected:
            self.cycle += 1
            if self.cycle > max_cycles:
                raise RuntimeError(
                    f"multi-array simulation exceeded {max_cycles} "
                    "cycles"
                )
            if not self._step():
                raise DeadlockError(
                    f"multi-array deadlock at cycle {self.cycle}: "
                    f"{self._kernel.consumed_iterations}/"
                    f"{self._expected} outputs"
                )
        return self._result()

    def _step(self) -> bool:
        fired = self._kernel.try_fire(self._filters, self.cycle)
        moved, _ = _splitter_phase(self._plan)
        if self.trace is not None:
            self.trace.record(
                cycle=self.cycle,
                stream_label=None,
                filter_statuses=[f.status for f in self._filters],
                fifo_occupancy={
                    f.fifo_id: len(f)
                    for _, segments, _ in self._chains
                    for seg in segments
                    for f in seg.fifos
                },
            )
        return fired or moved

    def _result(self) -> SimulationResult:
        outputs = [(o.iteration, o.value) for o in self._kernel.outputs]
        issue = [o.issue_cycle for o in self._kernel.outputs]
        gaps = [b - a for a, b in zip(issue, issue[1:])]
        stats = SimulationStats(
            total_cycles=self.cycle,
            outputs_produced=len(outputs),
            first_output_cycle=issue[0] if issue else None,
            steady_state_ii=(
                sum(gaps) / len(gaps) if gaps else 1.0
            ),
            worst_output_gap=max(gaps) if gaps else 1,
            fifo_max_occupancy={},
            fifo_capacity={},
            elements_streamed_per_segment=[
                seg.stream.elements_streamed
                for _, segments, _ in self._chains
                for seg in segments
            ],
            filter_forwarded={
                f.filter_id: f.forwarded for f in self._filters
            },
            filter_discarded={
                f.filter_id: f.discarded for f in self._filters
            },
        )
        return SimulationResult(
            outputs=outputs, stats=stats, trace=self.trace
        )
