"""Disabled instrumentation must not slow the simulator cycle loop.

The contract: with no probe attached, :class:`ChainSimulator` pays one
attribute check per cycle.  This test measures that cost against a
baseline simulator whose ``_step`` is the current loop (verbatim,
minus the probe hook) and asserts the slowdown stays within
5% plus a small absolute allowance that absorbs timer jitter on a busy
CI machine.  Trials are interleaved and the minimum per variant is
used, which cancels transient load almost entirely.
"""

import time

from repro.microarch.memory_system import build_memory_system
from repro.sim.engine import ChainSimulator, _element_label, _splitter_phase
from repro.stencil.golden import make_input
from repro.stencil.kernels import DENOISE

#: Mid-size grid: ~2.2k cycles per run, milliseconds of wall time.
GRID = (40, 56)
TRIALS = 5
#: Relative budget for the per-cycle probe check (the 5% contract)
#: plus an absolute millisecond of allowance for scheduler noise.
REL_BUDGET = 1.05
ABS_BUDGET_S = 1e-3


class _BaselineSimulator(ChainSimulator):
    """The cycle loop exactly as it is, minus the probe hook."""

    def _step(self) -> bool:
        if self._bus is not None:
            self._bus.begin_cycle()

        fired = self._kernel.try_fire(self._filters, self.cycle)

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
        return fired or moved


def _timed_run(sim_cls, spec, system, grid) -> float:
    sim = sim_cls(spec, system, grid)
    start = time.perf_counter()
    sim.run()
    return time.perf_counter() - start


def test_disabled_instrumentation_overhead_within_budget():
    spec = DENOISE.with_grid(GRID)
    system = build_memory_system(spec.analysis())
    grid = make_input(spec)

    # Warm both paths once (allocator, caches, bytecode specializer).
    _timed_run(_BaselineSimulator, spec, system, grid)
    _timed_run(ChainSimulator, spec, system, grid)

    baseline = float("inf")
    instrumented = float("inf")
    for _ in range(TRIALS):
        baseline = min(
            baseline, _timed_run(_BaselineSimulator, spec, system, grid)
        )
        instrumented = min(
            instrumented, _timed_run(ChainSimulator, spec, system, grid)
        )

    budget = baseline * REL_BUDGET + ABS_BUDGET_S
    assert instrumented <= budget, (
        f"disabled-instrumentation cycle loop took {instrumented:.4f}s "
        f"vs baseline {baseline:.4f}s (budget {budget:.4f}s)"
    )


def test_baseline_and_instrumented_agree():
    """The baseline copy must stay behaviourally identical."""
    spec = DENOISE.with_grid((12, 16))
    system = build_memory_system(spec.analysis())
    grid = make_input(spec)
    a = _BaselineSimulator(spec, system, grid).run()
    b = ChainSimulator(spec, system, grid).run()
    assert a.output_values() == b.output_values()
    assert a.stats.total_cycles == b.stats.total_cycles
