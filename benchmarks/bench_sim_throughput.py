"""Simulator performance — cycle-level simulation throughput per
benchmark (cycles simulated per second of wall clock) plus an
end-to-end compile benchmark of the Fig 11 flow.

Not a paper artifact; it keeps the reproduction's own engineering
honest (regressions in the simulator or the flow show up here).
"""

import time

import numpy as np
import pytest

from conftest import emit

from repro.flow.automation import compile_accelerator
from repro.microarch.memory_system import build_memory_system
from repro.sim.engine import ChainSimulator
from repro.stencil.golden import golden_output_sequence, make_input
from repro.stencil.kernels import PAPER_BENCHMARKS

#: Reduced grids sized for meaningful but fast simulation.
SIM_GRIDS = {
    "DENOISE": (32, 40),
    "RICIAN": (32, 40),
    "SOBEL": (28, 32),
    "BICUBIC": (28, 32),
    "DENOISE_3D": (10, 11, 12),
    "SEGMENTATION_3D": (8, 9, 10),
}


def _simulate(spec, run_seconds):
    """One golden-checked run; appends its simulation wall time."""
    grid = make_input(spec)
    system = build_memory_system(spec.analysis())
    start = time.perf_counter()
    result = ChainSimulator(spec, system, grid).run()
    run_seconds.append(time.perf_counter() - start)
    assert np.array_equal(
        result.output_values(), golden_output_sequence(spec, grid)
    )
    return result


@pytest.mark.parametrize(
    "spec",
    [s.with_grid(SIM_GRIDS[s.name]) for s in PAPER_BENCHMARKS],
    ids=lambda s: s.name,
)
def bench_sim(benchmark, spec):
    run_seconds = []
    result = benchmark(_simulate, spec, run_seconds)
    assert result.stats.outputs_produced == spec.iteration_domain.count()
    cycles = result.stats.total_cycles
    best = min(run_seconds)
    emit(
        f"Simulator throughput — {spec.name} "
        f"{'x'.join(map(str, spec.grid))}",
        f"{cycles} cycles in {best * 1e3:.2f} ms (fastest run): "
        f"{cycles / best:,.0f} cycles/s",
    )


def bench_flow_compile_all(benchmark):
    """End-to-end Fig 11 flow over the whole suite."""

    def compile_all():
        return [compile_accelerator(s) for s in PAPER_BENCHMARKS]

    designs = benchmark(compile_all)
    assert len(designs) == 6
    emit(
        "Flow summary — compile_accelerator over the full suite",
        "\n".join(str(d.summary()) for d in designs),
    )
