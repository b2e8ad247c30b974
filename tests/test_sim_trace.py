"""Tests of the execution-flow trace — the Table 3 reproduction.

The paper's Table 3 shows the automatic filling of reuse buffers for
DENOISE: the *latest* filter (A[i-1][j]) forwards once and stalls first,
filling the last FIFO; the stall propagates upstream FIFO by FIFO until
the earliest filter finally forwards, at which point the kernel produces
its first output and the whole chain streams at full rate.
"""

import pytest

from repro.microarch.memory_system import build_memory_system
from repro.sim import engine
from repro.sim.engine import ChainSimulator
from repro.sim.modules import SimFilter
from repro.sim.trace import TraceRecorder
from repro.stencil.golden import make_input
from repro.stencil.kernels import DENOISE


@pytest.fixture
def traced_run():
    spec = DENOISE.with_grid((12, 16))
    grid = make_input(spec)
    system = build_memory_system(spec.analysis())
    trace = TraceRecorder(max_cycles=500)
    result = ChainSimulator(spec, system, grid, trace=trace).run()
    return spec, system, result, trace


class TestFillSequence:
    def test_latest_filter_stalls_first(self, traced_run):
        _, system, _, trace = traced_run
        n = system.n_references
        stall_cycles = [
            trace.first_cycle_with_status(k, SimFilter.STALLED)
            for k in range(n)
        ]
        # Filter n-1 (the latest reference) stalls strictly before
        # every other filter (Table 3's cycle-1 event); the stall then
        # propagates upstream.  Filter 0 (the earliest) may never
        # stall: once it forwards, the kernel consumes immediately.
        latest = stall_cycles[-1]
        assert latest is not None
        for c in stall_cycles[1:-1]:
            assert c is not None and c > latest

    def test_fifos_fill_downstream_first(self, traced_run):
        _, system, _, trace = traced_run
        fills = [
            trace.fifo_fill_cycle(f.fifo_id) for f in system.fifos
        ]
        assert all(c is not None for c in fills)
        # FIFO 3 (feeding the latest filter) fills before FIFO 0.
        assert fills[-1] < fills[0]

    def test_every_filter_eventually_forwards(self, traced_run):
        _, system, _, trace = traced_run
        for k in range(system.n_references):
            assert (
                trace.first_cycle_with_status(k, SimFilter.FORWARDING)
                is not None
            )

    def test_earliest_filter_only_discards_before_its_domain(
        self, traced_run
    ):
        _, system, _, trace = traced_run
        first_fwd = trace.first_cycle_with_status(
            0, SimFilter.FORWARDING
        )
        for row in trace.rows:
            if row.cycle >= first_fwd:
                break
            assert row.filter_statuses[0] in (
                SimFilter.DISCARDING,
                SimFilter.IDLE,
            )

    def test_steady_state_all_forwarding(self, traced_run):
        """Once the pipeline fills, there are cycles where every filter
        forwards simultaneously — the paper's cycle-2049 state."""
        _, system, _, trace = traced_run
        n = system.n_references
        assert any(
            all(s == SimFilter.FORWARDING for s in row.filter_statuses)
            for row in trace.rows
        )


class TestTraceContent:
    def test_stream_labels_are_lexicographic(self, traced_run):
        _, _, _, trace = traced_run
        labels = [
            r.stream_label
            for r in trace.rows
            if r.stream_label is not None
        ]
        assert labels[0] == "A[0][0]"
        assert labels[1] == "A[0][1]"

    def test_occupancy_series_length_matches_rows(self, traced_run):
        _, system, _, trace = traced_run
        series = trace.occupancy_series(0)
        assert len(series) == len(trace.rows)

    def test_max_cycles_bounds_recording(self):
        spec = DENOISE.with_grid((12, 16))
        grid = make_input(spec)
        system = build_memory_system(spec.analysis())
        trace = TraceRecorder(max_cycles=10)
        ChainSimulator(spec, system, grid, trace=trace).run()
        assert len(trace.rows) == 10

    def test_invalid_max_cycles(self):
        with pytest.raises(ValueError):
            TraceRecorder(max_cycles=0)

    def test_untraced_run_builds_no_labels(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("trace label built with no recorder")

        monkeypatch.setattr(engine, "_element_label", refuse)
        spec = DENOISE.with_grid((12, 16))
        system = build_memory_system(spec.analysis())
        result = ChainSimulator(spec, system, make_input(spec)).run()
        assert result.trace is None


class TestRendering:
    def test_render_contains_headers_and_statuses(self, traced_run):
        _, _, _, trace = traced_run
        text = trace.render(max_rows=40)
        assert "cycle" in text
        assert "FIFO0" in text
        assert " f" in text or "f " in text

    def test_compressed_render_shorter(self, traced_run):
        _, _, _, trace = traced_run
        full = trace.render(compress=False)
        compressed = trace.render(compress=True)
        assert len(compressed.splitlines()) <= len(full.splitlines())

    def test_compressed_render_has_ranges(self, traced_run):
        _, _, _, trace = traced_run
        assert "-" in trace.render(compress=True)

    def test_empty_trace_renders(self):
        assert TraceRecorder().render() == "(empty trace)"
