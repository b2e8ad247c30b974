"""Pinned simulator behaviour: exact statistics, outputs and reports.

Every case below was recorded from the cycle simulator and is compared
field for field, so any change to the cycle loop that alters a cycle
count, a FIFO's high-water mark or push count, a filter's
forward/discard/stall tally, an output bit, the Table 3 trace or a
deadlock report fails here.  The
cases span the six paper kernels at their small test grids, the skewed
(Fig 9) domain, a 2-stream (Fig 14) chain, a DRAM-throttled shared bus,
a stream with initial latency and a multi-array (Fig 3) accelerator.
"""

import hashlib

import numpy as np
import pytest

from repro.microarch.memory_system import build_memory_system
from repro.microarch.tradeoff import with_offchip_streams
from repro.obs import MetricsProbe
from repro.sim.engine import ChainSimulator, DeadlockError
from repro.sim.multi import MultiArraySimulator
from repro.sim.offchip import DramTimingModel, OffchipBus
from repro.sim.trace import TraceRecorder
from repro.stencil import PAPER_BENCHMARKS, make_input, skewed_denoise
from repro.stencil.expr import Ref
from repro.stencil.kernels import DENOISE
from repro.stencil.multi import MultiArraySpec, make_inputs

from conftest import small_spec


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _segments(sim):
    if isinstance(sim, MultiArraySimulator):
        return [seg for _, segments, _ in sim._chains for seg in segments]
    return sim._segments


def _pinned(sim) -> dict:
    result = sim.run()
    stats = result.stats
    return {
        "total_cycles": stats.total_cycles,
        "first_output_cycle": stats.first_output_cycle,
        "steady_state_ii": stats.steady_state_ii,
        "worst_output_gap": stats.worst_output_gap,
        "fifo_max_occupancy": stats.fifo_max_occupancy,
        "filter_forwarded": stats.filter_forwarded,
        "filter_discarded": stats.filter_discarded,
        "elements_streamed_per_segment": (
            stats.elements_streamed_per_segment
        ),
        "outputs_sha256": _sha256(
            np.asarray(result.output_values(), dtype=np.float64).tobytes()
        ),
        "iterations_sha256": _sha256(
            repr(result.output_iterations()).encode()
        ),
        "filter_stalled_cycles": [f.stalled_cycles for f in sim._filters],
        "fifo_total_pushes": [
            f.total_pushes for seg in _segments(sim) for f in seg.fifos
        ],
    }


def _chain(spec, streams=1, **kwargs):
    system = build_memory_system(spec.analysis())
    if streams > 1:
        system = with_offchip_streams(system, streams)
    return ChainSimulator(spec, system, make_input(spec), **kwargs)


def _paper(name):
    spec = next(s for s in PAPER_BENCHMARKS if s.name == name)
    return _chain(small_spec(spec))


def _throttled_bus():
    bus = OffchipBus(words_per_cycle=1)
    dram = DramTimingModel(
        words_per_cycle=0.75,
        row_words=16,
        row_miss_penalty=3,
        initial_latency=2,
    )
    return _chain(small_spec(DENOISE), streams=2, dram=dram, bus=bus)


def _multi_array():
    expr = (
        0.6 * Ref((0, 0), "U")
        + 0.08
        * (
            Ref((-1, 0), "U")
            + Ref((1, 0), "U")
            + Ref((0, -1), "U")
            + Ref((0, 1), "U")
        )
        + 0.08 * Ref((0, 0), "F")
    )
    spec = MultiArraySpec("RICIAN_FULL", (10, 12), expr)
    return MultiArraySimulator(spec, make_inputs(spec))


CASES = {
    **{
        spec.name: (lambda name=spec.name: _paper(name))
        for spec in PAPER_BENCHMARKS
    },
    "DENOISE_skewed": lambda: _chain(skewed_denoise(rows=8, cols=10)),
    "DENOISE_2_streams": lambda: _chain(small_spec(DENOISE), streams=2),
    "DENOISE_throttled_bus": _throttled_bus,
    "DENOISE_stream_latency_3": lambda: _chain(
        small_spec(DENOISE), stream_latency=3
    ),
    "RICIAN_FULL_multi_array": _multi_array,
}

GOLDEN = {
    "BICUBIC": {
        "total_cycles": 144,
        "first_output_cycle": 30,
        "steady_state_ii": 1.163265306122449,
        "worst_output_gap": 3,
        "fifo_max_occupancy": {0: 2, 1: 24, 2: 2},
        "filter_forwarded": {0: 99, 1: 99, 2: 99, 3: 99},
        "filter_discarded": {0: 44, 1: 43, 2: 19, 3: 17},
        "elements_streamed_per_segment": [143],
        "outputs_sha256": (
            "8e1b1d8f5cef89cefd83b00e392005ae7513e6f341b85326aa0286d0577909d9"
        ),
        "iterations_sha256": (
            "cbf6b0dddb2239aeded226da5faf6bf2eb4baf207a8854d05396b67ce9d7f44c"
        ),
        "filter_stalled_cycles": [0, 1, 24, 25],
        "fifo_total_pushes": [143, 142, 118],
    },
    "DENOISE": {
        "total_cycles": 192,
        "first_output_cycle": 35,
        "steady_state_ii": 1.129496402877698,
        "worst_output_gap": 3,
        "fifo_max_occupancy": {0: 15, 1: 1, 2: 1, 3: 15},
        "filter_forwarded": {0: 140, 1: 140, 2: 140, 3: 140, 4: 140},
        "filter_discarded": {0: 52, 1: 37, 2: 36, 3: 35, 4: 20},
        "elements_streamed_per_segment": [192],
        "outputs_sha256": (
            "24c0aa6cdc7f0fc17074278c7924ef82000d29a689ec3e188e88c8e7ff11abc9"
        ),
        "iterations_sha256": (
            "d977ebad8079aaaad4437dba96d7d9861df34ef059e348638c446cf5d4b3ffd7"
        ),
        "filter_stalled_cycles": [0, 14, 14, 14, 28],
        "fifo_total_pushes": [192, 177, 176, 175],
    },
    "DENOISE_2_streams": {
        "total_cycles": 192,
        "first_output_cycle": 35,
        "steady_state_ii": 1.129496402877698,
        "worst_output_gap": 3,
        "fifo_max_occupancy": {1: 1, 2: 1, 3: 15},
        "filter_forwarded": {0: 140, 1: 140, 2: 140, 3: 140, 4: 140},
        "filter_discarded": {0: 52, 1: 37, 2: 36, 3: 35, 4: 20},
        "elements_streamed_per_segment": [192, 177],
        "outputs_sha256": (
            "24c0aa6cdc7f0fc17074278c7924ef82000d29a689ec3e188e88c8e7ff11abc9"
        ),
        "iterations_sha256": (
            "d977ebad8079aaaad4437dba96d7d9861df34ef059e348638c446cf5d4b3ffd7"
        ),
        "filter_stalled_cycles": [0, 15, 15, 15, 29],
        "fifo_total_pushes": [177, 176, 175],
    },
    "DENOISE_3D": {
        "total_cycles": 328,
        "first_output_cycle": 123,
        "steady_state_ii": 1.7226890756302522,
        "worst_output_gap": 19,
        "fifo_max_occupancy": {0: 48, 1: 7, 2: 1, 3: 1, 4: 7, 5: 48},
        "filter_forwarded": {
            0: 120, 1: 120, 2: 120, 3: 120, 4: 120, 5: 120, 6: 120
        },
        "filter_discarded": {
            0: 208, 1: 160, 2: 153, 3: 152, 4: 151, 5: 144, 6: 96
        },
        "elements_streamed_per_segment": [328],
        "outputs_sha256": (
            "e43d17f392fb0f471abfbf2f2dc3e65660fb9ebe907fc7188cb015715abdd2df"
        ),
        "iterations_sha256": (
            "6e8516836c1ec1b4fc137f96f38239705db9e3f79f7419470e74f013121b079f"
        ),
        "filter_stalled_cycles": [0, 47, 53, 53, 53, 59, 106],
        "fifo_total_pushes": [328, 280, 273, 272, 271, 264],
    },
    "DENOISE_skewed": {
        "total_cycles": 190,
        "first_output_cycle": 41,
        "steady_state_ii": 1.8860759493670887,
        "worst_output_gap": 11,
        "fifo_max_occupancy": {0: 18, 1: 1, 2: 1, 3: 18},
        "filter_forwarded": {0: 80, 1: 80, 2: 80, 3: 80, 4: 80},
        "filter_discarded": {0: 110, 1: 92, 2: 91, 3: 90, 4: 72},
        "elements_streamed_per_segment": [190],
        "outputs_sha256": (
            "44d842680119492f408c086b044dc940bf9f2b451b2021c9d6de9db173023392"
        ),
        "iterations_sha256": (
            "cc896febc17eaf8a15af3a103bf3b57d534a45ffa038d3c4dab0fa845870e07d"
        ),
        "filter_stalled_cycles": [0, 17, 17, 17, 34],
        "fifo_total_pushes": [190, 172, 171, 170],
    },
    "DENOISE_stream_latency_3": {
        "total_cycles": 195,
        "first_output_cycle": 38,
        "steady_state_ii": 1.129496402877698,
        "worst_output_gap": 3,
        "fifo_max_occupancy": {0: 15, 1: 1, 2: 1, 3: 15},
        "filter_forwarded": {0: 140, 1: 140, 2: 140, 3: 140, 4: 140},
        "filter_discarded": {0: 52, 1: 37, 2: 36, 3: 35, 4: 20},
        "elements_streamed_per_segment": [192],
        "outputs_sha256": (
            "24c0aa6cdc7f0fc17074278c7924ef82000d29a689ec3e188e88c8e7ff11abc9"
        ),
        "iterations_sha256": (
            "d977ebad8079aaaad4437dba96d7d9861df34ef059e348638c446cf5d4b3ffd7"
        ),
        "filter_stalled_cycles": [0, 14, 14, 14, 28],
        "fifo_total_pushes": [192, 177, 176, 175],
    },
    "DENOISE_throttled_bus": {
        "total_cycles": 381,
        "first_output_cycle": 58,
        "steady_state_ii": 2.323741007194245,
        "worst_output_gap": 7,
        "fifo_max_occupancy": {1: 1, 2: 1, 3: 15},
        "filter_forwarded": {0: 140, 1: 140, 2: 140, 3: 140, 4: 140},
        "filter_discarded": {0: 52, 1: 36, 2: 36, 3: 35, 4: 20},
        "elements_streamed_per_segment": [192, 176],
        "outputs_sha256": (
            "24c0aa6cdc7f0fc17074278c7924ef82000d29a689ec3e188e88c8e7ff11abc9"
        ),
        "iterations_sha256": (
            "d977ebad8079aaaad4437dba96d7d9861df34ef059e348638c446cf5d4b3ffd7"
        ),
        "filter_stalled_cycles": [151, 0, 130, 148, 209],
        "fifo_total_pushes": [176, 176, 175],
    },
    "RICIAN": {
        "total_cycles": 192,
        "first_output_cycle": 35,
        "steady_state_ii": 1.129496402877698,
        "worst_output_gap": 3,
        "fifo_max_occupancy": {0: 15, 1: 2, 2: 15},
        "filter_forwarded": {0: 140, 1: 140, 2: 140, 3: 140},
        "filter_discarded": {0: 52, 1: 37, 2: 35, 3: 20},
        "elements_streamed_per_segment": [192],
        "outputs_sha256": (
            "a1d644b9c22d072bfc349f8e3f607475371907ef4fefa1a6cd990899112fff83"
        ),
        "iterations_sha256": (
            "d977ebad8079aaaad4437dba96d7d9861df34ef059e348638c446cf5d4b3ffd7"
        ),
        "filter_stalled_cycles": [0, 14, 15, 29],
        "fifo_total_pushes": [192, 177, 175],
    },
    "RICIAN_FULL_multi_array": {
        "total_cycles": 120,
        "first_output_cycle": 27,
        "steady_state_ii": 1.1772151898734178,
        "worst_output_gap": 3,
        "fifo_max_occupancy": {},
        "filter_forwarded": {0: 80, 1: 80, 2: 80, 3: 80, 4: 80, 5: 80},
        "filter_discarded": {0: 0, 1: 40, 2: 29, 3: 28, 4: 27, 5: 16},
        "elements_streamed_per_segment": [80, 120],
        "outputs_sha256": (
            "09a0f2bc1646fec85c9339faaa058e4da153c7f7df5009794156a3c867b956f4"
        ),
        "iterations_sha256": (
            "e2eafae748457f7af545d9ecc28f5f1d42cb722d9d7893ba767942e049bed544"
        ),
        "filter_stalled_cycles": [39, 0, 10, 10, 10, 20],
        "fifo_total_pushes": [120, 109, 108, 107],
    },
    "SEGMENTATION_3D": {
        "total_cycles": 336,
        "first_output_cycle": 131,
        "steady_state_ii": 1.7226890756302522,
        "worst_output_gap": 19,
        "fifo_max_occupancy": {
            0: 7, 1: 1, 2: 1, 3: 7, 4: 39, 5: 1, 6: 1, 7: 6, 8: 1, 9: 1, 10:
            6, 11: 1, 12: 1, 13: 39, 14: 7, 15: 1, 16: 1, 17: 7
        },
        "filter_forwarded": {
            0: 120, 1: 120, 2: 120, 3: 120, 4: 120, 5: 120, 6: 120, 7: 120, 8:
            120, 9: 120, 10: 120, 11: 120, 12: 120, 13: 120, 14: 120, 15: 120,
            16: 120, 17: 120, 18: 120
        },
        "filter_discarded": {
            0: 216, 1: 209, 2: 208, 3: 207, 4: 200, 5: 161, 6: 160, 7: 159, 8:
            153, 9: 152, 10: 151, 11: 145, 12: 144, 13: 143, 14: 104, 15: 97,
            16: 96, 17: 95, 18: 88
        },
        "elements_streamed_per_segment": [336],
        "outputs_sha256": (
            "dd5bee332250a7571219daf45eb41ff5b1ee5858d73e863797eb22f3b238988c"
        ),
        "iterations_sha256": (
            "6e8516836c1ec1b4fc137f96f38239705db9e3f79f7419470e74f013121b079f"
        ),
        "filter_stalled_cycles": [
            0, 6, 6, 6, 12, 50, 50, 50, 55, 55, 55, 60, 60, 60, 98, 104, 104,
            104, 110
        ],
        "fifo_total_pushes": [
            336, 329, 328, 327, 320, 281, 280, 279, 273, 272, 271, 265, 264,
            263, 224, 217, 216, 215
        ],
    },
    "SOBEL": {
        "total_cycles": 121,
        "first_output_cycle": 28,
        "steady_state_ii": 1.1772151898734178,
        "worst_output_gap": 3,
        "fifo_max_occupancy": {0: 1, 1: 1, 2: 10, 3: 2, 4: 10, 5: 1, 6: 1},
        "filter_forwarded": {
            0: 80, 1: 80, 2: 80, 3: 80, 4: 80, 5: 80, 6: 80, 7: 80
        },
        "filter_discarded": {
            0: 40, 1: 40, 2: 39, 3: 29, 4: 27, 5: 17, 6: 16, 7: 15
        },
        "elements_streamed_per_segment": [120],
        "outputs_sha256": (
            "5f078bb7e2c117d06d86cbdf0b18152c60710a156b681ba7f0f05a2a1a1504fc"
        ),
        "iterations_sha256": (
            "e2eafae748457f7af545d9ecc28f5f1d42cb722d9d7893ba767942e049bed544"
        ),
        "filter_stalled_cycles": [0, 0, 0, 9, 10, 19, 19, 19],
        "fifo_total_pushes": [120, 120, 119, 109, 107, 97, 96],
    },
}

TRACE_ROWS = 192
TRACE_SHA256 = (
    "f9b8c88059e5009e0fb6c8552edd3d4c9e76d118e3aec9e7dbf2afa632edbeed"
)
TRACE_HEAD = [
    '     cycle      stream        flt0        flt1        flt2       '
    ' flt3        flt4       FIFO0       FIFO1       FIFO2       FIFO3',
    '         1     A[0][0]           d           .           .       '
    '    .           .           1           0           0           0',
    '         2     A[0][1]           d           d           .       '
    '    .           .           1           1           0           0',
    '         3     A[0][2]           d           d           d       '
    '    .           .           1           1           1           0',
]

DEADLOCK_REPORT = (
    'deadlock at cycle 34: 0/140 outputs produced\n'
    '  filter 0 (A[i+1][j]): pending empty, status .\n'
    '  filter 1 (A[i][j+1]): pending (1, 2), status s\n'
    '  filter 2 (A[i][j]): pending (1, 1), status s\n'
    '  filter 3 (A[i][j-1]): pending (1, 0), status s\n'
    '  filter 4 (A[i-1][j]): pending (0, 1), status s\n'
    '  FIFO 0: 14/14\n'
    '  FIFO 1: 1/1\n'
    '  FIFO 2: 1/1\n'
    '  FIFO 3: 15/15\n'
    '  stream: available=True exhausted=False'
)

DEADLOCK_REPORT_WITH_RING = (
    'deadlock at cycle 34: 0/140 outputs produced\n'
    '  filter 0 (A[i+1][j]): pending empty, status .\n'
    '  filter 1 (A[i][j+1]): pending (1, 2), status s\n'
    '  filter 2 (A[i][j]): pending (1, 1), status s\n'
    '  filter 3 (A[i][j-1]): pending (1, 0), status s\n'
    '  filter 4 (A[i-1][j]): pending (0, 1), status s\n'
    '  FIFO 0: 14/14\n'
    '  FIFO 1: 1/1\n'
    '  FIFO 2: 1/1\n'
    '  FIFO 3: 15/15\n'
    '  stream: available=True exhausted=False\n'
    'last 4 cycles before deadlock (filters'
    ': f=forward d=discard s=stall .=idle):\n'
    '  cycle 31: filters=dssss fifos=[12, 1, 1, 15]\n'
    '  cycle 32: filters=dssss fifos=[13, 1, 1, 15]\n'
    '  cycle 33: filters=dssss fifos=[14, 1, 1, 15]\n'
    '  cycle 34: filters=.ssss fifos=[14, 1, 1, 15]'
)


@pytest.mark.parametrize("case", sorted(CASES))
def test_pinned_stats(case):
    assert _pinned(CASES[case]()) == GOLDEN[case]


def test_pinned_table3_trace():
    trace = TraceRecorder(max_cycles=500)
    _chain(small_spec(DENOISE), trace=trace).run()
    text = trace.render(compress=False)
    assert len(trace.rows) == TRACE_ROWS
    assert _sha256(text.encode()) == TRACE_SHA256
    assert trace.render().splitlines()[: len(TRACE_HEAD)] == TRACE_HEAD


def _undersized(probe=None):
    spec = small_spec(DENOISE)
    system = build_memory_system(spec.analysis())
    big = max(system.fifos, key=lambda f: f.capacity)
    return ChainSimulator(
        spec,
        system,
        make_input(spec),
        fifo_capacity_override={big.fifo_id: big.capacity - 1},
        probe=probe,
    )


def test_pinned_deadlock_report():
    with pytest.raises(DeadlockError) as info:
        _undersized().run()
    assert str(info.value) == DEADLOCK_REPORT


def test_pinned_deadlock_report_with_probe_ring():
    with pytest.raises(DeadlockError) as info:
        _undersized(probe=MetricsProbe(ring_size=4)).run()
    assert str(info.value) == DEADLOCK_REPORT_WITH_RING
