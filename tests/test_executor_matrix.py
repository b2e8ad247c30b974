"""One request, four executors, one reply.

A router fabric may serve a request on any node, and nodes differ in
worker mode (thread or process) and backend (interpreted or compiled).
The reply must not depend on which one served it: every field except
``latency_ms``, ``attempts`` and the trace id is equal across the four
executors, and ``mean`` is compared bit for bit.
"""

from __future__ import annotations

import json
import struct

import pytest

from repro.service import ServiceConfig, StencilService

GRID = (40, 48)
SEEDS = (3, 4)

EXECUTORS = [
    (mode, backend)
    for mode in ("thread", "process")
    for backend in ("interpreted", "compiled")
]

SHAPES = {
    "single": lambda seed: {
        "proto": 1,
        "benchmark": "RICIAN",
        "grid": list(GRID),
        "seed": seed,
        "validate": True,
    },
    "iterate3": lambda seed: {
        "proto": 2,
        "workload": {"kind": "iterate", "benchmark": "SOBEL", "steps": 3},
        "grid": list(GRID),
        "seed": seed,
    },
    "graph2": lambda seed: {
        "proto": 2,
        "workload": {
            "kind": "graph",
            "nodes": [
                {"id": "den", "benchmark": "DENOISE"},
                {"id": "ric", "benchmark": "RICIAN"},
            ],
            "edges": [["den", "ric"]],
        },
        "grid": list(GRID),
        "seed": seed,
    },
}

#: Fields allowed to differ between executors.
VOLATILE = ("latency_ms", "attempts", "trace_id")


def _requests():
    return [
        dict(make(seed), id=f"{shape}-{seed}")
        for shape, make in SHAPES.items()
        for seed in SEEDS
    ]


@pytest.fixture(scope="module")
def replies():
    """``{(mode, backend): [reply, ...]}`` over the request list."""
    out = {}
    for mode, backend in EXECUTORS:
        config = ServiceConfig(
            workers=1, worker_mode=mode, backend=backend
        )
        with StencilService(config) as svc:
            out[(mode, backend)] = [
                svc.handle(req, 120.0) for req in _requests()
            ]
    return out


def _comparable(reply) -> dict:
    data = json.loads(json.dumps(reply.to_json()))
    for key in VOLATILE:
        data.pop(key, None)
    data["mean"] = struct.pack("d", reply.mean).hex()
    return data


@pytest.mark.parametrize(
    "index", range(len(_requests())),
    ids=[req["id"] for req in _requests()],
)
def test_every_executor_returns_the_same_reply(replies, index):
    want = _comparable(replies[EXECUTORS[0]][index])
    assert want["status"] == "ok", want
    for executor in EXECUTORS[1:]:
        got = _comparable(replies[executor][index])
        assert got == want, f"{executor} differs from {EXECUTORS[0]}"
