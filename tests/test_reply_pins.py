"""Pinned thread-mode replies: the executors' observable contract.

Every field of a thread-mode reply except ``latency_ms`` is recorded in
``tests/data/thread_replies.json`` for a fixed request set: the six
paper kernels at ``SMALL_GRIDS``, a 2-stream request, an ``iterate(4)``
DENOISE workload and a DENOISE->RICIAN graph, each served by both
backends, plus one forced ``validate: true`` request and one
corrupted-plan ``validation_failed`` reply (followed by the healing
request).  ``mean`` is pinned as a hex float, so a one-ulp drift fails.

Regenerate the record only for an intended contract change::

    PYTHONPATH=src python tests/test_reply_pins.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.service import ServiceConfig, StencilService
from repro.service.plancache import CachedPlan

sys.path.insert(0, str(Path(__file__).resolve().parent))
from conftest import SMALL_GRIDS  # noqa: E402

PINS = Path(__file__).resolve().parent / "data" / "thread_replies.json"

BACKENDS = ("interpreted", "compiled")


def _single(rid, benchmark, seed, **extra):
    return {
        "proto": 1,
        "id": rid,
        "benchmark": benchmark,
        "grid": list(SMALL_GRIDS[benchmark]),
        "seed": seed,
        **extra,
    }


def _workload(rid, workload, grid, seed):
    return {
        "proto": 2,
        "id": rid,
        "workload": workload,
        "grid": list(grid),
        "seed": seed,
    }


def requests():
    """The fixed request sequence (served in order, one at a time)."""
    out = [
        _single(f"k-{name}", name, 11 + k)
        for k, name in enumerate(sorted(SMALL_GRIDS))
    ]
    out.append(_single("streams-2", "SOBEL", 21, streams=2))
    out.append(
        _workload(
            "iterate-4",
            {"kind": "iterate", "benchmark": "DENOISE", "steps": 4},
            SMALL_GRIDS["DENOISE"],
            22,
        )
    )
    out.append(
        _workload(
            "graph",
            {
                "kind": "graph",
                "nodes": [
                    {"id": "den", "benchmark": "DENOISE"},
                    {"id": "ric", "benchmark": "RICIAN"},
                ],
                "edges": [["den", "ric"]],
            },
            SMALL_GRIDS["DENOISE"],
            23,
        )
    )
    out.append(_single("forced-validate", "DENOISE", 24, validate=True))
    return out


def _poison(plan: CachedPlan) -> CachedPlan:
    """Shrink the widest FIFO to one slot (violates condition 2)."""
    data = plan.to_json()
    depths = data["fifo_capacities"]
    widest = max(range(len(depths)), key=lambda i: depths[i])
    depths[widest] = 1
    return CachedPlan.from_json(data)


def pinned(reply) -> dict:
    """Every reply field but ``latency_ms``; ``mean`` as a hex float,
    ``summary`` as its keys plus a digest of its canonical JSON."""
    out = reply.to_json()
    out.pop("latency_ms", None)
    if "mean" in out:
        out["mean"] = float(out["mean"]).hex()
    if "summary" in out:
        summary = out.pop("summary")
        out["summary_keys"] = sorted(summary)
        out["summary_sha256"] = hashlib.sha256(
            json.dumps(summary, sort_keys=True).encode("utf-8")
        ).hexdigest()
    return out


def serve(backend: str, cache_dir: str) -> list:
    """The pinned reply sequence for one backend."""
    config = ServiceConfig(
        workers=1, backend=backend, cache_dir=cache_dir
    )
    replies = []
    with StencilService(config) as svc:
        for req in requests():
            replies.append(pinned(svc.handle(req, 120.0)))
        # Poison RICIAN's cached plan; the forced canary must flag it
        # and the next request must recompile and heal.
        ric = _single("poisoned", "RICIAN", 25, validate=True)
        fp = svc.handle(dict(ric, id="poison-warm"), 120.0).fingerprint
        svc.cache.put(_poison(svc.cache.get(fp)))
        replies.append(pinned(svc.handle(ric, 120.0)))
        replies.append(pinned(svc.handle(dict(ric, id="healed"), 120.0)))
    return replies


def record(tmp_root: Path) -> dict:
    return {
        backend: serve(backend, str(tmp_root / backend))
        for backend in BACKENDS
    }


@pytest.mark.parametrize("backend", BACKENDS)
def test_thread_replies_match_the_pinned_record(tmp_path, backend):
    want = json.loads(PINS.read_text())[backend]
    got = serve(backend, str(tmp_path))
    assert [r["id"] for r in got] == [r["id"] for r in want]
    for g, w in zip(got, want):
        assert g == w, f"reply {w['id']} drifted from the pinned record"


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    import tempfile

    if "--write" not in sys.argv:
        sys.exit("usage: python tests/test_reply_pins.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        data = record(Path(tmp))
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")
