"""Typed workloads: the proto:2 envelope for temporal and pipeline jobs.

A :class:`Workload` describes *what* a request wants executed, beyond
the single-shot kernel proto:1 could express:

* ``single``  — one kernel, one pass (the proto:1 shape);
* ``iterate`` — one kernel applied for ``steps`` time steps, each step
  consuming the previous step's output grid (temporal blocking);
* ``graph``   — a multi-kernel pipeline given as nodes and edges (the
  ``examples/medical_imaging_pipeline.py`` shape).  Because every
  stencil spec reads exactly one input array, the graph must be a
  single linear chain — branching, cycles, dangling edges and
  disconnected nodes are structural errors.

Structural validation raises :class:`WorkloadError`, which the
protocol layer maps onto the closed ``error.kind`` taxonomy as
``bad_workload``.

:func:`plan_workload` lowers a workload into a
:class:`WorkloadPlan` — an ordered tuple of :class:`PlannedStage`
entries, each an ordinary (spec, options, fingerprint) compile unit
the plan cache and executors already understand.  Per edge it decides
between *fusing* the two kernels into one enlarged-window stencil
(:func:`repro.stencil.fusion.fuse` — the paper's Section 2.1 loop
fusion) and *chaining* them with the intermediate grid kept
server-side (:mod:`repro.integration.chaining`, Fig 13c).  Both
evaluate the same float64 expression tree, so chained and fused
pipelines produce bit-identical digests; the choice is purely a
buffer-vs-recompute trade-off (``fuse="auto"`` fuses only when the
fused operation count does not exceed the chained one).

Fingerprints are content-addressed like plan fingerprints: a
single-stage plan *is* its stage fingerprint (so an ``iterate`` of one
step or a fused-to-one-stage graph hits the same cache entry and
rendezvous node as the equivalent proto:1 request), while a
multi-stage plan hashes the ordered stage fingerprints under
:data:`WORKLOAD_VERSION`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .fingerprint import CompileOptions, canonical_digest, fingerprint

__all__ = [
    "FUSE_POLICIES",
    "WORKLOAD_KINDS",
    "WORKLOAD_VERSION",
    "GraphNode",
    "KernelRef",
    "PlannedStage",
    "Workload",
    "WorkloadError",
    "WorkloadPlan",
    "plan_workload",
    "request_fingerprint",
    "resolve_single",
    "resolve_workload",
]

#: Bump on any change to workload hashing or planning semantics.
WORKLOAD_VERSION = 1

#: The closed workload-kind vocabulary.
WORKLOAD_KINDS = ("single", "iterate", "graph")

#: Per-edge fuse-vs-chain policies the planner accepts.
FUSE_POLICIES = ("auto", "never", "always")


class WorkloadError(ValueError):
    """A workload that fails structural validation or planning.

    The protocol layer maps this onto ``error.kind = "bad_workload"``.
    """


@dataclass(frozen=True)
class KernelRef:
    """One kernel by registered name or inline spec (exactly one)."""

    benchmark: Optional[str] = None
    spec: Optional[dict] = None

    def __post_init__(self) -> None:
        if (self.benchmark is None) == (self.spec is None):
            raise WorkloadError(
                "kernel needs exactly one of 'benchmark' or 'spec'"
            )
        if self.spec is not None and not isinstance(self.spec, dict):
            raise WorkloadError("kernel 'spec' must be a JSON object")

    def resolve(self):
        """The referenced :class:`StencilSpec` (may raise on content)."""
        from ..stencil.kernels import get_benchmark
        from ..stencil.spec import StencilSpec

        if self.benchmark is not None:
            return get_benchmark(self.benchmark)
        return StencilSpec.from_json(self.spec)

    def to_json(self) -> dict:
        if self.benchmark is not None:
            return {"benchmark": self.benchmark}
        return {"spec": self.spec}

    @classmethod
    def from_json(cls, data: Any) -> "KernelRef":
        if not isinstance(data, dict):
            raise WorkloadError("kernel must be a JSON object")
        benchmark = data.get("benchmark")
        return cls(
            benchmark=None if benchmark is None else str(benchmark),
            spec=data.get("spec"),
        )


@dataclass(frozen=True)
class GraphNode:
    """One named stage of a ``graph`` workload."""

    id: str
    kernel: KernelRef

    def __post_init__(self) -> None:
        if not self.id or not isinstance(self.id, str):
            raise WorkloadError("graph node ids must be non-empty strings")

    def to_json(self) -> dict:
        out = {"id": self.id}
        out.update(self.kernel.to_json())
        return out

    @classmethod
    def from_json(cls, data: Any) -> "GraphNode":
        if not isinstance(data, dict):
            raise WorkloadError("graph nodes must be JSON objects")
        return cls(
            id=str(data.get("id") or ""),
            kernel=KernelRef.from_json(data),
        )


@dataclass(frozen=True)
class Workload:
    """A validated workload description (see the module docstring)."""

    kind: str
    kernel: Optional[KernelRef] = None
    steps: int = 1
    nodes: Tuple[GraphNode, ...] = ()
    edges: Tuple[Tuple[str, str], ...] = ()
    fuse: str = "auto"

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise WorkloadError(
                f"unknown workload kind {self.kind!r} "
                f"(expected one of {', '.join(WORKLOAD_KINDS)})"
            )
        if self.fuse not in FUSE_POLICIES:
            raise WorkloadError(
                f"unknown fuse policy {self.fuse!r} "
                f"(expected one of {', '.join(FUSE_POLICIES)})"
            )
        if self.kind in ("single", "iterate"):
            if self.kernel is None:
                raise WorkloadError(
                    f"a {self.kind!r} workload needs a kernel"
                )
            if self.nodes or self.edges:
                raise WorkloadError(
                    f"a {self.kind!r} workload takes no nodes/edges"
                )
            if self.kind == "single" and self.steps != 1:
                raise WorkloadError("a 'single' workload has steps == 1")
            if self.steps < 1:
                raise WorkloadError("steps must be >= 1")
        else:
            if self.kernel is not None:
                raise WorkloadError(
                    "a 'graph' workload names its kernels per node"
                )
            self._validate_graph()

    # -- graph structure ----------------------------------------------
    def _validate_graph(self) -> None:
        if not self.nodes:
            raise WorkloadError("a 'graph' workload needs >= 1 node")
        ids = [node.id for node in self.nodes]
        if len(set(ids)) != len(ids):
            raise WorkloadError("graph node ids must be unique")
        known = set(ids)
        seen_edges = set()
        out_deg: Dict[str, int] = {}
        in_deg: Dict[str, int] = {}
        for edge in self.edges:
            if len(edge) != 2:
                raise WorkloadError(
                    "graph edges must be [producer, consumer] pairs"
                )
            src, dst = edge
            for endpoint in (src, dst):
                if endpoint not in known:
                    raise WorkloadError(
                        f"edge references unknown node {endpoint!r}"
                    )
            if src == dst:
                raise WorkloadError(
                    f"graph contains a cycle (self-edge on {src!r})"
                )
            if edge in seen_edges:
                raise WorkloadError(f"duplicate edge {list(edge)!r}")
            seen_edges.add(edge)
            out_deg[src] = out_deg.get(src, 0) + 1
            in_deg[dst] = in_deg.get(dst, 0) + 1
            if out_deg[src] > 1 or in_deg[dst] > 1:
                raise WorkloadError(
                    "workload graphs must be linear chains (each "
                    "stencil reads exactly one input array); node "
                    f"{src if out_deg[src] > 1 else dst!r} branches"
                )
        heads = [i for i in ids if in_deg.get(i, 0) == 0]
        if not heads:
            raise WorkloadError("graph contains a cycle (no entry node)")
        # With in/out degree <= 1 the graph is a disjoint union of
        # chains and cycles; a single chain covering every node has
        # exactly one head and a walk that visits them all.
        if len(heads) > 1 or len(self._chain_order()) != len(ids):
            raise WorkloadError(
                "graph is not a single connected chain "
                f"(entry nodes: {', '.join(sorted(heads))})"
            )

    def _chain_order(self) -> List[GraphNode]:
        successor = {src: dst for src, dst in self.edges}
        by_id = {node.id: node for node in self.nodes}
        in_deg = {node.id: 0 for node in self.nodes}
        for _, dst in self.edges:
            in_deg[dst] += 1
        head = next(i for i in in_deg if in_deg[i] == 0)
        order: List[GraphNode] = []
        cursor: Optional[str] = head
        while cursor is not None and len(order) <= len(self.nodes):
            order.append(by_id[cursor])
            cursor = successor.get(cursor)
        return order

    # -- planning inputs ----------------------------------------------
    def stage_kernels(self) -> List[Tuple[str, KernelRef]]:
        """``(label, kernel)`` per stage, in execution order."""
        if self.kind == "single":
            return [("k0", self.kernel)]
        if self.kind == "iterate":
            return [(f"t{i}", self.kernel) for i in range(self.steps)]
        return [(node.id, node.kernel) for node in self._chain_order()]

    def memo_key(self) -> Optional[tuple]:
        """A hashable planning-memo key, or None for inline specs."""
        if self.kind in ("single", "iterate"):
            if self.kernel.benchmark is None:
                return None
            return (self.kind, self.kernel.benchmark, self.steps,
                    self.fuse)
        if any(n.kernel.benchmark is None for n in self.nodes):
            return None
        return (
            self.kind,
            tuple((n.id, n.kernel.benchmark) for n in self.nodes),
            self.edges,
            self.fuse,
        )

    # -- codec --------------------------------------------------------
    def to_json(self) -> dict:
        out: Dict[str, Any] = {"kind": self.kind}
        if self.kernel is not None:
            out.update(self.kernel.to_json())
        if self.kind == "iterate":
            out["steps"] = self.steps
        if self.kind == "graph":
            out["nodes"] = [node.to_json() for node in self.nodes]
            out["edges"] = [list(edge) for edge in self.edges]
        if self.fuse != "auto":
            out["fuse"] = self.fuse
        return out

    @classmethod
    def from_json(cls, data: Any) -> "Workload":
        if not isinstance(data, dict):
            raise WorkloadError("workload must be a JSON object")
        kind = str(data.get("kind") or "single")
        fuse = str(data.get("fuse") or "auto")
        try:
            if kind == "graph":
                nodes_raw = data.get("nodes")
                edges_raw = data.get("edges", [])
                if not isinstance(nodes_raw, list):
                    raise WorkloadError(
                        "a 'graph' workload needs a 'nodes' list"
                    )
                if not isinstance(edges_raw, list):
                    raise WorkloadError("'edges' must be a list")
                edges = []
                for edge in edges_raw:
                    if (
                        not isinstance(edge, (list, tuple))
                        or len(edge) != 2
                    ):
                        raise WorkloadError(
                            "graph edges must be [producer, consumer] "
                            "pairs"
                        )
                    edges.append((str(edge[0]), str(edge[1])))
                return cls(
                    kind=kind,
                    nodes=tuple(
                        GraphNode.from_json(n) for n in nodes_raw
                    ),
                    edges=tuple(edges),
                    fuse=fuse,
                )
            steps = data.get("steps", 1)
            if isinstance(steps, bool) or not isinstance(steps, int):
                raise WorkloadError("steps must be an integer")
            return cls(
                kind=kind,
                kernel=KernelRef.from_json(data),
                steps=steps,
                fuse=fuse,
            )
        except WorkloadError:
            raise
        except (TypeError, ValueError) as exc:
            raise WorkloadError(str(exc)) from exc

    # -- constructors -------------------------------------------------
    @classmethod
    def single(
        cls,
        benchmark: Optional[str] = None,
        spec: Optional[dict] = None,
    ) -> "Workload":
        return cls(
            kind="single",
            kernel=KernelRef(benchmark=benchmark, spec=spec),
        )

    @classmethod
    def iterate(
        cls,
        benchmark: Optional[str] = None,
        spec: Optional[dict] = None,
        steps: int = 1,
        fuse: str = "auto",
    ) -> "Workload":
        return cls(
            kind="iterate",
            kernel=KernelRef(benchmark=benchmark, spec=spec),
            steps=steps,
            fuse=fuse,
        )


@dataclass(frozen=True)
class PlannedStage:
    """One compile unit of a lowered workload: an ordinary
    (spec, options) pair with its own plan fingerprint, executed with
    the previous stage's output grid as input."""

    index: int
    name: str
    spec: Any
    options: CompileOptions
    fingerprint: str


@dataclass(frozen=True)
class WorkloadPlan:
    """The planner's output: ordered stages plus identity."""

    workload: Workload
    stages: Tuple[PlannedStage, ...]
    fingerprint: str
    fused_edges: int = 0

    @property
    def label(self) -> str:
        """Display name: stage names joined in execution order."""
        return "->".join(stage.spec.name for stage in self.stages)


def _attempt_fuse(policy: str, producer, consumer):
    """The fused spec when policy says fuse this edge, else None."""
    if policy == "never":
        return None
    from ..stencil.expr import count_operations
    from ..stencil.fusion import fuse

    try:
        fused = fuse(producer, consumer)
    except (ValueError, AssertionError) as exc:
        if policy == "always":
            raise WorkloadError(
                f"cannot fuse {producer.name!r} into "
                f"{consumer.name!r}: {exc}"
            ) from exc
        return None
    if policy == "always":
        return fused
    # "auto": fuse only when recompute does not cost extra arithmetic
    # per output (fusion buys the eliminated intermediate buffer for
    # free); otherwise chain with the grid kept server-side.
    ops_fused = sum(count_operations(fused.expression).values())
    ops_chained = sum(
        count_operations(producer.expression).values()
    ) + sum(count_operations(consumer.expression).values())
    return fused if ops_fused <= ops_chained else None


def plan_workload(
    workload: Workload,
    grid: Optional[Tuple[int, ...]] = None,
    streams: int = 1,
) -> WorkloadPlan:
    """Lower a workload into chained/fused stages (see module doc)."""
    from ..integration.chaining import ChainingError, compose_consumer

    options = CompileOptions(offchip_streams=streams)
    try:
        specs = [ref.resolve() for _, ref in workload.stage_kernels()]
    except KeyError as exc:
        raise WorkloadError(
            str(exc.args[0] if exc.args else exc)
        ) from exc
    except WorkloadError:
        raise
    except (TypeError, ValueError) as exc:
        raise WorkloadError(str(exc)) from exc
    if grid is not None:
        specs[0] = specs[0].with_grid(tuple(grid))

    staged = []
    fused_edges = 0
    current = specs[0]
    for nxt in specs[1:]:
        fused = _attempt_fuse(workload.fuse, current, nxt)
        if fused is not None:
            current = fused
            fused_edges += 1
            continue
        staged.append(current)
        try:
            current = compose_consumer(current, nxt)
        except ChainingError as exc:
            raise WorkloadError(str(exc)) from exc
    staged.append(current)

    stages = tuple(
        PlannedStage(
            index=i,
            name=spec.name,
            spec=spec,
            options=options,
            fingerprint=fingerprint(spec, options),
        )
        for i, spec in enumerate(staged)
    )
    if len(stages) == 1:
        # A one-stage plan is indistinguishable from a proto:1 request
        # at execution time, so it shares that request's cache entry
        # and rendezvous-routing identity.
        plan_fp = stages[0].fingerprint
    else:
        plan_fp = canonical_digest(
            {
                "workload_version": WORKLOAD_VERSION,
                "stages": [stage.fingerprint for stage in stages],
            }
        )
    return WorkloadPlan(
        workload=workload,
        stages=stages,
        fingerprint=plan_fp,
        fused_edges=fused_edges,
    )


#: Bound on the shared resolution memo (cleared wholesale when full).
RESOLVE_MEMO_LIMIT = 512

#: Request shape -> resolution, shared by every router and service in
#: the process.  Named-benchmark singles map to their
#: ``(spec, options, fingerprint)`` triple, registered-benchmark
#: workloads to their :class:`WorkloadPlan`; inline specs are never
#: memoized (their identity is the whole JSON document).  Every entry
#: is a pure function of its key, so sharing it across callers can
#: only save work, never change an answer.
_RESOLVE_MEMO: Dict[tuple, Any] = {}


def _memoized(key: Optional[tuple], build):
    """``build()``, cached under ``key`` unless ``key`` is None.

    A ``build`` that raises caches nothing, so an unknown benchmark
    fails the same way on every request.
    """
    if key is None:
        return build()
    hit = _RESOLVE_MEMO.get(key)
    if hit is None:
        hit = build()
        if len(_RESOLVE_MEMO) >= RESOLVE_MEMO_LIMIT:
            _RESOLVE_MEMO.clear()
        _RESOLVE_MEMO[key] = hit
    return hit


def resolve_single(request) -> Tuple[Any, CompileOptions, str]:
    """``(spec, options, fingerprint)`` of a proto:1 request.

    Named benchmarks resolve once per (benchmark, grid, streams);
    raises the underlying ``KeyError``/``ValueError`` on content.
    """

    def build():
        spec, options = request.resolve_spec()
        return spec, options, fingerprint(spec, options)

    key = None
    if request.benchmark is not None:
        key = ("single", request.benchmark, request.grid,
               request.streams)
    return _memoized(key, build)


def resolve_workload(request) -> WorkloadPlan:
    """The :class:`WorkloadPlan` of a proto:2 request.

    Registered-benchmark workloads plan once per
    (:meth:`Workload.memo_key`, grid, streams); raises
    :class:`WorkloadError` on a workload that cannot be planned.
    """
    workload = request.workload
    memo_key = workload.memo_key()
    key = None
    if memo_key is not None:
        key = ("workload", memo_key, request.grid, request.streams)
    return _memoized(
        key,
        lambda: plan_workload(
            workload, grid=request.grid, streams=request.streams
        ),
    )


def request_fingerprint(request) -> str:
    """The routing/caching fingerprint of a typed Request.

    Legacy single-kernel requests keep their plan fingerprint; workload
    requests hash the planned stage sequence.  Both go through the
    shared resolution memo.  Raises the underlying resolution error
    (``KeyError``/``ValueError``/:class:`WorkloadError`) for the caller
    to map onto an ``invalid`` response.
    """
    if request.workload is None:
        return resolve_single(request)[2]
    return resolve_workload(request).fingerprint
