"""Cycle-level behavioural models of the Fig 7 chain modules.

Every module is autonomous, exactly as in the paper: a *data filter*
holds at most one pending output for the computation kernel and only
pulls a new element when that slot is free; a *reuse FIFO* applies
backpressure through its capacity; a *data-path splitter* fires only when
its upstream has data and **both** downstream sinks (next FIFO + its
filter) can accept.  The kernel consumes all ``n`` filter outputs in one
cycle when they are simultaneously valid.

There is no centralized controller — buffer filling (Table 3) and the
skewed-grid reuse adaptation (Fig 9) emerge from these local rules, which
is precisely the paper's Section 3.4 observation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from operator import sub
from typing import Deque, Iterator, List, Optional, Tuple

from ..polyhedral.access import ArrayReference
from ..polyhedral.domain import IntegerPolyhedron
from ..polyhedral.lexorder import Vector

#: One in-flight data element: its grid point and its value.
Element = Tuple[Vector, float]


class SimFifo:
    """A reuse FIFO with finite capacity and occupancy statistics."""

    def __init__(self, fifo_id: int, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("FIFO capacity must be >= 1")
        self.fifo_id = fifo_id
        self.capacity = capacity
        self._queue: Deque[Element] = deque()
        self.max_occupancy = 0
        self.total_pushes = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def full(self) -> bool:
        return len(self._queue) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._queue

    def push(self, element: Element) -> None:
        if self.full:
            raise OverflowError(
                f"push to full FIFO {self.fifo_id} "
                f"(capacity {self.capacity})"
            )
        self._queue.append(element)
        self.total_pushes += 1
        self.max_occupancy = max(self.max_occupancy, len(self._queue))

    def pop(self) -> Element:
        if self.empty:
            raise IndexError(f"pop from empty FIFO {self.fifo_id}")
        return self._queue.popleft()

    def peek(self) -> Element:
        if self.empty:
            raise IndexError(f"peek at empty FIFO {self.fifo_id}")
        return self._queue[0]


class SimFilter:
    """A data filter (Fig 10): input counter + output counter + switch.

    The input counter is implicit in the arriving element's grid point
    (elements arrive in the stream's lexicographic order); the output
    counter is an iterator over the reference's data domain ``D_Ax``.
    When the arriving point matches the output counter, the element is
    forwarded to the kernel port (the single-entry ``pending`` slot);
    otherwise it is discarded.  A filter whose pending slot is occupied
    is *stalled* and pulls nothing.
    """

    #: Per-cycle status codes (Table 3): forwarding / discarding /
    #: stalled / idle (no input available).
    FORWARDING = "f"
    DISCARDING = "d"
    STALLED = "s"
    IDLE = "."

    def __init__(
        self,
        filter_id: int,
        reference: ArrayReference,
        output_domain: IntegerPolyhedron,
    ) -> None:
        self.filter_id = filter_id
        self.reference = reference
        self._output_iter: Iterator[Vector] = output_domain.iter_points()
        self._next_output: Optional[Vector] = next(
            self._output_iter, None
        )
        self.pending: Optional[Element] = None
        self.status = self.IDLE
        self.forwarded = 0
        self.discarded = 0
        self.stalled_cycles = 0

    @property
    def ready(self) -> bool:
        """Can accept one element this cycle."""
        return self.pending is None

    @property
    def done(self) -> bool:
        """All elements of the output domain have been forwarded."""
        return self._next_output is None and self.pending is None

    def accept(self, element: Element) -> None:
        """Consume one upstream element (switch of Fig 10)."""
        if not self.ready:
            raise RuntimeError(
                f"filter {self.filter_id} accepted an element while "
                "stalled"
            )
        point, _ = element
        if self._next_output is not None and point == self._next_output:
            self.pending = element
            self._next_output = next(self._output_iter, None)
            self.forwarded += 1
            self.status = self.FORWARDING
        else:
            self.discarded += 1
            self.status = self.DISCARDING

    def mark_no_input(self) -> None:
        if self.pending is not None:
            self.status = self.STALLED
            self.stalled_cycles += 1
        else:
            self.status = self.IDLE

    def take_pending(self) -> Element:
        """Kernel-side consumption of the pending element."""
        if self.pending is None:
            raise RuntimeError(
                f"kernel consumed from filter {self.filter_id} with no "
                "pending data"
            )
        element = self.pending
        self.pending = None
        return element


@dataclass
class KernelOutput:
    """One produced output with its timing."""

    iteration: Vector
    value: float
    issue_cycle: int  # cycle the inputs were consumed
    ready_cycle: int  # issue + pipeline latency


class SimKernel:
    """The fully pipelined computation kernel (Fig 4 after transform).

    Consumes one element from every filter port in a single cycle when
    all are valid, checks that the ports are mutually consistent (all
    correspond to the same loop iteration — the function-correctness
    property of Section 3.3.1), evaluates the kernel expression, and
    emits the result ``latency`` cycles later.
    """

    def __init__(
        self,
        references: List[ArrayReference],
        expression,
        latency: int = 4,
    ) -> None:
        from ..stencil.expr import compile_scalar  # local to avoid cycles

        if latency < 0:
            raise ValueError("kernel latency must be >= 0")
        self._references = references
        self._compute = compile_scalar(
            expression,
            {
                (ref.array, ref.offset): port
                for port, ref in enumerate(references)
            },
        )
        #: Every port's offset, concatenated: ``point - offset`` for all
        #: ports at once must repeat one iteration ``len(ports)`` times.
        self._offsets = [c for ref in references for c in ref.offset]
        self._dims = len(references[0].offset) if references else 0
        self.latency = latency
        self.outputs: List[KernelOutput] = []
        self.consumed_iterations = 0

    def try_fire(self, filters: List[SimFilter], cycle: int) -> bool:
        """Fire if every port has valid data; returns True on fire."""
        pending = [flt.pending for flt in filters]
        if None in pending:
            return False
        points, values = zip(*pending)
        derived = list(map(sub, chain.from_iterable(points), self._offsets))
        head = derived[: self._dims]
        if derived != head * len(filters):
            self._port_mismatch(filters, points)
        for flt in filters:
            flt.pending = None
        iteration = tuple(head)
        value = float(self._compute(values))
        self.outputs.append(
            KernelOutput(
                iteration=iteration,
                value=value,
                issue_cycle=cycle,
                ready_cycle=cycle + self.latency,
            )
        )
        self.consumed_iterations += 1
        return True

    def _port_mismatch(
        self, filters: List[SimFilter], points: Tuple[Vector, ...]
    ) -> None:
        """Raise for the first port whose iteration differs from port
        0's, having consumed the ports up to it."""
        iteration: Optional[Vector] = None
        for ref, flt, point in zip(self._references, filters, points):
            flt.pending = None
            derived = tuple(map(sub, point, ref.offset))
            if iteration is None:
                iteration = derived
            elif iteration != derived:
                raise AssertionError(
                    "filter ports disagree on the loop iteration: "
                    f"{iteration} vs {derived} at port {flt.filter_id} "
                    f"({ref.label})"
                )
