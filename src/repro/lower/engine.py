"""The compiled-execution engine: per-process kernel + input caches.

One :class:`CompiledEngine` lives in each executing process (the
thread-pool service holds one; every pool worker holds its own).  It
memoizes three things:

* **kernels** — one :class:`~repro.lower.convert.CompiledKernel` per
  plan fingerprint, built through bufferize → convert on first use and
  reused for every later request;
* **unsupported verdicts** — a plan the lowering refused
  (:class:`LoweringUnsupported`) is remembered by fingerprint so the
  fallback decision costs a dict lookup, not a re-lowering, on every
  subsequent request;
* **input grids** — service inputs are *content-addressed*: a request's
  grid is ``make_input(spec, seed)``, fully determined by
  ``(grid shape, seed)``, so warm traffic re-reading the same seeds
  skips the RNG entirely.  Grids are cached read-only in a
  byte-bounded LRU (the interpreted path deliberately stays the
  uncached paper-exact reference).

The engine records no metrics itself — it returns timings in
:class:`LowerResult` and the caller (thread executor, pool worker
relay) attributes them, because pool workers have no registry and ship
observations home in the job reply instead.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..obs.tracing import span
from ..stencil.golden import make_input
from ..stencil.spec import StencilSpec
from .bufferize import (
    GATHER_HARD_LIMIT,
    GATHER_POINT_LIMIT,
    bufferize_plan,
)
from .convert import (
    CompiledKernel,
    ConverterUnavailable,
    convert,
    get_converter,
)
from .program import (
    BUFFER_PROGRAM_VERSION,
    LoweringUnsupported,
    ProgramMismatchError,
    program_from_json,
    program_to_json,
    validate_program,
)

__all__ = [
    "LOWER_CONVERTERS",
    "CompiledEngine",
    "LowerResult",
    "LoweringConfig",
]

#: Input-grid LRU budget (float64 bytes across all cached grids).
GRID_CACHE_BYTES = 64 * 1024 * 1024

#: Converter targets behind the compiled backend's ``BufferProgram``
#: IR: ``"numpy"`` is the vectorized ufunc replay, ``"c"`` generates C
#: built via cffi (degrading per build to ``"numpy"`` when no C
#: toolchain is present).
LOWER_CONVERTERS = ("numpy", "c")


@dataclass(frozen=True)
class LoweringConfig:
    """Everything that can change what ``kernel_for`` produces.

    The engine's kernel and unsupported-verdict memos are keyed on
    ``(fingerprint, config.key())`` — a verdict reached under one
    gather limit or converter must never answer for another (the
    PR-8-era memo keyed on fingerprint alone cached a ``gather_limit``
    refusal forever, even after the limit was raised).

    ``artifact_dir`` is deliberately *not* part of the key: it decides
    where the C converter persists its build, never what the kernel
    computes.

    Construction validates every field (``ValueError``): the converter
    must be one of :data:`LOWER_CONVERTERS` and both gather limits
    positive ints.
    """

    converter: str = "numpy"
    gather_limit: int = GATHER_POINT_LIMIT
    gather_hard_limit: int = GATHER_HARD_LIMIT
    artifact_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.converter not in LOWER_CONVERTERS:
            raise ValueError(
                f"converter must be one of "
                f"{', '.join(repr(n) for n in LOWER_CONVERTERS)}, "
                f"got {self.converter!r}"
            )
        for name in ("gather_limit", "gather_hard_limit"):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, int)
                or value < 1
            ):
                raise ValueError(
                    f"{name} must be a positive int, got {value!r}"
                )

    def key(self) -> Tuple:
        return (self.converter, self.gather_limit, self.gather_hard_limit)

    def to_json(self) -> dict:
        """Wire encoding — the one lowering pass-through dict shared
        by pool job protocol and router node argv."""
        out = {
            "converter": self.converter,
            "gather_limit": self.gather_limit,
            "gather_hard_limit": self.gather_hard_limit,
        }
        if self.artifact_dir is not None:
            out["artifact_dir"] = str(self.artifact_dir)
        return out

    @classmethod
    def from_json(cls, data: Optional[dict]) -> "LoweringConfig":
        """Parse the wire encoding; absent or null keys keep the
        defaults, every present value is validated as given."""
        kwargs = {
            name: value
            for name, value in (data or {}).items()
            if name in _LOWERING_KEYS and value is not None
        }
        return cls(**kwargs)


_LOWERING_KEYS = (
    "converter", "gather_limit", "gather_hard_limit", "artifact_dir",
)


@dataclass
class LowerResult:
    """One ``kernel_for`` outcome, with stage timings for the caller."""

    kernel: CompiledKernel
    #: Program JSON to persist as the plan's cache sidecar, or ``None``
    #: when the stored sidecar already matched.
    program_json: Optional[dict]
    bufferize_ms: float = 0.0
    convert_ms: float = 0.0
    #: False when the kernel came straight from the in-process cache.
    built: bool = False
    #: Converter that actually built the kernel ("numpy" when the
    #: configured target degraded).
    converter: str = "numpy"
    #: Why the configured converter degraded to NumPy, if it did.
    converter_fallback: Optional[str] = None


class CompiledEngine:
    """Bufferize → convert → execute, memoized per fingerprint."""

    def __init__(
        self,
        grid_cache_bytes: int = GRID_CACHE_BYTES,
        config: Optional[LoweringConfig] = None,
    ) -> None:
        self.config = config or LoweringConfig()
        self._kernels: Dict[Tuple, Tuple[CompiledKernel, str]] = {}
        self._unsupported: Dict[Tuple, LoweringUnsupported] = {}
        self._lock = threading.Lock()
        self._grid_cache_bytes = grid_cache_bytes
        self._grids: "OrderedDict[Tuple, np.ndarray]" = OrderedDict()
        self._grids_bytes = 0
        self._grid_lock = threading.Lock()

    # -- lowering ------------------------------------------------------
    def kernel_for(
        self,
        plan,
        spec: Optional[StencilSpec] = None,
        config: Optional[LoweringConfig] = None,
    ) -> LowerResult:
        """The kernel for a cached plan, lowering on first use.

        Raises :class:`LoweringUnsupported` (fall back to the
        interpreted path) or :class:`ProgramMismatchError` (the stored
        sidecar is corrupt; fail the request and evict the plan).
        """
        cfg = config or self.config
        fp = plan.fingerprint
        key = (fp, cfg.key())
        with self._lock:
            hit = self._kernels.get(key)
            if hit is not None:
                kernel, used = hit
                return LowerResult(
                    kernel=kernel, program_json=None, converter=used
                )
            unsupported = self._unsupported.get(key)
        if unsupported is not None:
            raise unsupported
        if spec is None:
            spec = StencilSpec.from_json(plan.spec)
        started = time.perf_counter()
        try:
            with span(
                "lower.bufferize", fingerprint=fp[:12],
                benchmark=spec.name,
            ):
                fresh = bufferize_plan(
                    plan, spec=spec,
                    gather_limit=cfg.gather_limit,
                    gather_hard_limit=cfg.gather_hard_limit,
                )
        except LoweringUnsupported as exc:
            with self._lock:
                self._unsupported[key] = exc
            raise
        bufferize_ms = (time.perf_counter() - started) * 1e3
        fresh_json = program_to_json(fresh)
        stored = getattr(plan, "buffer_program", None)
        if stored is not None and self._stale_version(stored):
            # A sidecar written by an older IR is not corruption —
            # treat it as absent, re-lower and overwrite.
            stored = None
        if stored is not None and not self._matches(
            stored, fresh_json
        ):
            raise ProgramMismatchError(
                f"stored buffer program for plan {fp[:12]} diverges "
                "from a fresh lowering of the cached spec"
            )
        started = time.perf_counter()
        used = cfg.converter
        converter_fallback: Optional[str] = None
        try:
            with span(
                "lower.convert", fingerprint=fp[:12],
                benchmark=spec.name, converter=cfg.converter,
            ):
                try:
                    builder = get_converter(cfg.converter)
                    kernel = builder(
                        fresh,
                        gather_limit=cfg.gather_limit,
                        artifact_dir=cfg.artifact_dir,
                    )
                except ConverterUnavailable as exc:
                    # Per-build degradation: the configured target
                    # cannot run here (no toolchain, no cffi, compile
                    # failure) — the NumPy converter is bit-identical,
                    # so use it and report why.
                    used = "numpy"
                    converter_fallback = str(exc)
                    kernel = convert(
                        fresh, gather_limit=cfg.gather_limit
                    )
        except LoweringUnsupported as exc:
            with self._lock:
                self._unsupported[key] = exc
            raise
        convert_ms = (time.perf_counter() - started) * 1e3
        with self._lock:
            self._kernels[key] = (kernel, used)
            if len(self._kernels) > 256:  # bound the per-process cache
                self._kernels.pop(next(iter(self._kernels)))
        return LowerResult(
            kernel=kernel,
            program_json=None if stored is not None else fresh_json,
            bufferize_ms=bufferize_ms,
            convert_ms=convert_ms,
            built=True,
            converter=used,
            converter_fallback=converter_fallback,
        )

    @staticmethod
    def _stale_version(stored: dict) -> bool:
        try:
            return int(
                stored.get("version", -1)
            ) != BUFFER_PROGRAM_VERSION
        except (TypeError, ValueError):
            return False

    @staticmethod
    def _matches(stored: dict, fresh_json: dict) -> bool:
        try:
            stored_program = program_from_json(stored)
            validate_program(stored_program)
        except Exception:
            return False
        return program_to_json(stored_program) == fresh_json

    def forget(self, fp: str) -> None:
        """Drop one fingerprint (mirrors a plan-cache invalidation).

        Every config variant of the fingerprint goes — invalidation is
        about the plan, not about how it was lowered.
        """
        with self._lock:
            for memo in (self._kernels, self._unsupported):
                for key in [k for k in memo if k[0] == fp]:
                    memo.pop(key, None)

    # -- content-addressed input grids ---------------------------------
    def input_grid(self, spec: StencilSpec, seed: int) -> np.ndarray:
        """``make_input`` memoized by its full content address.

        The returned array is shared and marked read-only — kernels
        only ever take views of it.
        """
        key = (tuple(spec.grid), int(seed))
        with self._grid_lock:
            grid = self._grids.get(key)
            if grid is not None:
                self._grids.move_to_end(key)
                return grid
        grid = make_input(spec, seed=seed)
        grid.setflags(write=False)
        with self._grid_lock:
            self._grids[key] = grid
            self._grids_bytes += grid.nbytes
            while (
                len(self._grids) > 1
                and self._grids_bytes > self._grid_cache_bytes
            ):
                _, evicted = self._grids.popitem(last=False)
                self._grids_bytes -= evicted.nbytes
        return grid
