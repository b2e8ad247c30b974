"""Expression AST for stencil computation kernels.

The kernel body of a stencil application (e.g. Fig 1's DENOISE update) is
represented as a small arithmetic AST over array references and constants.
The same tree serves three consumers:

* the golden NumPy executor (:mod:`repro.stencil.golden`) evaluates it
  with vectorized array views,
* the cycle-level simulator evaluates it per iteration on scalars,
* HLS-lite (:mod:`repro.hls`) schedules its operation DAG onto a pipelined
  datapath.

Nodes are immutable; Python operators are overloaded so kernels read like
the original C (``0.2 * (c + n + s + e + w)``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Sequence,
    Tuple,
    Union,
)

from ..polyhedral.lexorder import Vector, as_vector

Number = Union[int, float]

#: Binary operators supported by the kernel datapath.
BINARY_OPS = ("add", "sub", "mul", "div", "min", "max")
#: Unary operators supported by the kernel datapath.
UNARY_OPS = ("neg", "abs", "sqrt")

_OP_SYMBOLS = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
_NUMPY_FUNCTIONS = {"min": "minimum", "max": "maximum"}


class Expr:
    """Base class for kernel expressions."""

    def __add__(self, other: "ExprLike") -> "Expr":
        return BinOp("add", self, wrap(other))

    def __radd__(self, other: "ExprLike") -> "Expr":
        return BinOp("add", wrap(other), self)

    def __sub__(self, other: "ExprLike") -> "Expr":
        return BinOp("sub", self, wrap(other))

    def __rsub__(self, other: "ExprLike") -> "Expr":
        return BinOp("sub", wrap(other), self)

    def __mul__(self, other: "ExprLike") -> "Expr":
        return BinOp("mul", self, wrap(other))

    def __rmul__(self, other: "ExprLike") -> "Expr":
        return BinOp("mul", wrap(other), self)

    def __truediv__(self, other: "ExprLike") -> "Expr":
        return BinOp("div", self, wrap(other))

    def __rtruediv__(self, other: "ExprLike") -> "Expr":
        return BinOp("div", wrap(other), self)

    def __neg__(self) -> "Expr":
        return UnOp("neg", self)


ExprLike = Union[Expr, Number]


def wrap(value: ExprLike) -> Expr:
    """Coerce a Python number to a :class:`Const` node."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise TypeError(f"cannot use {type(value).__name__} in an expression")


@dataclass(frozen=True)
class Ref(Expr):
    """A read of the input array at a constant window offset."""

    offset: Vector
    array: str = "A"

    def __post_init__(self) -> None:
        object.__setattr__(self, "offset", as_vector(self.offset))

    def __str__(self) -> str:
        return f"{self.array}{list(self.offset)}"


@dataclass(frozen=True)
class Const(Expr):
    """A compile-time floating-point constant."""

    value: float

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary arithmetic operation."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary op {self.op!r}")

    def __str__(self) -> str:
        if self.op in _OP_SYMBOLS:
            return f"({self.left} {_OP_SYMBOLS[self.op]} {self.right})"
        return f"{self.op}({self.left}, {self.right})"


@dataclass(frozen=True)
class UnOp(Expr):
    """A unary arithmetic operation."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in UNARY_OPS:
            raise ValueError(f"unknown unary op {self.op!r}")

    def __str__(self) -> str:
        if self.op == "neg":
            return f"(-{self.operand})"
        return f"{self.op}({self.operand})"


def minimum(a: ExprLike, b: ExprLike) -> Expr:
    """Elementwise minimum node."""
    return BinOp("min", wrap(a), wrap(b))


def maximum(a: ExprLike, b: ExprLike) -> Expr:
    """Elementwise maximum node."""
    return BinOp("max", wrap(a), wrap(b))


def absolute(a: ExprLike) -> Expr:
    """Absolute-value node."""
    return UnOp("abs", wrap(a))


def square_root(a: ExprLike) -> Expr:
    """Square-root node."""
    return UnOp("sqrt", wrap(a))


def weighted_sum(
    terms: Sequence[Tuple[Sequence[int], Number]], array: str = "A"
) -> Expr:
    """Build ``sum(coeff * A[offset])`` — the typical stencil body."""
    if not terms:
        raise ValueError("weighted_sum of zero terms")
    acc: Expr = None  # type: ignore[assignment]
    for offset, coeff in terms:
        term: Expr = Ref(as_vector(offset), array)
        if coeff != 1:
            term = BinOp("mul", Const(float(coeff)), term)
        acc = term if acc is None else BinOp("add", acc, term)
    return acc


def collect_refs(expr: Expr) -> List[Ref]:
    """All distinct :class:`Ref` leaves in first-appearance order."""
    seen: Dict[Tuple[str, Vector], Ref] = {}

    def visit(node: Expr) -> None:
        if isinstance(node, Ref):
            seen.setdefault((node.array, node.offset), node)
        elif isinstance(node, BinOp):
            visit(node.left)
            visit(node.right)
        elif isinstance(node, UnOp):
            visit(node.operand)
        elif isinstance(node, Const):
            pass
        else:
            raise TypeError(f"unknown expression node {node!r}")

    visit(expr)
    return list(seen.values())


def count_operations(expr: Expr) -> Dict[str, int]:
    """Histogram of arithmetic operations in the tree (HLS resource
    pre-estimate; shared sub-trees are counted once per appearance,
    matching a fully spatial pipelined datapath)."""
    counts: Dict[str, int] = {}

    def visit(node: Expr) -> None:
        if isinstance(node, BinOp):
            counts[node.op] = counts.get(node.op, 0) + 1
            visit(node.left)
            visit(node.right)
        elif isinstance(node, UnOp):
            counts[node.op] = counts.get(node.op, 0) + 1
            visit(node.operand)

    visit(expr)
    return counts


def _sqrt(value):
    """``math.sqrt`` on scalars, ``np.sqrt`` on arrays."""
    try:
        return math.sqrt(value)  # type: ignore[arg-type]
    except TypeError:
        import numpy as np

        return np.sqrt(value)


def evaluate(expr: Expr, env: Mapping[Tuple[str, Vector], object]):
    """Evaluate the tree with values (scalars or NumPy arrays) bound to
    each ``(array, offset)`` reference."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Ref):
        key = (expr.array, expr.offset)
        if key not in env:
            raise KeyError(f"no value bound for reference {expr}")
        return env[key]
    if isinstance(expr, UnOp):
        value = evaluate(expr.operand, env)
        if expr.op == "neg":
            return -value
        if expr.op == "abs":
            return abs(value)
        if expr.op == "sqrt":
            return _sqrt(value)
        raise ValueError(f"unknown unary op {expr.op!r}")
    if isinstance(expr, BinOp):
        left = evaluate(expr.left, env)
        right = evaluate(expr.right, env)
        if expr.op == "add":
            return left + right
        if expr.op == "sub":
            return left - right
        if expr.op == "mul":
            return left * right
        if expr.op == "div":
            return left / right
        if expr.op in ("min", "max"):
            import numpy as np

            fn = np.minimum if expr.op == "min" else np.maximum
            return fn(left, right)
        raise ValueError(f"unknown binary op {expr.op!r}")
    raise TypeError(f"unknown expression node {expr!r}")


def compile_scalar(
    expr: Expr, slots: Mapping[Tuple[str, Vector], int]
) -> Callable[[Sequence[object]], object]:
    """Compile the tree once into a function of port-indexed values.

    ``slots`` maps each ``(array, offset)`` reference to its index in
    the value sequence the returned closure is called with.  The closure
    is straight-line code doing :func:`evaluate`'s operations in the
    same post-order with the same functions, so ``fn(values)`` is
    bit-identical to ``evaluate(expr, env)`` with ``env[key] =
    values[slots[key]]``.  A reference with no slot raises the same
    ``KeyError`` when the closure runs, at the same point of the
    evaluation order.
    """
    import numpy as np

    free: Dict[str, object] = {
        "minimum": np.minimum,
        "maximum": np.maximum,
        "sqrt": _sqrt,
    }
    body: List[str] = []

    def bind(value: object) -> str:
        name = f"k{len(free)}"
        free[name] = value
        return name

    def emit(node: Expr) -> str:
        """Operand text for ``node``; inner nodes become temporaries."""
        if isinstance(node, Const):
            return bind(node.value)
        if isinstance(node, Ref):
            slot = slots.get((node.array, node.offset))
            if slot is not None:
                return f"values[{int(slot)}]"
            # A statement of its own, so it raises at its post-order
            # position rather than when its parent's operands load.
            code = f"{bind(_unbound(node))}()"
        elif isinstance(node, UnOp):
            operand = emit(node.operand)
            if node.op == "neg":
                code = f"-{operand}"
            elif node.op in ("abs", "sqrt"):
                code = f"{node.op}({operand})"
            else:
                raise ValueError(f"unknown unary op {node.op!r}")
        elif isinstance(node, BinOp):
            left = emit(node.left)
            right = emit(node.right)
            if node.op in _OP_SYMBOLS:
                code = f"{left} {_OP_SYMBOLS[node.op]} {right}"
            elif node.op in _NUMPY_FUNCTIONS:
                code = f"{_NUMPY_FUNCTIONS[node.op]}({left}, {right})"
            else:
                raise ValueError(f"unknown binary op {node.op!r}")
        else:
            raise TypeError(f"unknown expression node {node!r}")
        temp = f"t{len(body)}"
        body.append(f"{temp} = {code}")
        return temp

    result = emit(expr)
    source = "".join(
        [f"def make({', '.join(free)}):\n", "    def kernel(values):\n"]
        + [f"        {line}\n" for line in body]
        + [f"        return {result}\n", "    return kernel\n"]
    )
    return _kernel_factory(source)(**free)


@functools.lru_cache(maxsize=256)
def _kernel_factory(source: str) -> Callable[..., Callable]:
    """The ``make`` function :func:`compile_scalar` generated.

    The source holds only names and slot indices, so every expression
    of one shape shares it; caching it skips Python's compiler, which
    costs more than a small simulation run.
    """
    namespace: Dict[str, object] = {}
    exec(source, namespace)
    return namespace["make"]  # type: ignore[return-value]


def _unbound(ref: Ref) -> Callable[[], object]:
    """A stand-in for a reference :func:`compile_scalar` has no slot for."""

    def missing() -> object:
        raise KeyError(f"no value bound for reference {ref}")

    return missing


def depth(expr: Expr) -> int:
    """Height of the expression tree (proxy for unpipelined latency)."""
    if isinstance(expr, (Const, Ref)):
        return 0
    if isinstance(expr, UnOp):
        return 1 + depth(expr.operand)
    if isinstance(expr, BinOp):
        return 1 + max(depth(expr.left), depth(expr.right))
    raise TypeError(f"unknown expression node {expr!r}")


def expr_to_json(expr: Expr) -> dict:
    """A JSON-safe tree description (inverse of :func:`expr_from_json`)."""
    if isinstance(expr, Const):
        return {"kind": "const", "value": expr.value}
    if isinstance(expr, Ref):
        return {
            "kind": "ref",
            "array": expr.array,
            "offset": list(expr.offset),
        }
    if isinstance(expr, UnOp):
        return {
            "kind": "unop",
            "op": expr.op,
            "operand": expr_to_json(expr.operand),
        }
    if isinstance(expr, BinOp):
        return {
            "kind": "binop",
            "op": expr.op,
            "left": expr_to_json(expr.left),
            "right": expr_to_json(expr.right),
        }
    raise TypeError(f"unknown expression node {expr!r}")


def expr_from_json(data: dict) -> Expr:
    """Rebuild an expression tree from :func:`expr_to_json` output."""
    kind = data.get("kind")
    if kind == "const":
        return Const(float(data["value"]))
    if kind == "ref":
        return Ref(as_vector(data["offset"]), data.get("array", "A"))
    if kind == "unop":
        return UnOp(data["op"], expr_from_json(data["operand"]))
    if kind == "binop":
        return BinOp(
            data["op"],
            expr_from_json(data["left"]),
            expr_from_json(data["right"]),
        )
    raise ValueError(f"unknown expression kind {kind!r}")


def to_c_source(expr: Expr, index_names: Sequence[str]) -> str:
    """Render the tree as C-like source with explicit index arithmetic
    (used by the Fig 4-style kernel code generator)."""
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, Ref):
        parts = []
        for name, d in zip(index_names, expr.offset):
            if d == 0:
                parts.append(f"[{name}]")
            elif d > 0:
                parts.append(f"[{name}+{d}]")
            else:
                parts.append(f"[{name}{d}]")
        return expr.array + "".join(parts)
    if isinstance(expr, UnOp):
        inner = to_c_source(expr.operand, index_names)
        if expr.op == "neg":
            return f"(-{inner})"
        if expr.op == "abs":
            return f"fabs({inner})"
        return f"sqrt({inner})"
    if isinstance(expr, BinOp):
        left = to_c_source(expr.left, index_names)
        right = to_c_source(expr.right, index_names)
        if expr.op in _OP_SYMBOLS:
            return f"({left} {_OP_SYMBOLS[expr.op]} {right})"
        fn = "fmin" if expr.op == "min" else "fmax"
        return f"{fn}({left}, {right})"
    raise TypeError(f"unknown expression node {expr!r}")
