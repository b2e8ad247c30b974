"""Unit tests for the kernel expression AST."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stencil.expr import (
    BINARY_OPS,
    UNARY_OPS,
    BinOp,
    Const,
    Ref,
    UnOp,
    absolute,
    collect_refs,
    compile_scalar,
    count_operations,
    depth,
    evaluate,
    maximum,
    minimum,
    square_root,
    to_c_source,
    weighted_sum,
    wrap,
)


class TestConstruction:
    def test_operator_overloads(self):
        e = Ref((0, 0)) + Ref((0, 1))
        assert isinstance(e, BinOp)
        assert e.op == "add"

    def test_scalar_coercion(self):
        e = 2.0 * Ref((0, 0))
        assert isinstance(e.left, Const)
        assert e.left.value == 2.0

    def test_right_hand_scalar(self):
        e = Ref((0, 0)) - 1
        assert isinstance(e.right, Const)

    def test_division_and_negation(self):
        e = -(Ref((0, 0)) / 4)
        assert isinstance(e, UnOp)
        assert e.op == "neg"

    def test_unknown_binop_rejected(self):
        with pytest.raises(ValueError):
            BinOp("pow", Const(1.0), Const(2.0))

    def test_unknown_unop_rejected(self):
        with pytest.raises(ValueError):
            UnOp("sin", Const(1.0))

    def test_wrap_rejects_strings(self):
        with pytest.raises(TypeError):
            wrap("x")


class TestCollectRefs:
    def test_distinct_refs_in_order(self):
        e = Ref((0, 1)) + Ref((1, 0)) + Ref((0, 1))
        refs = collect_refs(e)
        assert [r.offset for r in refs] == [(0, 1), (1, 0)]

    def test_refs_from_weighted_sum(self):
        e = weighted_sum([((0, 0), 1), ((0, 1), 2), ((1, 0), 0.5)])
        assert len(collect_refs(e)) == 3

    def test_multi_array_refs(self):
        e = Ref((0, 0), "A") + Ref((0, 0), "B")
        refs = collect_refs(e)
        assert {r.array for r in refs} == {"A", "B"}


class TestEvaluate:
    def test_scalar_arithmetic(self):
        e = 0.5 * Ref((0, 0)) + 2.0
        assert evaluate(e, {("A", (0, 0)): 4.0}) == 4.0

    def test_division(self):
        e = Ref((0, 0)) / 4.0
        assert evaluate(e, {("A", (0, 0)): 2.0}) == 0.5

    def test_min_max_abs_sqrt(self):
        env = {("A", (0, 0)): -9.0, ("A", (0, 1)): 4.0}
        assert evaluate(
            minimum(Ref((0, 0)), Ref((0, 1))), env
        ) == -9.0
        assert evaluate(
            maximum(Ref((0, 0)), Ref((0, 1))), env
        ) == 4.0
        assert evaluate(absolute(Ref((0, 0))), env) == 9.0
        assert evaluate(square_root(Ref((0, 1))), env) == 2.0

    def test_vectorized_numpy(self):
        a = np.arange(6.0).reshape(2, 3)
        b = np.ones((2, 3))
        e = Ref((0, 0)) + 2 * Ref((0, 1))
        out = evaluate(e, {("A", (0, 0)): a, ("A", (0, 1)): b})
        assert np.allclose(out, a + 2)

    def test_missing_binding_raises(self):
        with pytest.raises(KeyError):
            evaluate(Ref((0, 0)), {})

    def test_numpy_sqrt_fallback(self):
        arr = np.array([4.0, 9.0])
        out = evaluate(square_root(Ref((0,))), {("A", (0,)): arr})
        assert np.allclose(out, [2.0, 3.0])


class TestStructureQueries:
    def test_count_operations(self):
        e = 0.5 * Ref((0, 0)) + 0.25 * (Ref((0, 1)) + Ref((0, -1)))
        counts = count_operations(e)
        assert counts["mul"] == 2
        assert counts["add"] == 2

    def test_depth(self):
        assert depth(Ref((0, 0))) == 0
        assert depth(Ref((0, 0)) + 1) == 1
        assert depth((Ref((0, 0)) + 1) * 2) == 2

    def test_weighted_sum_unit_coefficients_skip_mul(self):
        e = weighted_sum([((0, 0), 1), ((0, 1), 1)])
        assert count_operations(e).get("mul", 0) == 0

    def test_weighted_sum_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_sum([])


class TestCSource:
    def test_ref_rendering(self):
        src = to_c_source(Ref((-1, 1)), ["i", "j"])
        assert src == "A[i-1][j+1]"

    def test_expression_rendering(self):
        e = 0.25 * (Ref((0, 1)) + Ref((0, -1)))
        src = to_c_source(e, ["i", "j"])
        assert "A[i][j+1]" in src
        assert "A[i][j-1]" in src
        assert "*" in src

    def test_abs_and_min(self):
        src = to_c_source(
            minimum(absolute(Ref((0, 0))), Const(1.0)), ["i", "j"]
        )
        assert "fabs" in src
        assert "fmin" in src

    def test_str_repr_roundtrip(self):
        e = Ref((0, 0)) + 1
        assert "A" in str(e)
        assert "+" in str(e)


#: References the generated expressions draw from; a random subset of
#: them gets a value slot, so unbound references are exercised too.
_REFS = [Ref((0, 0)), Ref((0, 1)), Ref((-1, 0)), Ref((1, 0), "B")]


def _nan_with_payload(payload: int, negative: bool) -> float:
    bits = 0x7FF0000000000000 | payload | (negative << 63)
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 4.0]),
    st.builds(
        _nan_with_payload, st.integers(1, 2**52 - 1), st.booleans()
    ),
)

_EXPRS = st.recursive(
    st.one_of(st.sampled_from(_REFS), st.builds(Const, _FLOATS)),
    lambda inner: st.one_of(
        st.builds(BinOp, st.sampled_from(BINARY_OPS), inner, inner),
        st.builds(UnOp, st.sampled_from(UNARY_OPS), inner),
    ),
    max_leaves=24,
)


def _two_nans_meet(expr, env) -> bool:
    """True if some ``+ - * /`` in the tree gets two Python-float NaNs.

    CPython (3.11+) specializes float arithmetic in the interpreter
    loop, and the specialized and generic paths hand the operands to
    the FPU in opposite orders, so which of two NaN payloads survives
    depends on how warm that bytecode is -- for :func:`evaluate` as
    much as for a compiled closure.  Only such results are compared as
    "both NaN" rather than bit for bit.
    """
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, UnOp):
            stack.append(node.operand)
        elif isinstance(node, BinOp):
            stack += [node.left, node.right]
            if node.op in ("add", "sub", "mul", "div"):
                operands = [
                    evaluate(node.left, env),
                    evaluate(node.right, env),
                ]
                if all(
                    type(v) is float and math.isnan(v) for v in operands
                ):
                    return True
    return False


def _outcome(compute):
    """The value's type and bits, or the exception's type and text."""
    try:
        with np.errstate(all="ignore"):
            value = compute()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return ("raised", type(exc), str(exc))
    return ("value", type(value), struct.pack("d", value))


class TestCompileScalar:
    @given(
        _EXPRS,
        st.lists(_FLOATS, min_size=len(_REFS), max_size=len(_REFS)),
        st.lists(st.booleans(), min_size=len(_REFS), max_size=len(_REFS)),
    )
    @settings(max_examples=400, deadline=None)
    def test_bit_identical_to_evaluate(self, expr, values, bound):
        slots = {}
        env = {}
        for port, (ref, value, keep) in enumerate(
            zip(_REFS, values, bound)
        ):
            if keep:
                slots[(ref.array, ref.offset)] = port
                env[(ref.array, ref.offset)] = value
        compiled = compile_scalar(expr, slots)
        got = _outcome(lambda: compiled(values))
        want = _outcome(lambda: evaluate(expr, env))
        if got != want and want[0] == "value" and _two_nans_meet(expr, env):
            got_value = struct.unpack("d", got[2])[0]
            want_value = struct.unpack("d", want[2])[0]
            assert got[1] is want[1]
            assert math.isnan(got_value) and math.isnan(want_value)
        else:
            assert got == want

    def test_nan_operand_order_of_min_max(self):
        quiet = _nan_with_payload(1 << 51 | 5, False)
        other = _nan_with_payload(1 << 51 | 9, True)
        expr = minimum(Ref((0, 0)), Ref((0, 1)))
        slots = {("A", (0, 0)): 0, ("A", (0, 1)): 1}
        env = {("A", (0, 0)): quiet, ("A", (0, 1)): other}
        got = compile_scalar(expr, slots)([quiet, other])
        want = evaluate(expr, env)
        assert struct.pack("d", got) == struct.pack("d", want)

    def test_unbound_reference_raises_when_run(self):
        expr = Ref((0, 0)) + Ref((2, 2))
        compiled = compile_scalar(expr, {("A", (0, 0)): 0})
        with pytest.raises(KeyError, match="no value bound"):
            compiled([1.0])
