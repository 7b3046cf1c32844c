"""Unit and property tests for simplification / canonicalization."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import (
    BinOp, Cast, Const, MemLoad, Op, Param, Select, UnOp, Var,
    INT64, UINT8, UINT32, canonicalize, evaluate, simplify,
)


class TestAlgebraicRules:
    def test_constant_folding(self):
        assert simplify(BinOp(Op.ADD, Const(2), Const(3))) == Const(5)
        assert simplify(BinOp(Op.MUL, Const(4), Const(8))) == Const(32)
        assert simplify(BinOp(Op.SHR, Const(32, UINT32), Const(3, UINT32))) == Const(4, UINT32)

    def test_identity_elimination(self):
        x = Var("x")
        assert simplify(BinOp(Op.ADD, x, Const(0))) == x
        assert simplify(BinOp(Op.MUL, x, Const(1))) == x
        assert simplify(BinOp(Op.SHL, x, Const(0))) == x
        assert simplify(BinOp(Op.XOR, x, Const(0))) == x

    def test_multiply_by_zero(self):
        assert simplify(BinOp(Op.MUL, Var("x"), Const(0))) == Const(0)

    def test_self_subtraction_cancels(self):
        load = MemLoad(0x1000)
        assert simplify(BinOp(Op.SUB, load, load)) == Const(0, load.dtype)

    def test_commutative_operands_are_ordered(self):
        a = MemLoad(0x200)
        b = MemLoad(0x100)
        left = simplify(BinOp(Op.ADD, a, b))
        right = simplify(BinOp(Op.ADD, b, a))
        assert left == right

    def test_sliding_window_cancellation(self):
        """The rewrite that undoes Photoshop's sliding-window box blur."""
        a, b, c, d = (MemLoad(0x100 + i) for i in range(4))
        window = BinOp(Op.ADD, BinOp(Op.ADD, a, b), c)           # a + b + c
        slid = BinOp(Op.SUB, BinOp(Op.ADD, window, d), a)        # + d - a
        simplified = simplify(slid)
        expected = simplify(BinOp(Op.ADD, BinOp(Op.ADD, b, c), d))
        assert simplified == expected

    def test_nested_cast_collapse(self):
        x = Var("x")
        assert simplify(Cast(UINT8, Cast(UINT8, x))) == Cast(UINT8, x)

    def test_select_constant_condition(self):
        sel = Select(Const(1), Var("a"), Var("b"))
        assert simplify(sel) == Var("a")

    def test_float_addition_not_reassociated(self):
        from repro.ir import FLOAT64

        a = Param("p1", 0.1, FLOAT64)
        b = Param("p2", 0.2, FLOAT64)
        expr = BinOp(Op.SUB, BinOp(Op.ADD, a, b), a)
        # Floating point must not be cancelled: (p1 + p2) - p1 != p2 bitwise.
        assert simplify(expr) == expr


class TestEvaluation:
    def test_evaluate_with_env(self):
        expr = BinOp(Op.ADD, BinOp(Op.MUL, Var("x"), Const(3)), Const(4))
        assert evaluate(expr, {"x": 5}) == 19

    def test_evaluate_buffer_reader(self):
        from repro.ir import BufferAccess

        expr = BufferAccess("img", [Var("x"), Const(2)])
        assert evaluate(expr, {"x": 3, "img": lambda x, y: 10 * y + x}) == 23

    def test_evaluate_select(self):
        expr = Select(BinOp(Op.GT, Var("x"), Const(10)), Const(255), Const(0))
        assert evaluate(expr, {"x": 20}) == 255
        assert evaluate(expr, {"x": 3}) == 0


@st.composite
def random_int_exprs(draw, depth=0):
    """Random integer expressions over two variables."""
    if depth > 3 or draw(st.booleans()):
        return draw(st.sampled_from([
            Var("x"), Var("y"),
            Const(draw(st.integers(min_value=-64, max_value=64)), INT64),
        ]))
    op = draw(st.sampled_from([Op.ADD, Op.SUB, Op.MUL, Op.AND, Op.OR, Op.XOR]))
    a = draw(random_int_exprs(depth=depth + 1))
    b = draw(random_int_exprs(depth=depth + 1))
    return BinOp(op, a, b, INT64)


class TestSimplifyProperties:
    @given(expr=random_int_exprs(),
           x=st.integers(min_value=-100, max_value=100),
           y=st.integers(min_value=-100, max_value=100))
    @settings(max_examples=120, deadline=None)
    def test_simplify_preserves_value(self, expr, x, y):
        env = {"x": x, "y": y}
        assert evaluate(simplify(expr), env) == evaluate(expr, env)

    @given(expr=random_int_exprs())
    @settings(max_examples=80, deadline=None)
    def test_simplify_is_idempotent(self, expr):
        once = simplify(expr)
        assert simplify(once) == once

    @given(expr=random_int_exprs())
    @settings(max_examples=80, deadline=None)
    def test_simplify_never_grows_much(self, expr):
        assert simplify(expr).node_count() <= expr.node_count() + 2

    @given(expr=random_int_exprs())
    @settings(max_examples=60, deadline=None)
    def test_order_key_text_matches_printed_key(self, expr):
        """The commutative order compares key texts built from the
        children's texts; they must print exactly like the key itself."""
        from repro.ir.simplify import _OrderKeys

        order_key = _OrderKeys()
        for tree in (expr, simplify(expr)):
            for node in tree.walk():
                assert order_key.text(node) == str(node.key())

    def test_order_key_text_of_every_node_kind(self):
        from repro.ir import BufferAccess, Call, FLOAT64, INT32
        from repro.ir.simplify import _OrderKeys

        tap = Cast(UINT8, BufferAccess("input_1", [BinOp(Op.ADD, Var("x"),
                                                         Const(-1))], UINT8))
        root = Select(BinOp(Op.LT, Call("sqrt", [Cast(FLOAT64, tap)], FLOAT64),
                            Const(2.5, FLOAT64)),
                      UnOp(Op.NEG, MemLoad(0x1000, UINT8)),
                      BinOp(Op.MUL, tap, Param("param_k", 3, INT32)))
        order_key = _OrderKeys()
        for node in root.walk():
            assert order_key.text(node) == str(node.key())

    @given(x=st.integers(-50, 50), y=st.integers(-50, 50))
    @settings(max_examples=60, deadline=None)
    def test_canonical_form_of_commuted_sums(self, x, y):
        a = BinOp(Op.ADD, BinOp(Op.MUL, Const(3), Var("x")), Var("y"))
        b = BinOp(Op.ADD, Var("y"), BinOp(Op.MUL, Var("x"), Const(3)))
        assert canonicalize(a) == canonicalize(b)
