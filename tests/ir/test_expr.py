"""Unit tests for the expression IR."""

import pytest

from repro.ir import (
    BinOp, BufferAccess, Cast, Const, MemLoad, Op, Param, Select, UnOp, Var,
    INT32, UINT8, UINT32, collect, structural_signature, substitute,
)


class TestNodeBasics:
    def test_const_wraps_to_dtype(self):
        assert Const(300, UINT8).value == 44
        assert Const(-1, UINT8).value == 255
        assert Const(-1, INT32).value == -1

    def test_equality_is_structural(self):
        a = BinOp(Op.ADD, Var("x"), Const(1))
        b = BinOp(Op.ADD, Var("x"), Const(1))
        assert a == b
        assert hash(a) == hash(b)
        assert a != BinOp(Op.ADD, Var("x"), Const(2))

    def test_children_and_rebuild(self):
        expr = BinOp(Op.MUL, Var("x"), Const(3))
        rebuilt = expr.with_children([Var("y"), Const(3)])
        assert rebuilt == BinOp(Op.MUL, Var("y"), Const(3))
        assert expr.children == (Var("x"), Const(3))

    def test_node_count_and_depth(self):
        expr = BinOp(Op.ADD, BinOp(Op.MUL, Var("x"), Const(2)), Const(1))
        assert expr.node_count() == 5
        assert expr.depth() == 3

    def test_walk_preorder(self):
        expr = BinOp(Op.ADD, Var("a"), Var("b"))
        names = [type(node).__name__ for node in expr.walk()]
        assert names == ["BinOp", "Var", "Var"]

    def test_buffer_access_children_are_indices(self):
        access = BufferAccess("input_1", [Var("x"), Const(2)], UINT8)
        assert len(access.children) == 2
        assert str(access) == "input_1(x, 2)"

    def test_select_dtype_follows_true_branch(self):
        select = Select(BinOp(Op.GT, Var("x"), Const(0)), Const(1, UINT8), Const(0, UINT8))
        assert select.dtype == UINT8


class TestHelpers:
    def test_substitute(self):
        expr = BinOp(Op.ADD, Var("x"), Const(1))
        replaced = substitute(expr, {Var("x"): Const(41)})
        assert replaced == BinOp(Op.ADD, Const(41), Const(1))

    def test_collect(self):
        expr = BinOp(Op.ADD, MemLoad(0x100), MemLoad(0x104))
        assert len(collect(expr, MemLoad)) == 2

    def test_structural_signature_ignores_leaf_values(self):
        a = BinOp(Op.ADD, MemLoad(0x100), Const(1))
        b = BinOp(Op.ADD, MemLoad(0x999), Const(7))
        assert structural_signature(a) == structural_signature(b)
        c = BinOp(Op.SUB, MemLoad(0x100), Const(1))
        assert structural_signature(a) != structural_signature(c)

    def test_structural_signature_keeps_buffer_identity(self):
        a = BufferAccess("input_1", [Const(0), Const(0)])
        b = BufferAccess("input_2", [Const(0), Const(0)])
        assert structural_signature(a) != structural_signature(b)

    def test_signature_distinguishes_indirect_access(self):
        direct = BufferAccess("t", [Const(3)])
        indirect = BufferAccess("t", [BufferAccess("input_1", [Const(0)])])
        assert structural_signature(direct) != structural_signature(indirect)

    def test_cast_str(self):
        assert "cast<uint32>" in str(Cast(UINT32, Var("x")))

    def test_unop_str(self):
        assert str(UnOp(Op.NEG, Var("x"))) == "neg(x)"

    def test_param_keeps_value(self):
        param = Param("param_p_10", 42, INT32)
        assert param.value == 42
        assert param == Param("param_p_10", 17, INT32)  # value not part of identity



class TestPerNodeMemos:
    """node_count is cached per node and must equal a fresh walk's count;
    the memo never reaches the pickled bytes."""

    @staticmethod
    def _tree():
        index = BinOp(Op.ADD, Var("x_0"), Const(-1))
        tap = Cast(UINT32, BufferAccess("input_1", [index], UINT8))
        scaled = BinOp(Op.MUL, tap, Param("param_a", 3, INT32), UINT32)
        return Select(BinOp(Op.LT, scaled, Const(2)),
                      Cast(UINT8, UnOp(Op.NEG, MemLoad(0x1000, UINT8))), tap)

    def test_node_count_equals_walk(self):
        for node in self._tree().walk():
            assert node.node_count() == sum(1 for _ in node.walk())

    def test_pickles_without_memo_slots(self):
        import pickle

        fresh, used = self._tree(), self._tree()
        used.node_count(), hash(used)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        clone = pickle.loads(pickle.dumps(used))
        assert clone == used and clone.node_count() == used.node_count()
