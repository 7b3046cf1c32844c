"""Canonicalization and simplification of expression trees.

Helium canonicalizes concrete trees while it builds them (paper section 4.7,
"Canonicalization") so that trees produced by different unrolled copies of a
loop body — or by a fix-up loop that computes the same value with a different
instruction mix — hash to the same cluster.  Two rewrites matter most:

* ordering the operands of commutative operators deterministically, and
* flattening nested additions/subtractions into a sum-of-terms form and
  cancelling matching positive/negative terms.  This is the rewrite that
  undoes Photoshop's sliding-window box blur (section 6.3): the incremental
  ``window += new - old`` chain collapses back to the plain 9-point sum.
"""

from __future__ import annotations

import functools
from collections import OrderedDict

from .expr import BinOp, BufferAccess, Cast, Call, Const, Expr, MemLoad, Op, Param, Select, UnOp, Var
from .types import DType, FLOAT64, INT64


class _OrderKeys:
    """The deterministic sort key ordering commutative operands.

    Interior nodes order by the text of their structural key,
    ``str(expr.key())``.  One instance serves one :func:`simplify` call and
    prints each node's text once, from its children's texts: every
    fixed-point pass orders the same subtrees again.  The texts go with the
    call; kept on the nodes they would hold characters proportional to
    nodes x depth for as long as the trees live.
    """

    def __init__(self) -> None:
        #: ``id(node) -> (node, text)``: keyed by identity, not by the node,
        #: so printing does not also cache a hash on every node it visits;
        #: holding the node keeps its id from being reused during the call.
        self.texts: dict[int, tuple[Expr, str]] = {}

    def __call__(self, expr: Expr) -> tuple:
        if isinstance(expr, Const):
            return (0, str(expr.value))
        if isinstance(expr, Param):
            return (1, expr.name)
        if isinstance(expr, Var):
            return (2, expr.name)
        if isinstance(expr, MemLoad):
            return (3, f"{expr.address:016x}")
        if isinstance(expr, BufferAccess):
            return (4, expr.buffer, tuple(self(i) for i in expr.indices))
        return (5, self.text(expr))

    def text(self, expr: Expr) -> str:
        """``str(expr.cached_key())``."""
        entry = self.texts.get(id(expr))
        if entry is not None:
            return entry[1]
        children = {id(child.cached_key()): child for child in expr.children}
        text = self._print(expr.cached_key(), children)
        self.texts[id(expr)] = (expr, text)
        return text

    def _print(self, value, children: dict) -> str:
        """``str(value)`` for a part of a key; ``children`` maps the ids of
        the node's child keys to the children, whose texts are reused."""
        if type(value) is tuple:
            child = children.get(id(value))
            if child is not None:
                return self.text(child)
            parts = [self._print(item, children) for item in value]
            return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"
        if type(value) is DType:
            return _dtype_text(value)
        return repr(value)


@functools.cache
def _dtype_text(dtype: DType) -> str:
    return repr(dtype)


def _trunc_div(a: int, b: int) -> int:
    """Integer division truncating toward zero (x86 ``idiv`` semantics)."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _trunc_mod(a: int, b: int) -> int:
    """Integer remainder with the dividend's sign (x86 ``idiv`` semantics)."""
    return a - _trunc_div(a, b) * b


def _fold_binop(op: str, a: Const, b: Const, dtype: DType) -> Const:
    av, bv = a.value, b.value
    if op == Op.ADD:
        value = av + bv
    elif op == Op.SUB:
        value = av - bv
    elif op == Op.MUL:
        value = av * bv
    elif op == Op.DIV:
        # x86 idiv truncates toward zero; Python's // floors.  Negative
        # operands must fold the way the traced binary divided.
        value = av / bv if dtype.is_float else _trunc_div(int(av), int(bv))
    elif op == Op.MOD:
        value = _trunc_mod(int(av), int(bv))
    elif op in (Op.SHR, Op.SAR):
        # Both realization engines shift on the un-normalized integer domain
        # (Python/int64 arithmetic shift); folding must agree with them, or a
        # constant-folded tree realizes differently from the unfolded one.
        # x86's logical-vs-arithmetic distinction is already applied by the
        # emulator on the width-masked values before trees are built.
        value = int(av) >> int(bv)
    elif op == Op.SHL:
        value = int(av) << int(bv)
    elif op == Op.AND:
        value = int(av) & int(bv)
    elif op == Op.OR:
        value = int(av) | int(bv)
    elif op == Op.XOR:
        value = int(av) ^ int(bv)
    elif op == Op.MIN:
        value = min(av, bv)
    elif op == Op.MAX:
        value = max(av, bv)
    elif op in Op.COMPARISONS:
        table = {
            Op.LT: av < bv, Op.LE: av <= bv, Op.GT: av > bv,
            Op.GE: av >= bv, Op.EQ: av == bv, Op.NE: av != bv,
        }
        return Const(1 if table[op] else 0, dtype)
    else:  # pragma: no cover - defensive
        raise ValueError(f"cannot fold operator {op}")
    return Const(value, dtype)


# ---------------------------------------------------------------------------
# Sum-of-terms normalization
# ---------------------------------------------------------------------------


def _as_terms(expr: Expr) -> tuple[OrderedDict, int | float] | None:
    """Decompose ``expr`` into (term -> coefficient, constant offset).

    Only +, - and multiplication by a constant are decomposed; any other node
    becomes an opaque term.  Returns ``None`` for floating point expressions,
    where reassociation would not be bit-exact (the paper accepts the low-bit
    differences, but we only reassociate integers to keep Photoshop filters
    bit-identical, matching section 6.1).
    """
    if expr.dtype.is_float:
        return None
    terms: OrderedDict = OrderedDict()
    constant = 0

    def accumulate(node: Expr, sign: int) -> None:
        nonlocal constant
        if isinstance(node, Const):
            constant += sign * node.value
            return
        if isinstance(node, BinOp) and node.op == Op.ADD and not node.dtype.is_float:
            accumulate(node.a, sign)
            accumulate(node.b, sign)
            return
        if isinstance(node, BinOp) and node.op == Op.SUB and not node.dtype.is_float:
            accumulate(node.a, sign)
            accumulate(node.b, -sign)
            return
        if isinstance(node, UnOp) and node.op == Op.NEG:
            accumulate(node.a, -sign)
            return
        if isinstance(node, BinOp) and node.op == Op.MUL and not node.dtype.is_float:
            if isinstance(node.a, Const):
                accumulate_term(node.b, sign * node.a.value)
                return
            if isinstance(node.b, Const):
                accumulate_term(node.a, sign * node.b.value)
                return
        accumulate_term(node, sign)

    def accumulate_term(node: Expr, coefficient: int | float) -> None:
        if node in terms:
            terms[node] += coefficient
        else:
            terms[node] = coefficient

    accumulate(expr, 1)
    return terms, constant


def _from_terms(terms: OrderedDict, constant: int | float, dtype: DType,
                order_key: _OrderKeys) -> Expr:
    """Rebuild a canonical expression from a term map."""
    ordered = sorted(
        ((term, coeff) for term, coeff in terms.items() if coeff != 0),
        key=lambda item: order_key(item[0]),
    )
    result: Expr | None = None
    negative_parts: list[Expr] = []
    for term, coeff in ordered:
        if coeff == 1:
            piece: Expr = term
        elif coeff == -1:
            negative_parts.append(term)
            continue
        elif coeff > 0:
            piece = BinOp(Op.MUL, Const(coeff, dtype), term, dtype)
        else:
            negative_parts.append(BinOp(Op.MUL, Const(-coeff, dtype), term, dtype))
            continue
        result = piece if result is None else BinOp(Op.ADD, result, piece, dtype)
    if constant:
        piece = Const(constant, dtype)
        result = piece if result is None else BinOp(Op.ADD, result, piece, dtype)
    if result is None:
        result = Const(constant, dtype)
    for piece in negative_parts:
        result = BinOp(Op.SUB, result, piece, dtype)
    return result


# ---------------------------------------------------------------------------
# Single-node simplification
# ---------------------------------------------------------------------------


def _simplify_node(expr: Expr, order_key: _OrderKeys) -> Expr:
    if isinstance(expr, BinOp):
        a, b = expr.a, expr.b
        if isinstance(a, Const) and isinstance(b, Const):
            if expr.op in (Op.DIV, Op.MOD) and not expr.dtype.is_float \
                    and int(b.value) == 0:
                # Folding would crash at canonicalize time; leave the node
                # so realization raises the engines' one division-by-zero
                # semantics (RealizationError, mirroring x86 #DE).
                return expr
            return _fold_binop(expr.op, a, b, expr.dtype)
        if expr.op == Op.ADD:
            if isinstance(a, Const) and a.value == 0:
                return b
            if isinstance(b, Const) and b.value == 0:
                return a
        if expr.op == Op.SUB and isinstance(b, Const) and b.value == 0:
            return a
        if expr.op == Op.SUB and a == b and not expr.dtype.is_float:
            return Const(0, expr.dtype)
        if expr.op == Op.MUL:
            if isinstance(a, Const):
                if a.value == 1:
                    return b
                if a.value == 0 and not expr.dtype.is_float:
                    return Const(0, expr.dtype)
            if isinstance(b, Const):
                if b.value == 1:
                    return a
                if b.value == 0 and not expr.dtype.is_float:
                    return Const(0, expr.dtype)
        if expr.op in (Op.SHR, Op.SAR, Op.SHL) and isinstance(b, Const) and b.value == 0:
            return a
        if expr.op in (Op.OR, Op.XOR) and isinstance(b, Const) and b.value == 0:
            return a
        if expr.op == Op.AND and isinstance(b, Const):
            mask = int(b.value)
            if expr.dtype.is_integer and mask == (1 << expr.dtype.bits) - 1:
                return a
        # Order commutative operands deterministically.
        if expr.op in Op.COMMUTATIVE and order_key(b) < order_key(a):
            return BinOp(expr.op, b, a, expr.dtype)
    elif isinstance(expr, UnOp):
        if isinstance(expr.a, Const):
            if expr.op == Op.NEG:
                return Const(-expr.a.value, expr.dtype)
            if expr.op == Op.NOT:
                return Const(~int(expr.a.value), expr.dtype)
            if expr.op == Op.ABS:
                return Const(abs(expr.a.value), expr.dtype)
    elif isinstance(expr, Cast):
        inner = expr.a
        if isinstance(inner, Const):
            return Const(expr.dtype.wrap(inner.value), expr.dtype)
        if isinstance(inner, Cast) and inner.dtype == expr.dtype:
            return Cast(expr.dtype, inner.a)
        if inner.dtype == expr.dtype:
            return inner
    elif isinstance(expr, Select):
        if isinstance(expr.cond, Const):
            return expr.if_true if expr.cond.value else expr.if_false
    return expr


def simplify(expr: Expr) -> Expr:
    """Simplify and canonicalize an expression tree.

    Applies local rewrites bottom-up, then normalizes integer +/- chains into
    an ordered sum-of-terms and cancels matching terms.
    """

    order_key = _OrderKeys()

    def rewrite(node: Expr) -> Expr:
        node = _simplify_node(node, order_key)
        if isinstance(node, BinOp) and node.op in (Op.ADD, Op.SUB) and not node.dtype.is_float:
            decomposed = _as_terms(node)
            if decomposed is not None:
                terms, constant = decomposed
                rebuilt = _from_terms(terms, constant, node.dtype, order_key)
                if rebuilt.node_count() <= node.node_count():
                    return rebuilt
        return node

    previous = None
    current = expr
    # Iterate to a fixed point; tree sizes are small so this terminates fast.
    for _ in range(8):
        if previous is not None and current == previous:
            break
        previous = current
        current = current.transform(rewrite)
    return current


#: Memo of already-canonicalized trees.  Trace-driven tree building
#: canonicalizes the same address expressions, predicates and unrolled-copy
#: trees over and over; repeated identical inputs skip the fixed-point rewrite
#: entirely.  The key is the tree (cached structural key) *plus* the
#: positional values of its Param leaves: structural keys deliberately ignore
#: the observed parameter values, but returning a memoized tree would also
#: return its Param objects, so two lifts that differ only in runtime
#: constants must not share an entry.
_CANON_CACHE: dict[tuple, Expr] = {}
_CANON_CACHE_LIMIT = 8192
canonicalize_stats = {"hits": 0, "misses": 0}


def _memo_key(expr: Expr) -> tuple:
    values = tuple(node.value for node in expr.walk() if isinstance(node, Param))
    return (expr, values)


def canonicalize(expr: Expr) -> Expr:
    """Simplify with memoization; canonical form == simplified form."""
    key = _memo_key(expr)
    cached = _CANON_CACHE.get(key)
    if cached is not None:
        canonicalize_stats["hits"] += 1
        return cached
    canonicalize_stats["misses"] += 1
    result = simplify(expr)
    if len(_CANON_CACHE) >= _CANON_CACHE_LIMIT:
        _CANON_CACHE.clear()
    _CANON_CACHE[key] = result
    # A canonical tree canonicalizes to itself; seeding the memo with the
    # result makes re-canonicalization (clustering, codegen) a direct hit.
    _CANON_CACHE.setdefault(_memo_key(result), result)
    return result


def clear_canonicalize_cache() -> None:
    _CANON_CACHE.clear()
    canonicalize_stats["hits"] = canonicalize_stats["misses"] = 0


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate(expr: Expr, env: dict | None = None) -> int | float:
    """Evaluate a tree to a scalar.

    ``env`` maps :class:`Var`/:class:`Param` names to values and may also map
    buffer names to callables ``f(*indices) -> value`` used to resolve
    :class:`BufferAccess` leaves.  :class:`MemLoad` leaves may be resolved via
    an ``env['__memory__']`` callable taking ``(address, dtype)``.
    """
    env = env or {}

    def ev(node: Expr) -> int | float:
        if isinstance(node, Const):
            return node.value
        if isinstance(node, (Param, Var)):
            if node.name in env:
                return env[node.name]
            if isinstance(node, Param):
                return node.value
            raise KeyError(f"unbound variable {node.name}")
        if isinstance(node, MemLoad):
            reader = env.get("__memory__")
            if reader is None:
                raise KeyError("no '__memory__' reader provided for MemLoad evaluation")
            return reader(node.address, node.dtype)
        if isinstance(node, BufferAccess):
            reader = env.get(node.buffer)
            if reader is None:
                raise KeyError(f"no reader for buffer {node.buffer!r}")
            return reader(*[int(ev(i)) for i in node.indices])
        if isinstance(node, BinOp):
            folded = _fold_binop(node.op, Const(ev(node.a), _value_type(node)),
                                 Const(ev(node.b), _value_type(node)), node.dtype)
            return folded.value
        if isinstance(node, UnOp):
            value = ev(node.a)
            if node.op == Op.NEG:
                return -value
            if node.op == Op.NOT:
                return ~int(value)
            if node.op == Op.ABS:
                return abs(value)
            raise ValueError(f"unknown unary op {node.op}")
        if isinstance(node, Cast):
            return node.dtype.wrap(ev(node.a))
        if isinstance(node, Select):
            return ev(node.if_true) if ev(node.cond) else ev(node.if_false)
        if isinstance(node, Call):
            import math

            fn = getattr(math, node.func)
            return node.dtype.wrap(fn(*[ev(a) for a in node.args]))
        raise TypeError(f"cannot evaluate {type(node).__name__}")

    def _value_type(node: BinOp) -> DType:
        # Evaluate integer arithmetic without intermediate wrapping (wrap at
        # casts), which matches how the analysis interprets 32-bit chains.
        return FLOAT64 if node.dtype.is_float else INT64

    return ev(expr)
