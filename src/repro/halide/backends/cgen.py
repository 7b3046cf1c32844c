"""C code generation for the native backend.

This module turns a :class:`~repro.halide.lower.LoweredPipeline`'s ``Stmt``
tree into one self-contained C translation unit.  The unit is split into
*segments* — maximal parallel-free subtrees compiled to one exported function
each — so the Python-side executor (:mod:`.native`) can keep fanning parallel
``For`` loops out across the shared worker pool while everything underneath
runs as native code with the GIL released (cffi ABI-mode calls drop the GIL
for the duration of the C call).

The contract is *bit-identity with the interpreter oracle*: every arithmetic
rule here mirrors ``realize._evaluate`` / ``_apply_binop`` exactly —

* integer arithmetic is int64 with two's-complement wraparound (emitted via
  unsigned arithmetic so it is defined behaviour in C);
* python float constants are always double, float32 only arises from explicit
  ``Cast`` nodes, and any mixed-kind operation promotes to double (NumPy's
  promotion lattice restricted to the three kinds the interpreter produces);
* comparisons compare in the promoted kind and yield int64 0/1;
* ``%`` is always the truncated integer remainder regardless of node dtype,
  ``/`` is a true divide only when the node dtype is floating;
* integer division by zero is not UB but return code 1, which the caller
  re-raises as the interpreter's exact ``RealizationError``;
* min/max on floats propagate NaN like ``np.minimum``/``np.maximum``;
* narrowing casts wrap modulo 2**bits with a signed fix, like ``_wrap_cast``.

Segment ABI::

    int64_t rp_seg{n}(void **bufs, const int64_t *shapes, const int64_t *env,
                      const int64_t *iparams, const double *fparams);

``bufs`` holds one data pointer per :attr:`SegmentSpec.buffers` entry,
``shapes`` their concatenated extents, ``env`` the Python-level loop/let
bindings the segment references, and ``iparams``/``fparams`` the pipeline
parameters.  Return codes: 0 ok, 1 integer division by zero, 2 reduction
scatter index out of bounds, 3 scratch allocation failure.

Build cost scales with the number of *distinct* kernels, not call sites:

* every ``Store`` / ``ReduceLoop`` region loop is emitted as a ``static``
  kernel function ``rp_k{n}`` taking its buffer views (data pointer plus
  extents), its region (offset/extent/origin, store-local params) and the
  pipeline parameters it reads as arguments, and returning the same rc
  codes.  Kernels whose text is identical (the same Func stored into
  different buffers or segments) are emitted once and shared;
* a parallel ``For`` whose body is parallel-free gets its serial variant as
  a C loop that calls the body segment, not as a second copy of the nest.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ...ir import (
    AccumMerge,
    Allocate,
    BinOp,
    Block,
    BufferAccess,
    Call,
    Cast,
    Const,
    Expr,
    For,
    IfThenElse,
    Let,
    Op,
    PadEdge,
    Param,
    ProducerConsumer,
    ReduceLoop,
    Select,
    Stmt,
    Store,
    UnOp,
    Var,
)
from ...ir.types import DType
from ..func import _strip_self_reference, vectorize_width

__all__ = ["CGenError", "SegmentSpec", "NestProgram", "generate_nest"]


class CGenError(Exception):
    """The lowered nest contains a construct the C emitter cannot translate.

    Raised at generation time; the native backend treats it as a permanent
    degrade-to-compiled signal for this lowering.
    """


#: Computation kinds the interpreter's value domain collapses to.
_CTYPE = {"i64": "int64_t", "f32": "float", "f64": "double"}


def _promote(a: str, b: str) -> str:
    """NumPy's promotion lattice restricted to {i64, f32, f64}."""
    if a == b:
        return a
    return "f64"


def _storage_ctype(dtype: DType) -> str:
    if dtype.is_float:
        return "float" if dtype.bits == 32 else "double"
    if dtype.is_signed:
        return f"int{dtype.bits}_t"
    return f"uint{dtype.bits}_t"


def _int_literal(value: int) -> str:
    value = int(value)
    if value == -(2**63):
        return "(-INT64_C(9223372036854775807) - 1)"
    return f"INT64_C({value})"


def _float_literal(value: float) -> str:
    value = float(value)
    if value != value:
        return "NAN"
    if value == float("inf"):
        return "INFINITY"
    if value == float("-inf"):
        return "-INFINITY"
    if value == int(value) and abs(value) < 1e15:
        return f"{value:.1f}"
    # Hex float literals round-trip exactly (C99 §6.4.4.2).
    return value.hex()


_SANITIZE = re.compile(r"[^0-9A-Za-z_]")


@dataclass(frozen=True)
class SegmentSpec:
    """Call interface of one emitted segment function."""

    name: str
    buffers: Tuple[str, ...]
    ranks: Tuple[int, ...]
    env_vars: Tuple[str, ...]
    #: ``(name, default)`` per slot: a caller-supplied value applies by
    #: name; otherwise each slot carries its own Param's default (two
    #: stages may share a name with different defaults).
    int_params: Tuple[Tuple[str, object], ...]
    float_params: Tuple[Tuple[str, object], ...]


@dataclass
class NestProgram:
    """A whole lowered nest compiled to C source plus its call plan.

    ``segment_for`` maps ``id(stmt)`` of a parallel-free subtree to the
    segment that executes it entirely; ``parallel_body`` maps ``id(for_stmt)``
    of a parallel ``For`` to the segment executing *one iteration* of its
    body (the loop variable arrives through ``env``).
    """

    source: str
    cdef: str
    segments: List[SegmentSpec]
    segment_for: Dict[int, SegmentSpec]
    parallel_body: Dict[int, SegmentSpec]


@dataclass
class _BufView:
    """How a buffer is addressed inside one segment."""

    ptr: str
    ctype: str
    dtype: DType
    dims: List[str]
    strides: List[str]

    @property
    def rank(self) -> int:
        return len(self.dims)


#: Integer bounds ``(lo, hi)`` of a value; ``None`` is unbounded.
_Range = Tuple[Optional[int], Optional[int]]
_UNBOUNDED: _Range = (None, None)


def _dtype_range(dtype: DType) -> _Range:
    """Value range of a narrow integer type."""
    if dtype.is_signed:
        return -(1 << (dtype.bits - 1)), (1 << (dtype.bits - 1)) - 1
    return 0, (1 << dtype.bits) - 1


def _value_range(expr, var_ranges: Mapping[str, _Range],
                 param_ranges: Mapping[str, _Range]) -> Optional[_Range]:
    """Integer bounds of a scalar index expression, for dropping index wraps.

    Understands constants, bound variables, store-local params, casts and
    ``+ - *`` / min / max; returns ``None`` for anything else (including
    every float-valued or global-parameter subexpression), which also
    poisons every enclosing operator.  Overflow is ignored, as the buffers
    that index values address are far smaller than 2**63.
    """
    if isinstance(expr, bool):
        return None
    if isinstance(expr, int):
        return expr, expr
    if isinstance(expr, Const):
        if isinstance(expr.value, float):
            return None
        return int(expr.value), int(expr.value)
    if isinstance(expr, Var):
        return var_ranges.get(expr.name, _UNBOUNDED)
    if isinstance(expr, Param):
        return param_ranges.get(expr.name)
    if isinstance(expr, Cast):
        if expr.dtype.is_float:
            return None
        inner = _value_range(expr.a, var_ranges, param_ranges)
        if expr.dtype.bits >= 64:
            return inner
        # a narrowing cast wraps into the type's range
        full = _dtype_range(expr.dtype)
        if inner is not None and None not in inner \
                and full[0] <= inner[0] and inner[1] <= full[1]:
            return inner
        return full
    if not isinstance(expr, BinOp) or expr.op not in (
            Op.ADD, Op.SUB, Op.MUL, Op.MIN, Op.MAX):
        return None
    a = _value_range(expr.a, var_ranges, param_ranges)
    b = _value_range(expr.b, var_ranges, param_ranges)
    if a is None or b is None:
        return None
    (alo, ahi), (blo, bhi) = a, b

    def known(*values):
        return all(v is not None for v in values)

    if expr.op == Op.ADD:
        return (alo + blo if known(alo, blo) else None,
                ahi + bhi if known(ahi, bhi) else None)
    if expr.op == Op.SUB:
        return (alo - bhi if known(alo, bhi) else None,
                ahi - blo if known(ahi, blo) else None)
    if expr.op == Op.MIN:
        his = [v for v in (ahi, bhi) if v is not None]
        return (min(alo, blo) if known(alo, blo) else None,
                min(his) if his else None)
    if expr.op == Op.MAX:
        los = [v for v in (alo, blo) if v is not None]
        return (max(los) if los else None,
                max(ahi, bhi) if known(ahi, bhi) else None)
    if known(alo, ahi, blo, bhi):
        products = [alo * blo, alo * bhi, ahi * blo, ahi * bhi]
        return min(products), max(products)
    return _UNBOUNDED


def _contains_parallel(stmt: Stmt) -> bool:
    return any(isinstance(node, For) and node.kind == "parallel" for node in stmt.walk())


def _stride_lines(view: _BufView) -> List[str]:
    """Row-major strides of a contiguous view, from its extents."""
    lines = []
    acc = "1"
    for a in range(view.rank - 1, -1, -1):
        lines.append(f"    const int64_t {view.strides[a]} = {acc};")
        acc = f"{view.strides[a]} * {view.dims[a]}"
    return lines


class _Emitter:
    """Emits one C function; owns its naming and slot bookkeeping.

    Buffer views are named ``b{slot}`` (extents ``b{slot}_d{axis}``, strides
    ``b{slot}_s{axis}``) and parameters ``ip{n}_*`` / ``fp{n}_*`` in first-use
    order; subclasses decide whether those arrive through the segment ABI's
    arrays or as kernel arguments.
    """

    def __init__(self, param_kinds: Mapping[str, str]):
        self.param_kinds = param_kinds
        self.lines: List[str] = []
        self.depth = 1
        self._counter = 0
        self._used_names: set = set()
        # name -> C identifier for loop/let variables bound inside the segment
        self.vars: Dict[str, str] = {}
        # buffer name -> view; insertion order defines the bufs[] slot order
        self.bufs: Dict[str, _BufView] = {}
        self.buf_order: List[str] = []
        # env / param slots, first-use ordered
        self.env_slots: Dict[str, str] = {}
        self.env_order: List[str] = []
        # (name, default) -> C identifier, first-use ordered
        self.iparam_slots: Dict[tuple, str] = {}
        self.iparam_order: List[tuple] = []
        self.fparam_slots: Dict[tuple, str] = {}
        self.fparam_order: List[tuple] = []
        # Store-local parameters (tile bases); scoped per Store
        self.local_params: Dict[str, str] = {}
        # restricted Var scope inside Store/ReduceLoop value expressions
        self.value_scope: Optional[Dict[str, str]] = None
        # known bounds of bound variables / store-local params
        self.var_ranges: Dict[str, _Range] = {}
        self.param_ranges: Dict[str, _Range] = {}

    # ------------------------------------------------------------------ util

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def _fresh(self, hint: str) -> str:
        base = _SANITIZE.sub("_", hint) or "v"
        name = base
        while name in self._used_names:
            self._counter += 1
            name = f"{base}_{self._counter}"
        self._used_names.add(name)
        return name

    def _temp(self, ctype: str, expr: str) -> str:
        self._counter += 1
        name = f"t{self._counter}"
        self.emit(f"{ctype} {name} = {expr};")
        return name

    # ---------------------------------------------------------------- slots

    def _view(self, buffer: str) -> _BufView:
        raise NotImplementedError

    def _add_view(self, buffer: str, dtype: DType, rank: int) -> _BufView:
        slot = len(self.buf_order)
        view = _BufView(
            ptr=f"b{slot}",
            ctype=_storage_ctype(dtype),
            dtype=dtype,
            dims=[f"b{slot}_d{a}" for a in range(rank)],
            strides=[f"b{slot}_s{a}" for a in range(rank)],
        )
        self.bufs[buffer] = view
        self.buf_order.append(buffer)
        return view

    def _env_var(self, name: str) -> str:
        ident = self.env_slots.get(name)
        if ident is None:
            ident = f"ev{len(self.env_order)}_{_SANITIZE.sub('_', name)}"
            self.env_slots[name] = ident
            self.env_order.append(name)
        return ident

    def _param(self, expr: Param) -> Tuple[str, str]:
        local = self.local_params.get(expr.name)
        if local is not None:
            return local, "i64"
        kind = self.param_kinds.get(expr.name)
        if kind is None:
            kind = "float" if isinstance(expr.value, float) else "int"
        return self._param_slot(expr.name, kind, expr.value)

    def _param_slot(self, name: str, kind: str, default) -> Tuple[str, str]:
        """The slot of Param ``name`` with this default (slots are keyed by
        both, so same-named Params with different defaults stay apart)."""
        key = (name, default)
        if kind == "float":
            ident = self.fparam_slots.get(key)
            if ident is None:
                ident = f"fp{len(self.fparam_order)}_{_SANITIZE.sub('_', name)}"
                self.fparam_slots[key] = ident
                self.fparam_order.append(key)
            return ident, "f64"
        ident = self.iparam_slots.get(key)
        if ident is None:
            ident = f"ip{len(self.iparam_order)}_{_SANITIZE.sub('_', name)}"
            self.iparam_slots[key] = ident
            self.iparam_order.append(key)
        return ident, "i64"

    def _range(self, value) -> _Range:
        """Bounds of an int64 scalar in the current scope."""
        return _value_range(value, self.var_ranges, self.param_ranges) \
            or _UNBOUNDED

    # ------------------------------------------------------------ expr emit

    def _as_i64(self, val: str, kind: str) -> str:
        if kind == "i64":
            return val
        return f"(int64_t)({val})"

    def _cast_kind(self, val: str, kind: str, target: str) -> str:
        if kind == target:
            return val
        return f"({_CTYPE[target]})({val})"

    def _expr(self, expr: Expr) -> Tuple[str, str]:
        """Emit ``expr``; returns ``(c_value, kind)`` with kind in _CTYPE."""
        if isinstance(expr, Const):
            if isinstance(expr.value, float):
                return _float_literal(expr.value), "f64"
            return _int_literal(expr.value), "i64"
        if isinstance(expr, Var):
            if self.value_scope is not None:
                ident = self.value_scope.get(expr.name)
                if ident is None:
                    raise CGenError(f"unbound variable {expr.name!r} in value expression")
                return ident, "i64"
            ident = self.vars.get(expr.name)
            if ident is None:
                ident = self._env_var(expr.name)
            return ident, "i64"
        if isinstance(expr, Param):
            return self._param(expr)
        if isinstance(expr, BufferAccess):
            return self._buffer_load(expr)
        if isinstance(expr, BinOp):
            return self._binop(expr)
        if isinstance(expr, UnOp):
            return self._unop(expr)
        if isinstance(expr, Cast):
            val, kind = self._expr(expr.a)
            return self._wrap_cast(val, kind, expr.dtype)
        if isinstance(expr, Select):
            cond, ck = self._expr(expr.cond)
            a, ak = self._expr(expr.if_true)
            b, bk = self._expr(expr.if_false)
            k = _promote(ak, bk)
            ct = _CTYPE[k]
            zero = "0.0" if ck != "i64" else "0"
            out = self._temp(ct, f"(({cond}) != {zero}) ? "
                                 f"({ct})({a}) : ({ct})({b})")
            return out, k
        if isinstance(expr, Call):
            return self._call(expr)
        raise CGenError(f"cannot emit expression node {type(expr).__name__}")

    def _buffer_load(self, expr: BufferAccess) -> Tuple[str, str]:
        view = self._view(expr.buffer)
        if len(expr.indices) != view.rank:
            raise CGenError(
                f"access to {expr.buffer!r} has {len(expr.indices)} indices, "
                f"buffer rank is {view.rank}")
        terms = []
        # indices are innermost-first: position p addresses numpy axis rank-1-p
        for position, index in enumerate(expr.indices):
            axis = view.rank - 1 - position
            val, kind = self._expr(index)
            idx = self._temp("int64_t", self._as_i64(val, kind))
            low = self._range(index)[0]
            if low is None or low < 0:
                # branchless numpy-style negative wrap: idx += dim when idx < 0
                idx = self._temp(
                    "int64_t", f"{idx} + (({idx} >> 63) & {view.dims[axis]})")
            terms.append(f"{idx} * {view.strides[axis]}")
        flat = self._temp("int64_t", " + ".join(terms) if terms else "0")
        raw = self._temp(view.ctype, f"{view.ptr}[{flat}]")
        if expr.dtype.is_float:
            return self._temp("double", f"(double){raw}"), "f64"
        return self._temp("int64_t", f"(int64_t){raw}"), "i64"

    def _binop(self, expr: BinOp) -> Tuple[str, str]:
        a, ak = self._expr(expr.a)
        b, bk = self._expr(expr.b)
        op = expr.op
        if op in (Op.ADD, Op.SUB, Op.MUL):
            k = _promote(ak, bk)
            if k == "i64":
                c_op = {Op.ADD: "+", Op.SUB: "-", Op.MUL: "*"}[op]
                out = self._temp(
                    "int64_t",
                    f"(int64_t)((uint64_t){a} {c_op} (uint64_t){b})")
                return out, "i64"
            ct = _CTYPE[k]
            ca = self._cast_kind(a, ak, k)
            cb = self._cast_kind(b, bk, k)
            return self._temp(ct, f"{ca} {op} {cb}"), k
        if op == Op.DIV:
            if expr.dtype.is_float:
                k = "f32" if (ak == "f32" and bk == "f32") else "f64"
                ct = _CTYPE[k]
                ca = self._cast_kind(a, ak, k)
                cb = self._cast_kind(b, bk, k)
                return self._temp(ct, f"{ca} / {cb}"), k
            return self._int_divmod(a, ak, b, bk, mod=False)
        if op == Op.MOD:
            return self._int_divmod(a, ak, b, bk, mod=True)
        if op in (Op.LT, Op.LE, Op.GT, Op.GE, Op.EQ, Op.NE):
            k = _promote(ak, bk)
            ca = self._cast_kind(a, ak, k)
            cb = self._cast_kind(b, bk, k)
            return self._temp("int64_t", f"(int64_t)({ca} {op} {cb})"), "i64"
        if op in (Op.SHR, Op.SAR):
            ia = self._as_i64(a, ak)
            ib = self._as_i64(b, bk)
            return self._temp("int64_t", f"({ia}) >> (({ib}) & 63)"), "i64"
        if op == Op.SHL:
            ia = self._as_i64(a, ak)
            ib = self._as_i64(b, bk)
            return self._temp(
                "int64_t",
                f"(int64_t)((uint64_t)({ia}) << (({ib}) & 63))"), "i64"
        if op in (Op.AND, Op.OR, Op.XOR):
            ia = self._as_i64(a, ak)
            ib = self._as_i64(b, bk)
            return self._temp("int64_t", f"({ia}) {op} ({ib})"), "i64"
        if op in (Op.MIN, Op.MAX):
            k = _promote(ak, bk)
            ca = self._cast_kind(a, ak, k)
            cb = self._cast_kind(b, bk, k)
            if k == "i64":
                cmp = "<" if op == Op.MIN else ">"
                ta = self._temp("int64_t", ca)
                tb = self._temp("int64_t", cb)
                return self._temp(
                    "int64_t", f"({ta} {cmp} {tb}) ? {ta} : {tb}"), "i64"
            fn = "rp_fmin" if op == Op.MIN else "rp_fmax"
            bits = "32" if k == "f32" else "64"
            return self._temp(_CTYPE[k], f"{fn}{bits}({ca}, {cb})"), k
        raise CGenError(f"cannot emit binary operator {op!r}")

    def _int_divmod(self, a: str, ak: str, b: str, bk: str, mod: bool) -> Tuple[str, str]:
        ta = self._temp("int64_t", self._as_i64(a, ak))
        tb = self._temp("int64_t", self._as_i64(b, bk))
        self.emit(f"if ({tb} == 0) {{ return 1; }}")
        self._counter += 1
        out = f"t{self._counter}"
        self.emit(f"int64_t {out};")
        if mod:
            # INT64_MIN % -1 is UB in C; the truncated remainder is always 0.
            self.emit(f"if ({tb} == -1) {{ {out} = 0; }} "
                      f"else {{ {out} = {ta} % {tb}; }}")
        else:
            # INT64_MIN / -1 is UB in C; wrap like the int64 negation does.
            self.emit(f"if ({tb} == -1) {{ {out} = (int64_t)(0 - (uint64_t){ta}); }} "
                      f"else {{ {out} = {ta} / {tb}; }}")
        return out, "i64"

    def _unop(self, expr: UnOp) -> Tuple[str, str]:
        a, ak = self._expr(expr.a)
        if expr.op == Op.NEG:
            if ak == "i64":
                return self._temp(
                    "int64_t", f"(int64_t)(0 - (uint64_t){a})"), "i64"
            return self._temp(_CTYPE[ak], f"-({a})"), ak
        if expr.op == Op.NOT:
            ia = self._as_i64(a, ak)
            return self._temp("int64_t", f"~({ia})"), "i64"
        if expr.op == Op.ABS:
            if ak == "i64":
                return self._temp(
                    "int64_t",
                    f"({a} < 0) ? (int64_t)(0 - (uint64_t){a}) : {a}"), "i64"
            fn = "fabsf" if ak == "f32" else "fabs"
            return self._temp(_CTYPE[ak], f"{fn}({a})"), ak
        raise CGenError(f"cannot emit unary operator {expr.op!r}")

    def _call(self, expr: Call) -> Tuple[str, str]:
        if expr.func == "round":
            a, ak = self._expr(expr.args[0])
            if ak == "f32":
                return self._temp("int64_t", f"(int64_t)rintf({a})"), "i64"
            ca = self._cast_kind(a, ak, "f64")
            return self._temp("int64_t", f"(int64_t)rint({ca})"), "i64"
        if expr.func in ("sqrt", "floor", "ceil"):
            a, ak = self._expr(expr.args[0])
            if ak == "f32":
                return self._temp("float", f"{expr.func}f({a})"), "f32"
            ca = self._cast_kind(a, ak, "f64")
            return self._temp("double", f"{expr.func}({ca})"), "f64"
        raise CGenError(f"cannot emit call to {expr.func!r}")

    def _wrap_cast(self, val: str, kind: str, dtype: DType) -> Tuple[str, str]:
        """``realize._wrap_cast`` semantics: wrap mod 2**bits with signed fix."""
        if dtype.is_float:
            k = "f32" if dtype.bits == 32 else "f64"
            return self._cast_kind(val, kind, k), k
        iv = self._as_i64(val, kind)
        bits = dtype.bits
        if bits == 64:
            if dtype.is_signed:
                return self._temp("int64_t", iv), "i64"
            return self._temp("int64_t", f"(int64_t)(uint64_t)({iv})"), "i64"
        if dtype.is_signed:
            out = f"(int64_t)(int{bits}_t)(uint{bits}_t)({iv})"
        else:
            out = f"(int64_t)(uint{bits}_t)({iv})"
        return self._temp("int64_t", out), "i64"

    # --------------------------------------------------------- scalar exprs

    def _scalar(self, value) -> str:
        """Emit a ``Scalar`` (int or Expr) as an int64 C value."""
        if isinstance(value, int) and not isinstance(value, bool):
            return _int_literal(value)
        val, kind = self._expr(value)
        return self._as_i64(val, kind)


class _SegmentEmitter(_Emitter):
    """Emits one exported segment function (the ABI in the module doc)."""

    def __init__(self, name: str, registry: Mapping[str, Tuple[DType, int]],
                 param_kinds: Mapping[str, str], kernels: "_NestGenerator"):
        super().__init__(param_kinds)
        self.name = name
        self.registry = registry
        self.kernels = kernels

    def _view(self, buffer: str) -> _BufView:
        view = self.bufs.get(buffer)
        if view is not None:
            return view
        entry = self.registry.get(buffer)
        if entry is None:
            raise CGenError(f"segment references unknown buffer {buffer!r}")
        return self._add_view(buffer, *entry)

    # ----------------------------------------------------------- stmt emit

    def _stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, Block):
            for child in stmt.stmts:
                self._stmt(child)
        elif isinstance(stmt, For):
            self._for(stmt)
        elif isinstance(stmt, Let):
            self._let(stmt)
        elif isinstance(stmt, Allocate):
            self._allocate(stmt)
        elif isinstance(stmt, ProducerConsumer):
            self.emit(f"/* produce {stmt.name} */")
            self._stmt(stmt.produce)
            self.emit(f"/* consume {stmt.name} */")
            self._stmt(stmt.consume)
        elif isinstance(stmt, IfThenElse):
            cond = self._temp("int64_t", self._scalar(stmt.condition))
            self.emit(f"if ({cond} != 0) {{")
            self.depth += 1
            self._stmt(stmt.then_case)
            self.depth -= 1
            if stmt.else_case is not None:
                self.emit("} else {")
                self.depth += 1
                self._stmt(stmt.else_case)
                self.depth -= 1
            self.emit("}")
        elif isinstance(stmt, Store):
            self._store(stmt)
        elif isinstance(stmt, ReduceLoop):
            self._reduce(stmt)
        elif isinstance(stmt, AccumMerge):
            self._merge(stmt)
        elif isinstance(stmt, PadEdge):
            self._pad_edge(stmt)
        else:
            raise CGenError(f"cannot emit statement node {type(stmt).__name__}")

    def _bound_body(self, name: str, ident: str, rng: _Range,
                    body: Stmt) -> None:
        """Emit ``body`` with ``name`` bound to the C variable ``ident``."""
        saved = self.vars.get(name), self.var_ranges.get(name)
        self.vars[name] = ident
        self.var_ranges[name] = rng
        self._stmt(body)
        for table, value in zip((self.vars, self.var_ranges), saved):
            if value is None:
                table.pop(name, None)
            else:
                table[name] = value

    def _for(self, stmt: For) -> None:
        self.emit("{")
        self.depth += 1
        mn = self._temp("int64_t", self._scalar(stmt.min))
        ext = self._temp("int64_t", self._scalar(stmt.extent))
        end = self._temp("int64_t", f"{mn} + {ext}")
        ident = self._fresh(f"v_{stmt.name}")
        self.emit(f"for (int64_t {ident} = {mn}; {ident} < {end}; ++{ident}) {{")
        self.depth += 1
        (lo, hi), (_, ext_hi) = self._range(stmt.min), self._range(stmt.extent)
        self._bound_body(stmt.name, ident, (
            lo, hi + ext_hi - 1 if hi is not None and ext_hi is not None
            else None), stmt.body)
        self.depth -= 1
        self.emit("}")
        self.depth -= 1
        self.emit("}")

    def _let(self, stmt: Let) -> None:
        self.emit("{")
        self.depth += 1
        ident = self._fresh(f"v_{stmt.name}")
        self.emit(f"int64_t {ident} = {self._scalar(stmt.value)};")
        self._bound_body(stmt.name, ident, self._range(stmt.value), stmt.body)
        self.depth -= 1
        self.emit("}")

    def _allocate(self, stmt: Allocate) -> None:
        self.emit(f"{{ /* allocate {stmt.buffer} */")
        self.depth += 1
        rank = len(stmt.extents)
        dims = [self._temp("int64_t", self._scalar(e)) for e in stmt.extents]
        elems = dims[0]
        for d in dims[1:]:
            elems = self._temp("int64_t", f"{elems} * {d}")
        ctype = _storage_ctype(stmt.dtype)
        ptr = self._fresh(f"a_{stmt.buffer}")
        self.emit(f"{ctype} * restrict {ptr} = "
                  f"({ctype} *)malloc((size_t){elems} * sizeof({ctype}));")
        self.emit(f"if (!{ptr}) {{ return 3; }}")
        if stmt.fill is not None:
            idx = self._fresh("fill_i")
            fill = (_float_literal(stmt.fill) if isinstance(stmt.fill, float)
                    else _int_literal(stmt.fill))
            self.emit(f"for (int64_t {idx} = 0; {idx} < {elems}; ++{idx}) "
                      f"{{ {ptr}[{idx}] = ({ctype})({fill}); }}")
        strides = [""] * rank
        acc = "1"
        for axis in range(rank - 1, -1, -1):
            strides[axis] = self._temp("int64_t", acc)
            acc = f"{strides[axis]} * {dims[axis]}"
        saved = self.bufs.get(stmt.buffer)
        self.bufs[stmt.buffer] = _BufView(
            ptr=ptr, ctype=ctype, dtype=stmt.dtype,
            dims=dims, strides=strides)
        self._stmt(stmt.body)
        if saved is None:
            self.bufs.pop(stmt.buffer, None)
        else:
            self.bufs[stmt.buffer] = saved
        self.emit(f"free({ptr});")
        self.depth -= 1
        self.emit("}")

    # ------------------------------------------------- Store / ReduceLoop

    def _store(self, stmt: Store) -> None:
        self.emit(f"{{ /* store {stmt.label or stmt.func.name} */")
        self.depth += 1
        # Param expressions are evaluated against the *outer* parameter scope
        # (mirrors base._exec_store); the kernel binds them as store-locals.
        values = [self._temp("int64_t", self._scalar(v))
                  for v in (*stmt.param_exprs.values(), *stmt.offset,
                            *stmt.extent, *stmt.eval_origin)]
        kernel = _KernelEmitter(self)
        kernel.store(stmt, [self._range(v) for v in stmt.param_exprs.values()],
                     [self._range(v) for v in stmt.eval_origin])
        self._call_kernel(kernel, values)
        self.depth -= 1
        self.emit("}")

    def _reduce(self, stmt: ReduceLoop) -> None:
        self.emit(f"{{ /* reduce {stmt.label or stmt.func.name} */")
        self.depth += 1
        # target index first, like base._exec_reduce
        scalars = [] if stmt.target_index is None else [stmt.target_index]
        values = [self._temp("int64_t", self._scalar(v))
                  for v in (*scalars, *stmt.source_origin,
                            *stmt.source_extent)]
        kernel = _KernelEmitter(self)
        kernel.reduce(stmt, [self._range(v) for v in stmt.source_origin])
        self._call_kernel(kernel, values)
        self.depth -= 1
        self.emit("}")

    def _call_kernel(self, kernel: "_KernelEmitter", values: List[str]) -> None:
        """Call ``kernel`` (interned by its text) with this segment's views."""
        name = self.kernels.intern(*kernel.finish())
        args: List[str] = []
        for buffer in kernel.buf_order:
            view = self._view(buffer)
            args.append(view.ptr)
            args.extend(view.dims)
        args.extend(values)
        for slots in (kernel.iparam_order, kernel.fparam_order):
            args.extend(self._param(kernel.param_exprs[key])[0]
                        for key in slots)
        rc = self._temp("int64_t", f"{name}({', '.join(args)})")
        self.emit(f"if ({rc} != 0) {{ return {rc}; }}")

    # --------------------------------------------------------- AccumMerge

    def _merge(self, stmt: AccumMerge) -> None:
        self.emit(f"{{ /* merge {stmt.label or stmt.target} */")
        self.depth += 1
        tview = self._view(stmt.target)
        sview = self._view(stmt.source)
        if sview.rank != tview.rank + 1:
            raise CGenError(
                f"merge source rank {sview.rank} != target rank {tview.rank} + 1")
        idx = self._temp("int64_t", self._scalar(stmt.index))
        sbase = self._temp("int64_t", f"{idx} * {sview.strides[0]}")
        elems = tview.dims[0] if tview.rank else "1"
        for d in tview.dims[1:]:
            elems = self._temp("int64_t", f"{elems} * {d}")
        i = self._fresh("m")
        self.emit(f"for (int64_t {i} = 0; {i} < {elems}; ++{i}) {{")
        self.depth += 1
        # slab.astype(target.dtype) then in-place add with target wraparound
        src = self._temp(tview.ctype, f"({tview.ctype}){sview.ptr}[{sbase} + {i}]")
        dst = f"{tview.ptr}[{i}]"
        if tview.dtype.is_float:
            self.emit(f"{dst} = {dst} + {src};")
        elif tview.dtype.bits == 64:
            self.emit(f"{dst} = ({tview.ctype})((uint64_t){dst} + (uint64_t){src});")
        else:
            self.emit(f"{dst} = ({tview.ctype})((int64_t){dst} + (int64_t){src});")
        self.depth -= 1
        self.emit("}")
        self.depth -= 1
        self.emit("}")

    # ----------------------------------------------------------- PadEdge

    def _pad_edge(self, stmt: PadEdge) -> None:
        self.emit(f"{{ /* pad_edge {stmt.buffer} */")
        self.depth += 1
        view = self._view(stmt.buffer)
        rank = view.rank
        offs = [self._temp("int64_t", self._scalar(v)) for v in stmt.offset]
        exts = [self._temp("int64_t", self._scalar(v)) for v in stmt.extent]

        def copy_loops(axis: int, lo: str, hi: str, src_term: str) -> None:
            """Rank-deep loops; ``axis`` runs [lo, hi), others full range."""
            self.emit("{")
            self.depth += 1
            idents: List[str] = []
            for a in range(rank):
                ident = self._fresh(f"p{a}")
                idents.append(ident)
                if a == axis:
                    self.emit(f"for (int64_t {ident} = {lo}; {ident} < {hi}; "
                              f"++{ident}) {{")
                else:
                    self.emit(f"for (int64_t {ident} = 0; {ident} < {view.dims[a]}; "
                              f"++{ident}) {{")
                self.depth += 1
            dst_terms = [f"{idents[a]} * {view.strides[a]}" for a in range(rank)]
            src_terms = list(dst_terms)
            src_terms[axis] = src_term
            dst = self._temp("int64_t", " + ".join(dst_terms))
            src = self._temp("int64_t", " + ".join(src_terms))
            self.emit(f"{view.ptr}[{dst}] = {view.ptr}[{src}];")
            for _ in range(rank):
                self.depth -= 1
                self.emit("}")
            self.depth -= 1
            self.emit("}")

        # Sequential per-axis replication: full-range inner loops copy
        # not-yet-padded ghosts on later axes, which those axes then fix —
        # exactly base._exec_pad_edge's corner propagation.
        for axis in range(rank):
            before = offs[axis]
            edge = self._temp("int64_t", f"{offs[axis]} + {exts[axis]}")
            self.emit(f"if ({before} > 0) {{")
            self.depth += 1
            copy_loops(axis, "0", before, f"{before} * {view.strides[axis]}")
            self.depth -= 1
            self.emit("}")
            self.emit(f"if ({view.dims[axis]} > {edge}) {{")
            self.depth += 1
            copy_loops(axis, edge, view.dims[axis],
                       f"({edge} - 1) * {view.strides[axis]}")
            self.depth -= 1
            self.emit("}")
        self.depth -= 1
        self.emit("}")

    # --------------------------------------------------------- assembly

    def finish(self) -> Tuple[str, SegmentSpec]:
        preamble: List[str] = [
            "    (void)bufs; (void)shapes; (void)env; "
            "(void)iparams; (void)fparams;",
        ]
        offset = 0
        ranks: List[int] = []
        for slot, name in enumerate(self.buf_order):
            view = self.bufs.get(name)
            # the view may have been popped if an Allocate shadowed it;
            # external views are never popped, and only external buffers
            # land in buf_order (Allocate views bypass _view()).
            assert view is not None and view.ptr == f"b{slot}"
            ranks.append(view.rank)
            preamble.append(
                f"    {view.ctype} * restrict b{slot} = "
                f"({view.ctype} *)bufs[{slot}];")
            for a in range(view.rank):
                preamble.append(
                    f"    const int64_t b{slot}_d{a} = shapes[{offset + a}];")
            preamble.extend(_stride_lines(view))
            offset += view.rank
        for name in self.env_order:
            ident = self.env_slots[name]
            preamble.append(
                f"    const int64_t {ident} = env[{self.env_order.index(name)}];")
        for index, key in enumerate(self.iparam_order):
            preamble.append(f"    const int64_t {self.iparam_slots[key]} = "
                            f"iparams[{index}];")
        for index, key in enumerate(self.fparam_order):
            preamble.append(f"    const double {self.fparam_slots[key]} = "
                            f"fparams[{index}];")
        header = (f"int64_t {self.name}(void **bufs, const int64_t *shapes, "
                  "const int64_t *env, const int64_t *iparams, "
                  "const double *fparams) {")
        text = "\n".join([header] + preamble + self.lines + ["    return 0;", "}"])
        spec = SegmentSpec(
            name=self.name,
            buffers=tuple(self.buf_order),
            ranks=tuple(ranks),
            env_vars=tuple(self.env_order),
            int_params=tuple(self.iparam_order),
            float_params=tuple(self.fparam_order),
        )
        return text, spec

    def serial_loop(self, stmt: For, body: SegmentSpec) -> None:
        """A parallel ``For``'s serial variant: call ``body`` per iteration.

        The body segment's buffer and parameter slots are claimed first, in
        its order, so ``bufs``/``shapes``/``iparams``/``fparams`` pass
        straight through; only its ``env`` is rebuilt per iteration.
        """
        for buffer in body.buffers:
            self._view(buffer)
        for slots, kind in ((body.int_params, "int"),
                            (body.float_params, "float")):
            for name, default in slots:
                self._param_slot(name, kind, default)
        self.emit("{")
        self.depth += 1
        mn = self._temp("int64_t", self._scalar(stmt.min))
        ext = self._temp("int64_t", self._scalar(stmt.extent))
        end = self._temp("int64_t", f"{mn} + {ext}")
        ident = self._fresh(f"v_{stmt.name}")
        env_values = [ident if name == stmt.name else self._env_var(name)
                      for name in body.env_vars]
        sub_env = "NULL"
        if env_values:
            sub_env = self._fresh("sub_env")
            self.emit(f"int64_t {sub_env}[{len(env_values)}];")
        self.emit(f"for (int64_t {ident} = {mn}; {ident} < {end}; ++{ident}) {{")
        self.depth += 1
        for index, value in enumerate(env_values):
            self.emit(f"{sub_env}[{index}] = {value};")
        rc = self._temp("int64_t", f"{body.name}(bufs, shapes, {sub_env}, "
                                   "iparams, fparams)")
        self.emit(f"if ({rc} != 0) {{ return {rc}; }}")
        self.depth -= 1
        self.emit("}")
        self.depth -= 1
        self.emit("}")


class _KernelEmitter(_Emitter):
    """Emits one ``Store`` / ``ReduceLoop`` region loop as a kernel function.

    Everything the loop reads arrives as an argument: each buffer view as
    its data pointer plus extents (in first-use order, the target first),
    the region scalars in the caller's evaluation order, then the pipeline
    parameters.  Names are local to the kernel, so two call sites of the
    same Func produce identical text and share one definition.
    """

    def __init__(self, caller: _SegmentEmitter):
        super().__init__(caller.param_kinds)
        self.caller = caller
        self.scalar_args: List[str] = []
        #: pipeline parameter slot -> the Param node the caller evaluates
        self.param_exprs: Dict[tuple, Param] = {}

    def _view(self, buffer: str) -> _BufView:
        view = self.bufs.get(buffer)
        if view is not None:
            return view
        outer = self.caller._view(buffer)
        return self._add_view(buffer, outer.dtype, outer.rank)

    def _env_var(self, name: str) -> str:
        raise CGenError(f"unbound variable {name!r} in kernel")

    def _param(self, expr: Param) -> Tuple[str, str]:
        if expr.name not in self.local_params:
            self.param_exprs.setdefault((expr.name, expr.value), expr)
        return super()._param(expr)

    def _args(self, prefix: str, count: int) -> List[str]:
        names = [f"{prefix}{index}" for index in range(count)]
        self.scalar_args.extend(names)
        self._used_names.update(names)
        return names

    def store(self, stmt: Store, local_ranges: List[_Range],
              origin_ranges: List[_Range]) -> None:
        """The region loop of ``stmt``; arguments mirror ``_SegmentEmitter._store``.

        The caller's bounds on the store-local params and the eval origin
        specialize the kernel: a load index known to be non-negative skips
        the negative wrap, which keeps the access affine (vectorizable).
        """
        func = stmt.func
        if func.value is None:
            raise CGenError(f"store of {func.name!r} has no pure definition")
        rank = len(stmt.extent)
        if rank == 0:
            raise CGenError("rank-0 store")
        view = self._view(stmt.buffer)
        if view.rank != rank:
            raise CGenError(
                f"store extent rank {rank} != buffer rank {view.rank} "
                f"for {stmt.buffer!r}")
        if len(func.variables) != rank:
            raise CGenError(
                f"func {func.name!r} has {len(func.variables)} variables, "
                f"store region rank is {rank}")
        self.local_params = dict(zip(stmt.param_exprs,
                                     self._args("lp", len(stmt.param_exprs))))
        self.param_ranges = dict(zip(stmt.param_exprs, local_ranges))
        offs = self._args("off", rank)
        exts = self._args("ext", rank)
        orgs = self._args("org", rank)
        guard = " && ".join(f"{e} > 0" for e in exts)
        self.emit(f"if (!({guard})) {{ return 0; }}")
        # coordinate = origin + a non-negative loop index
        self.var_ranges = {
            var.name: (origin_ranges[rank - 1 - position][0], None)
            for position, var in enumerate(func.variables)}
        width = vectorize_width(func.schedule)

        def body(loop_idx: List[str]) -> None:
            coords = [self._temp("int64_t", f"{orgs[a]} + {loop_idx[a]}")
                      for a in range(rank)]
            self.value_scope = {
                var.name: coords[rank - 1 - position]
                for position, var in enumerate(func.variables)}
            val, kind = self._expr(func.value)
            wrapped, _ = self._wrap_cast(val, kind, func.dtype)
            self.value_scope = None
            terms = [f"({offs[a]} + {loop_idx[a]}) * {view.strides[a]}"
                     for a in range(rank)]
            flat = self._temp("int64_t", " + ".join(terms))
            self.emit(f"{view.ptr}[{flat}] = ({view.ctype})({wrapped});")

        # serial loops over the outer axes, SIMD split on the innermost
        outer_idx: List[str] = []
        for a in range(rank - 1):
            ident = self._fresh(f"i{a}")
            self.emit(f"for (int64_t {ident} = 0; {ident} < {exts[a]}; ++{ident}) {{")
            self.depth += 1
            outer_idx.append(ident)
        last = rank - 1
        if width >= 2:
            iv = self._fresh("iv")
            lane = self._fresh("lane")
            self.emit(f"int64_t {iv} = 0;")
            self.emit(f"for (; {iv} + {width} <= {exts[last]}; {iv} += {width}) {{")
            self.depth += 1
            self.emit("#pragma GCC ivdep")
            self.emit(f"for (int64_t {lane} = 0; {lane} < {width}; ++{lane}) {{")
            self.depth += 1
            inner = self._temp("int64_t", f"{iv} + {lane}")
            body(outer_idx + [inner])
            self.depth -= 1
            self.emit("}")
            self.depth -= 1
            self.emit("}")
            tail = self._fresh("tail")
            self.emit(f"for (int64_t {tail} = {iv}; {tail} < {exts[last]}; ++{tail}) {{")
            self.depth += 1
            body(outer_idx + [tail])
            self.depth -= 1
            self.emit("}")
        else:
            ident = self._fresh(f"i{last}")
            self.emit(f"for (int64_t {ident} = 0; {ident} < {exts[last]}; ++{ident}) {{")
            self.depth += 1
            body(outer_idx + [ident])
            self.depth -= 1
            self.emit("}")
        for _ in range(rank - 1):
            self.depth -= 1
            self.emit("}")

    def reduce(self, stmt: ReduceLoop, origin_ranges: List[_Range]) -> None:
        """The update sweep of ``stmt``; arguments mirror ``_SegmentEmitter._reduce``."""
        func = stmt.func
        if func.reduction is None:
            raise CGenError(f"reduce loop over {func.name!r} without a reduction")
        rdom, index_exprs, update = func.reduction
        increment = _strip_self_reference(update, func.name)
        check_exprs = list(index_exprs) + [increment if increment is not None else update]
        for e in check_exprs:
            for node in e.walk():
                if isinstance(node, BufferAccess) and node.buffer == func.name:
                    raise CGenError(
                        f"reduction over {func.name!r} reads its own accumulator; "
                        "sequential C execution would diverge from np.add.at")
        n = len(stmt.source_extent)
        full = self._view(stmt.buffer)
        ti = self._args("ti", 1)[0] if stmt.target_index is not None else None
        orgs = self._args("org", n)
        exts = self._args("ext", n)
        guard = " && ".join(f"{e} > 0" for e in exts)
        self.emit(f"if (!({guard})) {{ return 0; }}")
        # the target slab: full[ti] for a partial accumulator, else full
        terms: List[str] = []
        slab = full
        if ti is not None:
            terms.append(self._temp("int64_t", f"{ti} * {full.strides[0]}"))
            slab = _BufView(ptr=full.ptr, ctype=full.ctype, dtype=full.dtype,
                            dims=list(full.dims[1:]),
                            strides=list(full.strides[1:]))
        rvars = rdom.vars()
        if len(rvars) != n:
            raise CGenError("reduction domain rank mismatch")
        if len(index_exprs) != slab.rank:
            raise CGenError(
                f"reduction writes {len(index_exprs)} indices, target rank "
                f"is {slab.rank}")
        # loop counters run over global source coordinates
        counters: List[str] = []
        for a in range(n):
            ident = self._fresh(f"c{a}")
            end = self._temp("int64_t", f"{orgs[a]} + {exts[a]}")
            self.emit(f"for (int64_t {ident} = {orgs[a]}; {ident} < {end}; ++{ident}) {{")
            self.depth += 1
            counters.append(ident)
        self.value_scope = {var.name: counters[n - 1 - position]
                            for position, var in enumerate(rvars)}
        self.var_ranges = {var.name: (origin_ranges[n - 1 - position][0], None)
                           for position, var in enumerate(rvars)}
        # np_index = reversed(indices): index_exprs[p] addresses target
        # numpy axis rank-1-p, with negative wrap then a bounds check
        # (np.add.at raises IndexError; we return rc 2).
        for position, index in enumerate(index_exprs):
            axis = slab.rank - 1 - position
            val, kind = self._expr(index)
            idx = self._temp("int64_t", self._as_i64(val, kind))
            wrapped = self._temp(
                "int64_t", f"{idx} + (({idx} >> 63) & {slab.dims[axis]})")
            self.emit(f"if ({wrapped} < 0 || {wrapped} >= {slab.dims[axis]}) "
                      "{ return 2; }")
            terms.append(f"{wrapped} * {slab.strides[axis]}")
        flat = self._temp("int64_t", " + ".join(terms) if terms else "0")
        sto = slab.ctype
        if increment is not None:
            # np.add.at: cast the increment to the accumulator dtype first,
            # then accumulate with accumulator-dtype wraparound.
            val, kind = self._expr(increment)
            inc = self._temp(sto, f"({sto})({self._as_i64(val, kind) if func.dtype.is_integer else val})")
            if func.dtype.is_float:
                self.emit(f"{slab.ptr}[{flat}] = {slab.ptr}[{flat}] + {inc};")
            elif func.dtype.bits == 64:
                self.emit(f"{slab.ptr}[{flat}] = ({sto})((uint64_t){slab.ptr}[{flat}] "
                          f"+ (uint64_t){inc});")
            else:
                # widen to int64 for the add to dodge narrow signed-overflow
                # UB; the cast back wraps exactly like the NumPy accumulator.
                self.emit(f"{slab.ptr}[{flat}] = ({sto})((int64_t){slab.ptr}[{flat}] "
                          f"+ (int64_t){inc});")
        else:
            val, kind = self._expr(update)
            wrapped, _ = self._wrap_cast(val, kind, func.dtype)
            self.emit(f"{slab.ptr}[{flat}] = ({sto})({wrapped});")
        self.value_scope = None
        for _ in range(n):
            self.depth -= 1
            self.emit("}")

    def finish(self) -> Tuple[str, str]:
        """``(parameter list, body)`` of the kernel; the name is the table's."""
        params: List[str] = []
        prologue: List[str] = []
        for name in self.buf_order:
            view = self.bufs[name]
            params.append(f"{view.ctype} * restrict {view.ptr}")
            params.extend(f"int64_t {dim}" for dim in view.dims)
            prologue.extend(_stride_lines(view))
        params.extend(f"int64_t {arg}" for arg in self.scalar_args)
        params.extend(f"int64_t {self.iparam_slots[n]}" for n in self.iparam_order)
        params.extend(f"double {self.fparam_slots[n]}" for n in self.fparam_order)
        return ", ".join(params), "\n".join(prologue + self.lines)



_PRELUDE = """\
#include <stdint.h>
#include <stdlib.h>
#include <math.h>

/* NaN-propagating min/max matching np.minimum / np.maximum. */
static inline float rp_fmin32(float a, float b) {
    return (a != a) ? a : ((b != b) ? b : ((a < b) ? a : b));
}
static inline float rp_fmax32(float a, float b) {
    return (a != a) ? a : ((b != b) ? b : ((a > b) ? a : b));
}
static inline double rp_fmin64(double a, double b) {
    return (a != a) ? a : ((b != b) ? b : ((a < b) ? a : b));
}
static inline double rp_fmax64(double a, double b) {
    return (a != a) ? a : ((b != b) ? b : ((a > b) ? a : b));
}
"""


class _NestGenerator:
    def __init__(self, lowered, frame_dtype: DType,
                 param_kinds: Mapping[str, str]):
        self.lowered = lowered
        self.param_kinds = dict(param_kinds)
        self.functions: List[str] = []
        self.segments: List[SegmentSpec] = []
        self.segment_for: Dict[int, SegmentSpec] = {}
        self.parallel_body: Dict[int, SegmentSpec] = {}
        frame_rank = len(lowered.frame_shape)
        self.registry: Dict[str, Tuple[DType, int]] = {
            lowered.input_name: (frame_dtype, frame_rank),
            lowered.output: (lowered.out_dtype, frame_rank),
        }
        for node in lowered.stmt.walk():
            if isinstance(node, Allocate):
                self.registry[node.buffer] = (node.dtype, len(node.extents))
        #: (parameter list, body) -> kernel name
        self.kernels: Dict[Tuple[str, str], str] = {}

    def intern(self, params: str, body: str) -> str:
        """The kernel with this text, emitted on first sight."""
        name = self.kernels.get((params, body))
        if name is None:
            name = f"rp_k{len(self.kernels)}"
            self.kernels[(params, body)] = name
            self.functions.append(
                f"static int64_t {name}({params}) {{\n{body}\n    return 0;\n}}")
        return name

    def _emit_segment(self, stmt: Stmt,
                      serial_body: Optional[SegmentSpec] = None) -> SegmentSpec:
        name = f"rp_seg{len(self.segments)}"
        emitter = _SegmentEmitter(name, self.registry, self.param_kinds, self)
        if serial_body is not None:
            emitter.serial_loop(stmt, serial_body)
        else:
            emitter._stmt(stmt)
        text, spec = emitter.finish()
        self.functions.append(text)
        self.segments.append(spec)
        return spec

    def _plan(self, stmt: Stmt) -> None:
        if not _contains_parallel(stmt):
            self.segment_for[id(stmt)] = self._emit_segment(stmt)
            return
        if isinstance(stmt, Block):
            for child in stmt.stmts:
                self._plan(child)
        elif isinstance(stmt, Let):
            self._plan(stmt.body)
        elif isinstance(stmt, Allocate):
            self._plan(stmt.body)
        elif isinstance(stmt, ProducerConsumer):
            self._plan(stmt.produce)
            self._plan(stmt.consume)
        elif isinstance(stmt, IfThenElse):
            self._plan(stmt.then_case)
            if stmt.else_case is not None:
                self._plan(stmt.else_case)
        elif isinstance(stmt, For):
            if stmt.kind == "parallel" and not _contains_parallel(stmt.body):
                # one segment per iteration; the serial fallback loops over it
                body = self._emit_segment(stmt.body)
                self.parallel_body[id(stmt)] = body
                self.segment_for[id(stmt)] = self._emit_segment(stmt, body)
            elif stmt.kind == "parallel":
                # serial fallback: the whole loop as one segment (parallel
                # loops inside are emitted as plain C for loops)
                self.segment_for[id(stmt)] = self._emit_segment(stmt)
                self._plan(stmt.body)
            else:
                self._plan(stmt.body)
        else:
            raise CGenError(
                f"parallel loop nested inside {type(stmt).__name__}")

    def generate(self) -> NestProgram:
        self._plan(self.lowered.stmt)
        source = _PRELUDE + "\n" + "\n\n".join(self.functions) + "\n"
        cdef = "\n".join(
            f"int64_t {seg.name}(void **bufs, const int64_t *shapes, "
            "const int64_t *env, const int64_t *iparams, "
            "const double *fparams);"
            for seg in self.segments)
        return NestProgram(
            source=source,
            cdef=cdef,
            segments=self.segments,
            segment_for=self.segment_for,
            parallel_body=self.parallel_body,
        )


def generate_nest(lowered, frame_dtype: DType,
                  param_kinds: Optional[Mapping[str, str]] = None) -> NestProgram:
    """Compile a :class:`LoweredPipeline`'s nest to a C translation unit.

    ``frame_dtype`` is the input frame's element type; ``param_kinds`` maps
    parameter names to ``"int"``/``"float"`` (defaults inferred from each
    ``Param`` node's default value when absent).  Raises :class:`CGenError`
    when the nest contains anything the emitter cannot translate — callers
    degrade to the compiled-NumPy backend.
    """
    return _NestGenerator(lowered, frame_dtype, param_kinds or {}).generate()
