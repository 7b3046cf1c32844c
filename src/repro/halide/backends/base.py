"""The backend interface and the shared lowered-IR executor.

A backend supplies two primitives:

* :meth:`Backend.realize_func` — whole-Func realization (the single-Func
  entry point used by :func:`repro.halide.realize.realize`, including
  reductions);
* :meth:`Backend.evaluate_region` — evaluate a *pure* Func vectorized over
  one rectangular region (NumPy axis order), the primitive behind every
  lowered :class:`~repro.ir.stmt.Store`.

Everything else about executing a lowered pipeline — running the loop nest,
allocating scratch buffers, branching between interior and border stores,
edge-replicating ghost zones, fanning parallel loops out across the shared
worker pool — is backend-independent and lives in :meth:`Backend.execute`,
which compiles each nest once into a tree of closures.
That keeps the engines honest: the interpreter and the compiled engine run
the *same* loop nest with the same bounds, so a differential test that
compares them exercises the lowering itself, not two unrelated schedules.
"""

from __future__ import annotations

import math
import threading
from dataclasses import replace
from typing import Mapping, Optional

import numpy as np

from ...ir import (
    AccumMerge,
    Allocate,
    Block,
    For,
    IfThenElse,
    Let,
    PadEdge,
    ProducerConsumer,
    ReduceLoop,
    Stmt,
    Store,
)
from ...ir import BinOp, Const, Op, Param, UnOp, Var
from ..parallel import choose_tile_executor, record_execution, submit_task
from ..realize import RealizationError, _evaluate

_SCALAR_OPS = {
    Op.ADD: "({} + {})", Op.SUB: "({} - {})", Op.MUL: "({} * {})",
    Op.MIN: "min({}, {})", Op.MAX: "max({}, {})",
    Op.AND: "({} & {})", Op.OR: "({} | {})",
    Op.LT: "int({} < {})", Op.LE: "int({} <= {})", Op.GT: "int({} > {})",
    Op.GE: "int({} >= {})", Op.EQ: "int({} == {})", Op.NE: "int({} != {})",
}


class _ScalarCode:
    """Loop-nest scalars compiled to one Python function over ``env``/``params``.

    Region origins and extents, loop bounds and branch conditions are
    re-evaluated for every tile, so each group of them compiles once, when
    its nest is planned, instead of being re-walked as an expression tree.
    Nodes outside the integer vocabulary evaluate through the interpreter.
    """

    def __init__(self) -> None:
        self.exprs: list = []

    def atom(self, value) -> str:
        kind = type(value)
        if kind is int:
            return repr(value)
        if kind is Const:
            return repr(int(value.value))
        if kind is Var:
            return f"env[{value.name!r}]"
        if kind is Param:
            return f"int(params.get({value.name!r}, {value.value!r}))"
        if kind is BinOp and value.op in _SCALAR_OPS:
            return _SCALAR_OPS[value.op].format(self.atom(value.a),
                                                self.atom(value.b))
        if kind is UnOp and value.op == Op.NEG:
            return f"(-{self.atom(value.a)})"
        self.exprs.append(value)
        return (f"int(_evaluate(_exprs[{len(self.exprs) - 1}], env, {{}}, "
                "params))")

    def compile(self, lines: list[str]):
        body = "".join(f"        {line}\n" for line in lines)
        namespace = {"_exprs": self.exprs, "_evaluate": _evaluate,
                     "RealizationError": RealizationError}
        exec("def fn(env, params):\n    try:\n" + body +
             "    except KeyError as error:\n"
             "        raise RealizationError(\n"
             "            f'unbound loop variable {error.args[0]}') from None\n",
             namespace)
        return namespace["fn"]


def _scalar_fn(value):
    """A compiled ``fn(env, params) -> int`` for one loop-nest scalar."""
    code = _ScalarCode()
    return code.compile([f"return {code.atom(value)}"])


def _bind_fn(bindings: list):
    """``fn(env, params)`` binding a chain of ``(name, scalar)`` Lets."""
    code = _ScalarCode()
    return code.compile([f"env[{name!r}] = {code.atom(value)}"
                         for name, value in bindings])


def _store_scalars(stmt):
    """``fn(env, params) -> (region, extent, eval_origin)`` for one Store,
    or None when the region is empty; ``region`` is the destination's slice
    tuple."""
    code = _ScalarCode()
    rank = len(stmt.extent)
    lines = [f"_e{axis} = {code.atom(value)}"
             for axis, value in enumerate(stmt.extent)]
    if rank:
        lines.append("if " + " or ".join(f"_e{axis} <= 0"
                                         for axis in range(rank))
                     + ": return None")
    lines += [f"_o{axis} = {code.atom(value)}"
              for axis, value in enumerate(stmt.offset)]
    region = "".join(f"slice(_o{axis}, _o{axis} + _e{axis}), "
                     for axis in range(rank))
    extents = "".join(f"_e{axis}, " for axis in range(rank))
    origins = "".join(f"{code.atom(value)}, " for value in stmt.eval_origin)
    lines.append(f"return ({region}), ({extents}), ({origins})")
    return code.compile(lines)


def _one_clamped_store(stmt: IfThenElse) -> Optional[Store]:
    """A split region's border branch as one clamped store, or None.

    The lowering guards a region whose taps may leave the input with a
    whole-region interior store; the else branch splits the region into
    clamped border slabs plus an interior store.  A clamped tap reads what
    the interior tap reads wherever that one is in range, so one clamped
    store over the whole region computes the same block in one kernel call
    instead of up to ``2 * rank + 1``.
    """
    whole, pieces = stmt.then_case, stmt.else_case
    if type(whole) is not Store or whole.label != "interior-whole" \
            or type(pieces) is not Block:
        return None
    for piece in pieces.stmts:
        if type(piece) is Store and piece.label.startswith("border-"):
            return replace(whole, func=piece.func, label="border-whole")
    return None


class _ExecState:
    """Per-execution bookkeeping shared by a nest's runners."""

    __slots__ = ("params", "stats", "frame_shape", "lock")

    def __init__(self, params: dict, stats: dict, frame_shape: tuple) -> None:
        self.params = params
        self.stats = stats
        self.frame_shape = frame_shape
        self.lock = threading.Lock()

    def tally(self, key: str, amount: int = 1) -> None:
        with self.lock:
            self.stats[key] = self.stats.get(key, 0) + amount

    def track_scratch(self, name: str, shape: tuple[int, ...]) -> None:
        elems = math.prod(shape)
        with self.lock:
            peak = self.stats.get("scratch_peak_elems", 0)
            if elems > peak:
                self.stats["scratch_peak_elems"] = elems
            shapes = self.stats.setdefault("scratch_shapes", {})
            previous = shapes.get(name)
            if previous is None or elems > math.prod(previous):
                shapes[name] = tuple(shape)


class Backend:
    """Interface every execution engine implements."""

    name: str = ""
    #: Largest tile (in elements) whose slabs-plus-interior branch runs as
    #: one clamped store (:func:`_one_clamped_store`); 0 keeps the slabs.
    merge_border_elems: int = 0

    # -- primitives ----------------------------------------------------------

    def realize_func(self, func, shape: tuple[int, ...],
                     buffers: Mapping[str, np.ndarray],
                     params: Mapping[str, float]) -> np.ndarray:
        """Realize one Func over its output domain (innermost-first shape)."""
        raise NotImplementedError

    def evaluate_region(self, func, origin: tuple[int, ...],
                        extent: tuple[int, ...],
                        buffers: Mapping[str, np.ndarray],
                        params: Mapping[str, float]) -> np.ndarray:
        """Evaluate a pure Func over one region (NumPy axis order)."""
        raise NotImplementedError

    def reduce_region(self, func, out: np.ndarray, origin: tuple[int, ...],
                      extent: tuple[int, ...],
                      buffers: Mapping[str, np.ndarray],
                      params: Mapping[str, float]) -> np.ndarray:
        """Apply ``func``'s reduction update over one RDom sub-region.

        ``origin``/``extent`` restrict the sweep to a rectangle of the
        reduction source (NumPy axis order, global coordinates); the update
        mutates ``out`` in place.  The primitive behind every lowered
        :class:`~repro.ir.stmt.ReduceLoop`.
        """
        raise NotImplementedError

    def region_evaluator(self, func):
        """A reusable ``fn(origin, extent, buffers, params, out)`` for one
        Func, writing the region's block into ``out`` (a view of the
        Store's destination).

        Backends that pay a per-call lookup (the compiled kernel cache key)
        override this to resolve it once; a nest's plan resolves it on the
        Store's first run.
        """
        def evaluate(origin, extent, buffers, params, out):
            out[...] = self.evaluate_region(func, origin, extent, buffers,
                                            params)
        return evaluate

    def region_reducer(self, func):
        """A reusable ``fn(out, origin, extent, buffers, params)`` for one
        reduction Func (the :meth:`region_evaluator` analogue for
        :class:`~repro.ir.stmt.ReduceLoop` nodes)."""
        def reduce(out, origin, extent, buffers, params):
            return self.reduce_region(func, out, origin, extent, buffers,
                                      params)
        return reduce

    # -- lowered-IR execution ------------------------------------------------

    def execute(self, lowered, image: np.ndarray,
                params: Mapping[str, float] | None = None,
                stats: Optional[dict] = None) -> np.ndarray:
        """Run a :class:`~repro.halide.lower.LoweredPipeline` on one frame.

        ``stats``, when given, is filled with execution counters: stores,
        allocations, per-buffer peak scratch shapes, ``scratch_peak_elems``
        and parallel/serial loop tallies — the numbers the locality
        benchmark and ``--explain`` report.
        """
        frame = np.asarray(image)
        if frame.shape != lowered.frame_shape:
            raise RealizationError(
                f"lowered pipeline expects frame {lowered.frame_shape}, "
                f"got {frame.shape}")
        runner = lowered.plans.get(self.name)
        if runner is None:
            runner = self._compile(lowered.stmt)
            lowered.plans[self.name] = runner
        buffers: dict[str, np.ndarray] = {lowered.input_name: frame}
        output = np.empty(lowered.frame_shape,
                          dtype=lowered.out_dtype.to_numpy())
        buffers[lowered.output] = output
        state = _ExecState(params=dict(params or {}),
                           stats=stats if stats is not None else {},
                           frame_shape=lowered.frame_shape)
        runner({}, buffers, state)
        return output

    # -- planning: one closure per statement, compiled once per nest ---------

    def _compile(self, stmt: Stmt, program=None):
        """A runner ``run(env, buffers, state)`` executing ``stmt``.

        Every scalar the nest evaluates per tile (Let chains, loop bounds,
        store regions) is compiled to Python up front, so running a tile
        costs closure calls, not a tree walk.  ``program`` is threaded
        through for backends (native) that substitute whole subtrees.
        """
        compile_node = getattr(self, _PLANNERS.get(type(stmt), ""), None)
        if compile_node is None:
            raise RealizationError(f"cannot execute {type(stmt).__name__}")
        return compile_node(stmt, program)

    def _compile_let(self, stmt: Let, program):
        # A chain of Lets (a tile's region bounds) binds in one call.
        bindings = []
        while type(stmt) is Let:
            bindings.append((stmt.name, stmt.value))
            stmt = stmt.body
        bind = _bind_fn(bindings)
        body = self._compile(stmt, program)

        def run(env, buffers, state):
            bind(env, state.params)
            body(env, buffers, state)
        return run

    def _compile_block(self, stmt: Block, program):
        return self._sequence(stmt.stmts, program)

    def _compile_produce_consume(self, stmt: ProducerConsumer, program):
        return self._sequence((stmt.produce, stmt.consume), program)

    def _sequence(self, stmts, program):
        runners = tuple(self._compile(inner, program) for inner in stmts)

        def run(env, buffers, state):
            for runner in runners:
                runner(env, buffers, state)
        return run

    def _compile_for(self, stmt: For, program):
        body = self._compile(stmt.body, program)
        return self._loop(stmt, body, body)

    def _loop(self, stmt: For, iteration, serial):
        """The runner of a ``For``.

        A parallel loop fans ``iteration(env, ...)`` out across the pool
        when the heuristic agrees (and ``iteration`` exists); otherwise
        ``serial`` runs it — the whole loop at once when it is not
        ``iteration`` itself, else one call per index.
        """
        start_fn, count_fn = _scalar_fn(stmt.min), _scalar_fn(stmt.extent)
        name, parallel = stmt.name, stmt.kind == "parallel"

        def run(env, buffers, state):
            start = start_fn(env, state.params)
            count = count_fn(env, state.params)
            if count <= 0:
                return
            if parallel:
                # Iterations write disjoint regions (the lowering's
                # contract), so fan-out order cannot change results.  Each
                # iteration gets its own buffer scope: scratch allocated
                # inside the body stays thread-private, while the shared
                # full-frame arrays are reached through the same references.
                if iteration is not None \
                        and choose_tile_executor(state.frame_shape, count):
                    futures = [
                        submit_task(iteration, {**env, name: start + index},
                                    dict(buffers), state)
                        for index in range(count)]
                    for future in futures:
                        future.result()
                    record_execution(True, count)
                    state.tally("parallel_loops")
                    return
                record_execution(False, count)
                state.tally("serial_loops")
                if serial is not iteration:
                    serial(env, buffers, state)
                    return
            iter_env = dict(env)
            for index in range(start, start + count):
                iter_env[name] = index
                iteration(iter_env, buffers, state)
        return run

    def _compile_allocate(self, stmt: Allocate, program):
        extent_fns = [_scalar_fn(extent) for extent in stmt.extents]
        dtype, fill, name = stmt.dtype.to_numpy(), stmt.fill, stmt.buffer
        body = self._compile(stmt.body, program)

        def run(env, buffers, state):
            extents = tuple(fn(env, state.params) for fn in extent_fns)
            buffers[name] = np.empty(extents, dtype=dtype) if fill is None \
                else np.full(extents, fill, dtype=dtype)
            state.tally("allocations")
            state.track_scratch(name, extents)
            try:
                body(env, buffers, state)
            finally:
                del buffers[name]
        return run

    def _compile_if(self, stmt: IfThenElse, program):
        condition = _scalar_fn(stmt.condition)
        then_case = self._compile(stmt.then_case, program)
        else_case = None if stmt.else_case is None \
            else self._compile(stmt.else_case, program)
        merged = _one_clamped_store(stmt) if self.merge_border_elems else None
        if merged is not None:
            one_store = self._compile(merged, program)
            slabs, limit = else_case, self.merge_border_elems
            code = _ScalarCode()
            area = code.compile(["return " + " * ".join(
                code.atom(extent) for extent in merged.extent)])

            def else_case(env, buffers, state):
                if area(env, state.params) <= limit:
                    one_store(env, buffers, state)
                else:
                    slabs(env, buffers, state)

        def run(env, buffers, state):
            if condition(env, state.params) != 0:
                then_case(env, buffers, state)
            elif else_case is not None:
                else_case(env, buffers, state)
        return run

    def _compile_store(self, stmt: Store, program):
        scalars = _store_scalars(stmt)
        param_fns = {name: _scalar_fn(value)
                     for name, value in stmt.param_exprs.items()}
        func, target_name = stmt.func, stmt.buffer
        evaluator: list = []           # resolved on first use

        def run(env, buffers, state):
            params = state.params
            scalar_values = scalars(env, params)
            if scalar_values is None:
                return
            region, extent, origin = scalar_values
            if param_fns:
                params = dict(params)
                for name, fn in param_fns.items():
                    params[name] = fn(env, state.params)
            target = buffers.get(target_name)
            if target is None:
                raise RealizationError(f"no buffer {target_name} to store into")
            if not evaluator:
                evaluator.append(self.region_evaluator(func))
            evaluator[0](origin, extent, buffers, params, target[region])
            state.tally("stores")
        return run

    def _compile_reduce(self, stmt: ReduceLoop, program):
        index_fn = None if stmt.target_index is None \
            else _scalar_fn(stmt.target_index)
        origin_fns = [_scalar_fn(o) for o in stmt.source_origin]
        extent_fns = [_scalar_fn(e) for e in stmt.source_extent]
        func, target_name = stmt.func, stmt.buffer
        reducer: list = []             # resolved on first use

        def run(env, buffers, state):
            params = state.params
            target = buffers.get(target_name)
            if target is None:
                raise RealizationError(
                    f"no buffer {target_name} to reduce into")
            if index_fn is not None:
                target = target[index_fn(env, params)]
            origin = tuple(fn(env, params) for fn in origin_fns)
            extent = tuple(fn(env, params) for fn in extent_fns)
            if any(e <= 0 for e in extent):
                return
            if not reducer:
                reducer.append(self.region_reducer(func))
            reducer[0](target, origin, extent, buffers, params)
            state.tally("reduce_sweeps")
        return run

    def _compile_merge(self, stmt: AccumMerge, program):
        index_fn = _scalar_fn(stmt.index)

        def run(env, buffers, state):
            target = buffers.get(stmt.target)
            source = buffers.get(stmt.source)
            if target is None or source is None:
                raise RealizationError(
                    f"no buffers {stmt.target}/{stmt.source} to merge")
            slab = source[index_fn(env, state.params)]
            np.add(target, slab.astype(target.dtype, copy=False), out=target)
            state.tally("merges")
        return run

    def _compile_pad_edge(self, stmt: PadEdge, program):
        offset_fns = [_scalar_fn(o) for o in stmt.offset]
        extent_fns = [_scalar_fn(e) for e in stmt.extent]
        name = stmt.buffer

        def run(env, buffers, state):
            array = buffers.get(name)
            if array is None:
                raise RealizationError(f"no buffer {name} to pad")
            padded = False
            for axis, size in enumerate(array.shape):
                before = offset_fns[axis](env, state.params)
                edge = before + extent_fns[axis](env, state.params)
                lead = (slice(None),) * axis
                if before > 0:
                    array[lead + (slice(0, before),)] = \
                        array[lead + (slice(before, before + 1),)]
                    padded = True
                if edge < size:
                    array[lead + (slice(edge, size),)] = \
                        array[lead + (slice(edge - 1, edge),)]
                    padded = True
            if padded:
                state.tally("ghost_pads")
        return run


#: Statement type -> planning method.
_PLANNERS = {
    Let: "_compile_let",
    Block: "_compile_block",
    For: "_compile_for",
    Allocate: "_compile_allocate",
    ProducerConsumer: "_compile_produce_consume",
    IfThenElse: "_compile_if",
    Store: "_compile_store",
    ReduceLoop: "_compile_reduce",
    AccumMerge: "_compile_merge",
    PadEdge: "_compile_pad_edge",
}
