"""Multicore tile execution for compiled kernels.

The compiled backend (:mod:`repro.halide.compile`) decomposes a tiled pure
Func into independent output tiles; this module runs those tiles across a
process-wide :class:`~concurrent.futures.ThreadPoolExecutor`.  NumPy ufuncs
release the GIL for the array work that dominates each tile, so threads scale
on multicore hardware without the pickling restrictions a process pool would
impose on dynamically ``compile()``-d kernel bodies (the generated ``_body``
closures are not picklable, which is why the pool is thread-based).

Whether a given realization actually fans out is a per-call decision made by
:func:`choose_tile_executor`, a cost heuristic over the output extents and the
pool size — tiny outputs stay serial because submit/join overhead would exceed
the tile work.  Workers never re-submit to the pool (nested realizations —
e.g. a kernel realized inside a :class:`~repro.halide.serve.PipelineServer`
request — run their tiles serially), so the shared pool cannot deadlock on
itself.

Every realization records its real execution mode in :data:`execution_stats`;
schedules that request ``parallel`` but cannot be honoured (untiled pure
funcs, non-associative reductions, rank < 2) emit a
:class:`ParallelFallbackWarning` once per kernel signature at compile time.
Associative reductions parallelize through :func:`run_reduction_strips` —
private partial accumulators per RDom strip, merged serially.
"""

from __future__ import annotations

import os
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..reliability.faults import fault_fires, fault_point
from ..reliability.policy import TransientExecutionError

#: Thread-name prefix identifying the shared pool's workers; used to detect
#: (and serialize) nested parallelism instead of deadlocking the pool.
_WORKER_PREFIX = "repro-halide-worker"

#: Below this many total output elements a tiled realization stays serial:
#: submit/join overhead beats the per-tile NumPy work.
MIN_PARALLEL_ELEMS = 1 << 16

_pool: ThreadPoolExecutor | None = None
_pool_workers: int | None = None
_pool_lock = threading.Lock()

_stats_lock = threading.Lock()

#: Real execution modes observed at run time (not what schedules *request*):
#: ``parallel`` / ``serial`` count whole-kernel realizations routed through
#: the tiled executor; ``tiles_parallel`` / ``tiles_serial`` count the tiles
#: those realizations executed.  ``serial`` includes heuristic rejections and
#: nested (in-worker) realizations.
execution_stats = {"parallel": 0, "serial": 0,
                   "tiles_parallel": 0, "tiles_serial": 0,
                   "tile_retries": 0, "pool_revived": 0}


class ParallelFallbackWarning(UserWarning):
    """A schedule requested ``parallel`` but the kernel will run serially."""


def reset_execution_stats() -> None:
    """Zero :data:`execution_stats` (test/benchmark bookkeeping)."""
    with _stats_lock:
        for key in execution_stats:
            execution_stats[key] = 0


def default_workers() -> int:
    """Worker count for the shared pool.

    ``REPRO_NUM_THREADS`` overrides; otherwise every available core is used.
    """
    env = os.environ.get("REPRO_NUM_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return max(1, os.cpu_count() or 1)


def configure_pool(workers: int | None = None) -> int:
    """(Re)create the shared pool with ``workers`` threads; returns the size.

    Passing ``None`` re-reads :func:`default_workers`.  Any previously
    submitted work is drained before the old pool is discarded.
    """
    global _pool, _pool_workers
    if in_worker():
        # shutdown(wait=True) on the old pool would wait for the calling
        # worker's own task — a guaranteed deadlock.
        raise RuntimeError("configure_pool cannot be called from a pool worker")
    size = default_workers() if workers is None else max(1, int(workers))
    with _pool_lock:
        old = _pool
        _pool = ThreadPoolExecutor(max_workers=size,
                                   thread_name_prefix=_WORKER_PREFIX)
        _pool_workers = size
    if old is not None:
        old.shutdown(wait=True)
    return size


def get_pool() -> ThreadPoolExecutor:
    """The process-wide worker pool, created lazily on first use."""
    global _pool, _pool_workers
    with _pool_lock:
        if _pool is None:
            _pool_workers = default_workers()
            _pool = ThreadPoolExecutor(max_workers=_pool_workers,
                                       thread_name_prefix=_WORKER_PREFIX)
        return _pool


def pool_size() -> int:
    """How many workers the shared pool has (without forcing creation)."""
    with _pool_lock:
        if _pool_workers is not None:
            return _pool_workers
    return default_workers()


def in_worker() -> bool:
    """True when the calling thread is one of the shared pool's workers."""
    return threading.current_thread().name.startswith(_WORKER_PREFIX)


def _revive_pool(dead: ThreadPoolExecutor) -> ThreadPoolExecutor:
    """The pool watchdog: replace a dead shared executor with a fresh one.

    Called when a submit failed because the *current* pool was shut down
    under us — an injected ``pool.die`` fault, or an external actor calling
    ``shutdown`` on the shared executor.  The swap happens under the pool
    lock and only if the dead pool is still installed, so concurrent
    revivers (and a racing :func:`configure_pool`) agree on one replacement.
    """
    global _pool, _pool_workers
    with _pool_lock:
        if _pool is dead:
            _pool_workers = _pool_workers or default_workers()
            _pool = ThreadPoolExecutor(max_workers=_pool_workers,
                                       thread_name_prefix=_WORKER_PREFIX)
            with _stats_lock:
                execution_stats["pool_revived"] += 1
        return _pool


def submit_task(fn, *args):
    """Submit to the shared pool, surviving swaps *and* a dead executor.

    ``configure_pool`` swaps the pool and shuts the old one down; a caller
    that fetched the old pool just before the swap would get
    ``RuntimeError: cannot schedule new futures after shutdown`` — retrying
    re-fetches the replacement pool, which is never shut down by the swap.
    If the *current* pool itself is dead (shut down under us rather than
    swapped), the watchdog :func:`_revive_pool` installs a replacement —
    bounded to a few attempts so a submit that can never succeed
    (interpreter shutdown) raises instead of spinning.
    """
    pool = get_pool()
    for _ in range(4):
        try:
            return pool.submit(fn, *args)
        except RuntimeError:
            if sys.is_finalizing():
                raise
            current = get_pool()
            pool = current if current is not pool else _revive_pool(pool)
    return pool.submit(fn, *args)


def warm_pool() -> None:
    """Start every worker thread up front.

    ``ThreadPoolExecutor`` spawns threads lazily on ``submit``, so merely
    creating the pool starts none; timing-sensitive callers (the autotuner)
    call this so no measured realization pays thread startup.  The tasks
    block until all are submitted — an idle worker would otherwise absorb
    several of them and fewer threads would spawn.
    """
    count = pool_size()
    if count < 2:
        return
    release = threading.Event()
    futures = [submit_task(release.wait) for _ in range(count)]
    release.set()
    for future in futures:
        future.result()


def parallel_enabled() -> bool:
    """Global kill switch: ``REPRO_PARALLEL=0`` forces every kernel serial."""
    return os.environ.get("REPRO_PARALLEL", "1").strip().lower() \
        not in ("0", "false", "off")


def choose_tile_executor(shape, tile_count: int) -> bool:
    """The per-call cost heuristic: fan tiles out, or run them serially?

    Parallel wins only when there are at least two tiles to overlap, at least
    two workers to overlap them on, enough total work to amortize submit/join
    overhead (:data:`MIN_PARALLEL_ELEMS`), and the caller is not itself a pool
    worker (nested fan-out would deadlock a bounded pool).
    """
    if not parallel_enabled() or in_worker():
        return False
    if tile_count < 2 or pool_size() < 2:
        return False
    elems = 1
    for extent in shape:
        elems *= extent
    return elems >= MIN_PARALLEL_ELEMS


def record_execution(parallel: bool, tiles: int) -> None:
    """Tally one realization's real execution mode in :data:`execution_stats`.

    Used by :func:`run_tiles` and by the lowered-IR executor in
    :mod:`repro.halide.backends.base`, so both tile-execution paths report
    through the same counters.
    """
    with _stats_lock:
        execution_stats["parallel" if parallel else "serial"] += 1
        execution_stats["tiles_parallel" if parallel else "tiles_serial"] += tiles


def _maybe_kill_pool() -> None:
    """``pool.die`` fault site: shut the shared executor down under us.

    Models a worker pool dying mid-service; the next :func:`submit_task`
    must detect the dead executor and revive it (see :func:`_revive_pool`)
    rather than failing the realization.
    """
    if fault_fires("pool.die") is None:
        return
    with _pool_lock:
        pool = _pool
    if pool is not None:
        pool.shutdown(wait=False)


def run_tiles(body, out, tiles, buffers, params) -> None:
    """Execute ``body`` over every ``(origin, extent)`` tile into ``out``.

    Tiles cover disjoint regions of ``out``, so any execution order (and any
    interleaving across threads) produces bit-identical results; the parallel
    path is therefore exactly as trustworthy as the serial loop it replaces.
    Called from generated kernel code in :mod:`repro.halide.compile`.

    A tile whose execution fails transiently (an injected fault, an evicted
    worker) is re-executed once — serially, on the collecting thread — before
    the whole realization is allowed to fail; disjointness makes the re-run
    safe at any point.
    """
    _maybe_kill_pool()
    if choose_tile_executor(out.shape, len(tiles)):
        futures = [submit_task(_run_one_tile, body, out, origin, extent,
                               buffers, params)
                   for origin, extent in tiles]
        failed = []
        errors = []
        for future, tile in zip(futures, tiles):
            try:
                future.result()
            except TransientExecutionError as exc:
                failed.append(tile)
                errors.append(exc)
        for (origin, extent), error in zip(failed, errors):
            _retry_tile(body, out, origin, extent, buffers, params, error)
        record_execution(True, len(tiles))
        return
    for origin, extent in tiles:
        try:
            _run_one_tile(body, out, origin, extent, buffers, params)
        except TransientExecutionError as exc:
            _retry_tile(body, out, origin, extent, buffers, params, exc)
    record_execution(False, len(tiles))


def _retry_tile(body, out, origin, extent, buffers, params, error) -> None:
    """Serial one-shot re-execution of a transiently failed tile."""
    with _stats_lock:
        execution_stats["tile_retries"] += 1
    try:
        _run_one_tile(body, out, origin, extent, buffers, params)
    except TransientExecutionError as exc:
        raise exc from error


def _run_one_tile(body, out, origin, extent, buffers, params) -> None:
    fault_point("tile.execute")
    region = tuple(slice(o, o + e) for o, e in zip(origin, extent))
    out[region] = body(origin, extent, buffers, params)


def run_reduction_strips(reduce_fn, out, source_shape, strip, buffers,
                         params) -> None:
    """Two-phase associative reduction over the shared worker pool.

    Splits the RDom source's outermost axis into ``strip``-row strips, fans
    each strip's update sweep into a *private* partial accumulator, then
    merges the partials into ``out`` with a deterministic serial loop.  How
    far the strips scale was measured on a 2-vCPU host (NumPy 2.4): the
    ``np.add.at`` scatters of 8 strips of 80x960 with a 0-d increment ran
    1.9x faster on 2 threads than serially, but a whole 960x640 strip sweep
    (loads, index arithmetic, scatter, zeroed partials and merge) ran only
    0.9-1.35x faster.  Only valid for associative combine ops
    (modular integer accumulation) — for those, any strip split merges to a
    result bit-identical to the single serial whole-domain sweep, which is
    also the fallback when the cost heuristic keeps the call serial.
    ``reduce_fn(out, origin, extent, buffers, params)`` is the compiled
    ``_reduce`` body from :mod:`repro.halide.compile`.
    """
    axis0 = source_shape[0] if source_shape else 0
    rank = len(source_shape)
    count = -(-axis0 // strip) if strip > 0 and axis0 > 0 else 1
    if count < 2 or not choose_tile_executor(source_shape, count):
        reduce_fn(out, (0,) * rank, tuple(source_shape), buffers, params)
        record_execution(False, 1)
        return
    rest = tuple(source_shape[1:])
    _maybe_kill_pool()
    partials = np.zeros((count,) + out.shape, dtype=out.dtype)

    def one_strip(index: int) -> None:
        fault_point("tile.execute")
        lo = index * strip
        extent = (min(strip, axis0 - lo),) + rest
        reduce_fn(partials[index], (lo,) + (0,) * (rank - 1), extent,
                  buffers, params)

    futures = [submit_task(one_strip, index) for index in range(count)]
    failed: list[tuple[int, Exception]] = []
    for index, future in enumerate(futures):
        try:
            future.result()
        except TransientExecutionError as exc:
            failed.append((index, exc))
    for index, error in failed:
        # Accumulation is not idempotent, so the retry starts the strip's
        # *private* partial from zero again before re-sweeping it serially.
        with _stats_lock:
            execution_stats["tile_retries"] += 1
        partials[index] = 0
        try:
            one_strip(index)
        except TransientExecutionError as exc:
            raise exc from error
    for index in range(count):          # deterministic serial merge
        np.add(out, partials[index], out=out)
    record_execution(True, count)


_warned_signatures: set = set()


def reset_fallback_warnings() -> None:
    """Forget which kernels already warned (so tests can re-trigger them)."""
    with _stats_lock:
        _warned_signatures.clear()


def warn_serial_fallback(signature, reason: str) -> None:
    """Warn (once per kernel signature) that ``parallel`` is ignored."""
    with _stats_lock:
        if signature in _warned_signatures:
            return
        _warned_signatures.add(signature)
    warnings.warn(
        f"schedule requests parallel but the kernel will run serially: {reason}",
        ParallelFallbackWarning, stacklevel=3)
