"""The native backend: whole-nest C compilation with GIL-free segments.

Where the compiled engine dispatches one fused-NumPy kernel per ``Store``
from Python, this backend hands :mod:`.cgen` the *entire* lowered loop nest
and executes the resulting shared object through cffi in ABI mode.  Each
parallel-free subtree becomes one C function ("segment"); parallel ``For``
loops stay in Python so the shared worker pool keeps making the placement
decision (:func:`repro.halide.parallel.choose_tile_executor`), but every
segment call releases the GIL for its whole duration, so the fan-out finally
scales with cores.

Compilation is cached at three levels:

* an in-process table keyed on the *source digest* (sha256 of the C source
  plus the toolchain fingerprint) holding open ``(ffi, lib)`` handles;
* the :class:`~repro.store.ArtifactStore` under a new ``native/`` stage,
  keyed on the same digest, holding the ``.so`` bytes — a warm start costs
  zero compiler invocations;
* a per-``LoweredPipeline`` program table (weakref-evicted) so repeated
  frames skip even the source generation.

Builds of distinct programs run concurrently: the module lock guards only
the cache tables, never the ``cc`` subprocess.  A build in progress is an
in-flight future keyed on its digest, so concurrent requests for the same
program share one compile, and a frame whose program is already cached never
waits behind someone else's build.  :meth:`NativeBackend.prebuild` builds a
lowering's program ahead of its first frame (the autotuner uses it to
compile its timed candidates side by side).  The scratch directory that
holds the ``.so`` files is removed when the interpreter exits.

Degradation, not failure: no C compiler on PATH, cffi missing, a construct
:mod:`.cgen` cannot translate, or a (possibly injected — fault site
``native.compile``) compiler failure all fall back to the compiled-NumPy
backend, bit-identical by construction.  ``native_stats()`` counts every
path so tests can prove which one ran.
"""

from __future__ import annotations

import atexit
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import time
import weakref
from concurrent.futures import Future
from typing import Mapping, Optional

import numpy as np

try:  # pragma: no cover - exercised via the degraded path when absent
    import cffi
except ImportError:  # pragma: no cover
    cffi = None

from ...ir import For
from ...ir.types import dtype_from_name
from ...reliability.faults import InjectedFault, fault_point
from ...store import ArtifactKey, default_store
from ..realize import RealizationError
from .base import Backend, _ExecState
from .cgen import CGenError, NestProgram, SegmentSpec, generate_nest

__all__ = ["NativeBackend", "NativeCompileError", "native_stats",
           "reset_native_caches", "toolchain_path"]

#: ArtifactStore stage for cached shared objects.
NATIVE_STAGE = "native"

_DIV_ZERO_MESSAGE = "integer division by zero (x86 idiv raises #DE)"

_RC_MESSAGES = {
    1: _DIV_ZERO_MESSAGE,
    2: "reduction scatter index out of bounds",
    3: "native scratch allocation failed",
}


class NativeCompileError(RealizationError):
    """The C toolchain rejected a generated nest (degradable)."""


_STATS_LOCK = threading.Lock()
_STATS = {
    "compiles": 0,          # actual compiler invocations
    "so_cache_hits": 0,     # in-process (ffi, lib) reuse
    "store_hits": 0,        # .so bytes served from the ArtifactStore
    "compile_failures": 0,  # real or injected toolchain failures
    "degraded": 0,          # frames served by the compiled backend instead
    "native_frames": 0,     # frames fully executed natively
    "segment_calls": 0,     # C segment invocations
    "no_toolchain": 0,      # degrade because no C compiler was found
    "compile_seconds": 0.0,  # wall time inside the compiler
    "source_bytes": 0,      # C source bytes handed to the compiler
}


def native_stats() -> dict:
    """A snapshot of the native backend's counters."""
    with _STATS_LOCK:
        return dict(_STATS)


def _bump(key: str, amount: int = 1) -> None:
    with _STATS_LOCK:
        _STATS[key] += amount


# -- toolchain ---------------------------------------------------------------

def toolchain_path() -> Optional[str]:
    """The C compiler to use, or ``None`` (degrade) when there is none.

    ``REPRO_NATIVE_CC`` (then ``CC``) overrides discovery; setting either to
    a path that does not resolve *disables* the backend — which is how CI
    proves the compilerless fallback without uninstalling gcc.  The lookup
    is memoized on the values of those variables and ``PATH``, so changing
    any of them is seen by the next call.
    """
    return _find_toolchain(os.environ.get("REPRO_NATIVE_CC"),
                           os.environ.get("CC"), os.environ.get("PATH"))


@functools.lru_cache(maxsize=1)
def _find_toolchain(native_cc: Optional[str], cc: Optional[str],
                    search_path: Optional[str]) -> Optional[str]:
    for value in (native_cc, cc):
        if value is not None:
            return shutil.which(value, path=search_path) if value else None
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name, path=search_path)
        if path:
            return path
    return None


_FINGERPRINTS: dict = {}


def _toolchain_fingerprint(cc: str) -> str:
    cached = _FINGERPRINTS.get(cc)
    if cached is not None:
        return cached
    try:
        out = subprocess.run([cc, "--version"], capture_output=True,
                             text=True, timeout=30).stdout
        fingerprint = out.splitlines()[0].strip() if out else cc
    except Exception:
        fingerprint = cc
    _FINGERPRINTS[cc] = fingerprint
    return fingerprint


# -- caches ------------------------------------------------------------------

#: Guards the tables below; never held across the compiler.
_COMPILE_LOCK = threading.Lock()
#: source digest -> (ffi, lib) open handles
_SO_CACHE: dict = {}
#: source digest -> Future of (ffi, lib) while its build is running
_INFLIGHT: dict = {}
#: source digests whose real compilation failed (never retried this process)
_FAILED: set = set()
#: program-table sentinel: this lowering permanently degrades
_DEGRADED = object()
#: (id(lowered), frame dtype, param kinds, cc) -> bundle | _DEGRADED
_PROGRAMS: dict = {}
_KEYS_BY_ID: dict = {}
_SO_DIR: list = []  # lazily-created scratch dir for store-served .so files


def reset_native_caches() -> None:
    """Drop all in-process caches (tests only; on-disk store is untouched).

    Also rotates the scratch directory so previously materialized ``.so``
    files stop short-circuiting the store lookup — warm-start tests need the
    next realize to go back to the artifact store.
    """
    with _COMPILE_LOCK:
        _SO_CACHE.clear()
        _FAILED.clear()
        _PROGRAMS.clear()
        _KEYS_BY_ID.clear()
        if _SO_DIR:
            shutil.rmtree(_SO_DIR[0], ignore_errors=True)
            _SO_DIR.clear()


def _evict_programs(lowered_id: int) -> None:
    for key in _KEYS_BY_ID.pop(lowered_id, ()):  # pragma: no cover - GC timing
        _PROGRAMS.pop(key, None)


def _so_scratch_dir() -> str:
    with _COMPILE_LOCK:
        if not _SO_DIR:
            path = tempfile.mkdtemp(prefix="repro-native-")
            atexit.register(_remove_scratch_dir, path, os.getpid())
            _SO_DIR.append(path)
        return _SO_DIR[0]


def _remove_scratch_dir(path: str, pid: int) -> None:
    # A forked child inherits the handler; only the creator removes the dir.
    if os.getpid() == pid:
        shutil.rmtree(path, ignore_errors=True)


def _store_key(digest: str) -> ArtifactKey:
    payload = ('{"stage":"%s","digest":"%s"}' % (NATIVE_STAGE, digest))
    return ArtifactKey(stage=NATIVE_STAGE, digest=digest, payload=payload)


class _Bundle:
    """One compiled nest ready to execute (``plan``: its runner, built on
    the first frame)."""

    __slots__ = ("program", "ffi", "lib", "digest", "plan")

    def __init__(self, program: NestProgram, ffi, lib, digest: str) -> None:
        self.program = program
        self.ffi = ffi
        self.lib = lib
        self.digest = digest
        self.plan = None


class _NativeState(_ExecState):
    __slots__ = ("bundle",)

    def __init__(self, params, stats, frame_shape, bundle) -> None:
        super().__init__(params, stats, frame_shape)
        self.bundle = bundle


class NativeBackend(Backend):
    """Execute lowered nests as native code; degrade to compiled otherwise."""

    name = "native"

    # -- legacy primitives: delegate to the compiled engine ------------------
    # (The un-lowered paths are whole-region NumPy evaluations; there is no
    # loop nest to compile, so the compiled backend is the honest answer.)

    def _compiled(self):
        from . import get_backend
        return get_backend("compiled")

    def realize_func(self, func, shape, buffers, params):
        return self._compiled().realize_func(func, shape, buffers, params)

    def evaluate_region(self, func, origin, extent, buffers, params):
        return self._compiled().evaluate_region(func, origin, extent,
                                                buffers, params)

    def reduce_region(self, func, out, origin, extent, buffers, params):
        return self._compiled().reduce_region(func, out, origin, extent,
                                              buffers, params)

    def region_evaluator(self, func):
        return self._compiled().region_evaluator(func)

    def region_reducer(self, func):
        return self._compiled().region_reducer(func)

    # -- compilation ---------------------------------------------------------

    def _program_key(self, lowered, frame: np.ndarray,
                     params: Mapping) -> tuple:
        # The lowering owns its stores' schedules (vectorize widths
        # included), so its identity covers them: no per-frame tree walk.
        kinds = tuple(sorted(
            (name, "float" if isinstance(value, float) else "int")
            for name, value in (params or {}).items()))
        return (id(lowered), frame.dtype.name, kinds, toolchain_path() or "")

    def _program_for(self, lowered, frame: np.ndarray,
                     params: Mapping) -> Optional[_Bundle]:
        """The compiled bundle for this lowering, or ``None`` to degrade.

        Permanent degrades (``CGenError``, missing toolchain/cffi, real
        compile failures) are memoized; an :class:`InjectedFault` propagates
        so each frame under chaos degrades independently.
        """
        key = self._program_key(lowered, frame, params)
        with _COMPILE_LOCK:
            cached = _PROGRAMS.get(key)
        if cached is _DEGRADED:
            return None
        if cached is not None:
            return cached
        bundle: object = None
        try:
            bundle = self._build(lowered, frame, params)
        except InjectedFault:
            raise
        except (CGenError, NativeCompileError, RealizationError, OSError):
            bundle = None
        if bundle is None:
            with _COMPILE_LOCK:
                _PROGRAMS[key] = _DEGRADED
            return None
        with _COMPILE_LOCK:
            _PROGRAMS[key] = bundle
            if id(lowered) not in _KEYS_BY_ID:
                _KEYS_BY_ID[id(lowered)] = set()
                weakref.finalize(lowered, _evict_programs, id(lowered))
            _KEYS_BY_ID[id(lowered)].add(key)
        return bundle

    def _build(self, lowered, frame: np.ndarray,
               params: Mapping) -> Optional[_Bundle]:
        if cffi is None:
            return None
        cc = toolchain_path()
        if cc is None:
            _bump("no_toolchain")
            return None
        frame_dtype = dtype_from_name(frame.dtype.name)
        param_kinds = {
            name: ("float" if isinstance(value, float) else "int")
            for name, value in (params or {}).items()}
        program = generate_nest(lowered, frame_dtype, param_kinds)
        fingerprint = _toolchain_fingerprint(cc)
        digest = hashlib.sha256(
            (program.source + "\0" + fingerprint).encode()).hexdigest()
        with _COMPILE_LOCK:
            if digest in _FAILED:
                return None
            handles = _SO_CACHE.get(digest)
            building = _INFLIGHT.get(digest)
            if handles is None and building is None:
                _INFLIGHT[digest] = future = Future()
        if handles is None and building is not None:
            # Someone else is compiling this program: share their result
            # (or their error).
            handles = building.result()
        if handles is not None:
            _bump("so_cache_hits")
            return _Bundle(program, handles[0], handles[1], digest)
        try:
            so_path = self._materialize_so(cc, program, digest)
            ffi = cffi.FFI()
            ffi.cdef(program.cdef)
            handles = (ffi, ffi.dlopen(so_path))
        except BaseException as error:
            with _COMPILE_LOCK:
                _INFLIGHT.pop(digest, None)
            future.set_exception(error)
            raise
        with _COMPILE_LOCK:
            _SO_CACHE[digest] = handles
            _INFLIGHT.pop(digest, None)
        future.set_result(handles)
        return _Bundle(program, handles[0], handles[1], digest)

    def _materialize_so(self, cc: str, program: NestProgram,
                        digest: str) -> str:
        """Path to the shared object for ``digest``, compiling if needed.

        Runs without the module lock: only the one builder of ``digest``
        gets here, and distinct digests write distinct files.
        """
        so_path = os.path.join(_so_scratch_dir(), f"{digest}.so")
        if os.path.exists(so_path):
            return so_path
        store = None
        try:
            store = default_store()
            blob = store.get(_store_key(digest))
        except Exception:
            blob = None
        if isinstance(blob, bytes):
            with open(so_path, "wb") as handle:
                handle.write(blob)
            _bump("store_hits")
            return so_path
        try:
            fault_point("native.compile")
        except InjectedFault:
            _bump("compile_failures")
            raise
        src_path = os.path.join(_so_scratch_dir(), f"{digest}.c")
        with open(src_path, "w") as handle:
            handle.write(program.source)
        # -fwrapv: signed wrap is defined (belt-and-braces; cgen already
        # emits unsigned arithmetic).  -ffp-contract=off: no FMA fusion, so
        # float results match NumPy's one-op-at-a-time evaluation.
        began = time.perf_counter()
        result = subprocess.run(
            [cc, "-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fwrapv",
             "-o", so_path, src_path, "-lm"],
            capture_output=True, text=True)
        _bump("compile_seconds", time.perf_counter() - began)
        _bump("source_bytes", len(program.source))
        if result.returncode != 0:
            _bump("compile_failures")
            with _COMPILE_LOCK:
                _FAILED.add(digest)
            raise NativeCompileError(
                f"{cc} failed (rc {result.returncode}): "
                f"{result.stderr.strip()[:500]}")
        _bump("compiles")
        if store is not None:
            try:
                with open(so_path, "rb") as handle:
                    store.put(_store_key(digest), handle.read())
            except Exception:
                pass
        return so_path

    def prebuild(self, lowered, image: np.ndarray,
                 params: Mapping[str, float] | None = None) -> None:
        """Build (or fetch) the program for ``lowered`` ahead of its frames.

        Only the frame's dtype and the parameter kinds matter; a lowering
        that cannot run natively is memoized as degraded, as on a frame.
        Safe to call from several threads at once.
        """
        try:
            self._program_for(lowered, np.asarray(image), params or {})
        except InjectedFault:
            pass

    # -- execution -----------------------------------------------------------

    def execute(self, lowered, image: np.ndarray,
                params: Mapping[str, float] | None = None,
                stats: Optional[dict] = None) -> np.ndarray:
        frame = np.ascontiguousarray(np.asarray(image))
        if frame.shape != lowered.frame_shape:
            raise RealizationError(
                f"lowered pipeline expects frame {lowered.frame_shape}, "
                f"got {frame.shape}")
        try:
            bundle = self._program_for(lowered, frame, params or {})
        except InjectedFault:
            bundle = None
        if bundle is None:
            _bump("degraded")
            return self._compiled().execute(lowered, frame, params, stats)
        if bundle.plan is None:
            bundle.plan = self._compile(lowered.stmt, bundle.program)
        buffers: dict = {lowered.input_name: frame}
        output = np.empty(lowered.frame_shape,
                          dtype=lowered.out_dtype.to_numpy())
        buffers[lowered.output] = output
        state = _NativeState(params=dict(params or {}),
                             stats=stats if stats is not None else {},
                             frame_shape=lowered.frame_shape,
                             bundle=bundle)
        bundle.plan({}, buffers, state)
        _bump("native_frames")
        return output

    def _compile(self, stmt, program=None):
        """Subtrees the program covers run as one C segment call; a
        parallel ``For`` keeps its fan-out decision in Python, with one
        segment per iteration (or its serial segment for the whole loop)."""
        spec = None if program is None else program.segment_for.get(id(stmt))
        if spec is None:
            return super()._compile(stmt, program)
        whole = functools.partial(self._call_segment, spec)
        if isinstance(stmt, For) and stmt.kind == "parallel":
            body_spec = program.parallel_body.get(id(stmt))
            iteration = None if body_spec is None \
                else functools.partial(self._call_segment, body_spec)
            return self._loop(stmt, iteration, whole)
        return whole

    def _call_segment(self, spec: SegmentSpec, env: Mapping,
                      buffers: Mapping, state) -> None:
        bundle = state.bundle
        ffi = bundle.ffi
        keepalive = []
        buf_ptrs = []
        shapes: list = []
        for name, rank in zip(spec.buffers, spec.ranks):
            array = buffers.get(name)
            if array is None:
                raise RealizationError(
                    f"native segment references unbound buffer {name!r}")
            if array.ndim != rank:
                raise RealizationError(
                    f"buffer {name!r} is rank {array.ndim}, segment "
                    f"expects {rank}")
            view = ffi.from_buffer(array)
            keepalive.append(view)
            buf_ptrs.append(ffi.cast("void *", view))
            shapes.extend(array.shape)
        env_vals = []
        for name in spec.env_vars:
            value = env.get(name)
            if value is None:
                value = state.params.get(name)
            if value is None:
                raise RealizationError(f"unbound loop variable {name}")
            env_vals.append(int(value))
        iparams = [int(state.params.get(name, 0 if default is None else default))
                   for name, default in spec.int_params]
        fparams = [float(state.params.get(name,
                                          0.0 if default is None else default))
                   for name, default in spec.float_params]
        bufs_arg = ffi.new("void *[]", buf_ptrs) if buf_ptrs else ffi.NULL
        shapes_arg = ffi.new("int64_t[]", shapes) if shapes else ffi.NULL
        env_arg = ffi.new("int64_t[]", env_vals) if env_vals else ffi.NULL
        ip_arg = ffi.new("int64_t[]", iparams) if iparams else ffi.NULL
        fp_arg = ffi.new("double[]", fparams) if fparams else ffi.NULL
        # The cffi ABI-mode call releases the GIL for the whole segment.
        rc = getattr(bundle.lib, spec.name)(
            bufs_arg, shapes_arg, env_arg, ip_arg, fp_arg)
        _bump("segment_calls")
        del keepalive
        if rc != 0:
            raise RealizationError(
                _RC_MESSAGES.get(rc, f"native segment failed (rc {rc})"))
