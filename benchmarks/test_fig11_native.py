"""Native whole-nest C backend vs the compiled-NumPy engine (figure 11).

The perf claim of the native backend: compiling the *entire* lowered loop
nest to one shared object removes the per-tile Python dispatch and NumPy
temporaries that dominate the compiled engine on cache-sized tiles, and
releasing the GIL inside segment calls lets the tile pool scale on real
cores instead of time-slicing one interpreter.

Records ``fig11_native/compiled``, ``fig11_native/native``,
``fig11_native/native_parallel`` and ``fig11_native/compile_s`` (the C
compiler's wall time for this nest, the cost every new schedule pays before
its first native frame) in BENCH_results.json.  Gates (both on the
paired-round median-of-ratios discipline from fig8/fig9, robust to shared-
host timing noise):

* native >= 2x over compiled on the two-stage 960x640 blur — only on hosts
  with a C toolchain + cffi;
* native parallel >= 2x over native serial — only with >= 4 effective pool
  workers (GIL-free scaling needs real cores).
"""

from __future__ import annotations

import os
import statistics
from dataclasses import replace

import numpy as np
import pytest

from repro.halide import FuncPipeline, Schedule, configure_pool
from repro.halide.backends import native as native_mod
from repro.halide.backends.native import (native_stats, reset_native_caches,
                                          toolchain_path)
from repro.halide.parallel import parallel_enabled, pool_size
from repro.rejuvenation import lift_photoshop_filter

from conftest import LARGE_HEIGHT, LARGE_WIDTH, print_table, record_bench, \
    time_callable

TILE_W, TILE_H = 480, 320

#: Paired interleaved rounds (same discipline as fig8_locality): the median
#: of per-round ratios shrugs off a single stalled or turbo sample.
ROUNDS = 12

HAVE_NATIVE = toolchain_path() is not None and native_mod.cffi is not None


def _two_stage_blur(mode: str) -> FuncPipeline:
    """blur(blur(frame)) from the lifted Photoshop blur kernel."""
    lifted = lift_photoshop_filter("blur")
    kernel = sorted(lifted.kernels, key=lambda k: k.output)[0]
    func = lifted.funcs[kernel.output]
    input_name = sorted(kernel.input_names)[0]
    first = replace(func, schedule=Schedule())
    second = replace(func, schedule=Schedule())
    pipeline = FuncPipeline()
    pipeline.add(first, input_name=input_name, pad=1, name="blur1")
    pipeline.add(second, input_name=input_name, pad=1, name="blur2")
    second.tile(TILE_W, TILE_H)
    first.compute_at(second, "x_1")
    if mode == "parallel":
        second.parallel()
    return pipeline


def _paired_ratio(slow_fn, fast_fn):
    """Median times and median of per-round slow/fast ratios, interleaved."""
    slow_samples: list[float] = []
    fast_samples: list[float] = []
    ratios: list[float] = []
    for round_index in range(ROUNDS):
        if round_index % 2 == 0:
            s = time_callable(slow_fn, 1)
            f = time_callable(fast_fn, 1)
        else:
            f = time_callable(fast_fn, 1)
            s = time_callable(slow_fn, 1)
        slow_samples.append(s)
        fast_samples.append(f)
        ratios.append(s / f)
    return (statistics.median(slow_samples), statistics.median(fast_samples),
            statistics.median(ratios))


@pytest.mark.skipif(not HAVE_NATIVE,
                    reason="no C toolchain / cffi: native degrades, nothing "
                           "to measure")
def test_fig11_native_vs_compiled(bench_planes_large):
    frame = bench_planes_large["r"]
    pipeline = _two_stage_blur("serial")

    # Warm both engines (native compiles its .so here) and pin correctness.
    before = native_stats()["native_frames"]
    native_out = pipeline.realize(frame, engine="native")
    assert native_stats()["native_frames"] == before + 1, \
        "native degraded on a toolchain host — the benchmark would be a lie"
    np.testing.assert_array_equal(
        native_out, pipeline.realize(frame, engine="compiled"))

    compiled_time, native_time, speedup = _paired_ratio(
        lambda: pipeline.realize(frame, engine="compiled"),
        lambda: pipeline.realize(frame, engine="native"))

    print_table(
        f"Figure 11 (native): two-stage blur at {LARGE_WIDTH}x{LARGE_HEIGHT} "
        f"(median of {ROUNDS} paired rounds)",
        ["engine", "ms", "speedup"],
        [["compiled (NumPy tiles)", f"{compiled_time * 1000:.1f}", "1.00x"],
         ["native (whole-nest C)", f"{native_time * 1000:.1f}",
          f"{speedup:.2f}x"]])
    record_bench("fig11_native/compiled", compiled_time, engine="compiled",
                 image_size=(LARGE_WIDTH, LARGE_HEIGHT),
                 tile=[TILE_W, TILE_H])
    record_bench("fig11_native/native", native_time, engine="native",
                 image_size=(LARGE_WIDTH, LARGE_HEIGHT),
                 speedup=round(speedup, 2), tile=[TILE_W, TILE_H])

    # Acceptance: whole-nest C must clear 2x over per-tile NumPy dispatch
    # on this workload (measured ~4-8x on dev hosts; 2x leaves room for
    # noisy shared runners without ever letting a regression to parity by).
    assert speedup >= 2.0, f"native only {speedup:.2f}x vs compiled"


@pytest.mark.skipif(not HAVE_NATIVE,
                    reason="no C toolchain / cffi: native degrades, nothing "
                           "to measure")
def test_fig11_native_parallel_scaling(bench_planes_large):
    """GIL-free tile fan-out: parallel native vs serial native.

    Always records both timings; the >= 2x scaling gate only applies with
    >= 4 effective workers (the segment calls release the GIL, so with real
    cores the pool must deliver real speedup, not time-slicing).
    """
    configure_pool()           # fresh pool sized to this machine
    frame = bench_planes_large["r"]
    serial = _two_stage_blur("serial")
    parallel = _two_stage_blur("parallel")

    np.testing.assert_array_equal(
        serial.realize(frame, engine="native"),
        parallel.realize(frame, engine="native"))

    serial_time, parallel_time, speedup = _paired_ratio(
        lambda: serial.realize(frame, engine="native"),
        lambda: parallel.realize(frame, engine="native"))

    cores = os.cpu_count() or 1
    print_table(
        f"Figure 11 (native parallel): {LARGE_WIDTH}x{LARGE_HEIGHT}, "
        f"{pool_size()} workers / {cores} cores",
        ["schedule", "ms", "speedup"],
        [["native serial", f"{serial_time * 1000:.1f}", "1.00x"],
         ["native parallel", f"{parallel_time * 1000:.1f}",
          f"{speedup:.2f}x"]])
    record_bench("fig11_native/native_parallel", parallel_time,
                 engine="native", image_size=(LARGE_WIDTH, LARGE_HEIGHT),
                 speedup=round(speedup, 2), workers=pool_size(), cores=cores)

    if pool_size() >= 4 and parallel_enabled():
        assert speedup >= 2.0, \
            f"GIL-free parallel tiles only {speedup:.2f}x over serial native"


#: Fresh builds timed for ``compile_s`` (the minimum is recorded).
COMPILE_REPEATS = 3


@pytest.mark.skipif(not HAVE_NATIVE,
                    reason="no C toolchain / cffi: nothing is compiled")
def test_fig11_native_compile_time(bench_planes_large, tmp_path, monkeypatch):
    """``cc`` wall time for the fig11 nest, from a fresh store each time.

    Dropping the in-process caches and pointing the artifact store at an
    empty directory forces a real compile of the digest; the time is what
    ``native_stats()["compile_seconds"]`` measured around the compiler.
    """
    from repro.store import STORE_DIR_ENV

    frame = bench_planes_large["r"]
    samples = []
    try:
        for repeat in range(COMPILE_REPEATS):
            monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path / f"s{repeat}"))
            reset_native_caches()
            before = native_stats()
            _two_stage_blur("serial").realize(frame, engine="native")
            after = native_stats()
            assert after["compiles"] == before["compiles"] + 1
            samples.append(after["compile_seconds"]
                           - before["compile_seconds"])
            source_kb = (after["source_bytes"] - before["source_bytes"]) / 1024
    finally:
        reset_native_caches()
    best = min(samples)
    print_table(
        f"Figure 11 (native compile): two-stage blur at "
        f"{LARGE_WIDTH}x{LARGE_HEIGHT}, best of {COMPILE_REPEATS} fresh builds",
        ["C source", "cc seconds"],
        [[f"{source_kb:.0f} KB", f"{best:.3f}"]])
    record_bench("fig11_native/compile_s", best, engine="native",
                 image_size=(LARGE_WIDTH, LARGE_HEIGHT),
                 source_kb=round(source_kb, 1), tile=[TILE_W, TILE_H])


def test_fig11_engines_agree(bench_planes_large):
    """All three engines bit-identical on a cropped frame (degraded or not —
    this leg runs on compilerless hosts too)."""
    frame = bench_planes_large["r"][:160, :240]
    oracle = _two_stage_blur("serial").realize(frame, engine="interp")
    for mode in ("serial", "parallel"):
        for engine in ("compiled", "native"):
            np.testing.assert_array_equal(
                _two_stage_blur(mode).realize(frame, engine=engine), oracle)
