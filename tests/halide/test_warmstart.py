"""Warm-start regression tests: tuned once, served with zero timed evals.

Mirrors the lift-cache zero-instrumented-runs assertion style: after one
``tune`` run persists a winner, a freshly constructed
:class:`PipelineServer` (same workload, same machine) must apply the stored
schedules without a single timed candidate evaluation — asserted via the
``tuner_stats`` counters, which only :func:`_time_schedule` /
:func:`_time_pipeline` increment.
"""

import numpy as np
import pytest

from repro.halide import (
    Func,
    FuncPipeline,
    PipelineServer,
    Schedule,
    Var,
    autotune,
    autotune_pipeline,
)
from repro.halide.autotune import reset_tuner_stats, tuner_stats
from repro.ir import BinOp, BufferAccess, Cast, Const, Op, UINT8, UINT32
from repro.store import ArtifactStore


def _stencil(name: str, source: str) -> Func:
    x, y = Var("x_0"), Var("x_1")
    expr = None
    for dx in range(3):
        tap = Cast(UINT32, BufferAccess(
            source, [BinOp(Op.ADD, x, Const(dx)),
                     BinOp(Op.ADD, y, Const(1))], UINT8))
        expr = tap if expr is None else BinOp(Op.ADD, expr, tap, UINT32)
    out = Cast(UINT8, BinOp(Op.SHR, expr, Const(1, UINT32), UINT32))
    return Func(name, [x, y], dtype=UINT8).define(out)


def _pipeline() -> FuncPipeline:
    pipeline = FuncPipeline()
    pipeline.add(_stencil("blur1d", "input_1"), input_name="input_1",
                 pad=1, name="bx")
    pipeline.add(_stencil("by", "bx_buf"), input_name="bx_buf",
                 pad=1, name="by")
    return pipeline


@pytest.fixture
def image():
    return np.random.default_rng(7).integers(0, 256, size=(48, 64),
                                             dtype=np.uint8)


class TestPipelineServerWarmStart:
    def test_warm_started_server_times_nothing(self, tmp_path, image):
        store = ArtifactStore(tmp_path)
        tuned = autotune_pipeline(_pipeline(), image, iterations=8, seed=3,
                                  store=store)
        assert tuned.source == "search"

        fresh = _pipeline()
        reset_tuner_stats()
        with PipelineServer(fresh, frame_shape=image.shape,
                            store=store) as server:
            assert server.warm_started
            assert tuner_stats["timed_evaluations"] == 0
            assert tuner_stats["warm_start_hits"] == 1
            # The stored winner's schedules were applied verbatim.
            assert [s.describe() for s in tuned.best_schedules] == \
                [stage.func.schedule.describe() for stage in fresh.stages]
            output, _seconds = server.submit(image=image).result()
        # Warm-started schedules change timing, never results.
        np.testing.assert_array_equal(output, _pipeline().realize(image))
        assert tuner_stats["timed_evaluations"] == 0

    def test_cold_server_is_a_counted_miss(self, tmp_path, image):
        reset_tuner_stats()
        with PipelineServer(_pipeline(), frame_shape=image.shape,
                            store=ArtifactStore(tmp_path)) as server:
            assert not server.warm_started
        assert tuner_stats["warm_start_misses"] == 1
        assert tuner_stats["timed_evaluations"] == 0

    def test_warm_start_opt_out_leaves_schedules_alone(self, tmp_path, image):
        store = ArtifactStore(tmp_path)
        autotune_pipeline(_pipeline(), image, iterations=8, seed=3,
                          store=store)
        fresh = _pipeline()
        before = [s.func.schedule.describe() for s in fresh.stages]
        with PipelineServer(fresh, frame_shape=image.shape, store=store,
                            warm_start=False) as server:
            assert not server.warm_started
        assert [s.func.schedule.describe() for s in fresh.stages] == before

    def test_no_frame_shape_means_no_warm_start(self, tmp_path, image):
        store = ArtifactStore(tmp_path)
        autotune_pipeline(_pipeline(), image, iterations=8, seed=3,
                          store=store)
        reset_tuner_stats()
        with PipelineServer(_pipeline(), store=store) as server:
            assert not server.warm_started
        # Without a frame shape there is no workload key to look up; the
        # database was not consulted at all.
        assert tuner_stats["warm_start_hits"] == 0
        assert tuner_stats["warm_start_misses"] == 0


class TestFuncWarmStart:
    def test_func_server_warm_starts_from_tune_run(self, tmp_path):
        store = ArtifactStore(tmp_path)
        padded = np.random.default_rng(1).integers(0, 256, size=(50, 66),
                                                   dtype=np.uint8)
        shape = (64, 48)                       # x-first realize shape
        tuned = autotune(_stencil("blur1d", "input_1"), shape,
                         {"input_1": padded}, iterations=8, seed=2,
                         store=store)
        fresh = _stencil("blur1d", "input_1")
        reset_tuner_stats()
        np_shape = tuple(reversed(shape))
        with PipelineServer(fresh, frame_shape=np_shape,
                            store=store) as server:
            assert server.warm_started
            assert tuner_stats["timed_evaluations"] == 0
            assert fresh.schedule.describe() == \
                tuned.best_schedule.describe()
            output, _seconds = server.submit(
                shape=shape, buffers={"input_1": padded}).result()
        assert output.shape == np_shape


class TestEngineScopedWarmStart:
    """Records are per backend: the server's engine selects which it reads."""

    def test_native_record_warm_starts_native_server_only(self, tmp_path,
                                                          image):
        store = ArtifactStore(tmp_path)
        tuned = autotune_pipeline(_pipeline(), image, iterations=8, seed=3,
                                  engine="native", store=store)
        assert tuned.source == "search"

        native = _pipeline()
        reset_tuner_stats()
        with PipelineServer(native, engine="native", frame_shape=image.shape,
                            store=store) as server:
            assert server.warm_started
            assert tuner_stats["timed_evaluations"] == 0
            assert [s.describe() for s in tuned.best_schedules] == \
                [stage.func.schedule.describe() for stage in native.stages]
            output, _seconds = server.submit(image=image).result()
        np.testing.assert_array_equal(
            output, _pipeline().realize(image, engine="interp"))

        compiled = _pipeline()
        before = [stage.func.schedule.describe() for stage in compiled.stages]
        with PipelineServer(compiled, engine="compiled",
                            frame_shape=image.shape, store=store) as server:
            assert not server.warm_started
        assert [stage.func.schedule.describe()
                for stage in compiled.stages] == before
        assert tuner_stats["warm_start_hits"] == 1
        assert tuner_stats["warm_start_misses"] == 1

    def test_func_warm_start_is_engine_scoped(self, tmp_path):
        from repro.halide import warm_start_func

        store = ArtifactStore(tmp_path)
        padded = np.random.default_rng(1).integers(0, 256, size=(50, 66),
                                                   dtype=np.uint8)
        autotune(_stencil("blur1d", "input_1"), (64, 48),
                 {"input_1": padded}, iterations=8, seed=2,
                 engine="native", store=store)
        np_shape = (48, 64)
        assert warm_start_func(_stencil("blur1d", "input_1"), np_shape,
                               store=store, engine="native") is not None
        assert warm_start_func(_stencil("blur1d", "input_1"), np_shape,
                               store=store, engine="compiled") is None
