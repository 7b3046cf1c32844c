"""One phase of a benchmark run, in a fresh process.

    python3 perfbench/worker.py CONFIG.json

``run.py`` starts one process per phase, so every measured lift and every
set-up starts from a fresh interpreter: in-process memos (canonicalization,
lift results, compiled kernels) would otherwise make a repeat measure a
different program.  The phase writes a JSON report to ``config["out"]``.

Phases:

* ``coldlift`` -- cold-lift scenarios into an empty private store and
  validate each lift against the binary, then write the interp oracle of
  every served input to ``config["oracles"]`` (untimed), which the later
  phases load;
* ``setup`` -- warm lift, one ``PipelineServer`` per target x engine, and
  each server's first frame (checked against the oracle once the set-up
  clock has stopped);
* ``main`` -- the workload's measured work (see :func:`phase_main`).
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import targets as T  # noqa: E402
from perfbench.loadgen import closed_loop, seeded_schedule  # noqa: E402
from perfbench.stats import (  # noqa: E402
    Ledger, median, percentile, slice_medians)
from perfbench.tracing import Tracer  # noqa: E402

clock = time.perf_counter

#: Distinct seeded inputs per target (their oracle outputs are computed in
#: untimed prep).
INPUTS_PER_TARGET = {"serve-large": 2, "serve-small": 4}
#: Frames per slice of the closed loop (and the least a run serves), so
#: each slice's p95 has ten samples beyond it.
MIN_FRAMES = 210
#: Sequential frames (at least) in each of the two bursts behind
#: ``tuned_frame_ms``, and each burst's minimum duration.  The bursts sit
#: before and after the closed loop, so that one swing of the host's speed
#: does not move the whole median.
TUNED_FRAMES, TUNED_SECONDS, MAX_TUNED_FRAMES = 10, 0.75, 1000
#: Repeats behind each traced execute/realize timing.
PROBE_REPEATS = 7


# ---------------------------------------------------------------------------
# repro access
# ---------------------------------------------------------------------------

def import_repro() -> None:
    """Import every part of ``repro`` the benchmark calls (counts as set-up)."""
    import repro.apps.registry  # noqa: F401
    import repro.core.session  # noqa: F401
    import repro.halide  # noqa: F401
    import repro.halide.backends.native  # noqa: F401
    import repro.rejuvenation.serving  # noqa: F401
    import repro.store  # noqa: F401


def counters() -> dict:
    """A snapshot of the program's own counter dicts."""
    from repro.apps.base import app_run_count
    from repro.halide import execution_stats, kernel_cache_stats, tuner_stats
    from repro.halide.backends.native import native_stats
    from repro.ir.simplify import canonicalize_stats

    return {"app_runs": app_run_count(),
            "canon": dict(canonicalize_stats),
            "kernel": dict(kernel_cache_stats),
            "exec": dict(execution_stats),
            "tuner": dict(tuner_stats),
            "native": native_stats()}


def delta(after, before):
    """``after - before``, key by key through nested counter dicts."""
    if isinstance(after, dict):
        return {key: delta(value, before.get(key, {} if isinstance(value, dict)
                                             else 0))
                for key, value in after.items()
                if isinstance(value, (int, float, dict))}
    return after - before


def lift(key, store, tracer, ledger, cold: bool):
    """One store-backed lift; returns ``(result, seconds)``.

    Every lift uses the scenario's registered seed, so each run lifts the
    same program; the benchmark seed only varies the served frames and the
    request mix.  The traced run resolves each stage through
    ``LiftSession.artifact`` under its own span before ``run()`` assembles
    the result.
    """
    from repro.apps.base import app_run_count
    from repro.apps.registry import get_scenario
    from repro.core.session import LiftSession
    from repro.core.stages import STAGES

    label = "/".join(key)
    ledger.attempt()
    runs_before = app_run_count()
    start = clock()
    try:
        with tracer.span("lift.cold" if cold else "lift.warm", scenario=label):
            scenario = get_scenario(*key)
            session = LiftSession(scenario.make_app(), key[1],
                                  seed=scenario.seed, store=store)
            if tracer.enabled:
                for stage in STAGES:
                    with tracer.span(f"lift.{stage}", scenario=label):
                        session.artifact(stage)
            result = session.run()
    except Exception as error:
        ledger.fail(f"lift {label}: {type(error).__name__}: {error}")
        raise
    seconds = clock() - start
    if cold:
        with tracer.span("lift.validate", scenario=label):
            verdict = result.validate()
        ledger.check(all(verdict.values()),
                     f"validate {label}: {verdict}")
    else:
        runs = app_run_count() - runs_before
        sources = [report.source for report in session.explain()]
        ledger.check(runs == 0 and all(s == "hit" for s in sources),
                     f"warm lift {label}: {runs} instrumented runs, "
                     f"provenance {sources}")
    return result, seconds


def lift_set(keys, store, tracer, ledger, cold):
    lifts, total = {}, 0.0
    for key in keys:
        lifts[key], seconds = lift(key, store, tracer, ledger, cold)
        total += seconds
    return lifts, total


def open_store(config):
    from repro.store import ArtifactStore

    return ArtifactStore(config["store"])


def tuple_keys(items):
    return [tuple(item) for item in items]


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------

def phase_coldlift(config, tracer, ledger, report) -> None:
    """Time the cold lift of ``config["scenarios"]`` into an empty store."""
    start = clock()
    with tracer.span("setup"):
        import_repro()
        store = open_store(config)
    report["setup_s"] = clock() - start
    lifts, report["lift_s"] = lift_set(tuple_keys(config["scenarios"]),
                                       store, tracer, ledger, cold=True)
    report["counters"] = counters()
    report["store"] = store.stats()
    save_oracles(config, lifts)


def oracle_path(config, name: str, index: int) -> Path:
    return Path(config["oracles"]) / f"{name}-{index}.npy"


def save_oracles(config, lifts) -> None:
    """Write the interp output for every serve target's inputs (untimed)."""
    workload, seed = config["workload"], config["seed"]
    count = INPUTS_PER_TARGET[workload]
    tile = T.SIZES[workload]["tile"]
    Path(config["oracles"]).mkdir(parents=True, exist_ok=True)
    for name in T.TARGETS:
        target = T.build_target(name, lifts,
                                T.make_inputs(seed, workload, name, count),
                                tile)
        for index, request in enumerate(target.requests):
            np.save(oracle_path(config, name, index),
                    T.oracle(target, request))


def load_oracles(config) -> dict:
    """``{(target, engine): [oracle per input]}`` as ``save_oracles`` wrote."""
    count = INPUTS_PER_TARGET[config["workload"]]
    by_name = {name: [np.load(oracle_path(config, name, index))
                      for index in range(count)]
               for name in T.TARGETS}
    return {(name, engine): by_name[name]
            for name in T.TARGETS for engine in T.ENGINES}


def serve_setup(config, tracer, ledger, report):
    """Warm lift + one server per target x engine + each first frame.

    Returns ``(store, lifts, pairs, oracles)`` with ``pairs[(target,
    engine)] = (Target, server, first_output)`` and ``oracles`` as
    :func:`load_oracles` gives them.  Inputs are generated before the set-up
    clock starts; they are not a call into ``repro``.  Each first frame is
    checked against its oracle after the clock stops.
    """
    workload, seed = config["workload"], config["seed"]
    count = INPUTS_PER_TARGET[workload]
    frames = {name: T.make_inputs(seed, workload, name, count)
              for name in T.TARGETS}
    tile = T.SIZES[workload]["tile"]
    start = clock()
    with tracer.span("setup"):
        import_repro()
        from repro.halide import PipelineServer

        store = open_store(config)
        lifts, report["lift_s"] = lift_set(T.SERVE_SCENARIOS, store,
                                           tracer, ledger, cold=False)
        pairs, first_ms = {}, {}
        for name in T.TARGETS:
            for engine in T.ENGINES:
                target = T.build_target(name, lifts, frames[name], tile)
                with tracer.span("serve.construct", target=name,
                                 engine=engine):
                    # Exactly as serve_lifted builds its server.
                    server = PipelineServer(
                        target.target, engine=engine,
                        frame_shape=target.frame_shape, store=store)
                ledger.attempt()
                output = None
                began = clock()
                with tracer.span("serve.first_frame", target=name,
                                 engine=engine):
                    try:
                        output, _ = server.submit(**target.requests[0]).result()
                    except Exception as error:
                        ledger.fail(f"first frame {name}/{engine}: "
                                    f"{type(error).__name__}: {error}")
                first_ms[f"{name}/{engine}"] = (clock() - began) * 1e3
                pairs[(name, engine)] = (target, server, output)
    report["setup_s"] = clock() - start
    report["first_frame_ms"] = first_ms
    oracles = load_oracles(config)
    for pair, (_, _, output) in pairs.items():
        # A first frame that raised is already counted as failed.
        if output is not None and not T.same_bits(output, oracles[pair][0]):
            ledger.mismatch(f"first frame {pair} differs from the oracle")
    return store, lifts, pairs, oracles


def phase_setup(config, tracer, ledger, report) -> None:
    _, _, pairs, _ = serve_setup(config, tracer, ledger, report)
    close_all(pairs)
    report["counters"] = counters()


def close_all(pairs) -> None:
    for _, server, _ in pairs.values():
        server.close(wait=True)


# ---------------------------------------------------------------------------
# Serving under load
# ---------------------------------------------------------------------------

def run_load(config, tracer, ledger, report, servers, requests, oracles,
             pairs_order, inputs_per_pair):
    """The closed loop over ``pairs_order``; fills serving metrics in ``report``.

    ``servers[pair]`` serves ``requests[pair][k]``; ``oracles[pair][k]`` is
    the interp output for it.  The traced run alternates untraced and traced
    slices of equal length and records a span per traced request.
    """
    seconds, nproc = config["seconds"], config["nproc"]
    schedule = seeded_schedule(pairs_order, inputs_per_pair, config["seed"])

    def submit(pair, index):
        return servers[pair].submit(**requests[pair][index])

    def check(pair, index, output):
        return T.same_bits(output, oracles[pair][index])

    def run(slice_seconds, min_requests, traced):
        if not traced:
            return closed_loop(submit, check, schedule, outstanding=nproc,
                               seconds=slice_seconds,
                               min_requests=min_requests,
                               round_length=len(pairs_order), ledger=ledger)
        with tracer.span("serve.load", traced=True) as parent:
            request_ids = iter(range(1, 1 << 62))

            def on_complete(pair, t_submit, t_done, busy, slot):
                request_id = next(request_ids)
                track = f"request slot {slot}"
                span = tracer.add("serve.request", t_submit, t_done,
                                  parent=parent, request_id=request_id,
                                  track=track, target=pair[0],
                                  engine=pair[1])
                tracer.add("serve.busy", max(t_submit, t_done - busy),
                           t_done, parent=span, request_id=request_id,
                           track=track)

            return closed_loop(submit, check, schedule, outstanding=nproc,
                               seconds=slice_seconds,
                               min_requests=min_requests,
                               round_length=len(pairs_order), ledger=ledger,
                               on_complete=on_complete)

    before = counters()
    if not tracer.enabled:
        results = [run(seconds, MIN_FRAMES, False)]
        overhead = None
    else:
        slices = [run(seconds / 4, MIN_FRAMES // 4, traced)
                  for traced in (False, True, False, True)]
        untraced = sum(r.completed for r in slices[0::2]) \
            / sum(r.seconds for r in slices[0::2])
        traced_fps = sum(r.completed for r in slices[1::2]) \
            / sum(r.seconds for r in slices[1::2])
        overhead = untraced / traced_fps if traced_fps else 0.0
        results = slices
    moved = delta(counters(), before)

    frames = [frame for result in results for frame in result.frames]
    if not frames:
        raise RuntimeError("no frame was served correctly")
    latencies = [frame.latency for frame in frames]
    waits = [frame.latency - frame.busy for frame in frames]
    per_pair: dict = {}
    for frame in frames:
        per_pair.setdefault(frame.pair, []).append(frame.latency)
    native_requests = sum(len(values) for pair, values in per_pair.items()
                          if pair[1] == "native")
    # The measured (untraced) run is one loop; its end-to-end figures are
    # medians over slices of it.
    sliced = slice_medians(results[0].frames, results[0].start, MIN_FRAMES)
    native = moved["native"]
    parallel = moved["exec"]
    report["load"] = {
        "frames": len(frames),
        "seconds": sum(result.seconds for result in results),
        "slices": sliced["slices"],
        "frames_per_s": sliced["frames_per_s"],
        "frame_ms_p50": sliced["p50"] * 1e3,
        "frame_ms_p95": sliced["p95"] * 1e3,
        "latencies_ms": [value * 1e3 for value in latencies],
        "max_outstanding": max(result.max_outstanding for result in results),
        "busy_ms_p50": percentile([frame.busy for frame in frames], 50) * 1e3,
        "queue_ms_p50": percentile(waits, 50) * 1e3,
        "queue_ms_p95": percentile(waits, 95) * 1e3,
        "per_pair_p50_ms": {f"{pair[0]}.{pair[1]}": percentile(values, 50)
                            * 1e3 for pair, values in per_pair.items()},
        "native_requests": native_requests,
        "native_frame_share": (native["native_frames"] / native_requests
                               if native_requests else 0.0),
        "segment_calls_per_frame": (native["segment_calls"] / native_requests
                                    if native_requests else 0.0),
        "parallel_share": (parallel["parallel"]
                           / (parallel["parallel"] + parallel["serial"])
                           if parallel["parallel"] + parallel["serial"]
                           else 0.0),
        "tiles_per_frame": (parallel["tiles_parallel"]
                            + parallel["tiles_serial"]) / len(frames),
        "tile_retries": parallel["tile_retries"],
        "overhead_ratio": overhead,
        "counters": moved,
    }


def compute_oracles(tracer, items):
    """Interp outputs for ``[(key, Target), ...]`` (untimed prep)."""
    oracles = {}
    with tracer.span("oracle"):
        for key, target in items:
            oracles[key] = [T.oracle(target, request)
                            for request in target.requests]
    return oracles


# ---------------------------------------------------------------------------
# Tuning
# ---------------------------------------------------------------------------

def tune_chain(tracer, ledger, report, lifts, store, frames):
    """One autotune session (empty tuning DB), then a warm-starting server.

    Returns ``(tuned_target, server, tune_result)``.  The server is built as
    ``PipelineServer`` users build it: the engine is *not* passed into the
    warm-start lookup.
    """
    from repro.halide import PipelineServer, autotune_pipeline, tuner_stats

    frame = frames[0]
    chain = T.build_chain3(lifts, root=False)
    before = dict(tuner_stats)
    ledger.attempt()
    began = clock()
    with tracer.span("tune.autotune_pipeline"):
        try:
            result = autotune_pipeline(chain, frame,
                                       iterations=T.TUNE_ITERATIONS,
                                       seed=T.TUNE_SEED, engine="native",
                                       store=store)
        except Exception as error:
            ledger.fail(f"tune: {type(error).__name__}: {error}")
            raise
    report["tune_s"] = clock() - began
    tuned_stats = delta(dict(tuner_stats), before)

    tuned = T.Target("chain3_tuned", T.build_chain3(lifts, root=False),
                     [{"image": frame} for frame in frames],
                     tuple(frame.shape))
    before = dict(tuner_stats)
    with tracer.span("serve.construct", target="chain3_tuned",
                     engine="native"):
        server = PipelineServer(tuned.target, engine="native",
                                frame_shape=tuned.frame_shape, store=store)
    warm = delta(dict(tuner_stats), before)
    lookups = warm["warm_start_hits"] + warm["warm_start_misses"]
    report["tune"] = {
        "candidates": len(result.candidates),
        "timed_evaluations": tuned_stats["timed_evaluations"],
        "best_ms": result.best_time * 1e3,
        "best_schedules": [s.describe() for s in result.best_schedules],
        "warm_started": server.warm_started,
        "warm_hit_ratio": warm["warm_start_hits"] / lookups if lookups
        else 0.0,
        "served_schedules": [stage.func.schedule.describe()
                             for stage in tuned.target.stages],
    }
    return tuned, server, result


def tuned_frames(tracer, ledger, tuned, server, oracle) -> list[float]:
    """One burst of sequential frames through the warm-started server.

    Returns the seconds of each correct frame.
    """
    times = []
    began = clock()
    index = 0
    while (len(times) < TUNED_FRAMES or clock() - began < TUNED_SECONDS) \
            and index < MAX_TUNED_FRAMES:
        k = index % len(tuned.requests)
        index += 1
        ledger.attempt()
        start = clock()
        with tracer.span("serve.tuned_frame"):
            try:
                output, _ = server.submit(**tuned.requests[k]).result()
            except Exception as error:
                ledger.fail(f"tuned frame: {type(error).__name__}: {error}")
                continue
        elapsed = clock() - start
        if not T.same_bits(output, oracle[k]):
            ledger.mismatch("tuned frame differs from the interp oracle")
            continue
        times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# Traced-only layer probes
# ---------------------------------------------------------------------------

def _median_time(fn, repeats=PROBE_REPEATS):
    times = []
    for _ in range(repeats):
        start = clock()
        fn()
        times.append(clock() - start)
    return median(times)


def probe_pipelines(tracer, ledger, report, probes):
    """Time lowering, backend execute and front-end overhead per pipeline.

    ``probes`` is ``[(label, fresh_pipeline_factory, served_pipeline,
    engine, image, expected_output)]``.
    """
    from repro.halide import PipelineLoweringError, get_backend

    lower_ms, execute_ms, overhead_ms = [], [], []
    for label, factory, pipeline, engine, image, expected in probes:
        fresh = factory()
        if not fresh.uses_lowering():
            continue
        start = clock()
        try:
            with tracer.span("halide.lower", target=label):
                fresh.lower(tuple(image.shape))
        except PipelineLoweringError:
            continue
        lower_ms.append((clock() - start) * 1e3)
        lowered = pipeline.lower(tuple(image.shape))
        backend = get_backend(engine)
        output = backend.execute(lowered, image)
        ledger.check(T.same_bits(output, expected),
                     f"{label}/{engine} execute differs from the oracle")
        # Paired repeats: each realize is compared with the execute just
        # before it, so host drift does not land in the difference.
        executes, overheads = [], []
        for _ in range(PROBE_REPEATS):
            start = clock()
            with tracer.span("backend.execute", target=label, engine=engine):
                backend.execute(lowered, image)
            middle = clock()
            with tracer.span("pipeline.realize", target=label, engine=engine):
                pipeline.realize(image, engine=engine)
            end = clock()
            executes.append(middle - start)
            overheads.append((end - middle) - (middle - start))
        execute_ms.append(median(executes) * 1e3)
        overhead_ms.append(median(overheads) * 1e3)
    for key, values in (("lower_ms", lower_ms), ("execute_ms", execute_ms),
                        ("overhead_ms", overhead_ms)):
        report[key] = sum(values) / len(values) if values else 0.0


def probe_native_share(tracer, ledger, report, pairs, oracles):
    """Native frames per native request, single-Func vs pipeline targets."""
    from repro.halide.backends.native import native_stats

    shares = {"func": [0, 0], "pipeline": [0, 0]}
    for (name, engine), (target, server, _) in pairs.items():
        if engine != "native":
            continue
        kind = "pipeline" if target.is_pipeline else "func"
        before = native_stats()["native_frames"]
        ledger.attempt()
        with tracer.span("serve.native_probe", target=name):
            output, _ = server.submit(**target.requests[0]).result()
        if not T.same_bits(output, oracles[(name, engine)][0]):
            ledger.mismatch(f"{name}/native probe differs from the oracle")
        shares[kind][0] += native_stats()["native_frames"] - before
        shares[kind][1] += 1
    report["native_func_share"] = shares["func"][0] / max(shares["func"][1], 1)
    report["native_pipeline_share"] = \
        shares["pipeline"][0] / max(shares["pipeline"][1], 1)


def probe_tuner(tracer, ledger, report, lifts, result, frame):
    """Time the cost model's ranking and every sampled candidate."""
    from repro.halide import rank_pipeline_candidates

    chain = T.build_chain3(lifts, root=False)
    start = clock()
    with tracer.span("costmodel.rank"):
        rank_pipeline_candidates(chain, tuple(frame.shape), result.candidates,
                                 backend="native")
    report["rank_ms"] = (clock() - start) * 1e3
    times, pick_time = [], None
    for candidate in result.candidates:
        pipeline = T.chain3_with(lifts, candidate)
        with tracer.span("costmodel.time_candidate"):
            pipeline.realize(frame, engine="native")      # compile / lower
            seconds = _median_time(
                lambda: pipeline.realize(frame, engine="native"), 3)
        times.append(seconds)
        # best_schedules holds the winning candidate's own Schedule objects.
        if all(a is b for a, b in zip(candidate, result.best_schedules)):
            pick_time = seconds
    report["topk_regret"] = (pick_time / min(times)
                             if pick_time is not None else 0.0)


# ---------------------------------------------------------------------------
# The measured work
# ---------------------------------------------------------------------------

def phase_main(config, tracer, ledger, report) -> None:
    """Set-up (as the ``setup`` phase), one autotune session + a
    warm-started server at the workload's planar frame size, then the closed
    loop over every target x engine.
    """
    workload, seed = config["workload"], config["seed"]
    store, lifts, pairs, oracles = serve_setup(config, tracer, ledger, report)
    tune_inputs = T.make_tune_inputs(seed, T.SIZES[workload]["planar"], 2)

    # The tuned server's frames come in two bursts, before and after the
    # closed loop.  Its first frame (lazy lowering, kernel compile, native
    # ``cc``) is reported apart and left out of the median.
    tuned, tuned_server, tune_result = tune_chain(
        tracer, ledger, report, lifts, store, tune_inputs)
    tuned_oracle = compute_oracles(
        tracer, [("chain3_tuned", tuned)])["chain3_tuned"]
    times = tuned_frames(tracer, ledger, tuned, tuned_server, tuned_oracle)
    if times:
        report["tuned_first_frame_ms"] = times.pop(0) * 1e3
    servers = {pair: server for pair, (_, server, _) in pairs.items()}
    requests = {pair: target.requests for pair, (target, _, _) in pairs.items()}
    run_load(config, tracer, ledger, report, servers, requests, oracles,
             list(pairs), INPUTS_PER_TARGET[workload])
    times += tuned_frames(tracer, ledger, tuned, tuned_server, tuned_oracle)
    report["tuned_frame_ms"] = median(times) * 1e3 if times else 0.0

    if tracer.enabled:
        tile = T.SIZES[workload]["tile"]
        factories = {
            "blur2_at": lambda: T.build_blur2_at(lifts, tile),
            "chain3_root": lambda: T.build_chain3(lifts),
        }
        probes = [(name, factories[name], pairs[(name, engine)][0].target,
                   engine, pairs[(name, engine)][0].requests[0]["image"],
                   oracles[(name, engine)][0])
                  for name in T.PIPELINE_TARGETS for engine in T.ENGINES]
        probe_native_share(tracer, ledger, report, pairs, oracles)
        probe_pipelines(tracer, ledger, report, probes)
        probe_tuner(tracer, ledger, report, lifts, tune_result,
                    tune_inputs[0])

    tuned_server.close(wait=True)
    close_all(pairs)
    stats = [server.stats() for _, server, _ in pairs.values()] \
        + [tuned_server.stats()]
    report["serve_retries"] = sum(s["retries"] for s in stats)
    report["serve_degraded"] = sum(s["degraded"] for s in stats)
    from repro.halide import pool_size

    report["pool_size"] = pool_size()
    # The process is fresh, so its counters are deltas over the workload.
    report["counters"] = counters()
    report["store"] = store.stats()


PHASES = {"coldlift": phase_coldlift, "setup": phase_setup,
          "main": phase_main}


def main(argv) -> int:
    config = json.loads(Path(argv[1]).read_text())
    tracer = Tracer(enabled=bool(config["trace"]))
    ledger = Ledger()
    report = {"phase": config["phase"], "name": config["name"]}
    try:
        PHASES[config["phase"]](config, tracer, ledger, report)
    except Exception as error:
        ledger.fail(f"{config['name']}: {type(error).__name__}: {error}")
        report["error"] = traceback.format_exc()
    report["ledger"] = ledger.as_dict()
    report["spans"] = tracer.export()
    report["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(config["out"]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
