"""The repo benchmark: one command, two workloads, outputs checked.

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 6 --trace 0

Each phase of a run executes in a fresh Python process (``worker.py``) with
a private artifact store under ``.perfbench/`` in the checkout; the
repository's ``.repro_store/`` is never read or written.  With ``--trace 0``
the last stdout line is a JSON object carrying every end-to-end metric; with
``--trace 1`` the same workload runs with spans around every call into a
``repro`` layer, reports the per-layer metrics instead and writes a Chrome
trace to ``.perfbench/traces/``.  Exits non-zero on any failed operation,
wrong frame or failed validation.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import targets as T  # noqa: E402
from perfbench.host import host_facts, nproc  # noqa: E402
from perfbench.stats import Ledger, median, tail_percentile  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    spans_from_dicts, totals_by_name, write_chrome_trace)

WORKLOADS = ("serve-large", "serve-small")

#: A run must end within this many seconds (the phases share the budget).
RUN_BUDGET_S = 170.0

#: Fresh processes that repeat the set-up after the measured process; one
#: more runs before it.  The warm lift inside set-up takes under two
#: seconds, and the host's speed swings for seconds at a time, so one sample
#: can move by a fifth and samples taken back to back move together.  Spread
#: over the run, their median is steadier.
SETUPS_AFTER = 2

END_TO_END = (
    ("setup_s", "s"),
    ("frames_per_s", "frames/s"),
    ("frame_ms_p50", "ms"),
    ("frame_ms_p95", "ms"),
    ("lift_cold_s", "s"),
    ("lift_warm_s", "s"),
    ("tune_s", "s"),
    ("tuned_frame_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)

LIFT_STAGES = ("coverage", "screen", "localize", "trace", "forward",
               "buffers", "trees", "codegen")

PER_LAYER = (
    *((f"lift.{stage}_s", "s") for stage in LIFT_STAGES),
    ("dynamo.instrumented_runs", "count"),
    ("ir.canon_hit_ratio", "ratio"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.puts", "count"),
    ("lower.ms", "ms"),
    ("serve.construct_s", "s"),
    ("compile.kernel_hits", "count"),
    ("compile.kernel_misses", "count"),
    ("native.frame_share", "ratio"),
    ("native.func_frame_share", "ratio"),
    ("native.pipeline_frame_share", "ratio"),
    ("native.compiles", "count"),
    ("native.store_hits", "count"),
    ("native.degraded", "count"),
    ("native.first_frame_ms", "ms"),
    ("native.segment_calls_per_frame", "count"),
    ("backend.execute_ms", "ms"),
    ("frontend.overhead_ms", "ms"),
    ("parallel.parallel_share", "ratio"),
    ("parallel.tiles_per_frame", "count"),
    ("parallel.tile_retries", "count"),
    ("serve.busy_ms_p50", "ms"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p95", "ms"),
    ("serve.retries", "count"),
    ("serve.degraded", "count"),
    *((f"target.{name}.{engine}.frame_ms_p50", "ms")
      for name in T.TARGETS for engine in T.ENGINES),
    ("tune.candidates", "count"),
    ("tune.timed_evaluations", "count"),
    ("tune.rank_ms", "ms"),
    ("costmodel.topk_regret", "ratio"),
    ("tuningdb.warm_hit_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("error_rate", "ratio"),
)


def run_seconds() -> float:
    """``run_seconds`` from ``BENCHMARK.json``: the default ``--seconds``."""
    return float(json.loads((ROOT / "BENCHMARK.json").read_text())
                 ["run_seconds"])


class RunFailed(RuntimeError):
    pass


def plan() -> list[dict]:
    """The run's phases, in order; each runs in its own fresh process.

    The cold lift comes first and writes the store; each later phase starts
    from its own copy of that store.  One set-up repeat runs before the
    measured ``main`` process and ``SETUPS_AFTER`` after it.
    """
    setups = [{"phase": "setup", "name": f"setup-{i}"}
              for i in range(1 + SETUPS_AFTER)]
    return [{"phase": "coldlift", "name": "coldlift-0",
             "scenarios": [list(key) for key in T.SERVE_SCENARIOS]},
            setups[0], {"phase": "main", "name": "main"}, *setups[1:]]


def main_report(reports) -> dict:
    """The ``main`` phase's report ({} when the run failed before it)."""
    return next((r for r in reports if r["phase"] == "main"), {})


def run_phases(args, run_dir: Path, deadline: float) -> list[dict]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["REPRO_STORE_DIR"] = str(run_dir / "default-store")
    env["REPRO_NUM_THREADS"] = str(nproc())
    # Every run takes the same hash-ordered paths through the lift.
    env["PYTHONHASHSEED"] = "0"
    # No run writes bytecode, so every run imports repro as the first does
    # on a fresh checkout: compiled from source, inside set-up.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("REPRO_FAULTS", None)
    reports = []
    for phase in plan():
        store = run_dir / "lift"
        if phase["phase"] != "coldlift":
            store = run_dir / f"store-{phase['name']}"
            shutil.copytree(run_dir / "lift", store)
        config = dict(phase, store=str(store), workload=args.workload,
                      seed=args.seed, trace=args.trace,
                      seconds=args.seconds, nproc=nproc(),
                      oracles=str(run_dir / "oracles"),
                      out=str(run_dir / f"{phase['name']}.json"))
        config_path = run_dir / f"{phase['name']}.config.json"
        config_path.write_text(json.dumps(config))
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RunFailed(f"time budget exhausted before {phase['name']}")
        began = time.monotonic()
        try:
            completed = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(config_path)],
                cwd=ROOT, env=env, timeout=remaining,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        except subprocess.TimeoutExpired:
            raise RunFailed(f"phase {phase['name']} timed out") from None
        out = Path(config["out"])
        if completed.returncode != 0 or not out.exists():
            raise RunFailed(f"phase {phase['name']} exited "
                            f"{completed.returncode}:\n{completed.stdout}")
        report = json.loads(out.read_text())
        report["wall_s"] = time.monotonic() - began
        if "error" in report:
            raise RunFailed(f"phase {phase['name']} failed:\n"
                            f"{report['error']}")
        reports.append(report)
        if phase["phase"] != "coldlift":
            shutil.rmtree(store, ignore_errors=True)
    return reports


def _sum(reports, *path) -> float:
    total = 0
    for report in reports:
        value = report
        for key in path:
            value = value.get(key, {}) if isinstance(value, dict) else {}
        total += value if isinstance(value, (int, float)) else 0
    return total


def cold_report(reports) -> dict:
    return next(r for r in reports if r["phase"] == "coldlift")


def end_to_end(reports) -> dict:
    main = main_report(reports)
    load = main["load"]
    # Set-up (its warm lift included) runs in every process but the first.
    served = [r for r in reports if r["phase"] != "coldlift"]
    return {
        "setup_s": median([r["setup_s"] for r in served]),
        "frames_per_s": load["frames_per_s"],
        "frame_ms_p50": load["frame_ms_p50"],
        "frame_ms_p95": load["frame_ms_p95"],
        "lift_cold_s": cold_report(reports)["lift_s"],
        "lift_warm_s": median([r["lift_s"] for r in served]),
        "tune_s": main["tune_s"],
        "tuned_frame_ms": main["tuned_frame_ms"],
        "peak_rss_mb": max(r["rss_kib"] for r in reports) / 1024.0,
    }


def per_layer(reports, ledger) -> dict:
    main = main_report(reports)
    load = main["load"]
    cold_spans = spans_from_dicts(cold_report(reports)["spans"])
    metrics = {f"lift.{stage}_s": sum(span.duration for span in cold_spans
                                      if span.name == f"lift.{stage}")
               for stage in LIFT_STAGES}
    canon_hits = _sum(reports, "counters", "canon", "hits")
    canon_all = canon_hits + _sum(reports, "counters", "canon", "misses")
    main_spans = totals_by_name(spans_from_dicts(main["spans"]))
    native_first = [ms for pair, ms in main["first_frame_ms"].items()
                    if pair.endswith("/native")]
    metrics.update({
        "dynamo.instrumented_runs": _sum(reports, "counters", "app_runs"),
        "ir.canon_hit_ratio": canon_hits / canon_all if canon_all else 0.0,
        "store.hits": _sum(reports, "store", "hits"),
        "store.misses": _sum(reports, "store", "misses"),
        "store.puts": _sum(reports, "store", "puts"),
        "lower.ms": main["lower_ms"],
        "serve.construct_s": main_spans.get("serve.construct",
                                            {}).get("seconds", 0.0),
        "compile.kernel_hits": _sum(reports, "counters", "kernel", "hits"),
        "compile.kernel_misses": _sum(reports, "counters", "kernel",
                                      "misses"),
        "native.frame_share": load["native_frame_share"],
        "native.func_frame_share": main["native_func_share"],
        "native.pipeline_frame_share": main["native_pipeline_share"],
        "native.compiles": _sum(reports, "counters", "native", "compiles"),
        "native.store_hits": _sum(reports, "counters", "native",
                                  "store_hits"),
        "native.degraded": _sum(reports, "counters", "native", "degraded"),
        "native.first_frame_ms": (sum(native_first) / len(native_first)
                                  if native_first else 0.0),
        "native.segment_calls_per_frame": load["segment_calls_per_frame"],
        "backend.execute_ms": main["execute_ms"],
        "frontend.overhead_ms": main["overhead_ms"],
        "parallel.parallel_share": load["parallel_share"],
        "parallel.tiles_per_frame": load["tiles_per_frame"],
        "parallel.tile_retries": load["tile_retries"],
        "serve.busy_ms_p50": load["busy_ms_p50"],
        "serve.queue_ms_p50": load["queue_ms_p50"],
        "serve.queue_ms_p95": load["queue_ms_p95"],
        "serve.retries": main["serve_retries"],
        "serve.degraded": main["serve_degraded"],
        "tune.candidates": main["tune"]["candidates"],
        "tune.timed_evaluations": main["tune"]["timed_evaluations"],
        "tune.rank_ms": main["rank_ms"],
        "costmodel.topk_regret": main["topk_regret"],
        "tuningdb.warm_hit_ratio": main["tune"]["warm_hit_ratio"],
        "trace.overhead_ratio": load["overhead_ratio"],
        "error_rate": ledger.error_rate,
    })
    for name in T.TARGETS:
        for engine in T.ENGINES:
            metrics[f"target.{name}.{engine}.frame_ms_p50"] = \
                load["per_pair_p50_ms"].get(f"{name}.{engine}", 0.0)
    return metrics


def describe(reports, ledger, facts) -> list[str]:
    """Human-readable context printed before the result line."""
    main = main_report(reports)
    lines = [f"host: {json.dumps(facts, sort_keys=True)}"]
    load = main.get("load")
    if load:
        p, value, n = tail_percentile(load["latencies_ms"])
        lines.append(f"frames: n={n} over {load['seconds']:.2f}s in "
                     f"{load['slices']} slice(s), max outstanding "
                     f"{load['max_outstanding']}; highest percentile with "
                     f">=10 samples beyond: p{p} = {value:.3f} ms")
    tune = main.get("tune")
    if tune:
        lines.append(f"tune: best {tune['best_ms']:.3f} ms "
                     f"{tune['best_schedules']}; warm-started server "
                     f"{tune['warm_started']} serving "
                     f"{tune['served_schedules']}")
    lines.append(f"error_rate = {ledger.error_rate:.6f} ratio "
                 f"({ledger.errors} of {ledger.attempted} operations)")
    lines += [f"note: {note}" for note in ledger.notes]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    out_root = ROOT / ".perfbench"
    run_dir = out_root / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ledger = Ledger()
    reports: list[dict] = []
    error = None
    try:
        reports = run_phases(args, run_dir, started + RUN_BUDGET_S)
    except RunFailed as failure:
        error = str(failure)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for report in reports:
        ledger.merge(report["ledger"])
    facts = host_facts(args.seed, main_report(reports).get("pool_size"))
    phases = ", ".join(f"{r['name']} {r['wall_s']:.1f}s" for r in reports)
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g} phases: {phases}")
    for line in describe(reports, ledger, facts):
        print(line)
    if error is not None:
        print(f"perfbench: run failed: {error}", file=sys.stderr)
        return 1

    if args.trace:
        values, units = per_layer(reports, ledger), PER_LAYER
        trace_dir = out_root / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{args.seed}.json"
        processes = [(r["name"], spans_from_dicts(r["spans"]))
                     for r in reports]
        write_chrome_trace(trace_path, processes)
        print(f"trace: {trace_path.relative_to(ROOT)} (open in "
              "https://ui.perfetto.dev)")
        # Span ids are per process, so self time is worked out per process.
        totals: dict = {}
        for _, spans in processes:
            for name, entry in totals_by_name(spans).items():
                total = totals.setdefault(name, dict.fromkeys(entry, 0))
                for key, value in entry.items():
                    total[key] += value
        for name, entry in sorted(totals.items()):
            print(f"span {name}: n={entry['count']} total "
                  f"{entry['seconds']:.4f}s self {entry['self']:.4f}s")
    else:
        values, units = end_to_end(reports), END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units}
    native_degraded = facts["native"] != "available"
    for name, unit in units:
        label = "  [degraded: no toolchain]" if native_degraded \
            and name.startswith(("native.", "target.")) \
            and ".native." in f".{name}." else ""
        print(f"{name} = {values[name]:.6g} {unit}{label}")
    results_dir = out_root / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"host": facts, "metrics": metrics,
                              "ledger": ledger.as_dict()}, indent=1))
    correct = ledger.errors == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.errors, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
