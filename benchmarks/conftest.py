"""Shared workloads and helpers for the figure-reproduction benchmarks.

The paper evaluates on a 11959x8135 truecolor image; the benchmarks here use a
smaller image so the whole suite runs in minutes, but every comparison keeps
the paper's structure (same filters, same baselines, same pipelines).  Each
benchmark prints a table with the paper's numbers alongside the measured ones;
EXPERIMENTS.md records a captured run.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.apps.images import make_test_planes

# The independent stage-by-stage pipeline oracle lives with the unit tests.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from stage_reference import realize_stage_by_stage  # noqa: E402,F401

#: Benchmark image size (width, height).
BENCH_WIDTH = 480
BENCH_HEIGHT = 320

#: Larger image for the multicore/batched benchmarks: tile-parallel execution
#: needs enough work per realization for the fan-out to pay off.
LARGE_WIDTH = 960
LARGE_HEIGHT = 640

#: Collected measurements, written to BENCH_results.json at session end so
#: the perf trajectory is machine-readable across PRs.
BENCH_RESULTS: dict[str, dict] = {}

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_results.json"


def record_bench(name: str, seconds: float, engine: str = "",
                 image_size: tuple[int, int] | None = None, **extra) -> None:
    """Record one benchmark's best wall-clock time for BENCH_results.json."""
    entry = {
        "best_seconds": round(seconds, 6),
        "engine": engine,
        "image_size": list(image_size if image_size is not None
                           else (BENCH_WIDTH, BENCH_HEIGHT)),
    }
    entry.update(extra)
    BENCH_RESULTS[name] = entry


def pytest_sessionfinish(session, exitstatus):
    if not BENCH_RESULTS:
        return
    # Merge into any existing results so a partial benchmark run (a smoke
    # subset, -k selection) refreshes only what it measured instead of
    # clobbering the rest of the tracked trajectory.
    results: dict[str, dict] = {}
    if RESULTS_PATH.exists():
        try:
            results = json.loads(RESULTS_PATH.read_text()).get("results", {})
        except (json.JSONDecodeError, OSError):
            results = {}
    results.update(BENCH_RESULTS)
    payload = {
        "image_size": [BENCH_WIDTH, BENCH_HEIGHT],
        "python": platform.python_version(),
        "machine": platform.machine(),
        # Keys actually measured by THIS session (the merge above keeps
        # older entries verbatim); the CI regression gate only compares
        # these, so stale carried-over numbers can neither fail nor skew it.
        "last_run_keys": sorted(BENCH_RESULTS),
        "results": dict(sorted(results.items())),
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")


@pytest.fixture(scope="session")
def bench_planes() -> dict[str, np.ndarray]:
    return make_test_planes(BENCH_WIDTH, BENCH_HEIGHT, seed=42)


@pytest.fixture(scope="session")
def bench_planes_large() -> dict[str, np.ndarray]:
    return make_test_planes(LARGE_WIDTH, LARGE_HEIGHT, seed=7)


@pytest.fixture(scope="session")
def bench_interleaved(bench_planes) -> np.ndarray:
    return np.stack([bench_planes["r"], bench_planes["g"], bench_planes["b"]], axis=-1)


def time_callable(fn, repeats: int = 3) -> float:
    """Best wall-clock seconds of ``fn()`` over a few repeats.

    The first repeat doubles as warm-up (it may include one-time costs such as
    the cached lifting runs), so the minimum is the stable measurement.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return min(samples)


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    widths = [max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
              for i in range(len(headers))]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
