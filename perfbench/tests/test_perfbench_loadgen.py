"""The closed-loop generator and the seeded inputs."""

import random
import threading
import time

import numpy as np
import pytest

from perfbench import targets as T
from perfbench.loadgen import closed_loop, seeded_schedule
from perfbench.stats import Ledger


@pytest.mark.parametrize("outstanding", [1, 2, 3])
def test_generator_never_exceeds_outstanding(outstanding):
    import concurrent.futures

    lock = threading.Lock()
    live = {"now": 0, "peak": 0}
    rng = random.Random(outstanding)
    delays = [rng.uniform(0, 0.002) for _ in range(64)]

    def work(pair, index):
        with lock:
            live["now"] += 1
            live["peak"] = max(live["peak"], live["now"])
        time.sleep(delays[index])
        with lock:
            live["now"] -= 1
        return np.zeros(1), 0.0

    # More workers than the limit, so only the generator can enforce it.
    pool = concurrent.futures.ThreadPoolExecutor(outstanding + 3)
    try:
        result = closed_loop(
            lambda pair, index: pool.submit(work, pair, index),
            lambda pair, index, out: True,
            seeded_schedule(["a", "b", "c"], len(delays), seed=1),
            outstanding=outstanding, seconds=0.05, min_requests=60,
            round_length=3, ledger=Ledger())
    finally:
        pool.shutdown()
    assert live["peak"] <= outstanding
    assert result.max_outstanding <= outstanding
    assert result.submitted >= 60 and result.submitted % 3 == 0
    assert result.completed == result.submitted


def test_on_complete_slots_never_overlap():
    import concurrent.futures

    pool = concurrent.futures.ThreadPoolExecutor(4)
    seen = []
    try:
        closed_loop(
            lambda pair, index: pool.submit(
                lambda: (time.sleep(0.001), (None, 0.0))[1]),
            lambda pair, index, out: True,
            seeded_schedule(["a"], 1, seed=0), outstanding=2, seconds=0.0,
            min_requests=20, round_length=1, ledger=Ledger(),
            on_complete=lambda pair, t0, t1, busy, slot:
                seen.append((slot, t0, t1)))
    finally:
        pool.shutdown()
    assert {slot for slot, _, _ in seen} <= {0, 1}
    for slot in (0, 1):
        spans = sorted((t0, t1) for s, t0, t1 in seen if s == slot)
        assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


def test_schedule_is_seeded_and_covers_every_pair_per_round():
    pairs = [("t1", "compiled"), ("t1", "native"), ("t2", "compiled")]
    first = [next(s) for s in [seeded_schedule(pairs, 4, seed=5)] * 30]
    again = [next(s) for s in [seeded_schedule(pairs, 4, seed=5)] * 30]
    other = [next(s) for s in [seeded_schedule(pairs, 4, seed=6)] * 30]
    assert first == again
    assert first != other
    for start in range(0, 30, 3):
        assert sorted(p for p, _ in first[start:start + 3]) == sorted(pairs)
    assert all(0 <= index < 4 for _, index in first)


@pytest.mark.parametrize("workload", ["serve-large", "serve-small"])
def test_inputs_are_a_function_of_the_seed(workload):
    for target in T.TARGETS:
        a = T.make_inputs(11, workload, target, 2)
        b = T.make_inputs(11, workload, target, 2)
        c = T.make_inputs(12, workload, target, 2)
        assert all(T.same_bits(x, y) for x, y in zip(a, b))
        assert not T.same_bits(a[0], c[0])
        assert not T.same_bits(a[0], a[1])
    grid = T.make_inputs(0, workload, "gmg_smooth", 1)[0]
    nx, ny, nz = T.SIZES[workload]["grid"]
    assert grid.shape == (nz + 2, ny + 2, nx + 2)
    planar = T.SIZES[workload]["planar"]
    tune = T.make_tune_inputs(3, planar, 2)
    assert all(T.same_bits(x, y) for x, y in
               zip(tune, T.make_tune_inputs(3, planar, 2)))
    assert tune[0].shape == (planar[1], planar[0])


def test_same_bits_is_bitwise():
    zero = np.zeros(3)
    assert T.same_bits(zero, zero.copy())
    assert not T.same_bits(zero, -zero)            # -0.0 has other bits
    nan = np.full(2, np.nan)
    assert T.same_bits(nan, nan.copy())
    assert not T.same_bits(zero.astype(np.float32), zero)
    assert not T.same_bits(None, zero)
