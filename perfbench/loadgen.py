"""Closed-loop load generator: one thread, at most ``outstanding`` in flight.

The generator submits the next request of a fixed seeded schedule as soon
as fewer than ``outstanding`` requests are in flight.  Each request's
latency runs from the ``submit`` call until its future completes, stamped
by a done-callback.  Completed outputs are checked against the oracle on the
generator thread while the other requests run.
"""

from __future__ import annotations

import collections
import random
import threading
import time
from dataclasses import dataclass, field

clock = time.perf_counter

#: Hard stop for a loop, as a multiple of its ``seconds`` plus a margin, so a
#: stalled server cannot hold the run past the command's time limit.
MAX_SECONDS_FACTOR, MAX_SECONDS_MARGIN = 3, 30


def seeded_schedule(pairs, inputs_per_pair: int, seed: int):
    """Endless rounds: every pair once per round, in a seeded order, each
    with a seeded choice among its distinct inputs."""
    rng = random.Random(seed)
    pairs = list(pairs)
    while True:
        order = pairs[:]
        rng.shuffle(order)
        for pair in order:
            yield pair, rng.randrange(inputs_per_pair)


@dataclass
class Frame:
    """One request that completed with the right output."""

    pair: object
    submitted: float
    done: float
    busy: float                     # the server's own seconds

    @property
    def latency(self) -> float:
        return self.done - self.submitted


@dataclass
class LoadResult:
    start: float = 0.0
    seconds: float = 0.0            # wall time of the loop
    submitted: int = 0
    max_outstanding: int = 0
    frames: list = field(default_factory=list)      # [Frame], in done order

    @property
    def completed(self) -> int:
        return len(self.frames)


def closed_loop(submit, check, schedule, *, outstanding: int, seconds: float,
                min_requests: int, round_length: int, ledger,
                on_complete=None) -> LoadResult:
    """Drive ``submit(pair, input_index) -> Future`` for ``seconds``.

    The loop stops at a round boundary once ``seconds`` have passed and at
    least ``min_requests`` were submitted (or at the hard stop, see
    ``MAX_SECONDS_FACTOR``).  A future resolves to ``(output,
    busy_seconds)`` as :class:`repro.halide.PipelineServer` futures do;
    ``check(pair, index, output)`` says whether the output is right.  A
    submit that raises is a refused request, a future that raises is a
    failed request, a wrong output is a wrong request; all three count in
    ``ledger``.
    """
    if outstanding < 1:
        raise ValueError("outstanding must be at least 1")
    slots = threading.Semaphore(outstanding)
    done = collections.deque()
    lock = threading.Lock()
    state = {"inflight": 0}
    free_slots = list(range(outstanding - 1, -1, -1))
    result = LoadResult()
    max_seconds = MAX_SECONDS_FACTOR * seconds + MAX_SECONDS_MARGIN

    def finished(entry, future):
        entry[3] = clock()
        with lock:
            state["inflight"] -= 1
            free_slots.append(entry[4])
        done.append((entry, future))
        slots.release()

    def drain():
        while done:
            (pair, index, t_submit, t_done, slot), future = done.popleft()
            try:
                output, busy = future.result()
            except Exception as error:              # the request failed
                ledger.fail(f"{pair}: {type(error).__name__}: {error}")
                continue
            if not check(pair, index, output):
                ledger.mismatch(f"{pair} input {index}: output differs "
                                "from the interp oracle")
                continue
            result.frames.append(Frame(pair, t_submit, t_done, busy))
            if on_complete is not None:
                on_complete(pair, t_submit, t_done, busy, slot)

    start = result.start = clock()
    while True:
        elapsed = clock() - start
        if result.submitted % round_length == 0 and (
                (elapsed >= seconds and result.submitted >= min_requests)
                or elapsed >= max_seconds):
            break
        slots.acquire()
        drain()
        pair, index = next(schedule)
        ledger.attempt()
        result.submitted += 1
        with lock:
            state["inflight"] += 1
            slot = free_slots.pop()
            result.max_outstanding = max(result.max_outstanding,
                                         state["inflight"])
        entry = [pair, index, clock(), None, slot]
        try:
            future = submit(pair, index)
        except Exception as error:                 # refused at submit
            with lock:
                state["inflight"] -= 1
                free_slots.append(slot)
            slots.release()
            ledger.fail(f"{pair}: submit refused: "
                        f"{type(error).__name__}: {error}")
            continue
        future.add_done_callback(
            lambda fut, entry=entry: finished(entry, fut))
    for _ in range(outstanding):                   # wait for the stragglers
        slots.acquire()
    result.seconds = clock() - start
    drain()
    result.frames.sort(key=lambda frame: frame.done)
    return result
