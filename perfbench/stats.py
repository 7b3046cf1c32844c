"""Percentiles, quartiles and the error ledger (no dependency on ``repro``)."""

from __future__ import annotations

import math
import statistics

#: Candidate percentiles for a latency tail, lowest first.
TAIL_PERCENTILES = (50, 90, 95, 99, 99.9)

#: A percentile is only reported when at least this many samples lie beyond it.
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    # Rounded before ceil so that 99.9 % of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the smallest sample >= ``p`` % of all samples."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank ``p``."""
    return n - _rank(n, p) if n else 0


def has_percentile(n: int, p: float) -> bool:
    return samples_beyond(n, p) >= MIN_BEYOND


def tail_percentile(samples):
    """The highest of ``TAIL_PERCENTILES`` with ``MIN_BEYOND`` samples beyond it.

    Returns ``(p, value, n)``; ``p`` and ``value`` are ``None`` when even the
    median has fewer than ``MIN_BEYOND`` samples beyond it.
    """
    n = len(samples)
    best = None
    for p in TAIL_PERCENTILES:
        if has_percentile(n, p):
            best = p
    if best is None:
        return None, None, n
    return best, percentile(samples, best), n


def median(samples) -> float:
    return statistics.median(samples)


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles`` gives."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else float("inf")


def slice_medians(frames, start: float, size: int) -> dict:
    """Throughput, p50 and p95 as medians over slices of a closed loop.

    ``frames`` are completed requests in done order (objects with ``done``
    and ``latency``), ``start`` the loop's start.  They are cut into
    ``len(frames) // size`` consecutive slices of at least ``size`` frames
    each (one slice when there are fewer), so every slice's p95 has
    ``size / 20`` samples beyond it.  A slice lasts from the previous
    slice's last completion to its own.  The medians over slices shrug off
    a burst of host noise that lands on one slice.
    """
    count = max(1, len(frames) // size)
    cuts = [round(i * len(frames) / count) for i in range(count + 1)]
    rates, p50s, p95s = [], [], []
    previous_end = start
    for lo, hi in zip(cuts, cuts[1:]):
        part = frames[lo:hi]
        end = part[-1].done
        latencies = [frame.latency for frame in part]
        rates.append(len(part) / (end - previous_end))
        p50s.append(percentile(latencies, 50))
        p95s.append(percentile(latencies, 95))
        previous_end = end
    return {"slices": count, "frames_per_s": median(rates),
            "p50": median(p50s), "p95": median(p95s)}


class Ledger:
    """Operations attempted, failed (raised or refused) and wrong (bad output).

    ``error_rate`` is (failed + wrong) / attempted.  Lifts, validations,
    tunes and frames all count as operations.
    """

    MAX_NOTES = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, what: str) -> None:
        self.failed += 1
        self._note(f"failed: {what}")

    def mismatch(self, what: str) -> None:
        self.wrong += 1
        self._note(f"wrong: {what}")

    def check(self, ok: bool, what: str) -> bool:
        """Count one attempted operation, and a wrong output unless ``ok``."""
        self.attempt()
        if not ok:
            self.mismatch(what)
        return ok

    def _note(self, text: str) -> None:
        if len(self.notes) < self.MAX_NOTES:
            self.notes.append(text)

    @property
    def errors(self) -> int:
        return self.failed + self.wrong

    @property
    def error_rate(self) -> float:
        return self.errors / self.attempted if self.attempted else 0.0

    def merge(self, other: dict) -> None:
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.wrong += other["wrong"]
        for note in other.get("notes", []):
            self._note(note)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "wrong": self.wrong, "notes": list(self.notes)}
