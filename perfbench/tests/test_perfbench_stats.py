"""The percentile rule, quartile spread and error accounting of the benchmark."""

import concurrent.futures

import numpy as np
import pytest

from perfbench import targets as T
from perfbench.loadgen import closed_loop, seeded_schedule
from perfbench.loadgen import Frame
from perfbench.stats import (Ledger, has_percentile, percentile,
                             quartile_spread, samples_beyond, slice_medians,
                             tail_percentile)


def test_nearest_rank_percentile():
    samples = list(range(1, 101))          # 1..100
    assert percentile(samples, 50) == 50
    assert percentile(samples, 95) == 95
    assert percentile(samples, 100) == 100
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50), (99, 50), (100, 90), (199, 90), (200, 95),
    (999, 95), (1000, 99), (9999, 99), (10000, 99.9)])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    samples = [float(i) for i in range(n)]
    p, value, count = tail_percentile(samples)
    assert count == n
    assert p == expected
    if expected is None:
        assert value is None
    else:
        assert samples_beyond(n, p) >= 10
        assert value == percentile(samples, p)


def test_has_percentile_boundary():
    assert not has_percentile(199, 95)
    assert has_percentile(200, 95)
    assert samples_beyond(200, 95) == 10


def test_quartile_spread():
    assert quartile_spread([10.0] * 5) == 0.0
    values = [9.0, 10.0, 10.0, 10.0, 11.0, 10.0, 10.0, 10.0, 10.0, 10.0]
    assert 0.0 <= quartile_spread(values) < 0.05


def _frames(latencies, gap=0.001):
    return [Frame("pair", i * gap - latency, i * gap, 0.0)
            for i, latency in enumerate(latencies, start=1)]


def test_slice_medians_ignore_one_noisy_slice():
    latencies = [0.001] * 420 + [0.010] * 210
    result = slice_medians(_frames(latencies), 0.0, 210)
    assert result["slices"] == 3
    assert result["p50"] == pytest.approx(0.001)
    assert result["p95"] == pytest.approx(0.001)
    assert result["frames_per_s"] == pytest.approx(1000.0)


def test_slice_medians_pool_when_short_and_keep_every_frame():
    result = slice_medians(_frames([0.002] * 100), 0.0, 210)
    assert result["slices"] == 1
    assert result["p95"] == pytest.approx(0.002)
    # 450 frames make two slices of 225, never a short third one.
    assert slice_medians(_frames([0.002] * 450), 0.0, 210)["slices"] == 2


class _Server:
    """A stand-in server: each submit runs ``fn(pair, index)`` on a pool."""

    def __init__(self, fn, workers=4):
        self.pool = concurrent.futures.ThreadPoolExecutor(workers)
        self.fn = fn

    def submit(self, pair, index):
        return self.pool.submit(self.fn, pair, index)


def _expected(pair, index):
    return np.full((4, 4), index, dtype=np.uint8)


def test_error_rate_counts_refused_batch_error_and_wrong_bits():
    from repro.reliability import BatchError

    def work(pair, index):
        if pair == "batch":
            raise BatchError("1/1 batch request(s) failed")
        output = _expected(pair, index)
        if pair == "wrong":
            output = output.copy()
            output[0, 0] ^= 1
        return output, 0.0

    server = _Server(work)

    def submit(pair, index):
        if pair == "refused":
            raise RuntimeError("PipelineServer is closed")
        return server.submit(pair, index)

    pairs = ["ok", "refused", "batch", "wrong"]
    ledger = Ledger()
    result = closed_loop(
        submit, lambda pair, index, out: T.same_bits(out, _expected(pair,
                                                                    index)),
        seeded_schedule(pairs, 2, seed=3), outstanding=2, seconds=0.0,
        min_requests=8, round_length=len(pairs), ledger=ledger)
    assert result.submitted == ledger.attempted == 8
    assert ledger.failed == 4              # 2 refused + 2 BatchError
    assert ledger.wrong == 2
    assert result.completed == 2
    assert ledger.error_rate == pytest.approx(6 / 8)
    assert any("submit refused" in note for note in ledger.notes)
    assert any("BatchError" in note for note in ledger.notes)


def test_ledger_check_and_merge():
    ledger = Ledger()
    assert ledger.check(True, "fine")
    assert not ledger.check(False, "validate blur")
    other = Ledger()
    other.attempt(3)
    other.fail("tune")
    ledger.merge(other.as_dict())
    assert (ledger.attempted, ledger.failed, ledger.wrong) == (5, 1, 1)
    assert ledger.error_rate == pytest.approx(2 / 5)
