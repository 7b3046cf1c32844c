"""The benchmark regression gate's calibration logic.

Regression test for the calibration degeneracy: with only two compared
keys, the median fresh/baseline ratio splits the difference between a
healthy benchmark and a regressed one, inflating the "machine factor"
enough to absorb the regression entirely.  Below three keys the gate must
fall back to raw ratios (with a warning) so the regression still fails.
"""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" \
    / "check_bench_regression.py"
_spec = importlib.util.spec_from_file_location("check_bench_regression",
                                               _SCRIPT)
bench_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_gate)


def _entry(seconds: float) -> dict:
    return {"best_seconds": seconds}


class TestCalibrationDegeneracy:
    def test_two_keys_catch_a_regression_uncalibrated(self, capsys):
        """One healthy key (1.0x) + one regressed key (1.6x): the two-ratio
        median (1.3x) would push the limit to 1.69x and pass the regression;
        the uncalibrated fallback fails it."""
        baseline = {"fig8_a": _entry(0.100), "fig8_b": _entry(0.100)}
        fresh = {"fig8_a": _entry(0.100), "fig8_b": _entry(0.160)}
        rows, failures = bench_gate.compare(baseline, fresh, ("fig8_",), 0.30)
        assert failures == ["fig8_b"]
        out = capsys.readouterr().out
        assert "skipping machine-factor calibration" in out
        assert any("uncalibrated" in str(row[0]) for row in rows)

    def test_three_keys_keep_median_calibration(self, capsys):
        baseline = {f"fig8_{k}": _entry(0.100) for k in "abc"}
        fresh = {"fig8_a": _entry(0.100), "fig8_b": _entry(0.100),
                 "fig8_c": _entry(0.160)}
        rows, failures = bench_gate.compare(baseline, fresh, ("fig8_",), 0.30)
        assert failures == ["fig8_c"]
        assert "skipping" not in capsys.readouterr().out
        assert any("median machine factor" in str(row[0]) for row in rows)

    def test_uniformly_slower_runner_passes_with_enough_keys(self):
        baseline = {f"fig8_{k}": _entry(0.100) for k in "abc"}
        fresh = {f"fig8_{k}": _entry(0.200) for k in "abc"}
        _rows, failures = bench_gate.compare(baseline, fresh, ("fig8_",), 0.30)
        assert failures == []

    def test_two_keys_on_a_uniformly_slower_runner_do_fail(self):
        """The honest cost of the fallback: two keys on a 2x-slower runner
        fail uncalibrated.  That is the intended trade — a partial run on a
        different machine should compare more keys, not absorb regressions."""
        baseline = {"fig8_a": _entry(0.100), "fig8_b": _entry(0.100)}
        fresh = {"fig8_a": _entry(0.200), "fig8_b": _entry(0.200)}
        _rows, failures = bench_gate.compare(baseline, fresh, ("fig8_",), 0.30)
        assert set(failures) == {"fig8_a", "fig8_b"}

    def test_measured_keys_filter_still_applies(self):
        baseline = {f"fig8_{k}": _entry(0.100) for k in "abcd"}
        fresh = {f"fig8_{k}": _entry(0.100) for k in "abcd"}
        fresh["fig8_d"] = _entry(0.300)
        _rows, failures = bench_gate.compare(
            baseline, fresh, ("fig8_",), 0.30,
            measured=["fig8_a", "fig8_b", "fig8_c"])
        assert failures == []            # the stale key is not compared


class TestTrackedKeys:
    def test_native_compile_time_is_gated(self):
        """The committed baseline carries the native compile time and the
        default prefixes gate it like any frame time."""
        import json

        results = json.loads((_SCRIPT.parent.parent / "BENCH_results.json")
                             .read_text())["results"]
        assert "fig11_native/compile_s" in results
        baseline = {name: _entry(entry["best_seconds"])
                    for name, entry in results.items()}
        fresh = dict(baseline)
        fresh["fig11_native/compile_s"] = _entry(
            2 * baseline["fig11_native/compile_s"]["best_seconds"])
        _rows, failures = bench_gate.compare(
            baseline, fresh, bench_gate.DEFAULT_PREFIXES,
            bench_gate.DEFAULT_THRESHOLD)
        assert failures == ["fig11_native/compile_s"]
