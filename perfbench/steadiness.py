"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/steadiness.py --workload serve-small --runs 10

Runs the benchmark once per seed (``--first-seed`` onward), then prints per
end-to-end metric the median, the quartiles as ``statistics.quantiles(n=4)``
gives them, the spread (Q3 - Q1) / median and the metric's bound from
``BENCHMARK.json``.  Exits non-zero if a run fails or a spread exceeds
its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.stats import quartile_spread  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    failed = False
    for seed in range(args.first_seed, args.first_seed + args.runs):
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        phases = next((line for line in completed.stdout.splitlines()
                       if line.startswith("perfbench:")), "")
        print(f"seed {seed}: exit {completed.returncode}; {phases}",
              flush=True)
        if completed.returncode != 0:
            failed = True
            print(completed.stdout[-2000:] + completed.stderr[-2000:])
            continue
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print("\n| metric | unit | median | Q1 | Q3 | spread | bound | min | max |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for metric in spec["end_to_end"]:
        samples = values.get(metric["name"], [])
        if len(samples) < 2:
            continue
        q1, _, q3 = statistics.quantiles(samples, n=4)
        mid = statistics.median(samples)
        spread = quartile_spread(samples)
        print(f"| `{metric['name']}` | {metric['unit']} | {mid:.4g} | "
              f"{q1:.4g} | {q3:.4g} | {spread:.3f} | {metric['bound']} | "
              f"{min(samples):.4g} | {max(samples):.4g} |")
        if spread > metric["bound"]:
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
