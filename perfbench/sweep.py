"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --seeds 0-9
    python3 perfbench/sweep.py --seeds 0-4 --workloads symmetry-d2

Runs perfbench/run.py once per (seed, workload), one after another, with
BENCHMARK.json's run length and tracing off. For each workload and
end-to-end metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and their distance as a
share of the median, and compares that spread with the metric's bound: a
spread of a third of the bound or more is marked "unsteady". It also
prints fail_frac over all iterations. Exits 1 if any metric is unsteady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,3,5")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    runs = {w: [] for w in workloads}
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[w].append(result)
            values = {k: m["value"] for k, m in result["metrics"].items()}
            print(f"seed {seed} {w}: correct={result['correct']} {values}", flush=True)

    unsteady = 0
    for w, results in runs.items():
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"\n{w}: fail_frac = {failed / attempted:.6g} 1 ({failed}/{attempted})")
        if len(results) < 2:
            print("  too few runs for a spread")
            continue
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median
            steady = share < metric["bound"] / 3
            unsteady += not steady
            print(
                f"  {metric['name']} = {median:.6g} {metric['unit']}  "
                f"q1 {q1:.6g} q3 {q3:.6g}  spread {share:.4f} (n={len(values)})  "
                f"bound {metric['bound']}: {'steady' if steady else 'unsteady'}"
            )
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
