"""Self-test of the benchmark on a depth-1 symmetry run (about 10 s).

    python3 perfbench/selftest.py

Depth 1 classifies 736 shadow colorings per representation in about a
second. The test checks that

1. a traced run emits every per-layer metric BENCHMARK.json names (a
   number, or null for a span that is absent) and the tracing overhead;
2. an untraced run emits every end-to-end metric and fails nothing;
3. a deliberately wrong expectation is counted as a failed iteration;
4. seeds 0 and 1 give the same checked outputs;
5. run.py exits non-zero and prints no result in a directory that holds
   only BENCHMARK.json and the benchmark's own files.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import HERE, ROOT, run_workload
from workloads import Workload

DEPTH1 = Workload(
    "symmetry-d1",
    "symmetry",
    1,
    {"k_counts": {"-1": 192, "0": 256, "1": 288}, "total_colorings": 736},
)


def _names(section: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec[section]]


def _run(workload, seed, trace):
    return run_workload(workload, seed, seconds=0, trace=trace, setup_probes=1)


def check_traced(failures: list[str]) -> None:
    result = _run(DEPTH1, 0, trace=True)["result"]
    metrics = result["metrics"]
    for name in _names("per_layer"):
        if name not in metrics:
            failures.append(f"traced run does not emit {name}")
        elif not isinstance(metrics[name]["value"], (int, float, type(None))):
            failures.append(f"{name} is neither a number nor absent")
    if metrics.get("trace.overhead_s", {}).get("value") is None:
        failures.append("traced run reports no tracing overhead")
    if not (result["correct"] and result["failed"] == 0):
        failures.append(f"traced run failed: {result}")


def check_untraced(failures: list[str]) -> dict:
    out = _run(DEPTH1, 0, trace=False)
    result = out["result"]
    for name in _names("end_to_end"):
        if not isinstance(result["metrics"].get(name, {}).get("value"), float):
            failures.append(f"untraced run does not emit {name}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        failures.append(f"untraced run failed: {result}")
    return out


def check_wrong_expectation(failures: list[str]) -> None:
    expect = dict(DEPTH1.expect, total_colorings=737)
    wrong = Workload(DEPTH1.name, DEPTH1.kind, DEPTH1.depth, expect)
    out = _run(wrong, 0, trace=False)
    result = out["result"]
    if result["correct"] or result["failed"] != result["attempted"]:
        failures.append(f"wrong expectation not counted as failed: {result}")
    if out["report"]["fail_frac"] != 1.0:
        failures.append(f"fail_frac is {out['report']['fail_frac']}, expected 1")


def check_seeds_agree(failures: list[str], seed0: dict) -> None:
    seed1 = _run(DEPTH1, 1, trace=False)
    outputs = [
        [it["checked"] for it in out["report"]["iterations"]] for out in (seed0, seed1)
    ]
    if not seed1["result"]["correct"]:
        failures.append(f"seed 1 failed: {seed1['result']}")
    if outputs[0] != outputs[1]:
        failures.append(f"seeds 0 and 1 disagree: {outputs}")


def check_without_sources(failures: list[str]) -> None:
    with tempfile.TemporaryDirectory(dir=HERE, prefix="_work-") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(
            HERE, Path(tmp) / HERE.name,
            ignore=shutil.ignore_patterns("_work-*", "__pycache__"),
        )
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "pool-d5",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append(f"run without sources exited {proc.returncode}: {proc.stdout!r}")


def main() -> int:
    failures: list[str] = []
    check_traced(failures)
    seed0 = check_untraced(failures)
    check_wrong_expectation(failures)
    check_seeds_agree(failures, seed0)
    check_without_sources(failures)
    for line in failures:
        print(f"FAIL {line}")
    print("selftest: " + ("FAILED" if failures else "all checks passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
