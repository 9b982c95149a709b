"""volquandle benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload symmetry-d2 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed. Each iteration is a fresh single-threaded
interpreter (perfbench/worker.py), started one after another, so every
iteration pays the import and the cold caches a CLI user pays.

--trace 0: iterations until --seconds is used up (at least one), with a
few set-up-only processes before each and after the last. Reports the
medians of wall_ref (wall time in reference loops), setup_s (set-up
time scaled to a reference speed; see worker.py) and peak_rss_mb; the
summary also prints the medians of wall_s and setup_raw_s, as measured.
--trace 1: one untraced and one traced iteration. Reports every
per-layer metric (perfbench/spans.py) and the tracing overhead, the
traced minus the untraced wall_ref, in seconds.

Earlier lines of standard output are a readable summary and a JSON
report (environment, every iteration, the span table). The last line is
the result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import sysconfig
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, seeded_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

SETUP_PROBES = 8  # set-up-only processes before each iteration and after the last
HARD_LIMIT_S = 170.0  # a run must end within 180 s, whatever --seconds says
POLICY = (
    "fresh single-threaded interpreter per iteration, iterations run one "
    "after another, caches cold (no warm-up)"
)


def environment() -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "platform": sysconfig.get_platform(),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "policy": POLICY,
    }


def write_inputs(directory: str, inputs: dict) -> dict:
    paths = {}
    for key, name in (
        ("pd", "fig8.pd"),
        ("holonomy", "holonomy.json"),
        ("holonomy_reversed", "holonomy_reversed.json"),
    ):
        paths[key] = os.path.join(directory, name)
        with open(paths[key], "w", encoding="utf-8") as fh:
            value = inputs[key]
            fh.write(value if isinstance(value, str) else json.dumps(value))
    return paths


def spawn(job: dict, deadline: float) -> dict:
    """Run one worker process to completion; never raises for its failures."""
    load_before = os.getloadavg()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER)], input=json.dumps(job), cwd=ROOT,
            capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        rec = {"ok": False, "problems": ["timed out"]}
    else:
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-3:]
            rec = {"ok": False, "problems": [f"exit {proc.returncode}: {tail}"]}
        else:
            rec = json.loads(lines[-1])
    rec["loadavg_before"] = load_before
    rec["loadavg_after"] = os.getloadavg()
    return rec


def _median(records, key):
    values = [r[key] for r in records if r.get(key) is not None]
    return statistics.median(values) if values else None


def run_workload(
    workload, seed: int, seconds: float, trace: bool,
    setup_probes: int = SETUP_PROBES,
) -> dict:
    """Measure one workload; returns the result and the full report."""
    start = time.monotonic()
    hard_deadline = start + HARD_LIMIT_S
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from volquandle.fixtures import FIXTURES

    inputs = seeded_inputs(FIXTURES["fig8"], seed)
    with tempfile.TemporaryDirectory(dir=HERE, prefix="_work-") as tmp:
        job = {
            "kind": workload.kind,
            "depth": workload.depth,
            "expect": workload.expect,
            "paths": write_inputs(tmp, inputs),
            "trace": False,
        }
        setups = []
        if trace:
            iterations = [spawn(job, hard_deadline)]
            iterations.append(spawn(dict(job, trace=True), hard_deadline))
        else:
            # Set-up probes run before every iteration and after the last,
            # so that their median spans the whole run, not its first seconds.
            def probe_setup():
                for _ in range(setup_probes):
                    setups.append(spawn(dict(job, kind="setup"), hard_deadline))

            iterations = []
            deadline = min(start + seconds, hard_deadline)
            while True:
                began = time.monotonic()
                probe_setup()
                iterations.append(spawn(job, hard_deadline))
                took = time.monotonic() - began
                if time.monotonic() + took > deadline:
                    break
            probe_setup()
            if not all("setup_s" in r for r in setups):
                raise RuntimeError(f"set-up failed: {setups}")

    ok = [r for r in iterations if r["ok"]]
    failed = len(iterations) - len(ok)
    timed = ok or iterations
    if trace:
        untraced, traced = iterations
        metrics = dict(traced.get("layers") or {})
        walls = (untraced.get("wall_s"), traced.get("wall_s"))
        refs = (untraced.get("wall_ref"), traced.get("wall_ref"))
        # in reference loops, so that a change of host speed between the
        # two iterations does not count as overhead; then in seconds at
        # the traced iteration's speed
        overhead = None if None in refs else (refs[1] - refs[0]) * traced["ref_loop_s"]
        metrics["trace.untraced_wall_s"] = (walls[0], "s")
        metrics["trace.traced_wall_s"] = (walls[1], "s")
        metrics["trace.overhead_s"] = (overhead, "s")
    else:
        metrics = {
            "wall_ref": (_median(timed, "wall_ref"), "ref"),
            "setup_s": (_median(setups + iterations, "setup_s"), "s"),
            "peak_rss_mb": (_median(timed, "peak_rss_mb"), "MB"),
        }
    result = {
        "correct": failed == 0,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "fail_frac": failed / len(iterations),
        "wall_s": _median(timed, "wall_s"),
        "setup_raw_s": _median(setups + iterations, "setup_raw_s"),
        "setup_probes": setups,
        "iterations": iterations,
    }
    return {"result": result, "report": report}


def summary_lines(out: dict) -> list[str]:
    result, report = out["result"], out["report"]
    lines = [f"workload {report['workload']}  seed {report['seed']}"]
    for name, m in result["metrics"].items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        lines.append(f"  {name} = {value} {m['unit']}")
    for name in ("wall_s", "setup_raw_s"):
        if not report["trace"] and report[name] is not None:
            lines.append(f"  {name} = {report[name]:.6g} s (not normalised)")
    lines.append(
        f"  fail_frac = {report['fail_frac']:.6g} 1 "
        f"({result['failed']} of {result['attempted']} iterations failed)"
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "volquandle" / "__init__.py").is_file():
        print(f"error: no volquandle sources under {SRC}", file=sys.stderr)
        return 2
    out = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for line in summary_lines(out):
        print(line)
    print(json.dumps({"report": out["report"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
