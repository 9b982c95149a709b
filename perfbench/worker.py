"""One benchmark iteration in a fresh interpreter: set up, run, check.

Reads a job (JSON) on stdin and prints one JSON result on stdout. Every
iteration gets its own process, so each starts with a fresh import and
cold `lru_cache`s, as a user's CLI call does.

Set-up is the import of the package, `parse_pd` and `load_holonomy` of
both holonomy documents (which includes the Wirtinger-assignment search).
Wall time runs from inputs ready to checked answer. A job of kind "setup"
stops after set-up.

While the call runs, a timer signal times a fixed reference loop every
REF_INTERVAL_S. On a virtual machine whose host is shared, the speed of
the virtual CPUs can change by a third from one minute to the next
without the guest's load average showing it (see README.md, "Why
`wall_ref`"). The reference loop slows with them, in the same process
and the same seconds as the call, so `wall_ref`, the call's wall time in
reference loops, is steady where `wall_s` is not. The loops' own time is
taken out of `wall_s`.

Set-up is too short for the timer, so the reference loop is timed
SETUP_REF_LOOPS times just before it and just after it. `setup_s` is the
set-up time in reference loops times REF_LOOP_NOMINAL_S: seconds on a
host where one reference loop takes that long. `setup_raw_s` is the
set-up time as measured.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

from spans import Tracer, layer_metrics
from workloads import RUNNERS, check, checked_output

SRC = Path(__file__).resolve().parent.parent / "src"

REF_INTERVAL_S = 0.1
REF_LOOP_N = 20_000  # about 2 ms: 2 % of the call's time
SETUP_REF_LOOPS = 5
# the median reference-loop time over the baseline runs (perfbench/README.md)
REF_LOOP_NOMINAL_S = 1.7e-3


def _ref_loop() -> int:
    total = 0
    for i in range(REF_LOOP_N):
        total += i * i % 7
    return total


def _ref_loop_s() -> float:
    t0 = time.perf_counter()
    for _ in range(SETUP_REF_LOOPS):
        _ref_loop()
    return (time.perf_counter() - t0) / SETUP_REF_LOOPS


class RefSampler:
    """Times `_ref_loop` on every SIGALRM while active."""

    def __init__(self):
        self.samples: list[float] = []

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        _ref_loop()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def main() -> int:
    job = json.load(sys.stdin)
    paths = job["paths"]
    pd_text = _read(paths["pd"])
    docs = [json.loads(_read(paths[key])) for key in ("holonomy", "holonomy_reversed")]
    sys.path.insert(0, str(SRC))

    ref_before = _ref_loop_s()
    t0 = time.perf_counter()
    import volquandle.cli
    from volquandle.diagram import parse_pd
    from volquandle.holquandle import load_holonomy

    diagram = parse_pd(pd_text)
    rep = load_holonomy(docs[0], diagram)
    load_holonomy(docs[1], diagram)  # validated here; the CLI workload reloads it
    setup_raw_s = time.perf_counter() - t0
    setup_ref_loop_s = (ref_before + _ref_loop_s()) / 2
    result = {
        "setup_s": setup_raw_s / setup_ref_loop_s * REF_LOOP_NOMINAL_S,
        "setup_raw_s": setup_raw_s,
        "setup_ref_loop_s": setup_ref_loop_s,
    }
    if job["kind"] == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
    vq = types.SimpleNamespace(cli=volquandle.cli, holquandle=volquandle.holquandle)
    kind = job["kind"]
    t1, c1 = time.perf_counter(), time.process_time()
    with RefSampler() as sampler:
        try:
            out = RUNNERS[kind](vq, job["depth"], paths, diagram, rep)
            problems = check(kind, out, job["expect"], len(diagram.arcs))
        except Exception as exc:  # a failed run is counted, not fatal
            traceback.print_exc()
            out, problems = None, [f"raised {type(exc).__name__}: {exc}"]
    sampled = sum(sampler.samples)
    result["wall_s"] = time.perf_counter() - t1 - sampled
    result["cpu_s"] = time.process_time() - c1 - sampled
    result["ref_samples"] = len(sampler.samples)
    result["ref_loop_s"] = statistics.fmean(sampler.samples) if sampler.samples else None
    result["wall_ref"] = (
        result["wall_s"] / result["ref_loop_s"] if sampler.samples else None
    )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["ok"] = not problems
    result["problems"] = problems
    result["checked"] = None if out is None else checked_output(kind, out)
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        result["spans"] = tracer.span_table()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
