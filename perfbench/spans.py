"""Per-layer spans around the program's public functions.

A span wraps a function at the name its caller looks it up under (a
module global or a class attribute), so the program itself is unchanged.
Spans are aggregated in memory per (parent span, span) pair: call count
and inclusive seconds. A span's self time is its inclusive time minus the
inclusive time of the spans it caused. A generator's span covers only
the time spent inside `next()`, so consumer work between items is not
charged to it; the time to produce each item is kept as a gap sample.

A span whose every binding is missing (a later change removed or renamed
the function) is absent, and every metric derived from it is reported
as absent (value null), never as 0.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time
from collections import defaultdict

ROOT = "-"

# span name, where callers look the function up, attribute name
BINDINGS = (
    ("dilog.bloch_wigner", "volquandle.hypgeom", "bloch_wigner"),
    ("hypgeom.ideal_tet_volume", "volquandle.invariant", "ideal_tet_volume"),
    ("hypgeom.compose", "volquandle.hypgeom:MoebiusMap", "compose"),
    ("holquandle.evaluate", "volquandle.holquandle", "evaluate"),
    ("holquandle.quandle_op", "volquandle.holquandle", "quandle_op"),
    ("holquandle.quandle_op", "volquandle.holquandle", "quandle_op_inv"),
    ("holquandle.quandle_op", "volquandle.invariant", "quandle_op"),
    ("holquandle.quandle_op", "volquandle.invariant", "quandle_op_inv"),
    ("holquandle.pool_add", "volquandle.holquandle:ElementPool", "add"),
    ("holquandle.pool_find", "volquandle.holquandle:ElementPool", "find"),
    (
        "holquandle.enumerate_conjugates",
        "volquandle.holquandle",
        "enumerate_conjugates",
    ),
    ("holquandle.arc_colorings", "volquandle.holquandle", "arc_colorings"),
    ("holquandle.arc_colorings", "volquandle.invariant", "arc_colorings"),
    ("diagram.region_steps_from", "volquandle.diagram:Diagram", "region_steps_from"),
    ("invariant.iter_colorings", "volquandle.invariant", "iter_colorings"),
    ("invariant.phi", "volquandle.invariant", "phi"),
    ("invariant.cocycle_vol", "volquandle.invariant", "cocycle_vol"),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls, None) if cls else obj


class Tracer:
    """In-memory span aggregates; `install` wraps every binding found."""

    def __init__(self):
        self.stack = [ROOT]
        self.edges: dict[tuple[str, str], list] = {}  # (parent, name) -> [calls, s]
        self.gaps: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, float] = {}
        self.installed: set[str] = set()
        self.hooks = {
            "holquandle.pool_find": self._on_find,
            "holquandle.pool_add": self._on_add,
            "holquandle.enumerate_conjugates": self._on_pool,
            "invariant.phi": self._on_phi,
        }

    # -- result hooks: counts measured where the work happens ----------------

    def _on_find(self, result):
        if result is not None:
            self.counts["pool_find.hits"] += 1

    def _on_add(self, result):
        if result:
            self.counts["pool_add.kept"] += 1

    def _on_pool(self, result):
        self._max("pool_size", len(result))

    def _on_phi(self, result):
        self._max("max_residual", result.residual)

    def _max(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        for name, owner, attr in BINDINGS:
            obj = _resolve(owner)
            fn = getattr(obj, attr, None)
            if fn is None:
                continue
            if inspect.isgeneratorfunction(fn):
                wrapped = self._wrap_generator(name, fn)
            else:
                wrapped = self._wrap_call(name, fn, self.hooks.get(name))
            setattr(obj, attr, wrapped)
            self.installed.add(name)

    def _record(self, key, dt):
        rec = self.edges.get(key)
        if rec is None:
            self.edges[key] = [1, dt]
        else:
            rec[0] += 1
            rec[1] += dt

    def _wrap_call(self, name, fn, hook):
        stack, record, clock = self.stack, self._record, time.perf_counter

        def span(*args, **kwargs):
            key = (stack[-1], name)
            stack.append(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                record(key, dt)
            if hook is not None:
                hook(result)
            return result

        return span

    def _wrap_generator(self, name, fn):
        stack, record, clock = self.stack, self._record, time.perf_counter
        gaps = self.gaps[name]

        def span(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    key = (stack[-1], name)
                    stack.append(name)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = clock() - t0
                        stack.pop()
                        record(key, dt)
                    gaps.append(dt)
                    yield item
            finally:
                it.close()

        return span

    # -- aggregates ----------------------------------------------------------

    def calls(self, name) -> int:
        return sum(rec[0] for (_, n), rec in self.edges.items() if n == name)

    def inclusive_s(self, name) -> float:
        return sum(rec[1] for (_, n), rec in self.edges.items() if n == name)

    def edge_s(self, parent, name) -> float:
        rec = self.edges.get((parent, name))
        return 0.0 if rec is None else rec[1]

    def edge_calls(self, parent, name) -> int:
        rec = self.edges.get((parent, name))
        return 0 if rec is None else rec[0]

    def self_s(self, name) -> float:
        children = sum(rec[1] for (p, _), rec in self.edges.items() if p == name)
        return self.inclusive_s(name) - children

    def span_table(self) -> list[dict]:
        return [
            {"parent": p, "span": n, "calls": rec[0], "inclusive_s": rec[1]}
            for (p, n), rec in sorted(self.edges.items())
        ]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _percentile_ms(samples, q: int) -> float:
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0] * 1e3
    return statistics.quantiles(samples, n=100)[q - 1] * 1e3


def layer_metrics(tr: Tracer) -> dict[str, tuple[float | None, str]]:
    """Every per-layer metric as name -> (value, unit); value None = absent."""
    dilog = importlib.import_module("volquandle.dilog")
    caches = [
        fn.cache_info()
        for fn in (getattr(dilog, "li2", None), getattr(dilog, "bloch_wigner", None))
        if hasattr(fn, "cache_info")
    ]
    cache_lookups = sum(c.hits + c.misses for c in caches)
    arc = tr.gaps["holquandle.arc_colorings"]
    shadow = len(tr.gaps["invariant.iter_colorings"])
    counts = tr.counts

    CACHES = "dilog caches"  # the lru_caches of li2 and bloch_wigner
    present = tr.installed | ({CACHES} if caches else set())
    BW, ITV = "dilog.bloch_wigner", "hypgeom.ideal_tet_volume"
    POOL, ADD, FIND = "holquandle.enumerate_conjugates", "holquandle.pool_add", "holquandle.pool_find"
    ARC, ITER, PHI = "holquandle.arc_colorings", "invariant.iter_colorings", "invariant.phi"
    table = (
        # metric, unit, spans it needs, value
        ("dilog.bloch_wigner.calls", "count", (BW,), lambda: tr.calls(BW)),
        ("dilog.bloch_wigner.self_s", "s", (BW,), lambda: tr.self_s(BW)),
        ("dilog.cache_entries", "count", (CACHES,),
         lambda: sum(c.currsize for c in caches)),
        ("dilog.cache_hit_ratio", "ratio", (CACHES,),
         lambda: _ratio(sum(c.hits for c in caches), cache_lookups)),
        ("hypgeom.ideal_tet_volume.calls", "count", (ITV,), lambda: tr.calls(ITV)),
        ("hypgeom.ideal_tet_volume.self_s", "s", (ITV,), lambda: tr.self_s(ITV)),
        ("hypgeom.tet_dilog_ratio", "ratio", (ITV, BW),
         lambda: _ratio(tr.edge_calls(ITV, BW), tr.calls(ITV))),
        ("hypgeom.compose.calls", "count", ("hypgeom.compose",),
         lambda: tr.calls("hypgeom.compose")),
        ("hypgeom.compose.self_s", "s", ("hypgeom.compose",),
         lambda: tr.self_s("hypgeom.compose")),
        ("holquandle.evaluate.calls", "count", ("holquandle.evaluate",),
         lambda: tr.calls("holquandle.evaluate")),
        ("holquandle.evaluate.self_s", "s", ("holquandle.evaluate",),
         lambda: tr.self_s("holquandle.evaluate")),
        ("holquandle.quandle_op.calls", "count", ("holquandle.quandle_op",),
         lambda: tr.calls("holquandle.quandle_op")),
        ("holquandle.quandle_op.self_s", "s", ("holquandle.quandle_op",),
         lambda: tr.self_s("holquandle.quandle_op")),
        ("holquandle.pool_add.calls", "count", (ADD,), lambda: tr.calls(ADD)),
        ("holquandle.pool_keep_ratio", "ratio", (ADD,),
         lambda: _ratio(counts["pool_add.kept"], tr.calls(ADD))),
        ("holquandle.pool_size", "count", (POOL,), lambda: tr.maxima.get("pool_size", 0)),
        ("holquandle.enumerate_conjugates.self_s", "s", (POOL,), lambda: tr.self_s(POOL)),
        ("holquandle.pool_find.calls", "count", (FIND,), lambda: tr.calls(FIND)),
        ("holquandle.pool_find.hit_ratio", "ratio", (FIND,),
         lambda: _ratio(counts["pool_find.hits"], tr.calls(FIND))),
        ("holquandle.arc_colorings.yielded", "count", (ARC,), lambda: len(arc)),
        ("holquandle.arc_colorings.self_s", "s", (ARC,), lambda: tr.self_s(ARC)),
        ("holquandle.arc_colorings.gap_p50_ms", "ms", (ARC,),
         lambda: _percentile_ms(arc, 50)),
        ("holquandle.arc_colorings.gap_p99_ms", "ms", (ARC,),
         lambda: _percentile_ms(arc, 99)),
        ("holquandle.arc_colorings.gap_samples", "count", (ARC,), lambda: len(arc)),
        ("diagram.region_steps_from.calls", "count", ("diagram.region_steps_from",),
         lambda: tr.calls("diagram.region_steps_from")),
        ("diagram.region_steps_from.self_s", "s", ("diagram.region_steps_from",),
         lambda: tr.self_s("diagram.region_steps_from")),
        ("invariant.shadow_colorings", "count", (ITER,), lambda: shadow),
        ("invariant.region_extension_s", "s", (ITER, ARC),
         lambda: tr.inclusive_s(ITER) - tr.edge_s(ITER, ARC)),
        ("invariant.phi.calls", "count", (PHI,), lambda: tr.calls(PHI)),
        ("invariant.phi.s", "s", (PHI,), lambda: tr.inclusive_s(PHI)),
        ("invariant.phi_per_coloring", "ratio", (PHI, ITER),
         lambda: _ratio(tr.calls(PHI), shadow)),
        ("invariant.cocycle_vol.calls", "count", ("invariant.cocycle_vol",),
         lambda: tr.calls("invariant.cocycle_vol")),
        ("invariant.max_residual", "1", (PHI,), lambda: tr.maxima.get("max_residual", 0.0)),
    )
    out = {}
    for metric, unit, needs, value in table:
        out[metric] = (value() if present.issuperset(needs) else None, unit)
    return out
