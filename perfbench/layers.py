"""Per-layer metrics of a traced run.

They are read from ``repro.obs`` telemetry: the benchmark's own
``bench.*`` spans around calls into each module, plus the phase spans
and counters that ``compile_w2`` already emits while collecting.  A
layer the workload's timed loop does not reach is measured by a direct
call on the workload's own artefacts (``probe``), outside the loop.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile

from repro import BatchRunner, CompileCache, compile_w2
from repro.config import DEFAULT_CONFIG
from repro.exec import cache_key
from repro.verify import resolve_level, verify_program

from workloads import WORK_DIR, span

#: Per-layer metric -> compile phase spans summed for it.
PHASES = {
    "lang.lex_ms": ("frontend.lex",),
    "lang.parse_ms": ("frontend.parse",),
    "lang.semantic_ms": ("frontend.semantic",),
    "cellcodegen.ms": (
        "decomposition.build-ir", "analysis.local-opt", "cellcodegen",
    ),
    "analysis.comm_ms": ("analysis.comm",),
    "timing.skew_ms": ("timing.skew",),
    "timing.buffers_ms": ("timing.buffers",),
    "iucodegen.ms": ("iucodegen",),
    "hostcodegen.ms": ("hostcodegen",),
}
#: Exact counters summed over the distinct sources compiled cold.
EXACT_COUNTERS = {
    "lang.tokens": "frontend.tokens",
    "ir.dag_nodes": "ir.dag_nodes",
    "ir.cse_hits": "ir.cse_hits",
}
#: The timed end-to-end metrics whose tracing overhead is reported.
OVERHEAD_OF = (
    "compile_ms_p50", "compile_ms_p90", "items_per_s",
    "request_ms_p50", "request_ms_p90",
)

#: name -> unit of every per-layer metric, in report order.
UNITS = {
    **{name: "ms" for name in PHASES},
    **{name: "count" for name in EXACT_COUNTERS},
    "compile.cold_count": "count",
    "driver.choose_unroll_ms": "ms",
    "verify.default_ms": "ms",
    "verify.quick_ms": "ms",
    "verify.full_ms": "ms",
    "cache.key_ms": "ms",
    "cache.mem_hit_us": "us",
    "cache.disk_hit_ms": "ms",
    "cache.lookups": "count",
    "cache.hits": "count",
    "cache.hit_ratio": "ratio",
    "cache.disk_hit_ratio": "ratio",
    "machine.plan_build_ms": "ms",
    "machine.run_ms": "ms",
    "machine.issued_instrs": "count",
    "machine.us_per_issued_instr": "us",
    "batch.item_ms_p50": "ms",
    "batch.retries": "count",
    "batch.failures": "count",
    "host.kernel_ms": "ms",
    **{f"trace.overhead.{name}": ("1/s" if name == "items_per_s" else "ms")
       for name in OVERHEAD_OF},
}

#: Artefacts a probe touches at most (keeps a traced run short).
PROBE_LIMIT = 8


def probe(samples) -> None:
    """Direct calls into the verify, cache and batch layers on the
    workload's distinct artefacts, each in a ``bench.*`` span."""
    configs = list(samples.programs)
    for config in configs:
        program = samples.programs[config]
        with span("bench.verify.default"):
            verify_program(program, resolve_level(program.config.verify))
        with span("bench.verify.quick"):
            verify_program(program, "quick")
        with span("bench.verify.full"):
            verify_program(program, "full")
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="probe-", dir=WORK_DIR)
    try:
        # Capacity 1: every second lookup is served from disk, the
        # repeat right after it from memory.
        cache = CompileCache(capacity=1, cache_dir=cache_dir)
        chosen = configs[:PROBE_LIMIT]
        for config in chosen:
            with span("bench.cache_key"):
                cache_key(config.source, DEFAULT_CONFIG, "auto",
                          config.unroll, True)
            compile_w2(config.source, unroll=config.unroll, cache=cache)
        for config in chosen:
            for _ in range(2):
                with span(f"bench.compile:{config.label}"):
                    compile_w2(config.source, unroll=config.unroll,
                               cache=cache)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    for config in chosen:
        runner = BatchRunner(samples.programs[config], processes=0)
        untimed = runner.machine.run

        def timed(*args, _run=untimed, **kwargs):
            with span("bench.run"):
                return _run(*args, **kwargs)

        runner.machine.run = timed
        with span("bench.batch"):
            # Missing inputs are zero-filled by the host.
            runner.run([{}] * 4)


class _Index:
    """Spans of one telemetry, grouped the ways the metrics need."""

    def __init__(self, telemetry):
        spans = telemetry.spans if telemetry is not None else []
        self.spans = spans
        #: Index of the enclosing ``bench.compile:*`` span, or -1.
        owner = [-1] * len(spans)
        #: Whether the span sits inside ``driver.choose-unroll``.
        in_choose = [False] * len(spans)
        for j, s in enumerate(spans):
            p = s.parent
            if s.name.startswith("bench.compile:"):
                owner[j] = j
            elif p >= 0:
                owner[j] = owner[p]
                in_choose[j] = in_choose[p] or (
                    spans[p].name == "driver.choose-unroll"
                )
        self.cold: dict[int, dict[str, float]] = {}
        self.hits: dict[str, list[float]] = {"memory": [], "disk": []}
        for j, s in enumerate(spans):
            if not s.name.startswith("bench.compile:"):
                continue
            if "cache.hit" in s.counters:
                kind = "disk" if "cache.disk_hit" in s.counters else "memory"
                self.hits[kind].append(s.duration)
            else:
                self.cold[j] = {}
        for j, s in enumerate(spans):
            o = owner[j]
            if o in self.cold and o != j and not in_choose[j]:
                phases = self.cold[o]
                phases[s.name] = phases.get(s.name, 0.0) + s.duration
        self.item_runs = [
            s.duration for s in spans
            if s.name == "bench.run" and s.parent >= 0
            and spans[s.parent].name == "bench.batch"
        ]

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def cold_labels(self) -> dict[str, dict[str, int]]:
        """First cold compile of each distinct source -> its counters."""
        labels: dict[str, dict[str, int]] = {}
        for j in self.cold:
            s = self.spans[j]
            labels.setdefault(s.name, s.counters)
        return labels


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _first(*lists):
    for values in lists:
        if values:
            return values
    return []


def layer_metrics(samples, telemetry, overhead: dict) -> dict[str, float]:
    """Every per-layer metric, from the traced run's telemetries.

    ``telemetry`` maps phase -> Telemetry for "setup", "loop", "finish"
    and "probe"; each metric reads the first phase that has its spans,
    in the order listed at its line.
    """
    setup, loop, finish, probed = (
        _Index(telemetry.get(phase))
        for phase in ("setup", "loop", "finish", "probe")
    )
    out: dict[str, float] = {}

    compiles = loop if loop.cold else setup  # cold compiles: loop, setup
    cold = list(compiles.cold.values())
    for name, phases in PHASES.items():
        out[name] = _mean(
            [sum(p.get(ph, 0.0) for ph in phases) * 1e3 for p in cold]
        )
    labels = compiles.cold_labels()
    for name, counter in EXACT_COUNTERS.items():
        out[name] = sum(c.get(counter, 0) for c in labels.values())
    out["compile.cold_count"] = len(cold)
    out["driver.choose_unroll_ms"] = _mean(
        [p["driver.choose-unroll"] * 1e3 for p in cold
         if "driver.choose-unroll" in p]
    )

    for level in ("default", "quick", "full"):
        out[f"verify.{level}_ms"] = _mean(
            [d * 1e3 for d in probed.durations(f"bench.verify.{level}")]
        )

    out["cache.key_ms"] = _mean(
        [d * 1e3 for d in probed.durations("bench.cache_key")]
    )
    out["cache.mem_hit_us"] = _mean(
        [d * 1e6 for d in _first(loop.hits["memory"], probed.hits["memory"])]
    )
    out["cache.disk_hit_ms"] = _mean(
        [d * 1e3 for d in _first(loop.hits["disk"], probed.hits["disk"])]
    )
    hits = len(loop.hits["memory"]) + len(loop.hits["disk"])
    lookups = hits + sum(
        1 for j in loop.cold if "cache.miss" in loop.spans[j].counters
    )
    out["cache.lookups"] = lookups
    out["cache.hits"] = hits
    out["cache.hit_ratio"] = hits / lookups if lookups else 0.0
    out["cache.disk_hit_ratio"] = (
        len(loop.hits["disk"]) / hits if hits else 0.0
    )

    out["machine.plan_build_ms"] = _mean([d * 1e3 for d in _first(
        loop.durations("bench.plan"), setup.durations("bench.plan"),
        finish.durations("bench.plan"),
    )])
    runs, phase = loop.durations("bench.run"), "loop"  # runs: loop, finish
    if not runs:
        runs, phase = finish.durations("bench.run"), "finish"
    out["machine.run_ms"] = _mean([d * 1e3 for d in runs])
    out["machine.issued_instrs"] = sum(samples.issued.values())
    issued = samples.issued_total.get(phase, 0)
    out["machine.us_per_issued_instr"] = (
        sum(runs) * 1e6 / issued if issued else 0.0
    )
    items = _first(loop.item_runs, probed.item_runs)  # loop, probe
    out["batch.item_ms_p50"] = (
        statistics.median(items) * 1e3 if items else 0.0
    )
    out["batch.retries"] = samples.batch_retries
    out["batch.failures"] = samples.batch_failures
    out["host.kernel_ms"] = statistics.median(samples.kernel_s) * 1e3
    for name in OVERHEAD_OF:
        out[f"trace.overhead.{name}"] = overhead[name]
    return out
