"""The three closed-loop workloads, each driven by one caller.

A workload object is built from the seed and used in four steps:

* ``setup()`` — what a user pays before the first timed call (cache
  warm-up, the first compile, ``ExecutionPlan`` build).  Returns the
  compile latencies it measured.
* ``prepare()`` — the harness's own work: inputs and reference outputs
  from the AST interpreter.  Never timed.
* ``loop(seconds, samples)`` — the timed region.  It runs whole passes
  over a fixed set of requests, each pass in a fresh seeded order,
  until ``seconds`` have gone, so the mix of requests does not depend
  on how fast the program is.
  Each output is checked outside the timed spans.
* ``finish(samples)`` — checks that need no timing.

Every call into the library sits inside a ``bench.*`` span on the
active ``repro.obs`` telemetry.  Outside ``repro.obs.collecting()``
those spans are the library's shared no-op.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import BatchRunner, CompileCache, WarpMachine, compile_w2
from repro.obs import get_telemetry
from repro.programs import passthrough

from hostspeed import REFERENCE_S, kernel_seconds
from kernels import (
    CONFIGS,
    Config,
    check_result,
    issued_instructions,
    make_inputs,
    predicted_cycles,
    reference,
)

#: Where the benchmark keeps its scratch files (cache directories,
#: traces, result stamps), inside its own directory.
WORK_DIR = Path(__file__).resolve().parent / "out"

#: Operations timed between two host-speed measurements; the host's
#: speed changes within seconds, so segments are a fraction of one.
SEGMENT_OPS = 24


@dataclass
class Samples:
    """What one timed loop (plus its checks) measured.

    Times are wall-clock; each also gets the host-speed scale factor of
    the segment it was measured in (see ``hostspeed``).
    """

    compile_ms: list[float] = field(default_factory=list)
    request_ms: list[float] = field(default_factory=list)
    items: int = 0
    busy_s: float = 0.0
    compile_scale: list[float] = field(default_factory=list)
    request_scale: list[float] = field(default_factory=list)
    scaled_busy_s: float = 0.0
    #: Calibration kernel seconds, one per segment.
    kernel_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: The distinct compiled artefacts, by config.
    programs: dict = field(default_factory=dict)
    #: Simulated cycles and issued instructions of one run, by config.
    cycles: dict = field(default_factory=dict)
    issued: dict = field(default_factory=dict)
    #: Issued instructions summed over every run timed by a
    #: ``bench.run`` span, by telemetry phase ("loop" or "finish").
    issued_total: dict = field(default_factory=dict)
    batch_retries: int = 0
    batch_failures: int = 0

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def segments(self, requests: list):
        """Yield ``requests`` in runs of ``SEGMENT_OPS``, scaling the
        times recorded for each run by the host speed measured at both
        of its ends (see ``hostspeed``)."""
        before = kernel_seconds()
        for start in range(0, len(requests), SEGMENT_OPS):
            n_compile, n_request = len(self.compile_ms), len(self.request_ms)
            busy = self.busy_s
            yield requests[start:start + SEGMENT_OPS]
            after = kernel_seconds()
            kernel = (before + after) / 2
            before = after
            factor = REFERENCE_S / kernel
            self.kernel_s.append(kernel)
            self.compile_scale += [factor] * (len(self.compile_ms) - n_compile)
            self.request_scale += [factor] * (len(self.request_ms) - n_request)
            self.scaled_busy_s += (self.busy_s - busy) * factor


def shuffled(requests: list, rng: np.random.Generator) -> list:
    """One pass: every request once, in a seeded order."""
    return [requests[i] for i in rng.permutation(len(requests))]


def span(name: str):
    return get_telemetry().span(name)


def compile_span(config: Config):
    return span(f"bench.compile:{config.label}")


def _record_run(samples: Samples, config: Config, result, expected,
                predicted: int, phase: str) -> None:
    """Check one simulated run and keep its exact counts."""
    samples.attempted += 1
    error = check_result(config, result, expected, predicted)
    if error is not None:
        samples.fail(error)
    issued = issued_instructions(result)
    samples.cycles.setdefault(config, result.total_cycles)
    samples.issued.setdefault(config, issued)
    samples.issued_total[phase] = samples.issued_total.get(phase, 0) + issued


def _timed_run(machine, inputs):
    """Build the plan (if the machine has none yet) and run once, each
    in its own span."""
    with span("bench.plan"):
        machine.plan
    with span("bench.run"):
        return machine.run(inputs)


class CompileCold:
    """``compile_w2(source, cache=None)`` over every kernel x size x
    unroll config, in a seeded order.  No program runs in the loop."""

    name = "compile-cold"

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def setup(self) -> list[float]:
        # Warm-up: pays the lazy imports of the first compile.
        compile_w2(passthrough(16, 3))
        return []

    def prepare(self) -> None:
        self.sources = {config: config.source for config in CONFIGS}
        self.signatures: dict = {}

    def loop(self, seconds: float, samples: Samples) -> None:
        started = time.perf_counter()
        while True:
            for segment in samples.segments(shuffled(CONFIGS, self.rng)):
                for config in segment:
                    self._compile(config, samples)
            if time.perf_counter() - started >= seconds:
                return

    def _compile(self, config, samples: Samples) -> None:
        t0 = time.perf_counter()
        try:
            with compile_span(config):
                program = compile_w2(self.sources[config],
                                     unroll=config.unroll)
        except Exception as error:  # counted, reported, run fails
            samples.attempted += 1
            samples.fail(f"{config.label}: {error!r}")
            return
        elapsed = time.perf_counter() - t0
        samples.attempted += 1
        samples.items += 1
        samples.busy_s += elapsed
        samples.compile_ms.append(elapsed * 1e3)
        samples.request_ms.append(elapsed * 1e3)
        metrics = program.metrics
        signature = (metrics.cell_ucode, metrics.iu_ucode,
                     metrics.cell_cycles, metrics.skew)
        if self.signatures.setdefault(config, signature) != signature:
            samples.fail(f"{config.label}: compile not deterministic")
        samples.programs.setdefault(config, program)

    def finish(self, samples: Samples) -> None:
        """Run every distinct artefact once against the reference."""
        for config in CONFIGS:
            program = samples.programs.get(config)
            if program is None:
                continue
            inputs = make_inputs(config.kernel, self.sources[config], self.rng)
            expected = reference(self.sources[config], inputs)
            try:
                result = _timed_run(WarpMachine(program), inputs)
            except Exception as error:
                samples.attempted += 1
                samples.fail(f"{config.label}: {error!r}")
                continue
            _record_run(samples, config, result, expected,
                        predicted_cycles(program), "finish")

    def close(self) -> None:
        pass


class BatchWarm:
    """One cached compile per program at ``unroll="auto"``, then
    alternating ``BatchRunner(program, processes=0).run(items)`` batches
    of polynomial(16,8) and conv1d(64,9)."""

    name = "batch-warm"
    PROGRAMS = (
        Config("polynomial", (16, 8), "auto"),
        Config("conv1d", (64, 9), "auto"),
    )
    #: Distinct seeded input sets per program; each batch draws its
    #: items from them with replacement.
    POOL = 200
    BATCH_ITEMS = 1000
    SEGMENT_ITEMS = 100

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def setup(self) -> list[float]:
        self.cache = CompileCache(capacity=len(self.PROGRAMS) + 1)
        # Warm-up, as in compile-cold, so the timed compiles below do
        # not carry the lazy imports of the first one.
        compile_w2(passthrough(16, 3), cache=self.cache)
        self.runners = {}
        compile_ms = []
        for config in self.PROGRAMS:
            source = config.source
            t0 = time.perf_counter()
            with compile_span(config):
                program = compile_w2(source, unroll=config.unroll,
                                     cache=self.cache)
            compile_ms.append((time.perf_counter() - t0) * 1e3)
            runner = BatchRunner(program, processes=0)
            with span("bench.plan"):
                runner.machine.plan
            self.runners[config] = runner
        return compile_ms

    def prepare(self) -> None:
        self.pool = {}
        for config, runner in self.runners.items():
            source = runner.program.source
            inputs = [make_inputs(config.kernel, source, self.rng)
                      for _ in range(self.POOL)]
            self.pool[config] = (
                inputs,
                [reference(source, item) for item in inputs],
                predicted_cycles(runner.program),
            )

    def loop(self, seconds: float, samples: Samples) -> None:
        started = time.perf_counter()
        while True:
            for config, runner in self.runners.items():
                self._batch(config, runner, samples)
            if time.perf_counter() - started >= seconds:
                return

    def _batch(self, config, runner, samples: Samples) -> None:
        inputs, expected, predicted = self.pool[config]
        picks = self.rng.integers(0, len(inputs), self.BATCH_ITEMS)
        items = [inputs[i] for i in picks]
        machine = runner.machine
        untimed = machine.run
        traced = get_telemetry().enabled
        # The host speed is measured before every SEGMENT_ITEMS-th item
        # of the batch: (start, end, kernel seconds) of each measurement.
        marks: list[tuple[float, float, float]] = []

        def run_item(*args, **kwargs):
            if len(marks) * self.SEGMENT_ITEMS == run_item.calls:
                start = time.perf_counter()
                kernel = kernel_seconds()
                marks.append((start, time.perf_counter(), kernel))
            run_item.calls += 1
            if not traced:
                return untimed(*args, **kwargs)
            with span("bench.run"):
                return untimed(*args, **kwargs)

        run_item.calls = 0
        machine.run = run_item  # removed again below
        t0 = time.perf_counter()
        try:
            with span("bench.batch"):
                batch = runner.run(items)
        finally:
            del machine.run
        t_end = time.perf_counter()
        marks.append((t_end, t_end, kernel_seconds()))
        # Segment i runs from the end of measurement i to the start of
        # measurement i+1 at the mean speed of the two.
        raw = marks[0][0] - t0
        scaled = raw * REFERENCE_S / marks[0][2]
        for (_, begin, kernel), (end, _, next_kernel) in zip(marks, marks[1:]):
            raw += end - begin
            scaled += (end - begin) * REFERENCE_S * 2 / (kernel + next_kernel)
        samples.request_ms.append(raw * 1e3)
        samples.request_scale.append(scaled / raw)
        samples.items += len(items)
        samples.busy_s += raw
        samples.scaled_busy_s += scaled
        samples.kernel_s += [kernel for _, _, kernel in marks]
        samples.batch_retries += batch.retries
        samples.batch_failures += batch.n_failures
        samples.programs.setdefault(config, runner.program)
        for failure in batch.failures:
            samples.attempted += 1
            samples.fail(f"{config.label}: {failure.describe()}")
        for pick, result in zip(picks, batch.results):
            if result is not None:
                _record_run(samples, config, result, expected[pick],
                            predicted, "loop")

    def finish(self, samples: Samples) -> None:
        pass

    def close(self) -> None:
        pass


class EditRun:
    """Each request compiles a pool source through a ``CompileCache``
    (memory smaller than the pool, disk in a temp dir) and runs it once
    on a fresh ``WarpMachine``."""

    name = "edit-run"
    #: Requests per source in one pass; the first is a miss, the rest
    #: memory or disk hits depending on the seeded order.
    REPEATS = 3
    MEMORY_CAPACITY = 16

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def setup(self) -> list[float]:
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=WORK_DIR)
        self.cache = CompileCache(capacity=self.MEMORY_CAPACITY,
                                  cache_dir=self.cache_dir)
        warm = Config("passthrough", (16, 3), 1)
        with span("bench.request"):
            with compile_span(warm):
                program = compile_w2(warm.source, cache=self.cache)
            _timed_run(WarpMachine(program), {"din": np.zeros(16)})
        return []

    def prepare(self) -> None:
        self.sources = {config: config.source for config in CONFIGS}
        self.inputs = {
            config: make_inputs(config.kernel, self.sources[config], self.rng)
            for config in CONFIGS
        }
        self.expected = {
            config: reference(self.sources[config], self.inputs[config])
            for config in CONFIGS
        }
        self.predicted: dict = {}

    def loop(self, seconds: float, samples: Samples) -> None:
        started = time.perf_counter()
        while True:
            self.cache.clear()
            order = shuffled(CONFIGS * self.REPEATS, self.rng)
            for segment in samples.segments(order):
                for config in segment:
                    self._request(config, samples)
            if time.perf_counter() - started >= seconds:
                return

    def _request(self, config, samples: Samples) -> None:
        t0 = time.perf_counter()
        try:
            with span("bench.request"):
                with compile_span(config):
                    program = compile_w2(self.sources[config],
                                         unroll=config.unroll,
                                         cache=self.cache)
                t1 = time.perf_counter()
                result = _timed_run(WarpMachine(program), self.inputs[config])
        except Exception as error:  # counted, reported, run fails
            samples.attempted += 1
            samples.fail(f"{config.label}: {error!r}")
            return
        t2 = time.perf_counter()
        samples.compile_ms.append((t1 - t0) * 1e3)
        samples.request_ms.append((t2 - t0) * 1e3)
        samples.items += 1
        samples.busy_s += t2 - t0
        samples.programs.setdefault(config, program)
        if config not in self.predicted:
            self.predicted[config] = predicted_cycles(program)
        _record_run(samples, config, result, self.expected[config],
                    self.predicted[config], "loop")

    def finish(self, samples: Samples) -> None:
        pass

    def close(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


#: name -> unit of every end-to-end metric, in report order.
E2E_UNITS = {
    "setup_s": "s",
    "compile_ms_p50": "ms",
    "compile_ms_p90": "ms",
    "items_per_s": "1/s",
    "request_ms_p50": "ms",
    "request_ms_p90": "ms",
    "sim_cycles_per_item": "cycles",
    "cell_ucode_words": "words",
    "iu_ucode_words": "words",
    "peak_rss_mb": "MB",
}


def end_to_end(samples, setup_s, setup_compile_ms, scaled=True) -> dict:
    """The end-to-end metrics of one timed loop, with times scaled to
    the reference host speed unless ``scaled`` is false.  A workload
    whose loop makes no compile reports its set-up compiles as
    ``compile_ms_*``."""
    compile_ms, request_ms = samples.compile_ms, samples.request_ms
    busy_s = samples.busy_s
    if scaled:
        compile_ms = [t * f for t, f in zip(compile_ms, samples.compile_scale)]
        request_ms = [t * f for t, f in zip(request_ms, samples.request_scale)]
        busy_s = samples.scaled_busy_s
    compile_ms = compile_ms or setup_compile_ms
    programs = samples.programs.values()
    return {
        "setup_s": statistics.median(setup_s),
        "compile_ms_p50": statistics.median(compile_ms),
        "compile_ms_p90": p90(compile_ms),
        "items_per_s": samples.items / busy_s,
        "request_ms_p50": statistics.median(request_ms),
        "request_ms_p90": p90(request_ms),
        "sim_cycles_per_item": statistics.fmean(samples.cycles.values()),
        "cell_ucode_words": sum(p.metrics.cell_ucode for p in programs),
        "iu_ucode_words": sum(p.metrics.iu_ucode for p in programs),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


WORKLOADS = {cls.name: cls for cls in (CompileCold, BatchWarm, EditRun)}
