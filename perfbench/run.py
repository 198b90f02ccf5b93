"""Benchmark of the W2 compiler and Warp simulator.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` and ``perfbench/README.md`` say why each
was chosen): ``compile-cold``, ``batch-warm``, ``edit-run``.  All are
closed loops with one caller and no process pool.

``--trace 0`` times the workload for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` times it untraced for half the time,
then under ``repro.obs`` telemetry for the other half, and reports the
per-layer metrics plus the tracing overhead; its spans are written to
``perfbench/out/`` as a Chrome trace and as JSON.

Every output is checked against the AST reference interpreter and every
simulated cycle count against the compile-time prediction.  The last
line of standard output is one JSON object; the exit code is 0 only when
every check passed.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Pin NumPy/BLAS to one thread and run compiles at the library's
# default verify level; both before the first NumPy import.
PINNED_ENV = {
    name: "1" for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(PINNED_ENV)
os.environ.pop("REPRO_VERIFY", None)

#: Fresh processes whose set-up time gives ``setup_s`` (the median).
SETUP_REPS = 7


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no W2 compiler sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one "
              f"of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(WORKLOADS[args.workload], args.seed)
    return bench(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace))


def setup_probe(workload_cls, seed: int) -> int:
    """Child-process mode: one set-up from a fresh interpreter, raw and
    scaled to the reference host speed."""
    workload = workload_cls(seed)
    try:
        compile_ms = workload.setup()
        setup_s = time.perf_counter() - T0
    finally:
        workload.close()
    factor = host_factor()
    print(json.dumps({
        "raw_setup_s": [setup_s], "raw_compile_ms": compile_ms,
        "setup_s": [setup_s * factor],
        "compile_ms": [ms * factor for ms in compile_ms],
    }))
    return 0


def host_factor() -> float:
    from hostspeed import REFERENCE_S, kernel_seconds

    return REFERENCE_S / kernel_seconds()


def measure_setup(name: str, seed: int) -> dict[str, list[float]]:
    """Set-up seconds and set-up compile latencies of ``SETUP_REPS``
    fresh processes, run one after another; raw and scaled."""
    setup: dict[str, list[float]] = {}
    for rep in range(SETUP_REPS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed + rep)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        for key, values in probe.items():
            setup.setdefault(key, []).extend(values)
    return setup


def stamp() -> dict:
    """Git SHA and host fingerprint for the result file."""
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            sha = done.stdout.strip()
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "git_sha": sha,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def bench(workload_cls, seed: int, seconds: float, trace: bool) -> int:
    from repro.obs import collecting
    from workloads import E2E_UNITS, WORK_DIR, Samples, end_to_end

    workload = workload_cls(seed)
    telemetry = {}
    try:
        if trace:
            with collecting() as telemetry["setup"]:
                parent_compile_ms = workload.setup()
        else:
            parent_compile_ms = workload.setup()
        parent_setup_s = time.perf_counter() - T0
        parent_factor = host_factor()
        workload.prepare()
        setup = measure_setup(workload.name, seed)

        untraced = Samples()
        workload.loop(seconds / 2 if trace else seconds, untraced)
        measured = [untraced]
        if trace:
            traced = Samples()
            with collecting() as telemetry["loop"]:
                workload.loop(seconds / 2, traced)
            with collecting() as telemetry["finish"]:
                workload.finish(traced)
            measured.append(traced)
        workload.finish(untraced)
    finally:
        workload.close()

    attempted = sum(s.attempted for s in measured)
    failures = [f for s in measured for f in s.failures]
    metrics = end_to_end(untraced, setup["setup_s"], setup["compile_ms"])
    raw = end_to_end(untraced, setup["raw_setup_s"], setup["raw_compile_ms"],
                     scaled=False)
    print(f"workload {workload.name}  seed {seed}  "
          f"{'traced' if trace else 'untraced'}")
    print(f"parent set-up {parent_setup_s:.3f} s; setup_s is the median of "
          f"{SETUP_REPS} fresh processes; times scaled to the reference "
          f"host speed, raw wall-clock alongside")
    counts = {
        "compile_ms": len(untraced.compile_ms or setup["compile_ms"]),
        "request_ms": len(untraced.request_ms),
        "items_per_s": untraced.items,
    }
    for name, unit in E2E_UNITS.items():
        n = next((c for key, c in counts.items() if name.startswith(key)),
                 None)
        suffix = f"  (n={n})" if n is not None else ""
        print(f"  {name:<22} {metrics[name]:>14.4f} {unit:<6} "
              f"raw {raw[name]:>12.4f}{suffix}")
    share = len(failures) / attempted if attempted else 1.0
    print(f"  {'failed_share':<22} {share:>14.4f} "
          f"({len(failures)} of {attempted} operations)")
    for failure in failures[:20]:
        print(f"  FAILED: {failure}")

    report = {name: {"value": metrics[name], "unit": unit}
              for name, unit in E2E_UNITS.items()}
    if trace:
        report = traced_report(
            workload, seed, traced, telemetry, metrics, setup["setup_s"],
            [ms * parent_factor for ms in parent_compile_ms],
        )
    correct = not failures and attempted > 0
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    result = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": trace, "stamp": stamp(), "failed_share": share,
        "failures": failures[:20], "correct": correct,
        "attempted": attempted, "failed": len(failures), "metrics": report,
        "end_to_end_raw": raw,
    }
    path = WORK_DIR / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1))
    print(f"stamp {json.dumps(result['stamp'])}")
    print(f"result written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": report}))
    return 0 if correct else 1


def traced_report(workload, seed, traced, telemetry, untraced_metrics,
                  setup_s, parent_compile_ms) -> dict:
    """Per-layer metrics and tracing overhead; writes the spans out."""
    from layers import OVERHEAD_OF, UNITS, layer_metrics, probe
    from repro.obs import collecting, compile_trace_events, \
        telemetry_to_json, write_chrome_trace
    from workloads import WORK_DIR, end_to_end

    with collecting() as telemetry["probe"]:
        probe(traced)
    traced_metrics = end_to_end(traced, setup_s, parent_compile_ms)
    overhead = {name: traced_metrics[name] - untraced_metrics[name]
                for name in OVERHEAD_OF}
    layers = layer_metrics(traced, telemetry, overhead)

    print("per-layer metrics (traced half)      tracing overhead")
    rows = [(n, v) for n, v in layers.items()
            if not n.startswith("trace.overhead.")]
    notes = [f"{name}: {traced_metrics[name]:.4f} traced vs "
             f"{untraced_metrics[name]:.4f} untraced"
             for name in OVERHEAD_OF]
    for index, (name, value) in enumerate(rows):
        note = notes[index] if index < len(notes) else ""
        print(f"  {name:<28} {value:>14.4f} {UNITS[name]:<6} {note}")

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    base = WORK_DIR / f"{workload.name}-seed{seed}"
    events = []
    for pid, phase in enumerate(("setup", "loop", "finish", "probe"), 1):
        events.extend(compile_trace_events(telemetry[phase], pid=pid))
    write_chrome_trace(f"{base}.trace.json", events)
    Path(f"{base}.spans.json").write_text(json.dumps(
        {phase: telemetry_to_json(t) for phase, t in telemetry.items()}
    ))
    print(f"spans written to {Path(f'{base}.trace.json').relative_to(ROOT)}"
          f" and {Path(f'{base}.spans.json').relative_to(ROOT)}")
    return {name: {"value": value, "unit": UNITS[name]}
            for name, value in layers.items()}


if __name__ == "__main__":
    sys.exit(main())
