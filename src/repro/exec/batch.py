"""Batched execution: one compiled program, many input sets.

The skewed computation model amortises a cell program's load/compile
cost over repeated invocations (Section 3); :class:`BatchRunner` is the
software analogue.  It keeps one :class:`~repro.machine.array.WarpMachine`
alive so the static simulation state — skip-idle block plans, the IU
address schedule, the host I/O sequences — is computed once and reused
for every item, and can optionally fan items out over a
``multiprocessing`` pool (each worker unpickles the program once and
then streams its share of the items).

Batched results are **bit-identical** to one-shot ``simulate`` calls,
item for item: the runner changes where static state lives, never what
the machine computes.  The differential tests lock this down.

A clean serial batch (no injection plan, no pool) runs as **one** lane
run (:meth:`~repro.machine.array.WarpMachine.run_many`): schedules are
data-independent, so the interpreter walks the cycles once with a
``(batch,)`` value per register, memory word and queue entry, and every
item's result shares that run's one read-only ``MachineMetrics``.  If
the lane run raises anything — one item's oversized input or zero
divisor fails the whole run — the runner reruns the batch item by item,
which gives exactly the per-item failures, retries and errors described
below.  Injected faults, pool workers and recorded runs always use the
per-item interpreter.

Batches also *degrade gracefully*: an item that raises a
:class:`~repro.errors.SimulationError` (or whose worker crashes or
hangs) is retried up to ``max_retries`` times with exponential backoff,
and an item that still fails yields a structured :class:`ItemFailure`
record in ``BatchResult.failures`` — never a crashed batch, and never a
silently wrong answer.  ``item_timeout`` bounds each pool item's wall
time (a hung worker surfaces as
:class:`~repro.errors.ItemTimeoutError`).  ``faults`` threads a
deterministic :class:`~repro.faults.InjectionPlan` through every item
and worker — see ``docs/robustness.md``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import (
    FatalFault,
    ItemTimeoutError,
    SimulationError,
    TransientFault,
    WorkerCrashError,
)
from ..machine.array import SimulationResult, WarpMachine
from ..obs import get_telemetry

if TYPE_CHECKING:  # pragma: no cover - circular import at run time
    from ..compiler.driver import CompiledProgram
    from ..faults.plan import InjectionPlan

InputSet = dict[str, np.ndarray]

#: Backoff ceiling between retries, seconds.
_MAX_BACKOFF = 1.0


@dataclass(frozen=True)
class ItemFailure:
    """One batch item that could not be recovered.

    ``error_type`` is the exception class name (taxonomy:
    ``docs/robustness.md``); ``attempts`` counts every try including
    retries; ``fault_report`` lists the faults injected into the final
    attempt, when known.
    """

    index: int
    error_type: str
    message: str
    attempts: int
    fault_report: tuple[str, ...] = ()

    def describe(self) -> str:
        plural = "s" if self.attempts != 1 else ""
        return (
            f"item {self.index} failed after {self.attempts} attempt"
            f"{plural}: {self.error_type}: {self.message}"
        )


@dataclass
class BatchResult:
    """All per-item results of one batched run, plus aggregate stats.

    ``results`` is aligned with the input items; an unrecoverable item
    leaves ``None`` at its position and a matching :class:`ItemFailure`
    in ``failures`` (partial results are first-class: the other items
    are complete and bit-identical to one-shot runs).
    """

    results: list[SimulationResult | None]
    wall_seconds: float
    processes: int = 1
    #: True when the compile that produced the program was a cache hit
    #: (filled in by callers that know; purely informational).
    cache_event: str | None = None
    #: Structured records for items that failed every attempt.
    failures: list[ItemFailure] = field(default_factory=list)
    #: Total retries performed across the batch.
    retries: int = 0

    @property
    def n_items(self) -> int:
        return len(self.results)

    @property
    def n_failures(self) -> int:
        return len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def total_cycles(self) -> int:
        """Machine cycles summed over items (items run back to back)."""
        return sum(r.total_cycles for r in self.results if r is not None)

    @property
    def cycles_per_item(self) -> float:
        completed = sum(1 for r in self.results if r is not None)
        return self.total_cycles / max(completed, 1)

    @property
    def items_per_second(self) -> float:
        return self.n_items / max(self.wall_seconds, 1e-12)

    def _complete_results(self) -> list[SimulationResult]:
        if self.failures:
            raise ValueError(
                f"batch has {self.n_failures} failed item(s) "
                f"({', '.join(str(f.index) for f in self.failures)}); "
                "read BatchResult.failures / per-item results instead of "
                "the stacked outputs"
            )
        return [r for r in self.results if r is not None]

    def outputs(self, name: str) -> np.ndarray:
        """One output array across the batch, stacked on a leading
        item axis.  Raises if any item failed."""
        return np.stack(
            [result.outputs[name] for result in self._complete_results()]
        )

    def stacked_outputs(self) -> dict[str, np.ndarray]:
        results = self._complete_results()
        if not results:
            return {}
        return {name: self.outputs(name) for name in results[0].outputs}


# Worker-process state: each pool worker holds its own machine, built
# once from the pickled program shipped by the initializer, plus the
# (optional) injection plan shipped as JSON.
_worker_machine: WarpMachine | None = None
_worker_plan: "InjectionPlan | None" = None


def _init_worker(program_blob: bytes, plan_doc: dict | None = None) -> None:
    global _worker_machine, _worker_plan
    _worker_machine = WarpMachine(pickle.loads(program_blob))
    if plan_doc is not None:
        from ..faults.plan import InjectionPlan

        _worker_plan = InjectionPlan.from_json(plan_doc)
    else:
        _worker_plan = None


def _run_worker_item(task: tuple[int, int, InputSet]) -> SimulationResult:
    index, attempt, inputs = task
    assert _worker_machine is not None
    injector = None
    if _worker_plan is not None:
        from ..faults.injector import FaultInjector

        injector = FaultInjector(_worker_plan, item=index, attempt=attempt)
        spec = injector.worker_action()
        if spec is not None:
            from ..faults.plan import FaultKind

            if spec.kind is FaultKind.WORKER_KILL:
                os._exit(13)  # die without cleanup, like a real crash
            time.sleep(spec.seconds)  # hang; the driver's timeout reaps us
    return _worker_machine.run(inputs, faults=injector)


def _is_retryable(error: BaseException) -> bool:
    """Transient faults and generic simulation errors are worth a
    retry (an injected fault may be attempt-scoped, a worker may have
    died); fatal faults are not."""
    if isinstance(error, FatalFault):
        return False
    return isinstance(
        error, (TransientFault, SimulationError, multiprocessing.TimeoutError)
    )


class BatchRunner:
    """Stream many input sets through one compiled program.

    ``processes=0`` (the default) runs items sequentially on one reused
    machine.  ``processes=N`` with N > 1 fans items out over a pool of
    N workers; results still come back in item order.

    ``max_retries`` retries a failed item (transient faults, crashed or
    hung workers) with exponential backoff starting at
    ``retry_backoff`` seconds; ``item_timeout`` bounds each item's wall
    time in pool mode (in-process runs cannot be preempted, so the
    timeout applies to simulated hangs only).  Items that exhaust their
    retries become :class:`ItemFailure` records, never exceptions.
    """

    def __init__(
        self,
        program: "CompiledProgram",
        processes: int = 0,
        faults: "InjectionPlan | None" = None,
        max_retries: int = 0,
        item_timeout: float | None = None,
        retry_backoff: float = 0.05,
    ):
        if processes < 0:
            raise ValueError("processes must be >= 0")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if item_timeout is not None and item_timeout <= 0:
            raise ValueError("item_timeout must be positive")
        self._program = program
        self._machine = WarpMachine(program)
        self.processes = processes
        self.faults = faults
        self.max_retries = max_retries
        self.item_timeout = item_timeout
        self.retry_backoff = retry_backoff

    @property
    def program(self) -> "CompiledProgram":
        return self._program

    @property
    def machine(self) -> WarpMachine:
        return self._machine

    def run(self, input_sets: Sequence[InputSet]) -> BatchResult:
        """Run every input set; results are in input order."""
        started = time.perf_counter()
        retries = 0
        if self.processes > 1 and len(input_sets) > 1:
            results, failures, retries = self._run_pool(input_sets)
            used = self.processes
        else:
            results, failures, retries = self._run_serial(input_sets)
            used = 1
        wall = time.perf_counter() - started
        obs = get_telemetry()
        obs.counter("exec.batch.items", len(results))
        obs.counter(
            "exec.batch.cycles",
            sum(r.total_cycles for r in results if r is not None),
        )
        if failures:
            obs.counter("exec.batch.failures", len(failures))
        return BatchResult(
            results=results,
            wall_seconds=wall,
            processes=used,
            failures=failures,
            retries=retries,
        )

    def run_one(self, inputs: InputSet) -> SimulationResult:
        """One item on the reused machine (the batch fast path without
        the batch bookkeeping)."""
        return self._machine.run(inputs)

    # Serial path ---------------------------------------------------------

    def _make_injector(self, index: int, attempt: int):
        if self.faults is None:
            return None
        from ..faults.injector import FaultInjector

        return FaultInjector(self.faults, item=index, attempt=attempt)

    def _backoff(self, attempt: int) -> None:
        if self.retry_backoff > 0:
            time.sleep(min(self.retry_backoff * (2**attempt), _MAX_BACKOFF))

    def _run_serial(
        self, input_sets: Sequence[InputSet]
    ) -> tuple[list[SimulationResult | None], list[ItemFailure], int]:
        if self.faults is None and input_sets:
            lanes = self._run_lanes(input_sets)
            if lanes is not None:
                return lanes, [], 0
        results: list[SimulationResult | None] = []
        failures: list[ItemFailure] = []
        retries = 0
        obs = get_telemetry()
        for index, inputs in enumerate(input_sets):
            attempt = 0
            while True:
                injector = self._make_injector(index, attempt)
                try:
                    if injector is not None:
                        self._simulate_worker_fault(injector)
                    results.append(
                        self._machine.run(inputs, faults=injector)
                    )
                    break
                except Exception as error:
                    if not isinstance(
                        error, (SimulationError, multiprocessing.TimeoutError)
                    ):
                        raise  # programming errors keep their traceback
                    if attempt < self.max_retries and _is_retryable(error):
                        attempt += 1
                        retries += 1
                        obs.counter("retry.count")
                        self._backoff(attempt)
                        continue
                    results.append(None)
                    failures.append(
                        ItemFailure(
                            index=index,
                            error_type=type(error).__name__,
                            message=str(error),
                            attempts=attempt + 1,
                            fault_report=tuple(
                                injector.report() if injector else ()
                            ),
                        )
                    )
                    break
        return results, failures, retries

    def _run_lanes(
        self, input_sets: Sequence[InputSet]
    ) -> list[SimulationResult | None] | None:
        """The whole clean batch as one lane run, or ``None`` if that
        run raised (the caller then runs the items one by one)."""
        obs = get_telemetry()
        try:
            with obs.span("exec.batch.lanes"):
                results = self._machine.run_many(input_sets)
        except Exception:
            obs.counter("exec.batch.lane_fallbacks")
            return None
        obs.counter("exec.batch.lane_items", len(results))
        return results

    def _simulate_worker_fault(self, injector) -> None:
        """In-process stand-ins for worker kill/hang faults, so serial
        runs exercise the same plans deterministically."""
        from ..faults.plan import FaultKind

        spec = injector.worker_action()
        if spec is None:
            return
        if spec.kind is FaultKind.WORKER_KILL:
            raise WorkerCrashError(
                "worker process died running this item (simulated "
                "in-process: serial mode has no worker to kill)"
            )
        raise ItemTimeoutError(
            f"item exceeded its timeout (simulated in-process: the "
            f"injected hang of {spec.seconds}s is not slept serially)"
        )

    # Pool path -----------------------------------------------------------

    def _run_pool(
        self, input_sets: Sequence[InputSet]
    ) -> tuple[list[SimulationResult | None], list[ItemFailure], int]:
        blob = pickle.dumps(self._program, protocol=pickle.HIGHEST_PROTOCOL)
        plan_doc = self.faults.to_json() if self.faults is not None else None
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        results: list[SimulationResult | None] = [None] * len(input_sets)
        failures: list[ItemFailure] = []
        retries = 0
        obs = get_telemetry()
        with context.Pool(
            processes=self.processes,
            initializer=_init_worker,
            initargs=(blob, plan_doc),
        ) as pool:
            pending = {
                index: pool.apply_async(
                    _run_worker_item, ((index, 0, inputs),)
                )
                for index, inputs in enumerate(input_sets)
            }
            attempts = dict.fromkeys(pending, 0)
            for index, inputs in enumerate(input_sets):
                while True:
                    try:
                        results[index] = pending[index].get(
                            timeout=self.item_timeout
                        )
                        break
                    except Exception as raw:
                        error = self._classify_pool_error(raw)
                        if not isinstance(
                            error,
                            (SimulationError, multiprocessing.TimeoutError),
                        ):
                            raise
                        if attempts[index] < self.max_retries and _is_retryable(
                            error
                        ):
                            attempts[index] += 1
                            retries += 1
                            obs.counter("retry.count")
                            self._backoff(attempts[index])
                            pending[index] = pool.apply_async(
                                _run_worker_item,
                                ((index, attempts[index], inputs),),
                            )
                            continue
                        failures.append(
                            ItemFailure(
                                index=index,
                                error_type=type(error).__name__,
                                message=str(error),
                                attempts=attempts[index] + 1,
                            )
                        )
                        break
        return results, failures, retries

    def _classify_pool_error(self, raw: BaseException) -> BaseException:
        """Map raw pool failures onto the fault taxonomy."""
        if isinstance(raw, multiprocessing.TimeoutError):
            timeout = self.item_timeout
            return ItemTimeoutError(
                f"no result within the {timeout:.3g}s item timeout — the "
                "worker is hung, or was killed and its task lost"
            )
        return raw


def run_batch(
    program: "CompiledProgram",
    input_sets: Sequence[InputSet],
    processes: int = 0,
    **kwargs,
) -> BatchResult:
    """Convenience wrapper: one-off batched run of ``input_sets``
    (keyword arguments forward to :class:`BatchRunner`)."""
    return BatchRunner(program, processes=processes, **kwargs).run(input_sets)
