"""Batched execution: one compiled program, many input sets.

The skewed computation model amortises a cell program's load/compile
cost over repeated invocations (Section 3); :class:`BatchRunner` is the
software analogue.  It keeps one :class:`~repro.machine.array.WarpMachine`
alive so the static simulation state — skip-idle block plans, the IU
address schedule, the host I/O sequences — is computed once and reused
for every item.

Batched results are **bit-identical** to one-shot ``simulate`` calls,
item for item: the runner changes where static state lives, never what
the machine computes.  The differential tests lock this down.

A clean batch (no injection plan) runs as **one** lane run
(:meth:`~repro.machine.array.WarpMachine.run_many`): schedules are
data-independent, so the interpreter walks the cycles once with a
``(batch,)`` value per register, memory word and queue entry, and every
item's result shares that run's one read-only ``MachineMetrics``.  If
the lane run raises anything — one item's oversized input or zero
divisor fails the whole run — the runner reruns the batch item by item,
which gives exactly the per-item failures, retries and errors described
below.  Injected faults and recorded runs always use the per-item
interpreter.

Batches also *degrade gracefully*: an item that raises a
:class:`~repro.errors.SimulationError` is retried up to ``max_retries``
times with exponential backoff (a :class:`~repro.errors.FatalFault`
fails at once), and an item that still fails yields a structured
:class:`ItemFailure` record in ``BatchResult.failures`` — never a
crashed batch, and never a silently wrong answer.  ``faults`` threads a
deterministic :class:`~repro.faults.InjectionPlan` through every item —
see ``docs/robustness.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import FatalFault, SimulationError
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


class BatchRunner:
    """Stream many input sets through one compiled program, in process.

    Items run on one reused machine: a clean batch as one lane run,
    a batch with an injection plan (or whose lane run raised) item by
    item.  ``processes`` accepts only ``0`` (kept for callers that pass
    it explicitly).

    ``max_retries`` retries a failed item with exponential backoff
    starting at ``retry_backoff`` seconds.  Items that exhaust their
    retries become :class:`ItemFailure` records, never exceptions.
    """

    def __init__(
        self,
        program: "CompiledProgram",
        processes: int = 0,
        faults: "InjectionPlan | None" = None,
        max_retries: int = 0,
        retry_backoff: float = 0.05,
    ):
        if processes != 0:
            raise ValueError("processes must be 0: batches run in process")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self._program = program
        self._machine = WarpMachine(program)
        self.faults = faults
        self.max_retries = max_retries
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
        results = None
        if self.faults is None and input_sets:
            results = self._run_lanes(input_sets)
        failures: list[ItemFailure] = []
        retries = 0
        if results is None:
            results, failures, retries = self._run_items(input_sets)
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
            failures=failures,
            retries=retries,
        )

    def run_one(self, inputs: InputSet) -> SimulationResult:
        """One item on the reused machine (the batch fast path without
        the batch bookkeeping)."""
        return self._machine.run(inputs)

    def _make_injector(self, index: int, attempt: int):
        if self.faults is None:
            return None
        from ..faults.injector import FaultInjector

        return FaultInjector(self.faults, item=index, attempt=attempt)

    def _backoff(self, attempt: int) -> None:
        if self.retry_backoff > 0:
            time.sleep(min(self.retry_backoff * (2**attempt), _MAX_BACKOFF))

    def _run_items(
        self, input_sets: Sequence[InputSet]
    ) -> tuple[list[SimulationResult | None], list[ItemFailure], int]:
        """Item by item, with retries: a fault stays in its item."""
        results: list[SimulationResult | None] = []
        failures: list[ItemFailure] = []
        retries = 0
        obs = get_telemetry()
        for index, inputs in enumerate(input_sets):
            attempt = 0
            while True:
                injector = self._make_injector(index, attempt)
                try:
                    results.append(
                        self._machine.run(inputs, faults=injector)
                    )
                    break
                except SimulationError as error:
                    if attempt < self.max_retries and not isinstance(
                        error, FatalFault
                    ):
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


def run_batch(
    program: "CompiledProgram",
    input_sets: Sequence[InputSet],
    **kwargs,
) -> BatchResult:
    """Convenience wrapper: one-off batched run of ``input_sets``
    (keyword arguments forward to :class:`BatchRunner`)."""
    return BatchRunner(program, **kwargs).run(input_sets)
