"""The Warp machine: array + IU + host, orchestrated.

Cells run under the skewed computation model: cell ``i`` starts at cycle
``i * skew``.  Because compilable programs communicate strictly left to
right, the simulator executes the cells in order — each to completion —
which is *exactly* equivalent to lock-step execution (a cell's behaviour
depends only on its own deterministic schedule and the timestamps of the
items in its input queues) and lets queue underflow, bandwidth and
capacity violations be detected precisely.

The IU's address emissions propagate down the address path with a
one-cycle hop per cell; every cell sees the same address stream, delayed
by its position, and dequeues it in lock step with its own schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import SilentCorruptionDetected
from ..obs import get_telemetry
from ..obs.metrics import (
    CellMetrics,
    MachineMetrics,
    MachineRecorder,
    QueueMetrics,
)

if TYPE_CHECKING:  # pragma: no cover - avoid circular import at run time
    from ..compiler.driver import CompiledProgram
    from ..faults.injector import FaultInjector
    from ..faults.plan import InjectionPlan
from .cell import CellExecutor
from .host import HostMemory, collect_outputs, feed_input_queues
from .plan import CHANNELS, BlockPlan, ExecutionPlan
from .queue import CLEAN_LINKS, LinkFactory, TimedQueue


@dataclass
class SimulationResult:
    """Outputs and statistics of one run."""

    outputs: dict[str, np.ndarray]
    total_cycles: int
    skew: int
    #: Cycle-level metrics: per-cell counts and busy/stall/idle
    #: breakdown, per-queue high-water marks and residency, IU
    #: address-path statistics.
    machine_metrics: MachineMetrics
    #: The run's recorder, if ``simulate(..., record=...)`` was given
    #: one: per-cell I/O events and per-block execution spans.
    record: MachineRecorder | None = None
    #: Descriptions of every fault injected into this run (empty for
    #: clean runs; filled from the active
    #: :class:`~repro.faults.FaultInjector`).
    fault_report: list[str] = field(default_factory=list)

    @property
    def cell_stats(self) -> list[CellMetrics]:
        """Per-cell records, one per cell (``machine_metrics.cells``)."""
        return self.machine_metrics.cells

    def output(self, name: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
        data = self.outputs[name]
        if shape:
            return data.reshape(shape)
        return data


class WarpMachine:
    """A configured Warp machine ready to run compiled programs.

    All state derived purely from the program (skip-idle block plans,
    the IU address schedule, the host I/O sequences) is computed once
    on first use and reused by every subsequent :meth:`run` — keep one
    machine around when streaming many input sets through the same
    program (see :class:`repro.exec.BatchRunner`).
    """

    def __init__(self, program: "CompiledProgram"):
        self._program = program
        self._config = program.config
        self._plan: ExecutionPlan | None = None

    @property
    def plan(self) -> ExecutionPlan:
        """The reusable static simulation state (built lazily)."""
        if self._plan is None:
            self._plan = ExecutionPlan(self._program)
        return self._plan

    def run(
        self,
        inputs: dict[str, np.ndarray],
        record: MachineRecorder | None = None,
        faults: "InjectionPlan | FaultInjector | None" = None,
    ) -> SimulationResult:
        program = self._program
        seam = _seam_of(faults)
        memory = HostMemory.from_inputs(program.ir.host_arrays, inputs)
        metrics = self._execute(memory, self.plan.blocks, record, seam)
        return SimulationResult(
            outputs={
                name: memory.arrays[name].copy()
                for name in program.ir.host_arrays
            },
            total_cycles=metrics.total_cycles,
            skew=metrics.skew,
            machine_metrics=metrics,
            record=record,
            fault_report=seam.report(),
        )

    def run_many(
        self, input_sets: Sequence[dict[str, np.ndarray]]
    ) -> list[SimulationResult]:
        """Clean runs of every input set, computed by **one** run.

        Schedules are data-independent, so every clean run issues the
        same instructions at the same cycles and moves words through the
        same queues; only the values differ.  This run carries one
        float64 lane per item in every register, memory word and queue
        entry (:attr:`ExecutionPlan.lane_blocks`), through the same
        executor, queue checks, stream accounting and collector as
        :meth:`run`.  Each result's outputs are bit-identical to
        ``run(input_sets[i])``.  Every result shares the run's one
        :class:`~repro.obs.metrics.MachineMetrics`, which callers must
        treat as read-only.

        Any :class:`~repro.errors.SimulationError` of one item (an
        oversized input, a zero divisor) raises for the whole call;
        :class:`~repro.exec.BatchRunner` then reruns the batch item by
        item.  There is no fault injection or recording here: those
        stay on :meth:`run`.
        """
        if not input_sets:
            return []
        program = self._program
        memory = HostMemory.from_input_sets(
            program.ir.host_arrays, list(input_sets)
        )
        with np.errstate(all="ignore"):
            metrics = self._execute(
                memory, self.plan.lane_blocks, None, CLEAN_LINKS
            )
        # One (items, words) copy per array: each item's outputs are
        # its own rows, aliasing neither host memory nor another item.
        rows = {
            name: memory.arrays[name].T.copy()
            for name in program.ir.host_arrays
        }
        return [
            SimulationResult(
                outputs={name: data[item] for name, data in rows.items()},
                total_cycles=metrics.total_cycles,
                skew=metrics.skew,
                machine_metrics=metrics,
            )
            for item in range(len(input_sets))
        ]

    def _execute(
        self,
        memory: HostMemory,
        blocks: dict[int, BlockPlan],
        record: MachineRecorder | None,
        seam: LinkFactory,
    ) -> MachineMetrics:
        """Run every cell over ``memory`` and collect the outputs into
        it; ``blocks`` are the plan's scalar or lane block plans."""
        program = self._program
        plan = self.plan
        n_cells = program.n_cells
        skew = program.skew.skew

        # Inter-cell data queues; index i connects cell i-1 -> cell i
        # (index 0 is the host boundary, index n_cells the collector).
        links = [
            {
                channel: seam.link(
                    i, channel, None if i == 0 else self._config.queue_depth
                )
                for channel in CHANNELS
            }
            for i in range(n_cells + 1)
        ]
        feed_input_queues(memory, links[0], plan.input_refs)

        # Address path: the same IU stream per cell, delayed by the hop
        # latency; emitted FIFO order is preserved.
        hop = self._config.address_hop_latency
        cells: list[CellMetrics] = []
        address_metrics: dict[str, QueueMetrics] = {}
        cell_cycles = program.cell_code.total_cycles
        watchdog_slack = getattr(self._config, "watchdog_slack", 64)
        for cell_index in range(n_cells):
            nominal_start = cell_index * skew
            # Pre-materialised from the plan: the same IU stream for
            # every cell, shifted by the hop delay (emission times are
            # already non-decreasing, so no per-item enqueue checks).
            offset = cell_index * hop
            address_queue = TimedQueue(
                name=f"adr{cell_index}",
                capacity=self._config.address_queue_depth,
                send_times=[t + offset for t in plan.emission_times],
                values=list(plan.emission_values),
            )
            executor = CellExecutor(
                code=program.cell_code,
                config=self._config.cell,
                cell_index=cell_index,
                start_time=nominal_start + seam.start_delay(cell_index),
                in_queues=links[cell_index],
                out_queues=links[cell_index + 1],
                address_queue=address_queue,
                block_plans=blocks,
                recorder=record,
                deadline=nominal_start + cell_cycles + watchdog_slack,
            )
            cells.append(executor.run())
            address_metrics[address_queue.name] = address_queue.audit()

        # Queues covered by the metrics: the host boundary (link0),
        # every audited inter-cell link, and the per-cell address
        # queues.  The collector link is omitted — the host drains it
        # outside cell time, so its occupancy is not a machine property.
        queues = {queue.name: queue.metrics() for queue in links[0].values()}
        # Stream accounting: schedules are data-independent, so every
        # inter-cell link must carry *exactly* the static per-run send
        # count — a dropped or duplicated send diverges here even when
        # it would never underflow (unconsumed pads are otherwise
        # legal).  The collector link is checked by collect_outputs
        # against the host program's binding count.
        for i in range(1, n_cells):
            for channel, queue in links[i].items():
                queues[queue.name] = queue.audit()
                expected = plan.sends_per_run[channel]
                if queue.items_sent != expected:
                    get_telemetry().counter("fault.detected")
                    raise SilentCorruptionDetected(
                        f"{queue.name}: stream accounting failed — cell "
                        f"{i - 1} sent {queue.items_sent} words but the "
                        f"static schedule sends exactly {expected} per run"
                    )
        queues.update(address_metrics)
        seam.after_run(links)
        collect_outputs(memory, links[n_cells], plan.output_bindings)

        end_time = max((cell.end_cycle for cell in cells), default=0)
        for cell in cells:
            cell.idle_cycles = max(end_time - cell.active_cycles, 0)
            cell.receive_wait_cycles = sum(
                queues[queue.name].total_wait_cycles
                for queue in links[cell.cell].values()
            )
        return MachineMetrics(
            total_cycles=end_time,
            skew=skew,
            cells=cells,
            queues=queues,
            iu=plan.iu,
        )


def _seam_of(faults) -> LinkFactory:
    """Normalise ``faults=`` (plan, injector or None) to the run's fault
    seam."""
    if faults is None:
        return CLEAN_LINKS
    from ..faults.injector import FaultInjector

    if isinstance(faults, FaultInjector):
        return faults
    return FaultInjector(faults)


def simulate(
    program: "CompiledProgram",
    inputs: dict[str, np.ndarray],
    record: MachineRecorder | None = None,
    faults: "InjectionPlan | FaultInjector | None" = None,
) -> SimulationResult:
    """Run a compiled program on the simulated Warp machine.

    ``record`` is an optional :class:`~repro.obs.metrics.MachineRecorder`
    that collects the run's events (``result.record``): the per-block
    execution spans of every cell, which the Chrome-trace exporter
    turns into per-cell lanes, and, with ``io_limit=N``, the first
    ``N`` sends and receives of every cell, which
    :func:`~repro.machine.trace.format_two_cell_trace` renders as
    Figure 4-2.

    ``faults`` injects a deterministic :class:`~repro.faults.InjectionPlan`
    into the run (see ``docs/robustness.md``); every injected fault is
    either absorbed bit-identically or surfaces as a structured
    :class:`~repro.errors.SimulationError` — never a silent wrong
    answer."""
    return WarpMachine(program).run(inputs, record=record, faults=faults)
