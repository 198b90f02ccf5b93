"""Cycle-level machine metrics.

Everything here is computed from raw event times (enqueue/dequeue
cycles, block execution spans) so the simulator can build a
:class:`MachineMetrics` without this module ever importing the machine
package.  The occupancy definition matches the compile-time queue
analysis (:func:`repro.timing.buffers.occupancy_requirement`): an item
occupies the buffer from its send cycle up to *and including* the cycle
of its receive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class CellMetrics:
    """One cell's counts and cycle breakdown over the whole array run.

    The cell executor fills the counts while the cell runs; the machine
    adds ``idle_cycles`` and ``receive_wait_cycles`` once every cell has
    finished.  ``busy + stall + idle == array_cycles``: *busy* cycles
    issued at least one operation, *stall* cycles are schedule bubbles
    (latency / drain nops inside the cell's own execution window,
    ``active_cycles``), *idle* covers the skew lead-in before the cell
    starts plus the tail after it finishes while the rest of the array
    drains.
    """

    cell: int
    start_cycle: int
    end_cycle: int = 0
    busy_cycles: int = 0
    idle_cycles: int = 0
    alu_ops: int = 0
    mpy_ops: int = 0
    mem_reads: int = 0
    mem_writes: int = 0
    receives: int = 0
    sends: int = 0
    #: Cycles the values this cell consumed spent waiting in its input
    #: queues (sum over receives of receive cycle - send cycle).
    receive_wait_cycles: int = 0

    @property
    def issue_cycles(self) -> int:
        """Alias of ``busy_cycles``: cycles that issued a non-nop
        instruction."""
        return self.busy_cycles

    @property
    def active_cycles(self) -> int:
        """The cell's execution window, from its start to its end."""
        return self.end_cycle - self.start_cycle

    @property
    def stall_cycles(self) -> int:
        return max(self.active_cycles - self.busy_cycles, 0)

    @property
    def utilization(self) -> float:
        """Busy fraction of the whole array run."""
        total = self.busy_cycles + self.stall_cycles + self.idle_cycles
        return self.busy_cycles / max(total, 1)

    @property
    def fp_ops(self) -> int:
        return self.alu_ops + self.mpy_ops

    @property
    def flop_utilization(self) -> float:
        """Floating-point issues per FPU issue slot (2 per cycle) over
        the execution window."""
        return self.fp_ops / (2 * max(self.active_cycles, 1))


@dataclass(frozen=True)
class QueueMetrics:
    """One queue's occupancy and residency statistics."""

    name: str
    capacity: int | None
    items_sent: int
    items_received: int
    #: Peak occupancy over the run (words), by the compile-time
    #: occupancy definition.
    high_water: int
    #: Total cycles consumed items spent in the queue.
    total_wait_cycles: int
    send_times: np.ndarray = field(repr=False, default_factory=lambda: np.empty(0, np.int64))
    recv_times: np.ndarray = field(repr=False, default_factory=lambda: np.empty(0, np.int64))

    @property
    def mean_residency(self) -> float:
        """Average cycles an item waited before being received."""
        return self.total_wait_cycles / max(self.items_received, 1)

    def occupancy_series(self) -> tuple[np.ndarray, np.ndarray]:
        """``(cycles, occupancy)`` step series over the run.

        Items enter at their send cycle and leave strictly after their
        receive cycle, mirroring the compile-time analysis where the
        received word still occupies the buffer at the dequeue instant.
        """
        if self.send_times.size == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        # Changes: +1 at each send time, -1 just after each receive.
        times = np.concatenate([self.send_times, self.recv_times + 1])
        deltas = np.concatenate(
            [
                np.ones(self.send_times.size, np.int64),
                -np.ones(self.recv_times.size, np.int64),
            ]
        )
        order = np.argsort(times, kind="stable")
        times, deltas = times[order], deltas[order]
        occupancy = np.cumsum(deltas)
        # Merge simultaneous events into the final occupancy at each time.
        keep = np.append(times[1:] != times[:-1], True)
        return times[keep], occupancy[keep]

    def occupancy_histogram(self, n_bins: int = 0) -> dict[int, int]:
        """Cycles spent at each occupancy level (occupancy -> cycles).

        ``n_bins`` > 0 clips levels above ``n_bins`` into one bucket.
        """
        times, occupancy = self.occupancy_series()
        if times.size == 0:
            return {}
        durations = np.append(np.diff(times), 1)  # last level holds 1 cycle
        histogram: dict[int, int] = {}
        for level, duration in zip(occupancy.tolist(), durations.tolist()):
            if n_bins and level > n_bins:
                level = n_bins
            histogram[level] = histogram.get(level, 0) + duration
        return histogram


@dataclass(frozen=True)
class IUMetrics:
    """The interface unit's address-path statistics."""

    addresses_emitted: int
    first_emit_cycle: int
    last_emit_cycle: int

    @property
    def emit_span_cycles(self) -> int:
        return max(self.last_emit_cycle - self.first_emit_cycle + 1, 0)


@dataclass(frozen=True)
class BlockSpan:
    """One execution of a scheduled block on one cell (for traces)."""

    cell: int
    block_id: int
    start: int
    length: int
    issued_ops: int


@dataclass(frozen=True)
class TraceEvent:
    """One observable I/O action, for execution traces (Figure 4-2)."""

    cell: int
    time: int
    kind: str  # 'send' | 'receive'
    queue: str
    value: float


class MachineRecorder:
    """Opt-in collector of one run's events.

    ``trace`` holds the per-cell I/O events (Figure 4-2 traces), at most
    ``io_limit`` per cell; ``blocks`` holds the per-block execution
    spans (Chrome traces), at most ``limit`` in total.
    """

    def __init__(self, io_limit: int = 0, limit: int = 200_000):
        self.trace: list[TraceEvent] = []
        self.io_limit = io_limit
        self._io_per_cell: dict[int, int] = {}
        self.blocks: list[BlockSpan] = []
        self.limit = limit
        self.truncated = False

    def io(
        self, cell: int, time: int, kind: str, queue: str, value: float
    ) -> None:
        # Cells execute sequentially, so the budget is per cell to keep
        # the early events of *every* cell (Figure 4-2 needs the first
        # events of cells 0 and 1 side by side).
        count = self._io_per_cell.get(cell, 0)
        if count < self.io_limit:
            self._io_per_cell[cell] = count + 1
            self.trace.append(TraceEvent(cell, time, kind, queue, value))

    def block(
        self, cell: int, block_id: int, start: int, length: int, issued: int
    ) -> None:
        if len(self.blocks) >= self.limit:
            self.truncated = True
            return
        self.blocks.append(BlockSpan(cell, block_id, start, length, issued))


@dataclass(frozen=True)
class MachineMetrics:
    """Cycle-level metrics of one simulated run."""

    total_cycles: int
    skew: int
    cells: list[CellMetrics]
    #: Inter-cell data queues plus per-cell address queues, by name.
    queues: dict[str, QueueMetrics]
    iu: IUMetrics

    @property
    def busy_cycles(self) -> int:
        return sum(c.busy_cycles for c in self.cells)

    @property
    def array_utilization(self) -> float:
        """Mean busy fraction across cells."""
        if not self.cells:
            return 0.0
        return sum(c.utilization for c in self.cells) / len(self.cells)

    @property
    def queue_high_water(self) -> dict[str, int]:
        return {name: q.high_water for name, q in self.queues.items()}
