"""Timestamped FIFO queues between neighbouring cells.

Because data flows strictly left-to-right in compilable programs, the
simulator runs the cells sequentially (cell 0 to completion, then cell 1,
…) while preserving exact cycle semantics: every enqueue records the
cycle it happened, and a dequeue at cycle ``t`` must find its item
already sent at some cycle ``<= t`` — otherwise the compiler's skew
guarantee failed and :class:`QueueUnderflowError` is raised.

Capacity is audited after both endpoints have run, using the same
occupancy definition as the compile-time analysis
(:func:`repro.timing.buffers.occupancy_requirement`)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import QueueCapacityError, QueueUnderflowError
from ..lang.ast import Channel
from ..obs import get_telemetry
from ..obs.metrics import QueueMetrics
from ..timing.buffers import occupancy_requirement


@dataclass
class TimedQueue:
    """A FIFO whose items carry the cycle they were enqueued."""

    name: str
    capacity: int | None = None  # None = flow-controlled (host boundary)
    send_times: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    recv_times: list[int] = field(default_factory=list)
    _cursor: int = 0

    def enqueue(self, time: int, value: float) -> None:
        if self.send_times and time < self.send_times[-1]:
            raise ValueError(f"{self.name}: enqueue times must not decrease")
        self.send_times.append(time)
        self.values.append(value)

    def dequeue(self, time: int) -> float:
        if self._cursor >= len(self.values):
            get_telemetry().counter("fault.detected")
            raise QueueUnderflowError(
                f"{self.name}: dequeue at cycle {time} but only "
                f"{len(self.values)} items were ever sent"
            )
        sent = self.send_times[self._cursor]
        if sent > time:
            get_telemetry().counter("fault.detected")
            raise QueueUnderflowError(
                f"{self.name}: dequeue at cycle {time} of an item sent at "
                f"cycle {sent} — the skew guarantee failed"
            )
        value = self.values[self._cursor]
        self.recv_times.append(time)
        self._cursor += 1
        return value

    @property
    def items_sent(self) -> int:
        return len(self.values)

    def metrics(self) -> QueueMetrics:
        """This queue's occupancy and residency, derived once after both
        endpoints have run."""
        sends = np.asarray(self.send_times, dtype=np.int64)
        recvs = np.asarray(self.recv_times, dtype=np.int64)
        return QueueMetrics(
            name=self.name,
            capacity=self.capacity,
            items_sent=int(sends.size),
            items_received=int(recvs.size),
            high_water=occupancy_requirement(
                sends, recvs, skew=0  # times here are already absolute
            ),
            total_wait_cycles=int((recvs - sends[: recvs.size]).sum()),
            send_times=sends,
            recv_times=recvs,
        )

    def audit(self) -> QueueMetrics:
        """:meth:`metrics`, with the peak occupancy checked against the
        queue's capacity."""
        metrics = self.metrics()
        if self.capacity is not None and metrics.high_water > self.capacity:
            get_telemetry().counter("fault.detected")
            raise QueueCapacityError(
                f"{self.name}: peak occupancy {metrics.high_water} exceeds "
                f"the {self.capacity}-word queue"
            )
        return metrics


class LinkFactory:
    """The machine's one fault seam: it builds the inter-cell links and
    observes the run.

    This clean default builds plain :class:`TimedQueue` links, delays no
    cell and does nothing after the run.
    :class:`~repro.faults.FaultInjector` overrides every hook with its
    injecting version, so the machine's run loop has no fault branches.
    """

    def link(
        self, index: int, channel: Channel, capacity: int | None
    ) -> TimedQueue:
        """The queue of link ``index`` (cell ``index - 1`` -> cell
        ``index``; link 0 is the host boundary)."""
        return TimedQueue(
            name=f"link{index}.{channel.value}", capacity=capacity
        )

    def start_delay(self, cell: int) -> int:
        """Cycles added to ``cell``'s skewed start."""
        return 0

    def after_run(self, links: list[dict[Channel, TimedQueue]]) -> None:
        """Called once every cell has run, before outputs are collected."""

    def report(self) -> list[str]:
        """Descriptions of every fault injected into the run."""
        return []


#: The shared clean seam (it holds no state).
CLEAN_LINKS = LinkFactory()
