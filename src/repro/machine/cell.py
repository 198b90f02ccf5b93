"""Cycle-accurate execution of one Warp cell's microcode.

The executor walks the scheduled program tree instruction by instruction,
with an absolute cycle counter (the cell's start is offset by its skew).
Pipelining is modelled exactly: an operation issued at cycle ``t`` with
latency ``L`` writes its destination register at ``t + L``; reads at or
after that cycle see the new value, earlier reads see the old one —
precisely the semantics the scheduler's latency edges assume, so any
scheduler bug surfaces as a wrong result against the reference
interpreter.

Values are floats, or ``(batch,)`` float64 arrays in a lane run
(:meth:`~repro.machine.array.WarpMachine.run_many`).  Nothing here
branches on a value — addresses come from the IU, control flow from
the static program tree — so one executor serves both.
"""

from __future__ import annotations

import heapq

from ..cellcodegen.emit import CellCode, ScheduledBlock, ScheduledLoop
from ..cellcodegen.isa import AddressSource, Lit, Operand, Reg
from ..errors import CellDivisionError, CellHangError
from ..lang.ast import Channel
from ..config import CellConfig
from ..obs import get_telemetry
from ..obs.metrics import CellMetrics, MachineRecorder
from .plan import CHANNELS, BlockPlan, DecodedInstr
from .queue import TimedQueue


class CellExecutor:
    """Execute one cell's program against its queues."""

    def __init__(
        self,
        code: CellCode,
        config: CellConfig,
        cell_index: int,
        start_time: int,
        in_queues: dict[Channel, TimedQueue],
        out_queues: dict[Channel, TimedQueue],
        address_queue: TimedQueue,
        block_plans: dict[int, BlockPlan],
        recorder: MachineRecorder | None = None,
        deadline: int | None = None,
    ):
        self._code = code
        self._config = config
        self._cell = cell_index
        self._start = start_time
        #: Link sides indexed by the channel index decoded into each
        #: queue operation (see :data:`~repro.machine.plan.CHANNELS`).
        self._in = tuple(in_queues[channel] for channel in CHANNELS)
        self._out = tuple(out_queues[channel] for channel in CHANNELS)
        self._addr = address_queue
        self._recorder = recorder
        #: Per-I/O trace hook, or None when no I/O events are recorded.
        self._io = None
        if recorder is not None and recorder.io_limit:
            self._io = recorder.io
        #: Watchdog: absolute cycle by which the cell must have
        #: finished.  Healthy cells finish exactly on their statically
        #: predicted cycle, so the deadline (predicted end + slack) can
        #: only be crossed by a stalled or hung cell.
        self._deadline = deadline
        #: Skip-idle plans per block, shared across cells and runs.
        self._block_plans = block_plans
        self._registers = [0.0] * config.n_registers
        self._pending: list[tuple[int, int, int, float]] = []  # (time, seq, reg, value)
        self._seq = 0
        self._memory = [0.0] * config.memory_words
        self.metrics = CellMetrics(cell=cell_index, start_cycle=start_time)

    # Register file with delayed writeback --------------------------------

    def _apply_writebacks(self, time: int) -> None:
        while self._pending and self._pending[0][0] <= time:
            _, _, reg, value = heapq.heappop(self._pending)
            self._registers[reg] = value

    def _write_later(self, time: int, reg: Reg, value: float) -> None:
        self._seq += 1
        heapq.heappush(self._pending, (time, self._seq, reg.index, value))

    def _read(self, operand: Operand) -> float:
        if isinstance(operand, Lit):
            return operand.value
        return self._registers[operand.index]

    # Execution ---------------------------------------------------------------

    def run(self) -> CellMetrics:
        end = self._run_items(self._code.items, self._start)
        # Flush outstanding writebacks (architecturally they land during
        # the drain cycles already counted in the block lengths).
        self._apply_writebacks(end)
        self.metrics.end_cycle = end
        return self.metrics

    def _run_items(self, items, time: int) -> int:
        for item in items:
            if isinstance(item, ScheduledBlock):
                time = self._run_block(item, time)
                if self._deadline is not None and time > self._deadline:
                    self._watchdog_expired(time)
            else:
                assert isinstance(item, ScheduledLoop)
                for _ in range(item.trip):
                    time = self._run_items(item.body, time)
        return time

    def _watchdog_expired(self, time: int) -> None:
        get_telemetry().counter("fault.detected")
        raise CellHangError(
            f"cell {self._cell}: watchdog expired — still executing at "
            f"cycle {time}, deadline was cycle {self._deadline} "
            f"(started at cycle {self._start}); the cell is stalled or hung"
        )

    def _run_block(self, block: ScheduledBlock, time: int) -> int:
        plan = self._block_plans[block.block_id]
        self.metrics.busy_cycles += plan.issued
        if self._recorder is not None:
            self._recorder.block(
                self._cell, block.block_id, time, block.length, plan.issued
            )
        # Skip-idle fast path: visit only the issuing cycles; nop ranges
        # (latency bubbles, drain tails) advance the clock for free via
        # the block length.
        for decoded in plan.active:
            self._execute(decoded, time + decoded.cycle)
        return time + block.length

    def _execute(self, decoded: DecodedInstr, now: int) -> None:
        # Hot path: one call per *issuing* cycle per cell per run.  The
        # instruction arrives pre-decoded (load/store split, pure-op
        # evaluators resolved, queues resolved to link-side indices);
        # locals keep the per-issue constant factor low.
        pending = self._pending
        if pending and pending[0][0] <= now:
            self._apply_writebacks(now)
        config = self._config
        metrics = self.metrics
        read = self._read
        io = self._io
        for channel, dest, name in decoded.deqs:
            value = self._in[channel].dequeue(now)
            self._write_later(now + config.queue_latency, dest, value)
            metrics.receives += 1
            if io is not None:
                io(self._cell, now, "receive", name, value)
        # IU-supplied addresses are consumed in instruction-slot order
        # (the order the IU emitted them), which is not necessarily
        # loads-before-stores — resolve them all up front.
        addresses: dict[int, int] | None = None
        if decoded.addressed:
            addresses = {
                id(mem): int(self._addr.dequeue(now))
                for mem in decoded.addressed
            }
        # Memory: loads observe the pre-store contents of this cycle.
        for mem in decoded.loads:
            address = self._address(mem, addresses)
            value = self._memory[address]
            assert mem.reg is not None
            self._write_later(now + config.mem_read_latency, mem.reg, value)
            metrics.mem_reads += 1
        for mem in decoded.stores:
            address = self._address(mem, addresses)
            assert mem.store_value is not None
            self._memory[address] = read(mem.store_value)
            metrics.mem_writes += 1
        if decoded.alu is not None:
            fn, sources, dest = decoded.alu
            result = fn(*[read(s) for s in sources])
            self._write_later(now + config.alu_latency, dest, result)
            metrics.alu_ops += 1
        if decoded.mpy is not None:
            fn, sources, dest, is_div = decoded.mpy
            try:
                result = fn(*[read(s) for s in sources])
            except ZeroDivisionError:
                raise CellDivisionError(
                    f"cell {self._cell}: cycle {now}: '{decoded.instr}' "
                    "divided by zero"
                ) from None
            latency = config.div_latency if is_div else config.mpy_latency
            self._write_later(now + latency, dest, result)
            metrics.mpy_ops += 1
        move = decoded.move
        if move is not None:
            self._write_later(
                now + config.move_latency, move.dest, read(move.source)
            )
        for channel, source, name in decoded.enqs:
            value = read(source)
            self._out[channel].enqueue(now, value)
            metrics.sends += 1
            if io is not None:
                io(self._cell, now, "send", name, value)

    def _address(self, mem, addresses: dict[int, int] | None) -> int:
        if mem.address_source is AddressSource.LITERAL:
            return mem.address
        assert addresses is not None
        return addresses[id(mem)]
