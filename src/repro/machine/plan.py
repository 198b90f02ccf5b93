"""Static, reusable simulation state derived from one compiled program.

Everything here is a pure function of the :class:`CompiledProgram` —
independent of the cell index, the input data and the run — so one
:class:`ExecutionPlan` is shared by all cells of a run and by every run
of a batch:

* **Skip-idle block plans.**  Scheduled blocks are dominated by nop
  cycles (latency bubbles and drain ranges; 30–50% of instruction slots
  on the Table 7-1 programs).  A :class:`BlockPlan` keeps only the
  issuing cycles, so the executor jumps from one active cycle to the
  next instead of ticking through provably idle ranges — the cycle
  arithmetic is unchanged because each active instruction carries its
  offset and the block's total length still advances the clock.
* **The IU address schedule** (``emission_times`` / ``emission_values``
  and its :class:`~repro.obs.metrics.IUMetrics`), identical for every
  cell up to the per-hop delay, rather than re-walked per run.
* **The host I/O sequences** (input references and output bindings per
  channel), rather than re-derived from the host program per run.
* **Lane block plans** (:attr:`ExecutionPlan.lane_blocks`): the same
  block plans decoded with :func:`~repro.analysis.local_opt.lane_evaluator`,
  so one run computes a whole batch over a ``(batch,)`` value axis.
  They are built on the first
  :meth:`~repro.machine.array.WarpMachine.run_many`, never by single
  runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, TYPE_CHECKING

from ..analysis.local_opt import lane_evaluator, pure_evaluator
from ..cellcodegen.emit import CellCode, ScheduledBlock
from ..cellcodegen.isa import (
    AddressSource,
    DeqOp,
    EnqOp,
    MemOp,
    MicroInstr,
    MoveOp,
    Operand,
    Reg,
)
from ..errors import SimulationError
from ..ir.dag import OpKind
from ..lang.ast import Channel, Direction
from ..obs.metrics import IUMetrics

if TYPE_CHECKING:  # pragma: no cover - circular import at run time
    from ..compiler.driver import CompiledProgram
    from ..hostcodegen.io_program import HostBinding, HostValueRef

#: Channel order of a cell's link sides: decoded queue operations
#: index a ``(x, y)`` tuple of queues.
CHANNELS = (Channel.X, Channel.Y)


def _channel_index(
    op: DeqOp | EnqOp, direction: Direction, cycle: int
) -> int:
    """Resolve ``op`` to a channel index on its link side.

    Compilable programs only receive from the left and send to the
    right, so a dequeue reads the cell's input link and an enqueue
    writes its output link; anything else is rejected here, when the
    plan is built, rather than mis-routed at run time.
    """
    if op.queue.direction is not direction:
        side = op.queue.direction.name.lower()
        raise SimulationError(
            f"cycle {cycle}: '{op}' uses the {side} queue, but a cell only "
            "receives from the left and sends to the right"
        )
    return CHANNELS.index(op.queue.channel)


@dataclass(slots=True)
class DecodedInstr:
    """One issuing micro-instruction, pre-decoded for execution.

    Decoding resolves everything that is the same on every dynamic
    issue — the load/store split, the pure-op evaluation functions, the
    operand tuples — so the executor's hot loop does no dispatch, only
    state updates.  ``evaluate`` maps each pure op to its evaluation
    function: :func:`pure_evaluator` for scalar runs,
    :func:`lane_evaluator` for batch runs.  Queue operations are
    resolved to a channel index on their link side (dequeues read the
    input link, enqueues write the output link) plus the queue's name
    for traces.  ``instr`` stays attached for listings.
    """

    cycle: int
    instr: MicroInstr
    #: ``(channel_index, dest, queue_name)`` per dequeue.
    deqs: tuple[tuple[int, Reg, str], ...]
    loads: tuple[MemOp, ...]
    stores: tuple[MemOp, ...]
    #: Queue-addressed memory ops in *slot order* — the order the IU
    #: emits their addresses (``addr_demands`` is stably sorted by
    #: cycle, so same-cycle addresses arrive in instruction-slot
    #: order).  The executor must dequeue addresses in this order even
    #: though it applies loads before stores.
    addressed: tuple[MemOp, ...]
    #: ``(evaluator, sources, dest)`` or ``None``.
    alu: tuple[Callable[..., float], tuple[Operand, ...], Reg] | None
    #: ``(evaluator, sources, dest, is_divide)`` or ``None``.
    mpy: tuple[Callable[..., float], tuple[Operand, ...], Reg, bool] | None
    move: MoveOp | None
    #: ``(channel_index, source, queue_name)`` per enqueue.
    enqs: tuple[tuple[int, Operand, str], ...]

    @classmethod
    def of(
        cls, cycle: int, instr: MicroInstr, evaluate=pure_evaluator
    ) -> "DecodedInstr":
        alu = mpy = None
        if instr.alu is not None:
            fn = evaluate(instr.alu.op)
            assert fn is not None, instr.alu.op
            alu = (fn, tuple(instr.alu.sources), instr.alu.dest)
        if instr.mpy is not None:
            fn = evaluate(instr.mpy.op)
            assert fn is not None, instr.mpy.op
            mpy = (
                fn,
                tuple(instr.mpy.sources),
                instr.mpy.dest,
                instr.mpy.op is OpKind.FDIV,
            )
        return cls(
            cycle=cycle,
            instr=instr,
            deqs=tuple(
                (
                    _channel_index(deq, Direction.LEFT, cycle),
                    deq.dest,
                    str(deq.queue),
                )
                for deq in instr.deqs
            ),
            loads=tuple(m for m in instr.mem if m.is_load),
            stores=tuple(m for m in instr.mem if not m.is_load),
            addressed=tuple(
                m
                for m in instr.mem
                if m.address_source is not AddressSource.LITERAL
            ),
            alu=alu,
            mpy=mpy,
            move=instr.move,
            enqs=tuple(
                (
                    _channel_index(enq, Direction.RIGHT, cycle),
                    enq.source,
                    str(enq.queue),
                )
                for enq in instr.enqs
            ),
        )


@dataclass(frozen=True)
class BlockPlan:
    """One scheduled block, reduced to its issuing cycles."""

    length: int
    #: Number of non-nop instructions (the block's issue count).
    issued: int
    #: The non-nop instructions, pre-decoded, in cycle order.
    active: tuple[DecodedInstr, ...]

    @classmethod
    def of(cls, block: ScheduledBlock, evaluate=pure_evaluator) -> "BlockPlan":
        active = tuple(
            DecodedInstr.of(cycle, instr, evaluate)
            for cycle, instr in enumerate(block.instructions)
            if not instr.is_nop()
        )
        return cls(length=block.length, issued=len(active), active=active)


def block_plans(
    code: CellCode, evaluate=pure_evaluator
) -> dict[int, BlockPlan]:
    """A :class:`BlockPlan` per static block of ``code``."""
    return {
        block.block_id: BlockPlan.of(block, evaluate)
        for block in code.blocks()
    }


def static_send_counts(items) -> dict[Channel, int]:
    """Exact per-channel sends of one cell's full run.

    Schedules are data-independent, so these counts are a static
    property of the code tree: every cell enqueues exactly
    ``sends[channel]`` words per run.  The stream-accounting guard in
    :meth:`~repro.machine.array.WarpMachine.run` compares each
    inter-cell link against them — a dropped or duplicated send shows up
    as a count divergence even when it would not underflow anything.
    """
    sends = dict.fromkeys(CHANNELS, 0)
    for item in items:
        if isinstance(item, ScheduledBlock):
            for instr in item.instructions:
                for enq in instr.enqs:
                    sends[enq.queue.channel] += 1
        else:
            for channel, count in static_send_counts(item.body).items():
                sends[channel] += count * item.trip
    return sends


class ExecutionPlan:
    """All static per-program simulation state, computed once."""

    def __init__(self, program: "CompiledProgram"):
        self._code = program.cell_code
        self.blocks: dict[int, BlockPlan] = block_plans(self._code)
        emissions = list(program.iu_program.emission_times())
        #: The IU emission schedule as parallel time/value lists, so a
        #: cell's address queue is a couple of list copies, not a
        #: per-item enqueue loop.
        self.emission_times: list[int] = [t for t, _d, _a in emissions]
        self.emission_values: list[float] = [
            float(a) for _t, _d, a in emissions
        ]
        self.iu = IUMetrics(
            addresses_emitted=len(emissions),
            first_emit_cycle=min(self.emission_times, default=0),
            last_emit_cycle=max(self.emission_times, default=0),
        )
        self.input_refs: dict[Channel, list["HostValueRef"]] = {
            channel: list(program.host_program.input_sequence(channel))
            for channel in CHANNELS
        }
        self.output_bindings: dict[Channel, list["HostBinding"]] = {
            channel: list(program.host_program.output_bindings(channel))
            for channel in CHANNELS
        }
        #: Static per-channel send count of one cell run, used by the
        #: stream-accounting guard (every inter-cell link must carry
        #: exactly ``sends_per_run[channel]`` words).
        self.sends_per_run = static_send_counts(program.cell_code.items)

    @cached_property
    def lane_blocks(self) -> dict[int, BlockPlan]:
        """:attr:`blocks` decoded for batch runs (built on first use)."""
        return block_plans(self._code, lane_evaluator)

    @property
    def skipped_slots(self) -> int:
        """Instruction slots the fast path never visits (nop cycles)."""
        return sum(
            plan.length - plan.issued for plan in self.blocks.values()
        )
