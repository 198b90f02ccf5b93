"""Direct tests of the cell executor's pipeline semantics.

Hand-built micro-programs exercise the exact timing rules the scheduler
relies on: results land ``latency`` cycles after issue, reads before
writeback see the old value, loads observe pre-store memory within a
cycle, and queue transfers respect the one-cycle dequeue latency."""

import pytest

from repro.cellcodegen.emit import CellCode, ScheduledBlock, ScheduledLoop
from repro.cellcodegen.isa import (
    AddressSource,
    AluOp,
    DeqOp,
    EnqOp,
    Lit,
    MemOp,
    MicroInstr,
    MoveOp,
    MpyOp,
    Reg,
)
from repro.cellcodegen.layout import MemoryLayout
from repro.config import CellConfig
from repro.errors import QueueUnderflowError
from repro.ir.dag import OpKind, QueueRef
from repro.lang.ast import Channel, Direction
from repro.machine.cell import CellExecutor
from repro.machine.plan import block_plans
from repro.machine.queue import TimedQueue

IN_X = QueueRef(Direction.LEFT, Channel.X)
OUT_X = QueueRef(Direction.RIGHT, Channel.X)
CFG = CellConfig()


def build_code(instructions, length=None):
    block = ScheduledBlock(
        block_id=0,
        instructions=instructions,
        length=length or len(instructions),
    )
    return CellCode(
        items=[block], layout=MemoryLayout(), pinned={}, config=CFG
    )


def run_cell(code, in_values=()):
    in_x = TimedQueue("in.x")
    for k, value in enumerate(in_values):
        in_x.enqueue(k, value)
    out_x = TimedQueue("out.x")
    executor = CellExecutor(
        code=code,
        config=CFG,
        cell_index=0,
        start_time=0,
        in_queues={Channel.X: in_x, Channel.Y: TimedQueue("in.y")},
        out_queues={Channel.X: out_x, Channel.Y: TimedQueue("out.y")},
        address_queue=TimedQueue("adr"),
        block_plans=block_plans(code),
    )
    stats = executor.run()
    return out_x, stats, executor


def instr(**fields):
    microinstruction = MicroInstr()
    for name, value in fields.items():
        setattr(microinstruction, name, value)
    return microinstruction


class TestPipelineTiming:
    def test_alu_result_lands_after_latency(self):
        # r0 := 1 + 2 at cycle 0; send r0 at alu_latency (new value) --
        # sending one cycle earlier must still see 0.0.
        instructions = [MicroInstr() for _ in range(CFG.alu_latency + 1)]
        instructions[0].alu = AluOp(OpKind.FADD, Reg(0), (Lit(1.0), Lit(2.0)))
        instructions[CFG.alu_latency].enqs = [EnqOp(OUT_X, Reg(0))]
        out, _, _ = run_cell(build_code(instructions))
        assert out.values == [3.0]

    def test_read_before_writeback_sees_old_value(self):
        instructions = [MicroInstr() for _ in range(CFG.alu_latency + 1)]
        instructions[0].alu = AluOp(OpKind.FADD, Reg(0), (Lit(1.0), Lit(2.0)))
        # One cycle before the writeback: still the initial 0.0.
        instructions[CFG.alu_latency - 1].enqs = [EnqOp(OUT_X, Reg(0))]
        out, _, _ = run_cell(build_code(instructions))
        assert out.values == [0.0]

    def test_mpy_div_latency(self):
        length = CFG.div_latency + 1
        instructions = [MicroInstr() for _ in range(length)]
        instructions[0].mpy = MpyOp(OpKind.FDIV, Reg(1), (Lit(9.0), Lit(2.0)))
        instructions[CFG.div_latency].enqs = [EnqOp(OUT_X, Reg(1))]
        out, _, _ = run_cell(build_code(instructions))
        assert out.values == [4.5]

    def test_move_latency(self):
        instructions = [MicroInstr() for _ in range(3)]
        instructions[0].move = MoveOp(Reg(2), Lit(7.0))
        instructions[1].enqs = [EnqOp(OUT_X, Reg(2))]
        out, _, _ = run_cell(build_code(instructions))
        assert out.values == [7.0]

    def test_deq_latency(self):
        instructions = [MicroInstr() for _ in range(3)]
        instructions[0].deqs = [DeqOp(IN_X, Reg(0))]
        instructions[CFG.queue_latency].enqs = [EnqOp(OUT_X, Reg(0))]
        out, _, _ = run_cell(build_code(instructions), in_values=[5.5])
        assert out.values == [5.5]

    def test_same_cycle_forward_sees_stale_register(self):
        instructions = [MicroInstr() for _ in range(2)]
        instructions[0].deqs = [DeqOp(IN_X, Reg(0))]
        instructions[0].enqs = [EnqOp(OUT_X, Reg(0))]  # same cycle!
        out, _, _ = run_cell(build_code(instructions), in_values=[5.5])
        assert out.values == [0.0]


class TestMemorySemantics:
    def test_load_sees_pre_store_value_same_cycle(self):
        instructions = [MicroInstr() for _ in range(CFG.mem_read_latency + 2)]
        # Cycle 0: store 9.0 to @3 AND load @3 -> the load wins the race
        # (reads pre-store memory), per the scheduler's WAR ordering.
        instructions[0].mem = [
            MemOp(True, AddressSource.LITERAL, 3, Reg(0)),
            MemOp(False, AddressSource.LITERAL, 3, None, Lit(9.0)),
        ]
        instructions[CFG.mem_read_latency].enqs = [EnqOp(OUT_X, Reg(0))]
        out, _, executor = run_cell(build_code(instructions))
        assert out.values == [0.0]
        assert executor._memory[3] == 9.0

    def test_store_then_load_next_cycle(self):
        length = CFG.mem_read_latency + 3
        instructions = [MicroInstr() for _ in range(length)]
        instructions[0].mem = [
            MemOp(False, AddressSource.LITERAL, 5, None, Lit(4.25))
        ]
        instructions[1].mem = [
            MemOp(True, AddressSource.LITERAL, 5, Reg(1))
        ]
        instructions[1 + CFG.mem_read_latency].enqs = [EnqOp(OUT_X, Reg(1))]
        out, _, _ = run_cell(build_code(instructions))
        assert out.values == [4.25]


class TestLoopsAndStats:
    def test_loop_repeats_block(self):
        body = ScheduledBlock(
            block_id=0,
            instructions=[
                instr(deqs=[DeqOp(IN_X, Reg(0))]),
                instr(enqs=[EnqOp(OUT_X, Reg(0))]),
            ],
            length=2,
        )
        loop = ScheduledLoop(
            loop_id=0, var="i", start=0, step=1, trip=3, body=[body]
        )
        code = CellCode(
            items=[loop], layout=MemoryLayout(), pinned={}, config=CFG
        )
        out, stats, _ = run_cell(code, in_values=[1.0, 2.0, 3.0])
        assert out.values == [1.0, 2.0, 3.0]
        assert out.send_times == [1, 3, 5]
        assert stats.receives == 3 and stats.sends == 3
        assert stats.end_cycle == 6

    def test_underflow_detected(self):
        instructions = [instr(deqs=[DeqOp(IN_X, Reg(0))])]
        with pytest.raises(QueueUnderflowError):
            run_cell(build_code(instructions), in_values=[])

    def test_op_statistics(self):
        instructions = [MicroInstr() for _ in range(CFG.alu_latency + 1)]
        instructions[0].alu = AluOp(OpKind.FADD, Reg(0), (Lit(1.0), Lit(1.0)))
        instructions[0].mpy = MpyOp(OpKind.FMUL, Reg(1), (Lit(2.0), Lit(2.0)))
        _, stats, _ = run_cell(build_code(instructions))
        assert stats.alu_ops == 1 and stats.mpy_ops == 1
        assert 0 < stats.flop_utilization <= 1
