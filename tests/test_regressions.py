"""Regression tests for bugs found during development (mostly by the
property-based fuzzers).  Each test documents the failure mode."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.compiler import compile_w2
from repro.lang import analyze, parse_module
from repro.machine import interpret, simulate
from repro.programs import polynomial


def check(source, inputs):
    expected = interpret(analyze(parse_module(source)), inputs)
    result = simulate(compile_w2(source), inputs)
    for name in result.outputs:
        assert np.allclose(result.outputs[name], expected[name]), name
    return result


class TestFoldReachabilityCycle:
    def test_shift_chain(self):
        """Found by the end-to-end fuzzer: ``v1 := v2; v2 := v0`` with a
        use of both new values created a cycle between the recv folded
        onto v2's register and the adder consuming v2's old value."""
        source = """
module fuzz (a in, b out)
float a[1];
float b[1];
cellprogram (cid : 0 : 0)
begin
    float v0, v1, v2;
    int i;
    v1 := 0.0;
    v2 := 0.0;
    for i := 0 to 0 do begin
        receive (L, X, v0, a[i]);
        v1 := v2;
        v2 := v0;
        send (R, X, v0 + v1 + v2, b[i]);
    end;
end
"""
        check(source, {"a": np.array([2.0])})


class TestRegisterSwap:
    def test_two_way_swap(self):
        """``a := b; b := a`` through pinned registers forms an
        anti-dependence cycle; the scheduler must break it with a saving
        move (a parallel-copy temporary)."""
        source = """
module swap (din in, dout out)
float din[6];
float dout[6];
cellprogram (cid : 0 : 0)
begin
    float a, b, t, x;
    int i;
    a := 1.0;
    b := 2.0;
    for i := 0 to 5 do begin
        receive (L, X, x, din[i]);
        send (R, X, x + a - b, dout[i]);
        t := a;
        a := b;
        b := t;
    end;
end
"""
        result = check(source, {"din": np.arange(6.0)})
        assert list(result.outputs["dout"]) == [-1.0, 2.0, 1.0, 4.0, 3.0, 6.0]

    def test_three_way_rotation(self):
        source = """
module rot (din in, dout out)
float din[6];
float dout[6];
cellprogram (cid : 0 : 0)
begin
    float a, b, c, t, x;
    int i;
    a := 1.0;
    b := 2.0;
    c := 3.0;
    for i := 0 to 5 do begin
        receive (L, X, x, din[i]);
        send (R, X, x*a + b - c, dout[i]);
        t := a;
        a := b;
        b := c;
        c := t;
    end;
end
"""
        check(source, {"din": np.linspace(-1, 1, 6)})


class TestSharedLoopVariable:
    def test_two_loops_one_index(self):
        """Found by the IU register-machine equivalence test: two loops
        driven by the same declared ``int i`` merged their induction
        updates when keyed by variable name; IR loop variables are now
        unique per loop."""
        source = """
module m (a in, b out)
float a[24];
float b[24];
cellprogram (cid : 0 : 0)
begin
    float t, w[24];
    int i, j;
    for i := 0 to 5 do
        for j := 0 to 3 do begin
            receive (L, X, t, a[4*i + j]);
            w[4*i + j] := t;
        end;
    for i := 0 to 23 do
        send (R, X, w[i], b[i]);
end
"""
        rng = np.random.default_rng(0)
        data = rng.standard_normal(24)
        result = check(source, {"a": data})
        assert np.allclose(result.outputs["b"], data)

        # And the lowered IU machine agrees with the plan.
        from repro.iucodegen import lower_iu_program
        from repro.machine.iu_machine import run_iu_program

        program = compile_w2(source)
        lowered = lower_iu_program(program.iu_program)
        expected = [addr for _, _, addr in program.iu_program.emission_times()]
        assert run_iu_program(lowered) == expected


class TestIfConversionOldValue:
    def test_one_sided_if_on_fresh_block_variable(self):
        """A variable assigned in only one arm, not yet read in the
        block, must keep its register value on the other path (an early
        version selected the new value unconditionally)."""
        source = """
module m (a in, b out)
float a[4];
float b[4];
cellprogram (cid : 0 : 0)
begin
    float v, cnt;
    int i;
    cnt := 0.0;
    for i := 0 to 3 do begin
        receive (L, X, v, a[i]);
        if v > 0.0 then
            cnt := cnt + 1.0;
        send (R, X, cnt, b[i]);
    end;
end
"""
        result = check(source, {"a": np.array([1.0, -1.0, 2.0, -2.0])})
        assert list(result.outputs["b"]) == [1.0, 1.0, 2.0, 2.0]


class TestSameCycleMachineOrdering:
    """PR 3 bug-class sweep (ISSUE 5): every same-cycle ordering decision
    in the machine layer, pinned at the executor level so a refactor of
    plan.py/cell.py/array.py cannot silently flip one.

    Audit result: IU-supplied addresses are resolved up front in
    instruction-slot order (not loads-before-stores); all register
    writes are deferred, so intra-cycle read order is immaterial; loads
    observe pre-store memory (the verifier's ``hazard.mem_conflict``
    guarantees no same-cycle same-address ambiguity is ever emitted);
    and a dequeue at the exact send cycle is legal — the same boundary
    the skew/occupancy analyses assume."""

    def test_same_cycle_addresses_consumed_in_slot_order(self):
        from repro.cellcodegen.emit import CellCode, ScheduledBlock
        from repro.cellcodegen.isa import (
            AddressSource,
            EnqOp,
            Lit,
            MemOp,
            MicroInstr,
            Reg,
        )
        from repro.cellcodegen.layout import MemoryLayout
        from repro.config import CellConfig
        from repro.ir.dag import QueueRef
        from repro.lang.ast import Channel, Direction
        from repro.machine.cell import CellExecutor
        from repro.machine.plan import block_plans
        from repro.machine.queue import TimedQueue

        config = CellConfig()
        instructions = [MicroInstr() for _ in range(4)]
        # Cycle 0: seed memory[4] with a sentinel via a literal store.
        instructions[0].mem = [
            MemOp(False, AddressSource.LITERAL, 4, None, Lit(42.0))
        ]
        # Cycle 1: store @q in the EARLIER slot, load @q in the later
        # one.  The IU emits same-cycle addresses in slot order, so the
        # store must take the first queued address (3) and the load the
        # second (4).  A loads-first executor hands each the other's.
        instructions[1].mem = [
            MemOp(False, AddressSource.QUEUE, None, None, Lit(9.0)),
            MemOp(True, AddressSource.QUEUE, None, Reg(0)),
        ]
        instructions[1 + config.mem_read_latency].enqs = [
            EnqOp(QueueRef(Direction.RIGHT, Channel.X), Reg(0))
        ]
        block = ScheduledBlock(
            block_id=0, instructions=instructions, length=len(instructions)
        )
        code = CellCode(
            items=[block], layout=MemoryLayout(), pinned={}, config=config
        )
        addresses = TimedQueue("adr")
        addresses.enqueue(0, 3.0)
        addresses.enqueue(0, 4.0)
        out_x = TimedQueue("out.x")
        executor = CellExecutor(
            code=code,
            config=config,
            cell_index=0,
            start_time=0,
            in_queues={c: TimedQueue(f"in.{c}") for c in Channel},
            out_queues={Channel.X: out_x, Channel.Y: TimedQueue("out.y")},
            address_queue=addresses,
            block_plans=block_plans(code),
        )
        executor.run()
        assert out_x.values == [42.0], (
            "the load consumed the store's address: same-cycle IU "
            "addresses left slot order"
        )
        assert executor._memory[3] == 9.0 and executor._memory[4] == 42.0

    def test_dequeue_at_the_send_cycle_is_legal(self):
        """The boundary every layer shares: an item is available at the
        instant it was sent (occupancy counts it, skew allows it) — one
        cycle earlier underflows."""
        import pytest as _pytest

        from repro.errors import QueueUnderflowError
        from repro.machine.queue import TimedQueue

        queue = TimedQueue("link")
        queue.enqueue(5, 1.25)
        assert queue.dequeue(5) == 1.25
        queue.enqueue(9, 2.5)
        with _pytest.raises(QueueUnderflowError, match="sent at"):
            queue.dequeue(8)

    def test_verifier_rejects_same_cycle_slot_reorder(self):
        """The historical delay-line shape (store @q; load @q in one
        cycle at unroll 3): reordering the slots must be flagged by the
        independent verifier, not only by a lucky differential run."""
        import dataclasses

        from repro.config import DEFAULT_CONFIG
        from repro.verify import mutate, verify_program

        source = """
module delayline (a in, b out)
float a[12];
float b[12];
cellprogram (cid : 0 : 0)
begin
    float xin, old;
    float buf[6];
    int r, c;
    for r := 0 to 1 do
        for c := 0 to 5 do begin
            receive (L, X, xin, a[r*6 + c]);
            old := buf[c];
            buf[c] := xin;
            send (R, X, old, b[r*6 + c]);
        end;
end
"""
        config = dataclasses.replace(DEFAULT_CONFIG, verify="off")
        program = compile_w2(source, config=config, unroll=3)
        mutant = mutate(program, "swap_slots", 0)
        assert mutant is not None
        report = verify_program(mutant.program, level="full")
        assert not report.ok
        assert any(
            check.startswith(("slot_order.", "hazard.", "stream.", "iu."))
            for check in report.failed_checks()
        ), report.format()


#: Builds a one-instruction cell program whose enqueue names the LEFT
#: queue, then builds its execution plan.  Prints how the plan treated
#: the misrouted send.
_MISROUTED_SEND = """
from repro.cellcodegen.emit import CellCode, ScheduledBlock
from repro.cellcodegen.isa import EnqOp, Lit, MicroInstr
from repro.cellcodegen.layout import MemoryLayout
from repro.config import CellConfig
from repro.errors import SimulationError
from repro.ir.dag import QueueRef
from repro.lang.ast import Channel, Direction
from repro.machine.plan import block_plans

instr = MicroInstr()
instr.enqs = [EnqOp(QueueRef(Direction.LEFT, Channel.X), Lit(1.0))]
block = ScheduledBlock(block_id=0, instructions=[instr], length=1)
code = CellCode(
    items=[block], layout=MemoryLayout(), pinned={}, config=CellConfig()
)
try:
    block_plans(code)
except SimulationError as error:
    print("rejected:", error)
else:
    print("accepted")
"""


class TestQueueDirectionCheck:
    """The direction check on queue operations was an ``assert`` in the
    executor, so ``python -O`` dropped it and silently sent an
    ``enq L.X`` on the right-hand ``out.x`` link.  It is now a
    :class:`~repro.errors.SimulationError` raised when the plan is
    built, under every interpreter flag."""

    @pytest.mark.parametrize("queue_op", ["enq", "deq"])
    def test_misrouted_queue_op_rejected_at_plan_build(self, queue_op):
        from repro.cellcodegen.emit import CellCode, ScheduledBlock
        from repro.cellcodegen.isa import DeqOp, EnqOp, Lit, MicroInstr, Reg
        from repro.cellcodegen.layout import MemoryLayout
        from repro.config import CellConfig
        from repro.errors import SimulationError
        from repro.ir.dag import QueueRef
        from repro.lang.ast import Channel, Direction
        from repro.machine.plan import block_plans

        instr = MicroInstr()
        if queue_op == "enq":
            left_x = QueueRef(Direction.LEFT, Channel.X)
            instr.enqs = [EnqOp(left_x, Lit(1.0))]
        else:
            right_y = QueueRef(Direction.RIGHT, Channel.Y)
            instr.deqs = [DeqOp(right_y, Reg(0))]
        block = ScheduledBlock(block_id=0, instructions=[instr], length=1)
        code = CellCode(
            items=[block],
            layout=MemoryLayout(),
            pinned={},
            config=CellConfig(),
        )
        with pytest.raises(SimulationError, match="only receives from"):
            block_plans(code)

    @pytest.mark.parametrize(
        "flags", [[], ["-O"]], ids=["normal", "optimized"]
    )
    def test_misrouted_send_rejected_in_subprocess(self, flags):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        completed = subprocess.run(
            [sys.executable, *flags, "-c", _MISROUTED_SEND],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.startswith("rejected:"), completed.stdout


class TestSkewEdgeCases:
    """ISSUE 5 satellite: residual accounting and clamping edge cases in
    the timing analyses."""

    def test_exact_skew_clamps_at_zero(self):
        """A channel whose sends all precede their receives imposes no
        constraint: the exact method reports 0 (not a negative skew),
        matching the bound method's clamp."""
        import numpy as np_

        from repro.lang import Channel
        from repro.timing.skew import _exact_from_times

        sends = np_.asarray([0, 1, 2], dtype=np_.int64)
        recvs = np_.asarray([5, 6, 7], dtype=np_.int64)
        entry = _exact_from_times(Channel.X, sends, recvs)
        assert entry.skew == 0 and entry.method == "exact"

    def test_single_cell_skew_reports_true_counts(self):
        """method='none' channels of a single-cell program still carry
        the real static send/receive counts (the verifier's conservation
        checks read them), with the global skew floored at 1."""
        from repro.programs import passthrough

        program = compile_w2(passthrough(8, 1))
        assert program.n_cells == 1
        assert program.skew.skew == 1
        from repro.lang import Channel

        entry = program.skew.channel(Channel.X)
        assert entry.method == "none" and entry.skew == 0
        assert entry.n_sends == 8 and entry.n_receives == 8

    def test_occupancy_counts_unconsumed_residual(self):
        """Sends that are never received stay in the queue: occupancy is
        bounded below by the residual, even at huge skew."""
        import numpy as np_

        from repro.timing.buffers import occupancy_requirement

        sends = np_.asarray([0, 3, 6, 9], dtype=np_.int64)
        recvs = np_.asarray([0, 3], dtype=np_.int64)
        assert occupancy_requirement(sends, recvs, skew=100) >= 2
        assert occupancy_requirement(sends, np_.asarray([], dtype=np_.int64), 0) == 4


class TestConservationPad:
    def test_unconsumed_pads_are_legal(self):
        """The Figure 4-1 idiom sends one extra item per distribution
        round; the last cell's pads are never consumed and must not trip
        any audit."""
        from repro.programs import polynomial

        rng = np.random.default_rng(1)
        program = compile_w2(polynomial(8, 4))
        result = simulate(
            program,
            {"z": rng.uniform(-1, 1, 8), "c": rng.standard_normal(4)},
        )
        assert result.total_cycles > 0


_QUOTIENT = """
module quotient (x in, y in, z out)
float x[2];
float y[2];
float z[2];
cellprogram (cid : 0 : 0)
begin
    float a, b;
    receive (L, X, a, x[0]);
    receive (L, Y, b, y[0]);
    send (R, X, a / b, z[0]);
    receive (L, X, a, x[1]);
    receive (L, Y, b, y[1]);
    send (R, X, a / b, z[1]);
end
"""


class TestZeroDivisorFailsOneItem:
    """A cell's FDIV with a 0.0 divisor raised a bare
    ``ZeroDivisionError`` out of ``BatchRunner.run``, losing every other
    item of the batch.  It is now a non-retryable
    :class:`~repro.errors.CellDivisionError` naming the cell, cycle and
    instruction, so the item becomes an ``ItemFailure`` and the rest
    complete — on the per-item path and through the lane path's
    fallback alike."""

    ITEMS = [
        {"x": np.array([1.0, 2.0]), "y": np.array([4.0, 8.0])},
        {"x": np.array([1.0, 2.0]), "y": np.array([4.0, 0.0])},
        {"x": np.array([3.0, -6.0]), "y": np.array([-0.5, 3.0])},
    ]

    @pytest.fixture(scope="class")
    def program(self):
        return compile_w2(_QUOTIENT)

    def test_single_run_names_cell_cycle_and_instruction(self, program):
        from repro.errors import CellDivisionError, FatalFault

        with pytest.raises(CellDivisionError) as caught:
            simulate(program, self.ITEMS[1])
        assert isinstance(caught.value, FatalFault)
        message = str(caught.value)
        assert message.startswith("cell 0: cycle ")
        assert "mpy.fdiv" in message and "divided by zero" in message

    def test_reference_interpreter_keeps_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            interpret(analyze(parse_module(_QUOTIENT)), self.ITEMS[1])

    def _check(self, program, batch):
        assert [f.index for f in batch.failures] == [1]
        failure = batch.failures[0]
        assert failure.error_type == "CellDivisionError"
        assert failure.attempts == 1  # fatal: never retried
        assert batch.retries == 0
        assert batch.results[1] is None
        for index in (0, 2):
            expected = simulate(program, self.ITEMS[index]).outputs["z"]
            got = batch.results[index].outputs["z"]
            assert got.tobytes() == expected.tobytes()

    def test_per_item_path(self, program):
        from repro.exec import BatchRunner
        from repro.faults import InjectionPlan

        # Any injection plan, even an empty one, keeps the batch on the
        # per-item interpreter.
        runner = BatchRunner(program, faults=InjectionPlan(), max_retries=2)
        self._check(program, runner.run(self.ITEMS))

    def test_lane_path_falls_back_per_item(self, program):
        from repro import obs
        from repro.exec import BatchRunner

        with obs.collecting() as telemetry:
            batch = BatchRunner(program, max_retries=2).run(self.ITEMS)
        self._check(program, batch)
        assert telemetry.counters["exec.batch.lane_fallbacks"] == 1
        assert "exec.batch.lane_items" not in telemetry.counters


_WITHOUT_NETWORKX = """
import sys

sys.modules["networkx"] = None  # any `import networkx` now fails
import numpy as np

import repro
from repro.programs import polynomial

program = repro.compile_w2(polynomial(8, 3))
inputs = {"z": np.linspace(-1.0, 1.0, 8), "c": np.array([1.0, -2.0, 0.5])}
outputs = repro.simulate(program, inputs).outputs["results"]
assert np.allclose(outputs, np.polyval(inputs["c"], inputs["z"])), outputs
print("ok")
"""


class TestDeclaredDependenciesOnly:
    """``import repro`` needed ``networkx`` (for the communication-cycle
    analysis), which ``pyproject.toml`` does not declare, so the package
    failed with ``ModuleNotFoundError`` where only ``numpy`` was
    installed.  The analysis now has its own strongly-connected-component
    search."""

    def _run(self, code: str) -> subprocess.CompletedProcess:
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        return subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )

    def test_compiles_and_runs_without_networkx(self):
        completed = self._run(_WITHOUT_NETWORKX)
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "ok"

    def test_import_does_not_load_networkx(self):
        completed = self._run(
            "import sys, repro; print('networkx' in sys.modules)"
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "False"


class TestCacheHitHonoursVerifyLevel:
    """A ``CompileCache`` hit returned the cached artefact without
    running the verify level the caller asked for: compile with
    ``verify="off"``, ask again with ``verify="full"``, and no verifier
    ran.  A hit now carries the level its artefacts passed and is
    verified first when the request asks for a stronger one."""

    SOURCE = polynomial(8, 3)

    @staticmethod
    def _config(level: str):
        import dataclasses

        from repro.config import DEFAULT_CONFIG

        return dataclasses.replace(DEFAULT_CONFIG, verify=level)

    def test_full_request_rejects_an_unverified_mutant(self):
        from repro.errors import VerificationError
        from repro.exec import CompileCache
        from repro.exec.keys import cache_key
        from repro.verify.mutations import mutate

        cache = CompileCache()
        off = self._config("off")
        clean = compile_w2(self.SOURCE, config=off, cache=cache)
        mutant = mutate(clean, "shrink_queue_bound", seed=0)
        assert mutant is not None
        cache.put(cache_key(self.SOURCE, off), mutant.program)
        with pytest.raises(VerificationError):
            compile_w2(self.SOURCE, config=self._config("full"), cache=cache)
        assert cache.last_event == "memory-hit"

    def test_hit_is_verified_once_per_stronger_level(self):
        from repro import obs
        from repro.exec import CompileCache

        cache = CompileCache()
        compile_w2(self.SOURCE, config=self._config("off"), cache=cache)
        verify_spans = []
        for level in ("quick", "quick", "full", "full", "off"):
            with obs.collecting() as telemetry:
                compile_w2(
                    self.SOURCE, config=self._config(level), cache=cache
                )
            assert cache.last_event == "memory-hit"
            verify_spans.append(
                sum(span.name == "verify" for span in telemetry.spans)
            )
        assert verify_spans == [1, 0, 1, 0, 0]


class TestDiskCacheEntryDigest:
    """The disk compile cache trusted any entry that unpickled: 448 of
    the 8393 one-byte flips of a polynomial(8,3) entry still loaded, as
    a different program, so a corrupt entry could be served as a hit.
    Entries now carry the SHA-256 of the pickled program."""

    def test_every_one_byte_flip_is_a_miss(self, tmp_path):
        from repro.exec import CompileCache

        compile_w2(polynomial(8, 3), cache=CompileCache(cache_dir=tmp_path))
        (entry,) = tmp_path.glob("*.w2c")
        blob = entry.read_bytes()
        served = []
        for offset in range(len(blob)):
            corrupted = bytearray(blob)
            corrupted[offset] ^= 0xFF
            entry.write_bytes(bytes(corrupted))
            if CompileCache(cache_dir=tmp_path).get(entry.stem) is not None:
                served.append(offset)
        assert served == []
