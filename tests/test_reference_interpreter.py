"""Unit tests for the AST-level reference interpreter, plus the
differential sweep: every bundled program and every ``examples/`` W2
source through both the cycle simulator and the interpreter, with
bit-identical outputs (and the batched path bit-identical to one-shot,
item for item)."""

import numpy as np
import pytest

from repro.compiler import compile_w2
from repro.errors import HostDataError
from repro.exec import BatchRunner
from repro.lang import analyze, parse_module
from repro.machine import interpret, simulate
from repro.programs import conv2d

from conftest import example_w2_sources


def run(source, inputs):
    return interpret(analyze(parse_module(source)), inputs)


class TestBasics:
    def test_single_cell_passthrough(self):
        src = """
module m (a in, b out)
float a[3];
float b[3];
cellprogram (cid : 0 : 0)
begin
    float t;
    int i;
    for i := 0 to 2 do begin
        receive (L, X, t, a[i]);
        send (R, X, t, b[i]);
    end;
end
"""
        outputs = run(src, {"a": np.array([1.0, 2.0, 3.0])})
        assert list(outputs["b"]) == [1.0, 2.0, 3.0]

    def test_arithmetic_and_literals(self):
        src = """
module m (a in, b out)
float a[2];
float b[2];
cellprogram (cid : 0 : 0)
begin
    float t;
    int i;
    for i := 0 to 1 do begin
        receive (L, X, t, a[i]);
        send (R, X, (t + 1.0) * 2.0 - 0.5, b[i]);
    end;
end
"""
        outputs = run(src, {"a": np.array([1.0, -2.0])})
        assert list(outputs["b"]) == [3.5, -2.5]

    def test_division(self):
        src = """
module m (a in, b out)
float a[1];
float b[1];
cellprogram (cid : 0 : 0)
begin
    float t;
    receive (L, X, t, a[0]);
    send (R, X, t / 4.0, b[0]);
end
"""
        outputs = run(src, {"a": np.array([10.0])})
        assert outputs["b"][0] == 2.5

    def test_true_branching_semantics(self):
        """The interpreter branches (doesn't if-convert): both arms'
        side effects are exclusive."""
        src = """
module m (a in, b out)
float a[4];
float b[4];
cellprogram (cid : 0 : 0)
begin
    float t, u;
    int i;
    for i := 0 to 3 do begin
        receive (L, X, t, a[i]);
        if t >= 0.0 then u := 1.0; else u := 0.0 - 1.0;
        send (R, X, u, b[i]);
    end;
end
"""
        outputs = run(src, {"a": np.array([1.0, -2.0, 0.0, -0.1])})
        assert list(outputs["b"]) == [1.0, -1.0, 1.0, -1.0]

    def test_cell_local_arrays(self):
        src = """
module m (a in, b out)
float a[4];
float b[4];
cellprogram (cid : 0 : 0)
begin
    float t, buf[4];
    int i;
    for i := 0 to 3 do begin
        receive (L, X, t, a[i]);
        buf[3 - i] := t;
    end;
    for i := 0 to 3 do
        send (R, X, buf[i], b[i]);
end
"""
        outputs = run(src, {"a": np.array([1.0, 2.0, 3.0, 4.0])})
        assert list(outputs["b"]) == [4.0, 3.0, 2.0, 1.0]

    def test_downto(self):
        src = """
module m (a in, b out)
float a[3];
float b[3];
cellprogram (cid : 0 : 0)
begin
    float t;
    int i;
    for i := 2 downto 0 do begin
        receive (L, X, t, a[i]);
        send (R, X, t, b[2 - i]);
    end;
end
"""
        outputs = run(src, {"a": np.array([1.0, 2.0, 3.0])})
        assert list(outputs["b"]) == [3.0, 2.0, 1.0]


class TestMultiCell:
    def test_streams_connect_cells(self):
        src = """
module m (a in, b out)
float a[4];
float b[4];
cellprogram (cid : 0 : 2)
begin
    float t;
    int i;
    for i := 0 to 3 do begin
        receive (L, X, t, a[i]);
        send (R, X, t + 1.0, b[i]);
    end;
end
"""
        outputs = run(src, {"a": np.zeros(4)})
        assert list(outputs["b"]) == [3.0] * 4  # +1 per cell, 3 cells

    def test_unbalanced_streams_detected(self):
        src = """
module m (a in, b out)
float a[4];
float b[4];
cellprogram (cid : 0 : 1)
begin
    float t;
    int i;
    for i := 0 to 3 do
        receive (L, X, t, a[i]);
    for i := 0 to 1 do
        send (R, X, t, b[i]);
end
"""
        with pytest.raises(HostDataError, match="empty stream"):
            run(src, {"a": np.zeros(4)})

    def test_receive_without_external_on_first_cell(self):
        src = """
module m (a in, b out)
float a[2];
float b[2];
cellprogram (cid : 0 : 0)
begin
    float t;
    receive (L, X, t);
    send (R, X, t, b[0]);
end
"""
        with pytest.raises(HostDataError, match="no external"):
            run(src, {"a": np.zeros(2)})


class TestFunctionsAndBooleans:
    def test_function_called_twice(self):
        src = """
module m (a in, b out)
float a[4];
float b[4];
cellprogram (cid : 0 : 0)
begin
    function half
    begin
        float t;
        int i;
        for i := 0 to 1 do begin
            receive (L, X, t, a[i]);
            send (R, X, t * 0.5, b[i]);
        end;
    end
    call half;
    call half;
end
"""
        # NOTE: both calls execute the same externals (a[0..1] -> b[0..1]);
        # the second call overwrites the first with identical values.
        outputs = run(src, {"a": np.array([2.0, 4.0, 0.0, 0.0])})
        assert list(outputs["b"][:2]) == [1.0, 2.0]

    def test_boolean_operators(self):
        src = """
module m (a in, b out)
float a[4];
float b[4];
cellprogram (cid : 0 : 0)
begin
    float t, u;
    int i;
    for i := 0 to 3 do begin
        receive (L, X, t, a[i]);
        u := 0.0;
        if t > 0.0 and t < 2.0 or not (t <= 10.0) then
            u := 1.0;
        send (R, X, u, b[i]);
    end;
end
"""
        outputs = run(src, {"a": np.array([1.0, 5.0, 11.0, -1.0])})
        assert list(outputs["b"]) == [1.0, 0.0, 1.0, 0.0]


# Differential sweep: simulator vs reference interpreter ------------------

#: Programs whose compiled arithmetic is *reassociated* (height
#: reduction rebalances the conv2d row sum), so the simulator rounds
#: differently from the source-order interpreter.  Everything else must
#: match bit for bit.
REASSOCIATED = {"conv2d"}

#: With unrolling, height reduction also rebalances the per-iteration
#: accumulation chains of these programs (`acc := acc + w*x` unrolled
#: N times becomes a balanced tree), so the unrolled sweep compares
#: them with tolerance too.
REASSOCIATED_UNROLLED = REASSOCIATED | {"matmul", "fir_bank"}


def _assert_outputs_equal(name, simulated, reference, reassociated=REASSOCIATED):
    """Simulator outputs vs interpreter outputs, bit-identical unless
    the program's arithmetic is reassociated by the optimiser."""
    assert set(simulated) == set(reference)
    for out_name in sorted(reference):
        got, expected = simulated[out_name], reference[out_name]
        if name in reassociated:
            np.testing.assert_allclose(
                got, expected, rtol=1e-9, atol=1e-12,
                err_msg=f"{name}:{out_name}",
            )
        else:
            assert np.array_equal(got, expected), (
                f"{name}:{out_name} differs between simulator and "
                f"reference interpreter"
            )


class TestDifferentialSweep:
    """The cycle simulator and the AST interpreter agree on every
    program, bit for bit (modulo documented reassociation)."""

    def test_bundled_programs(self, program_suite):
        for name, source, inputs, _ref in program_suite:
            program = compile_w2(source)
            result = simulate(program, inputs)
            reference = interpret(analyze(parse_module(source)), inputs)
            _assert_outputs_equal(name, result.outputs, reference)

    @pytest.mark.parametrize("unroll", [2, 4, "auto"])
    def test_bundled_programs_unrolled(self, program_suite, unroll):
        """Unrolling changes schedules, never results."""
        for name, source, inputs, _ref in program_suite:
            program = compile_w2(source, unroll=unroll)
            result = simulate(program, inputs)
            reference = interpret(analyze(parse_module(source)), inputs)
            _assert_outputs_equal(
                name, result.outputs, reference, REASSOCIATED_UNROLLED
            )

    def test_example_sources(self, rng):
        cases = example_w2_sources()
        assert cases, "examples/ should contribute at least one W2 source"
        for name, source in cases:
            program = compile_w2(source)
            inputs = {
                array: rng.standard_normal(
                    int(np.prod(dims)) if dims else 1
                )
                for array, dims in program.ir.host_arrays.items()
            }
            result = simulate(program, inputs)
            reference = interpret(analyze(parse_module(source)), inputs)
            _assert_outputs_equal(name, result.outputs, reference)


class TestSameCycleAddressOrder:
    """Regression: IU-supplied addresses are consumed in instruction-slot
    order, not loads-before-stores.

    The scheduler may pack a queue-addressed *store* into the same cycle
    as a queue-addressed *load* with the store in an earlier slot
    (conv2d's ring buffer at unroll factor 3 does exactly this).  The IU
    emits same-cycle addresses in slot order; a simulator that dequeued
    them loads-first handed each op the other's address and silently
    corrupted cell memory.
    """

    #: One cell, a ring-buffer delay line: b[r, c] = a[r-1, c].  Unroll
    #: factor 3 historically scheduled "store @q; load @q" in one cycle.
    DELAYLINE = """
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

    @pytest.mark.parametrize("unroll", [1, 2, 3, 4, 6])
    def test_ring_buffer_delay_is_exact(self, unroll):
        inputs = {"a": np.arange(1.0, 13.0)}
        expected = interpret(
            analyze(parse_module(self.DELAYLINE)), inputs
        )["b"]
        program = compile_w2(self.DELAYLINE, unroll=unroll)
        result = simulate(program, inputs)
        assert np.array_equal(result.outputs["b"], expected), (
            f"unroll={unroll}: the delay line must be bit-exact — a "
            "divergence here means same-cycle IU addresses were "
            "consumed out of slot order"
        )

    @pytest.mark.parametrize("unroll", [3, 4])
    def test_conv2d_unroll_divergence_is_reassociation_only(self, unroll):
        """conv2d at unroll 3/4 (trip 6 resolves 4 -> factor 3) stays
        within reassociation rounding of the reference — the historical
        multiple-ULP divergence is pinned out."""
        source = conv2d(6, 5)
        rng = np.random.default_rng(20260806)
        inputs = {
            "x": rng.standard_normal(30),
            "k": rng.standard_normal(9),
        }
        expected = interpret(analyze(parse_module(source)), inputs)["y"]
        result = simulate(compile_w2(source, unroll=unroll), inputs)
        np.testing.assert_allclose(
            result.outputs["y"], expected, rtol=1e-12, atol=1e-12
        )


class TestBatchedMatchesOneShot:
    """The batched path is bit-identical to one-shot simulation, item
    for item, for every bundled program and ``examples/`` source at
    every unroll factor (no tolerance here: batching must never change
    what the machine computes).  A clean serial batch runs as one lane
    run, so this is the differential check of the lane path, including
    conv2d's same-cycle IU slot order at unroll 4."""

    @staticmethod
    def _cases(program_suite):
        cases = [(name, source, inputs) for name, source, inputs, _ in program_suite]
        for name, source in example_w2_sources():
            host_arrays = compile_w2(source).ir.host_arrays
            cases.append((name, source, {
                array: np.zeros(int(np.prod(dims)) if dims else 1)
                for array, dims in host_arrays.items()
            }))
        return cases

    def test_bundled_programs_item_for_item(self, program_suite, rng):
        self._check_item_for_item(program_suite, rng, unroll=1)

    @pytest.mark.parametrize("unroll", [2, 4, "auto"])
    def test_bundled_programs_item_for_item_unrolled(
        self, program_suite, rng, unroll
    ):
        self._check_item_for_item(program_suite, rng, unroll)

    def _check_item_for_item(self, program_suite, rng, unroll):
        from repro import obs
        from repro.obs import metrics_to_json

        n_items = 0
        with obs.collecting() as telemetry:
            for name, source, inputs in self._cases(program_suite):
                program = compile_w2(source, unroll=unroll)
                items = [inputs] + [
                    {
                        array: rng.standard_normal(values.shape)
                        for array, values in inputs.items()
                    }
                    for _ in range(2)
                ]
                batched = BatchRunner(program).run(items)
                n_items += len(items)
                assert batched.ok and batched.n_items == len(items)
                for item, result in zip(items, batched.results):
                    one_shot = simulate(program, item)
                    assert set(result.outputs) == set(one_shot.outputs)
                    for out_name, expected in one_shot.outputs.items():
                        assert result.outputs[out_name].tobytes() == (
                            expected.tobytes()
                        ), f"{name}:{out_name} batched != one-shot"
                    assert metrics_to_json(result.machine_metrics) == (
                        metrics_to_json(one_shot.machine_metrics)
                    ), f"{name}: batched metrics != one-shot"
        assert telemetry.counters["exec.batch.lane_items"] == n_items
        assert "exec.batch.lane_fallbacks" not in telemetry.counters
