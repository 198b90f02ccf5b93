"""Unit tests for the host feeder/collector and HostMemory."""

import numpy as np
import pytest

from repro.compiler import compile_w2
from repro.errors import HostDataError
from repro.hostcodegen import generate_host_program
from repro.lang import Channel
from repro.machine import ExecutionPlan, TimedQueue
from repro.machine.host import HostMemory, collect_outputs, feed_input_queues
from repro.programs import polynomial


class TestHostMemory:
    def test_inputs_padded_to_declared_size(self):
        memory = HostMemory.from_inputs(
            {"a": (10,)}, {"a": np.array([1.0, 2.0])}
        )
        assert memory.arrays["a"].size == 10
        assert list(memory.arrays["a"][:3]) == [1.0, 2.0, 0.0]

    def test_oversized_input_rejected(self):
        with pytest.raises(HostDataError, match="declares"):
            HostMemory.from_inputs({"a": (2,)}, {"a": np.zeros(3)})

    def test_missing_inputs_zeroed(self):
        memory = HostMemory.from_inputs({"a": (4,), "b": (2,)}, {})
        assert np.all(memory.arrays["a"] == 0)
        assert np.all(memory.arrays["b"] == 0)

    def test_multidim_flattened(self):
        data = np.arange(6.0).reshape(2, 3)
        memory = HostMemory.from_inputs({"m": (2, 3)}, {"m": data})
        assert list(memory.arrays["m"]) == list(range(6))

    def test_scalar_declaration(self):
        memory = HostMemory.from_inputs({"s": ()}, {"s": np.array([7.0])})
        assert memory.arrays["s"].size == 1


class TestFeeder:
    @pytest.fixture()
    def program(self):
        return compile_w2(polynomial(6, 3))

    def test_one_word_per_cycle(self, program):
        memory = HostMemory.from_inputs(
            program.ir.host_arrays,
            {"z": np.arange(6.0), "c": np.arange(3.0)},
        )
        queues = {
            Channel.X: TimedQueue("x"),
            Channel.Y: TimedQueue("y"),
        }
        feed_input_queues(memory, queues, ExecutionPlan(program).input_refs)
        # Item k enters at cycle k (host bandwidth budget).
        assert queues[Channel.X].send_times == list(range(9))
        # First three X items are the coefficients.
        assert queues[Channel.X].values[:3] == [0.0, 1.0, 2.0]

    def test_literals_fed_directly(self, program):
        memory = HostMemory.from_inputs(program.ir.host_arrays, {})
        queues = {Channel.X: TimedQueue("x"), Channel.Y: TimedQueue("y")}
        feed_input_queues(memory, queues, ExecutionPlan(program).input_refs)
        assert all(v == 0.0 for v in queues[Channel.Y].values)


class TestCollector:
    def test_count_mismatch_detected(self):
        program = compile_w2(polynomial(6, 3))
        memory = HostMemory.from_inputs(program.ir.host_arrays, {})
        queues = {Channel.X: TimedQueue("x"), Channel.Y: TimedQueue("y")}
        queues[Channel.Y].enqueue(0, 1.0)  # only one item; expects 6
        with pytest.raises(HostDataError, match="expects"):
            collect_outputs(
                memory, queues, ExecutionPlan(program).output_bindings
            )

    def test_discards_skipped(self):
        program = compile_w2(polynomial(6, 3))
        memory = HostMemory.from_inputs(program.ir.host_arrays, {})
        queues = {Channel.X: TimedQueue("x"), Channel.Y: TimedQueue("y")}
        host = program.host_program
        for k in range(host.output_count(Channel.X)):
            queues[Channel.X].enqueue(k, 99.0)
        for k in range(host.output_count(Channel.Y)):
            queues[Channel.Y].enqueue(k, float(k))
        collect_outputs(memory, queues, ExecutionPlan(program).output_bindings)
        # X outputs are all discards; results took the Y values.
        assert list(memory.arrays["results"]) == [float(k) for k in range(6)]
        assert not np.any(memory.arrays["z"] == 99.0)
