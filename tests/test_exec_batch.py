"""BatchRunner: batched execution vs one-shot simulation.

The contract under test: batching changes *where static state lives*
(one reused machine, one lane run for a clean batch), never *what the
machine computes* — outputs and cycle counts are bit-identical to
independent ``simulate`` calls, item for item, in item order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import compile_w2, simulate
from repro.exec import BatchRunner, run_batch
from repro.machine import ExecutionPlan
from repro.programs import passthrough, polynomial


@pytest.fixture(scope="module")
def program():
    return compile_w2(polynomial(12, 4))


def _items(rng, n):
    return [
        {"z": rng.standard_normal(12), "c": rng.standard_normal(4)}
        for _ in range(n)
    ]


class TestSerialBatch:
    def test_bit_identical_to_one_shot(self, program, rng):
        items = _items(rng, 6)
        batched = run_batch(program, items)
        assert batched.n_items == 6
        for item, result in zip(items, batched.results):
            expected = simulate(program, item)
            assert np.array_equal(
                result.outputs["results"], expected.outputs["results"]
            )
            assert result.total_cycles == expected.total_cycles
            assert result.skew == expected.skew

    def test_results_in_item_order(self, program):
        items = [
            {"z": np.full(12, float(i)), "c": np.array([0.0, 0.0, 0.0, 1.0 + i])}
            for i in range(4)
        ]
        batched = run_batch(program, items)
        for i, result in enumerate(batched.results):
            # P(z) = 1 + i for the all-constant coefficient vector.
            assert np.allclose(result.outputs["results"], 1.0 + i)

    def test_machine_reuse(self, program, rng):
        runner = BatchRunner(program)
        plan_before = runner.machine.plan
        runner.run(_items(rng, 3))
        runner.run(_items(rng, 2))
        assert runner.machine.plan is plan_before  # static state reused

    def test_run_one_matches_simulate(self, program, rng):
        runner = BatchRunner(program)
        item = _items(rng, 1)[0]
        result = runner.run_one(item)
        expected = simulate(program, item)
        assert np.array_equal(
            result.outputs["results"], expected.outputs["results"]
        )

    def test_empty_batch(self, program):
        batched = run_batch(program, [])
        assert batched.n_items == 0
        assert batched.total_cycles == 0
        assert batched.cycles_per_item == 0
        assert batched.stacked_outputs() == {}


class TestLaneBatch:
    """A clean serial batch runs as one lane run; these pin where it
    must behave exactly like the per-item interpreter."""

    def test_oversize_input_fails_like_the_per_item_path(self, program, rng):
        from repro import obs
        from repro.faults import InjectionPlan

        items = _items(rng, 4)
        items[2] = {"z": rng.standard_normal(13), "c": rng.standard_normal(4)}
        with obs.collecting() as telemetry:
            lanes = run_batch(program, items)
        assert telemetry.counters["exec.batch.lane_fallbacks"] == 1
        # Any injection plan, even an empty one, runs items one by one.
        per_item = run_batch(program, items, faults=InjectionPlan())

        def key(failure):
            return failure.index, failure.error_type, failure.message

        assert [key(f) for f in lanes.failures] == [
            key(f) for f in per_item.failures
        ]
        assert [f.index for f in lanes.failures] == [2]
        assert lanes.failures[0].error_type == "HostDataError"
        for index in (0, 1, 3):
            expected = simulate(program, items[index]).outputs["results"]
            for batch in (lanes, per_item):
                got = batch.results[index].outputs["results"]
                assert got.tobytes() == expected.tobytes()

    def test_queue_values_do_not_alias_host_memory(self):
        """Host words are fed to the lanes by copy.  Here the collector
        writes a swap back into the input array itself: a fed view of
        ``x[1]`` would see ``x[1]`` overwritten before it is stored."""
        import dataclasses

        from repro.machine import WarpMachine

        source = """
module swap (x in, y out)
float x[2];
float y[2];
cellprogram (cid : 0 : 0)
begin
    float a, b;
    receive (L, X, a, x[0]);
    receive (L, X, b, x[1]);
    send (R, X, b, y[0]);
    send (R, X, a, y[1]);
end
"""
        machine = WarpMachine(compile_w2(source))
        plan = machine.plan
        plan.output_bindings = {
            channel: [
                dataclasses.replace(binding, array="x")
                if binding.array == "y"
                else binding
                for binding in bindings
            ]
            for channel, bindings in plan.output_bindings.items()
        }
        items = [{"x": np.array([1.0, 2.0])}, {"x": np.array([3.0, 4.0])}]
        lanes = machine.run_many(items)
        for item, result in zip(items, lanes):
            expected = machine.run(item).outputs["x"]
            assert expected.tolist() == item["x"][::-1].tolist()
            assert result.outputs["x"].tobytes() == expected.tobytes()

    def test_results_do_not_alias_each_other(self, program, rng):
        items = _items(rng, 3)
        batch = run_batch(program, items)
        for name in batch.results[0].outputs:
            batch.results[0].outputs[name][:] = np.nan
        for item, result in zip(items[1:], batch.results[1:]):
            expected = simulate(program, item)
            for name, values in expected.outputs.items():
                assert result.outputs[name].tobytes() == values.tobytes()

    def test_results_share_one_metrics_record(self, program, rng):
        batch = run_batch(program, _items(rng, 3))
        first = batch.results[0].machine_metrics
        assert all(r.machine_metrics is first for r in batch.results)

    def test_single_runs_build_no_lane_plans(self, program, rng):
        from repro.machine import WarpMachine

        machine = WarpMachine(program)
        machine.run(_items(rng, 1)[0])
        assert "lane_blocks" not in vars(machine.plan)
        machine.run_many(_items(rng, 2))
        assert "lane_blocks" in vars(machine.plan)


class TestMultiprocessBatch:
    """Batches run in process only: ``processes`` accepts just 0, and
    both in-process paths match one-shot runs bit for bit."""

    def test_pool_bit_identical_and_ordered(self, program, rng):
        from repro import obs
        from repro.faults import InjectionPlan

        items = _items(rng, 8)
        with obs.collecting() as telemetry:
            lanes = run_batch(program, items, processes=0)
        assert telemetry.counters["exec.batch.lane_items"] == 8
        per_item = run_batch(program, items, faults=InjectionPlan())
        for batch in (lanes, per_item):
            assert batch.ok and batch.n_items == 8
            for item, result in zip(items, batch.results):
                expected = simulate(program, item)
                for name, values in expected.outputs.items():
                    assert result.outputs[name].tobytes() == values.tobytes()
                assert result.total_cycles == expected.total_cycles

    @pytest.mark.parametrize("processes", [1, 2])
    def test_nonzero_processes_rejected(self, program, processes):
        with pytest.raises(ValueError, match="processes must be 0"):
            BatchRunner(program, processes=processes)

    def test_negative_processes_rejected(self, program):
        with pytest.raises(ValueError):
            BatchRunner(program, processes=-1)


class TestBatchResult:
    def test_aggregates(self, program, rng):
        items = _items(rng, 5)
        batched = run_batch(program, items)
        per_item = [r.total_cycles for r in batched.results]
        assert batched.total_cycles == sum(per_item)
        assert batched.cycles_per_item == sum(per_item) / 5
        assert batched.wall_seconds > 0
        assert batched.items_per_second > 0

    def test_stacked_outputs(self, program, rng):
        items = _items(rng, 3)
        batched = run_batch(program, items)
        stacked = batched.outputs("results")
        assert stacked.shape == (3, 12)
        for i, result in enumerate(batched.results):
            assert np.array_equal(stacked[i], result.outputs["results"])
        assert set(batched.stacked_outputs()) == set(batched.results[0].outputs)

    def test_telemetry_counters(self, program, rng):
        from repro import obs

        with obs.collecting() as telemetry:
            batched = run_batch(program, _items(rng, 3))
        assert telemetry.counters["exec.batch.items"] == 3
        assert telemetry.counters["exec.batch.cycles"] == batched.total_cycles


class TestExecutionPlan:
    def test_skip_idle_skips_only_nops(self, program):
        plan = ExecutionPlan(program)
        assert plan.skipped_slots > 0  # schedules always carry bubbles
        for block in program.cell_code.blocks():
            block_plan = plan.blocks[block.block_id]
            assert block_plan.length == block.length
            issued = sum(
                1 for instr in block.instructions if not instr.is_nop()
            )
            assert block_plan.issued == issued
            assert len(block_plan.active) == issued

    def test_plan_is_optional(self):
        """Two runs of one program agree.  (The executor requires block
        plans; there is no plan-less path left to compare against.)"""
        program = compile_w2(passthrough(8, 2))
        inputs = {"din": np.arange(8.0)}
        expected = simulate(program, inputs)
        again = simulate(program, inputs)
        assert np.array_equal(
            again.outputs["dout"], expected.outputs["dout"]
        )
