"""Integration tests for the observability layer.

The paper's central claims are timing claims, so the instrumentation
must agree with the compile-time theory:

* the static performance prediction and the measured ``MachineMetrics``
  cycle counts agree exactly (tolerance 0 — schedules are static; any
  drift is a bug in one side or the other, see EXPERIMENTS.md E-OBS);
* every simulated queue's high-water mark stays within the compile-time
  minimum buffer size of Section 6.2.2;
* the per-cell busy/stall/idle breakdown partitions the run.
"""

import numpy as np
import pytest

from repro import obs
from repro.compiler import compile_w2, predict_performance
from repro.machine import simulate
from repro.programs import conv1d, polynomial

#: Documented tolerance for predicted vs measured total cycles.
#: Schedules are fully static, so the reproduction holds this at zero;
#: relax only with a written justification in EXPERIMENTS.md.
PREDICTION_TOLERANCE_CYCLES = 0


class TestPredictedVsMeasured:
    @pytest.mark.parametrize(
        "source,inputs_factory",
        [
            (
                polynomial(24, 4),
                lambda rng: {
                    "z": rng.uniform(-1, 1, 24),
                    "c": rng.standard_normal(4),
                },
            ),
            (
                conv1d(20, 3),
                lambda rng: {
                    "x": rng.standard_normal(20),
                    "w": rng.standard_normal(3),
                },
            ),
        ],
        ids=["polynomial", "conv1d"],
    )
    def test_bundled_programs_within_tolerance(
        self, rng, source, inputs_factory
    ):
        program = compile_w2(source)
        prediction = predict_performance(program)
        result = simulate(program, inputs_factory(rng))
        metrics = result.machine_metrics
        delta = abs(metrics.total_cycles - prediction.total_cycles)
        assert delta <= PREDICTION_TOLERANCE_CYCLES
        for cell in metrics.cells:
            assert cell.alu_ops == prediction.alu_ops
            assert cell.mpy_ops == prediction.mpy_ops
            assert cell.receives == prediction.receives
            assert cell.sends == prediction.sends
            assert (
                cell.end_cycle - cell.start_cycle
                == prediction.cycles_per_cell
            )

    def test_compare_report_states_exactness(self, rng):
        program = compile_w2(polynomial(24, 4))
        result = simulate(
            program,
            {"z": rng.uniform(-1, 1, 24), "c": rng.standard_normal(4)},
        )
        text = obs.format_compare(
            predict_performance(program), result.machine_metrics
        )
        assert "prediction exact" in text


class TestQueueBounds:
    def test_high_water_within_compile_time_minimum(self, program_suite):
        """Simulated inter-cell queue occupancy never exceeds the
        Section 6.2.2 minimum buffer sizes the compiler computed."""
        for name, source, inputs, _ in program_suite:
            program = compile_w2(source)
            result = simulate(program, inputs)
            required = {
                str(req.channel): req.required for req in program.buffers
            }
            for queue_name, queue in result.machine_metrics.queues.items():
                if not queue_name.startswith("link"):
                    continue
                index, channel = queue_name[len("link"):].split(".")
                if int(index) == 0:
                    continue  # host boundary, flow-controlled
                assert queue.high_water <= required[channel], (
                    name,
                    queue_name,
                )


class TestMachineMetricsConsistency:
    def test_breakdown_partitions_run(self, program_suite):
        for name, source, inputs, _ in program_suite:
            program = compile_w2(source)
            result = simulate(program, inputs)
            metrics = result.machine_metrics
            assert metrics.total_cycles == result.total_cycles
            for cell in metrics.cells:
                total = (
                    cell.busy_cycles + cell.stall_cycles + cell.idle_cycles
                )
                assert total == metrics.total_cycles, name
                assert 0.0 <= cell.utilization <= 1.0

    def test_receive_wait_attribution(self, rng):
        """Cell i's receive wait equals the residency of its input
        links."""
        program = compile_w2(polynomial(24, 4))
        result = simulate(
            program,
            {"z": rng.uniform(-1, 1, 24), "c": rng.standard_normal(4)},
        )
        metrics = result.machine_metrics
        for cell in metrics.cells:
            expected = sum(
                queue.total_wait_cycles
                for queue_name, queue in metrics.queues.items()
                if queue_name.startswith(f"link{cell.cell}.")
            )
            assert cell.receive_wait_cycles == expected

    def test_iu_metrics_cover_address_stream(self, rng):
        program = compile_w2(conv1d(20, 3))
        result = simulate(
            program,
            {"x": rng.standard_normal(20), "w": rng.standard_normal(3)},
        )
        iu = result.machine_metrics.iu
        emissions = list(program.iu_program.emission_times())
        assert iu.addresses_emitted == len(emissions)
        if emissions:
            assert iu.first_emit_cycle == min(t for t, _, _ in emissions)
            assert iu.last_emit_cycle == max(t for t, _, _ in emissions)

    def test_stats_issue_cycles_bounded(self, rng):
        program = compile_w2(polynomial(24, 4))
        result = simulate(
            program,
            {"z": rng.uniform(-1, 1, 24), "c": rng.standard_normal(4)},
        )
        for cell in result.machine_metrics.cells:
            assert 0 < cell.busy_cycles <= cell.active_cycles
            assert cell.stall_cycles == cell.active_cycles - cell.busy_cycles


class TestIUMachineCounters:
    def test_dynamic_instruction_mix(self):
        from repro.iucodegen.lower import lower_iu_program
        from repro.machine.iu_machine import IUMachine

        program = compile_w2(conv1d(20, 3))
        lowered = lower_iu_program(program.iu_program)
        machine = IUMachine(lowered)
        emitted = machine.run()
        state = machine.state
        assert state.ops_executed == sum(state.ops_by_kind.values())
        emit_ops = state.ops_by_kind.get("EMIT", 0) + state.ops_by_kind.get(
            "EMIT_TABLE", 0
        )
        assert emit_ops == len(emitted)
        assert state.table_reads == state.ops_by_kind.get("EMIT_TABLE", 0)

    def test_iu_run_reports_telemetry_counters(self):
        from repro.iucodegen.lower import lower_iu_program
        from repro.machine.iu_machine import run_iu_program

        program = compile_w2(conv1d(20, 3))
        lowered = lower_iu_program(program.iu_program)
        with obs.collecting() as telemetry:
            emitted = run_iu_program(lowered)
        assert telemetry.counters["iu.addresses_emitted"] == len(emitted)
        assert telemetry.counters["iu.ops_executed"] > 0


class TestCompileTelemetry:
    def test_driver_phases_recorded(self):
        with obs.collecting() as telemetry:
            compile_w2(polynomial(12, 3))
        names = {span.name for span in telemetry.spans}
        assert {
            "frontend.lex",
            "frontend.parse",
            "frontend.semantic",
            "decomposition.build-ir",
            "cellcodegen",
            "analysis.comm",
            "timing.skew",
            "timing.buffers",
            "iucodegen",
            "hostcodegen",
        } <= names

    def test_driver_counters_recorded(self):
        with obs.collecting() as telemetry:
            program = compile_w2(polynomial(12, 3))
        counters = telemetry.counters
        assert counters["ir.blocks"] > 0
        assert counters["ir.dag_nodes"] > 0
        assert counters["timing.skew_cycles"] == program.skew.skew
        assert (
            counters["codegen.cell_instructions"]
            == program.cell_code.n_instructions
        )
        assert "timing.min_buffer.X" in counters

    def test_cse_hits_counted(self):
        source = """
module cse (a in, b out)
float a[4];
float b[4];
cellprogram (cid : 0 : 0)
begin
    float x, y, z;
    int i;
    for i := 0 to 3 do begin
        receive (L, X, x, a[i]);
        y := (x + 1.0) * (x + 1.0);
        z := (x + 1.0) * (x + 1.0);
        send (R, X, y + z, b[i]);
    end;
end
"""
        with obs.collecting() as telemetry:
            compile_w2(source)
        assert telemetry.counters["ir.cse_hits"] > 0

    def test_compile_works_identically_without_telemetry(self):
        source = polynomial(12, 3)
        baseline = compile_w2(source)
        with obs.collecting():
            instrumented = compile_w2(source)
        assert (
            baseline.cell_code.n_instructions
            == instrumented.cell_code.n_instructions
        )
        assert baseline.skew.skew == instrumented.skew.skew
