"""Tests for the compiler driver: phase wiring, errors, metrics, reports."""

import numpy as np
import pytest

from repro import obs
from repro.cellcodegen.listing import format_cell_code
from repro.compiler import (
    compile_w2,
    decomposition_report,
    driver,
    format_metrics_table,
)
from repro.config import CellConfig, IUConfig, WarpConfig
from repro.errors import CompilationError, MappingError, QueueOverflowError
from repro.machine import simulate
from repro.programs import (
    TABLE_7_1_PROGRAMS,
    bidirectional_cycle,
    bidirectional_exchange,
    matmul,
    passthrough,
    polynomial,
)

from conftest import compilable_w2_sources


class TestMappability:
    def test_bidirectional_cycle_rejected(self):
        with pytest.raises(MappingError, match="both left and right"):
            compile_w2(bidirectional_cycle())

    def test_bidirectional_acyclic_rejected_as_bidirectional(self):
        with pytest.raises(MappingError, match="unidirectional"):
            compile_w2(bidirectional_exchange())

    def test_too_many_cells_rejected(self):
        config = WarpConfig(n_cells=2)
        with pytest.raises(MappingError, match="cells"):
            compile_w2(polynomial(10, 5), config=config)

    def test_single_cell_can_receive_from_host_only(self):
        from repro.programs import mandelbrot

        program = compile_w2(mandelbrot(4, 4, 2))
        assert program.n_cells == 1
        assert program.skew.skew == 1


class TestMetrics:
    @pytest.mark.parametrize("name", list(TABLE_7_1_PROGRAMS))
    def test_metrics_populated(self, name):
        program = compile_w2(TABLE_7_1_PROGRAMS[name]())
        metrics = program.metrics
        assert metrics.w2_lines > 0
        assert metrics.cell_ucode > 0
        assert metrics.iu_ucode >= 0
        assert metrics.compile_seconds > 0
        assert metrics.skew >= 1

    def test_metrics_table_renders(self):
        rows = [compile_w2(passthrough()).metrics]
        table = format_metrics_table(rows)
        assert "W2 Lines" in table and "passthrough" in table

    def test_colorseg_is_largest_cell_program(self):
        """Table 7-1's ordering: ColorSeg has the most cell microcode."""
        sizes = {
            name: compile_w2(factory()).metrics.cell_ucode
            for name, factory in TABLE_7_1_PROGRAMS.items()
        }
        assert max(sizes, key=sizes.get) == "ColorSeg"


class TestDecompositionReport:
    def test_matmul_moves_addresses_to_iu(self):
        program = compile_w2(matmul(8, 4))
        report = decomposition_report(program)
        assert report.iu_supplied_addresses > 0
        assert report.host_inputs > 0
        assert report.host_outputs == 64

    def test_streaming_program_needs_no_iu_addresses(self):
        program = compile_w2(polynomial(8, 4))
        report = decomposition_report(program)
        assert report.iu_supplied_addresses == 0
        assert report.host_outputs == 8


class TestRegisterDemotion:
    def test_many_scalars_demoted_and_correct(self):
        """A program with more scalars than registers compiles via
        memory demotion and still computes correctly."""
        n_vars = 70  # more than the 64 registers
        decls = ", ".join(f"s{i}" for i in range(n_vars))
        assigns = "\n        ".join(
            f"s{i} := t + {float(i)};" for i in range(n_vars)
        )
        total = " + ".join(f"s{i}" for i in range(n_vars))
        src = f"""
module wide (a in, b out)
float a[4];
float b[4];
cellprogram (cid : 0 : 0)
begin
    float t, {decls};
    int i;
    for i := 0 to 3 do begin
        receive (L, X, t, a[i]);
        {assigns}
        send (R, X, {total}, b[i]);
    end;
end
"""
        program = compile_w2(src)
        assert "s0" in program.ir.arrays or len(program.ir.scalars) <= 64
        data = np.array([1.0, 2.0, 3.0, 4.0])
        result = simulate(program, {"a": data})
        expected = n_vars * data + sum(range(n_vars))
        assert np.allclose(result.outputs["b"], expected)


class TestQueueOverflowPolicy:
    def test_tiny_queues_reported(self):
        """With much smaller queues than the skew requires, compilation
        reports the overflow (Section 6.2.2: detected and reported)."""
        config = WarpConfig(queue_depth=1)
        with pytest.raises(QueueOverflowError) as excinfo:
            compile_w2(polynomial(30, 10), config=config)
        assert excinfo.value.required > 1

    def test_enlarged_queues_accept(self):
        config = WarpConfig(queue_depth=4096)
        program = compile_w2(polynomial(30, 10), config=config)
        assert program.buffers


class TestAutoUnrollSearch:
    """``unroll="auto"`` compiles each candidate factor once, with the
    caller's ``local_opt`` flag, and keeps the winner's code."""

    @pytest.mark.parametrize("local_opt", [True, False], ids=["opt", "noopt"])
    @pytest.mark.parametrize(
        "source", [s for _, s in compilable_w2_sources()],
        ids=[name for name, _ in compilable_w2_sources()],
    )
    def test_auto_is_brute_force_argmin(self, source, local_opt):
        cycles = {}
        for factor in (1, 2, 4, 8):
            try:
                program = compile_w2(source, unroll=factor, local_opt=local_opt)
            except CompilationError:
                continue
            cycles[factor] = program.cell_code.total_cycles
        expected = min(cycles, key=lambda factor: (cycles[factor], factor))
        with obs.collecting() as telemetry:
            auto = compile_w2(source, unroll="auto", local_opt=local_opt)
        assert telemetry.counters["driver.unroll_factor"] == expected
        fixed = compile_w2(source, unroll=expected, local_opt=local_opt)
        assert format_cell_code(auto.cell_code) == format_cell_code(
            fixed.cell_code
        )

    def test_each_candidate_generated_once(self, monkeypatch):
        calls = []
        generate = driver._generate_with_demotion

        def counting(*args, **kwargs):
            calls.append(args[2])
            return generate(*args, **kwargs)

        monkeypatch.setattr(driver, "_generate_with_demotion", counting)
        compile_w2(polynomial(8, 3), unroll="auto")
        assert calls == [1, 2, 4, 8]
