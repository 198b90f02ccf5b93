"""End-to-end tests: compile + simulate every program, comparing against
closed-form numpy references AND the independent AST interpreter."""

import numpy as np
import pytest

from repro.compiler import compile_w2
from repro.lang import analyze, parse_module
from repro.machine import interpret, simulate


class TestAgainstNumpyReferences:
    def test_all_programs(self, program_suite):
        for name, source, inputs, reference in program_suite:
            program = compile_w2(source)
            result = simulate(program, inputs)
            expected = reference(inputs)
            for array, values in expected.items():
                got = result.outputs[array][: len(values)]
                assert np.allclose(got, values), (
                    f"{name}: output {array} mismatches"
                )


class TestAgainstReferenceInterpreter:
    def test_all_programs(self, program_suite):
        for name, source, inputs, _reference in program_suite:
            analyzed = analyze(parse_module(source))
            expected = interpret(analyzed, inputs)
            program = compile_w2(source)
            result = simulate(program, inputs)
            for array in result.outputs:
                assert np.allclose(
                    result.outputs[array], expected[array]
                ), f"{name}: {array} differs from the reference interpreter"


class TestInterpreterAgainstNumpy:
    def test_all_programs(self, program_suite):
        for name, source, inputs, reference in program_suite:
            analyzed = analyze(parse_module(source))
            outputs = interpret(analyzed, inputs)
            for array, values in reference(inputs).items():
                assert np.allclose(
                    outputs[array][: len(values)], values
                ), f"{name}: interpreter output {array} mismatches"


class TestSimulationInvariants:
    def test_no_queue_exceeds_depth(self, program_suite):
        for name, source, inputs, _ in program_suite:
            program = compile_w2(source)
            result = simulate(program, inputs)
            high_water = result.machine_metrics.queue_high_water
            for queue, occupancy in high_water.items():
                if queue.startswith("link0."):
                    continue  # host boundary: flow-controlled, no depth
                limit = (
                    program.config.address_queue_depth
                    if queue.startswith("adr")
                    else program.config.queue_depth
                )
                assert occupancy <= limit, f"{name}: {queue}"

    def test_total_time_is_skew_plus_program(self, program_suite):
        for name, source, inputs, _ in program_suite:
            program = compile_w2(source)
            result = simulate(program, inputs)
            expected = (
                program.skew.skew * (program.n_cells - 1)
                + program.cell_code.total_cycles
            )
            assert result.total_cycles == expected, name

    def test_determinism(self, program_suite):
        name, source, inputs, _ = program_suite[0]
        program = compile_w2(source)
        first = simulate(program, inputs)
        second = simulate(program, inputs)
        for array in first.outputs:
            assert np.array_equal(first.outputs[array], second.outputs[array])


class TestLargerInstances:
    def test_polynomial_paper_size(self):
        """The Figure 4-1 configuration: 10 coefficients, 100 points."""
        from repro.programs import polynomial

        rng = np.random.default_rng(7)
        z = rng.uniform(-1, 1, 100)
        c = rng.standard_normal(10)
        program = compile_w2(polynomial(100, 10))
        result = simulate(program, {"z": z, "c": c})
        assert np.allclose(result.outputs["results"], np.polyval(c, z))

    def test_conv1d_kernel9(self):
        """The Table 7-1 configuration: kernel size 9 (reduced points)."""
        from repro.programs import conv1d

        rng = np.random.default_rng(8)
        x = rng.standard_normal(120)
        w = rng.standard_normal(9)
        program = compile_w2(conv1d(120, 9))
        result = simulate(program, {"x": x, "w": w})
        assert np.allclose(result.outputs["y"], np.convolve(x, w)[:120])

    def test_matmul_16x16_on_8_cells(self):
        from repro.programs import matmul

        rng = np.random.default_rng(9)
        a = rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16))
        program = compile_w2(matmul(16, 8))
        result = simulate(program, {"a": a, "b": b})
        assert np.allclose(result.output("c", (16, 16)), a @ b)

    def test_mandelbrot_paper_size(self):
        """32x32, 4 iterations, one cell — the Table 7-1 instance."""
        from repro.programs import mandelbrot

        xs = np.linspace(-2.0, 1.0, 32)
        ys = np.linspace(-1.5, 1.5, 32)
        cx, cy = np.meshgrid(xs, ys)
        cx, cy = cx.ravel(), cy.ravel()
        program = compile_w2(mandelbrot(32, 32, 4))
        result = simulate(program, {"cx": cx, "cy": cy})
        counts = np.zeros_like(cx)
        zr = np.zeros_like(cx)
        zi = np.zeros_like(cy)
        for _ in range(4):
            mag = zr * zr + zi * zi
            new_zr = zr * zr - zi * zi + cx
            zi = 2.0 * zr * zi + cy
            zr = new_zr
            counts += mag <= 4.0
        assert np.allclose(result.outputs["counts"], counts)
