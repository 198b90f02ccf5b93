"""Tests for the human-readable outputs: microcode listings, trace
rendering, the synthetic-schedule helpers, and the metric reports."""

import numpy as np
import pytest

from repro.cellcodegen.listing import format_cell_code
from repro.compiler import compile_w2, format_metrics_table
from repro.lang import Channel
from repro.machine import MachineRecorder, TraceEvent, simulate
from repro.machine.trace import format_two_cell_trace
from repro.programs import passthrough, polynomial
from repro.timing import count_stream_events, input_stream, output_stream
from repro.timing.synthetic import block, build_program, loop


class TestListing:
    def test_contains_every_block_and_loop(self):
        program = compile_w2(polynomial(8, 3))
        text = format_cell_code(program.cell_code)
        n_blocks = sum(1 for _ in program.cell_code.blocks())
        assert text.count("block b") == n_blocks
        assert "loop L" in text

    def test_summary_line(self):
        program = compile_w2(passthrough(4, 2))
        text = format_cell_code(program.cell_code)
        first = text.splitlines()[0]
        assert "micro-instructions" in first
        assert str(program.cell_code.n_instructions) in first

    def test_instruction_rendering(self):
        program = compile_w2(polynomial(8, 3))
        text = format_cell_code(program.cell_code)
        assert "deq" in text and "enq" in text
        assert "mpy.fmul" in text and "alu.fadd" in text


class TestTraceRendering:
    def test_columns(self):
        events = [
            TraceEvent(0, 0, "receive", "L.X", 1.0),
            TraceEvent(0, 1, "send", "R.X", 1.0),
            TraceEvent(1, 4, "receive", "L.X", 1.0),
        ]
        text = format_two_cell_trace(events)
        lines = text.splitlines()
        assert lines[0].startswith("Cell 0")
        assert "receive" in lines[1]
        # Cell 1's row is indented into the second column.
        assert lines[3].startswith(" " * 30)

    def test_row_limit_indicates_truncation(self):
        events = [
            TraceEvent(0, t, "send", "R.X", float(t)) for t in range(50)
        ]
        text = format_two_cell_trace(events, max_rows=5)
        lines = text.splitlines()
        assert len(lines) == 7  # header + 5 rows + truncation note
        assert lines[-1] == "... 45 more events not shown"

    def test_no_truncation_note_when_everything_fits(self):
        events = [
            TraceEvent(0, t, "send", "R.X", float(t)) for t in range(3)
        ]
        text = format_two_cell_trace(events, max_rows=5)
        assert len(text.splitlines()) == 4
        assert "more events" not in text

    def test_arbitrary_cell_pair(self):
        events = [
            TraceEvent(2, 0, "send", "R.X", 1.0),
            TraceEvent(3, 4, "receive", "L.X", 1.0),
            TraceEvent(0, 1, "send", "R.X", 9.0),
        ]
        text = format_two_cell_trace(events, cells=(2, 3))
        lines = text.splitlines()
        assert lines[0].startswith("Cell 2")
        assert "Cell 3" in lines[0]
        # Cell 0's event is excluded; cell 2's send gets the arrow.
        assert "9.0" not in text
        assert "->" in lines[1]
        assert lines[2].startswith(" " * 30)

    def test_trace_limit_is_per_cell(self):
        program = compile_w2(polynomial(12, 4))
        rng = np.random.default_rng(0)
        result = simulate(
            program,
            {"z": rng.uniform(-1, 1, 12), "c": rng.standard_normal(4)},
            record=MachineRecorder(io_limit=10),
        )
        cells = {event.cell for event in result.record.trace}
        assert {0, 1, 2, 3} <= cells


class TestSyntheticBuilders:
    def test_block_events(self):
        code = build_program(block(4, ("in", 1), ("out", 3)))
        assert count_stream_events(code.items, input_stream(Channel.X)) == 1
        assert count_stream_events(code.items, output_stream(Channel.X)) == 1

    def test_loop_multiplies_events(self):
        code = build_program(loop(5, block(2, ("in", 0))))
        assert count_stream_events(code.items, input_stream(Channel.X)) == 5

    def test_nested_loops(self):
        code = build_program(loop(3, loop(4, block(1, ("out", 0)))))
        assert count_stream_events(code.items, output_stream(Channel.X)) == 12

    def test_channel_selection(self):
        code = build_program(block(2, ("in", 0, Channel.Y)))
        assert count_stream_events(code.items, input_stream(Channel.Y)) == 1
        assert count_stream_events(code.items, input_stream(Channel.X)) == 0

    def test_total_cycles(self):
        code = build_program(block(3), loop(4, block(5)), block(2))
        assert code.total_cycles == 3 + 20 + 2


class TestMetricsTable:
    def test_columns_align(self):
        rows = [compile_w2(passthrough(4, 2)).metrics]
        table = format_metrics_table(rows)
        header, rule, row = table.splitlines()
        assert set(rule) == {"-"}
        assert "passthrough" in row

    def test_multiple_rows(self):
        rows = [
            compile_w2(passthrough(4, 2)).metrics,
            compile_w2(polynomial(8, 4)).metrics,
        ]
        table = format_metrics_table(rows)
        assert len(table.splitlines()) == 4
