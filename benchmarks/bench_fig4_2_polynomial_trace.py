"""E2 — Figures 4-1/4-2: the polynomial program and its logical
send/receive interleaving on the first two cells.

Compiles the Figure 4-1 program, runs it on the simulated array, checks
the numerics against Horner's rule, and regenerates the Figure 4-2
two-cell trace (coefficient distribution: receive c[0]; then for each
further coefficient receive/forward; then the conservation pad)."""

import numpy as np

from repro.compiler import compile_w2
from repro.machine import MachineRecorder, simulate
from repro.machine.trace import format_two_cell_trace
from repro.programs import polynomial


def test_polynomial_trace(benchmark, report):
    program = compile_w2(polynomial(16, 4))
    rng = np.random.default_rng(42)
    inputs = {"z": rng.uniform(-1, 1, 16), "c": rng.standard_normal(4)}

    result = benchmark(
        lambda: simulate(program, inputs, record=MachineRecorder(io_limit=40))
    )
    assert np.allclose(
        result.outputs["results"], np.polyval(inputs["c"], inputs["z"])
    )

    cell0 = [e for e in result.record.trace if e.cell == 0]
    # Figure 4-2's opening on cell 0: receive coeff c[0]; receive temp
    # c[1]; send temp c[1]; ...
    assert cell0[0].kind == "receive"
    assert cell0[0].value == inputs["c"][0]
    assert cell0[1].kind == "receive"
    assert cell0[2].kind == "send"
    assert cell0[1].value == cell0[2].value == inputs["c"][1]

    report.section(
        "Figure 4-2: polynomial two-cell logical trace",
        format_two_cell_trace(result.record.trace, max_rows=16),
    )
