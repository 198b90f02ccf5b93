"""Compiler explorer: every artefact of the compilation pipeline for a
small program, phase by phase — the Figure 6-1 structure made visible.

Run:  python examples/compiler_explorer.py
"""

import numpy as np

from repro import compile_w2, simulate
from repro.analysis import analyze_communication
from repro.cellcodegen.listing import format_cell_code
from repro.compiler import decomposition_report
from repro.iucodegen.codegen import IUBlock, IULoop
from repro.lang import Channel, analyze, parse_module
from repro.machine import MachineRecorder
from repro.machine.trace import format_two_cell_trace
from repro.timing import characterize_stream, input_stream, output_stream

SOURCE = """
/* Weighted running difference: each cell scales the stream by its own
   weight and adds the neighbour's partial result. */
module rundiff (x in, w in, y out)
float x[12], w[3];
float y[12];
cellprogram (cid : 0 : 2)
begin
    float weight, temp, xin, xold, yin;
    int i;
    receive (L, X, weight, w[0]);
    for i := 1 to 2 do begin
        receive (L, X, temp, w[i]);
        send (R, X, temp);
    end;
    send (R, X, 0.0);
    xold := 0.0;
    for i := 0 to 11 do begin
        receive (L, X, xin, x[i]);
        receive (L, Y, yin, 0.0);
        send (R, X, xold);
        send (R, Y, yin + weight*(xin - xold), y[i]);
        xold := xin;
    end;
end
"""


def main() -> None:
    print("=" * 72)
    print("PHASE 1: front end (parse + semantic analysis)")
    print("=" * 72)
    module = parse_module(SOURCE)
    analyzed = analyze(module)
    cp = module.cellprogram
    print(f"module {module.name!r}: {len(module.params)} parameters, "
          f"{cp.n_cells} cells, {len(cp.locals)} cell locals")

    print()
    print("=" * 72)
    print("PHASE 2: flow analysis + communication classification")
    print("=" * 72)
    program = compile_w2(SOURCE)
    comm = program.comm
    print(f"right cycles: {comm.has_right_cycles}   "
          f"left cycles: {comm.has_left_cycles}   "
          f"unidirectional L->R: {comm.is_unidirectional_lr}")

    print()
    print("=" * 72)
    print("PHASE 3: cell code generation (list scheduling)")
    print("=" * 72)
    print(format_cell_code(program.cell_code))

    print()
    print("=" * 72)
    print("PHASE 4: compile-time synchronisation")
    print("=" * 72)
    print(f"minimum skew: {program.skew.skew} cycles")
    for entry in program.skew.channels:
        print(f"    channel {entry.channel}: {entry.n_sends} sends, "
              f"{entry.n_receives} receives, skew {entry.skew} "
              f"({entry.method})")
    for requirement in program.buffers:
        print(f"    queue {requirement.channel}: {requirement.required} "
              "words needed")
    print("\nfive-vector characterisation of the X streams:")
    for label, stream in (
        ("recv", input_stream(Channel.X)),
        ("send", output_stream(Channel.X)),
    ):
        for char in characterize_stream(program.cell_code, stream):
            print(f"    {label}#{char.io_index}: R={list(char.R)} "
                  f"N={list(char.N)} S={list(char.S)} "
                  f"L={list(char.L)} T={list(char.T)}")

    print()
    print("=" * 72)
    print("PHASE 5: IU and host code generation")
    print("=" * 72)
    report = decomposition_report(program)
    print(f"IU instructions: {report.iu_instructions}; "
          f"IU-supplied addresses: {report.iu_supplied_addresses}")
    _print_iu(program.iu_program.items, indent="    ")
    x_inputs = list(program.host_program.input_sequence(Channel.X))
    print(f"host X feed ({len(x_inputs)} items): "
          + ", ".join(_fmt_ref(r) for r in x_inputs[:6]) + ", ...")
    y_outputs = [
        b for b in program.host_program.output_bindings(Channel.Y)
        if not b.is_discard
    ]
    print(f"host Y collection ({len(y_outputs)} items): "
          + ", ".join(f"{b.array}[{b.flat_index}]" for b in y_outputs[:6])
          + ", ...")

    print()
    print("=" * 72)
    print("PHASE 6: simulation (Figure 4-2 style trace)")
    print("=" * 72)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(12)
    w = np.array([0.25, 0.5, 0.25])
    result = simulate(
        program, {"x": x, "w": w}, record=MachineRecorder(io_limit=30)
    )
    print(format_two_cell_trace(result.record.trace, max_rows=14))
    print(f"\ntotal: {result.total_cycles} cycles; outputs verified:",
          np.allclose(result.outputs["y"], _reference(x, w)))


def _reference(x, w):
    y = np.zeros_like(x)
    shifted = x
    for k in range(len(w)):
        delayed = np.concatenate([np.zeros(k), x[: len(x) - k]])
        prev = np.concatenate([np.zeros(k + 1), x[: len(x) - k - 1]])
        y = y + w[k] * (delayed - prev)
    return y


def _fmt_ref(ref) -> str:
    if ref.is_literal:
        return repr(ref.literal)
    return f"{ref.array}[{ref.flat_index}]"


def _print_iu(items, indent: str) -> None:
    for item in items:
        if isinstance(item, IULoop):
            updates = ", ".join(f"{r}+={d}" for r, d in item.boundary_updates)
            tail = f", unrolled tail {item.unrolled_tail}" if item.unrolled_tail else ""
            print(f"{indent}IU loop {item.var} x{item.trip} "
                  f"[{updates or 'no updates'}{tail}]")
            _print_iu(item.body, indent + "    ")
        else:
            assert isinstance(item, IUBlock)
            if item.emissions:
                print(f"{indent}IU block b{item.block_id}: "
                      f"{len(item.emissions)} address emissions")


if __name__ == "__main__":
    main()
