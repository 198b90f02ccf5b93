"""Golden-file tests for the cell microcode listings and simulated runs.

Fixed small programs are compiled and their
:func:`repro.cellcodegen.listing.format_cell_code` output compared
*character for character* against ``tests/goldens/*.listing``.  Any
change to scheduling, register allocation or the listing format shows
up as a diff here.  Two front-half goldens cover every bundled program
and ``examples/`` source: the lexer's token stream (``tokens.txt``) and
the communication-cycle report at several unroll factors, mirrored and
not (``comm_reports.json``).  Two of the fixed programs are also run
on seeded inputs and three renderings of the run are compared byte for
byte: the metrics JSON (``*.metrics.json``), the Chrome trace events
(``*.trace.jsonl``, one event per line) and the Figure 4-2 two-cell
trace (``*.fig4_2.txt``).
Run ``pytest --update-goldens`` to accept an intentional change and
review the new files in the commit.
"""

from __future__ import annotations

import dataclasses
import difflib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import analyze_communication, eliminate_dead_writes
from repro.cellcodegen.listing import format_cell_code
from repro.compiler import compile_w2, predict_performance
from repro.compiler.mirror import mirror_module
from repro.ir import build_ir
from repro.lang import analyze, parse_module, tokenize
from repro.machine import MachineRecorder, simulate
from repro.machine.trace import format_two_cell_trace
from repro.obs import metrics_to_json, simulation_trace_events
from repro.programs import conv1d, conv2d, passthrough, polynomial

from conftest import all_w2_sources

GOLDENS_DIR = Path(__file__).resolve().parent / "goldens"

#: name -> (W2 source, compile kwargs).  Parameters are pinned: goldens
#: are exact artefacts, not families.
GOLDEN_PROGRAMS = {
    "polynomial_8x3": (polynomial(8, 3), {}),
    "conv1d_12x3": (conv1d(12, 3), {}),
    "passthrough_8x2_unroll2": (passthrough(8, 2), {"unroll": 2}),
    # The fault-matrix conv2d variant: its ring-buffer schedule is the
    # regression surface for same-cycle IU address ordering.
    "conv2d_6x5": (conv2d(6, 5), {}),
}


#: name -> input array sizes of the simulated-run goldens (a subset of
#: GOLDEN_PROGRAMS).  Inputs are standard normals from a fixed seed.
GOLDEN_RUNS = {
    "polynomial_8x3": {"c": 3, "z": 8},
    "conv1d_12x3": {"w": 3, "x": 12},
}

#: Suffixes of the three renderings of one golden run.
RUN_RENDERINGS = ("metrics.json", "trace.jsonl", "fig4_2.txt")

#: Goldens over every bundled program and ``examples/`` source.
SOURCE_GOLDENS = ("tokens.txt", "comm_reports.json")

#: Unroll factors of the communication-report golden.
COMM_UNROLLS = (1, 2, 4)


def _check_golden(filename: str, text: str, update_goldens: bool) -> None:
    golden_path = GOLDENS_DIR / filename
    if update_goldens:
        GOLDENS_DIR.mkdir(exist_ok=True)
        golden_path.write_text(text)
        return

    assert golden_path.exists(), (
        f"missing golden {golden_path.name}; run pytest --update-goldens"
    )
    expected = golden_path.read_text()
    if text != expected:
        diff = "\n".join(
            difflib.unified_diff(
                expected.splitlines(),
                text.splitlines(),
                fromfile=f"goldens/{filename}",
                tofile="current output",
                lineterm="",
            )
        )
        pytest.fail(
            f"{filename} changed (run pytest --update-goldens if "
            f"intentional):\n{diff}"
        )


@pytest.mark.parametrize("name", sorted(GOLDEN_PROGRAMS))
def test_listing_matches_golden(name, update_goldens):
    source, kwargs = GOLDEN_PROGRAMS[name]
    program = compile_w2(source, **kwargs)
    listing = format_cell_code(program.cell_code) + "\n"
    _check_golden(f"{name}.listing", listing, update_goldens)


def _render_run(name: str) -> dict[str, str]:
    """The three byte-deterministic renderings of one seeded run."""
    source, kwargs = GOLDEN_PROGRAMS[name]
    program = compile_w2(source, **kwargs)
    rng = np.random.default_rng(20261017)
    inputs = {
        array: rng.standard_normal(size)
        for array, size in GOLDEN_RUNS[name].items()
    }
    result = simulate(program, inputs, record=MachineRecorder(io_limit=8))
    metrics = metrics_to_json(
        result.machine_metrics, prediction=predict_performance(program)
    )
    return {
        "metrics.json": json.dumps(metrics, indent=2) + "\n",
        "trace.jsonl": "".join(
            json.dumps(event) + "\n"
            for event in simulation_trace_events(result)
        ),
        "fig4_2.txt": format_two_cell_trace(result.record.trace) + "\n",
    }


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_run_matches_golden(name, update_goldens):
    for suffix, text in _render_run(name).items():
        _check_golden(f"{name}.{suffix}", text, update_goldens)


def test_token_stream_matches_golden(update_goldens):
    """The lexer's ``(kind, text, line, column)`` stream, token for
    token."""
    lines = []
    for name, source in all_w2_sources():
        lines.append(f"== {name}")
        for token in tokenize(source):
            location = token.location
            lines.append(
                f"{location.line}:{location.column} {token.kind.name} "
                f"{token.text!r}"
            )
    _check_golden("tokens.txt", "\n".join(lines) + "\n", update_goldens)


def test_comm_reports_match_golden(update_goldens):
    """Every :class:`~repro.analysis.CommReport` field of each source's
    lowered IR, as the driver builds it, with and without mirroring."""
    reports = {}
    for name, source in all_w2_sources():
        module = parse_module(source)
        for mirrored in (False, True):
            analyzed = analyze(mirror_module(module) if mirrored else module)
            for unroll in COMM_UNROLLS:
                ir = build_ir(analyzed, unroll_factor=unroll)
                eliminate_dead_writes(ir.tree)
                report = analyze_communication(ir.tree)
                key = f"{name} unroll={unroll} mirrored={mirrored}"
                reports[key] = dataclasses.asdict(report)
    text = json.dumps(reports, indent=1) + "\n"
    _check_golden("comm_reports.json", text, update_goldens)


def test_goldens_directory_has_no_strays():
    """Every golden on disk corresponds to a case above (catches
    renamed cases leaving stale files behind)."""
    expected = {f"{name}.listing" for name in GOLDEN_PROGRAMS} | {
        f"{name}.{suffix}"
        for name in GOLDEN_RUNS
        for suffix in RUN_RENDERINGS
    } | set(SOURCE_GOLDENS)
    actual = {path.name for path in GOLDENS_DIR.iterdir()}
    assert actual == expected
