"""Execution-trace formatting (Figure 4-2).

Figure 4-2 shows the logical sequence of sends and receives on the first
two cells of the polynomial program, with arrows from each send to the
receive that consumes it.  :func:`format_two_cell_trace` renders the
same picture from a simulation trace, for any pair of cells."""

from __future__ import annotations

from ..obs.metrics import TraceEvent


def format_two_cell_trace(
    trace: list[TraceEvent],
    max_rows: int = 24,
    cells: tuple[int, int] = (0, 1),
    annotation: str | None = None,
) -> str:
    """Two-column rendering of a cell pair's I/O events in time order.

    ``cells`` selects the pair (default the paper's cells 0 and 1); when
    the pair is adjacent, sends of the left cell on the rightward
    channels line up with the receives of the right cell that consume
    them.  If ``max_rows`` cuts events off, a final line reports how
    many were omitted.  ``annotation`` adds a provenance line above the
    header (e.g. the compile-cache status of the traced run, so a trace
    from a cached artefact is distinguishable from a fresh compile)."""
    left, right = cells
    rows: list[str] = []
    if annotation:
        rows.append(f"[{annotation}]")
    rows.append(f"{f'Cell {left}':<36}{f'Cell {right}'}")
    events = sorted(
        (e for e in trace if e.cell in (left, right)),
        key=lambda e: (e.time, e.cell, e.kind == "send"),
    )
    for event in events[:max_rows]:
        arrow = "->" if (event.cell == left and event.kind == "send") else "  "
        text = f"t={event.time:<4} {event.kind:<8} {event.queue} {event.value:<8.4g} {arrow}"
        if event.cell == left:
            rows.append(f"{text:<36}")
        else:
            rows.append(f"{'':<36}{text}")
    if len(events) > max_rows:
        rows.append(f"... {len(events) - max_rows} more events not shown")
    return "\n".join(rows)
