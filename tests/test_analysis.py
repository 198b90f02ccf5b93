"""Tests for global flow summaries and communication-cycle analysis."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    analyze_communication,
    analyze_global_flow,
    eliminate_dead_writes,
)
from repro.analysis.comm_graph import _strong_components
from repro.ir import build_ir
from repro.ir.dag import OpKind
from repro.lang import analyze, parse_module
from repro.programs import (
    TABLE_7_1_PROGRAMS,
    bidirectional_cycle,
    bidirectional_exchange,
    passthrough,
    polynomial,
)


def lower(source):
    return build_ir(analyze(parse_module(source)))


class TestGlobalFlow:
    def test_read_write_summaries(self):
        ir = lower(polynomial(8, 3))
        info = analyze_global_flow(ir.tree)
        # coeff is written before the main loop and read inside it.
        coeff = next(n for n in info.read_scalars if n.endswith("coeff"))
        assert coeff in info.written_scalars

    def test_dead_writes_detected_and_removed(self):
        ir = lower(passthrough(6, 2))
        info = analyze_global_flow(ir.tree)
        assert info.dead_written_scalars  # 't' is written, never read
        removed = eliminate_dead_writes(ir.tree)
        assert removed == len(info.dead_written_scalars)
        info_after = analyze_global_flow(ir.tree)
        assert not info_after.written_scalars

    def test_live_write_preserved(self):
        # conv1d's xold is loop-carried: written and read in the loop.
        from repro.programs import conv1d

        ir = lower(conv1d(8, 3))
        eliminate_dead_writes(ir.tree)
        info = analyze_global_flow(ir.tree)
        assert any(n.endswith("xold") for n in info.written_scalars)

    def test_array_summaries(self):
        from repro.programs import matmul

        ir = lower(matmul(4, 2))
        info = analyze_global_flow(ir.tree)
        bcol = next(a for a in info.array_stores if a.endswith("bcol"))
        assert bcol in info.array_loads


class TestCommunicationGraph:
    def test_figure_5_1_program_a_no_cycles(self):
        """Unrelated bidirectional traffic: acyclic, hence mappable."""
        ir = lower(bidirectional_exchange())
        report = analyze_communication(ir.tree)
        assert not report.has_right_cycles
        assert not report.has_left_cycles
        assert report.is_mappable
        assert report.is_bidirectional

    def test_figure_5_1_program_b_both_cycles(self):
        """Forwarding in both directions: right and left cycles, not
        mappable onto the skewed model."""
        ir = lower(bidirectional_cycle())
        report = analyze_communication(ir.tree)
        assert report.has_right_cycles
        assert report.has_left_cycles
        assert not report.is_mappable

    def test_pipeline_has_right_cycle_only(self):
        ir = lower(passthrough(6, 3))
        report = analyze_communication(ir.tree)
        assert report.has_right_cycles
        assert not report.has_left_cycles
        assert report.is_mappable
        assert report.is_unidirectional_lr

    @pytest.mark.parametrize("name", list(TABLE_7_1_PROGRAMS))
    def test_paper_programs_unidirectional(self, name):
        ir = lower(TABLE_7_1_PROGRAMS[name]())
        report = analyze_communication(ir.tree)
        assert report.is_unidirectional_lr
        assert report.is_mappable

    def test_cycle_through_memory_flow(self):
        """A value forwarded through a cell array still forms a right
        cycle (store -> load flow is tracked)."""
        src = """
module m (a in, b out)
float a[4];
float b[4];
cellprogram (cid : 0 : 1)
begin
    float t, buf[2];
    int i;
    for i := 0 to 3 do begin
        receive (L, X, t, a[i]);
        buf[0] := t;
        send (R, X, buf[0] + 0.0, b[i]);
    end;
end
"""
        ir = lower(src)
        report = analyze_communication(ir.tree)
        assert report.has_right_cycles

    def test_constant_sender_no_cycle(self):
        src = """
module m (a in, b out)
float a[4];
float b[4];
cellprogram (cid : 0 : 1)
begin
    float t;
    int i;
    for i := 0 to 3 do begin
        receive (L, X, t, a[i]);
        send (R, X, 1.0, b[i]);
    end;
end
"""
        ir = lower(src)
        report = analyze_communication(ir.tree)
        assert not report.has_right_cycles
        assert not report.has_left_cycles


@st.composite
def labelled_digraphs(draw):
    """(node count, [(u, v, travels_right)]): self-loops and parallel
    edges included."""
    n = draw(st.integers(1, 8))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node, st.booleans()), max_size=24))
    return n, edges


def _reaches(succ, start, goal):
    """Brute force: is there a path of one or more edges start -> goal?"""
    seen, frontier = set(), deque(succ[start])
    while frontier:
        node = frontier.popleft()
        if node == goal:
            return True
        if node not in seen:
            seen.add(node)
            frontier.extend(succ[node])
    return False


class TestStrongComponents:
    """The iterative Tarjan search behind the cycle classification."""

    @settings(max_examples=400, deadline=None)
    @given(labelled_digraphs())
    def test_same_component_iff_edge_on_cycle(self, graph):
        n, edges = graph
        succ = [[] for _ in range(n)]
        for u, v, _rightward in edges:
            succ[u].append(v)
        component = _strong_components(succ)
        for u, v, _rightward in edges:
            assert (component[u] == component[v]) == _reaches(succ, v, u)
        on_cycle = {r for u, v, r in edges if component[u] == component[v]}
        brute = {r for u, v, r in edges if _reaches(succ, v, u)}
        assert on_cycle == brute
        for a in range(n):
            for b in range(n):
                mutual = a == b or (
                    _reaches(succ, a, b) and _reaches(succ, b, a)
                )
                assert (component[a] == component[b]) == mutual

    def test_deep_chain_is_iterative(self):
        """A 20k-node cycle would overflow a recursive search."""
        n = 20_000
        succ = [[(k + 1) % n] for k in range(n)]
        assert set(_strong_components(succ)) == {0}
