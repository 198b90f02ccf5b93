"""Communication-cycle analysis (Section 5.1.1, Figure 5-1).

The array's computation is represented as a graph over one cell's
operations (all cells run the same code).  Two edge families:

* *computation edges* — intra-cell data dependencies (DAG operand edges,
  store→load flow through memory, write→read flow through scalars);
* *communication edges* — a "right" edge connects each send-to-right to
  the receive-from-left statements of the same channel (the data arrives
  at the right neighbour's input queue), and symmetrically for "left".

A cycle through a "right" communication edge forces cells to be delayed
left-to-right; a "left" cycle forces the opposite.  A program with both
kinds of cycles cannot be mapped onto the skewed computation model.

The analysis is conservative: scalar and memory flow is tracked per
name/array (not per element), and sends are matched to every receive of
the same queue rather than by ordinal.  This can only create extra
cycles, never miss one, so "mappable" verdicts are sound.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.dag import OpKind, QueueRef
from ..ir.tree import ProgramTree
from ..lang.ast import Channel, Direction


@dataclass(frozen=True)
class CommReport:
    """Result of the communication-cycle analysis."""

    has_right_cycles: bool
    has_left_cycles: bool
    sends_right: bool
    sends_left: bool
    receives_from_left: bool
    receives_from_right: bool

    @property
    def is_mappable(self) -> bool:
        """Mappable onto the skewed computation model: not both cycle
        kinds at once (Section 5.1.1)."""
        return not (self.has_right_cycles and self.has_left_cycles)

    @property
    def is_unidirectional_lr(self) -> bool:
        """Pure left-to-right flow (the subset the compiler accepts)."""
        return not (self.sends_left or self.receives_from_right)

    @property
    def is_unidirectional_rl(self) -> bool:
        return not (self.sends_right or self.receives_from_left)

    @property
    def is_bidirectional(self) -> bool:
        return not (self.is_unidirectional_lr or self.is_unidirectional_rl)


def _receive_queue_for_send(queue: QueueRef) -> QueueRef:
    """The receive queue that observes data sent on ``queue``.

    A send-to-right on X is received from-the-left on X by the next cell;
    in the folded single-cell graph the matching receive statement keeps
    the same (direction-of-origin, channel) labelling as the send's
    destination side.
    """
    if queue.direction is Direction.RIGHT:
        return QueueRef(Direction.LEFT, queue.channel)
    return QueueRef(Direction.RIGHT, queue.channel)


def _strong_components(succ: list[list[int]]) -> list[int]:
    """The strongly connected component of every node of the graph
    ``succ`` (node -> successors), by an iterative Tarjan search."""
    index = [-1] * len(succ)
    low = [0] * len(succ)
    component = [-1] * len(succ)
    stack: list[int] = []
    counter = n_components = 0
    for root in range(len(succ)):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if component[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]  # w is still on the stack
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        component[w] = n_components
                        if w == v:
                            break
                    n_components += 1
    return component


def analyze_communication(tree: ProgramTree) -> CommReport:
    """Build the communication graph of a lowered cell program and
    classify its cycles: a communication edge lies on a cycle iff both
    of its ends are in one strongly connected component."""
    succ: list[list[int]] = []
    sends: list[tuple[int, QueueRef]] = []
    receives: dict[QueueRef, list[int]] = {}
    # Global (conservative) scalar/array flow endpoints, keyed by
    # ("scalar", name) or ("array", name).
    writers: dict[tuple[str, str], list[int]] = {}
    readers: dict[tuple[str, str], list[int]] = {}

    for block in tree.blocks():
        live = block.dag.live_nodes()
        ids = {node.node_id: len(succ) + k for k, node in enumerate(live)}
        succ.extend([] for _ in live)
        for node in live:
            v = ids[node.node_id]
            for operand in node.operands:
                if operand in ids:
                    succ[ids[operand]].append(v)
            if node.op is OpKind.SEND:
                sends.append((v, node.attr))
            elif node.op is OpKind.RECV:
                receives.setdefault(node.attr, []).append(v)
            elif node.op is OpKind.WRITE:
                writers.setdefault(("scalar", node.attr), []).append(v)
            elif node.op is OpKind.READ:
                readers.setdefault(("scalar", node.attr), []).append(v)
            elif node.op is OpKind.STORE:
                writers.setdefault(("array", node.attr.array), []).append(v)
            elif node.op is OpKind.LOAD:
                readers.setdefault(("array", node.attr.array), []).append(v)
        for earlier, later in block.dag.order_edges:
            if earlier in ids and later in ids:
                succ[ids[earlier]].append(ids[later])

    # Cross-block value flow (conservative: any write reaches any read).
    for key, sources in writers.items():
        sinks = readers.get(key, [])
        for source in sources:
            succ[source].extend(sinks)

    # Communication edges, with whether the data travels right.
    comm_edges: list[tuple[int, int, bool]] = []
    for send, queue in sends:
        rightward = queue.direction is Direction.RIGHT
        for recv in receives.get(_receive_queue_for_send(queue), []):
            succ[send].append(recv)
            comm_edges.append((send, recv, rightward))

    component = _strong_components(succ)
    on_cycle = {
        rightward
        for send, recv, rightward in comm_edges
        if component[send] == component[recv]
    }

    queues_sent = {queue for _, queue in sends}
    queues_received = set(receives)
    return CommReport(
        has_right_cycles=True in on_cycle,
        has_left_cycles=False in on_cycle,
        sends_right=any(q.direction is Direction.RIGHT for q in queues_sent),
        sends_left=any(q.direction is Direction.LEFT for q in queues_sent),
        receives_from_left=any(
            q.direction is Direction.LEFT for q in queues_received
        ),
        receives_from_right=any(
            q.direction is Direction.RIGHT for q in queues_received
        ),
    )
