"""Local DAG optimisations (Section 6.1).

"Many local optimizations have been implemented, including common
sub-expression elimination, constant folding, height reduction and
idempotent operation removal."

CSE happens structurally through DAG value numbering
(:class:`repro.ir.dag.Dag`); this module supplies the rest, applied at
node-construction time through :func:`fold`:

* constant folding — any pure operation over constants;
* algebraic simplification / idempotent-operation removal — ``x+0``,
  ``x*1``, ``x*0``, ``x/1``, ``--x``, ``x and x``, ``select(c,a,a)``, …;
* height reduction — associative chains of ``+``/``*`` are rebalanced
  incrementally so the critical path through the 5-stage pipelined FPUs
  shortens.

Booleans are represented as floats (0.0 / 1.0), matching how the cell
datapath materialises comparison results.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Optional, Sequence

import numpy as np

from ..ir.dag import Dag, Node, OpKind

_ARITH_EVAL: dict[OpKind, Callable[[float, float], float]] = {
    OpKind.FADD: lambda a, b: a + b,
    OpKind.FSUB: lambda a, b: a - b,
    OpKind.FMUL: lambda a, b: a * b,
    OpKind.CMP_EQ: lambda a, b: 1.0 if a == b else 0.0,
    OpKind.CMP_NE: lambda a, b: 1.0 if a != b else 0.0,
    OpKind.CMP_LT: lambda a, b: 1.0 if a < b else 0.0,
    OpKind.CMP_LE: lambda a, b: 1.0 if a <= b else 0.0,
    OpKind.CMP_GT: lambda a, b: 1.0 if a > b else 0.0,
    OpKind.CMP_GE: lambda a, b: 1.0 if a >= b else 0.0,
    OpKind.BAND: lambda a, b: 1.0 if (a != 0.0 and b != 0.0) else 0.0,
    OpKind.BOR: lambda a, b: 1.0 if (a != 0.0 or b != 0.0) else 0.0,
}

_NEGATED_COMPARE = {
    OpKind.CMP_EQ: OpKind.CMP_NE,
    OpKind.CMP_NE: OpKind.CMP_EQ,
    OpKind.CMP_LT: OpKind.CMP_GE,
    OpKind.CMP_LE: OpKind.CMP_GT,
    OpKind.CMP_GT: OpKind.CMP_LE,
    OpKind.CMP_GE: OpKind.CMP_LT,
}

_ASSOCIATIVE = frozenset({OpKind.FADD, OpKind.FMUL})


def _const_value(node: Node) -> Optional[float]:
    if node.op is OpKind.CONST:
        return float(node.attr)  # type: ignore[arg-type]
    return None


_EXTRA_EVAL: dict[OpKind, Callable[..., float]] = {
    OpKind.FDIV: lambda a, b: a / b,
    OpKind.FNEG: lambda a: -a,
    OpKind.BNOT: lambda a: 1.0 if a == 0.0 else 0.0,
    OpKind.SELECT: lambda c, a, b: a if c != 0.0 else b,
}


def pure_evaluator(op: OpKind) -> Optional[Callable[..., float]]:
    """The evaluation function of a pure op, or ``None`` for impure ops.

    Resolving the dispatch once (e.g. when the simulator pre-decodes a
    schedule) avoids a per-execution dictionary lookup."""
    return _ARITH_EVAL.get(op) or _EXTRA_EVAL.get(op)


def _lane_divide(a, b):
    # Python raises on a zero divisor where NumPy would return inf/NaN;
    # one zero lane raises for the whole batch, like the scalar path.
    if not np.all(b):
        raise ZeroDivisionError("float division by zero")
    return a / b


def _lane_flag(test: Callable) -> Callable:
    return lambda *values: np.where(test(*values), 1.0, 0.0)


_LANE_EVAL: dict[OpKind, Callable[..., object]] = {
    OpKind.FADD: operator.add,
    OpKind.FSUB: operator.sub,
    OpKind.FMUL: operator.mul,
    OpKind.FDIV: _lane_divide,
    OpKind.FNEG: operator.neg,
    OpKind.CMP_EQ: _lane_flag(operator.eq),
    OpKind.CMP_NE: _lane_flag(operator.ne),
    OpKind.CMP_LT: _lane_flag(operator.lt),
    OpKind.CMP_LE: _lane_flag(operator.le),
    OpKind.CMP_GT: _lane_flag(operator.gt),
    OpKind.CMP_GE: _lane_flag(operator.ge),
    OpKind.BAND: _lane_flag(lambda a, b: (a != 0.0) & (b != 0.0)),
    OpKind.BOR: _lane_flag(lambda a, b: (a != 0.0) | (b != 0.0)),
    OpKind.BNOT: _lane_flag(lambda a: a == 0.0),
    OpKind.SELECT: lambda c, a, b: np.where(c != 0.0, a, b),
}


def lane_evaluator(op: OpKind) -> Optional[Callable[..., object]]:
    """:func:`pure_evaluator` over a batch axis, or ``None`` for impure
    ops.

    Operands are float64 arrays of one shape (one lane per batch item)
    or scalars, and each lane's result is bit-identical to the scalar
    evaluator's.  Call it under ``np.errstate(all="ignore")``: Python
    floats overflow to inf and produce NaN silently, and so must this.
    FDIV raises :class:`ZeroDivisionError` when any lane's divisor is
    ±0.0."""
    return _LANE_EVAL.get(op)


def evaluate_pure(op: OpKind, values: Sequence[float]) -> float:
    """Reference evaluation of a pure operation over float values.

    Shared by constant folding, the AST interpreter and the simulator so
    that all three agree on the boolean-as-float convention.
    """
    fn = _ARITH_EVAL.get(op) or _EXTRA_EVAL.get(op)
    if fn is None:
        raise ValueError(f"not a pure operation: {op}")
    return fn(*values)


def depth(dag: Dag, node: Node) -> int:
    """Operation height of a node (leaves are 0).  Memoised on the dag."""
    cache: dict[int, int] = getattr(dag, "_depth_cache", None) or {}
    if not hasattr(dag, "_depth_cache"):
        dag._depth_cache = cache  # type: ignore[attr-defined]
    return _depth(dag, node.node_id, cache)


def _depth(dag: Dag, node_id: int, cache: dict[int, int]) -> int:
    cached = cache.get(node_id)
    if cached is not None:
        return cached
    node = dag.nodes[node_id]
    if not node.operands:
        value = 0
    else:
        value = 1 + max(_depth(dag, op, cache) for op in node.operands)
    cache[node_id] = value
    return value


def fold(dag: Dag, op: OpKind, operands: Sequence[Node]) -> Optional[Node]:
    """Try to simplify ``op(operands)``; return a replacement node or None.

    Called by the IR builder before materialising each pure node.  The
    returned node already exists in the dag (or is a fresh constant).
    """
    values = [_const_value(n) for n in operands]

    # Constant folding.
    if all(v is not None for v in values):
        if op is OpKind.FDIV and values[1] == 0.0:
            pass  # leave the fault to run time
        else:
            result = evaluate_pure(op, [v for v in values if v is not None])
            if math.isfinite(result):
                return dag.const(result)

    simplified = _algebraic(dag, op, list(operands), values)
    if simplified is not None:
        return simplified

    if op in _ASSOCIATIVE:
        rebalanced = _height_reduce(dag, op, list(operands))
        if rebalanced is not None:
            return rebalanced
    return None


def _algebraic(
    dag: Dag,
    op: OpKind,
    operands: list[Node],
    values: list[Optional[float]],
) -> Optional[Node]:
    if op is OpKind.FADD:
        if values[0] == 0.0:
            return operands[1]
        if values[1] == 0.0:
            return operands[0]
    elif op is OpKind.FSUB:
        if values[1] == 0.0:
            return operands[0]
        if operands[0].node_id == operands[1].node_id:
            return dag.const(0.0)
    elif op is OpKind.FMUL:
        if values[0] == 1.0:
            return operands[1]
        if values[1] == 1.0:
            return operands[0]
        if values[0] == 0.0 or values[1] == 0.0:
            return dag.const(0.0)
    elif op is OpKind.FDIV:
        if values[1] == 1.0:
            return operands[0]
    elif op is OpKind.FNEG:
        inner = operands[0]
        if inner.op is OpKind.FNEG:
            return dag.nodes[inner.operands[0]]
    elif op in (OpKind.BAND, OpKind.BOR):
        if operands[0].node_id == operands[1].node_id:
            return operands[0]  # idempotent operation removal
        if op is OpKind.BAND:
            if values[0] == 0.0 or values[1] == 0.0:
                return dag.const(0.0)
            if values[0] is not None and values[0] != 0.0:
                return operands[1]
            if values[1] is not None and values[1] != 0.0:
                return operands[0]
        else:
            if values[0] == 0.0:
                return operands[1]
            if values[1] == 0.0:
                return operands[0]
    elif op is OpKind.BNOT:
        inner = operands[0]
        if inner.op is OpKind.BNOT:
            return dag.nodes[inner.operands[0]]
        negated = _NEGATED_COMPARE.get(inner.op)
        if negated is not None:
            left, right = inner.operands
            return dag.pure(negated, dag.nodes[left], dag.nodes[right])
    elif op is OpKind.SELECT:
        cond, if_true, if_false = operands
        if if_true.node_id == if_false.node_id:
            return if_true
        if values[0] is not None:
            return if_true if values[0] != 0.0 else if_false
    return None


def _height_reduce(
    dag: Dag, op: OpKind, operands: list[Node]
) -> Optional[Node]:
    """Rebalance ``op(op(u, v), w)`` into ``op(u, op(v, w))`` when the left
    subtree is deeper, shrinking the critical path of long chains.

    Floating-point reassociation changes rounding; the paper's compiler
    applied it too, and our end-to-end tests compare with tolerance.
    """
    left, right = operands
    if left.op is op and depth(dag, left) > depth(dag, right) + 1:
        u = dag.nodes[left.operands[0]]
        v = dag.nodes[left.operands[1]]
        if depth(dag, v) <= depth(dag, u):
            inner = _build_pure(dag, op, v, right)
            return _build_pure(dag, op, u, inner)
    if right.op is op and depth(dag, right) > depth(dag, left) + 1:
        u = dag.nodes[right.operands[0]]
        v = dag.nodes[right.operands[1]]
        if depth(dag, u) <= depth(dag, v):
            inner = _build_pure(dag, op, left, u)
            return _build_pure(dag, op, inner, v)
    return None


def _build_pure(dag: Dag, op: OpKind, a: Node, b: Node) -> Node:
    """Create a pure node applying folding recursively (but without
    re-entering height reduction, to guarantee termination)."""
    values = [_const_value(a), _const_value(b)]
    if all(v is not None for v in values):
        return dag.const(evaluate_pure(op, values))  # type: ignore[arg-type]
    simplified = _algebraic(dag, op, [a, b], values)
    if simplified is not None:
        return simplified
    node = dag.pure(op, a, b)
    # New nodes invalidate the memoised depth cache entry lazily: depths
    # only ever grow from leaves, and _depth computes on demand, so no
    # action is required here.
    return node
