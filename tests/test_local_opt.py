"""Tests for local optimisations: folding, algebra, height reduction."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import local_opt
from repro.ir.dag import Dag, OpKind


def fold2(dag, op, a, b):
    result = local_opt.fold(dag, op, (a, b))
    if result is None:
        result = dag.pure(op, a, b)
    return result


class TestConstantFolding:
    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            (OpKind.FADD, 2.0, 3.0, 5.0),
            (OpKind.FSUB, 2.0, 3.0, -1.0),
            (OpKind.FMUL, 2.0, 3.0, 6.0),
            (OpKind.FDIV, 3.0, 2.0, 1.5),
            (OpKind.CMP_LT, 1.0, 2.0, 1.0),
            (OpKind.CMP_GE, 1.0, 2.0, 0.0),
            (OpKind.BAND, 1.0, 0.0, 0.0),
            (OpKind.BOR, 1.0, 0.0, 1.0),
        ],
    )
    def test_binary_folds(self, op, a, b, expected):
        dag = Dag()
        node = fold2(dag, op, dag.const(a), dag.const(b))
        assert node.op is OpKind.CONST
        assert node.attr == expected

    def test_division_by_zero_not_folded(self):
        dag = Dag()
        node = fold2(dag, OpKind.FDIV, dag.const(1.0), dag.const(0.0))
        assert node.op is OpKind.FDIV

    def test_unary_fold(self):
        dag = Dag()
        node = local_opt.fold(dag, OpKind.FNEG, (dag.const(4.0),))
        assert node.attr == -4.0

    def test_select_on_constant_condition(self):
        dag = Dag()
        a, b = dag.read("a"), dag.read("b")
        chosen = local_opt.fold(dag, OpKind.SELECT, (dag.const(1.0), a, b))
        assert chosen is a


class TestAlgebraicIdentities:
    def test_add_zero(self):
        dag = Dag()
        a = dag.read("a")
        assert fold2(dag, OpKind.FADD, a, dag.const(0.0)) is a
        assert fold2(dag, OpKind.FADD, dag.const(0.0), a) is a

    def test_mul_one(self):
        dag = Dag()
        a = dag.read("a")
        assert fold2(dag, OpKind.FMUL, a, dag.const(1.0)) is a

    def test_mul_zero(self):
        dag = Dag()
        a = dag.read("a")
        node = fold2(dag, OpKind.FMUL, a, dag.const(0.0))
        assert node.op is OpKind.CONST and node.attr == 0.0

    def test_sub_self_is_zero(self):
        dag = Dag()
        a = dag.read("a")
        node = fold2(dag, OpKind.FSUB, a, a)
        assert node.attr == 0.0

    def test_div_one(self):
        dag = Dag()
        a = dag.read("a")
        assert fold2(dag, OpKind.FDIV, a, dag.const(1.0)) is a

    def test_double_negation(self):
        dag = Dag()
        a = dag.read("a")
        neg = dag.pure(OpKind.FNEG, a)
        assert local_opt.fold(dag, OpKind.FNEG, (neg,)) is a

    def test_idempotent_and(self):
        dag = Dag()
        a = dag.read("a")
        assert fold2(dag, OpKind.BAND, a, a) is a

    def test_idempotent_or(self):
        dag = Dag()
        a = dag.read("a")
        assert fold2(dag, OpKind.BOR, a, a) is a

    def test_not_of_compare_inverts(self):
        dag = Dag()
        a, b = dag.read("a"), dag.read("b")
        le = dag.pure(OpKind.CMP_LE, a, b)
        inverted = local_opt.fold(dag, OpKind.BNOT, (le,))
        assert inverted.op is OpKind.CMP_GT

    def test_select_same_arms(self):
        dag = Dag()
        c, a = dag.read("c"), dag.read("a")
        assert local_opt.fold(dag, OpKind.SELECT, (c, a, a)) is a


class TestHeightReduction:
    def _chain(self, dag, op, n):
        node = dag.read("x0")
        for i in range(1, n):
            node = fold2(dag, op, node, dag.read(f"x{i}"))
        return node

    @pytest.mark.parametrize("op", [OpKind.FADD, OpKind.FMUL])
    def test_chain_depth_is_logarithmic(self, op):
        dag = Dag()
        node = self._chain(dag, op, 16)
        depth = local_opt.depth(dag, node)
        assert depth <= 6  # a linear chain would be depth 15

    def test_subtraction_chain_not_reassociated(self):
        dag = Dag()
        node = dag.read("x0")
        for i in range(1, 8):
            node = fold2(dag, OpKind.FSUB, node, dag.read(f"x{i}"))
        assert local_opt.depth(dag, node) == 7


class TestEvaluatePure:
    @given(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_python_semantics(self, a, b):
        assert local_opt.evaluate_pure(OpKind.FADD, [a, b]) == a + b
        assert local_opt.evaluate_pure(OpKind.FSUB, [a, b]) == a - b
        assert local_opt.evaluate_pure(OpKind.CMP_LE, [a, b]) == (
            1.0 if a <= b else 0.0
        )

    def test_select_semantics(self):
        assert local_opt.evaluate_pure(OpKind.SELECT, [1.0, 5.0, 7.0]) == 5.0
        assert local_opt.evaluate_pure(OpKind.SELECT, [0.0, 5.0, 7.0]) == 7.0

    def test_bnot(self):
        assert local_opt.evaluate_pure(OpKind.BNOT, [0.0]) == 1.0
        assert local_opt.evaluate_pure(OpKind.BNOT, [3.0]) == 0.0


class TestFoldedEvaluationConsistency:
    """Folding must agree with evaluate_pure for every op it folds."""

    @given(
        st.sampled_from(
            [
                OpKind.FADD,
                OpKind.FSUB,
                OpKind.FMUL,
                OpKind.CMP_EQ,
                OpKind.CMP_NE,
                OpKind.CMP_LT,
                OpKind.CMP_LE,
                OpKind.CMP_GT,
                OpKind.CMP_GE,
                OpKind.BAND,
                OpKind.BOR,
            ]
        ),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_fold_equals_evaluate(self, op, a, b):
        dag = Dag()
        node = fold2(dag, op, dag.const(a), dag.const(b))
        expected = local_opt.evaluate_pure(op, [a, b])
        if math.isfinite(expected):
            assert node.op is OpKind.CONST
            assert node.attr == expected


#: Every pure op with its arity.
_PURE_ARITY = {
    op: {OpKind.FNEG: 1, OpKind.BNOT: 1, OpKind.SELECT: 3}.get(op, 2)
    for op in OpKind
    if local_opt.pure_evaluator(op) is not None
}

#: Floats with the IEEE edge cases drawn often: NaN, ±inf, ±0.0, the
#: smallest and largest subnormals and normals.
_EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(
        [
            math.nan,
            -math.nan,
            math.inf,
            -math.inf,
            0.0,
            -0.0,
            1.0,
            -1.0,
            5e-324,
            -5e-324,
            2.225073858507201e-308,
            2.2250738585072014e-308,
            1.7976931348623157e308,
            -1.7976931348623157e308,
        ]
    ),
)


def _lanes(op, *columns):
    """``lane_evaluator(op)`` over ``columns``, as a float64 array; any
    NumPy floating-point warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            result = local_opt.lane_evaluator(op)(*columns)
    return np.asarray(result, dtype=np.float64)


def _scalar_results(op, rows):
    scalar = local_opt.pure_evaluator(op)
    return np.array([scalar(*row) for row in rows], dtype=np.float64)


class TestLaneEvaluator:
    """``lane_evaluator`` over a batch axis is ``pure_evaluator`` per
    lane, bit for bit — the lane-vectorised batch path depends on it."""

    def test_covers_every_pure_op(self):
        for op in OpKind:
            scalar = local_opt.pure_evaluator(op)
            lanes = local_opt.lane_evaluator(op)
            assert (scalar is None) == (lanes is None), op

    @given(
        st.sampled_from(sorted(_PURE_ARITY, key=lambda op: op.value)),
        st.data(),
    )
    @settings(max_examples=600, deadline=None)
    def test_matches_scalar_bit_for_bit(self, op, data):
        arity = _PURE_ARITY[op]
        rows = data.draw(
            st.lists(
                st.lists(_EDGE_FLOATS, min_size=arity, max_size=arity),
                min_size=1,
                max_size=6,
            )
        )
        # Some operands are one scalar shared by every lane, as
        # literals and never-written registers are in a lane run.
        shared = data.draw(
            st.lists(st.booleans(), min_size=arity, max_size=arity)
        )
        columns = []
        for k in range(arity):
            if shared[k]:
                for row in rows:
                    row[k] = rows[0][k]
                columns.append(rows[0][k])
            else:
                columns.append(np.array([row[k] for row in rows]))
        if op is OpKind.FDIV and any(row[1] == 0.0 for row in rows):
            with pytest.raises(ZeroDivisionError):
                _lanes(op, *columns)
            return
        got = np.broadcast_to(_lanes(op, *columns), (len(rows),))
        assert got.tobytes() == _scalar_results(op, rows).tobytes()

    @pytest.mark.parametrize(
        "op,rows",
        [
            (OpKind.SELECT, [[math.nan, -0.0, 1.0], [-0.0, 2.0, -0.0]]),
            (OpKind.SELECT, [[0.0, math.nan, -0.0], [1.0, -0.0, math.nan]]),
            (OpKind.BAND, [[math.nan, 1.0], [-0.0, 1.0], [math.nan, -0.0]]),
            (OpKind.BOR, [[math.nan, 0.0], [-0.0, -0.0], [-0.0, math.nan]]),
            (OpKind.BNOT, [[math.nan], [-0.0], [0.0], [-math.inf]]),
        ],
    )
    def test_boolean_edge_cases(self, op, rows):
        columns = [np.array(column) for column in zip(*rows)]
        assert _lanes(op, *columns).tobytes() == (
            _scalar_results(op, rows).tobytes()
        )

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_divide_raises_when_one_lane_divides_by_zero(self, zero):
        divisors = np.array([2.0, math.nan, zero, math.inf])
        with pytest.raises(ZeroDivisionError):
            _lanes(OpKind.FDIV, np.ones(4), divisors)
        with pytest.raises(ZeroDivisionError):
            _lanes(OpKind.FDIV, np.ones(4), zero)
        with pytest.raises(ZeroDivisionError):
            local_opt.pure_evaluator(OpKind.FDIV)(1.0, zero)
