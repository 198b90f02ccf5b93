"""Property-based end-to-end fuzzing.

Random (but well-formed, conservation-respecting) W2 pipeline programs
are compiled, run on the cycle-level simulator, and checked against the
independent AST interpreter.  Any disagreement exposes a bug in one of:
if-conversion, scheduling, register allocation, skew analysis, IU/host
code generation or the simulator itself.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.compiler import compile_w2
from repro.exec import BatchRunner
from repro.faults import InjectionPlan
from repro.lang import analyze, parse_module
from repro.machine import interpret, simulate

VARS = ["v0", "v1", "v2", "v3"]


@st.composite
def expressions(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return draw(st.sampled_from(VARS))
        if choice == 1:
            return repr(float(draw(st.integers(-3, 3))))
        return "v0"
    op = draw(st.sampled_from(["+", "-", "*"]))
    left = draw(expressions(depth=depth + 1))
    right = draw(expressions(depth=depth + 1))
    return f"({left} {op} {right})"


@st.composite
def statements(draw, depth=0):
    kind = draw(st.integers(0, 3 if depth == 0 else 2))
    target = draw(st.sampled_from(VARS[1:]))  # keep v0 = the input
    if kind in (0, 1, 2):
        return f"{target} := {draw(expressions())};"
    condition = (
        f"{draw(st.sampled_from(VARS))} "
        f"{draw(st.sampled_from(['<', '<=', '>', '>=']))} "
        f"{repr(float(draw(st.integers(-2, 2))))}"
    )
    then_stmt = f"{target} := {draw(expressions())};"
    if draw(st.booleans()):
        other = draw(st.sampled_from(VARS[1:]))
        return (
            f"if {condition} then {then_stmt} "
            f"else {other} := {draw(expressions())};"
        )
    return f"if {condition} then {then_stmt}"


@st.composite
def pipeline_programs(draw):
    n_cells = draw(st.integers(1, 3))
    n_points = draw(st.integers(1, 6))
    body = [draw(statements()) for _ in range(draw(st.integers(1, 5)))]
    use_y = draw(st.booleans())
    y_lines = (
        ["        receive (L, Y, v1, 0.0);", "        send (R, Y, v1 + v2);"]
        if use_y
        else []
    )
    body_text = "\n".join(f"        {line}" for line in body)
    source = f"""
module fuzz (a in, b out)
float a[{n_points}];
float b[{n_points}];
cellprogram (cid : 0 : {n_cells - 1})
begin
    float v0, v1, v2, v3;
    int i;
    v1 := 0.0;
    v2 := 0.0;
    v3 := 0.0;
    for i := 0 to {n_points - 1} do begin
        receive (L, X, v0, a[i]);
{chr(10).join(y_lines)}
{body_text}
        send (R, X, v0 + v1 + v2 + v3, b[i]);
    end;
end
"""
    return source, n_points


# A generated pipeline whose recurrence overflows: with input seed
# 2147483646 both sides give [1.41e7, -2.16e43, 2.50e144, nan].
_OVERFLOWING_PIPELINE = """
module fuzz (a in, b out)
float a[4];
float b[4];
cellprogram (cid : 0 : 2)
begin
    float v0, v1, v2, v3;
    int i;
    v1 := 0.0;
    v2 := 0.0;
    v3 := 0.0;
    for i := 0 to 3 do begin
        receive (L, X, v0, a[i]);

        v3 := (v1 * ((v3 + v0) * (v0 + v0)));
        v1 := (((v0 + v0) + (v0 + v0)) * ((v0 + v0) + (v0 + v3)));
        send (R, X, v0 + v1 + v2 + v3, b[i]);
    end;
end
"""


class TestFuzzedPipelines:
    @given(pipeline_programs(), st.integers(0, 2**31 - 1))
    @example(case=(_OVERFLOWING_PIPELINE, 4), seed=2147483646)
    @settings(max_examples=60, deadline=None)
    def test_simulator_matches_interpreter(self, case, seed):
        source, n_points = case
        rng = np.random.default_rng(seed)
        inputs = {"a": rng.uniform(-2, 2, n_points)}
        analyzed = analyze(parse_module(source))
        expected = interpret(analyzed, inputs)
        program = compile_w2(source)
        result = simulate(program, inputs)
        # An overflowing recurrence gives NaN on both sides: NaN must
        # appear at the same positions, every other value within 1e-9.
        assert np.allclose(
            result.outputs["b"],
            expected["b"],
            rtol=1e-9,
            atol=1e-9,
            equal_nan=True,
        ), source

    @given(pipeline_programs())
    @settings(max_examples=30, deadline=None)
    def test_skew_and_buffers_are_consistent(self, case):
        source, n_points = case
        program = compile_w2(source)
        inputs = {"a": np.linspace(-1, 1, n_points)}
        result = simulate(program, inputs)
        for requirement in program.buffers:
            suffix = f".{requirement.channel.value}"
            observed = max(
                (
                    v
                    for k, v in result.machine_metrics.queue_high_water.items()
                    if k.endswith(suffix) and not k.startswith("link0.")
                ),
                default=0,
            )
            assert observed <= requirement.required

    @given(pipeline_programs(), st.integers(0, 2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_batch_pool_matches_one_shot(self, case, seed):
        """Generated programs through the batch engine: the lane run
        and the per-item path (any injection plan, even an empty one)
        are bit-identical, item for item, to one-shot simulation."""
        source, n_points = case
        rng = np.random.default_rng(seed)
        items = [
            {"a": rng.uniform(-2, 2, n_points)} for _ in range(3)
        ]
        program = compile_w2(source)
        one_shot = [simulate(program, inputs) for inputs in items]
        with obs.collecting() as telemetry:
            lanes = BatchRunner(program).run(items)
        assert telemetry.counters["exec.batch.lane_items"] == 3, source
        per_item = BatchRunner(program, faults=InjectionPlan()).run(items)
        assert lanes.ok and per_item.ok
        for expected, from_lanes, from_items in zip(
            one_shot, lanes.results, per_item.results
        ):
            want = expected.outputs["b"].tobytes()
            assert from_lanes.outputs["b"].tobytes() == want, source
            assert from_items.outputs["b"].tobytes() == want, source
