"""The benchmark's program set, input generator and correctness gate.

Every program is a bundled kernel from ``repro.programs`` at a small
problem size, so one cycle-level run takes milliseconds.  Expected
outputs come from the AST reference interpreter (``repro.interpret``),
never from the compiler under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import analyze, interpret, parse_module
from repro import programs
from repro.compiler.performance import predict_performance
from repro.lang.ast import ParamDirection

#: Two problem sizes per bundled kernel (arguments of its
#: ``repro.programs`` factory).
SIZES = {
    "polynomial": [(16, 8), (32, 10)],
    "conv1d": [(32, 5), (64, 9)],
    "binop": [(8, 6, 4), (12, 8, 6)],
    "colorseg": [(6, 4, 3), (8, 6, 5)],
    "mandelbrot": [(5, 4, 4), (6, 6, 6)],
    "matmul": [(6, 3), (8, 4)],
    "conv2d": [(6, 5), (8, 6)],
    "fir_bank": [(16, 3, 4), (24, 4, 6)],
}
UNROLLS = (1, 2, "auto")

#: Kernels whose compiled arithmetic the optimiser reassociates, so the
#: simulator may round differently from the source-order interpreter.
#: Same sets and tolerance as the differential sweep in
#: ``tests/test_reference_interpreter.py``.
REASSOCIATED = {"conv2d"}
REASSOCIATED_UNROLLED = REASSOCIATED | {"matmul", "fir_bank"}
RTOL, ATOL = 1e-9, 1e-12


@dataclass(frozen=True)
class Config:
    """One (kernel, size, unroll) compile request."""

    kernel: str
    size: tuple
    unroll: int | str

    @property
    def source(self) -> str:
        return getattr(programs, self.kernel)(*self.size)

    @property
    def label(self) -> str:
        size = "x".join(str(v) for v in self.size)
        return f"{self.kernel}({size})/u{self.unroll}"


#: kernel x size x unroll, in a fixed order the seed permutes.
CONFIGS = [
    Config(kernel, size, unroll)
    for kernel, sizes in SIZES.items()
    for size in sizes
    for unroll in UNROLLS
]


def make_inputs(kernel: str, source: str, rng: np.random.Generator) -> dict:
    """Seeded values for every ``in`` parameter of ``source``, drawn
    from the range the kernel is meant for."""
    module = parse_module(source)
    inputs = {}
    for param in module.params:
        if param.direction is not ParamDirection.IN:
            continue
        dims = module.host_decl(param.name).dimensions
        size = int(np.prod(dims)) if dims else 1
        inputs[param.name] = _draw(kernel, param.name, size, rng)
    return inputs


def _draw(kernel: str, name: str, size: int, rng: np.random.Generator):
    if kernel == "colorseg":
        if name == "radius":
            return rng.uniform(0.02, 0.4, size)
        if name == "class":
            return np.arange(1.0, size + 1.0)
        return rng.uniform(0.0, 1.0, size)
    if kernel == "mandelbrot":
        low, high = (-2.0, 1.0) if name == "cx" else (-1.5, 1.5)
        return rng.uniform(low, high, size)
    return rng.standard_normal(size)


def reference(source: str, inputs: dict) -> dict:
    """Expected host arrays after a run, from the AST interpreter."""
    return interpret(analyze(parse_module(source)), inputs)


def check_result(config: Config, result, expected: dict,
                 predicted_cycles: int) -> str | None:
    """None when ``result`` is correct, else what is wrong with it.

    Outputs must equal the reference bit for bit, except for the
    documented reassociated kernels, which must match at the
    differential sweep's tolerance.  The simulated cycle count must
    equal the compile-time prediction exactly.
    """
    if result.total_cycles != predicted_cycles:
        return (
            f"{config.label}: {result.total_cycles} simulated cycles, "
            f"{predicted_cycles} predicted"
        )
    tolerant = config.kernel in (
        REASSOCIATED if config.unroll == 1 else REASSOCIATED_UNROLLED
    )
    for name, want in expected.items():
        got = result.outputs.get(name)
        if got is None or got.shape != want.shape:
            return f"{config.label}: output {name!r} missing or misshapen"
        if tolerant:
            if not np.allclose(got, want, rtol=RTOL, atol=ATOL):
                return f"{config.label}: output {name!r} outside tolerance"
        elif not np.array_equal(got, want):
            return f"{config.label}: output {name!r} differs from reference"
    return None


def predicted_cycles(program) -> int:
    return predict_performance(program).total_cycles


def issued_instructions(result) -> int:
    """Cycles that issued at least one operation, summed over cells."""
    return sum(stats.issue_cycles for stats in result.cell_stats)
