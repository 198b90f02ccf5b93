"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import importlib.util
import os
from pathlib import Path

# Every compile in the test suite runs the independent schedule verifier
# at full strength unless a test overrides the level explicitly.
os.environ.setdefault("REPRO_VERIFY", "full")

import numpy as np
import pytest

from repro.compiler import compile_w2
from repro.programs import (
    bidirectional_cycle,
    bidirectional_exchange,
    binop,
    colorseg,
    conv1d,
    conv2d,
    fir_bank,
    mandelbrot,
    matmul,
    passthrough,
    polynomial,
)


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite tests/goldens/*.listing from the current compiler "
        "output instead of comparing against it",
    )


@pytest.fixture
def update_goldens(request: pytest.FixtureRequest) -> bool:
    return bool(request.config.getoption("--update-goldens"))


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20260705)


#: Small instances of every end-to-end program: (name, source factory,
#: reference function over an input dict, input generator).
def _poly_ref(inputs):
    return {"results": np.polyval(inputs["c"], inputs["z"])}


def _conv_ref(inputs):
    x, w = inputs["x"], inputs["w"]
    return {"y": np.convolve(x, w)[: len(x)]}


def _binop_ref(inputs):
    return {"c": inputs["a"] + inputs["b"]}


def _colorseg_ref(inputs):
    u, v = inputs["u"], inputs["v"]
    labels = np.zeros_like(u)
    for k in range(len(inputs["refu"])):
        dist = (u - inputs["refu"][k]) ** 2 + (v - inputs["refv"][k]) ** 2
        labels = np.where(dist <= inputs["radius"][k], inputs["class"][k], labels)
    return {"labels": labels}


def _mandel_ref(inputs):
    cx, cy = inputs["cx"], inputs["cy"]
    counts = np.zeros_like(cx)
    zr = np.zeros_like(cx)
    zi = np.zeros_like(cy)
    for _ in range(4):
        mag = zr * zr + zi * zi
        new_zr = zr * zr - zi * zi + cx
        zi = 2.0 * zr * zi + cy
        zr = new_zr
        counts += mag <= 4.0
    return {"counts": counts}


def _matmul_ref(inputs):
    n = int(np.sqrt(inputs["a"].size))
    a = inputs["a"].reshape(n, n)
    b = inputs["b"].reshape(n, n)
    return {"c": (a @ b).ravel()}


def small_program_suite(rng: np.random.Generator):
    """(name, source, inputs, reference outputs) for small instances of
    every program."""
    cases = []
    n, k = 24, 4
    cases.append(
        (
            "polynomial",
            polynomial(n, k),
            {"z": rng.standard_normal(n), "c": rng.standard_normal(k)},
            _poly_ref,
        )
    )
    cases.append(
        (
            "conv1d",
            conv1d(20, 3),
            {"x": rng.standard_normal(20), "w": rng.standard_normal(3)},
            _conv_ref,
        )
    )
    w, h, c = 6, 4, 4
    cases.append(
        (
            "binop",
            binop(w, h, c),
            {"a": rng.standard_normal(w * h), "b": rng.standard_normal(w * h)},
            _binop_ref,
        )
    )
    w, h, c = 5, 4, 3
    cases.append(
        (
            "colorseg",
            colorseg(w, h, c),
            {
                "u": rng.uniform(0, 1, w * h),
                "v": rng.uniform(0, 1, w * h),
                "refu": rng.uniform(0, 1, c),
                "refv": rng.uniform(0, 1, c),
                "radius": rng.uniform(0.02, 0.4, c),
                "class": np.arange(1.0, c + 1.0),
            },
            _colorseg_ref,
        )
    )
    cases.append(
        (
            "mandelbrot",
            mandelbrot(5, 4, 4),
            {
                "cx": rng.uniform(-2, 1, 20),
                "cy": rng.uniform(-1.5, 1.5, 20),
            },
            _mandel_ref,
        )
    )
    nn, cc = 6, 3
    cases.append(
        (
            "matmul",
            matmul(nn, cc),
            {
                "a": rng.standard_normal(nn * nn),
                "b": rng.standard_normal(nn * nn),
            },
            _matmul_ref,
        )
    )
    cases.append(
        (
            "passthrough",
            passthrough(10, 3),
            {"din": rng.standard_normal(10)},
            lambda inputs: {"dout": inputs["din"]},
        )
    )
    h2, w2 = 5, 6
    cases.append(
        (
            "conv2d",
            conv2d(w2, h2),
            {
                "x": rng.standard_normal(h2 * w2),
                "k": rng.standard_normal(9),
            },
            lambda inputs: _conv2d_ref(inputs, h2, w2),
        )
    )
    nf, nt, ns = 3, 4, 16
    cases.append(
        (
            "fir_bank",
            fir_bank(ns, nf, nt),
            {
                "x": rng.standard_normal(ns),
                "taps": rng.standard_normal(nf * nt),
            },
            lambda inputs: _fir_bank_ref(inputs, nf, nt, ns),
        )
    )
    return cases


def _fir_bank_ref(inputs, n_filters, n_taps, n_samples):
    x = inputs["x"]
    taps = inputs["taps"].reshape(n_filters, n_taps)
    y = np.stack(
        [np.convolve(x, taps[f])[:n_samples] for f in range(n_filters)]
    )
    return {"y": y.ravel()}


def _conv2d_ref(inputs, h, w):
    """Stream-exact reference of the conv2d program: zero-padded 3x3
    correlation with the sliding window carrying across row boundaries."""
    x = inputs["x"].reshape(h, w)
    k = inputs["k"].reshape(3, 3)
    flat = x.ravel()
    y = np.zeros(h * w)
    # Each cell i delays the stream by i*w items and convolves a 3-wide
    # window over the *flat* stream (window carries across rows).
    for i in range(3):
        delayed = np.concatenate([np.zeros(i * w), flat[: flat.size - i * w]])
        for j in range(3):
            shift = 2 - j
            shifted = np.concatenate(
                [np.zeros(shift), delayed[: delayed.size - shift]]
            )
            y += k[i, j] * shifted
    return {"y": y}


def example_w2_sources() -> list[tuple[str, str]]:
    """(name, W2 source) for every source literal under ``examples/``."""
    examples = Path(__file__).resolve().parent.parent / "examples"
    sources = []
    for path in sorted(examples.glob("*.py")):
        text = path.read_text()
        if "\nSOURCE = " not in text:
            continue
        spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sources.append((path.stem, module.SOURCE))
    return sources


def compilable_w2_sources() -> list[tuple[str, str]]:
    """(name, W2 source) for every bundled program of the small suite
    and every ``examples/`` source: all of them compile."""
    suite = small_program_suite(np.random.default_rng(0))
    return [(name, source) for name, source, _inputs, _ref in suite] + [
        (f"examples/{name}", source) for name, source in example_w2_sources()
    ]


def all_w2_sources() -> list[tuple[str, str]]:
    """:func:`compilable_w2_sources` plus the two Figure 5-1 programs,
    which parse and lower but are rejected as bidirectional."""
    return compilable_w2_sources() + [
        ("bidirectional_exchange", bidirectional_exchange()),
        ("bidirectional_cycle", bidirectional_cycle()),
    ]


@pytest.fixture(scope="session")
def program_suite(rng):
    return small_program_suite(rng)


@pytest.fixture(scope="session")
def compiled_polynomial():
    return compile_w2(polynomial(16, 4))
