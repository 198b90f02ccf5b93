"""Determinism of the benchmark's exact metrics.

Run from the root of the repository with::

    python3 -m pytest perfbench -q

One seed must give the same exact metrics on every run, and two
compiles of the same draw must give the same cell listing.  Timings are
not compared.
"""

import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from repro import compile_w2  # noqa: E402
from repro.cellcodegen.listing import format_cell_code  # noqa: E402
from repro.obs import collecting  # noqa: E402

from kernels import CONFIGS  # noqa: E402
from layers import OVERHEAD_OF, layer_metrics  # noqa: E402
from workloads import BatchWarm, Samples, WORKLOADS, end_to_end  # noqa: E402

EXACT_E2E = ("sim_cycles_per_item", "cell_ucode_words", "iu_ucode_words")
EXACT_LAYERS = ("machine.issued_instrs", "lang.tokens", "ir.dag_nodes")


@pytest.fixture(autouse=True)
def library_default_verify(monkeypatch):
    """The benchmark compiles at the library default verify level."""
    monkeypatch.delenv("REPRO_VERIFY", raising=False)


def exact_metrics(name: str, seed: int) -> dict:
    """One pass of a workload, traced; only its exact metrics."""
    workload = WORKLOADS[name](seed)
    telemetry = {}
    samples = Samples()
    try:
        with collecting() as telemetry["setup"]:
            workload.setup()
        workload.prepare()
        with collecting() as telemetry["loop"]:
            workload.loop(0.0, samples)
        with collecting() as telemetry["finish"]:
            workload.finish(samples)
    finally:
        workload.close()
    assert samples.attempted > 0 and not samples.failures, samples.failures
    e2e = end_to_end(samples, [1.0], [1.0])
    layers = layer_metrics(samples, telemetry,
                           dict.fromkeys(OVERHEAD_OF, 0.0))
    return {**{k: e2e[k] for k in EXACT_E2E},
            **{k: layers[k] for k in EXACT_LAYERS}}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_exact_metrics_repeat_for_one_seed(name, monkeypatch):
    # Small batches and input pools: the counts do not depend on them.
    monkeypatch.setattr(BatchWarm, "POOL", 3)
    monkeypatch.setattr(BatchWarm, "BATCH_ITEMS", 6)
    first = exact_metrics(name, seed=7)
    second = exact_metrics(name, seed=7)
    assert first == second
    assert all(value > 0 for value in first.values()), first


def test_same_draw_gives_same_cell_listing():
    for config in CONFIGS:
        source = config.source
        listings = {
            format_cell_code(compile_w2(source, unroll=config.unroll)
                             .cell_code)
            for _ in range(2)
        }
        assert len(listings) == 1, config.label


def test_run_stops_when_sources_are_missing(tmp_path):
    """Outside a checkout with ``src/`` the command fails without a
    result line."""
    import shutil
    import subprocess

    copy = tmp_path / "perfbench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("out"))
    done = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "edit-run",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": ""},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
