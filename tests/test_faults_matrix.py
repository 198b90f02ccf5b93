"""The fault matrix: every fault class x three bundled programs.

The lockdown property is *no silent wrong answers*: every injected
fault is either *recovered* (the run completes with outputs
bit-identical to the clean run) or *detected* (a structured
:class:`~repro.errors.SimulationError` subclass from the expected
family).  A fault that completed with different outputs would fail
these tests immediately — that combination is asserted impossible for
every (kind, program) pair.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiler import compile_w2
from repro.errors import (
    CellHangError,
    QueueCapacityError,
    QueueUnderflowError,
    SilentCorruptionDetected,
    SimulationError,
)
from repro.exec import BatchRunner, CompileCache
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultSpec,
    FaultyQueue,
    InjectionPlan,
)
from repro.lang import Channel
from repro.machine import WarpMachine, simulate
from repro.obs import metrics_to_json
from repro.programs import conv1d, passthrough, polynomial

PROGRAM_FACTORIES = {
    "polynomial": lambda: polynomial(12, 4),
    "conv1d": lambda: conv1d(12, 3),
    "passthrough": lambda: passthrough(8, 2),
}

PROGRAM_NAMES = sorted(PROGRAM_FACTORIES)


def _make_inputs(name: str, rng: np.random.Generator):
    if name == "polynomial":
        return {"z": rng.standard_normal(12), "c": rng.standard_normal(4)}
    if name == "conv1d":
        return {"x": rng.standard_normal(12), "w": rng.standard_normal(3)}
    assert name == "passthrough"
    return {"din": rng.standard_normal(8)}


@pytest.fixture(scope="module")
def fleet():
    """(program, inputs, clean result) for each matrix program."""
    rng = np.random.default_rng(20260806)
    out = {}
    for name, factory in PROGRAM_FACTORIES.items():
        program = compile_w2(factory())
        inputs = _make_inputs(name, rng)
        out[name] = (program, inputs, simulate(program, inputs))
    return out


def _x_requirement(program) -> int:
    """The Section 6.2.2 minimum X-queue size of ``program``."""
    return next(
        b.required for b in program.buffers if b.channel == Channel.X
    )


def _run_injected(program, inputs, specs):
    """One injected run: (injector, result-or-None, error-or-None)."""
    injector = FaultInjector(InjectionPlan(specs=tuple(specs)))
    try:
        result = simulate(program, inputs, faults=injector)
    except SimulationError as error:
        return injector, None, error
    return injector, result, None


def _assert_identical(result, clean) -> None:
    for name, data in clean.outputs.items():
        assert np.array_equal(result.outputs[name], data), name


# The machine-fault matrix: (case id, spec fields, expected outcome).
# ``cell="last"`` resolves to the last cell; ``capacity`` may reference
# the program's static X-queue requirement.  ``expect`` is either the
# tuple of acceptable detection exception types, or ``"recovered"``.
MACHINE_MATRIX = [
    (
        "drop_send",
        dict(kind=FaultKind.DROP_SEND, cell=0, channel="X", index=1),
        (QueueUnderflowError, SilentCorruptionDetected),
    ),
    (
        "dup_send",
        dict(kind=FaultKind.DUP_SEND, cell=0, channel="X", index=1),
        (SilentCorruptionDetected, QueueCapacityError),
    ),
    (
        "flip_bits",
        dict(
            kind=FaultKind.FLIP_BITS,
            cell=0,
            channel="X",
            index=1,
            bitmask=1 << 52,
        ),
        (SilentCorruptionDetected,),
    ),
    (
        "stall_recovered",
        dict(kind=FaultKind.STALL_CELL, cell="last", cycles=2),
        "recovered",
    ),
    (
        "stall_detected",
        dict(kind=FaultKind.STALL_CELL, cell=0, cycles=100_000),
        (CellHangError, QueueUnderflowError),
    ),
    (
        "shrink_at_requirement",
        dict(kind=FaultKind.SHRINK_QUEUE, cell=1, channel="X", capacity="req"),
        "recovered",
    ),
    (
        "shrink_below_requirement",
        dict(
            kind=FaultKind.SHRINK_QUEUE,
            cell=1,
            channel="X",
            capacity="req-1",
        ),
        (QueueCapacityError,),
    ),
]


def _resolve_spec(fields: dict, program) -> FaultSpec:
    fields = dict(fields)
    if fields.get("cell") == "last":
        fields["cell"] = program.n_cells - 1
    if fields.get("capacity") == "req":
        fields["capacity"] = _x_requirement(program)
    elif fields.get("capacity") == "req-1":
        fields["capacity"] = _x_requirement(program) - 1
    return FaultSpec(**fields)


class TestMachineFaultMatrix:
    @pytest.mark.parametrize("program_name", PROGRAM_NAMES)
    @pytest.mark.parametrize(
        "case_id,fields,expect",
        MACHINE_MATRIX,
        ids=[case[0] for case in MACHINE_MATRIX],
    )
    def test_matrix(self, fleet, program_name, case_id, fields, expect):
        program, inputs, clean = fleet[program_name]
        spec = _resolve_spec(fields, program)
        injector, result, error = _run_injected(program, inputs, [spec])
        if expect == "recovered":
            assert error is None, f"expected recovery, got {error!r}"
            _assert_identical(result, clean)
            if spec.kind is not FaultKind.SHRINK_QUEUE:
                # Shrinking to the exact requirement is a no-op by
                # design; every other recovered fault must have fired.
                assert injector.fired, "the fault never fired"
            assert result.fault_report == injector.report()
        else:
            assert error is not None, (
                f"SILENT WRONG ANSWER RISK: {case_id} on {program_name} "
                "completed without detection"
            )
            assert isinstance(error, expect), error
            assert injector.fired, "detected a fault that never fired?"

    @pytest.mark.parametrize("program_name", PROGRAM_NAMES)
    def test_flip_at_collector_detected_at_rest(self, fleet, program_name):
        """A flip on the collector link is only readable, never
        dequeued — the post-run integrity sweep must still catch it."""
        program, inputs, _clean = fleet[program_name]
        spec = FaultSpec(
            kind=FaultKind.FLIP_BITS,
            cell=program.n_cells - 1,
            channel="X",
            index=0,
            bitmask=1 << 51,
        )
        injector, _result, error = _run_injected(program, inputs, [spec])
        assert isinstance(error, SilentCorruptionDetected)
        assert injector.fired

    @pytest.mark.parametrize("program_name", PROGRAM_NAMES)
    def test_empty_plan_is_bit_identical(self, fleet, program_name):
        """Clean-path purity: running under an empty plan (faults
        machinery loaded and threaded) changes nothing."""
        program, inputs, clean = fleet[program_name]
        injector, result, error = _run_injected(program, inputs, [])
        assert error is None
        assert not injector.fired
        assert result.fault_report == []
        _assert_identical(result, clean)

    @pytest.mark.parametrize("program_name", ["polynomial", "conv1d"])
    def test_clean_run_never_reaches_the_fault_layer(
        self, fleet, program_name, monkeypatch
    ):
        """Clean-path purity through the fault seam: with ``faults=None``
        the machine builds no FaultyQueue and calls no injector hook,
        and the run is bit-identical to a normal one."""
        program, inputs, clean = fleet[program_name]

        def forbidden(*_args, **_kwargs):
            raise AssertionError("a clean run reached the fault layer")

        monkeypatch.setattr(FaultyQueue, "__init__", forbidden)
        hooks = ("link", "start_delay", "after_run", "on_enqueue", "report")
        for hook in hooks:
            monkeypatch.setattr(FaultInjector, hook, forbidden)
        result = WarpMachine(program).run(inputs, faults=None)
        _assert_identical(result, clean)
        assert result.total_cycles == clean.total_cycles
        assert result.fault_report == []
        assert metrics_to_json(result.machine_metrics) == metrics_to_json(
            clean.machine_metrics
        )


class TestCacheCorruption:
    @pytest.mark.parametrize("program_name", PROGRAM_NAMES)
    def test_corrupt_entry_recompiles_identically(
        self, fleet, program_name, tmp_path
    ):
        program, inputs, clean = fleet[program_name]
        source = PROGRAM_FACTORIES[program_name]()
        seed_cache = CompileCache(cache_dir=tmp_path)
        compile_w2(source, cache=seed_cache)
        assert seed_cache.stats.stores == 1

        plan = InjectionPlan(specs=(FaultSpec(kind=FaultKind.CORRUPT_CACHE),))
        injector = FaultInjector(plan)
        cache = CompileCache(cache_dir=tmp_path, injector=injector)
        recompiled = compile_w2(source, cache=cache)
        assert cache.last_event == "miss"
        assert cache.stats.disk_errors == 1
        assert injector.fired
        # The corrupted entry cost a recompile, never a wrong program.
        _assert_identical(simulate(recompiled, inputs), clean)

    def test_faulty_plan_partitions_the_cache_key(self, tmp_path):
        source = polynomial(12, 4)
        plan = InjectionPlan(specs=(FaultSpec(kind=FaultKind.CORRUPT_CACHE),))
        cache = CompileCache(cache_dir=tmp_path)
        compile_w2(source, cache=cache, faults=plan)
        assert cache.last_event == "miss"
        compile_w2(source, cache=cache)
        # The clean compile must not see the faulty run's artefact.
        assert cache.last_event == "miss"
        compile_w2(source, cache=cache, faults=plan)
        assert cache.last_event == "memory-hit"


class TestWorkerFaults:
    """Batch items that fail: an attempt-scoped fault costs a retry, a
    persistent one a structured failure record; never the batch."""

    @pytest.mark.parametrize(
        "spec",
        [
            # A stalled cell that starves its neighbour (short of the
            # watchdog, whose CellHangError is fatal): the in-process
            # counterpart of a hung batch worker.
            FaultSpec(
                kind=FaultKind.STALL_CELL,
                cell=0,
                cycles=50,
                item=0,
                attempts=1,
            ),
            # A dropped send that aborts the attempt: the in-process
            # counterpart of a killed batch worker.
            FaultSpec(
                kind=FaultKind.DROP_SEND,
                cell=0,
                channel="X",
                index=1,
                item=0,
                attempts=1,
            ),
        ],
        ids=["worker_hang", "worker_kill"],
    )
    def test_serial_worker_fault_recovered(self, fleet, spec):
        """A fault that fires on the first attempt only is recovered by
        one retry, and the retried item matches the clean run."""
        program, inputs, clean = fleet["polynomial"]
        plan = InjectionPlan(specs=(spec,))
        batch = BatchRunner(
            program, faults=plan, max_retries=1, retry_backoff=0.0
        ).run([dict(inputs), dict(inputs)])
        assert batch.ok, [f.describe() for f in batch.failures]
        assert batch.retries == 1
        for result in batch.results:
            for name, data in clean.outputs.items():
                assert result.outputs[name].tobytes() == data.tobytes()

    def test_exhausted_retries_yield_item_failure(self, fleet):
        """An unrecoverable item degrades to a structured failure
        record; every other item still completes bit-identically."""
        program, inputs, clean = fleet["conv1d"]
        plan = InjectionPlan(
            specs=(
                FaultSpec(
                    kind=FaultKind.DROP_SEND,
                    cell=0,
                    channel="X",
                    index=1,
                    item=1,
                    attempts=99,
                ),
            )
        )
        batch = BatchRunner(
            program, faults=plan, max_retries=1, retry_backoff=0.0
        ).run([dict(inputs) for _ in range(3)])
        assert not batch.ok
        assert [f.index for f in batch.failures] == [1]
        failure = batch.failures[0]
        assert failure.attempts == 2
        assert failure.error_type in (
            "QueueUnderflowError",
            "SilentCorruptionDetected",
        )
        assert batch.results[1] is None
        for index in (0, 2):
            _assert_identical(batch.results[index], clean)
        with pytest.raises(ValueError, match="failed item"):
            batch.outputs(next(iter(clean.outputs)))
