"""The host's I/O processors: feeder and collector.

"The host ... provides an adequate data bandwidth to sustain the array at
full speed" (Section 2.1): each channel delivers one word per cycle into
cell 0's queues, starting at cycle 0, in exactly the order the host
program prescribes.  The host-to-array boundary is flow-controlled (the
IU and host communicate asynchronously over a bus), so the host-side
queue has no hard capacity; a cell trying to consume *faster* than one
word per cycle per channel still underflows, which models the bandwidth
limit faithfully.

The collector drains the last cell's queues and scatters the values into
host memory according to the output bindings.

A batch run (:meth:`~repro.machine.array.WarpMachine.run_many`) keeps
each host array as ``(words, batch)``: word ``k`` is then a
``(batch,)`` lane vector, and the feeder and collector move whole lane
vectors through the same code."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import HostDataError
from ..lang.ast import Channel
from .queue import TimedQueue

if TYPE_CHECKING:  # pragma: no cover
    from ..hostcodegen.io_program import HostBinding, HostValueRef


@dataclass
class HostMemory:
    """Host arrays by name (flattened float64 storage; ``(words,
    batch)`` for a batch run)."""

    arrays: dict[str, np.ndarray]

    @classmethod
    def from_inputs(
        cls,
        host_shapes: dict[str, tuple[int, ...]],
        inputs: dict[str, "np.ndarray"],
    ) -> "HostMemory":
        memory = cls.from_input_sets(host_shapes, [inputs])
        return cls({name: data[:, 0] for name, data in memory.arrays.items()})

    @classmethod
    def from_input_sets(
        cls,
        host_shapes: dict[str, tuple[int, ...]],
        input_sets: "list[dict[str, np.ndarray]]",
    ) -> "HostMemory":
        """Batch memory: item ``i``'s inputs, zero-padded, in lane ``i``."""
        lanes = len(input_sets)
        arrays: dict[str, np.ndarray] = {}
        for name, dims in host_shapes.items():
            size = int(np.prod(dims)) if dims else 1
            padded = np.zeros((size, lanes), dtype=np.float64)
            for lane, inputs in enumerate(input_sets):
                if name not in inputs:
                    continue
                data = np.asarray(inputs[name], dtype=np.float64).ravel()
                if data.size > size:
                    raise HostDataError(
                        f"input {name!r} has {data.size} elements; the "
                        f"module declares {size}"
                    )
                padded[: data.size, lane] = data
            arrays[name] = padded
        return cls(arrays)


def feed_input_queues(
    memory: HostMemory,
    queues: dict[Channel, TimedQueue],
    sequences: dict[Channel, list["HostValueRef"]],
) -> None:
    """Load cell 0's input queues: item ``k`` arrives at cycle ``k``
    (one word per cycle per channel).

    ``sequences`` are the per-channel input references of the host
    program, as precomputed by an
    :class:`~repro.machine.plan.ExecutionPlan` (``input_refs``).
    """
    for channel, queue in queues.items():
        for k, ref in enumerate(sequences[channel]):
            if ref.is_literal:
                value = float(ref.literal)  # type: ignore[arg-type]
            else:
                assert ref.array is not None and ref.flat_index is not None
                data = memory.arrays.get(ref.array)
                if data is None or not (0 <= ref.flat_index < len(data)):
                    raise HostDataError(
                        f"input reference {ref.array}[{ref.flat_index}] is "
                        "out of bounds"
                    )
                word = data[ref.flat_index]
                # A lane vector is copied: the collector may later
                # overwrite the host word it is a view of.
                value = word.copy() if word.ndim else float(word)
            queue.enqueue(k, value)


def collect_outputs(
    memory: HostMemory,
    queues: dict[Channel, TimedQueue],
    bindings: dict[Channel, list["HostBinding"]],
) -> None:
    """Scatter the last cell's output streams into host memory.

    ``bindings`` are the per-channel output bindings of the host
    program (an :class:`~repro.machine.plan.ExecutionPlan`'s
    ``output_bindings``)."""
    for channel, queue in queues.items():
        channel_bindings = bindings[channel]
        if len(channel_bindings) != queue.items_sent:
            raise HostDataError(
                f"channel {channel}: the last cell sent {queue.items_sent} "
                f"items but the host program expects {len(channel_bindings)}"
            )
        for binding, value in zip(channel_bindings, queue.values):
            if binding.is_discard:
                continue
            assert binding.array is not None and binding.flat_index is not None
            data = memory.arrays[binding.array]
            if not (0 <= binding.flat_index < len(data)):
                raise HostDataError(
                    f"output binding {binding.array}[{binding.flat_index}] "
                    "is out of bounds"
                )
            data[binding.flat_index] = value
