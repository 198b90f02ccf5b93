"""The runtime fault injector, plus the integrity-checked queue.

One :class:`FaultInjector` covers one *attempt* of one *item*: it
filters the plan down to the specs that apply to that (item, attempt)
pair, keeps the per-site occurrence counters, and records every fault it
actually fires (``fired``) while bumping the ``fault.injected``
telemetry counter.  Re-running the same item with a fresh injector and a
higher ``attempt`` is how the batch engine models transient faults: a
spec with ``attempts=1`` fires on the first attempt and is gone on the
retry.

:class:`FaultyQueue` is the injection point for queue faults *and* the
detection layer for them: it keeps a shadow copy of every enqueued word
(modelling the queue memory's parity/ECC bits) and raises
:class:`~repro.errors.SilentCorruptionDetected` the moment a dequeued
word's bits disagree with the bits that were enqueued.

The injector is the injecting implementation of the machine's fault
seam, :class:`~repro.machine.queue.LinkFactory`; clean runs use the
seam's plain default and never construct a :class:`FaultyQueue`.
"""

from __future__ import annotations

import struct

from ..errors import SilentCorruptionDetected
from ..lang.ast import Channel
from ..machine.queue import LinkFactory, TimedQueue
from ..obs import get_telemetry
from .plan import FaultKind, FaultSpec, InjectionPlan

_PACK = struct.Struct("<d")


def flip_float_bits(value: float, bitmask: int) -> float:
    """XOR ``bitmask`` into the IEEE-754 bit pattern of ``value``."""
    (bits,) = struct.unpack("<Q", _PACK.pack(value))
    return _PACK.unpack(struct.pack("<Q", (bits ^ bitmask) & (2**64 - 1)))[0]


class FaultInjector(LinkFactory):
    """Deterministic runtime injection for one (item, attempt) pair."""

    def __init__(
        self, plan: InjectionPlan, item: int = 0, attempt: int = 0
    ) -> None:
        self.plan = plan
        self.item = item
        self.attempt = attempt
        #: Human-readable descriptions of every fault actually fired.
        self.fired: list[str] = []
        active = [s for s in plan.specs if s.applies_to(item, attempt)]
        #: Queue-site faults: queue name -> occurrence index -> spec.
        self._queue_faults: dict[str, dict[int, FaultSpec]] = {}
        self._stalls: dict[int, int] = {}
        self._capacities: dict[tuple[int, str], int] = {}
        self._cache_faults: dict[int, FaultSpec] = {}
        self._occurrences: dict[str, int] = {}
        self._cache_reads = 0
        for spec in active:
            if spec.kind in (
                FaultKind.DROP_SEND,
                FaultKind.DUP_SEND,
                FaultKind.FLIP_BITS,
            ):
                name = f"link{spec.cell + 1}.{spec.channel}"
                self._queue_faults.setdefault(name, {})[spec.index] = spec
            elif spec.kind is FaultKind.STALL_CELL:
                self._stalls[spec.cell] = (
                    self._stalls.get(spec.cell, 0) + spec.cycles
                )
            elif spec.kind is FaultKind.SHRINK_QUEUE:
                self._capacities[(spec.cell, spec.channel)] = spec.capacity  # type: ignore[assignment]
            else:  # CORRUPT_CACHE
                self._cache_faults[spec.index] = spec

    def _record(self, spec: FaultSpec, detail: str = "") -> None:
        description = spec.describe() + (f" ({detail})" if detail else "")
        self.fired.append(description)
        get_telemetry().counter("fault.injected")

    # Machine-level sites: the LinkFactory seam ----------------------------

    def link(
        self, index: int, channel: Channel, capacity: int | None
    ) -> "FaultyQueue":
        """An integrity-checked link, with any shrunk capacity."""
        override = self._capacities.get((index, channel.value))
        if override is not None:
            self._record(
                FaultSpec(
                    kind=FaultKind.SHRINK_QUEUE,
                    cell=index,
                    channel=channel.value,
                    capacity=override,
                ),
                detail=f"default {capacity}",
            )
            capacity = override
        return FaultyQueue(
            injector=self if index >= 1 else None,
            name=f"link{index}.{channel.value}",
            capacity=capacity,
        )

    def start_delay(self, cell: int) -> int:
        """Extra start-delay cycles injected into ``cell``."""
        cycles = self._stalls.get(cell, 0)
        if cycles:
            self._record(
                FaultSpec(kind=FaultKind.STALL_CELL, cell=cell, cycles=cycles)
            )
        return cycles

    def after_run(self, links: list[dict[Channel, TimedQueue]]) -> None:
        """Sweep every inter-cell link, including the words the program
        never dequeued (the collector reads those directly)."""
        for link in links[1:]:
            for queue in link.values():
                queue.verify_integrity()

    def on_enqueue(
        self, queue_name: str, value: float
    ) -> tuple[FaultKind | None, float]:
        """Consulted by :class:`FaultyQueue` on every enqueue.

        Returns ``(fault_kind_or_None, value_to_store)``.
        """
        faults = self._queue_faults.get(queue_name)
        if faults is None:
            return None, value
        occurrence = self._occurrences.get(queue_name, 0)
        self._occurrences[queue_name] = occurrence + 1
        spec = faults.get(occurrence)
        if spec is None:
            return None, value
        if spec.kind is FaultKind.FLIP_BITS:
            corrupted = flip_float_bits(value, spec.bitmask)
            self._record(spec, detail=f"{value!r} -> {corrupted!r}")
            return spec.kind, corrupted
        self._record(spec)
        return spec.kind, value

    # Cache site -----------------------------------------------------------

    def corrupt_blob(self, blob: bytes) -> bytes:
        """Apply any CORRUPT_CACHE fault to a disk-cache read."""
        read = self._cache_reads
        self._cache_reads += 1
        spec = self._cache_faults.get(read)
        if spec is None or not blob:
            return blob
        corrupted = bytearray(blob)
        offset = len(corrupted) // 2
        corrupted[offset] ^= spec.bitmask & 0xFF or 0xFF
        self._record(spec, detail=f"byte {offset} of {len(blob)}")
        return bytes(corrupted)

    def report(self) -> list[str]:
        return list(self.fired)


class FaultyQueue(TimedQueue):
    """A :class:`TimedQueue` with an injection hook and integrity bits.

    The shadow list stores, per stored word, the link-level *sequence
    tag* and the bit pattern the word *should* have (written before
    injection corrupts the slot) — modelling the queue memory's
    parity/ECC plus a send-side sequence counter.  Any divergence —
    seen at dequeue, or at the post-run sweep for words the program
    never consumed — raises :class:`SilentCorruptionDetected` instead
    of letting a corrupted word flow on.

    The sequence tags are what make drop/dup detection *count-proof*:
    a dropped send consumes a sequence number without storing a word
    and a duplicated send stores one twice, so a slot whose tag
    disagrees with its position betrays a lost or repeated word even
    when a drop and a dup on the same link cancel out in the stream
    accounting totals.
    """

    def __init__(self, injector: FaultInjector | None = None, **kwargs):
        super().__init__(**kwargs)
        self.injector = injector
        self._shadow: list[tuple[int, bytes]] = []
        self._sent_seq = 0

    def enqueue(self, time: int, value: float) -> None:
        kind = None
        stored = value
        if self.injector is not None:
            kind, stored = self.injector.on_enqueue(self.name, value)
        seq = self._sent_seq
        self._sent_seq += 1
        if kind is FaultKind.DROP_SEND:
            return  # sent (seq consumed) but lost on the link
        super().enqueue(time, stored)
        self._shadow.append((seq, _PACK.pack(value)))
        if kind is FaultKind.DUP_SEND:
            super().enqueue(time, stored)
            self._shadow.append((seq, _PACK.pack(value)))

    def _check_slot(self, slot: int, value: float, when: str) -> None:
        seq, shadow = self._shadow[slot]
        if seq != slot:
            get_telemetry().counter("fault.detected")
            raise SilentCorruptionDetected(
                f"{self.name}: word {slot} carries sequence tag {seq} — "
                f"a send was {'dropped' if seq > slot else 'duplicated'} "
                f"upstream ({when})"
            )
        if _PACK.pack(value) != shadow:
            get_telemetry().counter("fault.detected")
            raise SilentCorruptionDetected(
                f"{self.name}: word {slot} reads {value!r} but "
                f"{_PACK.unpack(shadow)[0]!r} was enqueued — queue memory "
                f"corrupted ({when})"
            )

    def dequeue(self, time: int) -> float:
        cursor = self._cursor
        value = super().dequeue(time)
        if cursor < len(self._shadow):
            self._check_slot(cursor, value, f"in flight at cycle {time}")
        return value

    def verify_integrity(self) -> None:
        """Post-run sweep: every *stored* word must still match its
        shadow tag and bits, including words the program never dequeued
        (the collector reads those directly)."""
        for slot, value in enumerate(self.values):
            if slot < len(self._shadow):
                self._check_slot(slot, value, "at rest")
