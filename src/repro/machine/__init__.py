"""The Warp machine simulator: cells, queues, IU address path, host
feeder/collector, plus the AST-level reference interpreter."""

from ..obs.metrics import (
    CellMetrics,
    IUMetrics,
    MachineMetrics,
    MachineRecorder,
    QueueMetrics,
    TraceEvent,
)
from .array import SimulationResult, WarpMachine, simulate
from .cell import CellExecutor
from .config import DEFAULT_CONFIG, CellConfig, IUConfig, WarpConfig
from .host import HostMemory, collect_outputs, feed_input_queues
from .iu_machine import IUMachine, run_iu_program
from .plan import BlockPlan, DecodedInstr, ExecutionPlan
from .queue import LinkFactory, TimedQueue
from .reference import interpret

__all__ = [
    "BlockPlan",
    "CellConfig",
    "CellExecutor",
    "CellMetrics",
    "DEFAULT_CONFIG",
    "DecodedInstr",
    "ExecutionPlan",
    "HostMemory",
    "IUConfig",
    "IUMachine",
    "IUMetrics",
    "LinkFactory",
    "MachineMetrics",
    "MachineRecorder",
    "QueueMetrics",
    "SimulationResult",
    "TimedQueue",
    "TraceEvent",
    "WarpConfig",
    "WarpMachine",
    "collect_outputs",
    "feed_input_queues",
    "interpret",
    "run_iu_program",
    "simulate",
]
