"""Shared primitives used by every subsystem.

This package deliberately has no dependency on any other ``repro``
subpackage — except that ``site`` and ``plancache`` report to the
telemetry tracer and ``site.lookup`` consults the kernel certificate —
and everything else builds on top of it.
"""

from repro.common.access import Access, OP_READ, OP_WRITE, OP_RW, OP_INC, OP_MIN, OP_MAX
from repro.common.counters import PerfCounters, LoopRecord
from repro.common.errors import (
    ReproError,
    APIError,
    PlanError,
    StencilMismatchError,
    PartitionError,
    CheckpointError,
    TranslatorError,
)

__all__ = [
    "Access",
    "OP_READ",
    "OP_WRITE",
    "OP_RW",
    "OP_INC",
    "OP_MIN",
    "OP_MAX",
    "PerfCounters",
    "LoopRecord",
    "ReproError",
    "APIError",
    "PlanError",
    "StencilMismatchError",
    "PartitionError",
    "CheckpointError",
    "TranslatorError",
]
