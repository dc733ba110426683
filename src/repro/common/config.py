"""Global runtime configuration knobs.

Kept intentionally tiny: a plain dataclass instance that subsystems read at
call time, so tests can flip flags with ``swap()``.  Fields marked with an
environment variable below are initialised from the process environment, so
deployments can size caches without code changes; :func:`configure` applies
persistent in-process overrides on top.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field, replace
from typing import Iterator


def _env_int(name: str, default: int) -> int:
    """An integer default overridable from the environment (bad values ignored)."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return value if value >= 1 else default


def _env_float(name: str, default: float) -> float:
    """A float default overridable from the environment (bad values ignored)."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        return default
    return value if value > 0 else default


def _env_bool(name: str, default: bool) -> bool:
    """A boolean default overridable from the environment (``1``/``true`` on)."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() in ("1", "true", "yes", "on")


@dataclass
class Config:
    """Runtime options shared across subsystems."""

    #: run OPS runtime stencil verification on every loop (slow; for debugging)
    check_stencils: bool = False
    #: shadow-execute every parallel loop under the access-descriptor
    #: sanitizer (repro.verify): READ args guarded read-only, written
    #: footprints diffed against the declared maps/ranges.  Very slow; the
    #: off-mode cost is a single flag test per loop.
    verify_descriptors: bool = False
    #: with the sanitizer on, also run the shadow-pair checks that prove
    #: OP_WRITE args never read their old value and OP_INC args are pure
    #: increments (two extra executions of every loop on cloned data)
    verify_shadow: bool = True
    #: use compiled loop executors (repro.op2.execplan / repro.ops.execplan):
    #: the first invocation of a loop signature builds a CompiledLoop (plan +
    #: buffer arena + scatter schedule), later invocations replay it.  Off
    #: means every call takes the interpreted path (the pre-plan behaviour;
    #: benchmarks toggle this to measure the amortisation win)
    use_execplan: bool = True
    #: capacity of every plan cache (repro.common.plancache: op2 plans, ops
    #: plans, lazy chain schedules; LRU eviction, 512 entries each by
    #: default); override per process with ``REPRO_EXECPLAN_CACHE_SIZE`` or
    #: at runtime with :func:`configure` / ``set_plan_cache_capacity``
    execplan_cache_size: int = field(
        default_factory=lambda: _env_int("REPRO_EXECPLAN_CACHE_SIZE", 512)
    )
    #: queue OPS par_loops instead of executing them eagerly; the queue
    #: drains in skewed cross-loop tiles at the first data observation
    #: (``repro.ops.lazy``).  ``REPRO_LAZY=1`` enables it process-wide
    lazy: bool = field(default_factory=lambda: _env_bool("REPRO_LAZY", False))
    #: per-dimension cross-loop tile shape for lazy flushes (an edge >= a
    #: dimension's extent leaves it uncut); ``None`` picks bands of whole
    #: contiguous rows: ``tileplan.DEFAULT_TILE`` rows (halved on small
    #: extents) by the full last dimension
    lazy_tile: tuple[int, ...] | None = None
    #: compile certified kernels to native C entry points behind the
    #: execplan tier (repro.native).  Only bitwise-safe loops are admitted,
    #: so this is on by default; ``REPRO_NATIVE=0`` disables it process-wide
    #: and every declined loop falls back to the vec path transparently
    native: bool = field(default_factory=lambda: _env_bool("REPRO_NATIVE", True))
    #: on-disk shared-object cache directory for compiled kernels; ``None``
    #: means ``$REPRO_NATIVE_CACHE_DIR`` or ``~/.cache/repro/native``
    native_cache_dir: str | None = field(
        default_factory=lambda: os.environ.get("REPRO_NATIVE_CACHE_DIR") or None
    )
    #: seconds a blocking simmpi receive waits before declaring deadlock;
    #: resilience tests with induced failures lower this so a lost message
    #: does not stall the suite for a minute
    deadlock_timeout: float = 60.0
    #: seconds between wakeups while a multi-process receive or the worker
    #: supervisor polls pipes and failure flags (``REPRO_MP_POLL``); the
    #: upper bound on how late a worker death is noticed
    mp_poll_interval: float = field(
        default_factory=lambda: _env_float("REPRO_MP_POLL", 0.05)
    )
    #: directory where multi-process workers export their telemetry rings as
    #: ``trace-rank<NNN>.jsonl`` on exit (``REPRO_MP_TRACE_DIR``); ``None``
    #: disables per-worker trace export
    mp_trace_dir: str | None = field(
        default_factory=lambda: os.environ.get("REPRO_MP_TRACE_DIR") or None
    )


_config = Config()


def get_config() -> Config:
    """Return the live configuration object."""
    return _config


def configure(**overrides) -> Config:
    """Apply persistent configuration overrides (unlike the scoped ``swap``).

    >>> configure(execplan_cache_size=2048)

    Returns the new live configuration.  Unknown field names raise
    ``TypeError`` exactly as ``dataclasses.replace`` would.
    """
    global _config
    _config = replace(_config, **overrides)
    return _config


@contextlib.contextmanager
def swap(**overrides) -> Iterator[Config]:
    """Temporarily override configuration fields.

    >>> with swap(check_stencils=True):
    ...     ...
    """
    global _config
    old = _config
    _config = replace(old, **overrides)
    try:
        yield _config
    finally:
        _config = old
