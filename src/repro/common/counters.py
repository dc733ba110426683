"""Performance counters.

Every parallel-loop execution records how much data it moved and how much
arithmetic it performed.  The counters are *measured* from the access
descriptors and set/range sizes — they are exact for the abstract machine —
and are the input to :mod:`repro.perfmodel`, which converts them into
predicted runtimes on catalogued hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
# bound once at import: Timer sits on every par_loop hot path, and the
# two-level ``time.perf_counter`` attribute walk is measurable there
from time import perf_counter as _perf_counter


@dataclass
class LoopRecord:
    """Aggregated statistics for one named parallel loop."""

    name: str
    invocations: int = 0
    iterations: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    flops: int = 0
    indirect_reads: int = 0
    indirect_writes: int = 0
    #: unique-location portion of the indirect traffic: what reaches DRAM
    #: when caches capture all re-references (res_calc reads each cell's q
    #: once from memory even though ~4 edges reference it)
    indirect_reads_unique: int = 0
    indirect_writes_unique: int = 0
    colours: int = 0
    wall_seconds: float = 0.0

    @property
    def bytes_moved(self) -> int:
        """Total off-chip traffic (read + written)."""
        return self.bytes_read + self.bytes_written

    @property
    def is_indirect(self) -> bool:
        """True if the loop ever touched data through a mapping."""
        return (self.indirect_reads + self.indirect_writes) > 0

    def merge(self, other: "LoopRecord") -> None:
        """Fold another record (same loop, e.g. another rank) into this one."""
        self.invocations += other.invocations
        self.iterations += other.iterations
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self.flops += other.flops
        self.indirect_reads += other.indirect_reads
        self.indirect_writes += other.indirect_writes
        self.indirect_reads_unique += other.indirect_reads_unique
        self.indirect_writes_unique += other.indirect_writes_unique
        self.colours = max(self.colours, other.colours)
        self.wall_seconds += other.wall_seconds


@dataclass
class PerfCounters:
    """Per-run registry of loop records and communication counters."""

    loops: dict[str, LoopRecord] = field(default_factory=dict)
    messages_sent: int = 0
    bytes_sent: int = 0
    reductions: int = 0
    halo_exchanges: int = 0
    # -- resilience: injected faults and recovery cost --------------------------
    faults_injected: int = 0
    messages_dropped: int = 0
    messages_retried: int = 0
    messages_delayed: int = 0
    messages_duplicated: int = 0
    restarts: int = 0
    recovery_seconds: float = 0.0
    # -- verification: sanitizer activity ---------------------------------------
    loops_sanitized: int = 0
    shadow_runs: int = 0
    # -- compiled loop executors: plan-cache traffic (common.plancache counts
    # ``<books>_<stat>`` by name, here and in the chain fields below) ----------
    plan_hits: int = 0
    plan_misses: int = 0
    plan_invalidations: int = 0
    plan_evictions: int = 0
    # -- lazy execution: queue flushes, fusion and schedule-cache traffic ---------
    lazy_flushes: int = 0
    lazy_loops: int = 0
    lazy_groups: int = 0
    lazy_tiles: int = 0
    #: modelled DRAM traffic avoided by keeping fused tiles cache-resident
    lazy_bytes_saved: int = 0
    chain_hits: int = 0
    chain_misses: int = 0
    # -- native backend: compiled-kernel dispatch and the .so cache ---------------
    native_calls: int = 0
    #: native calls whose sweep was split over more than one thread
    native_threaded_calls: int = 0
    native_compiles: int = 0
    native_cache_hits: int = 0
    native_cache_misses: int = 0
    native_fallbacks: int = 0
    #: (domain, loop) -> why the native tier declined that site (last reason)
    native_declines: dict[tuple[str, str], str] = field(default_factory=dict)
    #: why compiled loops run on one thread: a process without OpenMP
    #: (one entry per process that found out) and each op2 loop the owner
    #: rule cannot split (``"loop: threads: why"``); they still run compiled
    native_thread_declines: list[str] = field(default_factory=list)

    def loop(self, name: str) -> LoopRecord:
        """Return (creating if needed) the record for loop ``name``."""
        rec = self.loops.get(name)
        if rec is None:
            rec = self.loops[name] = LoopRecord(name)
        return rec

    def record_message(self, nbytes: int) -> None:
        self.messages_sent += 1
        self.bytes_sent += int(nbytes)

    def record_halo_exchange(self, nmessages: int, nbytes: int) -> None:
        self.halo_exchanges += 1
        self.messages_sent += int(nmessages)
        self.bytes_sent += int(nbytes)

    def record_reduction(self) -> None:
        self.reductions += 1

    def record_fault(self, kind: str) -> None:
        """Account one injected fault firing (kill/drop/delay/duplicate/slow)."""
        self.faults_injected += 1
        if kind == "drop":
            self.messages_dropped += 1
        elif kind == "delay":
            self.messages_delayed += 1
        elif kind == "duplicate":
            self.messages_duplicated += 1

    def record_message_retried(self) -> None:
        self.messages_retried += 1

    def record_restart(self, recovery_seconds: float) -> None:
        self.restarts += 1
        self.recovery_seconds += recovery_seconds

    def record_sanitized_loop(self, shadow_runs: int = 0) -> None:
        """Account one loop executed under the access-descriptor sanitizer."""
        self.loops_sanitized += 1
        self.shadow_runs += int(shadow_runs)

    def record_lazy_flush(self, nloops: int) -> None:
        """Account one lazy-queue flush executing ``nloops`` deferred loops."""
        self.lazy_flushes += 1
        self.lazy_loops += int(nloops)

    def record_lazy_group(self, ntiles: int, bytes_saved: int) -> None:
        """Account one fused group executed as ``ntiles`` cross-loop tiles."""
        self.lazy_groups += 1
        self.lazy_tiles += int(ntiles)
        self.lazy_bytes_saved += int(bytes_saved)

    def record_native_call(self, threaded: bool = False) -> None:
        """Account one loop executed through a compiled C entry point."""
        self.native_calls += 1
        if threaded:
            self.native_threaded_calls += 1

    def record_native_compile(self) -> None:
        """Account one actual C-compiler invocation (a .so cache miss pays it)."""
        self.native_compiles += 1

    def record_native_cache_hit(self) -> None:
        self.native_cache_hits += 1

    def record_native_cache_miss(self) -> None:
        self.native_cache_misses += 1

    def record_native_fallback(self, domain: str, loop: str, reason: str) -> None:
        """Account one loop declined by the native tier (ran on vec instead)."""
        self.native_fallbacks += 1
        self.native_declines[(domain, loop)] = reason

    def record_native_thread_decline(self, reason: str) -> None:
        """Account the threaded tier declining for this process or a loop
        (once: a rebuilt plan re-declines for the same reason)."""
        if reason not in self.native_thread_declines:
            self.native_thread_declines.append(reason)

    @property
    def chain_hit_rate(self) -> float:
        """Fraction of flushes served from the chain-schedule cache."""
        total = self.chain_hits + self.chain_misses
        return self.chain_hits / total if total else 0.0

    @property
    def native_cache_hit_rate(self) -> float:
        """Fraction of compiled-kernel lookups served without running cc."""
        total = self.native_cache_hits + self.native_cache_misses
        return self.native_cache_hits / total if total else 0.0

    @property
    def plan_hit_rate(self) -> float:
        """Fraction of fast-path lookups served from the compiled-loop cache."""
        total = self.plan_hits + self.plan_misses
        return self.plan_hits / total if total else 0.0

    def merge(self, other: "PerfCounters") -> None:
        """Fold another counter set (e.g. from another simulated rank) in."""
        for name, rec in other.loops.items():
            self.loop(name).merge(rec)
        for name in _SCALARS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.native_declines.update(other.native_declines)
        self.native_thread_declines.extend(other.native_thread_declines)

    def reset(self) -> None:
        self.loops.clear()
        for name, zero in _SCALARS.items():
            setattr(self, name, zero)
        self.native_declines.clear()
        self.native_thread_declines.clear()

    def summary_rows(self) -> list[tuple[str, int, int, int, float]]:
        """Rows of (loop, iterations, bytes, flops, seconds), insertion order."""
        return [
            (r.name, r.iterations, r.bytes_moved, r.flops, r.wall_seconds)
            for r in self.loops.values()
        ]


#: every scalar counter and its zero: merge adds them, reset restores them
_SCALARS = {f.name: f.default for f in fields(PerfCounters) if f.type in ("int", "float")}


class Timer:
    """Context manager accumulating wall time onto a :class:`LoopRecord`."""

    def __init__(self, record: LoopRecord):
        self._record = record
        self._t0 = 0.0

    def __enter__(self) -> "Timer":
        self._t0 = _perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._record.wall_seconds += _perf_counter() - self._t0
