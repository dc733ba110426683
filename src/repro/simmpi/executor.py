"""SPMD executor: run a rank function over N simulated ranks.

Each rank executes in a Python thread with its own :class:`SimComm` and
:class:`PerfCounters`; loop statistics are routed to the rank's counters
through a per-thread counter scope, so ranks never cross-route each other's
records.  Exceptions raised by any rank are re-raised in the caller after
all threads have been reaped, so a failing rank fails the test instead of
hanging it.

When the world carries a fault plan (see :mod:`repro.resilience`), every
rank registers a thread-local loop observer with it — the hook that lets a
plan kill a rank at its Nth loop or slow it down — and a dying rank marks
itself failed in the shared world state so peers communicating with it
raise :class:`RankFailedError` promptly.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

from repro.common.counters import PerfCounters
from repro.common.errors import RankFailedError
from repro.common.profiling import add_loop_observer, counters_scope, remove_loop_observer
from repro.native.plan import single_team
from repro.simmpi.comm import SimComm, ThreadTransport, _WorldState
from repro.telemetry import tracer as _trace


class World:
    """A simulated MPI world of ``size`` ranks.

    Normally constructed for you by :func:`run_spmd`; build one directly when
    a test needs access to the communicators before/after the run, or to
    attach a fault plan / retry policy for resilience runs.
    """

    def __init__(self, size: int, *, fault_plan: Any = None, retry: Any = None):
        if size < 1:
            raise ValueError("world size must be >= 1")
        self.size = size
        self._state = _WorldState(
            size=size,
            transport=ThreadTransport(size),
            fault_plan=fault_plan,
            retry=retry,
        )
        self.counters = [PerfCounters() for _ in range(size)]
        self.comms = [SimComm(self._state, r, self.counters[r]) for r in range(size)]

    @property
    def failed_ranks(self) -> set[int]:
        """Ranks that died during the last run (injected or organic)."""
        return set(self._state.failed)

    def total_counters(self) -> PerfCounters:
        """Merge all per-rank counters into one aggregate."""
        total = PerfCounters()
        for c in self.counters:
            total.merge(c)
        return total


def run_spmd(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    world: World | None = None,
    rank_args: Sequence[tuple] | None = None,
) -> list[Any]:
    """Run ``fn(comm, *args)`` on every rank of a simulated world.

    ``fn`` receives the rank's :class:`SimComm` as its first argument.  When
    ``rank_args`` is given it supplies per-rank extra positional arguments
    (useful to hand each rank its partition of a mesh).  Returns the list of
    per-rank return values, in rank order.

    For a world of size 1 the function runs inline on the calling thread,
    which keeps single-rank paths easy to debug and profile.
    """
    if world is None:
        world = World(nranks)
    elif world.size != nranks:
        raise ValueError("world size does not match nranks")

    plan = world._state.fault_plan

    def call(rank: int) -> Any:
        extra = rank_args[rank] if rank_args is not None else ()
        trc = _trace.ACTIVE
        if trc is not None:
            # tag this thread's trace events with its simulated rank so the
            # exporters can lay ranks out as separate timeline processes
            trc.set_rank(rank)
        observer = None
        if plan is not None:
            def observer(event, _rank=rank):  # noqa: ARG001 - loop-event hook
                plan.on_loop(_rank, world.counters[_rank])

            add_loop_observer(observer, local=True)
        # deferred: repro.ops.decomp imports simmpi, so this module cannot
        # import repro.ops at load time
        from repro.ops import lazy as _ops_lazy

        try:
            result = fn(world.comms[rank], *args, *extra)
            # a rank returning from the collective is an observation point:
            # loops it queued lazily must land while its thread still exists
            _ops_lazy.flush_point("rank_return")
            return result
        except BaseException:
            # dead rank (injected kill, deadlock, kernel error): its queued
            # tail must not execute — the eager program would have crashed
            # before reaching it — and must not leak the global queue count
            _ops_lazy.abandon()
            raise
        finally:
            if observer is not None:
                remove_loop_observer(observer, local=True)

    if nranks == 1:
        return [call(0)]

    results: list[Any] = [None] * nranks
    errors: list[tuple[int, BaseException]] = []

    def worker(rank: int) -> None:
        try:
            # a rank thread runs its native loops on one thread: the ranks
            # are the parallelism
            with counters_scope(world.counters[rank]), single_team():
                results[rank] = call(rank)
        except BaseException as exc:  # noqa: BLE001 - reraised below
            errors.append((rank, exc))
            # let peers observe the death: wake blocked receivers and free
            # ranks stuck in a barrier so the job can be reaped
            world._state.mark_failed(rank)
            world._state.transport.abort()

    threads = [
        threading.Thread(target=worker, args=(r,), name=f"simmpi-rank-{r}")
        for r in range(nranks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    if errors:
        # broken-barrier errors and peers' RankFailedErrors are secondary
        # casualties of the first death; report the root cause
        primary = [e for e in errors if not isinstance(e[1], threading.BrokenBarrierError)]
        root = [e for e in primary if not isinstance(e[1], RankFailedError)]
        rank, exc = sorted(root or primary or errors, key=lambda e: e[0])[0]
        raise RuntimeError(f"rank {rank} failed: {exc!r}") from exc
    return results
