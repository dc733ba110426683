"""Shared profiling and loop-observation scaffolding.

Both libraries route loop statistics into the *active* counters (a global
default, overridable with :func:`counters_scope`) and announce every loop
execution to registered observers — the hook the checkpointing subsystem
uses to watch the loop chain.

:class:`LoopEvent` is the one record of "a loop and its per-dataset
accesses": observers receive it, :func:`loop_chain_record` collects it,
the Figure-8 checkpoint analysis and the linter's ``--checkpoint`` table
read sequences of it.  Every observed call gets a fresh event whose
:class:`ArgEvent` descriptors are immutable, so a recorded chain never
changes under a later call of the same loop site.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.common.access import Access
from repro.common.counters import PerfCounters

_global_counters = PerfCounters()
_observers: list[Callable[["LoopEvent"], None]] = []

# Counter scopes are per-thread: simulated MPI ranks run as threads, and a
# shared scope stack would cross-route loop statistics between ranks (and
# let one rank pop another's scope).  Loop observers come in two flavours:
# process-wide (serial tooling such as loop_chain_record) and thread-local
# (per-rank checkpoint managers and fault injectors inside run_spmd).
_tls = threading.local()


def _counters_stack() -> list[PerfCounters]:
    stack = getattr(_tls, "counters_stack", None)
    if stack is None:
        stack = _tls.counters_stack = []
    return stack


def _local_observers() -> list[Callable[["LoopEvent"], None]]:
    obs = getattr(_tls, "observers", None)
    if obs is None:
        obs = _tls.observers = []
    return obs


@dataclass(frozen=True, slots=True)
class ArgEvent:
    """Access descriptor of one loop argument, library-agnostic.

    ``dim`` is the dataset's component count (the Figure-8 units);
    ``data_ref`` is the live Dat/Global/Reduction, for checkpoint saves
    and replays — ``None`` in records kept beyond the call.
    """

    name: str
    access: Access
    dim: int
    indirect: bool = False
    is_global: bool = False
    data_ref: Any = None


@dataclass(slots=True)
class LoopEvent:
    """One executed loop: its name plus its argument descriptors.

    ``skip`` is the only field anyone writes after construction: an
    observer sets it to suppress the loop body — the mechanism behind
    checkpoint-recovery fast-forwarding, where "the op_par_loops do not
    carry out any computations, only set the value of op_arg_gbl
    arguments" (paper Section VI).
    """

    name: str
    args: tuple[ArgEvent, ...] = ()
    api: str = "op2"
    skip: bool = False

    def without_refs(self) -> "LoopEvent":
        """The same descriptors with no ``data_ref``: safe to keep in a history."""
        return LoopEvent(
            self.name,
            tuple(
                ArgEvent(a.name, a.access, a.dim, a.indirect, a.is_global)
                for a in self.args
            ),
            self.api,
        )


def active_counters() -> PerfCounters:
    """The counters currently receiving loop statistics (per-thread)."""
    stack = _counters_stack()
    return stack[-1] if stack else _global_counters


def global_counters() -> PerfCounters:
    """The process-default counters."""
    return _global_counters


@contextlib.contextmanager
def counters_scope(counters: PerfCounters) -> Iterator[PerfCounters]:
    """Route this thread's loop statistics to ``counters`` within the scope.

    Leaving the scope is an observation point for lazily queued loops:
    the caller is about to read ``counters``, so work queued inside the
    scope must execute (and account) before the routing is popped.  On an
    exceptional exit the queue is left alone — it drains at the next
    observation point — so the flush can never mask the original error.
    """
    stack = _counters_stack()
    stack.append(counters)
    try:
        yield counters
    except BaseException:
        stack.pop()
        raise
    else:
        # deferred import: repro.ops depends on repro.common, not vice versa
        from repro.ops import lazy as _lazy

        try:
            _lazy.flush_point("counters_scope_exit")
        finally:
            stack.pop()


def add_loop_observer(fn: Callable[[LoopEvent], None], *, local: bool = False) -> None:
    """Register a callback invoked before every loop execution.

    With ``local=True`` the observer only sees loops executed by the
    registering thread — how per-rank observers (checkpoint managers,
    recovery replayers, fault plans) coexist inside a threaded SPMD run.

    Installation is an observation point for the lazy runtime: loops the
    calling thread queued *before* this call drain first, because eager
    execution would have run them before the observer existed — so the
    observer sees exactly the eager event stream from installation
    onwards.  (A global observer installed from another thread cannot
    drain that thread's queue; such a queue falls back to whole-loop
    replay at its next flush.)
    """
    # deferred import: repro.ops depends on repro.common, not vice versa
    from repro.ops import lazy as _lazy

    _lazy.flush_point("observer_install")
    (_local_observers() if local else _observers).append(fn)


def remove_loop_observer(fn: Callable[[LoopEvent], None], *, local: bool = False) -> None:
    (_local_observers() if local else _observers).remove(fn)


def observers_active() -> bool:
    """True when any process-wide or this-thread loop observer is registered.

    The par_loop hot paths use this to skip building a :class:`LoopEvent`
    entirely when nobody is listening — the common case outside
    checkpointed/traced runs.
    """
    if _observers:
        return True
    local = getattr(_tls, "observers", None)
    return bool(local)


def notify_loop(event: LoopEvent) -> None:
    """Announce a loop execution to all process-wide, then thread-local, observers."""
    for obs in list(_observers):
        obs(event)
    local = getattr(_tls, "observers", None)
    if local:
        for obs in list(local):
            obs(event)


@contextlib.contextmanager
def loop_chain_record() -> Iterator[list[LoopEvent]]:
    """Record the sequence of loops executed inside the scope."""
    events: list[LoopEvent] = []
    _observers.append(events.append)
    try:
        yield events
    finally:
        _observers.remove(events.append)
