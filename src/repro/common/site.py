"""One compiled loop site: the call life cycle op2 and ops both replay.

The paper's libraries specialise a ``par_loop`` call site once, as a
generated host stub, and replay it on every later call (Section II-C, after
the "Active Libraries" compile-once philosophy).  :class:`CompiledSite` is
that stub for both libraries: it notifies observers (honouring ``skip``),
runs the native kernel or the vec sweep under a ``Timer`` and a span,
merges the precomputed accounting and marks written halos dirty.  Its one
guard keeps it valid only while every storage array it was built on is the
same object: baked native addresses and cached views alias them, so a
rebound array invalidates the site and the cache rebuilds and re-admits it.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Iterator, Sequence

from repro.common.counters import PerfCounters, Timer
from repro.common.errors import APIError, DescriptorViolation
from repro.common.plancache import PlanCache
from repro.common.profiling import (
    LoopEvent,
    active_counters,
    notify_loop,
    observers_active,
)
from repro.telemetry import tracer as _trace

__all__ = [
    "CompiledSite",
    "announce",
    "interpreted_loop",
    "lookup",
    "mark_written",
    "written_dats",
]


def written_dats(args: Sequence) -> list:
    """Each dat some argument writes, once, in argument order."""
    dats: list = []
    for a in args:
        dat = getattr(a, "dat", None)
        if dat is not None and a.access.writes and not any(d is dat for d in dats):
            dats.append(dat)
    return dats


def mark_written(dats: Iterable) -> None:
    """A loop wrote ``dats``: their copies on other ranks are stale."""
    for dat in dats:
        dat.halo_dirty = True


def announce(event: LoopEvent, written: Iterable) -> bool:
    """Notify loop observers; True when one asked to skip the loop.

    A skip is the recovery fast-forward: no computation, and observers have
    already restored any recorded global values.  Halo staleness must still
    advance as if the loop ran, or a distributed replay's exchange schedule
    diverges from the original run's, so ``written`` is marked here.
    """
    notify_loop(event)
    if event.skip:
        mark_written(written)
    return event.skip


@contextlib.contextmanager
def interpreted_loop(api: str, name: str, **attrs) -> Iterator[PerfCounters]:
    """Time an interpreted loop body under its ``par_loop`` span.

    Yields the active counters.  A descriptor violation raised by the body
    also leaves a ``verify_violation`` instant in the trace.
    """
    trc = _trace.ACTIVE
    counters = active_counters()
    span = trc.begin("par_loop", api, **attrs) if trc is not None else None
    try:
        with Timer(counters.loop(name)):
            yield counters
    except DescriptorViolation as err:
        if trc is not None:
            trc.instant(
                "verify_violation", "verify",
                loop=err.loop, kind=err.kind, arg_index=err.arg_index,
            )
        raise
    finally:
        if span is not None:
            trc.end(span)


def lookup(cache: PlanCache, kernel, key_of: Callable, build: Callable, *args):
    """The cached site ``build(kernel, *args)`` under ``key_of(kernel, *args)``.

    Returns None — take the interpreted path — when the kernel draws random
    numbers (its output is not a pure function of the signature, so a
    replayed site is not a replay) or when a signature cannot even be
    formed (malformed arguments), so the interpreted path raises its usual
    diagnostics.  The build runs the full interpreted-path validation and
    lets any :class:`~repro.common.errors.APIError` propagate; it runs
    inside this call, so a traced build nests under the domain's lookup.
    """
    from repro.lint.abstract import certify_callable  # lint builds on common

    if certify_callable(kernel).rng:
        return None
    try:
        key = key_of(kernel, *args)
    except (AttributeError, TypeError):
        return None
    return cache.get(key, build, kernel, *args)


class CompiledSite:
    """Everything re-derivable from one loop signature, computed once.

    A subclass validates its arguments, sets what its hooks read and calls
    this ``__init__``.  Hooks: ``_event_for(args)`` (the loop event),
    ``_account(counters)`` (book one whole call), ``_guard_owners()``
    (``(owner, attribute)`` per aliased storage array), ``_admit()`` (the
    native loop or None), ``_run_vec(args, ranges)`` and, where a call
    binds its own handles, ``_events(args)``.
    """

    #: the loop event's ``api`` and the ``par_loop`` span's category
    api = ""
    #: the ranges a sub-range call must lie inside; None: whole calls only
    ranges: tuple | None = None

    def __init__(self, name: str, args: list, trace_attrs: dict):
        self.name = name
        self.args = args  # strong refs keep storage owners alive while cached
        self.arg_events = self._event_for(args).args
        # span attributes are part of the plan too: formatting descriptors
        # per call would dominate a traced fast path
        self.trace_attrs = trace_attrs
        self.written_dats = written_dats(args)

        # accounting constants: the interpreted path's exact counter
        # arithmetic, run once against a scratch register.  Every traffic
        # term is linear in the point count, so a sub-range scales the
        # per-point quotients (flops, bytes read, bytes written, indirect
        # reads) by its own count
        scratch = PerfCounters()
        self._account(scratch)
        acct = self.acct = scratch.loops[name]
        n = acct.iterations
        self.per_point = tuple(
            v // n if n else 0
            for v in (acct.flops, acct.bytes_read, acct.bytes_written, acct.indirect_reads)
        )

        # the guard: (owner, attribute, array) per distinct storage owner.
        # It also keeps every array a native kernel baked the address of
        # alive for as long as the site
        guards: dict[int, tuple] = {}
        for owner, attr in self._guard_owners():
            guards.setdefault(id(owner), (owner, attr, getattr(owner, attr)))
        self._guards = tuple(guards.values())

        self.native = self._admit()
        if self.native is not None:
            trace_attrs["native"] = True

    def _events(self, args: Sequence) -> tuple:
        return self.arg_events

    def still_valid(self) -> bool:
        """True while every owner still holds the array the site was built on."""
        for owner, attr, array in self._guards:
            if getattr(owner, attr) is not array:
                return False
        return True

    def _contained_points(self, ranges) -> int:
        """Point count of ``ranges``, which must lie inside the site's own."""
        full = self.ranges
        if len(ranges) != len(full):
            raise APIError(
                f"loop {self.name}: sub-range {tuple(ranges)} is not {len(full)}-D"
            )
        n = 1
        for (lo, hi), (flo, fhi) in zip(ranges, full):
            if lo < flo or hi > fhi or hi < lo:
                raise APIError(
                    f"loop {self.name}: sub-range {tuple(ranges)} leaves the "
                    f"plan's ranges {full}"
                )
            n *= hi - lo
        return n

    def execute(self, args: Sequence = (), ranges=None) -> None:
        """Replay the site: notify, run native or vec, account, mark halos.

        ``args`` binds the call's per-call handles (ops reductions).
        ``ranges`` restricts the sweep to a sub-range of the site's own
        ranges (one lazy cross-loop tile); it is executed as a single
        sweep, accounted by its point count, and announces no loop event —
        the whole loop is the observable unit, and callers slicing it must
        not have observers to serve.
        """
        whole = ranges is None
        if whole:
            # a fresh event per call: an observer may keep the one it got
            if observers_active() and announce(
                LoopEvent(self.name, self._events(args), self.api), self.written_dats
            ):
                return
        else:
            n = self._contained_points(ranges)

        counters = active_counters()
        rec = counters.loop(self.name)
        native = self.native
        trc = _trace.ACTIVE
        span = None
        if trc is not None:
            attrs = self.trace_attrs if whole else dict(self.trace_attrs, n=n)
            span = trc.begin("par_loop", self.api, **attrs)
        try:
            with Timer(rec):
                if native is not None:
                    counters.record_native_call(native.execute(args, ranges))
                else:
                    self._run_vec(args, ranges)
        finally:
            if span is not None:
                trc.end(span)
        if whole:
            rec.merge(self.acct)
        else:
            flops, bytes_read, bytes_written, indirect_reads = self.per_point
            rec.invocations += 1
            rec.iterations += n
            rec.flops += n * flops
            rec.bytes_read += n * bytes_read
            rec.bytes_written += n * bytes_written
            rec.indirect_reads += n * indirect_reads
            rec.colours = max(rec.colours, 1)

        mark_written(self.written_dats)
