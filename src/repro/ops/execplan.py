"""Compiled structured-loop executors: the ops hot path, specialised per site.

The structured-mesh analogue of :mod:`repro.op2.execplan` (paper Sections
II-C and VI): everything a loop re-derives per call from its declared
stencils and ranges — range validation, shifted region views, the loop
event, traffic accounting — is computed on the first execution and
replayed afterwards.

A :class:`CompiledOpsLoop` holds:

* the validated argument list and the prebuilt loop-event descriptors,
* the native tier's compiled kernel when admission succeeds, otherwise one
  :class:`FastAccessor` per dat argument: the shifted storage views for
  every declared stencil offset, computed once — the interpreted
  :class:`~repro.ops.accessor.RangeAccessor` re-slices on every ``u[off]``
  of every invocation,
* the loop's exact traffic/flop accounting as precomputed constants.

A plan is *range-parametric*: it is built, validated and admitted once for
the loop's full ranges, and ``execute(args, ranges)`` replays it over any
sub-range of them.  That is how :mod:`repro.ops.lazy` drives cross-loop
tiles — one plan per queued loop, the tile bounds a run-time argument.
The native storage-bounds proof over the full range covers every
sub-range; ``execute`` checks the containment rather than trusting it.

Reduction handles are *slots*, not captures: apps routinely build a fresh
:class:`~repro.ops.reduction.Reduction` per invocation, so plans key on the
slot's access mode and bind the caller's handle on every call (the
accessor position, and — when observed — a fresh descriptor in that
call's own loop event).

Plans live in :data:`plans`, a :class:`~repro.common.plancache.PlanCache`
keyed by stable monotonic tokens.  The ops guard: because the cached views
alias a dat's storage array, an entry is invalidated when any ``dat.data``
is replaced.  ``seq`` stays the untouched interpreted reference, and
stencil checking / descriptor verification always bypass the compiled path.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.common.counters import PerfCounters, Timer
from repro.common.errors import APIError
from repro.common.plancache import PlanCache, set_plan_cache_capacity
from repro.common.profiling import (
    LoopEvent,
    active_counters,
    notify_loop,
    observers_active,
)
from repro.common.tokens import kernel_token
from repro.telemetry import tracer as _trace
from repro.ops.block import Block
from repro.ops.dat import Dat
from repro.ops.reduction import Reduction

__all__ = [
    "CompiledOpsLoop",
    "FastAccessor",
    "lookup",
    "clear_plan_cache",
    "plan_cache_stats",
    "set_plan_cache_capacity",
]

class FastAccessor:
    """Array accessor with the shifted views cached per stencil offset.

    Semantically identical to an unchecked
    :class:`~repro.ops.accessor.RangeAccessor` — it hands the kernel the
    very same ``dat.region(ranges, off)`` views — but the slicing happens
    once at compile time.  Offsets outside the declared stencil (legal when
    checking is off, which is the only time this accessor runs) are sliced
    lazily and cached too.
    """

    __slots__ = ("dat", "ranges", "_views")

    def __init__(self, dat: Dat, ranges: list[tuple[int, int]], points: Sequence[tuple]):
        self.dat = dat
        self.ranges = ranges
        self._views: dict = {}
        for p in points:
            view = dat.region(ranges, p)
            self._views[p] = view
            if len(p) == 1:
                # 1-D kernels index with a bare int: u[1], not u[(1,)]
                self._views[p[0]] = view

    def _view(self, offset):
        view = self._views.get(offset)
        if view is None:
            off = offset if isinstance(offset, tuple) else (int(offset),)
            view = self.dat.region(self.ranges, tuple(int(o) for o in off))
            self._views[offset] = view
        return view

    def __getitem__(self, offset):
        return self._view(offset)

    def __setitem__(self, offset, value) -> None:
        self._view(offset)[...] = value


class CompiledOpsLoop:
    """Everything re-derivable from one structured loop site, computed once."""

    def __init__(
        self,
        kernel: Callable,
        block: Block,
        ranges: list[tuple[int, int]],
        args: Sequence,
        loop_name: str,
        flops_per_point: int,
    ):
        from repro.ops import parloop as _parloop  # deferred: parloop imports us

        # (a) full validation, exactly as the interpreted path performs it
        _parloop._validate(block, ranges, args, loop_name)

        self.kernel = kernel
        self.name = loop_name
        self.args = list(args)  # strong refs keep dats alive while cached

        # (b) the prebuilt event descriptors, reduction slots, written-dat list
        self.arg_events = _parloop._event_for(loop_name, args).args
        # span attributes are part of the plan too: formatting descriptors
        # per call would dominate a traced fast path
        self.trace_attrs = {
            "kernel": loop_name,
            "block": block.name,
            "backend": "vec",
            "n": _parloop._npoints(ranges),
            "descriptors": _parloop.describe_args(args),
            "compiled": True,
        }
        self.red_slots = [i for i, a in enumerate(args) if isinstance(a, Reduction)]
        self.written_dats = []
        for a in args:
            if isinstance(a, Reduction) or not a.access.writes:
                continue
            if not any(d is a.dat for d in self.written_dats):
                self.written_dats.append(a.dat)

        self.ranges = tuple(ranges)

        # (c) accounting constants: the interpreted path's exact counter
        # arithmetic, run once against a scratch register.  Every traffic
        # term is linear in the point count, so a sub-range scales the
        # per-point quotients (flops, bytes read, bytes written, indirect
        # reads) by its own count
        scratch = PerfCounters()
        _parloop._account(loop_name, ranges, args, scratch, flops_per_point)
        acct = self.acct = scratch.loops[loop_name]
        n = acct.iterations
        self.per_point = tuple(
            v // n if n else 0
            for v in (acct.flops, acct.bytes_read, acct.bytes_written, acct.indirect_reads)
        )

        # guards: cached views and baked native addresses alias each dat's
        # storage array, so the plan is only valid while every ``dat.data``
        # is the same ndarray
        guards: dict[int, tuple] = {}
        for a in args:
            if not isinstance(a, Reduction):
                guards[a.dat.token] = (a.dat, a.dat.data)
        self._guards = list(guards.values())

        # (d) native tier: one compiled C kernel, admitted for the full
        # range and retargeted per sub-range.  The identity guards above
        # already pin every baked storage address, so a native plan needs
        # no extra invalidation machinery here.
        from repro.native import plan as _native  # deferred: optional tier

        self.native = _native.try_compile_ops(kernel, ranges, args, loop_name)
        self.accessors = None
        if self.native is not None:
            self.trace_attrs["native"] = True
        else:
            # (e) vec fallback: cached-view accessors over the full range
            self.accessors = self._accessors(ranges)

    def _accessors(self, ranges) -> list:
        """Cached-view accessors over ``ranges``; reduction slots stay open."""
        return [
            None if isinstance(a, Reduction)
            else FastAccessor(a.dat, ranges, tuple(a.stencil.points))
            for a in self.args
        ]

    def still_valid(self) -> bool:
        """True while every dat still owns the storage the views were cut from."""
        for dat, data in self._guards:
            if dat.data is not data:
                return False
        return True

    def _contained_points(self, ranges) -> int:
        """Point count of ``ranges``, which must lie inside the plan's own."""
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

    def execute(self, args: Sequence, ranges=None) -> None:
        """Replay the plan with this call's reduction handles bound in.

        ``ranges`` restricts the sweep to a sub-range of the plan's own
        ranges (one lazy cross-loop tile); it is executed as a single
        sweep, accounted by its point count, and announces no loop event —
        the whole loop is the observable unit, and callers slicing it must
        not have observers to serve.
        """
        whole = ranges is None
        if whole:
            if observers_active():
                # a fresh event per call: each call binds its own reduction
                # handles, and an observer may keep the event it was given
                arg_events = self.arg_events
                if self.red_slots:
                    from repro.ops import parloop as _parloop

                    arg_events = list(arg_events)
                    for i in self.red_slots:
                        arg_events[i] = _parloop._reduction_event(args[i])
                    arg_events = tuple(arg_events)
                event = LoopEvent(self.name, arg_events, "ops")
                notify_loop(event)
                if event.skip:
                    # recovery fast-forward: same contract as the interpreted path
                    for dat in self.written_dats:
                        dat.halo_dirty = True
                    return
        else:
            n = self._contained_points(ranges)

        counters = active_counters()
        rec = counters.loop(self.name)
        kernel = self.kernel
        red_slots = self.red_slots
        native = self.native
        trc = _trace.ACTIVE
        span = None
        if trc is not None:
            attrs = self.trace_attrs
            if not whole:
                attrs = dict(attrs, n=n)
            span = trc.begin("par_loop", "ops", **attrs)
        try:
            with Timer(rec):
                if native is not None:
                    counters.record_native_call()
                    native.execute(args, ranges)
                else:
                    accs = self.accessors if whole else self._accessors(ranges)
                    for i in red_slots:
                        accs[i] = args[i]
                    kernel(*accs)
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

        for dat in self.written_dats:
            dat.halo_dirty = True


# -- plan cache ---------------------------------------------------------------


def _describe(event: str, plan: CompiledOpsLoop) -> dict:
    """Attributes of the ``plan_<event>`` trace instant."""
    return {"kernel": plan.name}


plans = PlanCache("plan", "plan", _describe)
clear_plan_cache = plans.clear
plan_cache_stats = plans.stats


def _signature(
    kernel: Callable,
    block: Block,
    ranges: list[tuple[int, int]],
    args: Sequence,
    loop_name: str,
    flops_per_point: int,
) -> tuple:
    parts: list = [
        kernel_token(kernel),
        block.token,
        tuple(ranges),
        loop_name,
        flops_per_point,
    ]
    for a in args:
        if isinstance(a, Reduction):
            # reductions are rebindable slots: any handle with this access
            # mode replays the same plan
            parts.append(("r", a.access))
        else:
            parts.append(("d", a.dat.token, a.access, tuple(a.stencil.points)))
    return tuple(parts)


def lookup(
    kernel: Callable,
    block: Block,
    ranges: list[tuple[int, int]],
    args: Sequence,
    loop_name: str,
    flops_per_point: int,
) -> CompiledOpsLoop | None:
    """Fetch (or compile) the plan for this loop site; None -> slow path.

    Returns None only when a signature cannot even be formed (malformed
    arguments) so the interpreted path can raise its usual diagnostics.
    Compilation itself runs the full interpreted-path validation and lets
    any :class:`~repro.common.errors.APIError` propagate.
    """
    from repro.lint.abstract import certify_callable

    if certify_callable(kernel).rng:
        # the kernel draws random numbers: its output is not a pure
        # function of the signature, so a replayed plan is not a replay
        return None

    try:
        key = _signature(kernel, block, ranges, args, loop_name, flops_per_point)
    except (AttributeError, TypeError):
        return None
    # the build runs inside this call, so a traced plan build nests under lookup
    return plans.get(
        key, CompiledOpsLoop,
        kernel, block, ranges, args, loop_name, flops_per_point,
    )

