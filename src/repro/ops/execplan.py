"""Compiled structured-loop executors: the ops hot path, specialised per site.

The structured-mesh analogue of :mod:`repro.op2.execplan` (paper Sections
II-C and VI): everything a loop re-derives per call from its declared
stencils and ranges — range validation, shifted region views, the loop
event, traffic accounting — is computed on the first execution and
replayed afterwards.

A :class:`CompiledOpsLoop` is the ops :class:`~repro.common.site.CompiledSite`,
which owns the call life cycle, the storage guard and native dispatch.  It
adds the ops validation, event descriptors and accounting and, when the
native tier declines, one :class:`FastAccessor` per dat argument: the
shifted storage views for every declared stencil offset, computed once —
the interpreted :class:`~repro.ops.accessor.RangeAccessor` re-slices on
every ``u[off]`` of every invocation.

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
keyed by stable monotonic tokens.  The site's one guard invalidates an
entry when any ``dat.data`` is replaced: the cached views and baked native
addresses alias it.  ``seq`` stays the untouched interpreted reference, and
stencil checking / descriptor verification always bypass the compiled path.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.common import site as _site
from repro.common.counters import PerfCounters
from repro.common.plancache import PlanCache, set_plan_cache_capacity
from repro.common.tokens import kernel_token
from repro.ops import parloop as _parloop  # a cycle: both only read attributes at call time
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


class CompiledOpsLoop(_site.CompiledSite):
    """One structured loop site: validation, accounting and cached views."""

    api = "ops"

    def __init__(
        self,
        kernel: Callable,
        block: Block,
        ranges: list[tuple[int, int]],
        args: Sequence,
        loop_name: str,
        flops_per_point: int,
    ):
        # full validation, exactly as the interpreted path performs it
        _parloop._validate(block, ranges, args, loop_name)
        self.kernel = kernel
        self.ranges = tuple(ranges)
        self.flops_per_point = flops_per_point
        self.red_slots = [i for i, a in enumerate(args) if isinstance(a, Reduction)]
        super().__init__(loop_name, list(args), {
            "kernel": loop_name,
            "block": block.name,
            "backend": "vec",
            "n": _parloop._npoints(ranges),
            "descriptors": _parloop.describe_args(args),
            "compiled": True,
        })
        # vec fallback: cached-view accessors over the full range
        self.accessors = None if self.native is not None else self._accessors(ranges)

    def _event_for(self, args):
        return _parloop._event_for(self.name, args)

    def _events(self, args) -> tuple:
        # each call binds its own reduction handles
        events = self.arg_events
        if self.red_slots:
            events = list(events)
            for i in self.red_slots:
                events[i] = _parloop._reduction_event(args[i])
            events = tuple(events)
        return events

    def _account(self, counters: PerfCounters) -> None:
        _parloop._account(self.name, self.ranges, self.args, counters, self.flops_per_point)

    def _guard_owners(self):
        for a in self.args:
            if not isinstance(a, Reduction):
                yield a.dat, "data"

    def _admit(self):
        # one compiled C kernel, admitted for the full range and retargeted
        # per sub-range
        from repro.native import plan as _native  # deferred: optional tier

        return _native.try_compile_ops(self.kernel, self.ranges, self.args, self.name)

    def _accessors(self, ranges) -> list:
        """Cached-view accessors over ``ranges``; reduction slots stay open."""
        return [
            None if isinstance(a, Reduction)
            else FastAccessor(a.dat, ranges, tuple(a.stencil.points))
            for a in self.args
        ]

    def _run_vec(self, args, ranges) -> None:
        accs = self.accessors if ranges is None else self._accessors(ranges)
        for i in self.red_slots:
            accs[i] = args[i]
        self.kernel(*accs)


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
    """Fetch (or compile) the plan for this loop site; None -> slow path."""
    return _site.lookup(
        plans, kernel, _signature, CompiledOpsLoop,
        block, ranges, args, loop_name, flops_per_point,
    )
