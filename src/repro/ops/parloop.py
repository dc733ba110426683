"""``ops_par_loop``: parallel loops over index ranges of a block.

Backends:

* ``seq`` — per-point execution with scalar accessors (debugging reference),
* ``vec`` — one sweep with whole-range array accessors (production; the
  analogue of OPS's generated vectorised CPU code).

Cache blocking (the locality optimisation of paper Section VI) is not a
backend: lazy execution (:mod:`repro.ops.lazy`) queues ``vec`` loops and
replays them in skewed cross-loop tiles.

Stencil checking (config ``check_stencils`` or ``check=True``) validates
every access against the declared stencils, reproducing OPS's consistency
machinery described in Section II-C.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.common.access import Access, validate_argument_access
from repro.common.config import get_config
from repro.common.counters import PerfCounters
from repro.common.errors import BACKENDS, APIError, unknown_backend
from repro.common.profiling import ArgEvent, LoopEvent, observers_active
from repro.common.site import Pin, announce, interpreted_loop, mark_written, written_dats
from repro.ops import execplan
from repro.ops import lazy as _lazy
from repro.ops.accessor import PointAccessor, RangeAccessor
from repro.ops.block import Block
from repro.ops.dat import Dat
from repro.ops.reduction import Reduction
from repro.ops.stencil import Stencil


@dataclass
class DatArg:
    """One dat argument of an ``ops_par_loop``."""

    dat: Dat
    access: Access
    stencil: Stencil


LoopArg = DatArg | Reduction


def _validate(
    block: Block,
    ranges: Sequence[tuple[int, int]],
    args: Sequence[LoopArg],
    loop: str | None = None,
) -> None:
    if len(ranges) != block.ndim:
        raise APIError(f"loop over {block.name} needs {block.ndim} ranges, got {len(ranges)}")
    for lo, hi in ranges:
        if hi < lo:
            raise APIError(f"empty/negative range [{lo}, {hi})")
    for i, arg in enumerate(args):
        if isinstance(arg, Reduction):
            continue
        if not isinstance(arg, DatArg):
            raise APIError(f"loop arguments must be dat args or reductions, got {arg!r}")
        if arg.dat.block is not block:
            raise APIError(
                f"dat {arg.dat.name} lives on block {arg.dat.block.name}, "
                f"loop is over {block.name}"
            )
        # re-check the declaration contract with the loop name attached
        # (catches DatArg objects constructed outside Dat.__call__)
        validate_argument_access(
            arg.access, is_global=False, dat=arg.dat.name,
            loop=loop, arg_index=i,
        )


def _npoints(ranges: Sequence[tuple[int, int]]) -> int:
    n = 1
    for lo, hi in ranges:
        n *= max(hi - lo, 0)
    return n


def _account(
    name: str,
    ranges: Sequence[tuple[int, int]],
    args: Sequence[LoopArg],
    counters: PerfCounters,
    flops_per_point: int,
) -> None:
    n = _npoints(ranges)
    rec = counters.loop(name)
    rec.invocations += 1
    rec.iterations += n
    rec.flops += flops_per_point * n
    rec.colours = max(rec.colours, 1)
    for i, arg in enumerate(args):
        if isinstance(arg, Reduction):
            continue
        # dtype attribute, not ``data.dtype``: the storage property is a
        # lazy-flush observation point and accounting must never trigger one
        item = arg.dat.dtype.itemsize
        if arg.access.reads:
            # every stencil point is a load, but the neighbour loads are
            # re-references of values streamed once: they are recorded as
            # indirect traffic with zero unique volume, so the roofline
            # charges DRAM for one stream and cache for the rest
            rec.bytes_read += n * item * len(arg.stencil.points)
            if len(arg.stencil.points) > 1:
                rec.indirect_reads += n * item * (len(arg.stencil.points) - 1)
        if arg.access.writes:
            rec.bytes_written += n * item


def _reduction_event(red: Reduction) -> ArgEvent:
    return ArgEvent(red.name, red.access, 1, is_global=True, data_ref=red)


def _event_for(name: str, args: Sequence[LoopArg]) -> LoopEvent:
    return LoopEvent(
        name,
        tuple(
            _reduction_event(a) if isinstance(a, Reduction)
            else ArgEvent(a.dat.name, a.access, 1, data_ref=a.dat)
            for a in args
        ),
        api="ops",
    )


def describe_args(args: Sequence[LoopArg]) -> str:
    """Compact descriptor summary for trace spans: ``dat:access[:g]``."""
    parts = []
    for a in args:
        if isinstance(a, Reduction):
            parts.append(f"{a.name}:{a.access.value}:g")
        else:
            parts.append(f"{a.dat.name}:{a.access.value}")
    return ",".join(parts)


def _interpret(
    backend: str,
    kernel: Callable,
    ranges: list[tuple[int, int]],
    args: Sequence[LoopArg],
    check: bool,
    guard_loop: str | None = None,
) -> None:
    """Interpreted execution: per-point ``seq`` or one whole-range ``vec`` sweep."""
    seq = backend == "seq"
    accessors = []
    for i, arg in enumerate(args):
        if isinstance(arg, Reduction):
            accessors.append(arg)
            continue
        guard = (guard_loop, i) if guard_loop is not None else None
        if seq:
            accessors.append(PointAccessor(arg.dat, arg.access, arg.stencil, check, guard))
        else:
            accessors.append(
                RangeAccessor(arg.dat, arg.access, arg.stencil, ranges, check, guard)
            )
    if not seq:
        kernel(*accessors)
        return
    spans = [range(lo, hi) for lo, hi in ranges]
    # last dimension fastest, matching generated C loop nests
    for point in itertools.product(*spans):
        for acc in accessors:
            if isinstance(acc, PointAccessor):
                acc.bind(point)
        kernel(*accessors)


def par_loop(
    kernel: Callable,
    block: Block,
    ranges: Sequence[tuple[int, int] | list[int]],
    *args: LoopArg,
    backend: str = "vec",
    name: str | None = None,
    flops_per_point: int = 0,
    check: bool | None = None,
) -> None:
    """Execute ``kernel`` on every grid point of ``ranges`` within ``block``.

    ``ranges`` uses interior coordinates, ``[(lo, hi), ...]`` per dimension,
    half-open.  Negative coordinates reach into the halo (boundary-condition
    loops do this, within each dat's ``halo_depth``).

    ``backend`` is ``"vec"`` (default) or ``"seq"``; any other name raises
    :class:`APIError` before the queue, observers or the trace see the
    call.  On ``vec`` the first invocation of a loop signature
    compiles a :class:`repro.ops.execplan.CompiledOpsLoop`; later
    invocations replay it (validation, region views and accounting are all
    amortised).  Stencil checking and
    ``verify_descriptors`` bypass the compiled path so the checkers always
    see raw execution, and ``seq`` remains the interpreted reference.

    Under ``configure(lazy=True)`` (``REPRO_LAZY=1``) the loop does not
    execute here: it is validated and appended to the calling thread's
    queue (:mod:`repro.ops.lazy`), to run — possibly fused with its
    neighbours into skewed cross-loop tiles — at the next data
    observation.  Loops the queue cannot take (``seq`` backend, stencil
    checking, descriptor verification, active loop observers) first drain
    the queue, preserving program order, then execute eagerly.

    A call site that runs many times can bind itself once with
    :func:`loop` and replay the handle instead.
    """
    if backend not in BACKENDS:
        raise unknown_backend(backend)
    _dispatch(
        kernel, block, [tuple(int(c) for c in r) for r in ranges], args, backend,
        name or getattr(kernel, "__name__", "ops_loop"), flops_per_point, check, None,
    )


class Loop:
    """A prebound loop site: ``par_loop``'s arguments validated once, replayed.

    ``ops.loop(kernel, block, ranges, *args, backend=, name=,
    flops_per_point=, check=)`` runs ``par_loop``'s validation and returns
    this handle; calling it is exactly the matching ``par_loop`` call —
    configuration, lazy queueing and flushes, observers and the
    interpreted paths are all read per call — except that the compiled
    site is pinned rather than fetched (:class:`repro.common.site.Pin`),
    and a lazy call pushes the handle's prebuilt queue record, whose flush
    fetches the plan through that pin (:meth:`_queued`).

    Reduction arguments are slots: ``site(r1, ...)`` binds one fresh
    :class:`Reduction` per slot, in argument order, for that call (same
    kind as the handle bound there); ``site()`` folds into the bound ones.

    >>> calc_dt = ops.loop(kernel, block, cells, u(ops.READ), ops.Reduction("min"))
    >>> dt_min = ops.Reduction("min"); calc_dt(dt_min)
    """

    __slots__ = (
        "kernel", "block", "ranges", "args", "backend", "name",
        "flops_per_point", "check", "slots", "pin", "record",
    )

    def __init__(
        self,
        kernel: Callable,
        block: Block,
        ranges: Sequence[tuple[int, int] | list[int]],
        *args: LoopArg,
        backend: str = "vec",
        name: str | None = None,
        flops_per_point: int = 0,
        check: bool | None = None,
    ):
        if backend not in BACKENDS:
            raise unknown_backend(backend)
        self.ranges = [tuple(int(c) for c in r) for r in ranges]
        self.name = name or getattr(kernel, "__name__", "ops_loop")
        _validate(block, self.ranges, args, self.name)
        self.kernel = kernel
        self.block = block
        self.args = args
        self.backend = backend
        self.flops_per_point = flops_per_point
        self.check = check
        self.slots = tuple(i for i, a in enumerate(args) if isinstance(a, Reduction))
        self.pin = Pin(execplan.plans)
        self.record = None  # the lazy queue record, built on the first lazy call

    def __call__(self, *reductions: Reduction) -> None:
        args = self._bind(reductions) if reductions else self.args
        _dispatch(
            self.kernel, self.block, self.ranges, args, self.backend, self.name,
            self.flops_per_point, self.check, self,
        )

    def _queued(self, args: tuple) -> _lazy.QueuedLoop:
        """This call's lazy queue record: the handle's own, with ``args`` bound.

        Built once: the certificate, chain signature and merged accesses
        depend only on the kernel and on descriptors fixed at binding (a
        reduction slot keeps its kind), and the record carries the pin, so
        the flush fetches the plan through it.
        """
        record = self.record
        if record is None:
            record = self.record = _lazy.build_record(
                self.kernel, self.block, self.ranges, self.args, self.name,
                self.flops_per_point, self.pin,
            )
        return record if args is self.args else record._replace(args=args)

    def _bind(self, reductions: tuple) -> tuple:
        """The bound arguments with ``reductions`` in the reduction slots."""
        if len(reductions) != len(self.slots):
            raise APIError(
                f"loop {self.name}: {len(reductions)} reductions for "
                f"{len(self.slots)} reduction slots"
            )
        args = list(self.args)
        for i, red in zip(self.slots, reductions):
            if not isinstance(red, Reduction) or red.kind != args[i].kind:
                raise APIError(
                    f"loop {self.name}: argument {i} takes a {args[i].kind!r} "
                    f"Reduction, got {red!r}"
                )
            args[i] = red
        return tuple(args)


loop = Loop


def _dispatch(
    kernel: Callable,
    block: Block,
    ranges_t: list[tuple[int, int]],
    args: Sequence[LoopArg],
    backend: str,
    loop_name: str,
    flops_per_point: int,
    check: bool | None,
    site: Loop | None,
) -> None:
    """One call of a loop site: queue it or run it, through ``site``'s record
    and pin when prebound."""
    cfg = get_config()
    do_check = cfg.check_stencils if check is None else check
    if cfg.lazy or _lazy.ACTIVE:
        if (
            cfg.lazy
            and backend == "vec"
            and not do_check
            and not cfg.verify_descriptors
            and not observers_active()
        ):
            if site is None:
                _lazy.enqueue(kernel, block, ranges_t, args, loop_name, flops_per_point)
            else:
                _lazy.push(site._queued(args))
            return
        # this loop runs eagerly; anything still queued precedes it in
        # program order and must land first
        _lazy.flush_point("eager_par_loop")
    _execute_loop(
        kernel, block, ranges_t, args, backend, loop_name, flops_per_point, do_check,
        None if site is None else site.pin,
    )


def _execute_loop(
    kernel: Callable,
    block: Block,
    ranges_t: Sequence[tuple[int, int]],
    args: Sequence[LoopArg],
    backend: str,
    loop_name: str,
    flops_per_point: int,
    do_check: bool,
    pin: Pin | None = None,
) -> None:
    """Eager execution of one loop (the dispatch target of lazy flushes too)."""
    cfg = get_config()
    if (
        backend == "vec"
        and cfg.use_execplan
        and not do_check
        and not cfg.verify_descriptors
        and isinstance(block, Block)
    ):
        if pin is None:
            compiled = execplan.lookup(
                kernel, block, ranges_t, args, loop_name, flops_per_point
            )
        else:
            compiled = pin.fetch(
                execplan.lookup, kernel, block, ranges_t, args, loop_name, flops_per_point
            )
        if compiled is not None:
            compiled.execute(args)
            return
    _validate(block, ranges_t, args, loop_name)
    written = written_dats(args)

    # only build the LoopEvent (and its per-arg descriptor list) when an
    # observer is actually listening — nothing else can set event.skip
    if observers_active() and announce(_event_for(loop_name, args), written):
        return

    sanitize = cfg.verify_descriptors
    guard_loop = loop_name if sanitize else None
    if sanitize:
        from repro.verify.sanitizer import ops_post_check, ops_snapshot

        do_check = True
        snaps = ops_snapshot(args)
    with interpreted_loop(
        "ops", loop_name,
        kernel=loop_name, block=block.name, backend=backend,
        n=_npoints(ranges_t), descriptors=describe_args(args),
    ) as counters:
        _interpret(backend, kernel, ranges_t, args, do_check, guard_loop)
        if sanitize:
            ops_post_check(loop_name, ranges_t, args, snaps)
            counters.record_sanitized_loop()
    _account(loop_name, ranges_t, args, counters, flops_per_point)
    mark_written(written)
