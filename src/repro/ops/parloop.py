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
from repro.common.site import announce, interpreted_loop, mark_written, written_dats
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
    """
    if backend not in BACKENDS:
        raise unknown_backend(backend)
    ranges_t = [tuple(int(c) for c in r) for r in ranges]
    loop_name = name or getattr(kernel, "__name__", "ops_loop")
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
            _lazy.enqueue(kernel, block, ranges_t, args, loop_name, flops_per_point)
            return
        # this loop runs eagerly; anything still queued precedes it in
        # program order and must land first
        _lazy.flush_point("eager_par_loop")
    _execute_loop(
        kernel, block, ranges_t, args, backend, loop_name, flops_per_point, do_check
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
        compiled = execplan.lookup(kernel, block, ranges_t, args, loop_name, flops_per_point)
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
