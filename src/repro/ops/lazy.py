"""Lazy par_loop queueing with cross-loop tiled execution.

The runtime half of ROADMAP item 1 ("Loop Tiling in Large-Scale Stencil
Codes at Run-time with OPS", arXiv:1704.00693).  With ``configure(lazy=
True)`` (or ``REPRO_LAZY=1``) an ``ops.par_loop`` call does not execute:
it validates, appends a :class:`QueuedLoop` to the calling thread's queue,
and returns.  The queue drains at the first *observation point* — any
``Dat.data`` access, any ``Reduction.value`` read or write, a halo
exchange, a checkpoint save, ``timing_report``, an ``op2.par_loop`` in a
mixed-API program, or an explicit :func:`flush` — at which moment:

1. the chain's dependence graph is built from the recorded access
   descriptors (:func:`repro.lint.dataflow.build_dependence_graph`, the
   same analysis the static linter runs over source),
2. :func:`repro.ops.tileplan.build_tile_schedule` fuses runs of
   compatible loops and cuts them into skewed cross-loop tiles,
3. each queued loop of a fused group fetches its
   :class:`~repro.ops.execplan.CompiledOpsLoop` once — the very plan an
   eager call of the site replays, keyed on the loop's full ranges — and
   every tile runs as ``plan.execute(args, tile_ranges)``: the tile bounds
   are a run-time argument (the native tier retargets its bound pointer
   and extent buffers in place), never a plan key.  A ``par_loop`` call
   costs one plan lookup per flush however many tiles it cuts; a prebound
   loop (``ops.loop``) costs none: its record carries the handle's
   :class:`~repro.common.site.Pin`, which books one hit and re-fetches only
   after a guard failure or a cleared cache, as an eager replay does.

A queue record (:class:`QueuedLoop`) is built by :func:`build_record` and
appended by :func:`push`; ``par_loop`` calls both (:func:`enqueue`).  A
prebound loop builds its record once, on its first lazy call, and pushes
it again on every later one: everything the record holds — certificate,
merged accesses, chain signature, dat items, written dats — is a function
of the kernel and of descriptors that the handle fixed at binding.

Schedules are cached in :data:`chains`, a
:class:`~repro.common.plancache.PlanCache` sized like the plan caches and
keyed by the chain's structural signature — per loop: kernel code
identity, block/dat tokens, ranges, access modes and stencil points.
Closure *values* are deliberately excluded (unlike ``execplan``'s plan
keys): the schedule depends only on the descriptors, so a kernel factory
that bakes a fresh ``dt`` every step still hits.  A cached schedule is
never stale: a replaced dat draws a new token and misses instead.

Exactness rules (what may fuse):

* ``vec`` loops over a real :class:`~repro.ops.block.Block` fuse; ``seq``
  is the interpreted reference semantics and stays whole;
* loops folding an ``inc`` reduction never fuse — float addition is not
  associative, and tiling would reorder the partial sums (``min``/``max``
  are exact under any partition and do fuse);
* when loop observers are installed (checkpointing, ``LoopTrace``), loops
  don't queue, and installing an observer is itself an observation point
  that drains the installer's queue first (eager execution would have run
  those loops before the observer existed); a queue that still finds
  observers active at flush time — a global observer installed from
  another thread — replays every loop whole in program order instead of
  fusing, so each observer sees per-loop events in eager order.

Failure semantics: a kernel error (or injected fault) during a flush
propagates at the observation point, not the original call site; the rest
of that queue is dropped, exactly as if the program had crashed mid-chain.
Recovery paths re-execute from the last checkpoint, which re-enqueues the
lost tail.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, NamedTuple, Sequence

from repro.common.config import get_config
from repro.common.plancache import PlanCache
from repro.common.profiling import active_counters, observers_active
from repro.common.site import Pin, mark_written, written_dats
from repro.lint.dataflow import AccessRecord
from repro.ops.tileplan import ChainSchedule, LoopSpec, build_tile_schedule
from repro.telemetry import tracer as _trace

__all__ = [
    "ACTIVE",
    "QueuedLoop",
    "build_record",
    "push",
    "enqueue",
    "flush",
    "flush_point",
    "abandon",
    "queued_loops",
    "lazy_scope",
    "chain_cache_stats",
    "clear_chain_cache",
]

#: total loops currently queued across all threads.  Read (unlocked — an
#: int load is atomic) by every flush hook as the zero-cost "is lazy even
#: in play" gate: when 0 a ``Dat.data`` access pays one module-attribute
#: check and nothing else.  Mutated only through :func:`_active_add`:
#: ``ACTIVE += 1`` is a read-modify-write, and a lost update between
#: concurrent simmpi rank threads could drive the count to 0 with loops
#: still queued, silently disabling every flush gate.
ACTIVE = 0

#: queued loops per thread before a forced flush (bounds deferral of a
#: program that never observes its data)
QUEUE_LIMIT = 512

_active_lock = threading.Lock()


def _active_add(n: int) -> None:
    global ACTIVE
    with _active_lock:
        ACTIVE += n


class _ThreadState(threading.local):
    """Per-thread queue: simulated MPI ranks are threads, and every
    cross-rank data movement (send buffers, gathers, halo strips) is read
    on the owning rank's thread, so a thread only ever needs to flush its
    own queue."""

    queue: list
    flushing: bool

    def __init__(self):
        self.queue = []
        self.flushing = False


_state = _ThreadState()


class QueuedLoop(NamedTuple):
    """One deferred ``par_loop`` invocation, plus its scheduling metadata.

    Immutable: a prebound loop pushes the same record on every call, or a
    copy (``_replace``) whose ``args`` hold that call's reductions.
    """

    kernel: Callable
    block: object
    ranges: list
    args: tuple
    name: str
    flops_per_point: int
    sig: tuple
    spec: LoopSpec
    #: (dat token, itemsize) per distinct dat argument — the bytes-saved model
    dat_items: tuple
    #: dats some argument writes: their halos go stale when the loop queues
    written: tuple
    #: the prebound loop's hold on its plan; None: look the plan up at flush
    pin: Pin | None = None


def _kernel_code_id(kernel: Callable):
    """Kernel identity for the chain cache: the *code*, not the closure.

    Two closures of one factory (``make_pdv(dt)`` each step) share a code
    object and therefore a schedule; schedule legality depends only on the
    declared descriptors, never on captured values.
    """
    code = getattr(kernel, "__code__", None)
    if code is None:
        return ("obj", getattr(kernel, "__name__", repr(type(kernel))))
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _read_extent(cert, i: int, declared: tuple) -> tuple:
    """Read offsets for descriptor position ``i``: certified when proven.

    The tile planner skews by read extents; the declared stencil is the
    conservative (and halo-legality) bound, and the analyzer's proven
    extent — when the lowering was complete and the offsets bounded —
    replaces it, tightened to the declared set.  Rank-mismatched proofs
    (a kernel indexing fewer dims than the block) keep the declaration.
    """
    if not cert.complete or i >= len(cert.params):
        return declared
    proven = cert.reads_of(cert.params[i])
    if proven is None:
        return declared
    ranks = {len(p) for p in declared}
    if any(len(p) not in ranks for p in proven):
        return declared
    proven = set(proven)
    return tuple(p for p in declared if p in proven)


def build_record(
    kernel: Callable,
    block,
    ranges: list,
    args: Sequence,
    name: str,
    flops_per_point: int,
    pin: Pin | None = None,
) -> QueuedLoop:
    """The queue record of one already-validated ``vec`` loop."""
    from repro.lint.abstract import certify_callable
    from repro.ops.reduction import Reduction

    cert = certify_callable(kernel)
    fusable = not cert.rng  # reordering loops would reorder the RNG stream
    merged: dict = {}  # dat token -> [reads, writes, offsets set, itemsize]
    sig_args = []
    for i, a in enumerate(args):
        if isinstance(a, Reduction):
            if a.kind == "inc":
                # float sums are order-sensitive; tiling would reorder them
                fusable = False
            sig_args.append(("r", a.kind))
            continue
        tok = a.dat.token
        points = tuple(tuple(p) for p in a.stencil.points)
        rec = merged.get(tok)
        if rec is None:
            rec = merged[tok] = [False, False, set(), a.dat.dtype.itemsize]
        rec[0] = rec[0] or a.access.reads
        rec[1] = rec[1] or a.access.writes
        if a.access.reads:
            rec[2].update(_read_extent(cert, i, points))
        sig_args.append(("d", tok, a.access.value, points))

    accesses = tuple(
        AccessRecord(ref=tok, reads=r, writes=w, offsets=tuple(sorted(offs)))
        for tok, (r, w, offs, _item) in merged.items()
    )
    ranges_key = tuple(tuple(r) for r in ranges)
    spec = LoopSpec(
        ranges=ranges_key,
        accesses=accesses,
        fusable=fusable,
        block_id=block.token,
    )
    sig = (
        _kernel_code_id(kernel),
        block.token,
        ranges_key,
        fusable,
        tuple(sig_args),
    )
    return QueuedLoop(
        kernel=kernel,
        block=block,
        ranges=ranges,
        args=tuple(args),
        name=name,
        flops_per_point=flops_per_point,
        sig=sig,
        spec=spec,
        dat_items=tuple((tok, rec[3]) for tok, rec in merged.items()),
        written=tuple(written_dats(args)),
        pin=pin,
    )


def push(item: QueuedLoop) -> None:
    """Append ``item`` to the calling thread's queue."""
    # eager execution sets halo_dirty after running; queueing must mark it
    # *now* so a distributed runtime's on-demand exchange check (which runs
    # before the next loop is even queued) still sees the pending write
    mark_written(item.written)

    st = _state
    st.queue.append(item)
    _active_add(1)
    if len(st.queue) >= QUEUE_LIMIT:
        flush("queue_limit")


def enqueue(
    kernel: Callable,
    block,
    ranges: list,
    args: Sequence,
    name: str,
    flops_per_point: int,
) -> None:
    """Queue one ``vec`` ``par_loop`` call.

    Validation runs here so malformed loops still fail at the call site,
    not at some distant flush.
    """
    from repro.ops.parloop import _validate

    _validate(block, ranges, args, name)
    push(build_record(kernel, block, ranges, args, name, flops_per_point))


def flush_point(reason: str = "observe") -> None:
    """Drain the calling thread's queue if it has one (observation hook).

    This is the function behind every transparent flush trigger; it is
    safe (and cheap) to call from hot paths — re-entrant calls during a
    flush, and calls from threads with empty queues, return immediately.
    """
    if ACTIVE:
        st = _state
        if st.queue and not st.flushing:
            flush(reason)


def flush(reason: str = "explicit") -> None:
    """Execute and clear the calling thread's queued loops, in order."""
    st = _state
    if st.flushing or not st.queue:
        return
    queue = st.queue
    st.queue = []
    _active_add(-len(queue))
    st.flushing = True
    try:
        _run_queue(queue, reason)
    finally:
        st.flushing = False


def abandon() -> None:
    """Drop the calling thread's queue without executing (dead-rank cleanup).

    Used by the simulated-MPI runtime when a rank thread is torn down by an
    injected failure: its queued tail must not execute (the eager program
    would have crashed before reaching it) and must not leak into the
    global ``ACTIVE`` count.
    """
    st = _state
    n = len(st.queue)
    if n:
        st.queue = []
        _active_add(-n)


def queued_loops() -> int:
    """Number of loops queued on the calling thread (tests/diagnostics)."""
    return len(_state.queue)


@contextlib.contextmanager
def lazy_scope(**overrides):
    """Run a block under ``lazy=True``, flushing on exit.

    >>> with lazy_scope(lazy_tile=(32, 32)):
    ...     app.step()
    """
    from repro.common.config import swap

    with swap(lazy=True, **overrides):
        try:
            yield
        finally:
            flush("scope_exit")


# -- chain-schedule cache -----------------------------------------------------


class _Chain(NamedTuple):
    """A cached chain schedule plus each group's modelled bytes saved."""

    schedule: ChainSchedule
    group_saved: tuple

    def still_valid(self) -> bool:
        return True  # the key holds every dat token: a replaced dat misses


def _describe(event: str, chain: _Chain) -> dict | None:
    """Attributes of the ``chain_miss`` instant (evictions are stats only)."""
    if event != "miss":
        return None
    s = chain.schedule
    return {"loops": s.n_loops, "groups": len(s.groups), "fused_tiles": s.fused_tiles}


chains = PlanCache("chain", "lazy", _describe)
chain_cache_stats = chains.stats
clear_chain_cache = chains.clear


def _group_bytes_saved(queue: list, loops: tuple) -> int:
    """Modelled DRAM traffic a fused group avoids, relative to eager.

    Eager execution streams every touched dat from memory once per loop;
    a fused tile's working set stays cache-resident across the group, so a
    dat touched by ``k`` loops of the group is streamed once instead of
    ``k`` times.  Each re-touch after the first saves one full stream of
    that loop's iteration footprint.
    """
    seen: set = set()
    saved = 0
    for li in loops:
        q = queue[li]
        n = 1
        for lo, hi in q.ranges:
            n *= max(hi - lo, 0)
        for tok, itemsize in q.dat_items:
            if tok in seen:
                saved += n * itemsize
            else:
                seen.add(tok)
    return saved


def _build_chain(queue: list, tile) -> _Chain:
    s = build_tile_schedule([q.spec for q in queue], tile_shape=tile)
    return _Chain(s, tuple(_group_bytes_saved(queue, g.loops) if g.fused else 0 for g in s.groups))


def _schedule_for(queue: list) -> _Chain:
    tile = get_config().lazy_tile
    key = (tuple(q.sig for q in queue), tuple(tile) if tile else None)
    return chains.get(key, _build_chain, queue, tile)


# -- flush execution ----------------------------------------------------------


def _execute_whole(q: QueuedLoop) -> None:
    from repro.ops.parloop import _execute_loop

    _execute_loop(
        q.kernel, q.block, q.ranges, q.args, "vec", q.name,
        q.flops_per_point, False, q.pin,
    )


def _plan_for(q: QueuedLoop):
    """The loop's compiled plan — the one an eager call of the site replays."""
    from repro.ops import execplan

    args = (q.kernel, q.block, q.ranges, q.args, q.name, q.flops_per_point)
    if q.pin is None:
        return execplan.lookup(*args)
    return q.pin.fetch(execplan.lookup, *args)


def _run_queue(queue: list, reason: str) -> None:
    counters = active_counters()
    counters.record_lazy_flush(len(queue))
    trc = _trace.ACTIVE
    span = (
        trc.begin("lazy_flush", "lazy", reason=reason, loops=len(queue))
        if trc is not None
        else None
    )
    try:
        if observers_active() or not get_config().use_execplan:
            # whole-loop replay in program order, no fusion.  Observers: one
            # installed from *another* thread after these loops queued
            # (installation on this thread would have drained them) must
            # see one notify per loop, with state at each event identical
            # to eager execution.  Compiled path off: a tile is a sub-range
            # replay of a compiled plan, so there is nothing to slice
            for q in queue:
                _execute_whole(q)
            return
        schedule, group_saved = _schedule_for(queue)
        for gi, group in enumerate(schedule.groups):
            members = [queue[li] for li in group.loops]
            # one fetch per queued loop per flush (a pinned plan, or a
            # lookup): tile bounds are run-time arguments, never a plan key
            plans = [_plan_for(q) for q in members] if group.fused else None
            if plans is None or None in plans:
                for q in members:
                    _execute_whole(q)
                continue
            counters.record_lazy_group(group.n_tiles, group_saved[gi])
            for t_idx, tile in enumerate(group.tiles):
                tspan = (
                    trc.begin("lazy_tile", "lazy", tile=t_idx, loops=len(tile))
                    if trc is not None
                    else None
                )
                try:
                    for entry in tile:
                        plans[entry.loop].execute(members[entry.loop].args, entry.ranges)
                finally:
                    if tspan is not None:
                        trc.end(tspan)
    finally:
        if span is not None:
            trc.end(span)
