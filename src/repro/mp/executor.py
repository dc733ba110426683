"""Multi-process SPMD executor: real worker processes hosting ranks.

Drop-in alternative to :func:`repro.simmpi.executor.run_spmd` — same
signature plus multi-process extras — with the deterministic in-process
executor kept as the verification oracle (``diff_backends`` across the two
must be bitwise-identical).

Workers are forked, so the rank function, the decomposed app state and the
configuration travel by inheritance: nothing needs to be picklable except
message payloads and per-rank return values.  Each child builds a
:class:`SimComm` over the shared :class:`~repro.mp.transport.ProcessTransport`,
runs the rank body under its own counter scope, then ships
``(result, PerfCounters)`` back over a dedicated result pipe.

The supervisor (the parent) waits on result pipes and process sentinels
together.  A worker that dies without reporting — SIGKILL, OOM, segfault —
trips its sentinel: the supervisor marks the rank failed in the shared
flags (peers then raise :class:`RankFailedError` within one poll interval),
drains the corpse's incoming pipes so blocked senders are released, and
records a :class:`WorkerDiedError` carrying the exit code for the
resilient driver to classify.
"""

from __future__ import annotations

import ctypes
import multiprocessing as _mp
import os
import signal
import sys
from multiprocessing import connection as _mpc
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.common.config import get_config
from repro.common.counters import PerfCounters
from repro.common.errors import RankFailedError, ReproError, WorkerDiedError
from repro.common.profiling import active_counters, counters_scope
from repro.mp.shm import DatArena
from repro.mp.transport import ProcessTransport
from repro.native.plan import single_team
from repro.simmpi.comm import SimComm, _WorldState
from repro.telemetry import tracer as _trace


class MpWorld:
    """A multi-process MPI world of ``size`` ranks.

    Mirrors :class:`repro.simmpi.executor.World` (``counters``,
    ``failed_ranks``, ``total_counters``) and adds the process handles:
    ``pids`` once the run has started, and :meth:`kill` for resilience
    tests that murder a live worker.

    Single-use: the pipe fabric is consumed by one run.
    """

    def __init__(self, size: int, *, poll_interval: float | None = None):
        if size < 1:
            raise ValueError("world size must be >= 1")
        self.size = size
        self.transport = ProcessTransport(size, poll_interval=poll_interval)
        self.counters = [PerfCounters() for _ in range(size)]
        self.pids: list[int | None] = [None] * size
        self._used = False

    @property
    def failed_ranks(self) -> set[int]:
        """Ranks that died during the last run (organic or killed)."""
        return set(self.transport.failed)

    def total_counters(self) -> PerfCounters:
        """Merge all per-rank counters into one aggregate."""
        total = PerfCounters()
        for c in self.counters:
            total.merge(c)
        return total

    def kill(self, rank: int, sig: int = signal.SIGKILL) -> None:
        """Send a signal to a live worker (resilience tests)."""
        pid = self.pids[rank]
        if pid is None:
            raise ReproError(f"rank {rank} has no live worker process")
        os.kill(pid, sig)


#: prctl(2) option: the signal a process receives when its parent dies
_PR_SET_PDEATHSIG = 1


def _die_with_parent(parent: int) -> None:
    """SIGKILL this worker when ``parent`` (the forking process) dies.

    ``daemon=True`` reaps workers only on a clean parent exit; a killed
    parent would leave them running as orphans.  Linux arms a parent-death
    signal; the ``getppid`` check closes the window in which the parent
    died before the signal was armed (the worker is already reparented).
    """
    if sys.platform.startswith("linux"):
        try:
            ctypes.CDLL(None, use_errno=True).prctl(
                _PR_SET_PDEATHSIG, int(signal.SIGKILL), 0, 0, 0
            )
        except (OSError, AttributeError):
            pass
    if os.getppid() != parent:
        os._exit(1)


def _child_main(
    rank: int,
    fn: Callable[..., Any],
    args: tuple,
    extra: tuple,
    world: MpWorld,
    result_conn,
    trace_dir: str | None,
    parent: int,
) -> None:
    """Rank body wrapper executed inside the forked worker."""
    from repro.ops import lazy as _ops_lazy

    _die_with_parent(parent)

    counters = PerfCounters()
    if trace_dir is not None:
        # a fresh ring: the parent's pre-fork events must not be re-exported
        # from every worker
        _trace.enable(_trace.Tracer())
    trc = _trace.ACTIVE
    if trc is not None:
        trc.set_rank(rank)
    comm = SimComm(
        _WorldState(
            size=world.size,
            transport=world.transport,
            failed=world.transport.failed,
        ),
        rank,
        counters,
    )
    code = 0
    try:
        # native loops on one thread: the worker processes are the
        # parallelism (and libgomp is not fork-safe)
        with counters_scope(counters), single_team():
            result = fn(comm, *args, *extra)
            # same observation point as the thread executor: loops queued
            # lazily by the rank body must land inside the worker
            _ops_lazy.flush_point("rank_return")
        payload: dict[str, Any] = {"ok": True, "result": result}
    except BaseException as exc:  # noqa: BLE001 - shipped to the supervisor
        _ops_lazy.abandon()
        # flag first so peers fail fast even while we serialise the report
        world.transport.failed.add(rank)
        payload = {"ok": False, "error": exc}
        code = 1
    payload["counters"] = counters
    payload["pid"] = os.getpid()
    if trace_dir is not None and trc is not None:
        path = Path(trace_dir) / f"trace-rank{rank:03d}.jsonl"
        try:
            from repro.telemetry.export import write_jsonl

            Path(trace_dir).mkdir(parents=True, exist_ok=True)
            write_jsonl(path, trc.events(), pid=os.getpid())
        except Exception:  # noqa: BLE001 - tracing must never kill a rank
            pass
    try:
        result_conn.send(payload)
    except Exception:  # noqa: BLE001 - unpicklable result/exception
        try:
            fallback = dict(payload)
            if payload["ok"]:
                fallback["ok"] = False
                fallback["error"] = ReproError(
                    f"rank {rank}: return value is not picklable "
                    f"({type(payload['result']).__name__})"
                )
                fallback.pop("result", None)
            else:
                fallback["error"] = ReproError(repr(payload["error"]))
            result_conn.send(fallback)
            code = 1
        except Exception:  # noqa: BLE001 - give up; sentinel reports the death
            code = 1
    sys.exit(code)


def run_spmd_mp(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    world: MpWorld | None = None,
    rank_args: Sequence[tuple] | None = None,
    shared_dats: Sequence[Any] | None = None,
    trace_dir: str | None = None,
    on_start: Callable[[list[int]], None] | None = None,
) -> list[Any]:
    """Run ``fn(comm, *args)`` on every rank, each in its own process.

    Same contract as :func:`repro.simmpi.executor.run_spmd` — per-rank
    return values in rank order, root-cause error selection — with three
    extras: ``shared_dats`` moves the listed dats onto shared-memory
    segments for the duration of the run (workers' writes become visible to
    the parent; the dats come back on private storage holding the final
    values), ``trace_dir`` makes each worker export its telemetry ring to
    ``trace-rank<NNN>.jsonl`` (default: ``REPRO_MP_TRACE_DIR``), and
    ``on_start`` receives the worker pids once all ranks are forked.

    Every rank runs in a forked worker even for ``nranks == 1`` — the
    executor's job is to exercise the real path, not to optimise it away.

    Per-rank :class:`PerfCounters` are shipped back and merged into
    ``world.counters``; for an auto-created world the aggregate is also
    folded into the caller's active counter scope so a subsequent
    ``timing_report()`` covers the whole multi-process run.
    """
    if _mp.get_start_method(allow_none=False) != "fork" and not hasattr(os, "fork"):
        raise ReproError("run_spmd_mp requires a fork-capable platform")
    auto_world = world is None
    if world is None:
        world = MpWorld(nranks)
    elif world.size != nranks:
        raise ValueError("world size does not match nranks")
    if world._used:
        raise ReproError("MpWorld is single-use; build a fresh world per run")
    world._used = True
    if trace_dir is None:
        trace_dir = get_config().mp_trace_dir

    # queued lazy loops belong to the parent program: land them before the
    # children inherit (and would re-execute) the queue
    from repro.ops import lazy as _ops_lazy

    _ops_lazy.flush_point("mp_fork")

    arena: DatArena | None = None
    if shared_dats:
        arena = DatArena()
        arena.share_all(shared_dats)

    ctx = _mp.get_context("fork")
    readers: list[Any] = []
    procs: list[Any] = []
    try:
        writers: list[Any] = []
        for rank in range(nranks):
            r, w = ctx.Pipe(duplex=False)
            readers.append(r)
            writers.append(w)
        for rank in range(nranks):
            extra = tuple(rank_args[rank]) if rank_args is not None else ()
            proc = ctx.Process(
                target=_child_main,
                args=(rank, fn, args, extra, world, writers[rank], trace_dir, os.getpid()),
                name=f"repro-mp-rank-{rank}",
                daemon=True,
            )
            procs.append(proc)
        for proc in procs:
            proc.start()
        for w in writers:
            w.close()  # children hold the write ends now
        world.pids = [p.pid for p in procs]
        if on_start is not None:
            on_start(list(world.pids))

        results, errors = _supervise(world, procs, readers)
    finally:
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            if p.pid is not None:
                p.join(timeout=5.0)
        for r in readers:
            try:
                r.close()
            except OSError:
                pass
        world.transport.close()
        world.pids = [None] * nranks
        if arena is not None:
            arena.release()

    if auto_world:
        active_counters().merge(world.total_counters())

    if errors:
        organic = [
            e for e in errors
            if not isinstance(e[1], (RankFailedError, WorkerDiedError))
        ]
        died = [e for e in errors if isinstance(e[1], WorkerDiedError)]
        rank, exc = sorted(organic or died or errors, key=lambda e: e[0])[0]
        raise RuntimeError(f"rank {rank} failed: {exc!r}") from exc
    return results


def _supervise(
    world: MpWorld, procs: list, readers: list
) -> tuple[list[Any], list[tuple[int, BaseException]]]:
    """Wait for every rank to report or die; detect and flag real deaths."""
    nranks = world.size
    results: list[Any] = [None] * nranks
    errors: list[tuple[int, BaseException]] = []
    pending = set(range(nranks))
    reader_rank = {id(r): rank for rank, r in enumerate(readers)}
    sentinel_rank = {p.sentinel: rank for rank, p in enumerate(procs)}
    reported: set[int] = set()

    while pending:
        waitees = [readers[r] for r in pending if r not in reported]
        waitees += [procs[r].sentinel for r in pending]
        ready = _mpc.wait(waitees, timeout=world.transport._poll())
        for obj in ready:
            rank = reader_rank.get(id(obj))
            if rank is not None:
                try:
                    payload = obj.recv()
                except (EOFError, OSError):
                    # died between flagging and reporting: sentinel handles it
                    reported.add(rank)
                    continue
                reported.add(rank)
                pending.discard(rank)
                world.counters[rank].merge(payload.get("counters") or PerfCounters())
                if payload["ok"]:
                    results[rank] = payload["result"]
                else:
                    errors.append((rank, payload["error"]))
                continue
            rank = sentinel_rank.get(obj)
            if rank is None or rank not in pending:
                continue
            # the process is gone; give a raced-in result one chance to land
            try:
                if readers[rank].poll(0):
                    continue  # next loop iteration recv()s it
            except (EOFError, OSError):
                pass
            pending.discard(rank)
            procs[rank].join(timeout=1.0)
            exitcode = procs[rank].exitcode
            world.transport.failed.add(rank)
            errors.append((
                rank,
                WorkerDiedError(
                    f"rank {rank}: worker process died without reporting "
                    f"(exitcode {exitcode})",
                    rank=rank,
                    exitcode=exitcode,
                ),
            ))
        # release peers blocked on a dead rank's full pipes
        for dead in world.transport.failed:
            world.transport.drain_dead(dead)
    return results, errors
