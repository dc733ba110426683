"""Automatic checkpoint-restart driver for SPMD jobs.

One restart loop serves two executors: :func:`run_resilient_spmd` runs the
ranks as threads under :func:`repro.simmpi.run_spmd` (an optional
:class:`~repro.resilience.faults.FaultPlan` injects failures), and
:func:`run_resilient_spmd_mp` runs them as forked workers under
:func:`repro.mp.run_spmd_mp` (failures are real deaths).  Only the launcher
that builds each attempt's world differs; the loop composes:

* one :class:`~repro.checkpoint.manager.CheckpointManager` per rank
  (installed as a rank-local loop observer) writing coordinated rounds of
  :class:`~repro.checkpoint.store.FileStore` checkpoints every
  ``frequency`` loops;
* after a detected failure the world is torn down, job state rebuilt, and
  every rank fast-forwards through a
  :class:`~repro.checkpoint.manager.RecoveryReplayer` to the latest round
  flushed by *all* ranks, then resumes normal execution.

Ranks checkpoint without synchronising: determinism makes the rounds
coordinated (every rank's round k enters at the same loop index), but a
crash can interrupt some ranks before they flush round k — recovery
therefore uses the newest round completed by every rank, verified to agree
on the entry index.  Restarts are bounded by ``max_restarts``; resilience
counters (faults injected, drops, retries, restarts, time in recovery)
accumulate across attempts and land in the returned result's
:class:`~repro.common.counters.PerfCounters`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.checkpoint.manager import CheckpointManager, RecoveryReplayer
from repro.checkpoint.store import FileStore, latest_common_round, round_glob, round_path
from repro.common.counters import PerfCounters
from repro.common.errors import ResilienceError
from repro.resilience.detection import RetryPolicy
from repro.resilience.faults import FaultPlan
from repro.simmpi.comm import DeadlockError
from repro.simmpi.executor import World, run_spmd
from repro.telemetry import tracer as _trace


class SpmdJob:
    """A restartable SPMD job: state factory plus per-rank body.

    ``setup`` must be deterministic — after a crash the driver rebuilds the
    job from scratch and replays it, so a fresh state that differs from the
    crashed one would diverge from the fault-free run.
    """

    def setup(self) -> Any:
        """Build fresh job state (app, partitioned mesh, ...); one call per attempt."""
        raise NotImplementedError

    def rank_main(self, comm, state) -> Any:
        """The SPMD body executed on every rank; returns the rank's result."""
        raise NotImplementedError

    def datasets(self, rank: int, state) -> dict[str, Any]:
        """Live per-rank dataset refs (name -> Dat) for checkpoint recovery."""
        raise NotImplementedError

    def globals_(self, rank: int, state) -> dict[str, Any]:
        """Live per-rank global refs (name -> Global) for recovery; optional."""
        return {}


@dataclass
class ResilientResult:
    """Outcome of a resilient run."""

    results: list  #: per-rank return values of the successful attempt
    restarts: int  #: failures recovered from
    attempts: int  #: total attempts (restarts + 1)
    recovered_rounds: list[int]  #: checkpoint round used by each restart (-1 = from scratch)
    counters: PerfCounters  #: aggregate over all attempts, incl. resilience counters


def run_resilient_spmd(
    nranks: int,
    job: SpmdJob,
    *,
    ckpt_dir: str | Path,
    frequency: int | None = None,
    plan: FaultPlan | None = None,
    retry: RetryPolicy | None = RetryPolicy(),
    max_restarts: int = 3,
) -> ResilientResult:
    """Run ``job`` over ``nranks`` simulated ranks, surviving injected failures.

    ``frequency`` is the checkpoint cadence in loops (None disables
    checkpointing, so every restart replays from scratch).  ``plan`` injects
    faults; ``retry`` masks transient message drops at the send site.
    Raises :class:`ResilienceError` once ``max_restarts`` is exceeded, and
    re-raises immediately on non-simulated (organic) errors.
    """

    def launch(state, attempt):
        world = World(nranks, fault_plan=plan, retry=retry)
        if plan is not None:
            plan.begin_attempt()
        return world, lambda body: run_spmd(nranks, body, world=world)

    return _restart_loop(nranks, job, Path(ckpt_dir), frequency, max_restarts, launch)


def run_resilient_spmd_mp(
    nranks: int,
    job: SpmdJob,
    *,
    ckpt_dir: str | Path,
    frequency: int | None = None,
    max_restarts: int = 3,
    share_dats: bool = True,
    on_attempt_start: Callable[[int, list[int]], None] | None = None,
) -> ResilientResult:
    """Run ``job`` over ``nranks`` worker processes, surviving real deaths.

    The multi-process twin of :func:`run_resilient_spmd`: a SIGKILLed
    worker surfaces as a :class:`~repro.common.errors.WorkerDiedError` and
    the world restarts from the latest round on shared disk.  Managers and
    replayers are installed inside each forked worker, so loop observers
    stay process-local.  ``share_dats`` moves every rank's checkpoint
    datasets onto shared-memory segments for the run.  ``on_attempt_start``
    receives ``(attempt_number, worker_pids)`` once an attempt's ranks are
    forked — the hook resilience tests use to aim a SIGKILL at a live
    worker.
    """
    from repro.mp.executor import MpWorld, run_spmd_mp

    def launch(state, attempt):
        world = MpWorld(nranks)
        shared = [
            d for r in range(nranks) for d in job.datasets(r, state).values()
        ] if share_dats else []
        on_start = None
        if on_attempt_start is not None:
            def on_start(pids):
                on_attempt_start(attempt, pids)

        return world, lambda body: run_spmd_mp(
            nranks, body, world=world, shared_dats=shared or None, on_start=on_start,
        )

    return _restart_loop(nranks, job, Path(ckpt_dir), frequency, max_restarts, launch)


def _restart_loop(
    nranks: int,
    job: SpmdJob,
    ckpt_dir: Path,
    frequency: int | None,
    max_restarts: int,
    launch: Callable,
) -> ResilientResult:
    """Attempt, classify the failure, recover from the latest round, retry.

    ``launch(state, attempt)`` builds one attempt's world and returns
    ``(world, run)``; ``run(rank_body)`` executes the ranks and returns
    their results.
    """
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    for stale in round_glob(ckpt_dir):
        stale.unlink()

    aggregate = PerfCounters()
    restarts = 0
    recovered_rounds: list[int] = []

    while True:
        attempt_start = time.perf_counter()
        state = job.setup()
        recovery = latest_common_round(ckpt_dir, nranks) if restarts else None
        # a crash can leave ranks with different flushed-round counts; restart
        # the numbering past every existing file so rank rounds stay aligned
        # (round k always means the same entry loop on every rank)
        existing = [int(p.stem.split("-n")[1]) for p in round_glob(ckpt_dir)]
        base = max(existing) + 1 if existing else 0
        next_round = {r: base for r in range(nranks)}

        def rank_body(comm, _state=state, _recovery=recovery, _next=next_round):
            # runs on the rank's thread or inside its forked worker: observers
            # and stores stay rank-local, only the flushed .npz files are shared
            rank = comm.rank
            replayer = None
            manager = None
            if _recovery is not None:
                store = FileStore.load(round_path(ckpt_dir, rank, _recovery[0]))
                replayer = RecoveryReplayer(
                    store, job.datasets(rank, _state), job.globals_(rank, _state)
                )
                replayer.install(local=True)
            if frequency is not None:

                def flush_round(mgr, _rank=rank):
                    round_no = _next[_rank]
                    mgr.store.path = round_path(ckpt_dir, _rank, round_no)
                    mgr.store.flush()
                    _next[_rank] = round_no + 1
                    mgr.restart(FileStore(round_path(ckpt_dir, _rank, round_no + 1)))

                manager = CheckpointManager(
                    FileStore(round_path(ckpt_dir, rank, _next[rank])),
                    frequency=frequency,
                    on_complete=flush_round,
                )
                if replayer is not None:
                    # carry the recovered global series into the new round so
                    # a later recovery can replay globals from loop 0
                    for name, series in replayer.store.globals.items():
                        for idx, val in series:
                            manager.store.record_global(name, idx, val)
                manager.install(local=True)
            try:
                return job.rank_main(comm, _state)
            finally:
                if manager is not None:
                    manager.remove()
                if replayer is not None:
                    replayer.remove()

        world, run = launch(state, restarts + 1)
        try:
            results = run(rank_body)
        except (RuntimeError, ResilienceError, DeadlockError) as err:
            aggregate.merge(world.total_counters())
            cause = err.__cause__ if isinstance(err, RuntimeError) else err
            if not isinstance(cause, (ResilienceError, DeadlockError)):
                raise  # an organic bug, not a simulated failure or worker death
            restarts += 1
            aggregate.record_restart(time.perf_counter() - attempt_start)
            if restarts > max_restarts:
                raise ResilienceError(
                    f"giving up after {max_restarts} restart(s); last failure: {cause}"
                ) from err
            available = latest_common_round(ckpt_dir, nranks)
            recovered_rounds.append(available[0] if available is not None else -1)
            trc = _trace.ACTIVE
            if trc is not None:
                trc.instant(
                    "restart", "resilience",
                    attempt=restarts + 1,
                    recovered_round=recovered_rounds[-1],
                    cause=type(cause).__name__,
                )
            continue

        aggregate.merge(world.total_counters())
        return ResilientResult(
            results=results,
            restarts=restarts,
            attempts=restarts + 1,
            recovered_rounds=recovered_rounds,
            counters=aggregate,
        )
