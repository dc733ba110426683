"""Communicator for the in-process MPI simulator.

Each rank runs in its own thread; every rank owns a mailbox (a list of
message envelopes guarded by a condition variable).  ``send`` deposits a
deep-ish copy of the payload into the destination mailbox; ``recv`` blocks
until a matching (source, tag) envelope arrives.  NumPy payloads are copied
so ranks cannot alias each other's memory — the same isolation real MPI
gives you.

A configurable timeout (``repro.common.config``'s ``deadlock_timeout``)
turns an MPI deadlock (mismatched send/recv) into a :class:`DeadlockError`
instead of a hung test suite.

Resilience hooks: a world may carry a fault plan (see
:mod:`repro.resilience.faults`) consulted on every send, and a shared
``failed`` rank set.  Once a rank is marked failed, peers communicating
with it raise :class:`RankFailedError` promptly instead of waiting out the
deadlock timeout.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
# bound once at import: monotonic runs on every blocking-receive wakeup
from time import monotonic as _monotonic
from time import sleep as _sleep
from typing import Any, Callable, Optional

import numpy as np

from repro.common.config import get_config
from repro.common.counters import PerfCounters
from repro.common.errors import MessageLostError, RankFailedError, ReproError
from repro.telemetry import tracer as _trace

#: matches any source / any tag, like MPI_ANY_SOURCE / MPI_ANY_TAG
ANY = -1

#: fallback seconds a blocking receive waits before declaring deadlock;
#: the live value is ``get_config().deadlock_timeout``
DEADLOCK_TIMEOUT = 60.0


class DeadlockError(ReproError):
    """A blocking operation timed out: the simulated job has deadlocked."""


def _deadlock_timeout(timeout: float | None) -> float:
    """Resolve an explicit timeout against the configured default."""
    return get_config().deadlock_timeout if timeout is None else timeout


def _payload_nbytes(obj: Any) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (list, tuple)):
        return sum(_payload_nbytes(o) for o in obj)
    return 8  # scalars / small python objects: count a word


def _copy_payload(obj: Any) -> Any:
    """Copy array payloads so sender and receiver never alias."""
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, list):
        return [_copy_payload(o) for o in obj]
    if isinstance(obj, tuple):
        return tuple(_copy_payload(o) for o in obj)
    if isinstance(obj, dict):
        return {k: _copy_payload(v) for k, v in obj.items()}
    return obj


@dataclass
class _Envelope:
    src: int
    tag: int
    payload: Any


class _Mailbox:
    """Thread-safe matching queue of envelopes for one rank."""

    def __init__(self) -> None:
        self._messages: list[_Envelope] = []
        self._cond = threading.Condition()

    def put(self, env: _Envelope) -> None:
        with self._cond:
            self._messages.append(env)
            self._cond.notify_all()

    def _find(self, src: int, tag: int) -> Optional[int]:
        for i, env in enumerate(self._messages):
            if (src == ANY or env.src == src) and (tag == ANY or env.tag == tag):
                return i
        return None

    def get(
        self,
        src: int,
        tag: int,
        timeout: float,
        failed: set[int] | None = None,
    ) -> _Envelope:
        """Pop the first matching envelope, waiting up to ``timeout`` seconds.

        Waits on the remaining deadline (woken by :meth:`put` and by failure
        notifications) rather than polling.  When ``failed`` is given and the
        awaited source — or, for ANY-source receives, any rank — has failed
        with no matching message pending, raises :class:`RankFailedError`
        immediately: a contribution from a dead rank can never arrive.
        """
        limit = threading.TIMEOUT_MAX if timeout is None else timeout
        deadline = _monotonic() + limit
        with self._cond:
            while True:
                idx = self._find(src, tag)
                if idx is not None:
                    return self._messages.pop(idx)
                if failed:
                    if src in failed:
                        raise RankFailedError(
                            f"recv(src={src}, tag={tag}): rank {src} has failed"
                        )
                    if src == ANY:
                        raise RankFailedError(
                            f"recv(src=ANY, tag={tag}): rank(s) "
                            f"{sorted(failed)} failed with no message pending"
                        )
                remaining = deadline - _monotonic()
                if remaining <= 0:
                    raise DeadlockError(
                        f"recv(src={src}, tag={tag}) timed out after {timeout}s"
                    )
                self._cond.wait(timeout=min(remaining, threading.TIMEOUT_MAX))

    def probe(self, src: int, tag: int) -> bool:
        with self._cond:
            return self._find(src, tag) is not None

    def wake(self) -> None:
        """Wake blocked receivers (e.g. so they notice a rank failure)."""
        with self._cond:
            self._cond.notify_all()


class ThreadTransport:
    """In-process transport: one mailbox per rank plus a shared thread barrier.

    This is the reference implementation of the transport protocol shared
    with :class:`repro.mp.transport.ProcessTransport`: ``deliver`` must copy
    (or otherwise un-alias) the payload, ``collect`` must honour the
    deadlock timeout and the failed-rank set with :class:`_Mailbox.get`'s
    exact semantics, and ``barrier_wait`` must synchronise all live ranks.
    """

    def __init__(self, size: int):
        self.size = size
        self.mailboxes = [_Mailbox() for _ in range(size)]
        self.barrier = threading.Barrier(size)

    def deliver(self, src: int, dest: int, tag: int, payload: Any) -> None:
        self.mailboxes[dest].put(_Envelope(src, tag, _copy_payload(payload)))

    def collect(
        self, rank: int, src: int, tag: int, timeout: float, failed=None
    ) -> _Envelope:
        return self.mailboxes[rank].get(src, tag, timeout, failed=failed)

    def probe(self, rank: int, src: int, tag: int) -> bool:
        return self.mailboxes[rank].probe(src, tag)

    def barrier_wait(self, rank: int) -> None:
        self.barrier.wait()

    def wake_all(self) -> None:
        """Wake blocked receivers (e.g. so they notice a rank failure)."""
        for mb in self.mailboxes:
            mb.wake()

    def abort(self) -> None:
        """Break any current/future barrier so a dead world can be reaped."""
        self.barrier.abort()


class Request:
    """Handle for a non-blocking operation (completed lazily on wait/test)."""

    def __init__(self, fn: Callable[[], Any]):
        self._fn = fn
        self._done = False
        self._result: Any = None

    def wait(self) -> Any:
        if not self._done:
            self._result = self._fn()
            self._done = True
        return self._result

    def test(self) -> tuple[bool, Any]:
        """Non-destructive completion test (best-effort for recv)."""
        if self._done:
            return True, self._result
        return False, None


@dataclass
class _WorldState:
    """Shared state for one simulated world (all ranks)."""

    size: int
    #: message fabric: ThreadTransport here, ProcessTransport in repro.mp
    transport: Any
    coll_lock: threading.Lock = field(default_factory=threading.Lock)
    coll_slots: dict[tuple[int, str], list] = field(default_factory=dict)
    coll_seq: dict[str, int] = field(default_factory=dict)
    #: ranks that have died (injected kill or organic exception); the mp
    #: executor substitutes a shared-memory set-alike view here
    failed: Any = field(default_factory=set)
    #: optional repro.resilience.faults.FaultPlan consulted on sends/loops
    fault_plan: Any = None
    #: optional repro.resilience.detection.RetryPolicy for transient faults
    retry: Any = None

    def mark_failed(self, rank: int) -> None:
        """Record a rank's death and wake every blocked receiver."""
        self.failed.add(rank)
        self.transport.wake_all()


def _fold_min(a, b):
    # np.minimum's fold (the ops.Reduction and native semantics): the first
    # NaN met is kept and a tie goes to the later operand; the builtin min
    # drops a NaN that is not first.  Scalars stay the caller's type
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.minimum(a, b)
    return a if a != a or a < b else b


def _fold_max(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return a if a != a or a > b else b


_REDUCE_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": lambda a, b: a + b,
    "min": _fold_min,
    "max": _fold_max,
    "prod": lambda a, b: a * b,
}


class SimComm:
    """Per-rank communicator handle over a shared world state.

    The collective algorithms are implemented on top of point-to-point
    messages through rank 0 (gather+bcast shape).  That is slower than a
    tree but keeps reduction order deterministic: contributions are always
    combined in rank order.
    """

    # collective tags live in a reserved high range
    _TAG_COLL = 1 << 20

    def __init__(self, world: _WorldState, rank: int, counters: PerfCounters | None = None):
        self._world = world
        self.rank = rank
        self.size = world.size
        self.counters = counters if counters is not None else PerfCounters()
        self._coll_round = 0

    # -- point-to-point ----------------------------------------------------

    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        """Deposit a message; copies array payloads (buffered send semantics).

        Sends to a failed rank raise :class:`RankFailedError` at once.  When
        the world carries a fault plan, matching message faults fire here:
        drops are retried under the world's retry policy (the plan is
        re-consulted per attempt, so a fault with ``times=k`` passes after k
        drops); with no policy — or once it is exhausted and the fault still
        fires — the message is lost and :class:`MessageLostError` is raised
        if a policy was in play, otherwise the loss stays silent (receiver-
        side detection via the deadlock timeout).
        """
        if not (0 <= dest < self.size):
            raise ValueError(f"invalid destination rank {dest}")
        st = self._world
        if dest in st.failed:
            raise RankFailedError(f"send(dest={dest}, tag={tag}): rank {dest} has failed")
        copies = 1
        if st.fault_plan is not None:
            attempts = 0
            while True:
                fault = st.fault_plan.on_send(self.rank, dest, tag, self.counters)
                if fault is None:
                    break
                if fault.kind == "drop":
                    retry = st.retry
                    if retry is not None:
                        if attempts >= retry.max_retries:
                            raise MessageLostError(
                                f"send(dest={dest}, tag={tag}) dropped "
                                f"{attempts + 1} times; retries exhausted"
                            )
                        _sleep(retry.delay(attempts))
                        attempts += 1
                        self.counters.record_message_retried()
                        continue
                    return  # silent loss: nobody is watching this send
                if fault.kind == "delay":
                    _sleep(fault.seconds)
                    break
                if fault.kind == "duplicate":
                    copies = 2
                    break
                raise ValueError(f"unknown message-fault kind {fault.kind!r}")
        nbytes = _payload_nbytes(payload)
        trc = _trace.ACTIVE
        if trc is not None:
            trc.instant("mpi_send", "mpi", dest=dest, tag=tag, bytes=nbytes)
        for _ in range(copies):
            self.counters.record_message(nbytes)
            st.transport.deliver(self.rank, dest, tag, payload)

    def _get_env(self, source: int, tag: int, timeout: float | None) -> _Envelope:
        """Blocking mailbox pop, recorded as an ``mpi_recv`` span when traced.

        The span covers the whole blocking wait — the "wait time" the report
        CLI attributes to halo exchanges or general communication.
        """
        trc = _trace.ACTIVE
        if trc is None:
            return self._world.transport.collect(
                self.rank, source, tag, _deadlock_timeout(timeout),
                failed=self._world.failed,
            )
        span = trc.begin("mpi_recv", "mpi", src=source, tag=tag)
        try:
            return self._world.transport.collect(
                self.rank, source, tag, _deadlock_timeout(timeout),
                failed=self._world.failed,
            )
        finally:
            trc.end(span)

    def recv(self, source: int = ANY, tag: int = ANY, timeout: float | None = None) -> Any:
        return self._get_env(source, tag, timeout).payload

    def isend(self, payload: Any, dest: int, tag: int = 0) -> Request:
        # buffered sends complete immediately
        self.send(payload, dest, tag)
        return Request(lambda: None)

    def irecv(self, source: int = ANY, tag: int = ANY) -> Request:
        return Request(lambda: self.recv(source, tag))

    def sendrecv(self, payload: Any, dest: int, source: int, tag: int = 0) -> Any:
        self.send(payload, dest, tag)
        return self.recv(source, tag)

    def probe(self, source: int = ANY, tag: int = ANY) -> bool:
        return self._world.transport.probe(self.rank, source, tag)

    # -- collectives --------------------------------------------------------

    def barrier(self) -> None:
        trc = _trace.ACTIVE
        if trc is None:
            self._world.transport.barrier_wait(self.rank)
            return
        span = trc.begin("mpi_barrier", "mpi")
        try:
            self._world.transport.barrier_wait(self.rank)
        finally:
            trc.end(span)

    def _next_tag(self) -> int:
        # every collective call consumes one tag slot; SPMD code calls
        # collectives in the same order on every rank so the counters agree
        tag = self._TAG_COLL + self._coll_round
        self._coll_round += 1
        return tag

    def bcast(self, payload: Any, root: int = 0) -> Any:
        tag = self._next_tag()
        if self.rank == root:
            for r in range(self.size):
                if r != root:
                    self.send(payload, r, tag)
            return _copy_payload(payload)
        return self.recv(root, tag)

    def gather(self, payload: Any, root: int = 0) -> Optional[list]:
        tag = self._next_tag()
        if self.rank == root:
            out: list = [None] * self.size
            out[root] = _copy_payload(payload)
            for _ in range(self.size - 1):
                env = self._get_env(ANY, tag, None)
                out[env.src] = env.payload
            return out
        self.send(payload, root, tag)
        return None

    def allgather(self, payload: Any) -> list:
        gathered = self.gather(payload, root=0)
        return self.bcast(gathered, root=0)

    def scatter(self, payloads: Optional[list], root: int = 0) -> Any:
        tag = self._next_tag()
        if self.rank == root:
            if payloads is None or len(payloads) != self.size:
                raise ValueError("scatter root must supply one payload per rank")
            for r in range(self.size):
                if r != root:
                    self.send(payloads[r], r, tag)
            return _copy_payload(payloads[root])
        return self.recv(root, tag)

    def reduce(self, payload: Any, op: str = "sum", root: int = 0) -> Any:
        if op not in _REDUCE_OPS:
            raise ValueError(f"unknown reduction op {op!r}")
        gathered = self.gather(payload, root=root)
        self.counters.record_reduction()
        if gathered is None:
            return None
        fn = _REDUCE_OPS[op]
        acc = gathered[0]
        for item in gathered[1:]:
            acc = fn(acc, item)
        return acc

    def allreduce(self, payload: Any, op: str = "sum") -> Any:
        result = self.reduce(payload, op=op, root=0)
        return self.bcast(result, root=0)

    def alltoall(self, payloads: list) -> list:
        if len(payloads) != self.size:
            raise ValueError("alltoall needs one payload per rank")
        tag = self._next_tag()
        for r in range(self.size):
            if r != self.rank:
                self.send(payloads[r], r, tag)
        out: list = [None] * self.size
        out[self.rank] = _copy_payload(payloads[self.rank])
        for _ in range(self.size - 1):
            env = self._get_env(ANY, tag, None)
            out[env.src] = env.payload
        return out

    # -- exchange helper used by halo code -----------------------------------

    def neighbor_exchange(self, sends: dict[int, Any], tag: int = 7) -> dict[int, Any]:
        """Exchange payloads with a set of neighbour ranks.

        ``sends`` maps neighbour rank -> payload.  Every rank must name the
        same neighbour relation symmetrically (if i sends to j, j sends to i),
        which is true for halo exchanges by construction.  Returns received
        payloads keyed by source rank.
        """
        for dest, payload in sends.items():
            self.send(payload, dest, tag)
        out: dict[int, Any] = {}
        for src in sends:
            out[src] = self.recv(src, tag)
        return out
