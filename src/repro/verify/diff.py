"""Cross-backend differential harness with first-diverging-loop localisation.

Every backend claims to implement the same loop semantics; the harness
makes that claim testable.  :func:`diff_backends` runs one application
callable once per backend while recording a :class:`LoopTrace` — after
each loop executes, copies of every written argument are captured (the
loop-observer hook fires *before* each loop, so the state seen at loop
``k+1`` is exactly the post-state of loop ``k``).  Final states are then
compared against the reference backend, bitwise by default or within a
:class:`Tolerance` (ULP bound and/or rtol/atol) where reduction order
legitimately moves, and any disagreement is localised to the **first loop
whose outputs differ** via :func:`first_divergence`.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.common.errors import ReproError
from repro.common.profiling import LoopEvent, add_loop_observer, remove_loop_observer


class BackendDivergence(ReproError):
    """Two backends produced different results; carries the localisation."""

    def __init__(self, message: str, divergence: "Divergence | None" = None):
        super().__init__(message)
        self.divergence = divergence


def max_ulp_diff(a, b) -> float:
    """Largest elementwise ULP distance between two float arrays.

    Returns ``inf`` on shape mismatch or NaN-pattern mismatch; matching
    NaNs count as zero distance.  Works by mapping IEEE-754 bit patterns to
    a monotonically ordered integer line, so the distance is exact for
    nearby values and a safe over-approximation for far-apart ones.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return float("inf")
    if a.size == 0:
        return 0.0
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    if (nan_a != nan_b).any():
        return float("inf")
    mask = ~nan_a
    if not mask.any():
        return 0.0
    ai = np.ascontiguousarray(a[mask]).view(np.int64)
    bi = np.ascontiguousarray(b[mask]).view(np.int64)
    min64 = np.int64(-(2**63))
    oa = np.where(ai < 0, min64 - ai, ai)
    ob = np.where(bi < 0, min64 - bi, bi)
    # int64 subtraction is exact but can wrap for opposite-extreme values;
    # the float approximation never wraps but drops low bits — trust the
    # exact path whenever the approximate magnitude says it cannot wrap
    approx = np.abs(oa.astype(np.float64) - ob.astype(np.float64))
    exact = np.abs((oa - ob).astype(np.float64))
    return float(np.max(np.where(approx < 2.0**52, exact, approx)))


@dataclass
class Tolerance:
    """Agreement criterion: bitwise by default, widened where asked.

    Arrays agree if they are bitwise equal, OR within ``ulp`` units in the
    last place, OR within ``np.allclose(rtol, atol)``.  The defaults (all
    zero) demand bitwise agreement.
    """

    ulp: int = 0
    rtol: float = 0.0
    atol: float = 0.0

    def arrays_agree(self, a, b) -> bool:
        a = np.asarray(a)
        b = np.asarray(b)
        if a.shape != b.shape:
            return False
        if np.array_equal(a, b, equal_nan=True):
            return True
        if self.ulp and max_ulp_diff(a, b) <= self.ulp:
            return True
        if (self.rtol or self.atol) and np.allclose(
            a, b, rtol=self.rtol, atol=self.atol, equal_nan=True
        ):
            return True
        return False


def _arg_value(ev) -> np.ndarray | None:
    """Copy the current value behind an ArgEvent (Dat/Global/Reduction)."""
    ref = ev.data_ref
    if ref is None:
        return None
    data = getattr(ref, "data", None)
    if data is not None:
        return np.array(data, copy=True)
    value = getattr(ref, "value", None)
    if value is not None:
        return np.asarray([value], dtype=np.float64)
    return None


@dataclass
class LoopDigest:
    """Post-execution snapshot of one loop's written arguments."""

    index: int
    name: str
    api: str
    written: dict[str, np.ndarray] = field(default_factory=dict)


class LoopTrace:
    """Observer recording, per executed loop, copies of its written args."""

    def __init__(self) -> None:
        self.records: list[LoopDigest] = []
        self._pending: LoopEvent | None = None

    # the observer fires *before* each loop body: the state visible now is
    # the post-state of the previously announced loop, read through that
    # call's own event (events are per call, so a reduction slot names the
    # handle that loop wrote)
    def _observe(self, event: LoopEvent) -> None:
        self._flush()
        self._pending = event

    def _flush(self) -> None:
        ev = self._pending
        self._pending = None
        if ev is None:
            return
        written: dict[str, np.ndarray] = {}
        for a in ev.args:
            if a.access.writes:
                value = _arg_value(a)
                if value is not None:
                    written[a.name] = value
        self.records.append(LoopDigest(len(self.records), ev.name, ev.api, written))

    @property
    def loop_names(self) -> list[str]:
        return [r.name for r in self.records]


@contextlib.contextmanager
def trace_scope() -> Iterator[LoopTrace]:
    """Record every loop executed inside the scope (single-threaded runs)."""
    trace = LoopTrace()
    add_loop_observer(trace._observe)
    try:
        yield trace
    finally:
        remove_loop_observer(trace._observe)
        trace._flush()


@dataclass
class Divergence:
    """The first point at which two traced runs disagree."""

    index: int
    loop: str
    arg: str
    max_ulp: float
    max_abs: float
    structural: bool = False  # loop sequences themselves differ

    def describe(self) -> str:
        if self.structural:
            return f"loop sequences diverge at #{self.index}: {self.loop!r} vs {self.arg!r}"
        return (
            f"first divergence at loop #{self.index} ({self.loop!r}), arg "
            f"{self.arg!r}: max {self.max_ulp:.3g} ULP / {self.max_abs:.3g} abs"
        )


def first_divergence(
    ref: LoopTrace, other: LoopTrace, tol: Tolerance | None = None
) -> Divergence | None:
    """Localise the earliest loop whose outputs differ beyond ``tol``."""
    tol = tol or Tolerance()
    for ra, rb in zip(ref.records, other.records):
        if ra.name != rb.name:
            return Divergence(ra.index, ra.name, rb.name, 0.0, 0.0, structural=True)
        for name, a in ra.written.items():
            b = rb.written.get(name)
            if b is None:
                return Divergence(ra.index, ra.name, name, float("inf"), float("inf"))
            if not tol.arrays_agree(a, b):
                diff = (
                    float(np.max(np.abs(a - b))) if a.shape == b.shape else float("inf")
                )
                return Divergence(ra.index, ra.name, name, max_ulp_diff(a, b), diff)
    if len(ref.records) != len(other.records):
        i = min(len(ref.records), len(other.records))
        return Divergence(i, "<end of trace>", "<end of trace>", 0.0, 0.0, structural=True)
    return None


@dataclass
class BackendComparison:
    """One backend's agreement verdict against the reference."""

    backend: str
    agrees: bool
    mismatched: list[str] = field(default_factory=list)  # final-state arrays
    divergence: Divergence | None = None  # loop-level localisation


@dataclass
class DiffReport:
    """Outcome of :func:`diff_backends` across all compared backends."""

    reference: str
    results: dict[str, dict[str, np.ndarray]]
    traces: dict[str, LoopTrace]
    comparisons: dict[str, BackendComparison]

    @property
    def agree(self) -> bool:
        return all(c.agrees for c in self.comparisons.values())

    def assert_agree(self) -> None:
        for c in self.comparisons.values():
            if c.agrees:
                continue
            where = c.divergence.describe() if c.divergence else "no loop-level localisation"
            raise BackendDivergence(
                f"backend {c.backend!r} disagrees with {self.reference!r} on "
                f"{c.mismatched or 'the loop trace'}; {where}",
                c.divergence,
            )


def diff_backends(
    run: Callable[[str], dict[str, np.ndarray]],
    backends: Sequence[str],
    *,
    reference: str = "seq",
    tol: Tolerance | None = None,
    trace: bool = True,
) -> DiffReport:
    """Run ``run(backend)`` for every backend and diff against the reference.

    ``run`` must build a **fresh** application for the given backend name,
    execute it, and return its final state as ``{name: array}``.  Each run
    is traced; disagreement (beyond ``tol``) in the final state or the
    per-loop trace is localised to the first diverging loop.  Pass
    ``trace=False`` for runs whose loops execute on multiple threads
    (simulated MPI ranks): the process-wide observer would interleave rank
    loop chains, so only final states are compared.
    """
    tol = tol or Tolerance()
    order = [reference] + [b for b in backends if b != reference]
    results: dict[str, dict[str, np.ndarray]] = {}
    traces: dict[str, LoopTrace] = {}
    for backend in order:
        if trace:
            with trace_scope() as t:
                results[backend] = {
                    k: np.array(v, copy=True) for k, v in run(backend).items()
                }
        else:
            t = LoopTrace()
            results[backend] = {
                k: np.array(v, copy=True) for k, v in run(backend).items()
            }
        traces[backend] = t

    comparisons: dict[str, BackendComparison] = {}
    ref_state = results[reference]
    for backend in order[1:]:
        state = results[backend]
        mismatched = [
            k for k, v in ref_state.items()
            if not tol.arrays_agree(v, state.get(k, np.zeros(0)))
        ]
        divergence = first_divergence(traces[reference], traces[backend], tol)
        agrees = not mismatched and divergence is None
        comparisons[backend] = BackendComparison(backend, agrees, mismatched, divergence)
    return DiffReport(reference, results, traces, comparisons)
