"""``op_par_loop``: the single entry point for computation over a set.

Dispatches to the backend named per call (``seq`` or ``vec``);
distributed-memory execution wraps rank-local ``par_loop`` calls via
:class:`repro.op2.halo.PartitionedMesh`.

Every execution:

* validates the arguments against the iteration set,
* notifies loop observers (the checkpointing subsystem records the loop
  chain through this hook),
* accounts data movement and arithmetic into the active counters.
"""

from __future__ import annotations

import numpy as np

from repro.common.access import validate_argument_access
from repro.common.config import get_config
from repro.common.counters import PerfCounters
from repro.common.errors import BACKENDS, APIError, unknown_backend
from repro.common.profiling import (
    ArgEvent,
    LoopEvent,
    active_counters,
    add_loop_observer,
    counters_scope,
    loop_chain_record,
    observers_active,
    remove_loop_observer,
)
from repro.common.site import Pin, announce, interpreted_loop, mark_written, written_dats
from repro.op2 import execplan
from repro.ops import lazy as _ops_lazy
from repro.op2.args import Arg
from repro.op2.backends import execute_seq, execute_subset
from repro.op2.kernel import Kernel
from repro.op2.set import Set

__all__ = [
    "par_loop",
    "loop",
    "active_counters",
    "counters_scope",
    "loop_chain_record",
    "add_loop_observer",
    "remove_loop_observer",
    "LoopEvent",
    "ArgEvent",
]

def _event_for(kernel: Kernel, args: list[Arg]) -> LoopEvent:
    return LoopEvent(
        kernel.name,
        tuple(
            ArgEvent(a.glob.name, a.access, a.glob.dim, is_global=True, data_ref=a.glob)
            if a.is_global
            else ArgEvent(a.dat.name, a.access, a.dat.dim, indirect=a.is_indirect, data_ref=a.dat)
            for a in args
        ),
        api="op2",
    )


def describe_args(args: list[Arg]) -> str:
    """Compact descriptor summary for trace spans: ``dat:access[:i|:g]``."""
    parts = []
    for a in args:
        if a.is_global:
            parts.append(f"{a.glob.name}:{a.access.value}:g")
        elif a.is_indirect:
            parts.append(f"{a.dat.name}:{a.access.value}:i")
        else:
            parts.append(f"{a.dat.name}:{a.access.value}")
    return ",".join(parts)


#: keyed on (map token, idx) pairs plus n — tokens, not id(), so a count
#: cached for a collected Map can never be served to a new Map reusing its
#: address
_unique_count_cache: dict[tuple, int] = {}


def _unique_union(columns_key: tuple, columns, n: int, rows: int) -> int:
    """Distinct targets referenced by a group of map columns (cached).

    Map entries lie in ``[0, rows)`` (checked when the Map is built), so a
    seen-bitmap counts them in O(n) where ``np.unique`` sorts or hashes.
    """
    key = (columns_key, n)
    count = _unique_count_cache.get(key)
    if count is None:
        seen = np.zeros(rows, dtype=bool)
        for c in columns:
            seen[c[:n]] = True
        count = int(np.count_nonzero(seen))
        _unique_count_cache[key] = count
    return count


def _account(kernel: Kernel, n: int, args: list[Arg], counters: PerfCounters) -> None:
    rec = counters.loop(kernel.name)
    rec.invocations += 1
    rec.iterations += n
    rec.flops += kernel.flops_per_elem * n
    rec.colours = max(rec.colours, 1)
    # group indirect args by dat: the same dat referenced through several
    # map slots (e.g. the four corner nodes of a cell) is loaded from DRAM
    # once and re-referenced from cache
    groups: dict[int, dict] = {}
    for arg in args:
        if arg.is_global:
            continue
        nbytes = n * arg.dat.nbytes_per_elem
        if arg.access.reads:
            rec.bytes_read += nbytes
            if arg.is_indirect:
                rec.indirect_reads += nbytes
        if arg.access.writes:
            rec.bytes_written += nbytes
            if arg.is_indirect:
                rec.indirect_writes += nbytes
        if arg.is_indirect:
            g = groups.setdefault(
                arg.dat.token,
                {"dat": arg.dat, "cols": [], "key": [], "reads": False, "writes": False},
            )
            g["cols"].append(arg.map.column(arg.idx))
            g["key"].append((arg.map.token, arg.idx))
            g["reads"] = g["reads"] or arg.access.reads
            g["writes"] = g["writes"] or arg.access.writes
    for g in groups.values():
        unique = _unique_union(tuple(g["key"]), g["cols"], n, g["dat"].set.total_size)
        unique_bytes = unique * g["dat"].nbytes_per_elem
        if g["reads"]:
            rec.indirect_reads_unique += unique_bytes
        if g["writes"]:
            rec.indirect_writes_unique += unique_bytes


def validate_loop_args(kernel: Kernel, iterset: Set, arg_list: list[Arg]) -> None:
    """Full argument validation, shared by the interpreted and compiled paths."""
    if not isinstance(kernel, Kernel):
        raise APIError("first argument must be an op2.Kernel")
    for i, arg in enumerate(arg_list):
        if not isinstance(arg, Arg):
            raise APIError(f"loop arguments must be built from dats/globals, got {arg!r}")
        arg.validate_against(iterset)
        # re-check the declaration contract with the loop name attached
        # (catches Arg objects constructed outside Dat.__call__)
        validate_argument_access(
            arg.access, is_global=arg.is_global,
            dat=arg.dat.name if arg.dat is not None else None,
            loop=kernel.name, arg_index=i,
        )


def interpret(backend: str, kernel: Kernel, args: list[Arg], n: int) -> None:
    """Interpreted execution: per-element ``seq`` or one vectorised sweep."""
    if backend == "seq":
        execute_seq(kernel, args, n)
    else:
        execute_subset(kernel, args, slice(0, n), n)


def _check_call(backend: str, n_elements: int | None) -> None:
    if backend not in BACKENDS:
        raise unknown_backend(backend)
    if n_elements is not None and n_elements < 0:
        raise APIError(f"n_elements must be >= 0, got {n_elements}")


def par_loop(
    kernel: Kernel,
    iterset: Set,
    *args: Arg,
    backend: str = "vec",
    n_elements: int | None = None,
) -> None:
    """Execute ``kernel`` over every element of ``iterset``.

    ``n_elements`` restricts execution to the first N elements (used by the
    distributed runtime to iterate owned extents only).

    ``backend`` is ``"vec"`` (default) or ``"seq"``; any other name raises
    :class:`APIError` before observers, queued OPS loops or the trace see
    the call.  On ``vec`` the first invocation of a loop
    signature compiles a :class:`repro.op2.execplan.CompiledLoop`; later
    invocations replay it (validation, gather columns, buffers and the INC
    scatter schedule are all amortised).  ``verify_descriptors`` bypasses
    the compiled path so the sanitizer always sees raw execution, and
    ``seq`` remains the untouched interpreted reference.

    op2 loops stay eager, but a mixed-API program may have OPS loops
    queued by the lazy runtime; they precede this loop in program order,
    so drain them first (the op2-aware queue hook).

    A call site that runs many times can bind itself once with
    :func:`loop` and replay the handle instead.
    """
    _check_call(backend, n_elements)
    _dispatch(kernel, iterset, args, backend, n_elements, None)


class Loop:
    """A prebound loop site: ``par_loop``'s arguments validated once, replayed.

    ``op2.loop(kernel, iterset, *args, backend=, n_elements=)`` runs
    ``par_loop``'s full validation and returns this handle; calling it is
    exactly ``par_loop(kernel, iterset, *args, ...)`` — the configuration,
    observers, OPS flush point and interpreted paths are all read per
    call — except that the compiled site is pinned rather than fetched
    (:class:`repro.common.site.Pin`).  Globals are bound with the handle.

    >>> res_calc = op2.loop(K_RES_CALC, edges, x(op2.READ, e2n, 0), ...)
    >>> res_calc()
    """

    __slots__ = ("kernel", "iterset", "args", "backend", "n_elements", "pin")

    def __init__(
        self,
        kernel: Kernel,
        iterset: Set,
        *args: Arg,
        backend: str = "vec",
        n_elements: int | None = None,
    ):
        _check_call(backend, n_elements)
        if not isinstance(iterset, Set):
            raise APIError(f"loops iterate over an op2.Set, got {iterset!r}")
        validate_loop_args(kernel, iterset, list(args))
        self.kernel = kernel
        self.iterset = iterset
        self.args = args
        self.backend = backend
        self.n_elements = n_elements
        self.pin = Pin(execplan.plans)

    def __call__(self) -> None:
        _dispatch(self.kernel, self.iterset, self.args, self.backend, self.n_elements, self.pin)


loop = Loop


def _dispatch(
    kernel: Kernel,
    iterset: Set,
    args: tuple,
    backend: str,
    n_elements: int | None,
    pin: Pin | None,
) -> None:
    """One call of a loop site, through its pin when it is prebound."""
    if _ops_lazy.ACTIVE:
        _ops_lazy.flush_point("op2_par_loop")
    cfg = get_config()
    n = iterset.size if n_elements is None else min(n_elements, iterset.total_size)
    if (
        backend == "vec"
        and cfg.use_execplan
        and not cfg.verify_descriptors
        and isinstance(kernel, Kernel)
        and isinstance(iterset, Set)
    ):
        if pin is None:
            compiled = execplan.lookup(kernel, iterset, args, n)
        else:
            compiled = pin.fetch(execplan.lookup, kernel, iterset, args, n)
        if compiled is not None:
            compiled.execute()
            return

    arg_list = list(args)
    validate_loop_args(kernel, iterset, arg_list)
    written = written_dats(arg_list)

    # only build the LoopEvent (and its per-arg descriptor list) when an
    # observer is actually listening — nothing else can set event.skip
    if observers_active() and announce(_event_for(kernel, arg_list), written):
        return

    with interpreted_loop(
        "op2", kernel.name,
        kernel=kernel.name, set=iterset.name, backend=backend, n=n,
        descriptors=describe_args(arg_list),
    ) as counters:
        if cfg.verify_descriptors:
            from repro.verify.sanitizer import sanitized_execute

            counters.record_sanitized_loop(sanitized_execute(backend, kernel, arg_list, n))
        else:
            interpret(backend, kernel, arg_list, n)
    _account(kernel, n, arg_list, counters)
    # any dat written by this loop has stale halo copies on other ranks
    mark_written(written)
