"""Compiled loop executors: the op2 hot path, specialised once per loop site.

The paper's central performance argument (Sections II-IV, following the
"Active Libraries" compile-once philosophy) is that everything derivable
from a loop's access descriptors — validation, colouring, gather columns,
buffer shapes, scatter schedules — can be computed on the *first* execution
and amortised over every later one.  The interpreted path in
:mod:`repro.op2.parloop` re-derives all of it per call; a
:class:`CompiledLoop` is the op2 :class:`~repro.common.site.CompiledSite`,
which owns the call life cycle, the storage guard and native dispatch.
It adds the op2 validation, event descriptors and accounting and —
cut on the first execute the native tier does not take, so a plan
builds only the tier it runs:

* the gather index arrays of the one whole-range sweep,
* a buffer arena — gather/INC/global buffers allocated once and reused
  while the underlying shapes still match,
* an **INC scatter plan**: a cached stable-sort permutation plus segment
  boundaries, so indirect increments run as a handful of vectorised
  segment-reduction rounds instead of ``np.add.at``.  Round ``k`` adds the
  ``k``-th contribution of every still-active segment, so each target
  accumulates in occurrence order — bitwise identical to ``np.add.at``
  (a pure ``np.add.reduceat`` scatter is faster still, but its pairwise
  SIMD association is numpy-build-dependent and would break the repo's
  bitwise-parity guarantees).  Tiny or degenerate scatters stay on
  ``np.add.at``.

Compiled loops live in :data:`plans`, a
:class:`~repro.common.plancache.PlanCache` keyed by *stable* monotonic
tokens (kernel, iteration set, per-arg dat/map/idx/access, ``n``), never by
``id()``.  The site's one guard invalidates an entry when any dat's or
global's ``data`` or any map's ``values`` array is rebound.
:func:`clear_plan_cache` drops every entry together with the unique-count
memo.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.common import site as _site
from repro.common.access import Access, fold_extreme
from repro.common.counters import PerfCounters
from repro.common.plancache import PlanCache, set_plan_cache_capacity
from repro.op2 import parloop as _parloop  # a cycle: both only read attributes at call time
from repro.op2.args import Arg
from repro.op2.kernel import Kernel
from repro.op2.set import Set

__all__ = [
    "CompiledLoop",
    "lookup",
    "clear_plan_cache",
    "plan_cache_stats",
    "set_plan_cache_capacity",
]

#: below this many scattered entries an OP_INC scatter keeps using
#: ``np.add.at``: the sort/segment machinery only pays off on bulk
#: scatters, and tiny loops (boundary conditions) stay on the simple path
SCATTER_MIN = 64

# -- gather/scatter opcodes ----------------------------------------------------

_G_GLOBAL_READ = 0
_G_GLOBAL_INC = 1
_G_GLOBAL_MINMAX = 2
_G_VIEW_SLICE = 3
_G_TAKE = 4  # indirect gather into an arena buffer
_G_INC_BUF = 5  # zeroed increment buffer

_S_NONE = 0
_S_GLOBAL_INC = 1
_S_GLOBAL_MIN = 2
_S_GLOBAL_MAX = 3
_S_ASSIGN = 4  # dat.data[cols] = buf (indirect WRITE/RW)
_S_INC_SEGMENTS = 5
_S_INC_ADD_AT = 6


class _SubsetExec:
    """The whole-range gather / vector kernel / scatter sweep of one site."""

    __slots__ = ("n", "gathers", "scatters")

    def __init__(self, n: int, gathers: list, scatters: list):
        self.n = n
        self.gathers = gathers
        self.scatters = scatters

    def run(self, vec_func) -> None:
        buffers = []
        for op in self.gathers:
            mode = op[0]
            if mode == _G_VIEW_SLICE:
                buffers.append(op[1].data[op[2]])
            elif mode == _G_TAKE:
                _, dat, idx, buf = op
                np.take(dat.data, idx, axis=0, out=buf, mode="clip")
                buffers.append(buf)
            elif mode == _G_INC_BUF:
                op[1].fill(0.0)
                buffers.append(op[1])
            elif mode == _G_GLOBAL_READ:
                _, glob, shape = op
                buffers.append(np.broadcast_to(glob.data, shape))
            elif mode == _G_GLOBAL_INC:
                op[1].fill(0.0)
                buffers.append(op[1])
            else:  # _G_GLOBAL_MINMAX
                _, glob, buf = op
                np.copyto(buf, glob.data)
                buffers.append(buf)

        vec_func(*buffers)

        for op, buf in zip(self.scatters, buffers):
            mode = op[0]
            if mode == _S_NONE:
                continue
            if mode == _S_INC_SEGMENTS:
                _, dat, perm, targets, rounds, sorted_buf, acc_buf, contrib_buf = op
                np.take(buf, perm, axis=0, out=sorted_buf)
                np.take(dat.data, targets, axis=0, out=acc_buf)
                for n_k, src in rounds:
                    contrib = contrib_buf[:n_k]
                    np.take(sorted_buf, src, axis=0, out=contrib)
                    acc = acc_buf[:n_k]
                    np.add(acc, contrib, out=acc)
                dat.data[targets] = acc_buf
            elif mode == _S_INC_ADD_AT:
                np.add.at(op[1].data, op[2], buf)
            elif mode == _S_ASSIGN:
                op[1].data[op[2]] = buf
            elif mode == _S_GLOBAL_INC:
                op[1].accumulate(buf)
            elif mode == _S_GLOBAL_MIN:
                op[1].data[:] = fold_extreme(np.minimum, op[1].data, buf)
            else:  # _S_GLOBAL_MAX
                op[1].data[:] = fold_extreme(np.maximum, op[1].data, buf)


#: a scatter where one target receives more than this many contributions
#: degenerates to one round per contribution; ``np.add.at`` is better there
_MAX_SEGMENT_ROUNDS = 64


def _segment_scatter(dat, cols: np.ndarray, dim: int, dtype) -> tuple:
    """Build the segment-reduction INC scatter plan for one gather column.

    Contributions are stable-sorted by target once; round ``k`` then adds,
    in a single vectorised operation, the ``k``-th contribution of every
    segment that still has one.  Each target therefore accumulates
    ``((old + c1) + c2) + ...`` in occurrence order — exactly
    ``np.add.at``'s float association, making the compiled scatter bitwise
    identical to the interpreted one.  Segments are laid out in descending
    count order so every round works on a contiguous prefix of the
    accumulator.
    """
    m = cols.shape[0]
    perm = np.argsort(cols, kind="stable")
    sorted_cols = cols[perm]
    # segment boundaries of an already-sorted array: one diff, no re-sort
    starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_cols)) + 1))
    targets = sorted_cols[starts]
    counts = np.diff(np.append(starts, m))
    max_count = int(counts.max())
    if max_count > _MAX_SEGMENT_ROUNDS:
        return (_S_INC_ADD_AT, dat, cols)
    order = np.argsort(-counts, kind="stable")
    targets_r = targets[order]
    starts_r = starts[order]
    counts_r = counts[order]
    rounds = []
    for k in range(max_count):
        n_k = int(np.count_nonzero(counts_r > k))
        rounds.append((n_k, starts_r[:n_k] + k))
    t = targets.shape[0]
    sorted_buf = np.empty((m, dim), dtype=dtype)
    acc_buf = np.empty((t, dim), dtype=dtype)
    contrib_buf = np.empty((t, dim), dtype=dtype)
    return (_S_INC_SEGMENTS, dat, perm, targets_r, rounds, sorted_buf, acc_buf, contrib_buf)


def _compile_subset(args: Sequence[Arg], m: int) -> _SubsetExec:
    """Specialise gather/scatter ops for ``args`` over the first ``m`` elements."""
    idx = slice(0, m)
    gathers: list = []
    scatters: list = []
    for arg in args:
        if arg.is_global:
            g = arg.glob
            if arg.access is Access.READ:
                gathers.append((_G_GLOBAL_READ, g, (m, g.dim)))
                scatters.append((_S_NONE,))
            elif arg.access is Access.INC:
                gathers.append((_G_GLOBAL_INC, np.zeros((m, g.dim), dtype=g.dtype)))
                scatters.append((_S_GLOBAL_INC, g))
            else:
                gathers.append((_G_GLOBAL_MINMAX, g, np.empty((m, g.dim), dtype=g.dtype)))
                scatters.append(
                    (_S_GLOBAL_MIN, g) if arg.access is Access.MIN else (_S_GLOBAL_MAX, g)
                )
            continue

        dat = arg.dat
        if arg.is_direct:
            # writes land through the view: no scatter needed
            gathers.append((_G_VIEW_SLICE, dat, idx))
            scatters.append((_S_NONE,))
            continue

        cols = np.ascontiguousarray(arg.map.values[idx, arg.idx])
        buf = np.empty((m, dat.dim), dtype=dat.dtype)
        if arg.access is Access.INC:
            gathers.append((_G_INC_BUF, buf))
            if m >= SCATTER_MIN:
                scatters.append(_segment_scatter(dat, cols, dat.dim, dat.dtype))
            else:
                scatters.append((_S_INC_ADD_AT, dat, cols))
        else:
            gathers.append((_G_TAKE, dat, cols, buf))
            scatters.append((_S_ASSIGN, dat, cols) if arg.access.writes else (_S_NONE,))
    return _SubsetExec(m, gathers, scatters)


class CompiledLoop(_site.CompiledSite):
    """One op2 loop site: validation, accounting and the gather/scatter sweep."""

    api = "op2"

    def __init__(self, kernel: Kernel, iterset: Set, args: Sequence[Arg], n: int):
        args = list(args)
        # full validation, exactly as the interpreted path performs it
        _parloop.validate_loop_args(kernel, iterset, args)
        self.kernel = kernel
        self.n = n
        # execution schedule: one whole-range sweep, cut by _run_vec() on
        # the first execute the native tier does not take
        self.subsets: list | None = None
        super().__init__(kernel.name, args, {
            "kernel": kernel.name,
            "set": iterset.name,
            "backend": "vec",
            "n": n,
            "descriptors": _parloop.describe_args(args),
            "compiled": True,
        })

    def _event_for(self, args):
        return _parloop._event_for(self.kernel, args)

    def _account(self, counters: PerfCounters) -> None:
        _parloop._account(self.kernel, self.n, self.args, counters)

    def _guard_owners(self):
        for a in self.args:
            yield (a.glob if a.dat is None else a.dat), "data"
            if a.map is not None:
                yield a.map, "_values"  # the storage behind the property

    def _admit(self):
        from repro.native import plan as _native  # deferred: optional tier

        return _native.try_compile_op2(self.kernel, self.args, self.n, self.name)

    def _run_vec(self, args, ranges) -> None:
        # a site the native tier runs never pays the argsort/segment set-up
        # nor holds the buffer arena; a decline builds it here, once
        subsets = self.subsets
        if subsets is None:
            n = self.n
            subsets = self.subsets = [_compile_subset(self.args, n)] if n > 0 else []
        vec_func = self.kernel.vec_func
        for subset in subsets:
            subset.run(vec_func)


# -- plan cache ---------------------------------------------------------------


def _describe(event: str, plan: CompiledLoop) -> dict:
    """Attributes of the ``plan_<event>`` trace instant."""
    attrs = {"kernel": plan.kernel.name}
    if event == "miss":
        attrs["n"] = plan.n
    return attrs


def _clear_memos() -> None:
    _parloop._unique_count_cache.clear()


plans = PlanCache("plan", "plan", _describe, on_clear=_clear_memos)
clear_plan_cache = plans.clear  # compiled loops and unique counts
plan_cache_stats = plans.stats


def _signature(kernel: Kernel, iterset: Set, args: tuple, n: int) -> tuple:
    parts: list = [kernel.token, iterset.token, n]
    for a in args:
        if a.glob is not None:
            parts.append(("g", a.glob.token, a.access))
        elif a.map is None:
            parts.append(("d", a.dat.token, a.access))
        else:
            parts.append(("i", a.dat.token, a.map.token, a.idx, a.access))
    return tuple(parts)


def lookup(kernel: Kernel, iterset: Set, args: tuple, n: int) -> CompiledLoop | None:
    """Fetch (or compile) the plan for this loop site; None -> take the slow path."""
    return _site.lookup(plans, kernel, _signature, CompiledLoop, iterset, args, n)
