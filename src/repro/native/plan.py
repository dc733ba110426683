"""Admission gates and runtime bindings for native loops.

``try_compile_ops`` / ``try_compile_op2`` are the single entry points the
execplan layer calls while building a plan.  They either return a bound
``Native*Loop`` (a zero-argument compiled call plus the reduction
marshalling around it) or record exactly one ``native.fallback`` telemetry
instant + counter and return ``None`` — the plan then keeps its
interpreted vec machinery, so a decline is never observable in results.
A bound loop has no guard of its own: it bakes storage addresses, and the
owning :class:`~repro.common.site.CompiledSite`'s one identity guard
invalidates the site when any of those arrays is rebound, so the plan
cache rebuilds and re-admits it.

The admission ladder, in order:

1. ``config.native`` (``REPRO_NATIVE``) must be on.
2. The kernel's :class:`~repro.lint.abstract.KernelCertificate` must be
   ``translatable`` (complete lowering, pure, proven-bounded extents).
3. Structural gates that keep C-vs-vec bitwise: float64 contiguous data
   only; sums (op2 global INC, ops ``Reduction('inc')``) are never folded
   in C — the kernel fills a stage and ``execute`` reduces it
   with the NumPy call the vec tier makes (``Global.accumulate`` /
   ``Reduction.inc``), and a global may be written through one argument
   only; written dats must not alias other arguments (ops: neither as the
   same ``Dat`` nor through shared storage — the C declares its dat
   pointers ``restrict``; op2 allows multi-arg writes only when every access to that dat is
   indirect, which the two-phase schedule orders exactly like the vec
   scatters); ops written dats must have centre-only proven extents (the
   per-element/per-statement execution orders coincide only then).
4. Every certificate-proven offset must land inside the actual storage
   (ops: within halo-padded bounds for this range; op2: within ``dim``,
   and map columns within the dat's rows, checked once on the map's own
   immutable values, which the C reads in place) — the C has no bounds
   checks, so admission is where memory safety is proven.
5. Codegen itself (:mod:`.cgen`) declines anything without an exact C
   spelling, and the toolchain (:mod:`.cache`) declines when there is no
   compiler.

Threads.  An admitted loop's outer sweep is split over a team whose size
each call writes into its ``n[]`` team slot: the CPUs the process may run
on (:data:`TEAM`) for a sweep of at least :data:`THREAD_MIN` points or
elements, else 1 (:func:`team_size` says when it is 1 regardless).  OPS
rows and op2 elements split into contiguous blocks, which admission proves
independent; an op2 loop with an in-sweep INC, and every phase-B scatter,
splits by ownership of target rows, whose counts the plan writes into the
following ``n[]`` slots once.  The block-ordered min/max combine and the
owner rule keep every team size bitwise equal to one thread.  An op2 loop
the owner rule cannot split runs on one thread and books its reason once
(:meth:`~repro.common.counters.PerfCounters.record_native_thread_decline`).
"""

from __future__ import annotations

import contextlib
import math
import os
import threading

import numpy as np

from repro.common.config import get_config
from repro.common.profiling import active_counters
from repro.lint.abstract import certify_callable
from repro.native import cache as _cache
from repro.native import cgen as _cgen
from repro.telemetry import tracer as _trace

__all__ = [
    "NativeOpsLoop",
    "NativeOp2Loop",
    "try_compile_ops",
    "try_compile_op2",
    "THREAD_MIN",
    "TEAM",
    "team_size",
    "single_team",
]

#: points (ops) or elements (op2) from which a call splits its sweep over
#: the team; below it a team's start-up costs more than the second core
#: saves (measured break-even: DESIGN.md, "Threads")
THREAD_MIN = 32768

#: the CPUs this process may run on (``taskset`` is the control)
TEAM = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)

_rank = threading.local()  # .single: this thread runs a simulated rank
_forked = False


def _after_fork() -> None:
    # libgomp is not fork-safe: a child whose parent has run a team hangs
    # on its first multi-thread region; a team of 1 never enters one
    global _forked
    _forked = True


os.register_at_fork(after_in_child=_after_fork)


def team_size() -> int:
    """Threads a large native call may use from here.

    :data:`TEAM`, except 1 in a forked child, in a thread running a
    simulated rank (:func:`single_team`: the ranks are the parallelism)
    and once the compiler has turned out to lack OpenMP.
    """
    if _forked or getattr(_rank, "single", False) or _cache.openmp() is False:
        return 1
    return TEAM


@contextlib.contextmanager
def single_team():
    """Run the calling thread's native calls on one thread (a rank body)."""
    prev = getattr(_rank, "single", False)
    _rank.single = True
    try:
        yield
    finally:
        _rank.single = prev


def _admit(domain: str, build, loop_name: str, *args):
    """``build(*args)``, or None after accounting one declined loop: a
    counter tick, the reason and one ``native.fallback`` instant."""
    if get_config().native:
        try:
            return build(*args)
        except (_cgen.Untranslatable, _cache.NativeUnavailable) as exc:
            reason = exc.reason
        except Exception as exc:  # the native tier must never break a plan
            reason = f"internal:{type(exc).__name__}: {exc}"
    else:
        reason = "disabled"
    active_counters().record_native_fallback(domain, loop_name, reason)
    trc = _trace.ACTIVE
    if trc is not None:
        trc.instant("native.fallback", "native", domain=domain, loop=loop_name, reason=reason)
    return None


def _load(source: str, loop_name: str):
    """Compile-or-load with the compile span and cache-traffic counters."""
    counters = active_counters()
    trc = _trace.ACTIVE
    if _cache.is_cached(source):
        kern, cached = _cache.load_kernel(source)
    else:
        span = (
            trc.begin("native.compile", "native", loop=loop_name)
            if trc is not None
            else None
        )
        try:
            kern, cached = _cache.load_kernel(source)
        finally:
            if span is not None:
                trc.end(span)
    if cached:
        counters.record_native_cache_hit()
        if trc is not None:
            trc.instant("native.cache_hit", "native", loop=loop_name)
    else:
        counters.record_native_cache_miss()
        counters.record_native_compile()
        if trc is not None:
            trc.instant("native.cache_miss", "native", loop=loop_name)
    reason = _cache.take_thread_decline()
    if reason is not None:
        # the loop still runs compiled, on one thread: booked once per process
        _decline_threads(reason)
    return kern


def _decline_threads(reason: str) -> None:
    """Book why compiled loops run on one thread: a counter entry and one
    ``native.threads_declined`` instant."""
    active_counters().record_native_thread_decline(reason)
    trc = _trace.ACTIVE
    if trc is not None:
        trc.instant("native.threads_declined", "native", reason=reason)


def _const_values(fn, code: "_cgen.NativeCode", ir) -> np.ndarray:
    """Resolve the cv slots (closure/global scalars, defaulted params)."""
    values = []
    for tagged in code.const_names:
        tag, name = tagged[0], tagged[1:]
        if tag == "=":
            obj = _cgen.resolve_free(fn, name)
        else:  # "@": a defaulted trailing parameter
            defaults = fn.__defaults__ or ()
            idx = ir.params.index(name) - (len(ir.params) - len(defaults))
            if idx < 0 or idx >= len(defaults):
                raise _cgen.Untranslatable(f"parameter {name!r} has no default")
            obj = defaults[idx]
        if not _cgen.is_scalar_const(obj):
            raise _cgen.Untranslatable(f"constant {name!r} is not a numeric scalar")
        values.append(float(obj))
    return np.asarray(values, dtype=np.float64)


def _addr(arr: np.ndarray) -> int:
    return arr.ctypes.data


_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_F64 = np.empty(0, dtype=np.float64)


# -- ops ----------------------------------------------------------------------

class NativeOpsLoop:
    """A compiled structured loop bound to its storage addresses.

    Admitted once for ``ranges`` (the loop's full range: every proof in
    :func:`_build_ops` is over it), then executable over any sub-range of
    it: the generated C reads base pointers and extents from ``ptrs`` /
    ``narr`` on every call, so :meth:`execute` retargets those two buffers
    in place — their addresses, which ``call`` has bound, never change.
    """

    __slots__ = (
        "call", "red_info", "red_arr", "ranges", "ptrs", "narr", "threads",
        "points", "stages", "_layout", "_sub", "_nt", "_keepalive",
    )

    def __init__(
        self, call, red_info, red_arr, ranges, ptrs, narr, threads, stages, layout, keepalive
    ):
        self.call = call
        self.red_info = red_info  # [(slot, kind, arg_index), ...]
        self.red_arr = red_arr
        self.ranges = ranges
        self.ptrs = ptrs
        #: extents, the ``.inc()`` sweep selector, the team size
        self.narr = narr
        #: the object honours the team size (built with OpenMP)
        self.threads = threads
        #: points of the bound (sub-)range
        self.points = math.prod(hi - lo for lo, hi in ranges)
        self._nt = 1  # the team size narr holds
        #: (pointer slot, [arg_index per ``.inc()`` call, in call order]) or
        #: None.  The stage buffer lives for one execute only, like the
        #: temporaries vec sums: a plan holds no range-sized array
        self.stages = stages
        #: (byte strides, [(pointer slot, address of the full range's
        #: origin), ...]) per distinct storage layout: dats of one shape
        #: share the offset a sub-range adds
        self._layout = layout
        #: True while ptrs/narr describe a sub-range rather than ``ranges``
        self._sub = False
        self._keepalive = keepalive

    def _bind(self, ranges) -> None:
        shift = [lo - full[0] for (lo, _), full in zip(ranges, self.ranges)]
        ptrs = self.ptrs
        for strides, slots in self._layout:
            off = 0
            for d, s in zip(shift, strides):
                off += d * s
            for i, origin in slots:
                ptrs[i] = origin + off
        extents = [hi - lo for lo, hi in ranges]
        self.narr[: len(extents)] = extents
        self.points = math.prod(extents)

    def execute(self, args, ranges=None) -> bool:
        """Run the kernel over ``ranges`` (default: the full admitted range);
        True when the sweep was split over more than one thread.

        A sub-range must lie inside ``self.ranges`` — the storage-bounds
        proof covers nothing else and the C performs no checks; the owning
        :class:`~repro.common.site.CompiledSite` verifies containment
        before calling.
        """
        if ranges is not None:
            self._bind(ranges)
            self._sub = True
        elif self._sub:
            self._bind(self.ranges)
            self._sub = False
        nt = team_size() if self.threads and self.points >= THREAD_MIN else 1
        if nt != self._nt:
            self.narr[-1] = nt
            self._nt = nt
        red = self.red_arr
        info = self.red_info
        for j, kind, _k in info:
            # seed with the fold identity: the register then equals
            # np.min/np.max over the swept elements exactly
            red[j] = math.inf if kind == "min" else -math.inf
        if self.stages is None:
            self.call()
        else:
            slot, folds = self.stages
            narr = self.narr
            # dense over the swept extents: the fresh C-contiguous array
            # the vec tier would have computed and passed to ``inc``
            buf = np.empty(tuple(narr[:-2]), dtype=np.float64)
            self.ptrs[slot] = _addr(buf)
            for j, k in enumerate(folds):
                # sweep j stores the j-th fold's value; it re-folds the
                # min/max registers onto themselves, which changes nothing
                narr[-2] = j
                self.call()
                # the same handle.inc(array) as vec: np.sum does the summing
                args[k].inc(buf)
        for j, kind, k in info:
            handle = args[k]
            # the same handle.min(value) fold the vec path performs
            (handle.min if kind == "min" else handle.max)(red[j])
        return nt > 1


def try_compile_ops(kernel, ranges, args, loop_name: str) -> NativeOpsLoop | None:
    """Admission + build for one OPS loop site; None means use vec."""
    return _admit("ops", _build_ops, loop_name, kernel, ranges, args, loop_name)


def _build_ops(kernel, ranges, args, loop_name: str) -> NativeOpsLoop:
    fn = getattr(kernel, "func", kernel)
    ndim = len(ranges)
    if any(hi <= lo for lo, hi in ranges):
        raise _cgen.Untranslatable("empty range")

    cert = certify_callable(fn)
    if not cert.translatable:
        raise _cgen.Untranslatable(
            "certificate: " + "; ".join(cert.reasons or ("not translatable",))
        )

    argspecs: list[tuple] = []
    dat_of: list = []  # per-arg dat or None
    for arg in args:
        dat = getattr(arg, "dat", None)
        if dat is not None:
            argspecs.append(("dat", bool(arg.access.writes)))
            dat_of.append(dat)
        elif getattr(arg, "kind", None) in ("inc", "min", "max"):
            argspecs.append(("red", arg.kind))
            dat_of.append(None)
        else:
            raise _cgen.Untranslatable("argument is neither dat nor reduction")

    # aliasing: a written dat must be referenced by exactly one argument —
    # vec's per-statement order and C's per-element order only coincide
    # then — and its storage must overlap no other argument's, which the
    # C's restrict pointers promise (two dats can share one buffer through
    # adopt_storage or the data setter).  A rebound storage fails the
    # site's guard, and the rebuilt site comes back through here
    for k, (spec, dat) in enumerate(zip(argspecs, dat_of)):
        if dat is None or not (spec[0] == "dat" and spec[1]):
            continue
        if any(d is dat for j, d in enumerate(dat_of) if j != k):
            raise _cgen.Untranslatable("written dat aliased by another argument")
        if any(
            d is not None and np.may_share_memory(dat._storage, d._storage)
            for j, d in enumerate(dat_of) if j != k
        ):
            raise _cgen.Untranslatable(
                f"written dat {dat.name} shares storage with another argument"
            )

    params = _cgen.ir_for_callable(fn).params
    if len(args) > len(params):
        raise _cgen.Untranslatable("more loop arguments than kernel parameters")

    # storage-bounds proof: every certified offset must stay inside the
    # halo-padded storage for this range (C performs no checks)
    for k, (spec, dat) in enumerate(zip(argspecs, dat_of)):
        if dat is None:
            continue
        if dat.dtype != np.float64:
            raise _cgen.Untranslatable(f"dat {dat.name} is not float64")
        st = dat._storage
        if not st.flags["C_CONTIGUOUS"] or st.itemsize != 8 or st.ndim != ndim:
            raise _cgen.Untranslatable(f"dat {dat.name} storage is not dense {ndim}-D")
        pname = params[k]
        reads = cert.reads_of(pname) or ()
        writes = cert.writes_of(pname) or ()
        if spec[1] and any(any(c != 0 for c in pt) for pt in (*reads, *writes)):
            # the Jacobi hazard: reading a neighbour of a dat you write has
            # different per-element vs per-statement semantics
            raise _cgen.Untranslatable(f"written dat {dat.name} accessed off-centre")
        h = dat.halo_depth
        for pt in (*reads, *writes):
            if len(pt) != ndim:
                raise _cgen.Untranslatable(f"{pname}: offset arity != {ndim}")
            for d, o in enumerate(pt):
                lo, hi = ranges[d]
                if lo + o + h < 0 or hi + o + h > st.shape[d]:
                    raise _cgen.Untranslatable(
                        f"{pname}: offset {pt} leaves storage for range {ranges[d]}"
                    )

    code = _cgen.generate_ops(fn, argspecs, ndim, loop_name)
    cv = _const_values(fn, code, _cgen.ir_for_callable(fn))

    # runtime binding: base pointers pre-offset to the range origin,
    # outer strides in elements, extents per dimension
    origins = []
    by_strides: dict[tuple, list] = {}
    strides: list[int] = []
    stages = None
    for i, (role, k) in enumerate(code.ptr_spec):
        if role == "stage":
            stages = (i, code.stage_args)
            origins.append(0)  # pointed at a fresh buffer by every execute
            continue
        dat = dat_of[k]
        st = dat._storage
        origin = st.ctypes.data + sum(
            (ranges[d][0] + dat.halo_depth) * st.strides[d] for d in range(ndim)
        )
        origins.append(origin)
        by_strides.setdefault(st.strides, []).append((i, origin))
        strides.extend(s // st.itemsize for s in st.strides[:-1])
    ptrs = np.asarray(origins, dtype=np.uint64)
    sarr = np.asarray(strides, dtype=np.int64) if strides else _EMPTY_I64
    marr = np.asarray([_addr(sarr)], dtype=np.uint64)
    # extents, the sweep selector of staged ``.inc()`` folds, the team size
    narr = np.asarray([*(hi - lo for lo, hi in ranges), 0, 1], dtype=np.int64)
    red_arr = (
        np.zeros(len(code.red_spec), dtype=np.float64) if code.red_spec else _EMPTY_F64
    )
    cv_arr = cv if cv.size else _EMPTY_F64

    kern = _load(code.source, loop_name)
    call = kern.make_call(_addr(ptrs), _addr(marr), _addr(narr), _addr(red_arr), _addr(cv_arr))
    red_info = [(j, kind, k) for j, (_, k, kind) in enumerate(code.red_spec)]
    keepalive = (kern, sarr, marr, cv_arr, args)
    return NativeOpsLoop(
        call, red_info, red_arr, tuple(ranges), ptrs, narr, code.threaded and kern.openmp,
        stages, list(by_strides.items()), keepalive,
    )


# -- op2 ----------------------------------------------------------------------

class NativeOp2Loop:
    """A compiled unstructured loop bound to its storage addresses."""

    __slots__ = (
        "call", "gmm_cells", "red_arr", "ginc", "n", "narr", "threads", "_nt", "_keepalive",
    )

    def __init__(self, call, gmm_cells, red_arr, ginc, narr, threads, keepalive):
        self.call = call
        self.gmm_cells = gmm_cells  # [(slot, glob, cell), ...]
        self.red_arr = red_arr
        #: [(glob, (n, dim) stage), ...] — the per-element increment rows
        #: of each global INC argument, exactly the vec tier's buffer
        self.ginc = ginc
        self.narr = narr  # (set size, team size, row counts of code.row_args)
        self.n = int(narr[0])
        #: the call may be split over the team (the owner rule applies,
        #: OpenMP build)
        self.threads = threads
        self._nt = 1
        self._keepalive = keepalive

    def execute(self, args, ranges=None) -> bool:
        """Run the kernel over the whole admitted set (op2 has no sub-range);
        True when the call was split over more than one thread."""
        nt = team_size() if self.threads and self.n >= THREAD_MIN else 1
        if nt != self._nt:
            self.narr[1] = nt
            self._nt = nt
        red = self.red_arr
        cells = self.gmm_cells
        for j, g, c in cells:
            red[j] = g.data[c]
        self.call()
        for j, g, c in cells:
            g.data[c] = red[j]
        for g, stage in self.ginc:
            g.accumulate(stage)
        return nt > 1


def try_compile_op2(kernel, args, n: int, loop_name: str) -> NativeOp2Loop | None:
    """Admission + build for one OP2 loop site; None means use vec."""
    return _admit("op2", _build_op2, loop_name, kernel, args, n, loop_name)


def _build_op2(kernel, args, n: int, loop_name: str) -> NativeOp2Loop:
    """Admit and bind one op2 loop site.

    Decides what :func:`~repro.native.cgen.generate_op2` cannot see: which
    arguments share a map (one ``m[]`` base pointer each, read in place
    after a one-time bounds check) and which indirect writes must be staged
    because another argument touches the same dat.  The plan then owns only
    the staged ``(n, dim)`` scratch rows and the global INC stages.
    """
    if n <= 0:
        raise _cgen.Untranslatable("empty iteration set")
    fn = getattr(kernel, "func", kernel)

    cert = certify_callable(fn)
    if not cert.translatable:
        raise _cgen.Untranslatable(
            "certificate: " + "; ".join(cert.reasons or ("not translatable",))
        )

    # vec updates globals in argument order, NativeOp2Loop.execute by kind
    # (MIN/MAX cells, then INC stages): only distinct globals make the two
    # coincide
    written = [id(a.glob) for a in args if a.glob is not None and a.access.name != "READ"]
    if len(set(written)) != len(written):
        raise _cgen.Untranslatable("global written through several arguments")

    # aliasing: a dat with any written argument must either appear exactly
    # once, or be accessed *only* indirectly — indirect reads gather before
    # the sweep and staged indirect writes scatter after it, in argument
    # order, exactly like the vec schedule, so ordering cannot diverge
    for k, arg in enumerate(args):
        if arg.dat is None or not arg.access.writes:
            continue
        peers = [j for j, a in enumerate(args) if a.dat is arg.dat]
        if len(peers) > 1 and any(args[j].map is None for j in peers):
            raise _cgen.Untranslatable("written dat aliased by a direct argument")

    argspecs: list[tuple] = []
    slots: dict[int, int] = {}  # id(map) -> m[] slot, in first-use order
    for k, arg in enumerate(args):
        acc = arg.access.name
        if arg.glob is not None:
            if acc == "READ":
                argspecs.append(("gread", arg.glob.dim))
            elif acc in ("MIN", "MAX"):
                argspecs.append(("gmm", arg.glob.dim, acc.lower()))
            else:
                argspecs.append(("ginc", arg.glob.dim))
            if arg.glob.dtype != np.float64:
                raise _cgen.Untranslatable("global is not float64")
            continue
        dat = arg.dat
        if dat.dtype != np.float64:
            raise _cgen.Untranslatable(f"dat {dat.name} is not float64")
        d = dat.data
        if d.ndim != 2 or not d.flags["C_CONTIGUOUS"] or d.itemsize != 8:
            raise _cgen.Untranslatable(f"dat {dat.name} storage is not dense (n, dim)")
        if arg.map is None:
            argspecs.append(("direct", dat.dim, acc))
            continue
        # the map is read in place: its values are immutable (``Map``
        # stores a private read-only copy and renumbering rebinds it, which
        # the site's guard turns into a rebuild), so this one bounds check
        # holds for the plan's life
        vals = arg.map.values
        if vals.dtype != np.int64 or not vals.flags["C_CONTIGUOUS"] or vals.shape[0] < n:
            raise _cgen.Untranslatable(f"map {arg.map.name} is not dense int64 (n, arity)")
        col = vals[:n, arg.idx]
        if col.min() < 0 or col.max() >= d.shape[0]:
            raise _cgen.Untranslatable(f"map column {k} leaves dat rows")
        slot = slots.setdefault(id(arg.map), len(slots))
        # an INC runs inside the sweep when it is the first argument on its
        # dat and every other argument on that dat is an INC too: nothing
        # then reads the target mid-sweep, and its scatter is the one the
        # vec schedule runs first on that dat
        peers = [j for j, a in enumerate(args) if a.dat is dat]
        swept = acc == "INC" and peers[0] == k and all(
            args[j].access.name == "INC" for j in peers
        )
        argspecs.append(("ind", dat.dim, acc, slot, arg.map.arity, arg.idx, not swept))

    # component-bounds proof: every certified offset within [0, dim)
    params = _cgen.ir_for_callable(fn).params
    if len(params) != len(args):
        raise _cgen.Untranslatable("argument/parameter count mismatch")
    for k, arg in enumerate(args):
        dim = arg.glob.dim if arg.glob is not None else arg.dat.dim
        pname = params[k]
        for pt in (*(cert.reads_of(pname) or ()), *(cert.writes_of(pname) or ())):
            if len(pt) != 1 or not (0 <= pt[0] < dim):
                raise _cgen.Untranslatable(
                    f"{pname}: component {pt} outside [0, {dim})"
                )

    code = _cgen.generate_op2(fn, argspecs, loop_name)
    cv = _const_values(fn, code, _cgen.ir_for_callable(fn))

    # scratch only for the staged writes and global INC stages
    scratch: dict[int, np.ndarray] = {
        k: np.empty((n, dim), dtype=np.float64) for k, dim in code.scratch_spec
    }

    ptr_vals = []
    for role, k in code.ptr_spec:
        if role == "dat":
            ptr_vals.append(args[k].dat.data.ctypes.data)
        elif role == "scratch":
            ptr_vals.append(scratch[k].ctypes.data)
        else:  # glob
            ptr_vals.append(args[k].glob.data.ctypes.data)
    gmm_cells = [(j, args[k].glob, c) for j, (_, k, c, _kind) in enumerate(code.red_spec)]
    ginc = [(args[k].glob, scratch[k]) for k, spec in enumerate(argspecs) if spec[0] == "ginc"]

    ptrs = np.asarray(ptr_vals, dtype=np.uint64) if ptr_vals else np.empty(0, np.uint64)
    # one base pointer per distinct map, read in place; the owning site's
    # guard drops this plan once a map rebinds its ``values``
    map_vals = [args[k].map.values for _, k in code.map_spec]
    marr = np.asarray([_addr(v) for v in map_vals], dtype=np.uint64)
    # set size, team size, then the row counts the owner rule cuts
    narr = np.asarray(
        [n, 1, *(args[k].dat.data.shape[0] for k in code.row_args)], dtype=np.int64
    )
    red_arr = (
        np.zeros(len(code.red_spec), dtype=np.float64) if code.red_spec else _EMPTY_F64
    )
    cv_arr = cv if cv.size else _EMPTY_F64

    kern = _load(code.source, loop_name)
    if kern.openmp and not code.threaded:
        _decline_threads(f"{loop_name}: {code.serial_reason}")
    call = kern.make_call(_addr(ptrs), _addr(marr), _addr(narr), _addr(red_arr), _addr(cv_arr))
    keepalive = (kern, ptrs, marr, cv_arr, map_vals, scratch, args)
    return NativeOp2Loop(
        call, gmm_cells, red_arr, ginc, narr, code.threaded and kern.openmp, keepalive
    )
