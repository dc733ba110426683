"""Spans recorded from outside the program.

The traced pass replaces the public entry points of every layer with a
timing wrapper (attribute replacement at run time, installed before any
fork; no file under ``src/`` changes).  A span is ``(name, start, end,
parent id, id, value)``; spans stay in memory and are aggregated when the
run ends.  A span's *self time* is its duration minus its direct children,
so the self times of everything under a step add up to that step exactly
and no interval is counted twice.

Span names are ``<layer>:<entry point>``.  Where a module bound a wrapped
function with ``from ... import``, that binding is replaced too: after the
owner is patched every loaded ``repro`` module is scanned for the original
object.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter as _now

import numpy as np

#: (span name, owning module, attribute path) of every wrapped entry point
TARGETS = (
    ("apps:build", "repro.apps.airfoil.mesh", "generate_mesh"),
    ("apps:build", "repro.apps.cloverleaf.state", "clover_bm_state"),
    ("apps:bcs", "repro.apps.cloverleaf.state", "apply_reflective_bcs"),
    ("op2.parloop:par_loop", "repro.op2.parloop", "par_loop"),
    ("op2.parloop:rank_par_loop", "repro.op2.halo", "RankMesh.par_loop"),
    ("op2.execplan:lookup", "repro.op2.execplan", "lookup"),
    ("op2.execplan:execute", "repro.op2.execplan", "CompiledLoop.execute"),
    ("ops.parloop:par_loop", "repro.ops.parloop", "par_loop"),
    ("ops.execplan:lookup", "repro.ops.execplan", "lookup"),
    ("ops.execplan:execute", "repro.ops.execplan", "CompiledOpsLoop.execute"),
    ("native:kernel", "repro.native.plan", "NativeOp2Loop.execute"),
    ("native:kernel", "repro.native.plan", "NativeOpsLoop.execute"),
    ("native:load", "repro.native.cache", "load_kernel"),
    ("native:admit", "repro.native.plan", "try_compile_op2"),
    ("native:admit", "repro.native.plan", "try_compile_ops"),
    ("ops.lazy:enqueue", "repro.ops.lazy", "enqueue"),
    ("ops.lazy:flush", "repro.ops.lazy", "flush"),
    ("ops.lazy:flush", "repro.ops.lazy", "flush_point"),
    ("ops.tileplan:build", "repro.ops.tileplan", "build_tile_schedule"),
    ("op2.partition:partition_set", "repro.op2.partition", "partition_set"),
    ("op2.halo:build", "repro.op2.halo", "build_partitioned_mesh"),
    ("op2.halo:exchange", "repro.op2.halo", "RankMesh.halo_exchange"),
    ("op2.halo:exchange", "repro.op2.halo", "RankMesh.reverse_halo_exchange"),
    ("simmpi.comm:send", "repro.simmpi.comm", "SimComm.send"),
    ("simmpi.comm:recv", "repro.simmpi.comm", "SimComm.recv"),
    ("simmpi.comm:allreduce", "repro.simmpi.comm", "SimComm.allreduce"),
    ("simmpi.comm:neighbor_exchange", "repro.simmpi.comm", "SimComm.neighbor_exchange"),
    # the only place a rank blocks on its peer: the pipe wait under collect
    ("simmpi.comm:wait", "multiprocessing.connection", "wait"),
    ("mp.transport:deliver", "repro.mp.transport", "ProcessTransport.deliver"),
    ("mp.transport:collect", "repro.mp.transport", "ProcessTransport.collect"),
    ("mp.executor:run_spmd_mp", "repro.mp.executor", "run_spmd_mp"),
    ("lint.abstract:certify", "repro.lint.abstract", "certify_callable"),
    ("translator.kernelvec:vectorise", "repro.translator.kernelvec", "vectorise_kernel"),
)

STEP = "apps:step"  # the root span the benchmark puts around each step

#: imported before patching: a module that binds a target with ``from ...
#: import`` after install() would keep the wrapper past uninstall()
_PRELOAD = ("repro.op2", "repro.ops", "repro.mp", "repro.apps.airfoil", "repro.apps.cloverleaf")

_spans: list = []  # appended when a span ends, so children precede parents
_cur = [-1, 0]  # [id of the open span, next id]
_installed: list = []  # (owner, attribute, original), for uninstall


def wrap(fn, name: str, size_of=None):
    """``fn`` with a span around every call; ``size_of(args)`` fills ``value``."""
    cur = _cur
    append = _spans.append

    def wrapper(*args, **kwargs):
        parent = cur[0]
        me = cur[1]
        cur[1] = me + 1
        cur[0] = me
        value = 0 if size_of is None else size_of(args)
        t0 = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _now()
            cur[0] = parent
            append((name, t0, t1, parent, me, value))

    wrapper.__wrapped__ = fn
    return wrapper


def mark() -> None:
    """Window boundary: the timed steps lie between the first two marks."""
    t = _now()
    _spans.append(("#mark", t, t, -1, -1, 0))


def reset() -> None:
    """Forget recorded spans (a forked worker drops its parent's)."""
    del _spans[:]
    _cur[:] = [-1, 0]


def _payload_bytes(args) -> int:
    def nbytes(obj) -> int:
        if isinstance(obj, np.ndarray):
            return obj.nbytes
        if isinstance(obj, (list, tuple)):
            return sum(nbytes(o) for o in obj)
        return 8

    return nbytes(args[1])  # (self, payload, dest, tag)


def install() -> None:
    """Wrap every target; call after the ``repro`` packages are imported."""
    for module in _PRELOAD:
        importlib.import_module(module)
    rebind = {}
    for name, module, path in TARGETS:
        owner = importlib.import_module(module)
        *holders, leaf = path.split(".")
        for holder in holders:
            owner = getattr(owner, holder)
        original = getattr(owner, leaf)
        wrapper = wrap(original, name, _payload_bytes if name == "simmpi.comm:send" else None)
        setattr(owner, leaf, wrapper)
        _installed.append((owner, leaf, original))
        if not holders:
            rebind[id(original)] = (original, wrapper)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").partition(".")[0] != "repro":
            continue
        for key, val in list(vars(mod).items()):
            hit = rebind.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, key, hit[1])
                _installed.append((mod, key, val))


def uninstall() -> None:
    """Put every original back (untraced follow-on steps, tier legs)."""
    while _installed:
        owner, key, original = _installed.pop()
        setattr(owner, key, original)


def aggregate() -> dict:
    """Fold the spans into per-name ``[self time, calls, value, duration]``.

    ``in_step`` covers the timed window, ``setup`` everything before and
    after it.  A plan lookup that has a ``native:admit`` child built a
    plan (a miss); an execute with a ``native:kernel`` child ran native;
    the sends under a halo exchange are that exchange's bytes.
    """
    in_step: dict = {}
    setup: dict = {}
    child_time: dict = {}
    built = set()
    ran_native = set()
    sent_under: dict = {}
    out = {
        "in_step": in_step, "setup": setup,
        "build_self": {}, "executes": 0, "native_executes": 0, "halo_bytes": 0,
    }
    window = 0
    for name, t0, t1, parent, me, value in _spans:
        if me < 0:
            window += 1
            continue
        dur = t1 - t0
        self_s = dur - child_time.pop(me, 0.0)
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + dur
        rec = (in_step if window == 1 else setup).setdefault(name, [0.0, 0, 0, 0.0])
        rec[0] += self_s
        rec[1] += 1
        rec[2] += value
        rec[3] += dur
        if name == "native:admit":
            built.add(parent)
        elif name == "native:kernel":
            ran_native.add(parent)
        elif name == "simmpi.comm:send":
            sent_under[parent] = sent_under.get(parent, 0) + value
        elif me in built:
            built.discard(me)
            out["build_self"][name] = out["build_self"].get(name, 0.0) + self_s
        elif name == "op2.halo:exchange":
            sent = sent_under.pop(me, 0)
            if window == 1:
                out["halo_bytes"] += sent
        elif window == 1 and name.endswith(":execute"):
            out["executes"] += 1
            if me in ran_native:
                ran_native.discard(me)
                out["native_executes"] += 1
    return out


def chrome_sample(steps: int = 3, pid: int = 0) -> list[dict]:
    """Chrome-trace events of the first ``steps`` timed steps (never all)."""
    roots = []
    window = 0
    for span in _spans:
        if span[4] < 0:
            window += 1
        elif window == 1 and span[0] == STEP:
            roots.append(span)
            if len(roots) == steps:
                break
    if not roots:
        return []
    lo, hi = roots[0][1], roots[-1][2]
    return [
        {"name": name, "ph": "X", "pid": pid, "tid": 0,
         "ts": (t0 - lo) * 1e6, "dur": (t1 - t0) * 1e6}
        for name, t0, t1, _parent, me, _value in _spans
        if me >= 0 and t0 >= lo and t1 <= hi
    ]
