"""Per-layer metrics: names, units and their derivation from spans and counters.

``..._s`` metrics are self time per step, ``..._us`` mean self time per
call, counts are per step — except the *set-up* metrics (marked below),
which are whole-run totals of work a warm steady state does not repeat.
``None`` means the metric does not apply to the workload (printed ``n/a``).
"""

from __future__ import annotations

from workloads import KERNELS

#: set-up metrics: totals over the whole child run, not per step
SETUP = frozenset({
    "apps.build_s", "op2.execplan.build_s", "ops.execplan.build_s",
    "native.fallbacks", "native.load_s", "native.compile_s", "native.compiles",
    "native.admit_s", "ops.tileplan.build_s", "ops.tileplan.builds",
    "op2.partition.s", "op2.halo.build_s", "mp.executor.fork_join_s",
    "lint.abstract.certify_s", "translator.kernelvec.s",
})

PER_LAYER = (
    ("apps.build_s", "s"), ("apps.bcs_s", "s"), ("apps.step_self_s", "s"),
    ("op2.parloop.calls", "count"), ("op2.parloop.self_us", "us"),
    ("op2.execplan.lookup_us", "us"), ("op2.execplan.execute_self_s", "s"),
    ("op2.execplan.build_s", "s"), ("op2.execplan.hit_rate", "ratio"),
    ("op2.execplan.evictions", "count"),
    ("ops.parloop.calls", "count"), ("ops.parloop.self_us", "us"),
    ("ops.execplan.lookup_us", "us"), ("ops.execplan.execute_self_s", "s"),
    ("ops.execplan.build_s", "s"), ("ops.execplan.hit_rate", "ratio"),
    ("ops.execplan.evictions", "count"), ("ops.execplan.plans", "count"),
    ("native.kernel_s", "s"), ("native.calls", "count"), ("native.coverage", "ratio"),
    ("native.fallbacks", "count"), ("native.load_s", "s"), ("native.compile_s", "s"),
    ("native.compiles", "count"), ("native.admit_s", "s"),
    ("ops.lazy.enqueue_us", "us"), ("ops.lazy.flush_self_s", "s"),
    ("ops.lazy.flushes", "count"), ("ops.lazy.tiles", "count"),
    ("ops.lazy.tile_dispatch_us", "us"), ("ops.lazy.chain_hit_rate", "ratio"),
    ("ops.lazy.saved_bytes_share", "ratio"),
    ("ops.tileplan.build_s", "s"), ("ops.tileplan.builds", "count"),
    ("op2.partition.s", "s"), ("op2.halo.build_s", "s"),
    ("op2.halo.exchange_self_s", "s"), ("op2.halo.exchanges", "count"),
    ("op2.halo.bytes", "count"),
    ("simmpi.comm.send_s", "s"), ("simmpi.comm.recv_wait_s", "s"),
    ("simmpi.comm.allreduce_s", "s"), ("simmpi.comm.messages", "count"),
    ("simmpi.comm.bytes", "count"),
    ("mp.transport.deliver_s", "s"), ("mp.transport.collect_s", "s"),
    ("mp.executor.fork_join_s", "s"), ("mp.executor.rank_imbalance", "ratio"),
    ("mp.executor.speedup_vs_1worker", "ratio"),
    ("lint.abstract.certify_s", "s"), ("translator.kernelvec.s", "s"),
    *(
        (f"kernel.{k}.{suffix}", unit)
        for app in ("airfoil", "cloverleaf")
        for k in KERNELS[app]
        for suffix, unit in (("s", "s"), ("gbs_computed", "GB/s"), ("bw_share", "ratio"))
    ),
    ("tier.interp_step_s", "s"), ("tier.vec_step_s", "s"),
    ("host.cores", "count"), ("host.l2_mb", "MB"), ("host.llc_mb", "MB"),
    ("host.stream_gbs", "GB/s"),
    ("bench.working_set_mb", "MB"), ("bench.samples", "count"),
    ("bench.step_tail_s", "s"), ("bench.trace_overhead_share", "ratio"),
)

#: layers whose time is communication: excluded from a rank's compute time
COMM_LAYERS = ("op2.halo", "simmpi.comm", "mp.transport")


def layer_of(span_name: str) -> str:
    return span_name.partition(":")[0]


def merge(*tables: dict) -> dict:
    """Sum ``{span name: [self, calls, value, duration]}`` tables."""
    out: dict = {}
    for table in tables:
        for name, rec in table.items():
            acc = out.setdefault(name, [0.0, 0, 0, 0.0])
            for i in range(4):
                acc[i] += rec[i]
    return out


def compute_self(step: dict) -> float:
    """Self time of one rank's steps outside the communication layers."""
    return sum(rec[0] for name, rec in step.items() if layer_of(name) not in COMM_LAYERS)


def _ratio(num, den):
    return num / den if den else None


def layer_metrics(r: dict) -> dict:
    """Every ``PER_LAYER`` metric of one traced child result ``r``.

    ``r`` carries ``step``/``total`` span tables (rank 0's steps; totals over
    the processes of the run), ``agg`` (rank 0's aggregate), the counter and
    cache-statistic deltas of the timed window, and the measured extras.
    """
    n = r["steps"]
    step, total, agg, delta = r["step"], r["total"], r["agg"], r["delta"]

    def per_step(*names):
        return sum(step[k][0] for k in names if k in step) / n

    def count(name):
        return step[name][1] / n if name in step else 0.0

    def mean_us(name, *extra):
        if name not in step:
            return None
        return (step[name][0] + sum(step[k][0] for k in extra if k in step)) / step[name][1] * 1e6

    def whole(name, field=0):
        return total[name][field] if name in total else 0

    m: dict = {
        "apps.build_s": whole("apps:build"),
        "apps.bcs_s": per_step("apps:bcs"),
        "apps.step_self_s": per_step("apps:step"),
    }
    for api in ("op2", "ops"):
        stats = delta[f"{api}_plans"]
        m[f"{api}.parloop.calls"] = count(f"{api}.parloop:par_loop")
        m[f"{api}.parloop.self_us"] = mean_us(
            f"{api}.parloop:par_loop", f"{api}.parloop:rank_par_loop"
        )
        m[f"{api}.execplan.lookup_us"] = mean_us(f"{api}.execplan:lookup")
        m[f"{api}.execplan.execute_self_s"] = per_step(f"{api}.execplan:execute")
        m[f"{api}.execplan.build_s"] = r["build_self"].get(f"{api}.execplan:lookup", 0.0)
        m[f"{api}.execplan.hit_rate"] = _ratio(stats["hits"], stats["hits"] + stats["misses"])
        m[f"{api}.execplan.evictions"] = stats["evictions"] / n
    m["ops.execplan.plans"] = delta["ops_plans"]["size"]

    m["native.kernel_s"] = per_step("native:kernel")
    m["native.calls"] = count("native:kernel")
    m["native.coverage"] = _ratio(agg["native_executes"], agg["executes"])
    m["native.fallbacks"] = r["native_fallbacks"]
    m["native.load_s"] = whole("native:load")
    m["native.compile_s"] = r["verify"].get("native_compile_s")
    m["native.compiles"] = r["verify"].get("native_compiles")
    m["native.admit_s"] = whole("native:admit")

    tiles = delta["lazy_tiles"] / n
    m["ops.lazy.enqueue_us"] = mean_us("ops.lazy:enqueue")
    m["ops.lazy.flush_self_s"] = per_step("ops.lazy:flush")
    m["ops.lazy.flushes"] = delta["lazy_flushes"] / n
    m["ops.lazy.tiles"] = tiles
    m["ops.lazy.tile_dispatch_us"] = _ratio(per_step("ops.lazy:flush") * 1e6, tiles)
    chain = delta["chains"]
    m["ops.lazy.chain_hit_rate"] = _ratio(chain["hits"], chain["hits"] + chain["misses"])
    moved = sum(b for _s, b in delta["loops"].values())
    m["ops.lazy.saved_bytes_share"] = _ratio(delta["lazy_bytes_saved"], moved)
    m["ops.tileplan.build_s"] = whole("ops.tileplan:build")
    m["ops.tileplan.builds"] = whole("ops.tileplan:build", 1)

    m["op2.partition.s"] = whole("op2.partition:partition_set")
    m["op2.halo.build_s"] = whole("op2.halo:build")
    m["op2.halo.exchange_self_s"] = per_step("op2.halo:exchange")
    m["op2.halo.exchanges"] = count("op2.halo:exchange")
    m["op2.halo.bytes"] = agg["halo_bytes"] / n
    m["simmpi.comm.send_s"] = per_step("simmpi.comm:send")
    m["simmpi.comm.recv_wait_s"] = per_step("simmpi.comm:wait", "simmpi.comm:recv")
    m["simmpi.comm.allreduce_s"] = per_step(
        "simmpi.comm:allreduce", "simmpi.comm:neighbor_exchange"
    )
    m["simmpi.comm.messages"] = count("simmpi.comm:send")
    m["simmpi.comm.bytes"] = step["simmpi.comm:send"][2] / n if "simmpi.comm:send" in step else 0.0
    m["mp.transport.deliver_s"] = per_step("mp.transport:deliver")
    m["mp.transport.collect_s"] = per_step("mp.transport:collect")
    for name in ("fork_join_s", "rank_imbalance", "speedup_vs_1worker"):
        m[f"mp.executor.{name}"] = r["mp"].get(name)
    m["lint.abstract.certify_s"] = whole("lint.abstract:certify")
    m["translator.kernelvec.s"] = whole("translator.kernelvec:vectorise")

    stream = r["stream_gbs"]
    for app, kernels in KERNELS.items():
        for k in kernels:
            seconds, nbytes = delta["loops"].get(k, (0.0, 0)) if app == r["app"] else (0.0, 0)
            gbs = _ratio(nbytes / 1e9, seconds)
            m[f"kernel.{k}.s"] = seconds / n if seconds else None
            m[f"kernel.{k}.gbs_computed"] = gbs
            m[f"kernel.{k}.bw_share"] = gbs / stream if gbs is not None else None

    m["tier.interp_step_s"] = r["tier"].get("tier.interp_step_s")
    m["tier.vec_step_s"] = r["tier"].get("tier.vec_step_s")
    for key in ("cores", "l2_mb", "llc_mb"):
        m[f"host.{key}"] = r["host"][key]
    m["host.stream_gbs"] = stream
    m["bench.working_set_mb"] = r["working_set_mb"]
    m["bench.samples"] = n
    m["bench.step_tail_s"] = r["step_tail_s"]
    m["bench.trace_overhead_share"] = r["step_s"] / r["untraced_step_s"] - 1.0
    return m


def shares(step: dict) -> list[tuple[str, float]]:
    """Span names ranked by their share of the steps' self time."""
    whole = sum(rec[0] for rec in step.values())
    ranked = sorted(step.items(), key=lambda kv: -kv[1][0])
    return [(name, rec[0] / whole) for name, rec in ranked]


def share_of(step: dict, *selectors: str) -> float:
    """Share of the steps' time under the selected span-name prefixes.

    A selector ending in ``+`` takes the spans' whole duration, not their
    self time: a plan lookup is charged with the plan build it triggers
    (native admission, dlopen, certificate), which is what a lookup costs
    its caller.  Selected spans must not nest in one another.
    """
    whole = sum(rec[0] for rec in step.values())
    picked = 0.0
    for name, rec in step.items():
        for sel in selectors:
            if name.startswith(sel.rstrip("+")):
                picked += rec[3] if sel.endswith("+") else rec[0]
                break
    return picked / whole


COMM_SPANS = tuple(f"{layer}:" for layer in COMM_LAYERS)

#: (workload, span selectors, comparison, threshold): the design's claim
#: about where each workload's time goes, checked on every traced pass
SEPARATION = (
    ("airfoil_small", ("op2.parloop:", "op2.execplan:lookup+"), ">=", 0.40),
    ("airfoil_large", ("op2.parloop:", "op2.execplan:lookup+"), "<=", 0.02),
    ("cloverleaf_small", ("ops.parloop:", "ops.execplan:lookup+"), ">=", 0.20),
    ("cloverleaf_large", ("ops.parloop:", "ops.execplan:lookup+"), "<=", 0.02),
    ("cloverleaf_large_lazy", ("ops.lazy:", "ops.parloop:", "ops.execplan:lookup+"), ">=", 0.50),
    ("airfoil_mp2", COMM_SPANS, ">=", 0.15),
)
TRACE_OVERHEAD_LIMIT = 0.20


def separation_checks(traced: dict) -> list[tuple[str, bool]]:
    """``(description, holds)`` per design claim, over the traced results."""
    out = []
    for name, prefixes, op, limit in SEPARATION:
        if name not in traced:
            continue
        share = share_of(traced[name]["step"], *prefixes)
        ok = share >= limit if op == ">=" else share <= limit
        out.append((f"{name}: {' + '.join(prefixes)} = {share:.1%} ({op} {limit:.0%})", ok))
    for name, r in traced.items():
        m = r["layers"]
        if r["app"] == "cloverleaf" and not r["lazy"]:
            counts = [m["ops.lazy.flushes"], m["ops.lazy.tiles"]]
            reached = [k for k in r["step"] if k.startswith("ops.lazy:")]
            out.append((f"{name}: ops.lazy unreachable (counts {counts}, spans {reached})",
                        not any(counts) and not reached))
        if not r["ranks"]:
            comm = share_of(r["step"], *COMM_SPANS)
            out.append((f"{name}: communication layers = {comm:.1%} (== 0)", comm == 0))
        over = m["bench.trace_overhead_share"]
        out.append((f"{name}: trace overhead = {over:.1%} (<= {TRACE_OVERHEAD_LIMIT:.0%})",
                    over <= TRACE_OVERHEAD_LIMIT))
    return out
