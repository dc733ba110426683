"""Human-readable diagnostics, in the spirit of OP2's op_timing_output.

The paper (Section II-C) highlights the built-in development aids: per-loop
timing breakdowns and consistency checks.  :func:`timing_report` renders
the active counters the way OP2 prints its loop table.
"""

from __future__ import annotations

from repro.common.counters import PerfCounters


def timing_report(counters: PerfCounters, *, top: int | None = None) -> str:
    """Per-loop table: count, time, bandwidth, arithmetic intensity.

    ``top`` selects the N most *expensive* loops (by wall time), but the
    selected rows render sorted by loop name: wall times jitter from run to
    run, so a time-ordered table would make report goldens unstable.
    """
    # reporting is an observation point: queued lazy loops must execute (and
    # account) before their rows are rendered.  Deferred import — repro.ops
    # depends on repro.common, not vice versa
    from repro.ops import lazy as _lazy

    _lazy.flush_point("timing_report")
    rows = []
    for rec in counters.loops.values():
        gb = rec.bytes_moved / 1e9
        bw = gb / rec.wall_seconds if rec.wall_seconds > 0 else 0.0
        ai = rec.flops / rec.bytes_moved if rec.bytes_moved else 0.0
        rows.append((rec.wall_seconds, rec.name, rec.invocations, rec.iterations, gb, bw, ai, rec.colours))
    if top is not None:
        rows.sort(key=lambda r: (-r[0], r[1]))
        rows = rows[:top]
    rows.sort(key=lambda r: r[1])

    header = (
        f"{'loop':<24}{'calls':>7}{'iterations':>12}{'GB moved':>10}"
        f"{'time(s)':>9}{'GB/s':>8}{'flop/B':>8}{'colours':>8}"
    )
    lines = [header, "-" * len(header)]
    for secs, name, calls, iters, gb, bw, ai, colours in rows:
        lines.append(
            f"{name:<24}{calls:>7}{iters:>12}{gb:>10.3f}"
            f"{secs:>9.3f}{bw:>8.1f}{ai:>8.2f}{colours:>8}"
        )
    lines.append("-" * len(header))
    total_t = sum(r[0] for r in rows)
    total_gb = sum(r[4] for r in rows)
    lines.append(f"{'total':<24}{'':>7}{'':>12}{total_gb:>10.3f}{total_t:>9.3f}")
    if counters.halo_exchanges or counters.messages_sent:
        lines.append(
            f"comm: {counters.halo_exchanges} halo exchanges, "
            f"{counters.messages_sent} messages, "
            f"{counters.bytes_sent / 1e6:.2f} MB sent, "
            f"{counters.reductions} reductions"
        )
    if counters.faults_injected or counters.restarts:
        lines.append(
            f"resilience: {counters.faults_injected} faults injected "
            f"({counters.messages_dropped} dropped, "
            f"{counters.messages_delayed} delayed, "
            f"{counters.messages_duplicated} duplicated), "
            f"{counters.messages_retried} retries, "
            f"{counters.restarts} restarts, "
            f"{counters.recovery_seconds:.3f} s in recovery"
        )
    if counters.plan_hits or counters.plan_misses:
        lines.append(
            f"execplan: {counters.plan_hits} hits, {counters.plan_misses} misses "
            f"({100.0 * counters.plan_hit_rate:.1f}% hit rate), "
            f"{counters.plan_invalidations} invalidations, "
            f"{counters.plan_evictions} evictions"
        )
    if counters.loops_sanitized:
        lines.append(
            f"verify: {counters.loops_sanitized} loops sanitized, "
            f"{counters.shadow_runs} shadow runs"
        )
    if counters.lazy_flushes:
        lines.append(
            f"lazy: {counters.lazy_flushes} flushes, "
            f"{counters.lazy_loops} loops queued, "
            f"{counters.lazy_groups} fused groups in {counters.lazy_tiles} tiles, "
            f"chain cache {counters.chain_hits}/{counters.chain_misses} hit/miss "
            f"({100.0 * counters.chain_hit_rate:.1f}%), "
            f"{counters.lazy_bytes_saved / 1e6:.2f} MB movement saved"
        )
    if counters.native_calls or counters.native_fallbacks:
        lines.append(
            f"native: {counters.native_calls} compiled-kernel calls "
            f"({counters.native_threaded_calls} threaded), "
            f"so-cache {counters.native_cache_hits}/{counters.native_cache_misses} "
            f"hit/miss ({100.0 * counters.native_cache_hit_rate:.1f}%), "
            f"{counters.native_compiles} cc runs, "
            f"{counters.native_fallbacks} fallbacks"
        )
        # keys are (domain, loop); rows sort by loop name, then domain
        declines = sorted(counters.native_declines.items(), key=lambda kv: kv[0][::-1])
        for (domain, loop), reason in declines:
            lines.append(f"  declined {domain}:{loop}: {reason}")
        for reason in dict.fromkeys(counters.native_thread_declines):
            lines.append(f"  declined {reason}")
    # deferred import: repro.telemetry depends on repro.common, not vice versa
    from repro import telemetry

    tele = telemetry.summary()
    if tele is not None:
        lines.append(tele)
    return "\n".join(lines)
