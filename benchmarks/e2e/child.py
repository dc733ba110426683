"""The measuring child: one workload in one fresh interpreter.

*build -> first step -> N timed steps -> final observation*, then one JSON
object on the last line of stdout.  The parent times the whole process
(entry to result in hand); set-up time is that minus the timed steps.
With ``--trace`` the layer wrappers are installed before anything is built
or forked, and after the final observation the child removes them again
and times follow-on untraced steps (the tracing overhead) and the
explanatory tier legs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from time import perf_counter as now

import numpy as np

import layers
import trace
from workloads import BY_NAME, AirfoilCase, build_case, scaled

MASS_RTOL = 1e-10
ONE_WORKER_STEPS = 200


def timed(step, n: int) -> list[float]:
    times = []
    for _ in range(n):
        t0 = now()
        step()
        times.append(now() - t0)
    return times


def snapshot(counters) -> dict:
    """The counters and cache statistics the per-layer metrics are deltas of."""
    from repro import op2, ops
    from repro.ops import lazy

    return {
        "loops": {k: (r.wall_seconds, r.bytes_moved) for k, r in counters.loops.items()},
        "lazy_flushes": counters.lazy_flushes,
        "lazy_tiles": counters.lazy_tiles,
        "lazy_bytes_saved": counters.lazy_bytes_saved,
        "op2_plans": op2.plan_cache_stats(),
        "ops_plans": ops.plan_cache_stats(),
        "chains": lazy.chain_cache_stats(),
    }


def delta(before: dict, after: dict) -> dict:
    out: dict = {}
    for key, b in after.items():
        a = before[key]
        if key == "loops":
            out[key] = {
                k: (s - a.get(k, (0.0, 0))[0], n - a.get(k, (0.0, 0))[1])
                for k, (s, n) in b.items()
            }
        elif isinstance(b, dict):
            # cache sizes are states, everything else in a stats dict counts up
            out[key] = {k: v if k == "size" else v - a[k] for k, v in b.items()}
        else:
            out[key] = b - a
    return out


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(outputs: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(name.encode())
        h.update(np.ascontiguousarray(outputs[name]).tobytes())
    return h.hexdigest()


def final_checks(outputs: dict, case) -> tuple[int, list[str]]:
    """Post-run comparisons: ``(attempted, failures)``."""
    failures = [f"{name}: non-finite values" for name, a in outputs.items()
                if not np.all(np.isfinite(a))]
    attempted = len(outputs)
    if hasattr(case, "mass0"):
        attempted += 1
        drift = abs(case.mass1 - case.mass0) / abs(case.mass0)
        if not drift <= MASS_RTOL:
            failures.append(f"mass drifted by {drift:.3e} relative")
    return attempted, failures


def step_stats(times: list[float]) -> dict:
    """Median, sum and the highest percentile with ten samples above it."""
    n = len(times)
    out = {"steps": n, "step_s": statistics.median(times) if n else None,
           "step_sum_s": sum(times), "step_tail_s": None, "step_tail_pct": None}
    if n > 10:
        out["step_tail_s"] = sorted(times)[n - 11]
        out["step_tail_pct"] = 100.0 * (n - 10) / n
    return out


def stream_gbs(quick: bool) -> float:
    """Sustained copy bandwidth of this host, measured in this run."""
    a = np.ones((8 if quick else 64) * 2**20)  # 512 MB each at full size
    b = np.empty_like(a)
    best = float("inf")
    for _ in range(3):
        t0 = now()
        np.copyto(b, a)
        best = min(best, now() - t0)
    return 2 * a.nbytes / best / 1e9


def tier_legs(case, steps: int) -> dict:
    """interpreted -> execplan-vec on the same instance (native is the run)."""
    from repro import op2, ops
    from repro.common.config import swap

    out = {}
    for name, cfg in (
        ("tier.interp_step_s", {"use_execplan": False, "native": False}),
        ("tier.vec_step_s", {"native": False}),
    ):
        with swap(**cfg):
            if cfg.get("use_execplan", True):
                # native is not part of a plan's signature: drop the native
                # plans, then one warm-up step builds the vec ones
                op2.clear_plan_cache()
                ops.clear_plan_cache()
                case.step()
            out[name] = statistics.median(timed(case.step, steps))
    return out


def run_single(wl, size, n: int, seed: int, traced: bool, quick: bool) -> dict:
    from repro.common.config import configure
    from repro.common.counters import PerfCounters
    from repro.common.profiling import counters_scope

    if wl.lazy:
        configure(lazy=True)
    if traced:
        trace.install()
    counters = PerfCounters()
    with counters_scope(counters):
        case = build_case(wl.app, size, seed, lazy=wl.lazy)
        step = trace.wrap(case.step, trace.STEP) if traced else case.step
        step()  # first step: plan build, dlopen, chain schedules
        before = snapshot(counters)
        trace.mark()
        times = timed(step, n)
        trace.mark()
        after = snapshot(counters)
        outputs = case.outputs()
    attempted, failures = final_checks(outputs, case)
    out = {
        **step_stats(times), "elements": case.elements,
        "working_set_mb": case.working_set_bytes() / 1e6, "rss_mb": rss_mb(),
        "digest": digest(outputs), "checks": attempted, "failures": failures,
    }
    if traced:
        agg = trace.aggregate()
        out["chrome"] = trace.chrome_sample()
        trace.uninstall()
        out.update(
            agg=agg, step=agg["in_step"], total=layers.merge(agg["in_step"], agg["setup"]),
            build_self=agg["build_self"], delta=delta(before, after),
            native_fallbacks=counters.native_fallbacks, mp={},
            untraced_step_s=statistics.median(timed(case.step, max(3, n // 3))),
        )
        out["tier"] = tier_legs(case, scaled(wl.tier_steps, quick)) if wl.tier_steps else {}
    return out


def rank_body(comm, case, pm, n: int, traced: bool) -> dict:
    """SPMD body of the distributed workload; a step is one iteration."""
    if traced:
        trace.reset()
    t_body = now()

    def plain_step():
        case.app.run_distributed(comm, pm, 1)

    step = trace.wrap(plain_step, trace.STEP) if traced else plain_step
    step()
    before = snapshot(comm.counters)
    trace.mark()
    times = timed(step, n)
    trace.mark()
    after = snapshot(comm.counters)
    outputs = case.gathered_outputs(comm, pm)
    out = {"times": times, "rss_mb": rss_mb(),
           "native_fallbacks": comm.counters.native_fallbacks}
    if comm.rank == 0:
        out["outputs"] = outputs
    if traced:
        out["agg"] = trace.aggregate()
        out["delta"] = delta(before, after)
        out["chrome"] = trace.chrome_sample(pid=comm.rank)
        trace.uninstall()
        out["untraced"] = timed(plain_step, max(3, n // 3))
    out["body_s"] = now() - t_body
    return out


def run_mp(wl, size, n: int, seed: int, traced: bool, quick: bool) -> dict:
    from repro.mp import executor

    if traced:
        trace.install()
    case = AirfoilCase(size, seed)
    pm = case.app.build_partitioned(wl.ranks, "block")
    t0 = now()
    ranks = executor.run_spmd_mp(wl.ranks, rank_body, case, pm, n, traced)
    wall = now() - t0
    r0 = ranks[0]
    outputs = r0.pop("outputs")
    attempted, failures = final_checks(outputs, case)
    out = {
        **step_stats(r0["times"]), "elements": case.elements,
        "working_set_mb": case.working_set_bytes() / 1e6,
        "rss_mb": rss_mb() + sum(r["rss_mb"] for r in ranks),
        "digest": digest(outputs), "checks": attempted, "failures": failures,
    }
    if traced:
        parent = trace.aggregate()
        trace.uninstall()
        agg = r0["agg"]
        compute = [layers.compute_self(r["agg"]["in_step"]) for r in ranks]
        untraced = statistics.median(r0["untraced"])
        one = executor.run_spmd_mp(
            1, rank_body, case, case.app.build_partitioned(1, "block"),
            scaled(ONE_WORKER_STEPS, quick), False,
        )[0]
        out.update(
            agg=agg, step=agg["in_step"],
            total=layers.merge(agg["in_step"], agg["setup"], parent["in_step"], parent["setup"]),
            build_self=agg["build_self"], delta=r0["delta"],
            native_fallbacks=r0["native_fallbacks"], untraced_step_s=untraced, tier={},
            chrome=[e for r in ranks for e in r["chrome"]],
            mp={
                "fork_join_s": wall - max(r["body_s"] for r in ranks),
                "rank_imbalance": max(compute) / min(compute),
                "speedup_vs_1worker": statistics.median(one["times"]) / untraced,
            },
        )
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-only", action="store_true",
                    help="no timed steps: one more sample of the set-up time")
    args = ap.parse_args()
    wl = BY_NAME[args.workload]
    n = 0 if args.setup_only else wl.timed_steps(args.seconds, args.quick)
    run = run_mp if wl.ranks else run_single
    try:
        result = run(wl, wl.mesh(args.quick), n, args.seed, args.trace, args.quick)
        if args.trace:  # last, so the 1 GB of arrays is not in the peak RSS
            result["stream_gbs"] = stream_gbs(args.quick)
    except Exception as exc:  # a step that raises fails the run, not the harness
        result = {"error": f"{type(exc).__name__}: {exc}"}
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
