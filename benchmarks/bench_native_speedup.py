"""Native compiled-kernel backend speedup: interpreted vs execplan vs native.

Measures the wall-clock effect of the native tier (C kernels compiled into
the on-disk object cache, slotted under the execplan registries) on the
Airfoil (op2) and CloverLeaf (ops) proxy apps.  Three executor tiers are
timed on identical runs:

* ``interpreted`` — ``use_execplan=False``: the reference Python path,
* ``vec``         — execplan on, native off: cached plans replaying the
  vectorised NumPy kernels,
* ``native``      — execplan on, native on: the same plans dispatching the
  compiled C loop bodies.

Cold-compile cost (first process ever: every admission runs ``cc``) is
reported separately from the warm-cache path (fresh process, populated
disk cache: admission only dlopens), and the steady state is gated
miss-free.  Results land in ``benchmarks/results/native_speedup.{txt,json}``
with a :func:`compare_to_previous` diff, plus one appended trajectory point
in ``benchmarks/results/BENCH_native.json``.
"""

import json
import shutil
import tempfile
import time

from _support import RESULTS_DIR, collect, compare_to_previous, counters_summary, emit
from repro.common.config import swap
from repro.common.plancache import clear_plan_caches
from repro.native import cache as native_cache

AIRFOIL_MESH = (100, 60)
AIRFOIL_ITERS = 40
CLOVER_MESH = (48, 48)
CLOVER_STEPS = 30
REPEATS = 3


def _timed(run):
    t0 = time.perf_counter()
    counters, _ = collect(run)
    return time.perf_counter() - t0, counters


def _measure_steady(run, **cfg):
    """Best-of-N wall time after an untimed warm-up pass (plan + native
    admission both settle on the warm-up, exactly like the execplan bench)."""
    clear_plan_caches()
    best, counters = float("inf"), None
    with swap(**cfg):
        collect(run)
        for _ in range(REPEATS):
            seconds, counters = _timed(run)
            best = min(best, seconds)
    return best, counters


def _airfoil_run():
    from repro.apps.airfoil.app import AirfoilApp

    app = AirfoilApp(nx=AIRFOIL_MESH[0], ny=AIRFOIL_MESH[1], jitter=0.2, backend="vec")
    return lambda: app.run(AIRFOIL_ITERS)


def _cloverleaf_run():
    from repro.apps.cloverleaf import CloverLeafApp

    app = CloverLeafApp(nx=CLOVER_MESH[0], ny=CLOVER_MESH[1], backend="vec")
    return lambda: app.run(CLOVER_STEPS)


def _native_summary(counters):
    return {
        "native_calls": counters.native_calls,
        "native_compiles": counters.native_compiles,
        "cache_hits": counters.native_cache_hits,
        "cache_misses": counters.native_cache_misses,
        "fallbacks": counters.native_fallbacks,
    }


def test_native_speedup():
    results = {}
    cache_root = tempfile.mkdtemp(prefix="repro-bench-natcache-")
    try:
        for label, make_run in (("airfoil", _airfoil_run), ("cloverleaf", _cloverleaf_run)):
            run = make_run()

            interp_s, _ = _measure_steady(run, use_execplan=False)
            vec_s, _ = _measure_steady(run, use_execplan=True, native=False)

            # cold compile: empty disk cache, every admission runs cc.  One
            # timed pass — this is a one-off per machine, not a steady state.
            native_cache.clear_memory_cache()
            clear_plan_caches()
            with swap(use_execplan=True, native=True, native_cache_dir=cache_root):
                cold_s, cold_counters = _timed(run)

                # warm cache, cold process (simulated): plans and dlopen
                # handles dropped, disk objects kept — admission only reloads.
                native_cache.clear_memory_cache()
                clear_plan_caches()
                warm_start_s, warm_counters = _timed(run)

            # steady state: everything warm, best of N
            native_s, steady_counters = _measure_steady(
                run, use_execplan=True, native=True, native_cache_dir=cache_root
            )

            results[label] = {
                "interpreted_seconds": interp_s,
                "vec_seconds": vec_s,
                "native_seconds": native_s,
                "cold_compile_seconds": cold_s,
                "warm_cache_first_run_seconds": warm_start_s,
                "speedup_vs_interpreted": interp_s / native_s,
                "speedup_vs_vec": vec_s / native_s,
                "cold_native": _native_summary(cold_counters),
                "warm_native": _native_summary(warm_counters),
                "steady_native": _native_summary(steady_counters),
                "steady_counters": counters_summary(steady_counters),
            }
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)

    data = {
        "config": {
            "airfoil_mesh": list(AIRFOIL_MESH),
            "airfoil_iterations": AIRFOIL_ITERS,
            "cloverleaf_mesh": list(CLOVER_MESH),
            "cloverleaf_steps": CLOVER_STEPS,
            "repeats": REPEATS,
            "backend": "vec",
        },
        "results": results,
    }
    cmp = compare_to_previous("native_speedup", data)

    rows = []
    for label, r in results.items():
        rows.append(
            f"{label:<11} interpreted {r['interpreted_seconds']:8.4f} s   "
            f"vec {r['vec_seconds']:8.4f} s   native {r['native_seconds']:8.4f} s   "
            f"{r['speedup_vs_interpreted']:5.2f}x vs interpreted, "
            f"{r['speedup_vs_vec']:5.2f}x vs vec"
        )
        rows.append(
            f"{'':<11} cold compile {r['cold_compile_seconds']:8.4f} s "
            f"({r['cold_native']['native_compiles']} cc runs)   "
            f"warm cache {r['warm_cache_first_run_seconds']:8.4f} s "
            f"({r['warm_native']['cache_hits']} hits, "
            f"{r['warm_native']['cache_misses']} misses)   "
            f"steady {r['steady_native']['native_calls']} native calls, "
            f"{r['steady_native']['fallbacks']} fallbacks"
        )
    if cmp.get("previous_found"):
        rows.append("")
        for label in results:
            d = cmp["deltas"].get(f"results.{label}.native_seconds")
            if d is not None:
                rows.append(
                    f"{label:<11} native_seconds {d['previous']:.4f} -> "
                    f"{d['current']:.4f} ({d['ratio']:.2f}x of baseline)"
                )
    emit("native_speedup", rows, data=data)

    # trajectory: one appended point per bench run, so future sessions can
    # chart the native tier's speedup over the repo's history
    traj_path = RESULTS_DIR / "BENCH_native.json"
    points = json.loads(traj_path.read_text())["points"] if traj_path.exists() else []
    points.append(
        {
            "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            **{
                f"{label}_speedup_vs_interpreted": round(
                    r["speedup_vs_interpreted"], 3
                )
                for label, r in results.items()
            },
            **{
                f"{label}_speedup_vs_vec": round(r["speedup_vs_vec"], 3)
                for label, r in results.items()
            },
        }
    )
    traj_path.write_text(json.dumps({"points": points}, indent=2) + "\n")

    # gates from the issue's acceptance bar: >=3x over interpreted, a real
    # wall-clock win over vec on at least one app, and a miss-free warm cache
    assert max(r["speedup_vs_interpreted"] for r in results.values()) >= 3.0
    assert any(r["speedup_vs_vec"] > 1.0 for r in results.values())
    for label, r in results.items():
        assert r["warm_native"]["native_compiles"] == 0, label
        assert r["warm_native"]["cache_misses"] == 0, label
        assert r["steady_native"]["native_calls"] > 0, label
        assert r["cold_native"]["native_compiles"] > 0, label
