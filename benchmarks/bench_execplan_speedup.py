"""Compiled-loop executor speedup: interpreted vs compiled hot path.

Measures the wall-clock effect of the execplan layer (per-site plan
caching, buffer arenas, segment-reduction INC scatters, cached region
views) on the Airfoil (op2) and CloverLeaf (ops) proxy apps on the ``vec``
backend.  Unlike the figure benchmarks this one reports *measured* host
wall time, not model-predicted platform time: the compiled path is a real
optimisation of the simulation substrate itself.

Writes ``benchmarks/results/execplan_speedup.{txt,json}``; the CI
perf-smoke job fails if the compiled path is ever slower than the
interpreted one.
"""

import time

from _support import collect, counters_summary, emit
from repro.common.config import swap
from repro.common.plancache import clear_plan_caches

AIRFOIL_MESH = (100, 60)
AIRFOIL_ITERS = 40
CLOVER_MESH = (48, 48)
CLOVER_STEPS = 30
REPEATS = 3


def _measure(run, use_plan: bool):
    """Best-of-N wall time on a warmed app.

    The untimed warm-up run covers one-time costs common to both paths
    (vectorised kernel generation) plus, on the compiled path, plan
    compilation — so the timed repeats measure the steady state the layer
    is designed for: every loop invocation replaying a cached plan.
    """
    clear_plan_caches()
    best, counters = float("inf"), None
    with swap(use_execplan=use_plan):
        collect(run)
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            counters, _ = collect(run)
            best = min(best, time.perf_counter() - t0)
    return best, counters


def _airfoil_run():
    from repro.apps.airfoil.app import AirfoilApp

    app = AirfoilApp(nx=AIRFOIL_MESH[0], ny=AIRFOIL_MESH[1], jitter=0.2, backend="vec")
    return lambda: app.run(AIRFOIL_ITERS)


def _cloverleaf_run():
    from repro.apps.cloverleaf import CloverLeafApp

    app = CloverLeafApp(nx=CLOVER_MESH[0], ny=CLOVER_MESH[1], backend="vec")
    return lambda: app.run(CLOVER_STEPS)


def test_execplan_speedup():
    results = {}
    for label, make_run in (("airfoil_vec", _airfoil_run), ("cloverleaf_vec", _cloverleaf_run)):
        interp_s, _ = _measure(make_run(), False)
        compiled_s, counters = _measure(make_run(), True)
        results[label] = {
            "interpreted_seconds": interp_s,
            "compiled_seconds": compiled_s,
            "speedup": interp_s / compiled_s,
            "compiled_counters": counters_summary(counters),
        }

    rows = [
        f"{label:<16} interpreted {r['interpreted_seconds']:8.4f} s   "
        f"compiled {r['compiled_seconds']:8.4f} s   speedup {r['speedup']:5.2f}x   "
        f"(plans: {r['compiled_counters']['plan_hits']} hits, "
        f"{r['compiled_counters']['plan_misses']} misses)"
        for label, r in results.items()
    ]
    emit(
        "execplan_speedup",
        rows,
        data={
            "config": {
                "airfoil_mesh": list(AIRFOIL_MESH),
                "airfoil_iterations": AIRFOIL_ITERS,
                "cloverleaf_mesh": list(CLOVER_MESH),
                "cloverleaf_steps": CLOVER_STEPS,
                "repeats": REPEATS,
                "backend": "vec",
            },
            "results": results,
        },
    )

    # CI gate: the compiled path must never be a pessimisation; on quiet
    # machines Airfoil lands well above 2x (the acceptance target)
    assert results["airfoil_vec"]["speedup"] > 1.2
    assert results["cloverleaf_vec"]["speedup"] > 1.0
    # the whole point is amortisation: after warm-up every invocation must
    # replay a cached plan
    for label, r in results.items():
        c = r["compiled_counters"]
        assert c["plan_hits"] / (c["plan_hits"] + c["plan_misses"]) > 0.99, label
        assert c["plan_misses"] == 0, label
