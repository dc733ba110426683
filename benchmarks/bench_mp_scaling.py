"""Multi-process executor scaling: run_spmd (threads) vs run_spmd_mp (forks).

Times the distributed Airfoil proxy app with the native compiled-kernel
backend under both executors.  The in-process executor interleaves all
ranks on one Python interpreter (the GIL serialises everything outside the
native kernel bodies); ``repro.mp`` forks one OS process per rank, so on a
multi-core machine the compute legs genuinely overlap.

Measured legs (identical work, bitwise-identical results — asserted):

* ``inproc`` — ``run_spmd`` at WORKERS ranks (the oracle),
* ``mp1``    — ``run_spmd_mp`` at 1 worker (pure executor overhead:
  fork + pipe fabric + result shipping, no parallelism to win),
* ``mpN``    — ``run_spmd_mp`` at WORKERS workers.

Reported: wall times, mp-vs-inproc speedup, mpN-vs-mp1 scaling, and the
visible core count.  The >1.5x-at-4-workers gate is asserted only when the
machine actually has >= 4 cores — a 1-core container cannot physically
show multi-core scaling, and a benchmark that fakes it would poison the
trajectory; the honest figure is recorded either way.

Results land in ``benchmarks/results/mp_scaling.{txt,json}`` plus one
appended trajectory point in ``benchmarks/results/BENCH_mp.json``.
"""

import json
import os
import shutil
import tempfile
import time

import numpy as np
import pytest
from _support import RESULTS_DIR, compare_to_previous, emit
from repro.common.config import swap
from repro.common.plancache import clear_plan_caches
from repro.mp import run_spmd_mp
from repro.native import cache as native_cache
from repro.simmpi import run_spmd

MESH = (96, 64)
ITERS = 60
WORKERS = 4
REPEATS = 3


def _airfoil_case(nranks):
    """A fresh distributed-airfoil closure: (spmd callable) -> result dict."""
    from repro.apps.airfoil.app import AirfoilApp
    from repro.apps.airfoil.mesh import generate_mesh

    mesh = generate_mesh(*MESH, jitter=0.1)
    app = AirfoilApp(mesh)
    pm = app.build_partitioned(nranks, "block")

    def main(comm):
        rms = app.run_distributed(comm, pm, ITERS)
        return rms, pm.local(comm.rank).gather_dat(comm, mesh.q)

    def run(spmd):
        clear_plan_caches()
        rms, q = spmd(nranks, main)[0]
        return {"rms": rms, "q": q}

    return run


def _best_of(nranks, spmd):
    """Best-of-N wall time; every pass gets a pristine case (the in-process
    executor mutates the parent's app state, forked workers don't — reusing
    one case would time different work per executor)."""
    _airfoil_case(nranks)(spmd)  # untimed warm-up: plans + native admission
    best = float("inf")
    out = None
    for _ in range(REPEATS):
        run = _airfoil_case(nranks)  # mesh/partition built outside the clock
        t0 = time.perf_counter()
        out = run(spmd)
        best = min(best, time.perf_counter() - t0)
    return best, out


def test_mp_scaling():
    if native_cache.find_compiler() is None:
        pytest.skip("no C compiler: the mp scaling bench times the native tier")
    cores = os.cpu_count() or 1
    cache_root = tempfile.mkdtemp(prefix="repro-bench-mpcache-")
    try:
        with swap(use_execplan=True, native=True, native_cache_dir=cache_root):
            inproc_s, ref = _best_of(WORKERS, run_spmd)
            mp1_s, _ = _best_of(1, run_spmd_mp)
            mpn_s, got = _best_of(WORKERS, run_spmd_mp)
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)

    # the executors must agree bitwise before any timing is worth reporting
    assert got["rms"] == ref["rms"]
    assert np.array_equal(got["q"], ref["q"])

    speedup_vs_inproc = inproc_s / mpn_s
    scaling_vs_mp1 = mp1_s / mpn_s

    data = {
        "config": {
            "mesh": list(MESH),
            "iterations": ITERS,
            "workers": WORKERS,
            "repeats": REPEATS,
            "backend": "native",
        },
        "cores": cores,
        "results": {
            "inproc_seconds": inproc_s,
            "mp1_seconds": mp1_s,
            f"mp{WORKERS}_seconds": mpn_s,
            "speedup_vs_inproc": speedup_vs_inproc,
            "scaling_vs_mp1": scaling_vs_mp1,
        },
    }
    cmp = compare_to_previous("mp_scaling", data)

    rows = [
        f"distributed airfoil {MESH[0]}x{MESH[1]}, {ITERS} iters, "
        f"native backend, {cores} core(s) visible",
        f"inproc  ({WORKERS} ranks, threads) {inproc_s:8.4f} s",
        f"mp1     (1 worker process)      {mp1_s:8.4f} s",
        f"mp{WORKERS}     ({WORKERS} worker processes)    {mpn_s:8.4f} s",
        f"mp{WORKERS} vs inproc {speedup_vs_inproc:5.2f}x    "
        f"mp{WORKERS} vs mp1 {scaling_vs_mp1:5.2f}x",
    ]
    if cores < WORKERS:
        rows.append(
            f"NOTE: {cores} core(s) < {WORKERS} workers — the >1.5x scaling "
            "gate is physically unattainable here and is not asserted; the "
            "honest figure above is what this machine can show"
        )
    if cmp.get("previous_found"):
        d = cmp["deltas"].get("results.speedup_vs_inproc")
        if d is not None:
            rows.append(
                f"speedup_vs_inproc {d['previous']:.2f} -> {d['current']:.2f} "
                f"({d['ratio']:.2f}x of baseline)"
            )
    emit("mp_scaling", rows, data=data)

    # trajectory: one appended point per bench run
    traj_path = RESULTS_DIR / "BENCH_mp.json"
    points = json.loads(traj_path.read_text())["points"] if traj_path.exists() else []
    points.append(
        {
            "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "cores": cores,
            "workers": WORKERS,
            "speedup_vs_inproc": round(speedup_vs_inproc, 3),
            "scaling_vs_mp1": round(scaling_vs_mp1, 3),
        }
    )
    traj_path.write_text(json.dumps({"points": points}, indent=2) + "\n")

    # sanity gates that hold on any machine: the mp executor's overhead must
    # stay bounded (a 4-worker mp run on one core interleaves the same work
    # the thread executor interleaves, plus fork + pipes)
    assert mpn_s < inproc_s * 3.0, "mp executor overhead out of bounds"
    # the real scaling gate, only where the hardware can express it
    if cores >= WORKERS:
        assert speedup_vs_inproc > 1.5, (
            f"expected >1.5x at {WORKERS} workers on {cores} cores, "
            f"got {speedup_vs_inproc:.2f}x"
        )
