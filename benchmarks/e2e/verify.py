"""Correctness gate: untimed, per workload, before its timed run.

On a fixed check mesh, with the workload's seed and configuration, every
output dat is compared

(a) bitwise against the interpreted path (``use_execplan=False,
    native=False, lazy=False``); the distributed workload against the
    in-process ``run_spmd`` on the same partition, and
(b) within ``Tolerance(ulp=64, rtol=1e-12, atol=1e-12)`` against the
    ``seq`` backend,

through ``repro.verify.diff_backends``, so the reference is never the tier
under test.  Each compared array is one attempted operation.  Because it
runs the workload's configuration first, this phase is also what fills
the bench-private native cache; the compiler runs it pays are reported as
``native.compiles`` / ``native.compile_s`` (both 0 on a warm cache).
"""

from __future__ import annotations

import argparse
import json
from time import perf_counter as now

from workloads import BY_NAME, CHECK_MESH, CHECK_STEPS, SEQ_CHECK_MESH, build_case

INTERPRETED = {"use_execplan": False, "native": False, "lazy": False}


def count_compiles(stats: dict) -> None:
    """Time the cache loads that had to run the C compiler."""
    from repro.native import cache

    original = cache.load_kernel

    def load_kernel(source):
        t0 = now()
        kernel, cached = original(source)
        if not cached:
            stats["native_compiles"] += 1
            stats["native_compile_s"] += now() - t0
        return kernel, cached

    cache.load_kernel = load_kernel


def serial_state(wl, size, seed, tier: str) -> dict:
    from repro.common.config import swap

    cfg = {"lazy": wl.lazy} if tier == "workload" else INTERPRETED
    with swap(**cfg):
        case = build_case(wl.app, size, seed, backend="seq" if tier == "seq" else "vec",
                          lazy=cfg["lazy"])
        for _ in range(CHECK_STEPS):
            case.step()
        return case.outputs()


def _rank_state(comm, case, pm) -> dict:
    case.app.run_distributed(comm, pm, CHECK_STEPS)
    return case.gathered_outputs(comm, pm)


def distributed_state(wl, size, seed, tier: str) -> dict:
    from repro.mp import run_spmd_mp
    from repro.simmpi import run_spmd

    if tier == "seq":
        return serial_state(wl, size, seed, tier)
    case = build_case(wl.app, size, seed)
    pm = case.app.build_partitioned(wl.ranks, "block")
    spmd = run_spmd_mp if tier == "workload" else run_spmd
    return spmd(wl.ranks, _rank_state, case, pm)[0]


def verify(wl, seed: int) -> dict:
    from repro import verify as rv

    stats = {"attempted": 0, "failures": [], "native_compiles": 0, "native_compile_s": 0.0}
    count_compiles(stats)
    state = distributed_state if wl.ranks else serial_state
    checks = (
        ("interpreted" if not wl.ranks else "in-process", CHECK_MESH, rv.Tolerance()),
        ("seq", SEQ_CHECK_MESH, rv.Tolerance(ulp=64, rtol=1e-12, atol=1e-12)),
    )
    for reference, meshes, tol in checks:
        size = meshes[wl.app]
        report = rv.diff_backends(
            lambda tier: state(wl, size, seed, tier), ["workload"],
            reference=reference, tol=tol, trace=False,  # a loop observer would disable lazy
        )
        stats["attempted"] += len(report.results[reference])
        stats["failures"] += [
            f"{name} differs from the {reference} reference on {size[0]}x{size[1]}"
            for name in report.comparisons["workload"].mismatched
        ]
    return stats


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    print(json.dumps(verify(BY_NAME[args.workload], args.seed)))


if __name__ == "__main__":
    main()
