"""Ablation: cache-block tiling and cross-loop fusion (Section VI locality).

Lazy execution (:mod:`repro.ops.lazy` + :mod:`repro.ops.tileplan`) is the
one tiling path: it queues a loop chain and replays it in skewed
cross-loop tiles.  Two experiments on the chain axpy -> 5-point smooth ->
square over an ``N x N`` grid:

* **tile-size sweep** — ``lazy_scope(lazy_tile=(e, e))`` square tiles and
  ``lazy_tile=(e, N)`` whole-row tiles (``e`` contiguous rows per tile)
  at every edge ``e``, against eager execution;
* **fusion vs eager** — ``lazy_scope()`` with the default tile (whole
  contiguous rows) against eager, with fused groups, tiles and the
  modelled DRAM traffic saved read from
  :class:`~repro.common.counters.PerfCounters`.

The gates are correctness — every tiled run must equal eager bitwise —
and one deterministic count: the default schedule has exactly the tiles
of ``lazy_tile=(DEFAULT_TILE, N)``, so a default that cuts the
contiguous dimension again fails here.
Speed is recorded as measured (median of ``REPEATS`` wall times per mode)
and never asserted — on this substrate a tile is a NumPy sub-range sweep,
so small tiles pay per-tile dispatch that real cache blocking would not.

Writes ``benchmarks/results/ablation_tile_size.{txt,json}`` and
``ablation_fusion.{txt,json}``.  Run with
``PYTHONPATH=src python -m pytest -q benchmarks/bench_ablation_tiling_fusion.py``
or directly as a script.
"""

import statistics
import time

import numpy as np

from _support import collect, emit
from repro import ops
from repro.common.config import swap
from repro.common.plancache import clear_plan_caches
from repro.ops.tileplan import DEFAULT_TILE

N = 256
TILE_EDGES = [16, 32, 64, 128, 256]
REPEATS = 15
#: fields one tile of the chain touches (a, b, c, d)
CHAIN_FIELDS = 4


def axpy(a, b):
    b[0, 0] = 2.0 * a[0, 0] + 1.0


def smooth(b, c):
    c[0, 0] = 0.25 * (b[1, 0] + b[-1, 0] + b[0, 1] + b[0, -1])


def square(c, d):
    d[0, 0] = c[0, 0] * c[0, 0]


def _chain():
    """Build the grid; return (run, observe) for the three-loop chain."""
    blk = ops.Block(2, "ablation")
    a, b, c, d = (ops.Dat(blk, (N, N), halo_depth=1, name=n) for n in "abcd")
    a.interior[...] = np.random.default_rng(0).standard_normal((N, N))
    r = [(0, N), (0, N)]

    def run():
        ops.par_loop(axpy, blk, r, a(ops.READ), b(ops.WRITE))
        ops.par_loop(smooth, blk, r, b(ops.READ, ops.S2D_5PT), c(ops.WRITE))
        ops.par_loop(square, blk, r, c(ops.READ), d(ops.WRITE))

    def observe():
        return [x.interior.copy() for x in (b, c, d)]

    return run, observe


def _measure(scope):
    """Median wall ms, the counters of one run and the final fields.

    ``scope()`` opens the execution mode around one run of the chain; the
    first run is a warm-up (plan compilation, chain-schedule build).
    """
    clear_plan_caches()
    run, observe = _chain()

    def once():
        with scope():
            run()

    once()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        once()
        times.append((time.perf_counter() - t0) * 1e3)
    counters, _ = collect(once)
    return statistics.median(times), counters, observe()


def _eager():
    return swap(lazy=False)


def _bitwise(fields, ref) -> bool:
    return all(np.array_equal(f, r) for f, r in zip(fields, ref))


def test_ablation_tile_size():
    eager_ms, _, ref = _measure(_eager)
    rows = [
        f"chain axpy -> smooth -> square over {N}x{N}, lazy_tile sweep "
        f"(median of {REPEATS}); eager {eager_ms:.2f} ms",
        f"{'edge':>6}{'shape':>12}{'working set KiB':>17}{'tiles':>7}"
        f"{'ms':>9}{'vs eager':>10}{'bitwise':>9}",
    ]
    data = {"eager_ms": eager_ms, "square": {}, "rows": {}}
    diverged = []
    for edge in TILE_EDGES:
        for kind, shape in (("square", (edge, edge)), ("rows", (edge, N))):
            if kind == "rows" and edge == N:
                continue  # the same whole-grid shape as the square row
            ms, counters, fields = _measure(lambda: ops.lazy_scope(lazy_tile=shape))
            ok = _bitwise(fields, ref)
            if not ok:
                diverged.append(shape)
            ws_kib = shape[0] * shape[1] * CHAIN_FIELDS * 8 / 1024
            data[kind][edge] = {
                "ms": ms, "tiles": counters.lazy_tiles,
                "working_set_kib": ws_kib, "bitwise": ok,
            }
            rows.append(
                f"{edge:>6}{f'{shape[0]}x{shape[1]}':>12}{ws_kib:>17.0f}"
                f"{counters.lazy_tiles:>7}{ms:>9.2f}{ms / eager_ms:>9.2f}x{str(ok):>9}"
            )
    rows.append("(0 tiles: a single tile covers the grid, so the chain runs whole)")
    emit(
        "ablation_tile_size",
        rows,
        data={
            "config": {"grid": [N, N], "tile_edges": TILE_EDGES, "repeats": REPEATS},
            "measured": data,
        },
    )
    assert not diverged, f"lazy tiles {diverged} diverged from eager"


def test_ablation_fusion_vs_eager():
    eager_ms, _, ref = _measure(_eager)
    lazy_ms, c, fields = _measure(ops.lazy_scope)
    ok = _bitwise(fields, ref)
    moved = sum(r.bytes_moved for r in c.loops.values())
    # the default is whole contiguous rows: DEFAULT_TILE-row bands, N wide
    _, rows_c, _ = _measure(lambda: ops.lazy_scope(lazy_tile=(DEFAULT_TILE, N)))
    rows = [
        f"chain axpy -> smooth -> square over {N}x{N} (median of {REPEATS}):",
        f"  lazy_scope(): {c.lazy_groups} fused group(s) of {c.lazy_loops} loops "
        f"in {c.lazy_tiles} tiles (lazy_tile=({DEFAULT_TILE}, {N}): "
        f"{rows_c.lazy_tiles}), bitwise equal to eager: {ok}",
        f"  eager {eager_ms:.2f} ms vs lazy {lazy_ms:.2f} ms "
        f"({lazy_ms / eager_ms:.2f}x)",
        f"  modelled DRAM traffic saved: {c.lazy_bytes_saved / 1e6:.2f} of "
        f"{moved / 1e6:.2f} MB",
    ]
    emit(
        "ablation_fusion",
        rows,
        data={
            "config": {"grid": [N, N], "repeats": REPEATS},
            "wall_ms": {"eager": eager_ms, "lazy": lazy_ms},
            "lazy": {
                "flushes": c.lazy_flushes, "loops": c.lazy_loops,
                "fused_groups": c.lazy_groups, "tiles": c.lazy_tiles,
                "bytes_saved_model": c.lazy_bytes_saved, "bytes_moved": moved,
                "whole_row_tiles": rows_c.lazy_tiles,
            },
            "bitwise": ok,
        },
    )
    assert ok, "lazy_scope() diverged from eager"
    assert c.lazy_groups == 1 and c.lazy_tiles > 1, "the chain did not fuse"
    assert c.lazy_tiles == rows_c.lazy_tiles, (
        f"default tiles ({c.lazy_tiles}) are not whole-row "
        f"{DEFAULT_TILE}x{N} bands ({rows_c.lazy_tiles})"
    )


if __name__ == "__main__":
    test_ablation_tile_size()
    test_ablation_fusion_vs_eager()
