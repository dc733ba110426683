"""Ablation: colouring mini-block size (the op_plan block_size knob).

Smaller blocks colour with fewer colours (fewer conflicts per block) but
pay more launch/bookkeeping; larger blocks amortise overhead but serialise
more colours — the trade-off behind OP2's default.  The GPU model prices
the colour count via its serialisation penalty.
"""

import pytest

from _support import emit
from repro.apps.airfoil import generate_mesh
from repro.machine import NVIDIA_K40
from repro.machine.gpu import GpuExecutionModel, GpuLoopShape
from repro.op2.plan import build_plan

BLOCK_SIZES = [16, 32, 64, 128, 256, 512]


@pytest.fixture(scope="module")
def race_args():
    mesh = generate_mesh(40, 32, jitter=0.1)
    from repro import op2

    args = [
        mesh.res(op2.INC, mesh.edge2cell, 0),
        mesh.res(op2.INC, mesh.edge2cell, 1),
    ]
    return mesh.edges, args


def test_ablation_colouring_block_size(benchmark, race_args):
    edges, args = race_args
    benchmark.pedantic(
        lambda: build_plan(edges, args, block_size=128),
        rounds=3,
        iterations=1,
    )

    gpu = GpuExecutionModel(NVIDIA_K40)
    rows = [f"{'block size':>10}{'blocks':>8}{'block colours':>14}{'elem colours':>14}{'GPU penalty':>12}"]
    colours = {}
    for bs in BLOCK_SIZES:
        plan = build_plan(edges, args, block_size=bs)
        penalty = gpu.colour_penalty(GpuLoopShape(colours=plan.n_block_colours))
        colours[bs] = plan.n_block_colours
        rows.append(
            f"{bs:>10}{plan.n_blocks:>8}{plan.n_block_colours:>14}"
            f"{plan.n_elem_colours:>14}{penalty:>12.3f}"
        )
    emit(
        "ablation_colouring_block_size",
        rows,
        data={"config": {"block_sizes": list(BLOCK_SIZES)}, "block_colours": colours},
    )

    # every plan is race-free (the invariant), and small blocks never need
    # more colours than the biggest blocks on this mesh
    assert colours[16] <= colours[512]
    # colouring always needs at least 2 colours for a shared-cell edge loop
    assert all(c >= 2 for c in colours.values())
