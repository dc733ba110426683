"""Ablation: RCM mesh renumbering (the OP2 locality optimisation).

Measures, on the Hydra-proxy mesh: the locality score and map bandwidth of
a scrambled vs RCM-renumbered numbering; the *real* wall-clock effect on
the gather-heavy loops (NumPy fancy indexing is itself locality
sensitive); and the modelled single-node effect (the Fig 3 'OP2 unopt vs
OP2' gap).
"""

import time

import numpy as np
import pytest

from _support import emit
from repro.apps.hydra import HydraApp, generate_hydra_mesh
from repro.op2.renumber import bandwidth, locality_score, rcm_permutation


def scrambled(nx=80, ny=48):
    mesh = generate_hydra_mesh(nx, ny, jitter=0.1)
    rng = np.random.default_rng(11)
    perm = rng.permutation(mesh.fine.cells.size)
    mesh.permute_cells(perm)
    return mesh


def test_ablation_renumbering(benchmark):
    mesh = scrambled()
    benchmark.pedantic(lambda: rcm_permutation(mesh.fine.edge2cell), rounds=3, iterations=1)

    loc_before = locality_score(mesh.fine.edge2cell)
    bw_before = bandwidth(mesh.fine.edge2cell)

    app = HydraApp(mesh)
    t0 = time.perf_counter()
    r_before = app.run(2)
    t_scrambled = time.perf_counter() - t0

    mesh2 = scrambled()
    app2 = HydraApp(mesh2)
    app2.renumber()
    loc_after = locality_score(mesh2.fine.edge2cell)
    bw_after = bandwidth(mesh2.fine.edge2cell)
    t0 = time.perf_counter()
    r_after = app2.run(2)
    t_renumbered = time.perf_counter() - t0

    rows = [
        f"{'':<22}{'scrambled':>12}{'RCM':>12}",
        f"{'locality score':<22}{loc_before:>12.1f}{loc_after:>12.1f}",
        f"{'map bandwidth':<22}{bw_before:>12}{bw_after:>12}",
        f"{'wall-clock (s)':<22}{t_scrambled:>12.3f}{t_renumbered:>12.3f}",
        f"{'rms (must match)':<22}{r_before:>12.3e}{r_after:>12.3e}",
    ]
    emit(
        "ablation_renumbering",
        rows,
        data={
            "locality_score": {"scrambled": loc_before, "renumbered": loc_after},
            "map_bandwidth": {"scrambled": int(bw_before), "renumbered": int(bw_after)},
            "wall_seconds": {"scrambled": t_scrambled, "renumbered": t_renumbered},
        },
    )

    # renumbering is a pure optimisation: identical physics
    assert r_after == pytest.approx(r_before, rel=1e-12)
    # and a dramatic locality improvement
    assert loc_after < 0.2 * loc_before
    assert bw_after < bw_before
