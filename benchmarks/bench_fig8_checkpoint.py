"""Figure 8: the checkpointing decision table for Airfoil.

Regenerates the figure's table — per loop, the dataset access modes and the
"units of data saved if entering checkpointing mode here" column — both
from the paper's tabulated chain (expected: 8, 12, 13, 13, 8, ...) and from
the *live* loop chain recorded off the actual Airfoil application.  Also
demonstrates the speculative placement (wait for save_soln/update) and
measures the full checkpoint + recovery machinery.
"""

import numpy as np
import pytest

from _support import emit
from repro.apps.airfoil import AirfoilApp
from repro.checkpoint import (
    CheckpointManager,
    MemoryStore,
    RecoveryReplayer,
    best_entry_points,
    decision_table,
    detect_period,
    units_saved_if_entering,
)
from repro.checkpoint.analysis import format_table
from repro.common.profiling import loop_chain_record


@pytest.fixture(scope="module")
def live_chain():
    app = AirfoilApp(nx=12, ny=8)
    with loop_chain_record() as chain:
        app.run(2)
    return chain


def test_fig8_decision_table(benchmark, live_chain):
    benchmark.pedantic(lambda: decision_table(live_chain), rounds=10, iterations=1)

    table_text = format_table(live_chain)
    rows = [table_text, ""]

    units = [units_saved_if_entering(live_chain, i) for i in range(len(live_chain))]
    rows.append(f"units column: {units}")

    period = detect_period([c.name for c in live_chain])
    rows.append(f"detected kernel-sequence period: {period}")
    best = best_entry_points(live_chain)
    best_names = sorted({live_chain[i].name for i in best})
    rows.append(f"cheapest entry points: {best_names}")
    emit(
        "fig8_checkpoint_table",
        rows,
        data={
            "units_saved": units,
            "detected_period": period,
            "cheapest_entry_points": best_names,
        },
    )

    # the paper's pattern: save_soln entries cost 8; adt_calc 12; res/bres 13.
    # The live update kernel also reads adt (unlike the figure's tabulation),
    # so its entry costs 9; the figure-exact chain is asserted in the tests.
    assert units == [8, 12, 13, 13, 9, 12, 13, 13, 9] * 2
    assert period == 9
    # speculative placement waits for the cheapest loops (paper: save_soln/update)
    assert best_names == ["save_soln"]

    # checkpoint cost vs naive save-everything --------------------------------
    all_units = 2 + 4 + 4 + 1 + 4 + 1  # x, q, q_old, adt, res, bounds dims
    assert min(units) < 0.6 * all_units


def test_fig8_checkpoint_and_recovery_roundtrip(benchmark):
    def checkpointed_run():
        app = AirfoilApp(nx=12, ny=8)
        rng = np.random.default_rng(3)
        app.mesh.q.data[:, 0] *= 1.0 + 0.05 * rng.random(app.mesh.cells.size)
        store = MemoryStore()
        with CheckpointManager(store) as mgr:
            app.run(1)
            mgr.trigger()
            app.run(2)
        return app, store

    app, store = checkpointed_run()
    benchmark.pedantic(checkpointed_run, rounds=3, iterations=1)

    # minimal save set at a save_soln entry: q and res (the figure's 8
    # units); q_old/adt dropped, x/bound never saved (unmodified inputs)
    assert set(store.datasets) == {"q", "res"}
    assert {"q_old", "adt", "x", "bound"} <= set(store.dropped)
    assert store.saved_units == 8

    # crash + recovery reproduces the original run exactly ----------------------
    ref_q = app.mesh.q.data.copy()
    app2 = AirfoilApp(nx=12, ny=8)
    rng = np.random.default_rng(3)
    app2.mesh.q.data[:, 0] *= 1.0 + 0.05 * rng.random(app2.mesh.cells.size)
    m = app2.mesh
    with RecoveryReplayer(
        store,
        {"q": m.q, "q_old": m.qold, "adt": m.adt, "res": m.res, "x": m.x, "bound": m.bound},
        {"rms": app2.rms},
    ):
        app2.run(3)
    np.testing.assert_allclose(app2.mesh.q.data, ref_q)
