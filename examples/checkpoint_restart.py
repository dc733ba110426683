"""Checkpointing and recovery on Airfoil (paper Section VI / Figure 8).

1. Records the application's loop chain and prints the Figure-8 decision
   table (which datasets a checkpoint at each loop would save/drop).
2. Runs with the speculative checkpoint manager: it detects the 9-loop
   periodic kernel sequence and waits for the cheapest entry point.
3. Simulates a crash, then recovers: the re-run fast-forwards (loops are
   skipped, only global values replayed), restores the saved datasets and
   resumes — and ends bit-identical to the uninterrupted run.
4. Goes fully automatic: a 3-rank simulated MPI run with a fault plan that
   kills a rank mid-flight; ``run_resilient_spmd`` checkpoints every few
   loops, detects the failure, and restarts from the latest complete
   checkpoint round — again ending bit-identical to the fault-free run.

Run:  python examples/checkpoint_restart.py
"""

import numpy as np

from repro.apps.airfoil import AirfoilApp
from repro.checkpoint import (
    CheckpointManager,
    FileStore,
    RecoveryReplayer,
    best_entry_points,
    detect_period,
)
from repro.checkpoint.analysis import format_table
from repro.common.profiling import loop_chain_record
import tempfile
from pathlib import Path

NX, NY, ITERS = 20, 14, 6


def fresh_app() -> AirfoilApp:
    app = AirfoilApp(nx=NX, ny=NY, jitter=0.1)
    rng = np.random.default_rng(5)
    app.mesh.q.data[:, 0] *= 1.0 + 0.05 * rng.random(app.mesh.cells.size)
    return app


# -- 1. the decision table -------------------------------------------------------
print("recording the loop chain (2 iterations)...")
app = fresh_app()
with loop_chain_record() as chain:
    app.run(2)
print(format_table(chain))
period = detect_period([c.name for c in chain])
cheap = sorted({chain[i].name for i in best_entry_points(chain)})
print(f"\ndetected period: {period} loops; cheapest entry point(s): {cheap}")

# -- 2. checkpointed run -----------------------------------------------------------
print("\nrunning with a checkpoint triggered mid-flight...")
app = fresh_app()
ckpt_path = Path(tempfile.mkdtemp()) / "airfoil.ckpt.npz"
store = FileStore(ckpt_path)
with CheckpointManager(store, speculative=True) as mgr:
    app.run(2)
    mgr.trigger()
    app.run(ITERS - 2)
store.flush()
final_q = app.mesh.q.data.copy()
final_rms = app.rms.value
print(f"checkpoint written to {ckpt_path}")
print(f"  entry at loop index {store.entry_index}")
print(f"  saved: {sorted(store.datasets)} ({store.saved_bytes} bytes)")
print(f"  dropped/not saved: {sorted(store.dropped)}")

# -- 3. crash + recovery -------------------------------------------------------------
print("\nsimulating a crash: fresh state, recovery replay...")
app2 = fresh_app()
m = app2.mesh
loaded = FileStore.load(ckpt_path)
with RecoveryReplayer(
    loaded,
    {"q": m.q, "q_old": m.qold, "adt": m.adt, "res": m.res, "x": m.x, "bound": m.bound},
    {"rms": app2.rms},
):
    app2.run(ITERS)

ok = np.array_equal(app2.mesh.q.data, final_q) and app2.rms.value == final_rms
print(f"recovered run matches the uninterrupted run exactly: {ok}")
assert ok

# -- 4. automatic restart after an injected rank failure -------------------------------
print("\nresilient 3-rank run: kill rank 1 mid-flight, restart automatically...")
from repro.common.report import timing_report
from repro.resilience import FaultPlan, run_resilient_spmd
from repro.resilience.jobs import AirfoilJob
from repro.simmpi import run_spmd

job = AirfoilJob(3, ITERS, nx=NX, ny=NY)
state = job.setup()
base_rms, base_q = run_spmd(3, lambda comm: job.rank_main(comm, state))[0]

plan = FaultPlan().kill(1, at_loop=30)
print(f"fault plan:\n  {plan.describe()}")
res = run_resilient_spmd(
    3, job, ckpt_dir=Path(tempfile.mkdtemp()), frequency=18, plan=plan
)
rms, q = res.results[0]
print(f"injected faults fired: {plan.fired_log}")
print(
    f"survived with {res.restarts} restart(s); "
    f"recovered from checkpoint round(s) {res.recovered_rounds}"
)
ok = rms == base_rms and np.array_equal(q, base_q)
print(f"resilient run matches the fault-free run exactly: {ok}")
assert ok
print("\n" + timing_report(res.counters, top=3))
