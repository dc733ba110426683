"""True multi-process SPMD execution.

``repro.mp`` runs each simulated MPI rank in a real forked worker process:

* :func:`run_spmd_mp` — drop-in alternative to
  :func:`repro.simmpi.run_spmd`; same rank-function contract, same error
  semantics, real OS-level parallelism.  The deterministic in-process
  executor remains the verification oracle: results must be (and are
  tested to be) bitwise identical across the two.
* :class:`MpWorld` — the multi-process world handle (counters, failed
  ranks, worker pids, ``kill`` for resilience tests).
* :class:`~repro.mp.transport.ProcessTransport` — SIGKILL-safe
  per-ordered-pair pipe fabric implementing the simmpi transport protocol.
* :class:`~repro.mp.shm.DatArena` — moves Dat storage onto
  ``multiprocessing.shared_memory`` segments so worker writes are visible
  to the parent.
* :func:`run_resilient_spmd_mp` — checkpoint-restart over real worker
  deaths (SIGKILL a live rank; recover bitwise-identically); it shares
  :mod:`repro.resilience.driver`'s restart loop with the threaded
  :func:`~repro.resilience.run_resilient_spmd` and only swaps the launcher.
"""

from repro.mp.executor import MpWorld, run_spmd_mp
from repro.mp.shm import DatArena, restore, snapshot
from repro.mp.transport import FailedFlags, ProcessTransport
from repro.resilience.driver import run_resilient_spmd_mp

__all__ = [
    "MpWorld",
    "run_spmd_mp",
    "run_resilient_spmd_mp",
    "DatArena",
    "snapshot",
    "restore",
    "FailedFlags",
    "ProcessTransport",
]
