"""Resilience subsystem: fault injection, detection, and checkpoint-restart.

Three layers over the simulated MPI runtime:

* :mod:`repro.resilience.faults` — deterministic :class:`FaultPlan`
  (kill / drop / delay / duplicate / slow) installed on a
  :class:`repro.simmpi.World`;
* :mod:`repro.resilience.detection` — :class:`RetryPolicy` backoff for
  transient faults; hard failures surface as
  :class:`~repro.common.errors.RankFailedError` in peers;
* :mod:`repro.resilience.driver` — the automatic checkpoint-restart loop
  over the checkpoint subsystem, launched on threads by
  :func:`run_resilient_spmd` or on forked workers by
  :func:`repro.mp.run_resilient_spmd_mp`.
"""

from repro.common.errors import (
    MessageLostError,
    RankFailedError,
    RankKilledError,
    ResilienceError,
)
from repro.resilience.detection import RetryPolicy
from repro.resilience.driver import ResilientResult, SpmdJob, run_resilient_spmd
from repro.resilience.faults import FaultPlan

__all__ = [
    "FaultPlan",
    "MessageLostError",
    "RankFailedError",
    "RankKilledError",
    "ResilienceError",
    "ResilientResult",
    "RetryPolicy",
    "SpmdJob",
    "run_resilient_spmd",
]
